"""Transform between Hilbert-scheme Euler series and stratum multiplicities.

Writing f_d for the Euler number of the d-th Hilbert scheme of points of
a curve of arithmetic genus g, the multiplicities n_h are defined by

    sum_d f_d q^d  =  sum_{h <= g} n_h q^(g-h) (1-q)^(2h-2)          (global)

and for the germ of a singularity with delta invariant d and b branches

    (1-q)^b sum_n chi_n q^n  =  sum_{h <= d} n_h q^(d-h) (1-q)^(2h)  (local).

Both systems are triangular with unit diagonal when read off coefficient
by coefficient, so they are solved by integer back-substitution; no
rationals ever appear and insufficient truncation order is a hard error
rather than a best-effort answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import TruncatedSeries, one_minus_q_power


@dataclass(frozen=True, eq=False)
class NhVector:
    """Multiplicities n_h for h = low .. low+len(values)-1.

    kind is "local" (indexed 0..delta) or "global" (top index is the
    arithmetic genus).  Equality compares the underlying h -> value maps
    and ignores padding zeros and the kind tag, so a local vector and
    the global vector of a rational curve with that single singularity
    compare equal.
    """

    kind: str
    low: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("local", "global"):
            raise ValueError(f"unknown NhVector kind {self.kind!r}")
        if self.kind == "local" and self.low != 0:
            raise ValueError("local vectors are indexed from h = 0")
        if not self.values:
            raise ValueError("empty multiplicity vector")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    @property
    def high(self) -> int:
        return self.low + len(self.values) - 1

    def n(self, h: int) -> int:
        if self.low <= h <= self.high:
            return self.values[h - self.low]
        return 0

    def as_map(self) -> dict[int, int]:
        return {self.low + i: v for i, v in enumerate(self.values) if v != 0}

    def __eq__(self, other):
        if not isinstance(other, NhVector):
            return NotImplemented
        return self.as_map() == other.as_map()

    def __hash__(self):
        return hash(frozenset(self.as_map().items()))

    def to_json(self) -> dict:
        return {"kind": self.kind, "low": self.low, "values": list(self.values)}

    def pretty(self) -> str:
        return f"n_h, h = {self.low}..{self.high}: " + ", ".join(str(v) for v in self.values)


@dataclass(frozen=True)
class GlobalCurveData:
    """Arithmetic genus, geometric genus, and the Euler series of a curve."""

    genus: int
    geometric_genus: int
    hilb: TruncatedSeries

    def __post_init__(self):
        if not 0 <= self.geometric_genus <= self.genus:
            raise ValueError("need 0 <= geometric genus <= arithmetic genus")
        if self.hilb[0] != 1:
            raise ValueError("the degree-0 Hilbert scheme is a point, so the series starts with 1")


@dataclass(frozen=True)
class LocalGermData:
    """Delta invariant, branch count, and the Euler series of a germ."""

    delta: int
    branches: int
    hilb: TruncatedSeries

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta invariant must be nonnegative")
        if self.branches < 1:
            raise ValueError("a germ has at least one branch")
        if self.hilb[0] != 1:
            raise ValueError("the degree-0 Hilbert scheme is a point, so the series starts with 1")

    @property
    def milnor(self) -> int:
        # mu = 2*delta + 1 - b for curve germs.
        return 2 * self.delta + 1 - self.branches


def _solve(coeffs: tuple[int, ...], top: int, shift: int) -> list[int]:
    """Back-substitution of sum_d f_d q^d = sum_h n_h q^(top-h) (1-q)^(2h+shift)
    for n_h, h = top-m .. top, from f_0 .. f_m: the coefficient of q^d
    pins n_(top-d) once the strata above it are subtracted."""
    m = len(coeffs) - 1
    residual = list(coeffs)
    out = [0] * (m + 1)
    for d in range(m + 1):
        c = out[m - d] = residual[d]
        if c:
            basis = one_minus_q_power(2 * (top - d) + shift, m - d)
            for j, bc in enumerate(basis.coeffs):
                residual[d + j] -= c * bc
    return out


def _assemble(nh: NhVector, top: int, shift: int, order: int) -> TruncatedSeries:
    """sum_h n_h q^(top-h) (1-q)^(2h+shift) through q^order."""
    acc = [0] * (order + 1)
    for h, c in nh.as_map().items():
        lift = top - h
        if lift > order:
            continue
        basis = one_minus_q_power(2 * h + shift, order - lift)
        for j, bc in enumerate(basis.coeffs):
            acc[lift + j] += c * bc
    return TruncatedSeries(acc)


def nh_from_series(series: TruncatedSeries, genus: int) -> NhVector:
    """Solve the global system for n_h from an arbitrary integer series.

    The coefficient of q^d pins n_(g-d), so an order-M series determines
    n_h for h = g-M .. g.  Entries below h = 0 are kept only when
    nonzero; curve inputs always make them vanish but arbitrary series
    need not, and dropping them silently would break the round trip.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if series.order < genus:
        raise ValueError(f"series order {series.order} is below the genus {genus}; "
                         "the transform needs at least one coefficient per stratum")
    values = _solve(series.coeffs, genus, -2)
    low = genus - series.order
    while low < 0 and values[0] == 0:
        values.pop(0)
        low += 1
    return NhVector("global", low, tuple(values))


def nh_from_series_global(data: GlobalCurveData) -> NhVector:
    return nh_from_series(data.hilb, data.genus)


def nh_from_series_local_raw(series: TruncatedSeries, delta: int, branches: int) -> NhVector:
    """Solve the local system for n_0 .. n_delta."""
    if delta < 0:
        raise ValueError("delta invariant must be nonnegative")
    if series.order < delta:
        raise ValueError(f"series order {series.order} is below delta {delta}")
    if branches < 1:
        raise ValueError("a germ has at least one branch")
    rhs = series.truncate(delta) * one_minus_q_power(branches, delta)
    return NhVector("local", 0, tuple(_solve(rhs.coeffs, delta, 0)))


def nh_from_series_local(data: LocalGermData) -> NhVector:
    return nh_from_series_local_raw(data.hilb, data.delta, data.branches)


def series_from_nh(nh: NhVector, order: int | None = None, branches: int | None = None) -> TruncatedSeries:
    """Rebuild the Euler series from a multiplicity vector.

    Global vectors need no extra data.  Local vectors additionally need
    the branch count b, because the defining identity carries a factor
    (1-q)^b on the series side.
    """
    if order is None:
        order = nh.high
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if nh.kind == "global":
        return _assemble(nh, nh.high, -2, order)
    if branches is None:
        raise ValueError("a local vector needs the branch count to rebuild its series")
    if branches < 1:
        raise ValueError("a germ has at least one branch")
    return _assemble(nh, nh.high, 0, order) * one_minus_q_power(-branches, order)


def combine_local(geometric_genus: int, locals_: list[NhVector]) -> NhVector:
    """Global multiplicities of a curve from its geometric genus and the
    local vectors of its singularities: the convolution product of the
    local vectors, shifted up by the geometric genus."""
    if geometric_genus < 0:
        raise ValueError("geometric genus must be nonnegative")
    conv = [1]
    for v in locals_:
        if v.kind != "local":
            raise ValueError("combine_local expects local vectors")
        out = [0] * (len(conv) + len(v.values) - 1)
        for i, a in enumerate(conv):
            if a == 0:
                continue
            for j, b in enumerate(v.values):
                out[i + j] += a * b
        conv = out
    return NhVector("global", geometric_genus, tuple(conv))


def hilb_from_locals(geometric_genus: int, germs: list[LocalGermData], order: int) -> TruncatedSeries:
    """Euler series of a complete curve with the given geometric genus
    and singularity germs: (1-q)^(2g~-2+sum b_i) times the local series."""
    exponent = 2 * geometric_genus - 2 + sum(g.branches for g in germs)
    acc = one_minus_q_power(exponent, order)
    for g in germs:
        if g.hilb.order < order:
            raise ValueError("each germ series must reach the requested order")
        acc = acc * g.hilb.truncate(order)
    return acc


def check_low_vanishing(series: TruncatedSeries, genus: int) -> tuple[bool, int]:
    """Test whether f_d - f_(2g-2-d) = c*(d+1-g) for a single constant c
    across all computable d, reading coefficients at negative indices as
    zero.  Returns (holds, c); when it holds, c equals n_0."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")

    def f(d: int) -> int:
        return series.coeffs[d] if 0 <= d <= series.order else 0

    c = None
    for d in range(series.order + 1):
        e = 2 * genus - 2 - d
        if e > series.order:
            continue
        lhs = f(d) - f(e)
        slope = d + 1 - genus
        if slope == 0:
            if lhs != 0:
                return False, 0
            continue
        if lhs % slope != 0:
            return False, 0
        value = lhs // slope
        if c is None:
            c = value
        elif c != value:
            return False, 0
    return True, 0 if c is None else c


def identity_checks(data: GlobalCurveData, topological_euler: int) -> dict:
    """Check n_g = 1 and n_(g-1) = euler + 2g - 2 against the transform.

    Mismatches are reported in the returned dict, never raised.
    """
    nh = nh_from_series_global(data)
    g = data.genus
    top = nh.n(g)
    subtop = nh.n(g - 1) if g >= 1 else None
    expected_subtop = topological_euler + 2 * g - 2
    report = {
        "genus": g,
        "n_top": top,
        "n_top_ok": top == 1,
        "n_subtop": subtop,
        "n_subtop_expected": expected_subtop,
        "n_subtop_ok": (subtop == expected_subtop) if g >= 1 else None,
    }
    checks = [report["n_top_ok"]]
    if g >= 1:
        checks.append(report["n_subtop_ok"])
    report["ok"] = all(checks)
    return report


def local_degree_bound_ok(data: LocalGermData) -> bool:
    """(1-q)^b times the germ series must be a polynomial of degree at
    most 2*delta; verified through the order the series carries."""
    poly = data.hilb * one_minus_q_power(data.branches, data.hilb.order)
    return all(c == 0 for c in poly.coeffs[2 * data.delta + 1:])
