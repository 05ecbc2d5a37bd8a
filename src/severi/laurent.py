"""Exact Laurent-polynomial and truncated power-series arithmetic.

Coefficients are Python ints throughout, so nothing ever overflows or
rounds.  All values are immutable after construction and safe to share
between threads.  Printable and JSON forms list terms by ascending
exponent, which keeps every output deterministic.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping


def _canonical(items: Iterable[tuple]) -> dict:
    return {e: c for e, c in items if c != 0}


class LaurentPoly1:
    """Laurent polynomial in one variable, stored as a sparse
    exponent -> coefficient map with no zero entries."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        object.__setattr__(self, "coeffs", _canonical((coeffs or {}).items()))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly1 is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly1":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly1":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "LaurentPoly1":
        return cls({exponent: coeff})

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly1({0: other})
        if isinstance(other, LaurentPoly1):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly1(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly1({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly1(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        out = LaurentPoly1.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def valuation(self) -> int:
        """Smallest exponent present; error on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coeff(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def shifted(self, by: int) -> "LaurentPoly1":
        return LaurentPoly1({e + by: c for e, c in self.coeffs.items()})

    def pretty(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = var if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{e}" if mag == 1 else f"{mag}*{var}^{e}"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json(self) -> list:
        """[[exponent, coefficient-as-decimal-string], ...] by ascending exponent."""
        return [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)]

    def __repr__(self):
        return f"LaurentPoly1({self.pretty()!r})"


class LaurentPoly2:
    """Laurent polynomial in the pair of variables (a, z), keyed by
    (a-exponent, z-exponent)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int] | None = None):
        object.__setattr__(self, "coeffs", _canonical((coeffs or {}).items()))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly2 is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a_exp: int, z_exp: int, coeff: int = 1) -> "LaurentPoly2":
        return cls({(a_exp, z_exp): coeff})

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly2({(0, 0): other})
        if isinstance(other, LaurentPoly2):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return LaurentPoly2(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly2({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, z1), c1 in self.coeffs.items():
            for (a2, z2), c2 in other.coeffs.items():
                k = (a1 + a2, z1 + z2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly2(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        out = LaurentPoly2.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, a_exp: int, z_exp: int) -> int:
        return self.coeffs.get((a_exp, z_exp), 0)

    def shifted(self, a_by: int = 0, z_by: int = 0) -> "LaurentPoly2":
        return LaurentPoly2({(a + a_by, z + z_by): c for (a, z), c in self.coeffs.items()})

    def lowest_a_part(self) -> tuple[int, LaurentPoly1]:
        """Minimal a-exponent present and its z-coefficient polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no lowest a-part")
        a_min = min(a for a, _ in self.coeffs)
        part = {z: c for (a, z), c in self.coeffs.items() if a == a_min}
        return a_min, LaurentPoly1(part)

    def divide_unknot(self) -> "LaurentPoly2":
        """Exact division by (a^-1 - a)/z; raises ValueError if not divisible.

        Multiplying by z reduces the problem to division by a^-1 - a,
        which splits into an independent recurrence per z-exponent:
        g*(a^-1 - a) = h forces g[j+1] = h[j] + g[j-1] from the bottom up,
        with the two coefficients above the top of h required to vanish.
        """
        if not self.coeffs:
            return LaurentPoly2.zero()
        slices: dict[int, dict[int, int]] = {}
        for (a, z), c in self.coeffs.items():
            slices.setdefault(z + 1, {})[a] = c
        out: dict[tuple[int, int], int] = {}
        for z_exp, h in slices.items():
            lo, hi = min(h), max(h)
            g: dict[int, int] = {}
            for j in range(lo, hi + 1):
                g[j + 1] = h.get(j, 0) + g.get(j - 1, 0)
            if g.get(hi, 0) != 0 or g.get(hi + 1, 0) != 0:
                raise ValueError("polynomial is not divisible by (a^-1 - a)/z")
            for j, c in g.items():
                if c != 0:
                    out[(j, z_exp)] = c
        return LaurentPoly2(out)

    def pretty(self, var_a: str = "a", var_z: str = "z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for a, z in sorted(self.coeffs):
            c = self.coeffs[(a, z)]
            mag = abs(c)
            body = f"{var_a}^{a}*{var_z}^{z}"
            if mag != 1:
                body = f"{mag}*{body}"
            parts.append((c < 0, body))
        out = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json(self) -> list:
        """[[a-exponent, z-exponent, coefficient-as-decimal-string], ...]."""
        return [[a, z, str(self.coeffs[(a, z)])] for a, z in sorted(self.coeffs)]

    def __repr__(self):
        return f"LaurentPoly2({self.pretty()!r})"


def unknot_value() -> LaurentPoly2:
    """The round-circle normalization (a^-1 - a)/z."""
    return LaurentPoly2({(-1, -1): 1, (1, -1): -1})


def lowest_a_part(p: LaurentPoly2) -> tuple[int, LaurentPoly1]:
    return p.lowest_a_part()


class TruncatedSeries:
    """Power series in q known exactly through q^order.

    Arithmetic between two series truncates to the smaller of the two
    orders, so a result never claims more precision than its inputs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        t = tuple(int(c) for c in coeffs)
        if not t:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", t)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, d: int) -> int:
        if not 0 <= d <= self.order:
            raise IndexError(f"coefficient {d} outside truncation order {self.order}")
        return self.coeffs[d]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend truncation order {self.order} to {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[d] + other.coeffs[d] for d in range(n + 1)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncatedSeries(tuple(self.coeffs[d] - other.coeffs[d] for d in range(n + 1)))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for d1, c1 in enumerate(self.coeffs[: n + 1]):
            if c1 == 0:
                continue
            for d2 in range(n + 1 - d1):
                out[d1 + d2] += c1 * other.coeffs[d2]
        return TruncatedSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def pretty(self, var: str = "q") -> str:
        return LaurentPoly1(dict(enumerate(self.coeffs))).pretty(var) + f" + O({var}^{self.order + 1})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r})"


def one_minus_q_power(exponent: int, order: int) -> TruncatedSeries:
    """Expansion of (1 - q)^exponent, any integer exponent, through q^order."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if exponent >= 0:
        coeffs = [(-1) ** d * math.comb(exponent, d) if d <= exponent else 0 for d in range(order + 1)]
    else:
        k = -exponent
        coeffs = [math.comb(d + k - 1, k - 1) for d in range(order + 1)]
    return TruncatedSeries(coeffs)


def _divide_series(num: list[int], denom: LaurentPoly1, order: int) -> list[int]:
    d0 = denom.coeff(0)
    if d0 == 0:
        raise ValueError("denominator factor has zero constant term")
    tail = [(e, c) for e, c in denom.coeffs.items() if e > 0]
    out = [0] * (order + 1)
    for d in range(order + 1):
        acc = num[d]
        for e, c in tail:
            if e <= d:
                acc -= c * out[d - e]
        q, r = divmod(acc, d0)
        if r != 0:
            raise ValueError("expansion has a non-integer coefficient")
        out[d] = q
    return out


def expand_rational(numerator: LaurentPoly1, denom_factors: Iterable[LaurentPoly1], order: int) -> TruncatedSeries:
    """Formal expansion of numerator / prod(denom_factors) through q^order.

    Every factor must be a genuine power series (no negative exponents)
    with nonzero constant term; coefficients are computed exactly.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    if numerator.coeffs and numerator.valuation() < 0:
        raise ValueError("numerator must have no negative exponents")
    acc = [numerator.coeff(d) for d in range(order + 1)]
    for f in denom_factors:
        if f.coeffs and f.valuation() < 0:
            raise ValueError("denominator factor must have no negative exponents")
        acc = _divide_series(acc, f, order)
    return TruncatedSeries(acc)
