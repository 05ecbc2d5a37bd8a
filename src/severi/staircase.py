"""Staircase (monomial ideal) counts and multiplicity tables for simple
plane-curve singularities.

Orientation convention, fixed once: a staircase is the exponent set of
the monomials OUTSIDE a monomial ideal, drawn as a Young diagram whose
rows are indexed by the y-exponent and whose row lengths give the
x-extent.  Row lengths weakly decrease, and the size of the staircase is
the colength of the ideal.  A monomial x^a y^b lying IN the ideal
forbids the box (a, b) from the staircase, which caps row b (and, by
monotonicity, every later row) at length a.

The three non-reduced model curves and their forbidden boxes:

    y^2  = 0  ->  (0, 2)    at most two rows
    xy^2 = 0  ->  (1, 2)    third and later rows of length at most one
    y^3  = 0  ->  (0, 3)    at most three rows

Counting staircases of each size gives the Euler numbers of their
punctual Hilbert schemes.  count_staircases fills every size up to the
truncation order in one iterative pass over the row-length bound, in
O((R + 1) * order^2) time and O((R + 1) * order) memory, where R is the
highest forbidden row.  The same numbers come from the closed forms

    y^2:  1/((1-q)(1-q^2))
    xy^2: (1-q+q^3)/((1-q)^2 (1-q^2))
    y^3:  1/((1-q)(1-q^2)(1-q^3))

and the two routes are kept as independent code paths.

A simple singularity of Milnor number m agrees with its model curve to
order equal to its delta invariant, so the first delta+1 coefficients of
the model series feed the local transform directly.  The (delta, branch)
table below is forced by m = 2*delta + 1 - b:

    index n odd,  y^2 family:  b = 2 (two smooth branches), delta = (n+1)/2
    index n even, y^2 family:  b = 1 (one branch),          delta = n/2
    index n even, xy^2 family: b = 3,                       delta = (n+2)/2
    index n odd,  xy^2 family: b = 2,                       delta = (n+1)/2
    E6: (3, 1)    E7: (4, 2)    E8: (4, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .genus_transform import LocalGermData, NhVector, nh_from_series_local
from .laurent import LaurentPoly1, TruncatedSeries, expand_rational

MODEL_FAMILIES = ("A", "D", "E")

_E_DELTA_BRANCHES = {6: (3, 1), 7: (4, 2), 8: (4, 1)}

_E_TABLE = {
    6: (5, 10, 6, 1),
    7: (2, 11, 15, 7, 1),
    8: (7, 21, 21, 8, 1),
}


@dataclass(frozen=True)
class BoxConstraint:
    """Set of boxes that must stay outside every counted staircase."""

    forbidden: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.forbidden:
            if a < 0 or b < 0:
                raise ValueError("boxes live in the first quadrant")

    @classmethod
    def for_model(cls, family: str) -> "BoxConstraint":
        boxes = {"A": {(0, 2)}, "D": {(1, 2)}, "E": {(0, 3)}}
        if family not in boxes:
            raise ValueError(f"unknown model family {family!r}")
        return cls(frozenset(boxes[family]))

    def cap_at(self, row: int) -> int | None:
        """Largest allowed length of the given row, None if unconstrained."""
        caps = [a for a, b in self.forbidden if b <= row]
        return min(caps) if caps else None


def count_staircases(order: int, constraint: BoxConstraint) -> TruncatedSeries:
    """Numbers of staircases of each size 0..order avoiding the forbidden
    boxes, in one pass that raises the row-length bound L = 1..order.

    Let last be the highest forbidden row.  tables[r] counts, by size,
    the fillings of rows r, r+1, ... whose rows have length at most L;
    rows from last on share the cap cap_at(last) and can repeat, so
    tables[last] covers all of them.  Raising the bound to L adds, bottom
    table first, the fillings whose top row has length exactly L: q^L
    times the table of the next row, which for tables[last] is
    tables[last] itself.  Time is O((last + 1) * order^2) and memory
    O((last + 1) * order).
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    last = max((b for _, b in constraint.forbidden), default=0)
    caps = [constraint.cap_at(r) for r in range(last + 1)]
    tables = [[1] + [0] * order for _ in range(last + 1)]
    for length in range(1, order + 1):
        for r in range(last, -1, -1):
            if caps[r] is not None and length > caps[r]:
                continue
            table, below = tables[r], tables[min(r + 1, last)]
            for d in range(length, order + 1):
                table[d] += below[d - length]
    return TruncatedSeries(tables[0])


def model_series(family: str, order: int) -> TruncatedSeries:
    """Closed-form expansion of the model curve's Euler series."""
    q = LaurentPoly1.monomial(1)
    one = LaurentPoly1.one()
    if family == "A":
        return expand_rational(one, [one - q, one - q * q], order)
    if family == "D":
        num = one - q + q ** 3
        return expand_rational(num, [one - q, one - q, one - q * q], order)
    if family == "E":
        return expand_rational(one, [one - q, one - q * q, one - q ** 3], order)
    raise ValueError(f"unknown model family {family!r}")


@dataclass(frozen=True)
class ADEType:
    """A simple singularity label: A_n (n >= 1), D_n (n >= 4), E_6/7/8."""

    family: str
    index: int

    def __post_init__(self):
        if self.family == "A":
            ok = self.index >= 1
        elif self.family == "D":
            ok = self.index >= 4
        elif self.family == "E":
            ok = self.index in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid singularity label {self.family}{self.index}")
        # The Milnor number of each label equals its index; the (delta,
        # branches) table must reproduce it through mu = 2*delta + 1 - b.
        if 2 * self.delta + 1 - self.branches != self.index:
            raise ValueError(f"{self.name}: delta and branch table breaks mu = 2*delta + 1 - b")

    @classmethod
    def parse(cls, label: str) -> "ADEType":
        text = label.strip().replace("_", "")
        if len(text) < 2 or text[0].upper() not in MODEL_FAMILIES or not text[1:].isdigit():
            raise ValueError(f"invalid singularity label {label!r}")
        return cls(text[0].upper(), int(text[1:]))

    @property
    def name(self) -> str:
        return f"{self.family}{self.index}"

    @property
    def delta(self) -> int:
        if self.family == "A":
            return (self.index + 1) // 2
        if self.family == "D":
            return (self.index + 2) // 2 if self.index % 2 == 0 else (self.index + 1) // 2
        return _E_DELTA_BRANCHES[self.index][0]

    @property
    def branches(self) -> int:
        if self.family == "A":
            return 2 if self.index % 2 == 1 else 1
        if self.family == "D":
            return 3 if self.index % 2 == 0 else 2
        return _E_DELTA_BRANCHES[self.index][1]

    @property
    def milnor(self) -> int:
        return self.index


def all_types(max_index: int = 12) -> list[ADEType]:
    out = [ADEType("A", n) for n in range(1, max_index + 1)]
    out += [ADEType("D", n) for n in range(4, max_index + 1)]
    out += [ADEType("E", n) for n in (6, 7, 8) if n <= max_index]
    return out


def germ_data(t: ADEType) -> LocalGermData:
    """Local data of the singularity, with the Euler numbers of its first
    delta+1 punctual Hilbert schemes taken from the matching model curve."""
    return LocalGermData(t.delta, t.branches, model_series(t.family, t.delta))


def ade_nh(t: ADEType) -> NhVector:
    """Multiplicity vector of an ADE singularity via the local transform."""
    return nh_from_series_local(germ_data(t))


def _comb(n: int, k: int) -> int:
    return math.comb(n, k) if k >= 0 else 0


def ade_closed_formula(t: ADEType, h: int) -> int:
    """The closed binomial expression for n_h, an independent route that
    never touches the series transform."""
    d = t.delta
    if not 0 <= h <= d:
        raise ValueError(f"h must lie in 0..{d} for {t.name}")
    if t.family == "A":
        if t.index % 2 == 1:
            return _comb(d + h, d - h)
        return _comb(d + h + 1, d - h)
    if t.family == "D":
        if t.index % 2 == 0:
            return _comb(d + h - 3, d - h) + 2 * _comb(d + h - 3, d - h - 1) + _comb(d + h - 2, d - h - 2)
        return _comb(d + h - 2, d - h) + 2 * _comb(d + h - 2, d - h - 1) + _comb(d + h - 1, d - h - 2)
    return _E_TABLE[t.index][h]


def ade_closed_vector(t: ADEType) -> NhVector:
    return NhVector("local", 0, tuple(ade_closed_formula(t, h) for h in range(t.delta + 1)))
