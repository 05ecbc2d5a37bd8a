"""Braid words, closures, and the circuit-partition state sum for the
HOMFLY polynomial.

A braid word on n strands is a sequence of letters (i, s) with
1 <= i <= n-1 and s = +1 for the counter-clockwise half-twist of
strands i, i+1 (s = -1 for its inverse).  A circuit partition keeps or
removes each letter; removed letters let the two strands run parallel.

Tracing the closure of the partitioned braid starts at top position 1
and follows the link.  The strand number is the current top-to-bottom
position label: it is transposed only at KEPT letters, while removed
letters pass straight through.  Whenever a pass returns to a previously
visited top position the trace jumps to the smallest unvisited one,
setting the strand number to it.  Every letter is met exactly twice.  A
partition is admissible when each removed positive letter is first met
with the lower of its two strand numbers and each removed negative
letter with the higher.

With w the writhe, b the component count of the partitioned closure and
U = (a^-1 - a)/z the value of the round circle, the state sum

    P(closure) = a^w * sum over admissible partitions of
                 (-1)^(#removed negative) z^(#removed) a^(n-b) U^b

evaluates the HOMFLY polynomial normalized so that the unknot takes the
value U.  Dividing out one factor of U gives the unknot = 1 form.

The sum is not taken over the 2^N keep/remove choices one by one; it is
evaluated as a label-arrangement DP (Jaeger's circuit-partition formula,
F. Jaeger, Trans. AMS 323, 1991).  Once the permutation sigma of the
kept letters is fixed, so is the order in which the trace runs its
passes: along the cycles of sigma, each from its smallest unvisited top
position, and b is the number of those cycles.  Whether a removed letter
is admissible then depends only on which two passes meet at it.  A sweep
from the top letter to the bottom one carries, for every arrangement of
the passes over the positions, the number of partial partitions by
(removed letters, parity of removed negative letters): a kept letter
swaps two passes, a removed one lets them through only if the pass at
the lower position is traced first (positive letter) or second
(negative letter), and a path counts only if it ends with every pass
where sigma sends it.  Arrangements from which the remaining letters can
no longer reach that end are dropped, which bounds the number of
states visited for N letters on n strands by O(N * min(2^N, (n!)^2)).
The plain 2^N sum, tracing every partition on its own, is kept in
tests/oracles.py as the independent reference.

For positive words the lowest power of a comes exactly from partitions
whose kept letters multiply to the identity permutation (b = n); with
2r kept letters such a partition contributes z^(w-n-2r), so the lowest
coefficient is sum_r #A(n,r) z^(w-n-2r) over the admissible counts.
That fast path runs the sweep for sigma = identity alone, whose trace
visits the strands in order, and never builds a two-variable
polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .laurent import LaurentPoly1, LaurentPoly2, unknot_value

DEFAULT_LETTER_BUDGET = 26


class EnumerationBudgetError(ValueError):
    """The word has more letters than the state-sum budget allows."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        letters = tuple((int(i), int(s)) for i, s in self.letters)
        for i, s in letters:
            if not 1 <= i <= self.strands - 1:
                raise ValueError(f"letter index {i} out of range 1..{self.strands - 1}")
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {s}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def writhe(self) -> int:
        return sum(s for _, s in self.letters)

    def is_positive(self) -> bool:
        return all(s > 0 for _, s in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Image of each top position at the bottom of the braid, as a
        1-indexed tuple with a dummy entry at 0."""
        return _partition_permutation(self.strands, self.letters, (1 << len(self.letters)) - 1)

    def rotated(self, k: int = 1) -> "BraidWord":
        """Cyclic rotation, a conjugation of the closure."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return BraidWord(self.strands, self.letters[k:] + self.letters[:k])

    def with_cancel_pair(self, index: int = 1) -> "BraidWord":
        """Append the canceling pair (index, +), (index, -)."""
        return BraidWord(self.strands, self.letters + ((index, 1), (index, -1)))

    def stabilized(self) -> "BraidWord":
        """Add a strand and one positive letter joining it on."""
        return BraidWord(self.strands + 1, self.letters + ((self.strands, 1),))

    def inserted(self, at: int, letter: tuple[int, int]) -> "BraidWord":
        return BraidWord(self.strands, self.letters[:at] + (tuple(letter),) + self.letters[at:])

    def text(self) -> str:
        return " ".join(str(i * s) for i, s in self.letters)


_TOKEN = re.compile(r"\(|\)|\^|-?\d+|\S")


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse the braid grammar

        WORD   := TERM (WS TERM)*
        TERM   := SIGNED | '(' WORD ')' '^' UINT
        SIGNED := ['-'] UINT          with UINT in 1..strands-1

    A signed integer k stands for the letter (|k|, sign k); parenthesized
    groups are repeated by the trailing caret count.
    """
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_word() -> list[tuple[int, int]]:
        letters: list[tuple[int, int]] = []
        first = True
        while True:
            tok = peek()
            if tok is None or tok == ")":
                if first:
                    raise ValueError("empty group in braid word")
                return letters
            letters.extend(parse_term())
            first = False

    def parse_term() -> list[tuple[int, int]]:
        tok = take()
        if tok == "(":
            inner = parse_word()
            if take() != ")":
                raise ValueError("unbalanced parenthesis in braid word")
            if take() != "^":
                raise ValueError("malformed repetition: a group needs '^' and a count")
            count_tok = take()
            if count_tok is None or not count_tok.isdigit():
                raise ValueError("malformed repetition: missing repetition count")
            return inner * int(count_tok)
        if tok is not None and re.fullmatch(r"-?\d+", tok):
            value = int(tok)
            index = abs(value)
            if value == 0 or index > strands - 1:
                raise ValueError(f"generator index {value} out of range 1..{strands - 1}")
            return [(index, 1 if value > 0 else -1)]
        raise ValueError(f"unexpected token {tok!r} in braid word")

    if not tokens:
        return BraidWord(strands, ())
    letters = parse_word()
    if pos != len(tokens):
        raise ValueError(f"unexpected token {tokens[pos]!r} after braid word")
    return BraidWord(strands, tuple(letters))


def _partition_permutation(strands: int, letters, mask: int) -> tuple[int, ...]:
    occupant = list(range(strands + 1))
    for idx, (i, _s) in enumerate(letters):
        if (mask >> idx) & 1:
            occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    perm = [0] * (strands + 1)
    for position in range(1, strands + 1):
        perm[occupant[position]] = position
    return tuple(perm)


def _cycle_count(perm: tuple[int, ...]) -> int:
    n = len(perm) - 1
    seen = [False] * (n + 1)
    count = 0
    for s in range(1, n + 1):
        if not seen[s]:
            count += 1
            j = s
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def closure_components(word: BraidWord) -> int:
    """Number of components of the closed braid."""
    return _cycle_count(word.permutation())


@dataclass(frozen=True)
class CircuitPartition:
    """A keep/remove choice for every letter of a braid word."""

    word: BraidWord
    kept: tuple[bool, ...]

    def __post_init__(self):
        if len(self.kept) != len(self.word.letters):
            raise ValueError("need one keep/remove flag per letter")
        object.__setattr__(self, "kept", tuple(bool(k) for k in self.kept))

    @classmethod
    def from_mask(cls, word: BraidWord, mask: int) -> "CircuitPartition":
        return cls(word, tuple(bool((mask >> i) & 1) for i in range(len(word.letters))))

    def mask(self) -> int:
        return sum(1 << i for i, k in enumerate(self.kept) if k)

    def permutation(self) -> tuple[int, ...]:
        return _partition_permutation(self.word.strands, self.word.letters, self.mask())

    def components(self) -> int:
        return _cycle_count(self.permutation())

    def removed_count(self) -> int:
        return sum(1 for k in self.kept if not k)


def trace_encounters(p: CircuitPartition) -> tuple[tuple[int, int], ...]:
    """Strand numbers at the first and second encounter of every letter."""
    strands = p.word.strands
    letters = p.word.letters
    kept = p.kept
    n_letters = len(letters)
    first = [0] * n_letters
    second = [0] * n_letters
    visited = [False] * (strands + 1)
    for start in range(1, strands + 1):
        if visited[start]:
            continue
        pos = start
        while True:
            visited[pos] = True
            for idx in range(n_letters):
                i, _sign = letters[idx]
                if pos == i or pos == i + 1:
                    if first[idx] == 0:
                        first[idx] = pos
                    else:
                        second[idx] = pos
                    if kept[idx]:
                        pos = i + 1 if pos == i else i
            if pos == start:
                break
    return tuple(zip(first, second))


def is_admissible(p: CircuitPartition) -> bool:
    """Every removed positive letter is first met with its lower strand
    number, every removed negative letter with its higher one."""
    encounters = trace_encounters(p)
    return all(keep or (first == i) == (sign > 0)
               for (i, sign), keep, (first, _second) in zip(p.word.letters, p.kept, encounters))


def iter_admissible(word: BraidWord, budget: int | None = None):
    """Yield the admissible partitions of a word, masks ascending."""
    _check_budget(word, budget)
    for mask in range(1 << len(word.letters)):
        p = CircuitPartition.from_mask(word, mask)
        if is_admissible(p):
            yield p


def _check_budget(word: BraidWord, budget: int | None):
    limit = DEFAULT_LETTER_BUDGET if budget is None else budget
    if len(word.letters) > limit:
        raise EnumerationBudgetError(
            f"word has {len(word.letters)} letters, exceeding the enumeration budget {limit}")


def _swapped(q: tuple[int, ...], i: int) -> tuple[int, ...]:
    return q[:i] + (q[i + 1], q[i]) + q[i + 2:]


def _reach_sets(strands: int, letters) -> list[set[tuple[int, ...]]]:
    """reach[h] holds every arrangement q from which some kept subword of
    letters[h:] leads to the identity.

    An arrangement lists, for each position (0-indexed), the bottom
    position where the pass now at that position ends; a kept letter
    swaps two entries.  reach[0] is the set of permutations that kept
    subwords of the whole word can produce.
    """
    current = {tuple(range(strands))}
    reach = [current]
    for i, _sign in reversed(letters):
        current = current | {_swapped(q, i - 1) for q in current}
        reach.append(current)
    reach.reverse()
    return reach


def _trace_order(sigma: tuple[int, ...]) -> tuple[list[int], int]:
    """Trace rank of every pass, indexed by the bottom position where it
    ends, and the number of cycles of sigma.

    sigma[t] is the bottom position of the pass started at top position
    t; the trace follows each cycle of sigma from its smallest unvisited
    top position.
    """
    order = [0] * len(sigma)
    seen = [False] * len(sigma)
    rank = cycles = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycles += 1
        t = start
        while not seen[t]:
            seen[t] = True
            order[sigma[t]] = rank
            rank += 1
            t = sigma[t]
    return order, cycles


def _arrangement_sweep(letters, sigma, order, reach) -> dict[tuple[int, int], int]:
    """Admissible partitions whose kept letters produce the permutation
    sigma, counted by (removed letters, parity of removed negative ones).

    The sweep runs top to bottom over arrangements q, starting at sigma
    and accepting at the identity.  A kept letter swaps the two passes at
    its positions; a removed letter leaves them in place and is
    admissible only when the pass at the lower position i is traced
    first (positive letter) or second (negative letter).  A state
    survives only while the identity stays reachable.
    """
    states = {sigma: {(0, 0): 1}}
    for h, (i, sign) in enumerate(letters):
        i -= 1
        negative = sign < 0
        ahead = reach[h + 1]
        nxt: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
        for q, weights in states.items():
            kept = _swapped(q, i)
            if kept in ahead:
                bucket = nxt.get(kept)
                if bucket is None:
                    # Each weight table is read once, so it can be handed on.
                    nxt[kept] = weights
                else:
                    for key, count in weights.items():
                        bucket[key] = bucket.get(key, 0) + count
            if q in ahead and (order[q[i]] < order[q[i + 1]]) != negative:
                bucket = nxt.setdefault(q, {})
                for (removed, parity), count in weights.items():
                    key = (removed + 1, parity ^ negative)
                    bucket[key] = bucket.get(key, 0) + count
        states = nxt
    return states.get(tuple(range(len(sigma))), {})


@dataclass(frozen=True)
class HomflyValue:
    """The state-sum value in both normalizations.

    multiple_of_unknot is the raw sum (round circle = (a^-1 - a)/z);
    normalized divides one circle factor out (round circle = 1) and is
    None in the degenerate case where that division is not exact.
    """

    multiple_of_unknot: LaurentPoly2
    normalized: LaurentPoly2 | None

    def pinf(self) -> tuple[int, LaurentPoly1]:
        """Lowest a-exponent of the raw form and its z-polynomial."""
        return self.multiple_of_unknot.lowest_a_part()


def jaeger_homfly(word: BraidWord, budget: int | None = None) -> HomflyValue:
    """Evaluate the circuit-partition state sum, one arrangement sweep for
    every permutation the kept letters can produce."""
    _check_budget(word, budget)
    strands = word.strands
    reach = _reach_sets(strands, word.letters)
    counts: dict[tuple[int, int, int], int] = {}
    for sigma in reach[0]:
        order, components = _trace_order(sigma)
        for (removed, parity), count in _arrangement_sweep(word.letters, sigma, order, reach).items():
            key = (removed, parity, components)
            counts[key] = counts.get(key, 0) + count

    circle = unknot_value()
    circle_pow = [LaurentPoly2.one()]
    for _ in range(strands):
        circle_pow.append(circle_pow[-1] * circle)

    total = LaurentPoly2.zero()
    for (removed, parity, components), count in sorted(counts.items()):
        sign = -1 if parity else 1
        term = circle_pow[components].shifted(a_by=strands - components, z_by=removed)
        total = total + term * (sign * count)
    raw = total.shifted(a_by=word.writhe)
    try:
        normalized = raw.divide_unknot()
    except ValueError:
        normalized = None
    return HomflyValue(raw, normalized)


@dataclass(frozen=True)
class PinfPositive:
    """Lowest-a data of a positive word: counts[r] partitions keep 2r
    letters, and poly = sum_r counts[r] z^(w - n - 2r)."""

    strands: int
    writhe: int
    counts: tuple[int, ...]
    poly: LaurentPoly1


def pinf_positive(word: BraidWord, budget: int | None = None) -> PinfPositive:
    """Sum only over the partitions that can reach the lowest a-power:
    kept letters must multiply to the identity permutation, whose trace
    visits the strands in order."""
    if not word.is_positive():
        raise ValueError("the fast path needs a positive braid word")
    _check_budget(word, budget)
    strands = word.strands
    n_letters = len(word.letters)
    identity = tuple(range(strands))
    r_max = (word.writhe - strands + closure_components(word)) // 2
    counts = [0] * (r_max + 1)
    swept = _arrangement_sweep(word.letters, identity, identity, _reach_sets(strands, word.letters))
    for (removed, _parity), count in swept.items():
        counts[(n_letters - removed) // 2] += count
    poly = LaurentPoly1({word.writhe - strands - 2 * r: c for r, c in enumerate(counts) if c})
    return PinfPositive(strands, word.writhe, tuple(counts), poly)


def markov_checks(word: BraidWord, budget: int | None = None) -> dict:
    """Verify that the state sum does not change under a conjugation,
    under appending a canceling pair, and under stabilization."""
    base = jaeger_homfly(word, budget).multiple_of_unknot
    report: dict[str, bool | None] = {}
    report["rotation"] = jaeger_homfly(word.rotated(1), budget).multiple_of_unknot == base
    if word.strands >= 2:
        report["cancel_pair"] = (
            jaeger_homfly(word.with_cancel_pair(1), budget).multiple_of_unknot == base)
    else:
        report["cancel_pair"] = None
    report["stabilization"] = jaeger_homfly(word.stabilized(), budget).multiple_of_unknot == base
    report["ok"] = all(v for v in report.values() if v is not None)
    return report


@dataclass(frozen=True)
class MilnorData:
    """Numerical invariants read off a positive braid presentation."""

    mu: int
    writhe: int
    strands: int

    @property
    def is_singularity_candidate(self) -> bool:
        return self.mu >= 1

    def delta(self, branches: int) -> int:
        total = self.writhe - self.strands + branches
        if total % 2 != 0 or total < 0:
            raise ValueError(f"branch count {branches} is inconsistent with this word")
        return total // 2


def milnor_from_braid(word: BraidWord) -> MilnorData:
    """mu = w - n + 1 for a positive presentation of a singularity link;
    the delta invariant follows once the branch count is known."""
    if not word.is_positive():
        raise ValueError("Milnor data needs a positive braid word")
    return MilnorData(word.writhe - word.strands + 1, word.writhe, word.strands)
