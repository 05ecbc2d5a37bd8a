"""Brute-force oracles, deliberately independent of the package code.

These work on plain lists and tuples so they share no arithmetic with
the implementations they check.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def longdiv_series(numerator: list[int], denominators: list[list[int]], order: int) -> list[int]:
    """Schoolbook long division of power series given as coefficient lists."""
    acc = list(numerator) + [0] * (order + 1 - len(numerator))
    acc = acc[: order + 1]
    for den in denominators:
        out = [0] * (order + 1)
        for d in range(order + 1):
            s = acc[d]
            for e in range(1, min(d, len(den) - 1) + 1):
                s -= den[e] * out[d - e]
            assert s % den[0] == 0
            out[d] = s // den[0]
        acc = out
    return acc


def partitions(n: int, max_part: int | None = None):
    """All partitions of n as weakly decreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_avoids(p: tuple[int, ...], forbidden) -> bool:
    """True when no forbidden box (col, row) lies inside the diagram."""
    return all(not (row < len(p) and p[row] > col) for col, row in forbidden)


def count_partitions_avoiding(n: int, forbidden) -> int:
    return sum(1 for p in partitions(n) if partition_avoids(p, forbidden))


def brute_independent_count(vertices: int, edges, k: int) -> int:
    """Count k-subsets with no edge inside by direct enumeration."""
    edge_set = {frozenset(e) for e in edges}
    count = 0
    for subset in combinations(range(vertices), k):
        if all(frozenset((u, v)) not in edge_set
               for i, u in enumerate(subset) for v in subset[i + 1:]):
            count += 1
    return count


def independence_profile_bitmask(vertices: int, edges) -> list[int]:
    """Counts of independent sets of every size via 2^V enumeration."""
    adj = [0] * vertices
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = [0] * (vertices + 1)
    for subset in range(1 << vertices):
        rest = subset
        ok = True
        while rest:
            v = (rest & -rest).bit_length() - 1
            if adj[v] & subset:
                ok = False
                break
            rest &= rest - 1
        if ok:
            counts[bin(subset).count("1")] += 1
    return counts


def brute_state_sum(strands: int, letters) -> dict[tuple[int, int, int], int]:
    """Admissible circuit partitions of the closed braid, counted by
    (removed letters, parity of removed negative letters, components).

    Every one of the 2^N keep/remove masks is traced on its own: start
    at the smallest unvisited top position, run down the braid (a kept
    letter (i, s) moves the strand between positions i and i+1), and
    come back in at the top position where the pass left the bottom.
    A removed positive letter must be met first at position i, a removed
    negative letter first at position i + 1.
    """
    n_letters = len(letters)
    table: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << n_letters):
        kept = [(mask >> k) & 1 == 1 for k in range(n_letters)]
        first_met = [0] * n_letters
        visited = [False] * (strands + 1)
        components = 0
        for start in range(1, strands + 1):
            if visited[start]:
                continue
            components += 1
            pos = start
            while not visited[pos]:
                visited[pos] = True
                for k, (i, _s) in enumerate(letters):
                    if pos in (i, i + 1):
                        if first_met[k] == 0:
                            first_met[k] = pos
                        if kept[k]:
                            pos = 2 * i + 1 - pos
        if all(kept[k] or (first_met[k] == i) == (s > 0) for k, (i, s) in enumerate(letters)):
            removed = kept.count(False)
            negatives = sum(1 for k, (_i, s) in enumerate(letters) if not kept[k] and s < 0)
            key = (removed, negatives % 2, components)
            table[key] = table.get(key, 0) + 1
    return table


def homfly_from_table(strands: int, writhe: int, table) -> dict[tuple[int, int], int]:
    """The state sum a^w sum (-1)^parity z^removed a^(n-b) U^b as an
    {(a exponent, z exponent): coefficient} map, U = (a^-1 - a)/z."""
    out: dict[tuple[int, int], int] = {}
    for (removed, parity, b), count in table.items():
        sign = -count if parity else count
        for k in range(b + 1):
            key = (writhe + strands - b + 2 * k - b, removed - b)
            out[key] = out.get(key, 0) + sign * comb(b, k) * (-1) ** k
    return {key: c for key, c in out.items() if c}
