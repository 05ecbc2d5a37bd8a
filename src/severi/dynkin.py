"""Independent-set counts in ADE diagrams.

The vertices of the diagram attached to a simple singularity form a
basis of vanishing cycles, and a deformation with k nodes collapses k
pairwise disjoint cycles.  Counting k-element independent vertex sets
therefore recovers the stratum multiplicities: n_h equals the count for
k = delta - h.  This module realizes that count with a tree dynamic
program; the equality with the series route lives in the test suite as
a cross-check, not as a claim of proof.

Diagram shapes, using 0-based vertices:

    A_n: the path 0-1-...-(n-1).
    D_n: the path on vertices 0..n-2 with vertex n-1 attached to
         vertex 1, giving the fork at one end.
    E_n: the path on vertices 0..n-2 with vertex n-1 attached to
         vertex 2.

The D-type convention is validated by matching the closed binomial
formulas for those types, which is the only available arbiter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .genus_transform import NhVector
from .staircase import ADEType


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..vertices-1."""

    vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertices < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise ValueError("edge endpoint out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.vertices)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def dynkin_diagram(t: ADEType | str) -> SimpleGraph:
    if isinstance(t, str):
        t = ADEType.parse(t)
    n = t.index
    if t.family == "A":
        return path_graph(n)
    attach = 1 if t.family == "D" else 2
    edges = {(i, i + 1) for i in range(n - 2)}
    edges.add((attach, n - 1))
    return SimpleGraph(n, frozenset(edges))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add_padded(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def independence_counts(g: SimpleGraph) -> tuple[int, ...]:
    """Number of independent vertex sets of each size, as a tuple indexed
    by size.  Dynamic programming over the trees of a forest; cyclic
    input is rejected."""
    adj = g.adjacency()
    visited = [False] * g.vertices
    total = [1]

    def tree_dp(root: int) -> tuple[list[int], list[int]]:
        # Returns (counts with root taken, counts with root free),
        # computed with an explicit stack to sidestep recursion limits;
        # a child's tables are dropped once folded into its parent.
        taken: dict[int, list[int]] = {}
        free: dict[int, list[int]] = {}
        stack = [(root, -1, False)]
        while stack:
            v, parent, expanded = stack.pop()
            if not expanded:
                visited[v] = True
                stack.append((v, parent, True))
                for w in adj[v]:
                    if w != parent:
                        if visited[w]:
                            raise ValueError("independence counts need a forest, found a cycle")
                        stack.append((w, v, False))
            else:
                t, f = [0, 1], [1]
                for w in adj[v]:
                    if w != parent:
                        tw, fw = taken.pop(w), free.pop(w)
                        t = _convolve(t, fw)
                        f = _convolve(f, _add_padded(tw, fw))
                taken[v], free[v] = t, f
        return taken.pop(root), free.pop(root)

    for v in range(g.vertices):
        if not visited[v]:
            t, f = tree_dp(v)
            total = _convolve(total, _add_padded(t, f))
    counts = total + [0] * (g.vertices + 1 - len(total))
    return tuple(counts[: g.vertices + 1])


def independent_set_count(g: SimpleGraph, k: int) -> int:
    if k < 0:
        raise ValueError("set size must be nonnegative")
    counts = independence_counts(g)
    return counts[k] if k < len(counts) else 0


def dynkin_nh(t: ADEType | str) -> NhVector:
    """Multiplicity vector read off the diagram: n_h is the number of
    ways to choose delta-h pairwise non-adjacent vertices."""
    if isinstance(t, str):
        t = ADEType.parse(t)
    counts = independence_counts(dynkin_diagram(t))
    delta = t.delta

    def count(k: int) -> int:
        return counts[k] if k < len(counts) else 0

    return NhVector("local", 0, tuple(count(delta - h) for h in range(delta + 1)))
