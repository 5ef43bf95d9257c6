"""Graph-specific cover constructions: splits, decomposability, families.

Graphs are weighted complexes whose facets all have two vertices; the
conversions in both directions are lossless. Vertices are 0-indexed
internally, like everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence

from .algebra import generators
from .complexes import WeightedComplex, is_cover
from .errors import InternalError, NotAGraph
from .monomial import ExpVec


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    edges: tuple[frozenset[int], ...]
    weights: tuple[int, ...]

    @classmethod
    def validate(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        weights: Iterable[int] | None = None,
    ) -> WeightedGraph:
        c = WeightedComplex.validate(n, edges, weights)
        return cls.from_complex(c)

    @classmethod
    def from_complex(cls, complex_: WeightedComplex) -> WeightedGraph:
        bad = [f for f in complex_.facets if len(f) != 2]
        if bad:
            raise NotAGraph(
                f"facet {sorted(v + 1 for v in bad[0])} is not an edge"
            )
        return cls(complex_.n, complex_.facets, complex_.weights)

    def to_complex(self) -> WeightedComplex:
        return WeightedComplex(self.n, self.edges, self.weights)

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for e in self.edges:
            u, v = sorted(e)
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class Bipartition:
    parts: tuple[frozenset[int], frozenset[int]] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.parts is not None


def bipartition(graph: WeightedGraph) -> Bipartition:
    """BFS 2-coloring; on failure returns an explicit odd cycle.

    Isolated vertices land in the first part, so the empty graph comes
    back as ([n], empty).
    """
    adj = graph.adjacency()
    color = [-1] * graph.n
    parent = [-1] * graph.n
    depth = [0] * graph.n
    for root in range(graph.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v in sorted(adj[u]):
                    if color[v] == -1:
                        color[v] = 1 - color[u]
                        parent[v] = u
                        depth[v] = depth[u] + 1
                        nxt.append(v)
                    elif color[v] == color[u]:
                        return Bipartition(None, _tree_cycle(parent, depth, u, v))
            queue = nxt
    u_part = frozenset(i for i in range(graph.n) if color[i] == 0)
    v_part = frozenset(i for i in range(graph.n) if color[i] == 1)
    return Bipartition((u_part, v_part), None)


def _tree_cycle(
    parent: Sequence[int], depth: Sequence[int], u: int, v: int
) -> tuple[int, ...]:
    # Walk both endpoints of the offending edge up to their BFS ancestor.
    path_u, path_v = [u], [v]
    uu, vv = u, v
    while depth[uu] > depth[vv]:
        uu = parent[uu]
        path_u.append(uu)
    while depth[vv] > depth[uu]:
        vv = parent[vv]
        path_v.append(vv)
    while uu != vv:
        uu = parent[uu]
        vv = parent[vv]
        path_u.append(uu)
        path_v.append(vv)
    cycle = path_u + path_v[-2::-1]
    if len(cycle) % 2 != 1:
        raise InternalError(
            f"odd-cycle witness {[v + 1 for v in cycle]} has even length"
        )
    return tuple(cycle)


def split_order2(
    graph: WeightedGraph, a: Sequence[int], k: int
) -> tuple[ExpVec, ExpVec]:
    """Split a cover of order k >= 3 into covers of orders 2 and k-2.

    The order-2 part is 0 on zero-coordinate vertices, 2 on their
    neighbors, and 1 elsewhere. Canonical weights only.
    """
    complex_ = graph.to_complex()
    if not complex_.has_canonical_weights:
        raise ValueError("order-2 split requires canonical weights")
    if k < 3:
        raise ValueError(f"order-2 split needs k >= 3, got {k}")
    av = tuple(int(x) for x in a)
    if not is_cover(complex_, av, k):
        raise ValueError(f"{av} is not a cover of order {k}")
    zero_set = {i for i, x in enumerate(av) if x == 0}
    adj = graph.adjacency()
    neighbors = {j for i in zero_set for j in adj[i]}
    eps = tuple(
        0 if i in zero_set else 2 if i in neighbors else 1
        for i in range(graph.n)
    )
    rest = tuple(x - e for x, e in zip(av, eps))
    if not is_cover(complex_, eps, 2):
        raise InternalError(f"order-2 part {eps} of {av} is not a cover")
    if not is_cover(complex_, rest, k - 2):
        raise InternalError(f"rest {rest} of {av} is not a cover of order {k - 2}")
    return eps, rest


def bipartite_split(
    graph: WeightedGraph, a: Sequence[int], k: int
) -> tuple[ExpVec, ExpVec]:
    """Split a cover of order k >= 2 of a bipartite graph into orders 1, k-1.

    Rounds a/k up on one side of the bipartition and down on the other;
    both halves are re-checked against every edge before returning.
    """
    if k < 2:
        raise ValueError(f"bipartite split needs k >= 2, got {k}")
    bip = bipartition(graph)
    if not bip.is_bipartite:
        raise ValueError(
            f"graph has odd cycle {tuple(v + 1 for v in bip.odd_cycle)}"
        )
    complex_ = graph.to_complex()
    av = tuple(int(x) for x in a)
    if not is_cover(complex_, av, k):
        raise ValueError(f"{av} is not a cover of order {k}")
    up, _ = bip.parts
    b = tuple(
        -(-av[i] // k) if i in up else av[i] // k for i in range(graph.n)
    )
    c = tuple(x - y for x, y in zip(av, b))
    for e, w in zip(graph.edges, graph.weights):
        i, j = sorted(e)
        if b[i] + b[j] < w or c[i] + c[j] < (k - 1) * w:
            raise InternalError(
                f"split {b} + {c} of {av} fails edge {{{i + 1},{j + 1}}}"
            )
    return b, c


@dataclass(frozen=True)
class Decomposition:
    b: ExpVec
    i: int
    c: ExpVec
    j: int


def decompose(
    complex_: WeightedComplex, a: Sequence[int], k: int
) -> Decomposition | None:
    """Find a = b + c with orders i + j = k, i, j >= 1, or certify none exists.

    The algebra's generators answer it: a splits exactly when some g of
    degree <= k - 1 leaves a - g.a a cover of order k - deg g, since the
    part b of any split lies above such a g. The witness b is the lex
    least such g.a, also the lex least b of any split, and i is the least
    order that c = a - b allows.
    """
    if k < 2:
        raise ValueError(f"decomposition needs order k >= 2, got {k}")
    av = tuple(int(x) for x in a)
    if not is_cover(complex_, av, k):
        raise ValueError(f"{av} is not a cover of order {k}")
    witnesses = [
        g.a
        for g in generators(complex_, k - 1).generators
        if is_cover(complex_, tuple(map(sub, av, g.a)), k - g.k)
    ]
    if not witnesses:
        return None
    b = min(witnesses)
    c = tuple(map(sub, av, b))
    order_c = min(
        (sum(c[v] for v in f) // w for f, w in zip(complex_.facets, complex_.weights)),
        default=k,  # no facet bounds the order
    )
    i = max(1, k - order_c)
    return Decomposition(b, i, c, k - i)


@dataclass(frozen=True)
class FamilyInstance:
    graph: WeightedGraph
    complex: WeightedComplex
    cover: ExpVec
    order: int


def family_instance(m: int, k: int) -> FamilyInstance:
    """Hub-plus-circulant family with an indecomposable cover of order mk+k+1.

    On n = m+2k+1 vertices: vertices 1..m are joined to everything, and
    each i in m+1..n is joined to i+k and i+k+1, indices above n wrapping
    to h-n+m. The companion complex has the facets V minus each hub vertex
    and V minus each wrapped run {i..i+k-1}; the distinguished cover takes
    the value k on hubs and 1 elsewhere, meeting every facet with equality.
    """
    if m < 2 or k < 2:
        raise ValueError(f"family needs m, k >= 2, got m={m}, k={k}")
    n = m + 2 * k + 1

    def wrap(h: int) -> int:
        return h if h <= n else h - n + m

    edges = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if j != i:
                edges.add(frozenset((i - 1, j - 1)))
    for i in range(m + 1, n + 1):
        edges.add(frozenset((i - 1, wrap(i + k) - 1)))
        edges.add(frozenset((i - 1, wrap(i + k + 1) - 1)))
    graph = WeightedGraph.validate(n, sorted(edges, key=sorted))

    everything = set(range(n))
    facets = [everything - {i} for i in range(m)]
    for i in range(m + 1, n + 1):
        run = {wrap(h) - 1 for h in range(i, i + k)}
        facets.append(everything - run)
    complex_ = WeightedComplex.validate(n, facets)

    cover = tuple(k if i < m else 1 for i in range(n))
    order = m * k + k + 1
    for f in complex_.facets:
        if sum(cover[v] for v in f) != order:
            raise InternalError(
                f"family({m},{k}) cover misses facet {sorted(v + 1 for v in f)}"
            )
    return FamilyInstance(graph, complex_, cover, order)
