"""Graph-specific cover constructions: splits, decomposability, families.

A graph is a weighted complex whose facets all have two vertices, its
edges. Vertices are 0-indexed internally, like everywhere else in the
package.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple, Sequence

from .algebra import generators
from .complexes import CoverPoint, WeightedComplex, is_cover
from .errors import InternalError, NotAGraph
from .monomial import ExpVec, checked_int, checked_ints


def neighbors(complex_: WeightedComplex) -> list[set[int]]:
    """Neighbor sets of a graph; NotAGraph names the first non-edge facet."""
    if complex_.non_edge is not None:
        raise NotAGraph(
            f"facet {sorted(v + 1 for v in complex_.non_edge)} is not an edge"
        )
    adj: list[set[int]] = [set() for _ in range(complex_.n)]
    for u, v in complex_.facets:
        adj[u].add(v)
        adj[v].add(u)
    return adj


class Bipartition(NamedTuple):
    parts: tuple[frozenset[int], frozenset[int]] | None
    odd_cycle: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.parts is not None


def bipartition(complex_: WeightedComplex) -> Bipartition:
    """BFS 2-coloring of a graph; on failure returns an explicit odd cycle.

    Isolated vertices land in the first part, so the empty graph comes
    back as ([n], empty).
    """
    n = complex_.n
    adj = neighbors(complex_)
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        for u in queue:  # grows as it is read: first in, first out
            for v in sorted(adj[u]):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return Bipartition(None, _tree_cycle(parent, u, v))
    u_part = frozenset(i for i in range(n) if color[i] == 0)
    v_part = frozenset(i for i in range(n) if color[i] == 1)
    return Bipartition((u_part, v_part), None)


def _tree_cycle(parent: Sequence[int], u: int, v: int) -> tuple[int, ...]:
    # Same color means depths of equal parity, and the ends of an edge lie
    # at most one BFS layer apart: u and v share a layer, so walks in step
    # meet at their lowest common ancestor.
    path_u, path_v = [u], [v]
    while u != v:
        u, v = parent[u], parent[v]
        if u < 0 or v < 0:
            raise InternalError(f"odd-cycle walk from {path_u[0] + 1} passed a root")
        path_u.append(u)
        path_v.append(v)
    cycle = path_u + path_v[-2::-1]
    if len(cycle) % 2 != 1:
        raise InternalError(
            f"odd-cycle witness {[v + 1 for v in cycle]} has even length"
        )
    return tuple(cycle)


def split(
    complex_: WeightedComplex, a: Sequence[int], k: int
) -> list[CoverPoint]:
    """Split a cover a of order k of a graph into covers of lower orders.

    On a bipartite graph a is the sum of k covers of order 1: rounding
    a/k up on one side and down on the other gives one, and what is left
    is a cover of order k - 1, split the same way. On any other graph
    with canonical weights, a cover of order k >= 3 is the sum of a cover
    of order 2, which is 0 where a is 0, 2 on the neighbors of those
    vertices and 1 elsewhere, and the rest, of order k - 2. Every part is
    checked to be a cover of its order before it is returned.
    """
    bip = bipartition(complex_)
    av = checked_ints(a, "cover coordinate")
    if not is_cover(complex_, av, k):
        raise ValueError(f"{av} is not a cover of order {k}")
    if bip.is_bipartite:
        up, _ = bip.parts
        parts: list[CoverPoint] = []
        rest, order = av, k
        while order >= 2:
            b = tuple(
                -(-x // order) if i in up else x // order for i, x in enumerate(rest)
            )
            c = tuple(map(sub, rest, b))
            if not (is_cover(complex_, b, 1) and is_cover(complex_, c, order - 1)):
                raise InternalError(f"split {b} + {c} of {rest} is not a cover")
            parts.append(CoverPoint(b, 1))
            rest, order = c, order - 1
        return parts + [CoverPoint(rest, order)]
    if k < 3:
        raise ValueError("non-bipartite split needs a cover of order >= 3")
    if not complex_.has_canonical_weights:
        raise ValueError("order-2 split requires canonical weights")
    zeros = {i for i, x in enumerate(av) if x == 0}
    near = set().union(*(f for f in complex_.facets if f & zeros))
    eps = tuple(
        0 if i in zeros else 2 if i in near else 1 for i in range(complex_.n)
    )
    rest = tuple(map(sub, av, eps))
    if not is_cover(complex_, eps, 2):
        raise InternalError(f"order-2 part {eps} of {av} is not a cover")
    if not is_cover(complex_, rest, k - 2):
        raise InternalError(f"rest {rest} of {av} is not a cover of order {k - 2}")
    return [CoverPoint(eps, 2), CoverPoint(rest, k - 2)]


class Decomposition(NamedTuple):
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
    if checked_int(k, "cover order") < 2:
        raise ValueError(f"decomposition needs order k >= 2, got {k}")
    av = checked_ints(a, "cover coordinate")
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


class FamilyInstance(NamedTuple):
    graph: WeightedComplex
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
    if min(checked_ints((m, k), "family parameter")) < 2:
        raise ValueError(f"family needs m, k >= 2, got m={m}, k={k}")
    n = m + 2 * k + 1

    def wrap(h: int) -> int:
        return h if h <= n else h - n + m

    hub_edges = {frozenset((i, j)) for i in range(m) for j in range(n) if j != i}
    circulant = {
        frozenset((i - 1, wrap(h) - 1))
        for i in range(m + 1, n + 1)
        for h in (i + k, i + k + 1)
    }
    graph = WeightedComplex.validate(n, hub_edges | circulant)

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
