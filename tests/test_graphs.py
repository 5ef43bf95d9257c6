from __future__ import annotations

import random
import re
from itertools import combinations
from math import prod

import pytest

from coveralg import graphs
from coveralg.complexes import (
    CoverPoint, WeightedComplex, cover_complex, is_cover,
)
from coveralg.cone import build_cone, hilbert_basis
from coveralg.errors import InternalError, InvalidComplex, NotAGraph
from coveralg.graphs import (
    Decomposition, bipartition, decompose, family_instance, neighbors, split,
)
from oracles import box_decompose, facet_ideal, odd_cycle_domination


def graph(n, edges, weights=None):
    return WeightedComplex.validate(n, edges, weights)


def triangle_graph():
    return graph(3, [(0, 1), (0, 2), (1, 2)])


def c4():
    return graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def random_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph(n, edges) if edges else graph(n, [])


def random_weighted_complex(rng):
    """3 to 5 vertices, 2 to 5 facets of 2 or 3 vertices, weights up to 3."""
    n = rng.randint(3, 5)
    while True:
        facets = {
            frozenset(rng.sample(range(n), rng.randint(2, min(3, n - 1))))
            for _ in range(rng.randint(2, 5))
        }
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            return WeightedComplex.validate(
                n, minimal, [rng.randint(1, 3) for _ in minimal]
            )
        except InvalidComplex:
            continue


def all_edges_checked(g, cycle):
    adj = neighbors(g)
    m = len(cycle)
    return all(cycle[(i + 1) % m] in adj[cycle[i]] for i in range(m))


class TestNeighbors:
    def test_square(self):
        assert neighbors(c4()) == [{1, 3}, {0, 2}, {1, 3}, {0, 2}]

    def test_non_graph_rejected(self):
        c = WeightedComplex.validate(4, [(0, 1), (1, 2, 3)])
        for f in (neighbors, bipartition, lambda c: split(c, (1, 1, 1, 1), 1)):
            with pytest.raises(NotAGraph, match=r"facet \[2, 3, 4\] is not an edge"):
                f(c)


class TestBipartition:
    def test_square(self):
        bip = bipartition(c4())
        assert bip.parts == (frozenset({0, 2}), frozenset({1, 3}))

    def test_triangle_returns_odd_cycle(self):
        bip = bipartition(triangle_graph())
        assert not bip.is_bipartite
        assert len(bip.odd_cycle) == 3
        assert all_edges_checked(triangle_graph(), bip.odd_cycle)

    def test_empty_graph_is_vacuously_bipartite(self):
        bip = bipartition(graph(3, []))
        assert bip.parts == (frozenset({0, 1, 2}), frozenset())

    def test_random_odd_cycles_are_genuine(self):
        # every graph on 1 to 5 vertices, then random ones on up to 8
        rng = random.Random(7)
        exhaustive = [
            graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            for n in range(1, 6)
            for pairs in [list(combinations(range(n), 2))]
            for mask in range(1 << len(pairs))
        ]
        assert len(exhaustive) == 1099
        randoms = [random_graph(rng, rng.randint(2, 8)) for _ in range(40)]
        # an edge and a path before a triangle: its BFS starts at a later root
        later = graph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        assert bipartition(later).odd_cycle == (5, 4, 6)
        odd = 0  # among the exhaustive graphs
        for i, g in enumerate(exhaustive + randoms + [later]):
            bip = bipartition(g)
            if bip.is_bipartite:
                u, v = bip.parts
                for e in g.facets:
                    a, b = sorted(e)
                    assert (a in u) != (b in u)
            else:
                odd += i < len(exhaustive)
                cyc = bip.odd_cycle
                assert len(cyc) % 2 == 1 and len(cyc) >= 3
                assert len(set(cyc)) == len(cyc)
                assert all_edges_checked(g, cyc)
        assert odd == 672

    @pytest.mark.parametrize("parent, u, v", [
        ([-1, -1], 0, 1),  # two roots
        ([-1, 0, 1], 2, 0),  # v reaches its root first
        ([-1, 0, 1], 0, 2),  # u does
    ])
    def test_walk_past_a_root_is_an_internal_error(self, parent, u, v):
        # parent -1 marks a root; reading parent[-1] would walk on silently
        with pytest.raises(InternalError, match="passed a root"):
            graphs._tree_cycle(parent, u, v)


def parts_of(*pairs):
    return [CoverPoint(a, k) for a, k in pairs]


@pytest.mark.parametrize("bad", [2.5, True, "2"])
def test_split_and_decompose_do_not_coerce(bad):
    # int() would split the edge cover (2.5, 1.5) of order 3 as (2, 1)
    want = f"cover coordinate must be an integer, got {re.escape(repr(bad))}"
    edge = graph(2, [(0, 1)])
    with pytest.raises(ValueError, match=want):
        split(edge, (bad, 1.5), 3)
    with pytest.raises(ValueError, match=want):
        decompose(triangle_graph(), (1, 1, bad), 2)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_split_order_is_not_coerced(bad):
    # the message names the order as given, never int(bad)
    with pytest.raises(ValueError, match=f"cover order must be an integer, got {bad!r}"):
        split(graph(2, [(0, 1)]), (2, 1), bad)


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_decompose_order_is_not_coerced(bad):
    with pytest.raises(ValueError, match=f"cover order must be an integer, got {bad!r}"):
        decompose(triangle_graph(), (1, 1, 1), bad)


class TestSplitOrder2:
    def test_all_positive_coordinates(self):
        assert split(triangle_graph(), (3, 3, 3), 3) == parts_of(
            ((1, 1, 1), 2), ((2, 2, 2), 1)
        )

    def test_zero_coordinate_forces_two_on_neighbors(self):
        # a triangle with a pendant edge at vertex 2; vertex 3 is 0
        g = graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert split(g, (3, 3, 3, 0), 3) == parts_of(
            ((1, 1, 2, 0), 2), ((2, 2, 1, 0), 1)
        )

    def test_precondition_violations(self):
        with pytest.raises(ValueError, match="order >= 3"):
            split(triangle_graph(), (1, 1, 1), 2)
        with pytest.raises(ValueError, match="not a cover of order 3"):
            split(triangle_graph(), (0, 0, 0), 3)
        weighted = graph(3, [(0, 1), (0, 2), (1, 2)], [2, 1, 1])
        with pytest.raises(ValueError, match="canonical weights"):
            split(weighted, (4, 4, 4), 3)

    def test_random_covers_split_correctly(self):
        rng = random.Random(11)
        done = 0
        while done < 60:
            g = random_graph(rng, rng.randint(2, 8))
            if bipartition(g).is_bipartite:
                continue
            k = rng.randint(3, 6)
            a = tuple(rng.randint(0, 2 * k) for _ in range(g.n))
            if not is_cover(g, a, k):
                continue
            (eps, two), (rest, order) = split(g, a, k)
            assert (two, order) == (2, k - 2)
            assert tuple(x + y for x, y in zip(eps, rest)) == a
            assert is_cover(g, eps, 2)
            assert is_cover(g, rest, k - 2)
            done += 1


class TestBipartiteSplit:
    def test_weighted_edge(self):
        g = graph(2, [(0, 1)], [3])
        assert split(g, (4, 2), 2) == parts_of(((2, 1), 1), ((2, 1), 1))

    def test_exact_multiple_of_order_one_cover(self):
        base = (1, 0, 1, 0)
        k = 3
        a = tuple(k * x for x in base)
        assert split(c4(), a, k) == parts_of(*[(base, 1)] * k)

    def test_square_unit_cover(self):
        assert split(c4(), (1, 1, 1, 1), 2) == parts_of(
            ((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)
        )

    @pytest.mark.parametrize("g, a, k, parts", [
        (graph(2, [(0, 1)], [3]), (7, 5), 4,
         [(2, 1), (2, 1), (2, 1), (1, 2)]),
        (graph(3, [(0, 1), (1, 2)], [2, 1]), (5, 3, 2), 3,
         [(2, 1, 1), (2, 1, 1), (1, 1, 0)]),
        (graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 1, 3]), (8, 4, 6, 9), 5,
         [(2, 0, 2, 1), (2, 1, 1, 2), (2, 1, 1, 2), (1, 1, 1, 2), (1, 1, 1, 2)]),
        (graph(5, [(0, 1), (1, 2), (3, 4)], [2, 1, 3]), (11, 1, 5, 10, 8), 6,
         [(2, 0, 1, 2, 1)] * 4 + [(2, 0, 1, 1, 2), (1, 1, 0, 1, 2)]),
    ])
    def test_weighted_parts_in_order(self, g, a, k, parts):
        # the values and the order of the parts, not only their sum
        assert split(g, a, k) == parts_of(*[(p, 1) for p in parts])

    def test_non_bipartite_rejected(self):
        # an odd cycle rules out the rounding chain, so a cover the order-2
        # step cannot take is refused rather than split into order-1 parts
        with pytest.raises(ValueError, match="order >= 3"):
            split(triangle_graph(), (1, 1, 1), 2)

    def test_recursion_reaches_order_one_chain(self):
        rng = random.Random(13)
        done = 0
        while done < 40:
            g = random_graph(rng, rng.randint(2, 6), p=0.4)
            if not bipartition(g).is_bipartite:
                continue
            g = graph(g.n, g.facets, [rng.randint(1, 4) for _ in g.facets])
            k = rng.randint(2, 5)
            a = tuple(rng.randint(0, 4 * k) for _ in range(g.n))
            if not is_cover(g, a, k):
                continue
            parts = split(g, a, k)
            assert [order for _, order in parts] == [1] * k
            for part, _ in parts:
                assert is_cover(g, part, 1)
            total = tuple(sum(col) for col in zip(*(part for part, _ in parts)))
            assert total == a
            done += 1

    def test_two_colors_once(self, monkeypatch):
        calls = []
        real = graphs.bipartition
        monkeypatch.setattr(
            graphs, "bipartition", lambda c: calls.append(c) or real(c)
        )
        parts = split(c4(), (5, 5, 5, 5), 10)
        assert len(parts) == 10 and len(calls) == 1


class TestOddCycleDomination:
    def test_triangle_dominates_itself(self):
        assert odd_cycle_domination(triangle_graph())

    def test_isolated_vertex_fails(self):
        g = graph(4, [(0, 1), (0, 2), (1, 2)])
        assert not odd_cycle_domination(g)

    def test_bipartite_is_vacuous(self):
        assert odd_cycle_domination(c4())

    def test_cap_enforced(self):
        g = graph(13, [(0, 1)])
        with pytest.raises(ValueError, match="capped"):
            odd_cycle_domination(g)

    def test_five_cycle_with_remote_vertex(self):
        # vertex 5 sees only one vertex of the 5-cycle, which still meets
        # the neighbor condition; removing that edge must flip the verdict
        cyc = [(i, (i + 1) % 5) for i in range(5)]
        assert odd_cycle_domination(graph(6, cyc + [(0, 5)]))


class TestSplitChainExpression:
    def test_dominated_odd_cycles_reduce_to_unit_and_allones_pieces(self):
        # when every vertex sees every odd cycle, repeated order-2 splitting
        # expresses any cover through order-1 covers and all-ones order-2
        # covers (plus unit-vector slack)
        rng = random.Random(31)
        done = 0
        while done < 25:
            c = random_graph(rng, rng.randint(3, 6), p=0.6)
            if not c.facets or not odd_cycle_domination(c):
                continue
            k = rng.randint(2, 6)
            a = tuple(rng.randint(0, k + 2) for _ in range(c.n))
            if not is_cover(c, a, k):
                continue
            # on a bipartite graph the first split already ends in order 1
            pieces = []
            rest, order = a, k
            while order >= 3:
                *done_pieces, (rest, order) = split(c, rest, order)
                pieces += done_pieces
            pieces.append((rest, order))
            for piece, piece_order in pieces:
                if piece_order <= 1:
                    assert is_cover(c, piece, piece_order)
                    continue
                halves = decompose(c, piece, 2)
                if halves is None:
                    # only the all-ones pattern may survive undecomposed
                    assert all(x >= 1 for x in piece)
                else:
                    assert halves.i == halves.j == 1
            total = tuple(sum(col) for col in zip(*(p for p, _ in pieces)))
            assert total == a
            assert sum(o for _, o in pieces) == k
            done += 1


class TestDecompose:
    def test_triangle_central_cover_indecomposable(self):
        tri = triangle_graph()
        assert decompose(tri, (1, 1, 1), 2) is None

    def test_triangle_bigger_cover_decomposes(self):
        tri = triangle_graph()
        result = decompose(tri, (2, 1, 1), 2)
        assert result is not None
        assert tuple(x + y for x, y in zip(result.b, result.c)) == (2, 1, 1)
        assert result.i + result.j == 2
        assert is_cover(tri, result.b, result.i)
        assert is_cover(tri, result.c, result.j)

    def test_first_witness_is_canonical(self):
        tri = triangle_graph()
        result = decompose(tri, (2, 2, 2), 2)
        # lexicographically first b in the box with a valid split
        assert result.b == (0, 1, 1)
        assert result.i == 1

    def test_witness_can_be_a_generator_of_degree_k_minus_1(self):
        # a split needs a generator of degree at most k // 2 only, but the
        # lex least b here is one of degree k - 1 = 2
        c = WeightedComplex.validate(5, [(1, 3), (0, 1, 4), (2, 3, 4)], [3, 3, 1])
        result = decompose(c, (1, 7, 0, 2, 1), 3)
        assert result == box_decompose(c, (1, 7, 0, 2, 1), 3)
        assert result.b == (0, 5, 0, 1, 1)
        assert (0, 5, 0, 1, 1, 2) in hilbert_basis(build_cone(c)).points

    def test_no_facets_split_off_t(self):
        # every a is a cover of every order, so b = 0 of order 1 splits
        for n, a in ((0, ()), (2, (0, 3))):
            c = WeightedComplex.validate(n, [])
            result = decompose(c, a, 3)
            assert result == Decomposition((0,) * n, 1, a, 2)
            assert result == box_decompose(c, a, 3)

    def test_family_cover_indecomposable(self):
        inst = family_instance(2, 2)
        assert decompose(inst.complex, inst.cover, inst.order) is None

    def test_matches_box_search_on_random_weighted_complexes(self):
        # the target is a basis point of degree >= 2, which never splits, or
        # the sum of two generators where there is none, alone or with a
        # vertex or a further generator added on top; the box stays small
        rng = random.Random(1009)
        cases = indecomposable = 0
        while cases < 1000:
            c = random_weighted_complex(rng)
            gens = [p for p in hilbert_basis(build_cone(c), 3).points if p[-1]]
            tops = [p for p in gens if p[-1] >= 2]
            picks = [rng.choice(tops)] if tops else rng.choices(gens, k=2)
            extra = rng.randint(0, 2)
            if extra == 2:
                picks.append(rng.choice(gens))
            *a, k = map(sum, zip(*picks))
            if extra == 1:
                a[rng.randrange(c.n)] += 1
            if prod(x + 1 for x in a) > 1000:
                continue
            expected = box_decompose(c, a, k)
            assert decompose(c, a, k) == expected, (c, a, k)
            cases += 1
            indecomposable += expected is None
        assert indecomposable >= 30

    def test_agrees_with_hilbert_basis_membership(self):
        all_graphs = [
            graph(n, edges)
            for n in (2, 3, 4, 5)
            for edges in _all_edge_subsets(n)
        ]
        for c in all_graphs:
            basis = {
                p
                for p in hilbert_basis(build_cone(c)).points
                if p[-1] > 0
            }
            for k in (1, 2, 3):
                for p in _minimal_covers(c, k):
                    in_basis = (*p, k) in basis
                    if k == 1:
                        assert in_basis
                    else:
                        indecomposable = decompose(c, p, k) is None
                        assert in_basis == indecomposable


def _all_edge_subsets(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1, 2 ** len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def _minimal_covers(c, k):
    from oracles import module_generators

    return [p.a for p in module_generators(c, k)]


class TestFamilyInstance:
    def test_small_instance_arithmetic(self):
        inst = family_instance(2, 2)
        assert inst.complex.n == 7
        assert len(inst.complex.facets) == 7
        assert inst.cover == (2, 2, 1, 1, 1, 1, 1)
        assert inst.order == 7

    def test_order_exceeds_linear_bound(self):
        inst = family_instance(4, 2)
        assert inst.order == 11
        assert inst.order > inst.complex.n - 1 == 8

    def test_facet_sums_all_equal_order(self):
        for m, k in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            inst = family_instance(m, k)
            for f in inst.complex.facets:
                assert sum(inst.cover[v] for v in f) == inst.order

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            family_instance(1, 2)
        with pytest.raises(ValueError):
            family_instance(2, 1)

    @pytest.mark.parametrize("args", [(2.0, 2), (2, True)], ids=str)
    def test_parameters_are_not_coerced(self, args):
        bad = next(x for x in args if type(x) is not int)
        with pytest.raises(
            ValueError, match=f"family parameter must be an integer, got {bad!r}"
        ):
            family_instance(*args)

    def test_complex_is_cover_dual_of_graph(self):
        # the complex's facets are the minimal vertex covers of the graph
        inst = family_instance(2, 2)
        assert cover_complex(facet_ideal(inst.graph)) == inst.complex

    def test_graph_edge_counts(self):
        inst = family_instance(2, 2)
        # 2 hubs joined to all 6 others (11 distinct pairs) plus the
        # circulant pairs among vertices 3..7 that avoid the hubs
        hub_edges = {e for e in inst.graph.facets if e & {0, 1}}
        assert len(hub_edges) == 11
