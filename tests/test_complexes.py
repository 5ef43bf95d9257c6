from __future__ import annotations

import random
import re
import time

import pytest

import oracles
from coveralg import algebra
from coveralg.algebra import gorenstein_report, symbolic_power
from coveralg.complexes import (
    CoverPoint,
    WeightedComplex,
    cover_complex,
    is_cover,
    skeleton_generators,
)
from coveralg.errors import DimensionMismatch, InvalidComplex
from coveralg.monomial import MonomialIdeal
from oracles import (
    cover_ideal, facet_ideal, module_generators, prime_power_ideal, skeleton,
)


def triangle():
    return WeightedComplex.validate(3, [(0, 1), (0, 2), (1, 2)])


def square():
    return WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def random_antichain_complex(rng, n):
    while True:
        facets = set()
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, max(1, n - 1))
            facets.add(frozenset(rng.sample(range(n), size)))
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            return WeightedComplex.validate(n, minimal)
        except InvalidComplex:
            continue


class TestValidate:
    def test_triangle(self):
        c = triangle()
        assert c.n == 3
        assert c.facets == (
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        )
        assert c.weights == (1, 1, 1)

    def test_comparable_facets_rejected(self):
        # messages name vertices 1-indexed, as the file does
        with pytest.raises(
            InvalidComplex, match=r"comparable facets \[1\] and \[1, 2\]"
        ):
            WeightedComplex.validate(2, [(0,), (0, 1)])

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidComplex, match="weight"):
            WeightedComplex.validate(2, [(0, 1)], [0])

    def test_empty_facet_rejected(self):
        with pytest.raises(InvalidComplex, match="empty"):
            WeightedComplex.validate(2, [()])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(
            InvalidComplex, match="vertex 3 out of range for vertex count 2"
        ):
            WeightedComplex.validate(2, [(0, 2)])
        with pytest.raises(InvalidComplex, match="vertex 0 out of range"):
            WeightedComplex.from_dict({"n": 2, "facets": [[0, 1]]})

    def test_repeated_vertex_rejected(self):
        # never merged into the facet {1, 2}
        with pytest.raises(
            InvalidComplex, match=r"facet \[1, 1, 2\] lists a vertex twice"
        ):
            WeightedComplex.from_dict({"n": 3, "facets": [[1, 1, 2]]})

    @pytest.mark.parametrize("bad", [1.7, True, "1"])
    def test_vertices_and_weights_are_not_coerced(self, bad):
        # int() would read vertex 1.7 as 1, weight True as 1 and "1" as 1
        shown = re.escape(repr(bad))
        with pytest.raises(ValueError, match=f"vertex must be an integer, got {shown}"):
            WeightedComplex.validate(3, [[0, bad], [1, 2]])
        with pytest.raises(
            ValueError, match=f"facet weight must be an integer, got {shown}"
        ):
            WeightedComplex.validate(3, [[0, 1], [1, 2]], [1, bad])

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_vertex_count_is_not_coerced(self, bad):
        with pytest.raises(
            ValueError, match=f"vertex count must be an integer, got {bad!r}"
        ):
            WeightedComplex.validate(bad, [[0], [1]])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(InvalidComplex, match="weights"):
            WeightedComplex.validate(3, [(0, 1), (1, 2)], [1])

    def test_canonical_sorting_carries_weights(self):
        c = WeightedComplex.validate(3, [(1, 2), (0,)], [5, 7])
        assert c.facets == (frozenset({0}), frozenset({1, 2}))
        assert c.weights == (7, 5)

    def test_record_repr_hash_and_immutability(self):
        c = WeightedComplex.validate(3, [(1, 2), (0,)], [5, 7])
        assert repr(c) == (
            "WeightedComplex(n=3, facets=(frozenset({0}), frozenset({1, 2})), "
            "weights=(7, 5))"
        )
        same = WeightedComplex.validate(3, [(0,), (2, 1)], [7, 5])
        assert c == same and hash(c) == hash(same)
        assert c != WeightedComplex.validate(3, [(1, 2), (0,)], [5, 8])
        with pytest.raises(AttributeError):
            c.weights = (1, 1)

    def test_file_round_trip_is_one_indexed(self):
        c = WeightedComplex.from_dict(
            {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
        )
        assert c == triangle()
        assert c.to_dict() == {
            "n": 3,
            "facets": [[1, 2], [1, 3], [2, 3]],
            "weights": [1, 1, 1],
        }


class TestIsCover:
    def test_triangle_order_two(self):
        assert is_cover(triangle(), (1, 1, 1), 2)
        assert not is_cover(triangle(), (1, 1, 0), 2)

    def test_order_zero_is_vacuous(self):
        assert is_cover(triangle(), (0, 0, 0), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_cover(triangle(), (1, 1), 1)

    @pytest.mark.parametrize("bad", [0.9, True, "1"])
    def test_coordinates_are_not_coerced(self, bad):
        # int() would make (0.9, 1, 1) the non-cover (0, 1, 1), and
        # ("1", "1", "1") a cover
        with pytest.raises(
            ValueError,
            match=f"cover coordinate must be an integer, got {re.escape(repr(bad))}",
        ):
            is_cover(triangle(), (bad, 1, 1), 1)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_order_is_not_coerced(self, bad):
        # (1, 1, 1) is a cover of order 1, but 1.5 and True are no orders
        with pytest.raises(
            ValueError, match=f"cover order must be an integer, got {bad!r}"
        ):
            is_cover(triangle(), (1, 1, 1), bad)


def test_face_sum():
    # the sum of a over F is the largest m with x^a in P_F^m
    for a, face, total in (
        ((1, 2, 0), (0, 2), 1),
        ((0, 0, 0), (0, 1, 2), 0),
        ((1, 1, 1), (0, 1, 2), 3),
    ):
        assert sum(a[i] for i in face) == total
        assert oracles.member(prime_power_ideal(3, face, total).gens, a)
        assert not oracles.member(prime_power_ideal(3, face, total + 1).gens, a)


class TestCoverIdeal:
    def test_triangle_against_intersection_oracle(self):
        planes = [
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0)]),
            MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 0, 1)]),
            MonomialIdeal.from_gens(3, [(0, 1, 0), (0, 0, 1)]),
        ]
        expected = planes[0].intersect(planes[1]).intersect(planes[2])
        assert cover_ideal(triangle()) == expected
        assert cover_ideal(triangle()).gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_single_weighted_facet(self):
        c = WeightedComplex.validate(2, [(0, 1)], [2])
        assert cover_ideal(c) == MonomialIdeal.from_gens(
            2, [(2, 0), (1, 1), (0, 2)]
        )

    def test_square_against_hitting_set_oracle(self):
        c = square()
        hit = oracles.minimal_hitting_sets(4, [tuple(f) for f in c.facets])
        expected = MonomialIdeal.from_gens(
            4,
            [tuple(1 if i in h else 0 for i in range(4)) for h in hit],
        )
        assert cover_ideal(c) == expected

    def test_minimal_generators_are_minimal_order_one_covers(self):
        rng = random.Random(31)
        for _ in range(20):
            c = random_antichain_complex(rng, rng.randint(2, 5))
            ideal = cover_ideal(c)
            for g in ideal.gens:
                assert is_cover(c, g, 1)
                for i in range(c.n):
                    if g[i] > 0:
                        lowered = tuple(
                            e - 1 if idx == i else e for idx, e in enumerate(g)
                        )
                        assert not oracles.member(ideal.gens, lowered)


def test_prime_power_generator_count():
    ideal = prime_power_ideal(4, (0, 2, 3), 3)
    assert len(ideal.gens) == 10  # weak compositions of 3 into 3 parts
    assert all(sum(g) == 3 and g[1] == 0 for g in ideal.gens)


class TestModuleGenerators:
    def test_triangle_degree_one(self):
        got = module_generators(triangle(), 1)
        assert {p.a for p in got} == {(1, 1, 0), (0, 1, 1), (1, 0, 1)}
        assert all(p.k == 1 for p in got)

    def test_triangle_degree_two_contains_central_cover(self):
        assert (1, 1, 1) in {p.a for p in module_generators(triangle(), 2)}

    def test_single_edge_degree_three(self):
        c = WeightedComplex.validate(2, [(0, 1)])
        got = {p.a for p in module_generators(c, 3)}
        assert got == {(3, 0), (2, 1), (1, 2), (0, 3)}

    def test_matches_scaled_weights(self):
        rng = random.Random(37)
        for _ in range(10):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            k = rng.randint(1, 3)
            scaled = WeightedComplex.validate(
                c.n,
                [tuple(f) for f in c.facets],
                [k * w for w in c.weights],
            )
            assert module_generators(c, k) == tuple(
                CoverPoint(p.a, k) for p in module_generators(scaled, 1)
            )

    def test_every_generator_is_minimal_cover(self):
        rng = random.Random(41)
        for _ in range(10):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            k = rng.randint(1, 3)
            for p in module_generators(c, k):
                assert is_cover(c, p.a, k)
                for i in range(c.n):
                    if p.a[i] > 0:
                        lowered = tuple(
                            e - 1 if idx == i else e
                            for idx, e in enumerate(p.a)
                        )
                        assert not is_cover(c, lowered, k)


def random_graph(seed, n, m):
    """m distinct random edges on n vertices."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        edges.add(frozenset(rng.sample(range(n), 2)))
    return WeightedComplex.validate(n, edges)


def dual(c):
    """The complex of minimal vertex covers of c's facets."""
    return cover_complex(facet_ideal(c))


class TestFacetAndCoverComplex:
    def test_triangle_is_self_dual(self):
        assert dual(triangle()) == triangle()

    def test_single_edge_dualizes_to_points(self):
        edge = MonomialIdeal.from_gens(2, [(1, 1)])
        assert cover_complex(edge).facets == (frozenset({0}), frozenset({1}))

    def test_square_cover_complex(self):
        assert dual(square()).facets == (
            frozenset({0, 2}),
            frozenset({1, 3}),
        )

    def test_matches_bruteforce_hitting_sets(self):
        rng = random.Random(43)
        for _ in range(25):
            c = random_antichain_complex(rng, rng.randint(2, 6))
            got = {f for f in dual(c).facets}
            want = oracles.minimal_hitting_sets(
                c.n, [tuple(f) for f in c.facets]
            )
            assert got == want

    def test_double_dual_is_identity(self):
        rng = random.Random(47)
        for _ in range(30):
            c = random_antichain_complex(rng, rng.randint(2, 6))
            assert dual(dual(c)) == c

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_beyond_the_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(16, 26)
        c = random_graph(seed, n, rng.randint(n, 40))
        primes = dual(c)
        assert dual(primes) == c
        for cover in primes.facets:
            assert all(cover & e for e in c.facets)
            for v in cover:  # no vertex can be dropped
                assert not all((cover - {v}) & e for e in c.facets)

    def test_26_vertex_graph_within_two_seconds(self):
        # 526 primes; a branch and bound over vertex choices takes about
        # 2 minutes on this graph, so the budget fails an exponential search
        edges = facet_ideal(random_graph(3, 26, 40))
        start = time.perf_counter()
        primes = cover_complex(edges)
        elapsed = time.perf_counter() - start
        assert len(primes.facets) == 526
        assert elapsed < 2.0, f"cover complex took {elapsed:.2f} s"

    def test_cover_ideal_duality(self):
        # the cover ideal of the dual is the facet ideal of the original
        rng = random.Random(53)
        for _ in range(15):
            c = random_antichain_complex(rng, rng.randint(2, 5))
            assert cover_ideal(dual(c)) == facet_ideal(c)

    def test_random_monomial_ideals_read_supports_only(self):
        # exponents 0..3, so supports repeat and nest; only they count
        rng = random.Random(61)
        for _ in range(60):
            n = rng.randint(1, 6)
            gens = [
                tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            ]
            ideal = MonomialIdeal.from_gens(n, gens)
            if ideal.is_unit:
                continue
            supports = [[i for i, e in enumerate(g) if e] for g in ideal.gens]
            got = cover_complex(ideal)
            assert set(got.facets) == oracles.minimal_hitting_sets(n, supports)
            # built without validate, but in its canonical form
            assert got == WeightedComplex.validate(n, got.facets)
            radical = MonomialIdeal.from_gens(
                n, [tuple(min(e, 1) for e in g) for g in ideal.gens]
            )
            assert got == cover_complex(radical)

    @pytest.mark.parametrize("gens, primes", [
        # the stars K_{1,69} and K_{2,68}, and (x1 x70, x35): covers past 64 vertices
        ([{0, j} for j in range(1, 70)], [{0}, set(range(1, 70))]),
        ([{i, j} for i in (0, 1) for j in range(2, 70)], [{0, 1}, set(range(2, 70))]),
        ([{0, 69}, {34}], [{0, 34}, {34, 69}]),
    ])
    def test_seventy_vertices(self, gens, primes):
        ideal = MonomialIdeal.from_gens(70, [[int(v in g) for v in range(70)] for g in gens])
        assert cover_complex(ideal) == WeightedComplex.validate(70, primes)

    def test_unit_ideal_has_no_facets(self):
        for n in (0, 3):
            unit = MonomialIdeal.from_gens(n, [(0,) * n])
            assert cover_complex(unit) == WeightedComplex(n, (), ())

    def test_zero_ideal_rejected(self):
        with pytest.raises(InvalidComplex, match="empty facet"):
            cover_complex(MonomialIdeal.from_gens(3, []))


class TestSquarefreeSymbolicPower:
    def test_triangle_square(self):
        edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        sym2 = symbolic_power(edges, 2)
        assert oracles.member(sym2.gens, (1, 1, 1))
        assert not oracles.member(sym2.gens, (2, 1, 0))

    def test_power_one_is_identity(self):
        edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert symbolic_power(edges, 1) == edges

    def test_disjoint_edges_square_is_ordinary(self):
        two = MonomialIdeal.from_gens(4, [(1, 0, 1, 0), (0, 1, 0, 1)])
        assert symbolic_power(two, 2) == two.power(2)

    def test_non_squarefree_accepted(self):
        # (x1^2) is its own primary component, so I^(2) = I^2
        assert symbolic_power(MonomialIdeal.from_gens(2, [(2, 0)]), 2) == (
            MonomialIdeal.from_gens(2, [(4, 0)])
        )

    def test_grading(self):
        edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        for a in (1, 2):
            for b in (1, 2):
                prod = oracles.product(
                    symbolic_power(edges, a),
                    symbolic_power(edges, b),
                )
                target = symbolic_power(edges, a + b)
                assert all(oracles.member(target.gens, g) for g in prod.gens)

    def test_matches_primary_meet_route(self):
        # dual route: the cover algebra versus the meet of primary components
        # that non-squarefree ideals take
        rng = random.Random(59)
        for _ in range(10):
            ideal = cover_ideal(random_antichain_complex(rng, rng.choice((3, 4))))
            for k in (2, 3):
                assert symbolic_power(ideal, k) == algebra._primary_meet(ideal, k)


class TestSkeleton:
    def test_triangle_is_one_skeleton_of_three_simplex(self):
        assert skeleton(3, 1) == triangle()

    def test_zero_skeleton(self):
        assert skeleton(2, 0).facets == (frozenset({0}), frozenset({1}))

    def test_two_skeleton_of_four(self):
        assert len(skeleton(4, 2).facets) == 4

    def test_range_errors(self):
        with pytest.raises(ValueError):
            skeleton(3, 2)
        with pytest.raises(ValueError):
            skeleton(3, -1)


class TestSkeletonGenerators:
    def test_triangle_closed_form(self):
        got = skeleton_generators(3, 1)
        assert got == (
            CoverPoint((0, 1, 1), 1),
            CoverPoint((1, 0, 1), 1),
            CoverPoint((1, 1, 0), 1),
            CoverPoint((1, 1, 1), 2),
        )

    def test_smallest_case_single_generator(self):
        assert skeleton_generators(2, 0) == (CoverPoint((1, 1), 1),)

    def test_count_from_binomials(self):
        got = skeleton_generators(5, 2)
        assert len(got) == 16  # C(5,3) + C(5,4) + C(5,5)

    @pytest.mark.parametrize("args", [(4.0, 1), (4, True)], ids=str)
    def test_parameters_are_not_coerced(self, args):
        bad = next(x for x in args if type(x) is not int)
        with pytest.raises(
            ValueError, match=f"skeleton parameter must be an integer, got {bad!r}"
        ):
            skeleton_generators(*args)


class TestStripZeroDimFacets:
    """Zero-dimensional facets are dropped inside `gorenstein_report`."""

    def test_mixed(self):
        c = WeightedComplex.validate(3, [(0,), (1, 2)], [2, 3])
        report = gorenstein_report(c)
        assert report.stripped == ((0, 2),)
        assert report.offending == (((1, 2), 3),)
        assert report.verdict is False

    def test_pure_graph_unchanged(self):
        report = gorenstein_report(triangle())
        assert report.stripped == ()
        assert report.offending == ()
        assert report.verdict is True

    def test_all_singletons_leaves_empty_complex(self):
        c = WeightedComplex.validate(2, [(0,), (1,)])
        report = gorenstein_report(c)
        assert len(report.stripped) == 2
        assert report.offending == ()
        assert report.verdict is None
