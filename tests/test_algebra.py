from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from coveralg import algebra
from coveralg.complexes import (
    CoverPoint,
    WeightedComplex,
    cover_ideal,
    skeleton,
    skeleton_generators,
)
from coveralg.errors import InvalidComplex, TruncatedPresentation
from coveralg.graphs import WeightedGraph, bipartition
from coveralg.intlinalg import det
from coveralg.monomial import MonomialIdeal


def triangle():
    return WeightedComplex.validate(3, [(0, 1), (0, 2), (1, 2)])


def square():
    return WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def coordinate_planes():
    return [
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0)]),
        MonomialIdeal.from_gens(3, [(0, 1, 0), (0, 0, 1)]),
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 0, 1)]),
    ]


def random_antichain_complex(rng, n, max_weight=1):
    while True:
        facets = set()
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, max(1, n - 1))
            facets.add(frozenset(rng.sample(range(n), size)))
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            return WeightedComplex.validate(
                n, minimal, [rng.randint(1, max_weight) for _ in minimal]
            )
        except InvalidComplex:
            continue


class TestGenerators:
    def test_triangle(self):
        pres = algebra.generators(triangle())
        assert pres.generators == (
            CoverPoint((0, 1, 1), 1),
            CoverPoint((1, 0, 1), 1),
            CoverPoint((1, 1, 0), 1),
            CoverPoint((1, 1, 1), 2),
        )
        assert pres.by_degree()[1] == pres.generators[:3]

    def test_square(self):
        pres = algebra.generators(square())
        assert pres.generators == (
            CoverPoint((0, 1, 0, 1), 1),
            CoverPoint((1, 0, 1, 0), 1),
        )

    def test_skeletons_match_closed_form(self):
        for n in range(2, 6):
            for j in range(0, n - 1):
                pres = algebra.generators(skeleton(n, j))
                assert pres.generators == skeleton_generators(n, j)

    def test_degree_one_generators_are_cover_ideal_generators(self):
        rng = random.Random(7)
        for _ in range(10):
            c = random_antichain_complex(rng, rng.randint(2, 5), max_weight=3)
            pres = algebra.generators(c)
            assert {g.a for g in pres.generators if g.k == 1} == set(
                cover_ideal(c).gens
            )


class TestMaxDegree:
    def test_values(self):
        assert algebra.max_degree(algebra.generators(triangle())) == 2
        assert algebra.max_degree(algebra.generators(square())) == 1

    def test_truncated_presentation_rejected(self):
        pres = algebra.generators(triangle(), degree_cap=1)
        assert pres.truncated
        with pytest.raises(TruncatedPresentation):
            algebra.max_degree(pres)


class TestVeronese:
    def test_identity(self):
        assert algebra.veronese(triangle(), 1) == triangle()

    def test_doubled_triangle_is_standard(self):
        doubled = algebra.veronese(triangle(), 2)
        assert doubled.weights == (2, 2, 2)
        assert algebra.max_degree(algebra.generators(doubled)) == 1

    def test_tripled_triangle_is_not_standard(self):
        tripled = algebra.veronese(triangle(), 3)
        assert algebra.max_degree(algebra.generators(tripled)) >= 2

    def test_monotonicity_of_max_degree(self):
        rng = random.Random(11)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 5), max_weight=2)
            base = algebra.max_degree(algebra.generators(c))
            for scale in range(1, 7):
                scaled = algebra.max_degree(
                    algebra.generators(algebra.veronese(c, scale))
                )
                assert scaled <= base

    def test_some_veronese_is_standard(self):
        rng = random.Random(13)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 4), max_weight=2)
            d = algebra.max_degree(algebra.generators(c))
            assert any(
                algebra.max_degree(algebra.generators(algebra.veronese(c, s)))
                == 1
                for s in range(1, max(2, d) + 1)
            )


class TestIsStandardGraded:
    def test_examples(self):
        assert not algebra.is_standard_graded(triangle())
        assert algebra.is_standard_graded(square())
        assert algebra.is_standard_graded(algebra.veronese(triangle(), 2))

    def test_weighted_bipartite_graphs_are_standard(self):
        rng = random.Random(17)
        done = 0
        while done < 10:
            n = rng.randint(2, 6)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            if not edges:
                continue
            g = WeightedGraph.validate(
                n, edges, [rng.randint(1, 5) for _ in edges]
            )
            if not bipartition(g).is_bipartite:
                continue
            assert algebra.is_standard_graded(g.to_complex())
            done += 1


class TestFindVeroneseD:
    def test_three_planes_need_two(self):
        search = algebra.find_veronese_d(coordinate_planes(), k_max=3, d_max=6)
        assert search.d == 2
        assert search.verified_up_to == 3
        assert search.found

    def test_principal_ideal_is_standard(self):
        principal = MonomialIdeal.from_gens(2, [(1, 0)])
        assert algebra.find_veronese_d([principal], 3, 4).d == 1

    def test_d_one_matches_standard_gradedness(self):
        # squarefree cross-check: d = 1 exactly when the complex is standard
        rng = random.Random(19)
        for _ in range(6):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            primes = [
                MonomialIdeal.from_gens(
                    c.n,
                    [
                        tuple(1 if i == v else 0 for i in range(c.n))
                        for v in f
                    ],
                )
                for f in c.facets
            ]
            search = algebra.find_veronese_d(primes, k_max=3, d_max=4)
            assert (search.d == 1) == algebra.is_standard_graded(c)

    def test_not_found_is_a_value(self):
        search = algebra.find_veronese_d(coordinate_planes(), k_max=3, d_max=1)
        assert search.d is None
        assert not search.found


class TestGorenstein:
    def test_any_graph_with_canonical_weights(self):
        assert algebra.is_gorenstein(triangle())
        assert algebra.is_gorenstein(square())

    def test_two_face_needs_weight_two(self):
        assert not algebra.is_gorenstein(
            WeightedComplex.validate(3, [(0, 1, 2)], [1])
        )
        assert algebra.is_gorenstein(
            WeightedComplex.validate(3, [(0, 1, 2)], [2])
        )

    def test_singleton_reduction_is_reported(self):
        c = WeightedComplex.validate(3, [(0,), (1, 2)], [4, 1])
        report = algebra.gorenstein_report(c)
        assert report.verdict
        assert report.stripped == ((0, 4),)

    def test_all_singletons_rejected(self):
        c = WeightedComplex.validate(2, [(0,), (1,)])
        with pytest.raises(InvalidComplex):
            algebra.is_gorenstein(c)


class TestDegreeBound:
    def test_small_values(self):
        assert algebra.degree_bound(3).max_degree() == 7
        assert algebra.degree_bound(2).max_degree() == 3
        assert algebra.degree_bound(3).holds(7)
        assert not algebra.degree_bound(3).holds(8)

    def test_family_instance_value(self):
        bound = algebra.degree_bound(7)
        assert bound.holds(7)
        assert 7 * 7 * 4**7 == 802816 < 8**10 == 1073741824

    def test_exact_comparator_matches_max_degree(self):
        for n in range(1, 12):
            bound = algebra.degree_bound(n)
            limit = bound.max_degree()
            assert bound.holds(limit)
            assert not bound.holds(limit + 1)


class TestDeterminantBound:
    def test_exhaustive_three_by_three(self):
        best = max(
            abs(det([bits[i * 3 : (i + 1) * 3] for i in range(3)]))
            for bits in product((0, 1), repeat=9)
        )
        assert best == 2
        assert algebra.fs_determinant_bound(3).max_value() == 2

    def test_trivial_case(self):
        assert algebra.fs_determinant_bound(1).max_value() == 1

    def test_exhaustive_four_by_four(self):
        best = max(
            abs(det([bits[i * 4 : (i + 1) * 4] for i in range(4)]))
            for bits in product((0, 1), repeat=16)
        )
        assert best == 3
        assert algebra.fs_determinant_bound(4).max_value() == 3
        assert algebra.fs_determinant_bound(4).holds(best)

    def test_triangulation_indices_respect_bound(self):
        # subcone indices of canonical-weight cones come from 0/1 matrices
        from coveralg.cone import build_cone
        from oracles import extreme_rays, triangulate

        rng = random.Random(23)
        for _ in range(5):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            rays = extreme_rays(build_cone(c))
            bound = algebra.fs_determinant_bound(c.n + 1)
            for s in triangulate(rays):
                assert bound.holds(s.index)


class TestComparePowers:
    def test_triangle_square_is_proper_with_xyz_witness(self):
        edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        result = algebra.compare_powers(edges, 2)
        assert not result.equal
        assert result.witness == (1, 1, 1)

    def test_bipartite_cover_ideal_powers_agree(self):
        ideal = cover_ideal(square())
        for k in range(1, 5):
            assert algebra.compare_powers(ideal, k).equal

    def test_power_one_always_equal(self):
        edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert algebra.compare_powers(edges, 1).equal

    def test_equality_for_small_k_matches_degree_one_generation(self):
        rng = random.Random(29)
        done = 0
        while done < 8:
            n = rng.randint(2, 6)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            if not edges:
                continue
            g = WeightedGraph.validate(n, edges)
            ideal = cover_ideal(g.to_complex())
            all_equal = all(
                algebra.compare_powers(ideal, k).equal for k in range(1, 5)
            )
            standard = algebra.is_standard_graded(g.to_complex())
            assert all_equal == standard
            done += 1
