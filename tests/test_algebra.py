from __future__ import annotations

import random
from itertools import combinations, product

import pytest

import oracles
from coveralg import algebra
from coveralg.complexes import (
    CoverPoint, WeightedComplex, cover_complex, skeleton_generators,
)
from coveralg.cone import build_cone, hilbert_basis, tight_points
from coveralg.errors import InvalidComplex, TruncatedPresentation
from coveralg.graphs import bipartition
from coveralg.monomial import MonomialIdeal
from oracles import cover_ideal, det, skeleton, veronese


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


def face_ideal(n, faces):
    return MonomialIdeal.from_gens(
        n, [tuple(1 if i in f else 0 for i in range(n)) for f in faces]
    )


def cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


# outer 5-cycle, spokes, inner pentagram
PETERSEN = cycle(5) + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]


class TestGenerators:
    def test_triangle(self):
        pres = algebra.generators(triangle())
        assert pres.generators == (
            CoverPoint((0, 1, 1), 1),
            CoverPoint((1, 0, 1), 1),
            CoverPoint((1, 1, 0), 1),
            CoverPoint((1, 1, 1), 2),
        )
        assert tuple(g for g in pres.generators if g.k == 1) == pres.generators[:3]

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


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return WeightedComplex.validate(10, outer + spokes + inner)


class TestUnitWeightGraphCap:
    # a graph with unit weights has its algebra generated in degree <= 2;
    # generators relies on that and runs such a graph at cap 2, so the
    # theorem itself is checked on the uncapped engine
    @pytest.fixture
    def caps(self, monkeypatch):
        """The degree caps `generators` passes to the engine, in call order."""
        seen = []

        def spy(system, degree_cap=None):
            seen.append(degree_cap)
            return hilbert_basis(system, degree_cap)

        monkeypatch.setattr(algebra, "hilbert_basis", spy)
        return seen

    def test_cap_two_or_more_gives_the_whole_basis(self, caps):
        rng = random.Random(17)
        complexes = [petersen(), WeightedComplex.validate(0, []),
                     WeightedComplex.validate(3, [])]
        while len(complexes) < 12:
            n = rng.randint(3, 9)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            if edges:
                complexes.append(WeightedComplex.validate(n, edges))
        for c in complexes:
            basis = hilbert_basis(build_cone(c))
            assert not basis.truncated
            assert max(p[-1] for p in basis.points) <= 2
            whole = tuple(CoverPoint(p[:-1], p[-1]) for p in basis.points if p[-1])
            for cap in (None, 2, 3, 50):
                caps.clear()
                pres = algebra.generators(c, cap)
                assert caps == [2], (c, cap)
                assert pres.generators == whole
                assert not pres.truncated

    def test_cap_one_still_flags(self):
        c5 = WeightedComplex.validate(5, [(i, (i + 1) % 5) for i in range(5)])
        pres = algebra.generators(c5, 1)
        assert pres.truncated
        assert max(g.k for g in pres.generators) == 1
        assert max(p[-1] for p in hilbert_basis(build_cone(c5)).points) == 2

    def test_other_complexes_keep_the_callers_cap(self, caps):
        # weights above 1, or a facet that is no edge: no degree-2 theorem
        for c in (veronese(triangle(), 3), skeleton(5, 2),
                  WeightedComplex.validate(3, [(0,), (1, 2)])):
            for cap in (None, 1, 2, 3):
                caps.clear()
                algebra.generators(c, cap)
                assert caps == [cap], (c, cap)


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
        assert veronese(triangle(), 1) == triangle()

    def test_doubled_triangle_is_standard(self):
        doubled = veronese(triangle(), 2)
        assert doubled.weights == (2, 2, 2)
        assert algebra.max_degree(algebra.generators(doubled)) == 1

    def test_tripled_triangle_is_not_standard(self):
        tripled = veronese(triangle(), 3)
        assert algebra.max_degree(algebra.generators(tripled)) >= 2

    def test_monotonicity_of_max_degree(self):
        rng = random.Random(11)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 5), max_weight=2)
            base = algebra.max_degree(algebra.generators(c))
            for scale in range(1, 7):
                scaled = algebra.max_degree(
                    algebra.generators(veronese(c, scale))
                )
                assert scaled <= base

    def test_some_veronese_is_standard(self):
        rng = random.Random(13)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 4), max_weight=2)
            d = algebra.max_degree(algebra.generators(c))
            assert any(
                algebra.max_degree(algebra.generators(veronese(c, s)))
                == 1
                for s in range(1, max(2, d) + 1)
            )


class TestIsStandardGraded:
    def test_examples(self):
        assert not oracles.is_standard_graded(triangle())
        assert oracles.is_standard_graded(square())
        assert oracles.is_standard_graded(veronese(triangle(), 2))

    def test_weighted_bipartite_graphs_are_standard(self):
        rng = random.Random(17)
        done = 0
        while done < 10:
            n = rng.randint(2, 6)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            if not edges:
                continue
            g = WeightedComplex.validate(
                n, edges, [rng.randint(1, 5) for _ in edges]
            )
            if not bipartition(g).is_bipartite:
                continue
            assert oracles.is_standard_graded(g)
            done += 1

    def test_engine_verdict_matches_oracle(self):
        # the verdict `check standard` prints, against the primal engine's
        rng = random.Random(23)
        seen = set()
        for _ in range(40):
            n = rng.randint(3, 5)
            size = rng.choice((2, 3))  # faces of one size form an antichain
            faces = [f for f in combinations(range(n), size) if rng.random() < 0.6]
            c = WeightedComplex.validate(n, faces, [rng.randint(1, 2) for _ in faces])
            standard = oracles.is_standard_graded(c)
            assert (algebra.max_degree(algebra.generators(c)) <= 1) == standard
            seen.add(standard)
        assert seen == {True, False}


class TestFindVeroneseD:
    def test_three_planes_need_two(self):
        search = oracles.find_veronese_d(coordinate_planes(), k_max=3, d_max=6)
        assert search.d == 2
        assert search.verified_up_to == 3
        assert search.found

    def test_principal_ideal_is_standard(self):
        principal = MonomialIdeal.from_gens(2, [(1, 0)])
        assert oracles.find_veronese_d([principal], 3, 4).d == 1

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
            search = oracles.find_veronese_d(primes, k_max=3, d_max=4)
            assert (search.d == 1) == oracles.is_standard_graded(c)

    def test_not_found_is_a_value(self):
        search = oracles.find_veronese_d(coordinate_planes(), k_max=3, d_max=1)
        assert search.d is None
        assert not search.found


class TestGorenstein:
    def test_any_graph_with_canonical_weights(self):
        assert oracles.is_gorenstein(triangle())
        assert oracles.is_gorenstein(square())

    def test_two_face_needs_weight_two(self):
        assert not oracles.is_gorenstein(
            WeightedComplex.validate(3, [(0, 1, 2)], [1])
        )
        assert oracles.is_gorenstein(
            WeightedComplex.validate(3, [(0, 1, 2)], [2])
        )

    def test_singleton_reduction_is_reported(self):
        c = WeightedComplex.validate(3, [(0,), (1, 2)], [4, 1])
        report = algebra.gorenstein_report(c)
        assert report.verdict
        assert report.stripped == ((0, 4),)

    def test_all_singletons_rejected(self):
        c = WeightedComplex.validate(2, [(0,), (1,)])
        report = algebra.gorenstein_report(c)
        assert report.verdict is None
        assert report.stripped == ((0, 1), (1, 1))
        # the criterion does not apply, but the algebra is Gorenstein: its
        # monoid is free on the units and one degree-1 generator
        assert oracles.is_gorenstein(c) is True
        report = algebra.gorenstein_report(WeightedComplex.validate(0, []))
        assert report.verdict is None
        assert report.stripped == report.offending == ()

    def test_matches_danilov_stanley_count_on_random_complexes(self):
        rng = random.Random(41)
        verdicts = set()
        for _ in range(300):
            c = random_antichain_complex(rng, rng.randint(1, 5), max_weight=3)
            verdict = algebra.gorenstein_report(c).verdict
            # None: the criterion does not apply, and those algebras are Gorenstein
            assert oracles.is_gorenstein(c) is (True if verdict is None else verdict)
            verdicts.add(verdict)
        assert verdicts == {True, False, None}


class TestDegreeBound:
    def test_small_values(self):
        assert algebra.degree_limit(3) == 7
        assert algebra.degree_limit(2) == 3

    def test_family_instance_value(self):
        assert algebra.degree_limit(7) >= 7
        assert 7 * 7 * 4**7 == 802816 < 8**10 == 1073741824

    def test_exact_comparator_matches_max_degree(self):
        for n in range(1, 41):
            limit = algebra.degree_limit(n)
            assert limit**2 * 4**n < (n + 1) ** (n + 3) <= (limit + 1) ** 2 * 4**n

    def test_needs_a_vertex(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
                algebra.degree_limit(n)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_vertex_count_is_not_coerced(self, bad):
        # True read as 1 gave the bound for one vertex
        with pytest.raises(
            ValueError, match=f"vertex count must be an integer, got {bad!r}"
        ):
            algebra.degree_limit(bad)


class TestDeterminantBound:
    def test_exhaustive_three_by_three(self):
        best = max(
            abs(det([bits[i * 3 : (i + 1) * 3] for i in range(3)]))
            for bits in product((0, 1), repeat=9)
        )
        assert best == 2
        assert oracles.fs_determinant_bound(3).max_value() == 2

    def test_trivial_case(self):
        assert oracles.fs_determinant_bound(1).max_value() == 1

    def test_exhaustive_four_by_four(self):
        best = max(
            abs(det([bits[i * 4 : (i + 1) * 4] for i in range(4)]))
            for bits in product((0, 1), repeat=16)
        )
        assert best == 3
        assert oracles.fs_determinant_bound(4).max_value() == 3
        assert oracles.fs_determinant_bound(4).holds(best)

    def test_triangulation_indices_respect_bound(self):
        # subcone indices of canonical-weight cones come from 0/1 matrices
        from coveralg.cone import build_cone
        from oracles import extreme_rays, triangulate

        rng = random.Random(23)
        for _ in range(5):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            rays = extreme_rays(build_cone(c))
            bound = oracles.fs_determinant_bound(c.n + 1)
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
            g = WeightedComplex.validate(n, edges)
            ideal = cover_ideal(g)
            all_equal = all(
                algebra.compare_powers(ideal, k).equal for k in range(1, 5)
            )
            standard = oracles.is_standard_graded(g)
            assert all_equal == standard
            done += 1

    # the one cover-algebra pass against forming I^k and looking it up
    NAMED = {
        **{f"C7-k{k}": (7, cycle(7), k, False) for k in (4, 5, 6)},
        "C9-k8": (9, cycle(9), 8, False),
        "C10-k6": (10, cycle(10), 6, True),  # bipartite
        "Petersen-k3": (10, PETERSEN, 3, False),
        "K6-k5": (6, list(combinations(range(6), 2)), 5, False),
        "triangles7-k3": (7, list(combinations(range(7), 3)), 3, False),
    }

    @pytest.mark.parametrize("n, faces, k, equal", NAMED.values(), ids=list(NAMED))
    def test_matches_ordinary_power_route_on_named_ideals(self, n, faces, k, equal):
        ideal = face_ideal(n, faces)
        result = algebra.compare_powers(ideal, k)
        assert tuple(result) == oracles.compare_by_ordinary_power(ideal, k)
        assert result.equal == equal

    @pytest.mark.parametrize("bad", [2.5, 2.0, True])
    def test_order_is_not_coerced(self, bad):
        with pytest.raises(ValueError, match=f"power must be an integer, got {bad!r}"):
            algebra.compare_powers(face_ideal(3, cycle(3)), bad)

    @pytest.mark.parametrize("k", [0, -1])
    def test_order_below_one_is_refused(self, k):
        with pytest.raises(ValueError, match=f"power must be >= 1, got {k}"):
            algebra.compare_powers(face_ideal(3, cycle(3)), k)

    def test_odd_cycle_witness_is_all_variables(self):
        # C_(2m+1) needs m + 1 of its vertices in every vertex cover
        for n in (5, 7, 9):
            result = algebra.compare_powers(face_ideal(n, cycle(n)), n // 2 + 1)
            assert result == (False, (1,) * n)

    def test_matches_ordinary_power_route_on_random_ideals(self):
        rng = random.Random(43)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 7)
            faces = [
                rng.sample(range(n), rng.randint(1, min(4, n)))
                for _ in range(rng.randint(1, 6))
            ]
            ideal = face_ideal(n, faces)
            for k in range(1, 7):
                expected = oracles.compare_by_ordinary_power(ideal, k)
                assert tuple(algebra.compare_powers(ideal, k)) == expected
                outcomes.add(expected[0])
        assert outcomes == {True, False}


# a squarefree ideal, and one that is not: (x1^2, x1 x2)
ORDER_CHECKED = (face_ideal(3, cycle(3)), MonomialIdeal.from_gens(2, [(2, 0), (1, 1)]))


@pytest.mark.parametrize("bad", [2.0, True])
def test_symbolic_power_order_is_not_coerced(bad):
    for ideal in ORDER_CHECKED:
        with pytest.raises(
            ValueError, match=f"symbolic power order must be an integer, got {bad!r}"
        ):
            algebra.symbolic_power(ideal, bad)


@pytest.mark.parametrize("k", [0, -1])
def test_symbolic_power_order_below_one_is_refused(k):
    for ideal in ORDER_CHECKED:
        with pytest.raises(
            ValueError, match=f"symbolic power order must be >= 1, got {k}"
        ):
            algebra.symbolic_power(ideal, k)


@pytest.mark.parametrize("bad", [1.5, True, 2.5])
def test_generators_cap_is_not_coerced(bad):
    with pytest.raises(ValueError, match=f"degree cap must be an integer, got {bad!r}"):
        algebra.generators(triangle(), bad)


class TestSymbolicPowerByCoverAlgebra:
    # the cover-algebra route against the intersection of prime powers,
    # whose primes come from the oracle's own hitting-set scan
    def test_matches_intersection_on_random_ideals(self):
        rng = random.Random(211)
        proper = 0
        for _ in range(300):
            n = rng.randint(2, 7)
            faces = [
                rng.sample(range(n), rng.randint(1, min(4, n)))
                for _ in range(rng.randint(1, 6))
            ]
            ideal = face_ideal(n, faces)
            for k in (1, 2, 3):
                sym = algebra.symbolic_power(ideal, k)
                assert sym == oracles.symbolic_power_by_intersection(ideal, k)
                proper += sym != ideal.power(k)
        assert proper >= 15  # cases where a generator of degree >= 2 matters

    def test_matches_intersection_on_named_ideals(self):
        cases = [
            (face_ideal(6, cycle(6)), 4),
            (face_ideal(7, cycle(7)), 4),
            (face_ideal(6, combinations(range(6), 2)), 4),
            (face_ideal(7, combinations(range(7), 3)), 3),
            (oracles.zero(3), 3),
            (oracles.unit(3), 3),
            (face_ideal(3, [(0,), (1,)]), 3),
            (face_ideal(3, [(0,)]), 3),
        ]
        for ideal, top in cases:
            for k in range(1, top + 1):
                assert algebra.symbolic_power(
                    ideal, k
                ) == oracles.symbolic_power_by_intersection(ideal, k)


class TestSymbolicPowerOfNonSquarefreeIdeals:
    # the meet of primary components against the oracle's box scan, which
    # uses none of intersect, power, cover_complex or symbolic_power
    def test_matches_box_scan_on_random_ideals(self):
        rng = random.Random(233)
        done, outcomes = 0, set()
        while done < 120:
            n = rng.randint(1, 5)
            gens = [
                tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
            ]
            ideal, k = MonomialIdeal.from_gens(n, gens), rng.randint(1, 3)
            if ideal.is_squarefree:
                continue
            sym = algebra.symbolic_power(ideal, k)
            assert sym == oracles.symbolic_power_by_box(ideal, k), (gens, k)
            expected = oracles.compare_by_box(ideal, k)
            assert tuple(algebra.compare_powers(ideal, k)) == expected, (gens, k)
            outcomes.add(expected[0])
            done += 1
        assert outcomes == {True, False}

    def test_embedded_component_does_not_count(self):
        # (x1^2, x1 x2) = (x1) ∩ (x1^2, x2): the one minimal prime is (x1)
        ideal = MonomialIdeal.from_gens(2, [(2, 0), (1, 1)])
        for k, want in ((1, (1, 0)), (2, (2, 0))):
            assert algebra.symbolic_power(ideal, k) == MonomialIdeal(2, (want,))
            assert oracles.symbolic_power_by_box(ideal, k) == MonomialIdeal(2, (want,))
        assert algebra.compare_powers(ideal, 1) == (False, (1, 0))
        assert oracles.compare_by_box(ideal, 1) == (False, (1, 0))

    def test_five_cycle_of_x_squared_y_at_k_3(self):
        ideal = MonomialIdeal.from_gens(5, [
            tuple(2 if v == j else int(v == (j + 1) % 5) for v in range(5))
            for j in range(5)
        ])
        sym = algebra.symbolic_power(ideal, 3)
        assert len(sym.gens) == 40
        assert sym == oracles.symbolic_power_by_box(ideal, 3)
        assert tuple(algebra.compare_powers(ideal, 3)) == oracles.compare_by_box(ideal, 3)


class TestSymbolicPowerPastOneByteFields:
    def test_one_edge_at_k_130(self):
        # a minimal k-cover has coordinates up to k, so k >= 128 packs its
        # covers in 2-byte fields
        edge = MonomialIdeal.from_gens(2, [(1, 1)])
        want = MonomialIdeal.from_gens(2, [(130, 130)])
        assert algebra.symbolic_power(edge, 130) == want
        assert edge.power(130) == want
        assert algebra.compare_powers(edge, 130) == (True, None)

    def test_large_levels_match_intersection(self):
        # levels of 100 covers or more, whose scans stop at the first cover
        # past each generator, at k = 5 and 6
        rng = random.Random(7)
        done = {5: 0, 6: 0}
        while min(done.values()) < 3:
            n = rng.randint(6, 7)
            faces = [rng.sample(range(n), rng.randint(2, 3)) for _ in range(rng.randint(4, 7))]
            ideal, k = face_ideal(n, faces), rng.choice((5, 6))
            sym = algebra.symbolic_power(ideal, k)
            if len(sym.gens) >= 100 and done[k] < 3:
                assert sym == oracles.symbolic_power_by_intersection(ideal, k), faces
                done[k] += 1


class TestSymbolicPowerOfGraphCoverIdeals:
    # the minimal primes of a graph's cover ideal are its edges, so the
    # symbolic route runs the completion at cap 2 from k = 2 on, by the same
    # rule as generators (`algebra._completion_cap`)
    def test_cap_two_matches_intersection_and_ordinary_power(self, monkeypatch):
        caps = []

        def spy(system, degree_cap):
            caps.append(degree_cap)
            return tight_points(system, degree_cap)

        monkeypatch.setattr(algebra, "tight_points", spy)
        rng = random.Random(227)
        graphs = [(5, cycle(5)), (7, cycle(7)), (6, cycle(6)), (4, [(0, 1), (2, 3)])]
        while len(graphs) < 24:
            n = rng.randint(3, 7)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
            if edges:
                graphs.append((n, edges))
        witnesses = set()
        for n, edges in graphs:
            graph = WeightedComplex.validate(n, edges)
            ideal = cover_ideal(graph)
            assert cover_complex(ideal) == graph
            for k in range(1, 5):
                caps.clear()
                sym, witness = algebra._symbolic_power(ideal, k)
                assert caps == [min(k, 2)], (edges, k)
                assert sym == oracles.symbolic_power_by_intersection(ideal, k)
                expected = oracles.compare_by_ordinary_power(ideal, k)
                assert (witness is None, witness) == expected, (edges, k)
                witnesses.add(witness is None)
            # an odd cycle makes I^(2) != I^2, and only a graph that has one
            assert (oracles.compare_by_ordinary_power(ideal, 2)[0]
                    == bipartition(graph).is_bipartite), edges
        assert witnesses == {True, False}
