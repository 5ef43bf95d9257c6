from __future__ import annotations

import random
from itertools import product
from operator import le

import pytest

import oracles
from coveralg.complexes import WeightedComplex, is_cover
from coveralg.cone import (
    ConeSystem,
    HilbertBasis,
    _cut,
    _pack,
    _row_values,
    _unpack,
    build_cone,
    hilbert_basis,
)
from coveralg.errors import DimensionMismatch
from coveralg.graphs import family_instance
from coveralg.monomial import guard_bits
from oracles import (
    DegenerateCone,
    SimplicialSubcone,
    all_rows,
    decompose_lattice_point,
    det,
    dot,
    extreme_rays,
    in_cone,
    parallelepiped_points,
    primal_hilbert_basis,
    skeleton,
    triangulate,
    veronese,
)


def triangle():
    return WeightedComplex.validate(3, [(0, 1), (0, 2), (1, 2)])


def single_edge():
    return WeightedComplex.validate(2, [(0, 1)])


def random_antichain_complex(rng, n):
    from coveralg.errors import InvalidComplex

    while True:
        facets = set()
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, max(1, n - 1))
            facets.add(frozenset(rng.sample(range(n), size)))
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            return WeightedComplex.validate(
                n, minimal, [rng.randint(1, 3) for _ in minimal]
            )
        except InvalidComplex:
            continue


def random_weighted_complex(rng):
    """3 to 6 vertices, 3 to 7 facets of 2 or 3 vertices, weights up to 5."""
    from coveralg.errors import InvalidComplex

    n = rng.randint(3, 6)
    while True:
        facets = set()
        for _ in range(rng.randint(3, 7)):
            size = rng.randint(2, min(3, n - 1))
            facets.add(frozenset(rng.sample(range(n), size)))
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            return WeightedComplex.validate(
                n, minimal, [rng.randint(1, 5) for _ in minimal]
            )
        except InvalidComplex:
            continue


# {"n": 3, "facets": [[1], [2, 3]], "weights": [200, 1]}: its t row
# starts at 200, past the 127 that an 8-bit packed field holds
WEIGHT_200 = WeightedComplex.validate(3, [(0,), (1, 2)], [200, 1])


class TestBuildCone:
    def test_single_edge_rows(self):
        system = build_cone(single_edge())
        assert system.dim == 3
        assert system.rows == ((1, 1, -1),)

    def test_rows_come_smallest_facet_first_in_any_facet_order(self):
        # the rows follow validate's facet order, (facet size, vertex
        # tuple), whatever order the facets were listed in
        rng = random.Random(139)
        instances = [family_instance(2, 2).complex, veronese(skeleton(5, 2), 3)]
        instances += [random_weighted_complex(rng) for _ in range(20)]
        for c in instances:
            listed = list(zip(c.facets, c.weights))
            rng.shuffle(listed)
            shuffled = WeightedComplex.validate(
                c.n, [sorted(f)[::-1] for f, _ in listed], [w for _, w in listed]
            )
            system = build_cone(shuffled)
            assert system == build_cone(c)
            supports = [
                tuple(i for i, x in enumerate(row[:-1]) if x)
                for row in system.rows
            ]
            assert supports == sorted(supports, key=lambda f: (len(f), f))
            assert hilbert_basis(system) == hilbert_basis(build_cone(c))

    def test_triangle_row_count(self):
        system = build_cone(triangle())
        assert len(system.rows) == 3

    def test_order_two_cover_is_lattice_point(self):
        assert in_cone(build_cone(triangle()), (1, 1, 1, 2))

    def test_contains(self):
        system = build_cone(triangle())
        assert not in_cone(system, (1, 1, 0, 2))
        assert in_cone(system, (0, 0, 0, 0))
        with pytest.raises(DimensionMismatch):
            in_cone(system, (1, 1, 1))

    def test_lattice_points_are_covers(self):
        c = triangle()
        system = build_cone(c)
        for p in product(range(3), repeat=3):
            for k in range(3):
                assert in_cone(system, (*p, k)) == is_cover(c, p, k)


class TestExtremeRays:
    def test_orthant(self):
        system = ConeSystem(
            3, tuple(tuple(1 if j == i else 0 for j in range(3)) for i in range(3))
        )
        assert set(extreme_rays(system)) == {
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }

    def test_single_edge(self):
        got = set(extreme_rays(build_cone(single_edge())))
        assert got == {(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_triangle_matches_cross_section_oracle(self):
        system = build_cone(triangle())
        want = oracles.extreme_rays_bruteforce(all_rows(system), system.dim)
        assert set(extreme_rays(system)) == want
        assert (1, 1, 1, 2) in want

    def test_random_systems_match_bruteforce(self):
        rng = random.Random(61)
        for _ in range(25):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            system = build_cone(c)
            got = set(extreme_rays(system))
            want = oracles.extreme_rays_bruteforce(all_rows(system), system.dim)
            assert got == want

    def test_rays_satisfy_all_rows_and_are_primitive(self):
        from math import gcd

        rng = random.Random(67)
        for _ in range(10):
            c = random_antichain_complex(rng, rng.randint(2, 5))
            system = build_cone(c)
            for ray in extreme_rays(system):
                assert in_cone(system, ray)
                g = 0
                for x in ray:
                    g = gcd(g, x)
                assert g == 1

    def test_degenerate_system_rejected(self):
        # x = y >= 0 inside the plane: a one-dimensional cone
        system = ConeSystem(2, ((1, -1), (-1, 1), (1, 0), (0, 1)))
        with pytest.raises(DegenerateCone):
            extreme_rays(system)


class TestTriangulate:
    def test_simplicial_input_is_single_subcone(self):
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        subs = triangulate(rays)
        assert len(subs) == 1
        assert subs[0].index == 1

    def test_single_edge_cone_splits_in_two(self):
        rays = extreme_rays(build_cone(single_edge()))
        subs = triangulate(rays)
        assert len(subs) == 2
        assert all(s.index == 1 for s in subs)

    def test_rank_deficient_rejected(self):
        with pytest.raises(DegenerateCone):
            triangulate([(1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_union_and_disjointness_by_sampling(self):
        rng = random.Random(71)
        system = build_cone(triangle())
        rays = extreme_rays(system)
        subs = triangulate(rays)

        def in_subcone_count(p):
            # interior membership per subcone via exact solve
            hits = 0
            for s in subs:
                coeffs = oracles._solve_square(
                    [list(col) for col in zip(*s.rays)], p
                )
                if coeffs is not None and all(c > 0 for c in coeffs):
                    hits += 1
            return hits

        inside = 0
        for _ in range(300):
            p = tuple(rng.randint(0, 6) for _ in range(4))
            if not in_cone(system, p):
                continue
            hits = in_subcone_count(p)
            assert hits <= 1, f"interior point {p} in {hits} subcones"
            inside += hits
        assert inside > 0

        # union: every cone point lies in some subcone (boundaries allowed)
        for _ in range(200):
            p = tuple(rng.randint(0, 5) for _ in range(4))
            if not in_cone(system, p):
                continue
            member = any(
                (
                    c := oracles._solve_square(
                        [list(col) for col in zip(*s.rays)], p
                    )
                )
                is not None
                and all(x >= 0 for x in c)
                for s in subs
            )
            assert member, f"cone point {p} missed by triangulation"

    def test_total_index_is_order_invariant(self):
        rng = random.Random(73)
        for _ in range(10):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            rays = list(extreme_rays(build_cone(c)))
            total_a = sum(s.index for s in triangulate(rays))
            shuffled = rays[:]
            rng.shuffle(shuffled)
            total_b = sum(s.index for s in triangulate(shuffled))
            assert total_a == total_b


class TestParallelepipedPoints:
    def test_unimodular_gives_origin_only(self):
        s = SimplicialSubcone(((1, 0), (0, 1)), 1)
        assert parallelepiped_points(s) == ((0, 0),)

    def test_two_dimensional_example(self):
        rays = ((1, 0), (1, 2))
        s = SimplicialSubcone(rays, abs(det(rays)))
        assert set(parallelepiped_points(s)) == {(0, 0), (1, 1)}
        assert oracles.parallelepiped_boxscan(rays) == {(0, 0), (1, 1)}

    def test_cardinality_equals_determinant(self):
        rng = random.Random(79)
        done = 0
        while done < 50:
            rays = tuple(
                tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)
            )
            d = det(rays)
            if d == 0:
                continue
            s = SimplicialSubcone(rays, abs(d))
            assert len(parallelepiped_points(s)) == abs(d)
            done += 1

    def test_matches_boxscan_oracle(self):
        rng = random.Random(83)
        done = 0
        while done < 25:
            rays = tuple(
                tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(3)
            )
            d = det(rays)
            if d == 0:
                continue
            s = SimplicialSubcone(rays, abs(d))
            assert set(parallelepiped_points(s)) == oracles.parallelepiped_boxscan(
                rays
            )
            done += 1


class TestHilbertBasis:
    def test_single_edge_by_exhaustive_decomposition(self):
        system = build_cone(single_edge())
        basis = hilbert_basis(system)
        assert set(basis.points) == {
            (1, 0, 0),
            (0, 1, 0),
            (1, 0, 1),
            (0, 1, 1),
        }
        # every lattice point in the box decomposes over the basis
        for p in product(range(4), repeat=3):
            if in_cone(system, p):
                assert decompose_lattice_point(basis.points, p) is not None

    def test_triangle_worked_example(self):
        basis = hilbert_basis(build_cone(triangle()))
        assert basis.points == (
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 1, 1, 1),
            (1, 0, 1, 1),
            (1, 1, 0, 1),
            (1, 1, 1, 2),
        )
        assert not basis.truncated

    def test_square_worked_example(self):
        c = WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        basis = hilbert_basis(build_cone(c))
        positive = [p for p in basis.points if p[-1] > 0]
        assert positive == [(0, 1, 0, 1, 1), (1, 0, 1, 0, 1)]

    def test_degree_zero_slice_is_units(self):
        rng = random.Random(89)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            basis = hilbert_basis(build_cone(c))
            zero_slice = {p for p in basis.points if p[-1] == 0}
            n = c.n
            assert zero_slice == {
                tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n)
            }

    def test_soundness_and_irreducibility(self):
        rng = random.Random(97)
        for _ in range(8):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            system = build_cone(c)
            basis = hilbert_basis(system)
            for p in basis.points:
                assert is_cover(c, p[:-1], p[-1])
            for x in basis.points:
                for y in basis.points:
                    if x == y:
                        continue
                    diff = tuple(a - b for a, b in zip(x, y))
                    assert not in_cone(system, diff) or all(
                        v == 0 for v in diff
                    ), f"{x} reducible by {y}"

    def test_normality_sampling(self):
        rng = random.Random(101)
        c = triangle()
        system = build_cone(c)
        basis = hilbert_basis(system)
        for _ in range(100):
            a = tuple(rng.randint(0, 12) for _ in range(3))
            kmax = min(
                sum(a[i] for i in f) // w
                for f, w in zip(c.facets, c.weights)
            )
            p = (*a, rng.randint(0, kmax))
            combo = decompose_lattice_point(basis.points, p)
            assert combo is not None
            total = [0] * 4
            for point, mult in combo.items():
                for i, x in enumerate(point):
                    total[i] += mult * x
            assert tuple(total) == p

    def test_degree_slices_match_monomial_route(self):
        # dual route: the cone engine's degree-k points must be covers the
        # prime-power-intersection machinery also certifies as minimal,
        # and conversely all of those must decompose over the basis
        from oracles import module_generators

        rng = random.Random(107)
        for _ in range(12):
            c = random_antichain_complex(rng, rng.randint(2, 4))
            basis = hilbert_basis(build_cone(c))
            for k in (1, 2, 3):
                module_gens = {p.a for p in module_generators(c, k)}
                for p in basis.points:
                    if p[-1] == k:
                        assert p[:-1] in module_gens
                for a in module_gens:
                    assert (
                        decompose_lattice_point(basis.points, (*a, k))
                        is not None
                    )

    def test_basis_independent_of_triangulation_order(self):
        # reduction inputs differ when ray order changes; result must not
        rng = random.Random(103)
        for _ in range(20):
            c = random_antichain_complex(rng, rng.randint(2, 5))
            system = build_cone(c)
            rays = list(extreme_rays(system))
            reference = hilbert_basis(system).points

            shuffled = rays[:]
            rng.shuffle(shuffled)
            candidates = set(shuffled)
            zero = (0,) * system.dim
            for s in triangulate(shuffled):
                candidates.update(
                    p for p in parallelepiped_points(s) if p != zero
                )
            ordered = sorted(candidates, key=lambda p: (p[-1], p[:-1]))
            slacks = [
                tuple(dot(row, p) for row in all_rows(system)) for p in ordered
            ]
            kept = tuple(
                p
                for i, p in enumerate(ordered)
                if not any(
                    j != i
                    and all(a <= b for a, b in zip(slacks[j], slacks[i]))
                    for j in range(len(ordered))
                )
            )
            assert kept == reference

    def test_basis_independent_of_row_order(self):
        # the completion cuts the rows in the order given; only the work
        # may depend on that order, never the basis, and an explicit unit
        # row, which the orthant already implies, changes nothing
        rng = random.Random(131)
        instances = [triangle(), family_instance(2, 2).complex]
        instances += [random_weighted_complex(rng) for _ in range(30)]
        for c in instances:
            system = build_cone(c)
            reference = hilbert_basis(system).points
            for given in (system.rows, all_rows(system)):
                for _ in range(3):
                    rows = list(given)
                    rng.shuffle(rows)
                    shuffled = ConeSystem(system.dim, tuple(rows))
                    assert hilbert_basis(shuffled).points == reference

    def test_matches_bruteforce_irreducibles_in_box(self):
        # every coordinate of a cone point dominates the coordinates of any
        # summand, so irreducibility inside a box is decided inside the box;
        # the brute answer must equal the engine's basis restricted to it
        rng = random.Random(109)
        bound = 7
        for _ in range(15):
            c = random_antichain_complex(rng, rng.randint(2, 3))
            system = build_cone(c)
            pts = [
                p
                for p in product(range(bound + 1), repeat=system.dim)
                if any(p) and in_cone(system, p)
            ]
            brute = set()
            for p in pts:
                reducible = any(
                    q != p
                    and all(a >= b for a, b in zip(p, q))
                    and in_cone(system, tuple(a - b for a, b in zip(p, q)))
                    and any(a - b for a, b in zip(p, q))
                    for q in pts
                )
                if not reducible:
                    brute.add(p)
            engine = {
                p
                for p in hilbert_basis(system).points
                if all(x <= bound for x in p)
            }
            assert engine == brute

    def test_degree_cap_truncates_and_flags(self):
        basis = hilbert_basis(build_cone(triangle()), degree_cap=1)
        assert basis.truncated
        assert all(p[-1] <= 1 for p in basis.points)

    def test_default_cap_never_truncates_small_instances(self):
        assert not hilbert_basis(build_cone(triangle())).truncated

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="degree cap must be >= 0, got -1"):
            hilbert_basis(build_cone(triangle()), degree_cap=-1)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_cap_is_not_coerced(self, bad):
        with pytest.raises(
            ValueError, match=f"degree cap must be an integer, got {bad!r}"
        ):
            hilbert_basis(build_cone(triangle()), bad)

    def test_capped_completion_is_the_basis_cut_at_the_cap(self):
        # the cap prunes pair sums inside the completion, and what is left
        # must be exactly the full basis up to the cap, at every cap
        cycle9 = [(i, (i + 1) % 9) for i in range(9)]
        petersen = [(i, (i + 1) % 5) for i in range(5)] + [
            (i, i + 5) for i in range(5)
        ] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        instances = [
            triangle(),
            WeightedComplex.validate(9, cycle9),
            WeightedComplex.validate(10, petersen),
            family_instance(2, 2).complex,
            skeleton(6, 3),
            veronese(skeleton(5, 2), 3),
            WeightedComplex.validate(0, []),
            # a weight past 127 widens the completion's packed fields
            WEIGHT_200,
        ]
        rng = random.Random(2718)
        instances += [random_weighted_complex(rng) for _ in range(150)]
        for c in instances:
            system = build_cone(c)
            full = hilbert_basis(system)
            top = full.points[-1][-1]
            for cap in range(top + 1):
                capped = hilbert_basis(system, cap)
                assert capped.points == tuple(
                    p for p in full.points if p[-1] <= cap
                ), (c, cap)
                # exit 0 must prove the output whole: a point above the
                # cap is only reached through a sum past the cap
                if cap < top:
                    assert capped.truncated
                if not capped.truncated:
                    assert capped == full

    def test_fields_widen_exactly_past_the_start_width(self):
        # the completion packs each element into one int of 8-bit fields,
        # the top bit a guard; no field may be clipped at 127
        cases = {
            # a start value of 127 is the largest that fits
            ((1, -127),): ((1, 0), (127, 1)),
            # 128 does not: the fields widen before any sum is formed
            ((1, -128),): ((1, 0), (128, 1)),
            ((3, -1000),): ((1, 0), (334, 1), (667, 2), (1000, 3)),
            # 40,000 needs two doublings, past 16-bit fields too
            ((40000, -40000),): ((1, 0), (1, 1)),
            # every start value fits, but a sum carries into a guard bit:
            # 120 t <= x <= 130 t forms (127, 1) + (1, 0) ...
            ((1, -120), (-1, 130)): tuple((x, 1) for x in range(120, 131)),
            # ... and 70 y >= 0 puts a slack of 70 per unit of y into a
            # field, 140 in the reducible sum (1, 2) + (0, 1) of 3 x <= 2 y
            ((0, 70), (-3, 2)): ((0, 1), (1, 2), (2, 3)),
        }
        for rows, want in cases.items():
            system = ConeSystem(2, rows)
            assert hilbert_basis(system) == HilbertBasis(2, want, False), rows
            assert primal_hilbert_basis(system) == want
        basis = hilbert_basis(build_cone(WEIGHT_200))
        assert basis.points == (
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (200, 0, 1, 1),
            (200, 1, 0, 1),
        )

    def test_lam_zero_elements_off_the_unit_vectors_match_primal_oracle(self):
        # negative coefficients put sums of units into C's basis, so the
        # elements of lam = 0 that screen the pair sums of a cut are not
        # all unit vectors; a row with no zero coefficient may leave none
        rng = random.Random(181)
        off_unit = none = done = 0
        while done < 60:
            dim = rng.randint(3, 4)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 3))
            )
            system = ConeSystem(dim, rows)
            try:
                want = primal_hilbert_basis(system)
            except DegenerateCone:
                continue
            assert hilbert_basis(system) == HilbertBasis(dim, want, False), rows
            for cap in range(want[-1][-1] + 2):
                capped = hilbert_basis(system, cap)
                assert capped.points == tuple(p for p in want if p[-1] <= cap)
                assert capped.truncated or capped.points == want, (rows, cap)
            # C's basis at each cut is the basis of the rows before it
            for i, row in enumerate(rows):
                before = hilbert_basis(ConeSystem(dim, rows[:i])).points
                zero = [p for p in before if not dot(row, p)]
                off_unit += any(sum(p) > 1 for p in zero)
                none += not zero
            done += 1
        assert off_unit >= 10 and none >= 10, (off_unit, none)

    def test_guard_bit_sum_below_a_lam_zero_element_needs_no_widening(self):
        # C = {y <= 2x, x <= 2y} has the basis (1, 1), (1, 2), (2, 1), and
        # 40x + 40y >= 0 only adds a slack field holding 80, 120 and 120.
        # The cut by x - y >= 0 forms one pair sum, (2, 1) + (1, 2), which
        # carries 240 into that field, past the 127 it holds at 8 bits; but
        # (1, 1), of lam 0, lies below it with 160 to spare, so the sum is
        # rejected before the guard test and the cut ends at 8 bits
        rows = ((2, -1), (-1, 2), (40, 40), (1, -1))
        system = ConeSystem(2, rows)
        want = primal_hilbert_basis(system)
        assert want == ((1, 1), (2, 1))
        assert hilbert_basis(system) == HilbertBasis(2, want, False)
        for cap in range(3):
            capped = hilbert_basis(system, cap)
            assert capped.points == tuple(p for p in want if p[-1] <= cap)
            assert capped.truncated or capped.points == want
        before = hilbert_basis(ConeSystem(2, rows[:3])).points
        assert before == ((1, 1), (2, 1), (1, 2))
        basis = [_pack([*p, *(dot(r, p) for r in rows[:3])], 8) for p in before]
        assert (basis[1] + basis[2]) & guard_bits(5, 8)
        kept, skipped = _cut(basis, rows[3], None, 5, 8)
        assert sorted(_unpack(x, 6, 8) for x in kept) == [
            [1, 1, 1, 1, 80, 0],
            [2, 1, 3, 0, 120, 1],
        ]
        assert not skipped

    def test_cut_without_lam_zero_elements(self):
        # every start element has lam != 0, so no element screens the pair
        # sums, and the start value of the last reducer must reject none:
        # 70 y >= 0 then 3 x <= 2 y, whose sum (1, 2) carries 140 into the
        # slack field of 70 y, must still overflow at 8 bits
        units = [_pack([1, 0, 0], 8), _pack([0, 1, 70], 8)]
        assert _cut(units, (-3, 2), None, 3, 8) is None
        wide = [_pack(_unpack(x, 3, 8), 16) for x in units]
        kept, skipped = _cut(wide, (-3, 2), None, 3, 16)
        assert sorted(_unpack(x, 4, 16)[:2] for x in kept) == [[0, 1], [1, 2], [2, 3]]
        assert not skipped
        for rows in (((-3, 2),), ((1, 1, -2),), ((2, -3, 1), (-1, 2, -1))):
            system = ConeSystem(len(rows[0]), rows)
            want = primal_hilbert_basis(system)
            assert hilbert_basis(system) == HilbertBasis(system.dim, want, False)
            for cap in range(want[-1][-1] + 1):
                capped = hilbert_basis(system, cap)
                assert capped.points == tuple(p for p in want if p[-1] <= cap)

    def test_row_values_are_the_dot_products(self):
        # digit sums over packed fields equal row . x, for rows with
        # repeated, negative and zero coefficients, at every field width,
        # with field values up to the largest a field holds
        rng = random.Random(151)
        for width in (8, 16, 32):
            top = (1 << width - 1) - 1
            for _ in range(60):
                d = rng.randint(1, 12)
                fields = d + rng.randint(0, 3)  # slack fields past the row
                coefficient = rng.choice([
                    lambda: rng.choice([0, 1, -1]),
                    lambda: rng.randint(-3, 3),
                    lambda: rng.randint(-(10**6), 10**6),
                ])
                row = tuple(coefficient() for _ in range(d))
                points = [
                    [rng.choice([0, top, rng.randint(0, top)]) for _ in range(fields)]
                    for _ in range(rng.randint(0, 8))
                ]
                basis = [_pack(p, width) for p in points]
                assert _row_values(basis, row, width) == [dot(row, p) for p in points]

    def test_rows_past_the_exact_digit_sum_length_widen(self):
        # a group sum is exact below 2^(2w) - 1, which every row of fewer
        # than 2^(w+1) coordinates keeps; a longer row is never read at w
        top = 127
        for d in (511, 512, 516, 517, 600):
            row = (1,) * d
            for width in (8, 16):
                basis = [_pack([top] * d, width), _pack([1] * d, width)]
                exact = width > 8 or d < 512
                want = [d * top, d] if exact else None
                assert _row_values(basis, row, width) == want, (d, width)
        # x_1 + x_2 + x_3 >= 2 t in d coordinates: the basis of that cone
        # in 4, with zeros between, and the units of the other coordinates
        small = primal_hilbert_basis(ConeSystem(4, ((1, 1, 1, -2),)))
        for d, widened in ((511, False), (512, True)):
            row = (1, 1, 1) + (0,) * (d - 4) + (-2,)
            units = [1 << i * 8 for i in range(d)]
            assert (_cut(units, row, None, d, 8) is None) == widened
            want = [p[:3] + (0,) * (d - 4) + p[3:] for p in small]
            want += [tuple(int(i == j) for j in range(d)) for i in range(3, d - 1)]
            want.sort(key=lambda p: (p[-1], p))
            got = hilbert_basis(ConeSystem(d, (row,)))
            assert got == HilbertBasis(d, tuple(want), False)

    def test_plane_cones_with_large_coefficients_match_primal_oracle(self):
        # packed dominance must be the componentwise order of the slack
        # vectors, also where coefficients past 127 widen the fields
        rng = random.Random(167)

        def coefficient():
            size = rng.choice([0, rng.randint(1, 9), rng.randint(100, 300)])
            return rng.choice([1, -1]) * size

        widened = done = 0
        while done < 40:
            rows = tuple(
                (coefficient(), coefficient()) for _ in range(rng.randint(1, 2))
            )
            system = ConeSystem(2, rows)
            try:
                want = primal_hilbert_basis(system)
            except DegenerateCone:
                continue
            basis = hilbert_basis(system)
            assert basis.points == want, rows
            slacks = [tuple(dot(row, p) for row in all_rows(system)) for p in want]
            for i, x in enumerate(slacks):
                for j, y in enumerate(slacks):
                    assert i == j or not all(map(le, y, x)), (rows, x, y)
            widened += any(abs(c) > 127 for row in rows for c in row)
            done += 1
        assert widened >= 15
        # rows in {-1, 0, 1} in dimensions 3 and 4, where most pair sums
        # have lam = 0 and one side scan settles each of them; a capped
        # basis is the full one cut at the cap
        done = 0
        while done < 40:
            dim = rng.randint(3, 4)
            rows = tuple(
                tuple(rng.choice([-1, 0, 1]) for _ in range(dim))
                for _ in range(rng.randint(1, 3))
            )
            system = ConeSystem(dim, rows)
            try:
                want = primal_hilbert_basis(system)
            except DegenerateCone:
                continue
            assert hilbert_basis(system) == HilbertBasis(dim, want, False), rows
            cap = rng.randint(0, want[-1][-1])
            capped = hilbert_basis(system, cap)
            assert capped.points == tuple(p for p in want if p[-1] <= cap), rows
            assert capped.truncated or capped.points == want, (rows, cap)
            done += 1

    def test_empty_complex_cone(self):
        c = WeightedComplex.validate(3, [])
        basis = hilbert_basis(build_cone(c))
        assert basis.points == (
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 1),
        )
        # n = 0: the cone t >= 0, whose basis {t} the default cap admits
        no_vertices = build_cone(WeightedComplex.validate(0, []))
        assert hilbert_basis(no_vertices) == HilbertBasis(1, ((1,),), False)

    def test_rows_are_read_inside_the_orthant(self):
        # the one row x - y >= 0 is read inside the orthant, so the cone is
        # x >= y >= 0, and stating the orthant's rows again changes nothing
        want = HilbertBasis(2, ((1, 0), (1, 1)), False)
        system = ConeSystem(2, ((1, -1),))
        assert hilbert_basis(system) == want
        explicit = ConeSystem(2, system.rows + ((0, 1), (1, 0)))
        assert hilbert_basis(explicit) == want

    def test_record_repr_hash_and_immutability(self):
        basis = hilbert_basis(ConeSystem(2, ((1, -1),)))
        assert repr(basis) == (
            "HilbertBasis(dim=2, points=((1, 0), (1, 1)), truncated=False)"
        )
        same = HilbertBasis(2, ((1, 0), (1, 1)), False)
        assert basis == same and hash(basis) == hash(same)
        assert basis != HilbertBasis(2, ((1, 0), (1, 1)), True)
        with pytest.raises(AttributeError):
            basis.truncated = True

    def test_matches_primal_oracle_on_named_instances(self):
        instances = [
            triangle(),
            WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
            veronese(skeleton(5, 2), 3),
            family_instance(2, 2).complex,
            # a cut whose lam >= 0 side keeps an element that a later sum
            # lies below: only the final minimalization removes it
            WeightedComplex.validate(
                5, [(0, 1), (0, 4), (0, 2, 3), (1, 3, 4)], [3, 3, 5, 4]
            ),
            WEIGHT_200,
        ]
        for c in instances:
            system = build_cone(c)
            assert hilbert_basis(system).points == primal_hilbert_basis(system)

    def test_matches_primal_oracle_on_random_weighted_complexes(self):
        rng = random.Random(113)
        above_degree_one = 0
        for _ in range(150):
            system = build_cone(random_weighted_complex(rng))
            basis = hilbert_basis(system)
            assert not basis.truncated
            assert basis.points == primal_hilbert_basis(system)
            above_degree_one += basis.points[-1][-1] >= 2
        # the draw must reach beyond standard graded algebras to test much
        assert above_degree_one >= 20
