"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either a worked example reproduced
exactly or a property checked against an independent oracle.
"""

from __future__ import annotations

import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

import oracles
from coveralg import algebra
from coveralg.complexes import WeightedComplex, skeleton_generators
from coveralg.cone import build_cone, hilbert_basis
from coveralg.errors import InvalidComplex
from coveralg.graphs import bipartition, decompose, family_instance
from coveralg.monomial import MonomialIdeal
from oracles import in_cone, skeleton, veronese


def _report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:2d} PASS  {name}: {detail}")


def triangle():
    return WeightedComplex.validate(3, [(0, 1), (0, 2), (1, 2)])


def square():
    return WeightedComplex.validate(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def random_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return WeightedComplex.validate(n, edges)


@pytest.fixture(scope="module")
def family22_basis():
    inst = family_instance(2, 2)
    start = time.perf_counter()
    basis = hilbert_basis(build_cone(inst.complex))
    return inst, basis, time.perf_counter() - start


def test_criterion_01_triangle_basis():
    start = time.perf_counter()
    pres = algebra.generators(triangle())
    got = {(g.a, g.k) for g in pres.generators}
    want = {
        ((1, 1, 0), 1),
        ((1, 0, 1), 1),
        ((0, 1, 1), 1),
        ((1, 1, 1), 2),
    }
    elapsed = time.perf_counter() - start
    assert got == want
    assert elapsed < 1.0
    _report(1, "triangle basis", f"4 generators, {elapsed:.3f}s")


def test_criterion_02_square_basis():
    start = time.perf_counter()
    pres = algebra.generators(square())
    got = {(g.a, g.k) for g in pres.generators}
    elapsed = time.perf_counter() - start
    assert got == {((1, 0, 1, 0), 1), ((0, 1, 0, 1), 1)}
    assert elapsed < 1.0
    _report(2, "square basis", f"2 generators, {elapsed:.3f}s")


def test_criterion_03_skeletons():
    from math import comb

    start = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for j in range(0, n - 1):
            pres = algebra.generators(skeleton(n, j))
            closed = skeleton_generators(n, j)
            assert pres.generators == closed
            expected_count = sum(
                comb(n, n - j + q - 1) for q in range(1, j + 2)
            )
            assert len(closed) == expected_count
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, "skeleton closed forms", f"{checked} cases, {elapsed:.1f}s")


def test_criterion_04_family22(family22_basis):
    inst, basis, elapsed = family22_basis
    assert len(basis.points) == 52
    units = [p for p in basis.points if p[-1] == 0]
    assert len(units) == 7
    top_degree = max(p[-1] for p in basis.points)
    top = [p for p in basis.points if p[-1] == top_degree]
    assert top_degree == 7
    assert top == [(2, 2, 1, 1, 1, 1, 1, 7)]
    assert top[0][:-1] == inst.cover
    assert elapsed < 300.0
    _report(4, "family(2,2)", f"52 points, unique top at degree 7, {elapsed:.1f}s")


def test_criterion_05_family42_indecomposable():
    start = time.perf_counter()
    inst = family_instance(4, 2)
    assert inst.order == 11
    assert inst.complex.n == 9
    assert inst.order > inst.complex.n - 1 == 8
    assert decompose(inst.complex, inst.cover, inst.order) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(5, "family(4,2) cover", f"order 11 indecomposable, {elapsed:.2f}s")


def test_criterion_05_family42_basis():
    # the order-11 cover is not only indecomposable but a basis element,
    # and the only one of top degree
    start = time.perf_counter()
    inst = family_instance(4, 2)
    basis = hilbert_basis(build_cone(inst.complex))
    elapsed = time.perf_counter() - start
    assert not basis.truncated
    assert len(basis.points) == 256
    top_degree = max(p[-1] for p in basis.points)
    top = [p for p in basis.points if p[-1] == top_degree]
    assert top == [(2, 2, 2, 2, 1, 1, 1, 1, 1, 11)]
    assert top[0][:-1] == inst.cover and top_degree == inst.order
    assert elapsed < 10.0
    _report(5, "family(4,2) basis", f"256 points, unique top at degree 11, {elapsed:.2f}s")


def test_criterion_06_graph_degree_at_most_two():
    start = time.perf_counter()
    rng = random.Random(20060811)
    worst = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        # uncapped: `generators` runs a unit-weight graph at cap 2, by this theorem
        basis = hilbert_basis(build_cone(g))
        assert not basis.truncated
        d = basis.points[-1][-1]
        worst = max(worst, d)
        assert d <= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, "graph degree bound", f"200 graphs, max degree {worst}, {elapsed:.1f}s")


def test_criterion_07_bipartite_standard_gradedness():
    rng = random.Random(151)
    non_bipartite_seen = 0
    witnessed = 0
    for _ in range(80):
        c = random_graph(rng, rng.randint(1, 7))
        standard = oracles.is_standard_graded(c)
        assert standard == bipartition(c).is_bipartite
        if not bipartition(c).is_bipartite:
            non_bipartite_seen += 1
            all_ones = (1,) * c.n
            # no i, j >= 1 split exists for the all-ones order-2 cover
            assert decompose(c, all_ones, 2) is None
            covered = set().union(*c.facets)
            if len(covered) == c.n:
                # with no isolated vertex the all-ones cover is also a
                # minimal one, hence an actual basis element
                basis = hilbert_basis(build_cone(c))
                assert (*all_ones, 2) in basis.points
                witnessed += 1
    assert non_bipartite_seen >= 10 and witnessed >= 5
    done = 0
    while done < 30:
        g = random_graph(rng, rng.randint(2, 7), p=0.4)
        if not g.facets or not bipartition(g).is_bipartite:
            continue
        weighted = WeightedComplex.validate(
            g.n, g.facets, [rng.randint(1, 5) for _ in g.facets]
        )
        assert oracles.is_standard_graded(weighted)
        done += 1
    _report(
        7,
        "bipartite iff standard",
        f"80 canonical ({non_bipartite_seen} odd) + 30 weighted bipartite",
    )


def test_criterion_08_symbolic_power_identities():
    planes = [
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 1, 0)]),
        MonomialIdeal.from_gens(3, [(0, 1, 0), (0, 0, 1)]),
        MonomialIdeal.from_gens(3, [(1, 0, 0), (0, 0, 1)]),
    ]

    def symbolic(j):
        out = oracles.unit(3)
        for p in planes:
            out = out.intersect(p.power(j))
        return out

    for k in (1, 2):
        for h in (1, 2):
            if k + h <= 3:
                product = oracles.product(symbolic(2 * k), symbolic(2 * h))
                assert product == symbolic(2 * (k + h))
    edges = MonomialIdeal.from_gens(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    for j in range(1, 7):
        assert algebra.symbolic_power(edges, j) == symbolic(j)
    xyz_cubed = (3, 3, 3)
    assert oracles.member(symbolic(6).gens, xyz_cubed)
    assert not oracles.member(
        oracles.product(symbolic(3), symbolic(3)).gens, xyz_cubed
    )
    search = oracles.find_veronese_d(planes, k_max=3, d_max=6)
    assert search.d == 2
    _report(8, "symbolic identities", "even products multiply, d = 2")


def test_criterion_09_normality_sampling(family22_basis):
    rng = random.Random(424242)
    instances = [
        ("triangle", triangle()),
        ("square", square()),
        ("skeleton(5,2)", skeleton(5, 2)),
    ]
    budgets = []
    for name, c in instances:
        basis = hilbert_basis(build_cone(c))
        budgets.append((name, c, basis))
    inst, fam_basis, _ = family22_basis
    budgets.append(("family(2,2)", inst.complex, fam_basis))

    for name, c, basis in budgets:
        system = build_cone(c)
        for _ in range(500):
            a = tuple(rng.randint(0, 20) for _ in range(c.n))
            kmax = min(
                sum(a[i] for i in f) // w
                for f, w in zip(c.facets, c.weights)
            )
            p = (*a, rng.randint(0, min(kmax, 20)))
            assert in_cone(system, p)
            combo = oracles.decompose_lattice_point(basis.points, p)
            assert combo is not None, f"{name}: {p} does not decompose"
            total = [0] * (c.n + 1)
            for point, mult in combo.items():
                for i, x in enumerate(point):
                    total[i] += mult * x
            assert tuple(total) == p
    _report(9, "normality sampling", "4 instances x 500 points")


def test_criterion_10_degree_bounds_and_veronese(family22_basis):
    rng = random.Random(3571)
    instances = [triangle(), square(), skeleton(4, 1), skeleton(5, 2)]
    while len(instances) < 8:
        n = rng.randint(2, 5)
        facets = set()
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n - 1) if n > 1 else 1
            facets.add(frozenset(rng.sample(range(n), size)))
        minimal = [f for f in facets if not any(g < f for g in facets)]
        try:
            instances.append(
                WeightedComplex.validate(
                    n, minimal, [rng.randint(1, 3) for _ in minimal]
                )
            )
        except InvalidComplex:
            continue

    inst, fam_basis, _ = family22_basis
    fam_degree = max(p[-1] for p in fam_basis.points)
    assert fam_degree <= algebra.degree_limit(inst.complex.n)

    checked_bound = 1
    checked_mono = 0
    for c in instances:
        d = algebra.max_degree(algebra.generators(c))
        assert d <= algebra.degree_limit(c.n)
        checked_bound += 1
        if c.n <= 5:
            for scale in range(1, 7):
                scaled = algebra.max_degree(
                    algebra.generators(veronese(c, scale))
                )
                assert scaled <= d
                checked_mono += 1
    _report(
        10,
        "degree bound + veronese",
        f"{checked_bound} bounds, {checked_mono} monotonicity checks",
    )


def test_criterion_11_monomial_calculus_oracle():
    start = time.perf_counter()
    rng = random.Random(90125)

    def random_ideal(n):
        gens = []
        for _ in range(rng.randint(1, 3)):
            total = rng.randint(0, 6)
            v = [0] * n
            for _ in range(total):
                v[rng.randrange(n)] += 1
            gens.append(tuple(v))
        return MonomialIdeal.from_gens(n, gens)

    for trial in range(1000):
        n = rng.randint(2, 4)
        left = random_ideal(n)
        right = random_ideal(n)
        bounds = oracles.coordinate_max(left.gens, right.gens)

        inter = left.intersect(right)
        for m in oracles.box(bounds):
            assert oracles.member(inter.gens, m) == oracles.member_intersection(
                left.gens, right.gens, m
            )

        prod = oracles.product(left, right)
        for m in oracles.box(tuple(2 * b for b in bounds)):
            assert oracles.member(prod.gens, m) == oracles.member_product(
                left.gens, right.gens, m
            )

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(11, "monomial calculus oracle", f"1000 pairs, {elapsed:.1f}s")


def _petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _edge_ideal(n, edges):
    return MonomialIdeal.from_gens(
        n, [tuple(1 if i in e else 0 for i in range(n)) for e in edges]
    )


# Generator counts of the first three checked against the intersection of
# prime powers, which takes 50 to 80 s on each of these; of the last two
# against minimalizing every candidate sum, which takes 44 s and 9 s.
@pytest.mark.parametrize(
    "name, n, edges, k, count, budget",
    [
        ("C_9", 9, _cycle(9), 4, 495, 5.0),
        ("C_8", 8, _cycle(8), 4, 329, 5.0),
        ("Petersen", 10, _petersen_edges(), 3, 562, 5.0),
        ("C_9", 9, _cycle(9), 8, 11955, 5.0),
        ("Petersen", 10, _petersen_edges(), 5, 5320, 3.0),
    ],
    ids=["C9-k4", "C8-k4", "petersen-k3", "C9-k8", "petersen-k5"],
)
def test_criterion_12_symbolic_power_of_edge_ideal(
    name, n, edges, k, count, budget
):
    ideal = _edge_ideal(n, edges)
    start = time.perf_counter()
    sym = algebra.symbolic_power(ideal, k)
    elapsed = time.perf_counter() - start
    assert len(sym.gens) == count
    # from the definition: x^a is in I^(k) iff a meets every minimal
    # vertex cover C with sum at least k, and a generator is minimal
    primes = oracles.minimal_hitting_sets(n, edges)

    def member(a):
        return all(sum(a[i] for i in c) >= k for c in primes)

    for g in sym.gens:
        assert member(g)
        for i in range(n):
            if g[i]:
                assert not member(g[:i] + (g[i] - 1,) + g[i + 1 :])
    assert elapsed < budget
    _report(12, f"{name} symbolic power {k}", f"{count} generators, {elapsed:.2f}s")


def test_criterion_13_ordinary_power_of_edge_ideal():
    n, k = 9, 8
    edges = _cycle(n)
    ideal = _edge_ideal(n, edges)
    start = time.perf_counter()
    power = ideal.power(k)
    elapsed = time.perf_counter() - start
    # from the definition: I^k is generated by the products of k edges;
    # all have degree 2k, so the distinct products are the minimal ones
    products = {
        tuple(sum(i in e for e in chosen) for i in range(n))
        for chosen in combinations_with_replacement(edges, k)
    }
    assert set(power.gens) == products
    assert len(power.gens) == 12870
    assert elapsed < 5.0
    _report(13, f"C_9 ordinary power {k}", f"12870 generators, {elapsed:.2f}s")
