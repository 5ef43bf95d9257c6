"""Property tests: the packed monomial layer, symbolic powers, the
Hilbert-basis engine and graph cover splits against oracles.

Inputs are drawn by hypothesis with a fixed derandomized seed and small
example counts, so the suite stays quick and every run checks the same
cases.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from coveralg.algebra import compare_powers, symbolic_power
from coveralg.complexes import WeightedComplex, cover_complex, is_cover
from coveralg.cone import build_cone, hilbert_basis
from coveralg.errors import InternalError
from coveralg.graphs import split
from coveralg.monomial import MonomialIdeal, Packing, minimal_elements

small = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def vectors(draw, n, max_size):
    """Exponent vectors up to a top of 0 to 300, so fields of 1 to 10 bits.

    The top's bit length is drawn first: small tops make vectors of equal
    degree, whose order only the lex part of the packing decides.
    """
    top = min(300, (1 << draw(st.integers(0, 9))) - 1)
    vector = st.tuples(*[st.integers(0, top)] * n)
    return draw(st.lists(vector, max_size=max_size))


@st.composite
def vector_sets(draw):
    return vectors(draw, draw(st.integers(1, 6)), 20)


@st.composite
def ideal_pairs(draw, max_size=6):
    """Two ideals in one ring of 1 to 6 variables, the zero and unit ideals
    among them."""
    n = draw(st.integers(1, 6))
    zero, unit = oracles.zero(n), oracles.unit(n)

    def ideal():
        gens = vectors(draw, n, max_size)
        return draw(st.sampled_from([MonomialIdeal.from_gens(n, gens), zero, unit]))

    return ideal(), ideal()


def products(left, right):
    """The minimal generators of a product, from its definition."""
    return oracles.minimal_elements(
        tuple(a + b for a, b in zip(f, g)) for f in left for g in right
    )


@st.composite
def squarefree_ideals(draw):
    n = draw(st.integers(3, 7))
    face = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4))
    faces = draw(st.lists(face, min_size=2, max_size=8, unique=True))
    return MonomialIdeal.from_gens(
        n, [tuple(int(i in f) for i in range(n)) for f in faces]
    )


@st.composite
def facet_antichains(draw):
    """The minimal sets of a drawn family of 1 to 10 faces on 1 to 8
    vertices, so singleton facets and one-facet complexes come up."""
    n = draw(st.integers(1, 8))
    faces = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                          min_size=1, max_size=10))
    return WeightedComplex.validate(
        n, {f for f in faces if not any(g < f for g in faces)}
    )


@st.composite
def weighted_complexes(draw):
    """A facet antichain on 3 to 5 vertices with weights 1 to 4."""
    n = draw(st.integers(3, 5))
    # edges first, then the larger faces: draws lean to the front of the
    # list, and it takes overlapping facets to need generators of degree 2
    faces = sorted(
        (frozenset(c) for k in range(1, n) for c in combinations(range(n), k)),
        key=lambda f: (len(f) != 2, -len(f)),
    )
    drawn = st.lists(st.sampled_from(faces), min_size=4, max_size=10, unique=True)
    facets: list[frozenset[int]] = []
    for f in draw(drawn):
        if not any(f <= g or g <= f for g in facets):
            facets.append(f)
    weight = st.integers(1, 4)
    weights = draw(st.lists(weight, min_size=len(facets), max_size=len(facets)))
    return WeightedComplex.validate(n, facets, weights)


@st.composite
def graph_covers(draw):
    """A graph on 2 to 7 vertices with a cover a of order k it can split.

    Either bipartite, with weights 1 to 5 and k >= 0, or with unit weights,
    an odd cycle on the first 3 or 5 vertices and k >= 3. The cover tops a
    drawn vector up on one end of each edge it falls short on.
    """
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        side = [0, 1] + draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
        pairs = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
        edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(edges),
                                max_size=len(edges)))
        k = draw(st.integers(0, 8))
    else:
        n = draw(st.integers(3, 7))
        odd = 3 if n < 5 else 5
        cycle = {(i, i + 1) for i in range(odd - 1)} | {(0, odd - 1)}
        pairs = list(combinations(range(n), 2))
        edges = cycle | set(draw(st.lists(st.sampled_from(pairs), unique=True)))
        weights = None
        k = draw(st.integers(3, 8))
    graph = WeightedComplex.validate(n, edges, weights)
    a = draw(st.lists(st.integers(0, 3 * k), min_size=n, max_size=n))
    for f, w in zip(graph.facets, graph.weights):
        short = k * w - sum(a[v] for v in f)
        if short > 0:
            a[draw(st.sampled_from(sorted(f)))] += short
    return graph, tuple(a), k


@small
@given(graph_covers())
def test_split_parts_are_covers_summing_to_the_cover(case):
    graph, a, k = case
    parts = split(graph, a, k)
    assert tuple(map(sum, zip(*(p.a for p in parts)))) == a
    assert sum(p.k for p in parts) == k
    assert all(is_cover(graph, p.a, p.k) for p in parts)


@small
@given(vector_sets())
def test_minimal_elements_match_all_pairs_oracle(vectors):
    assert minimal_elements(vectors) == oracles.minimal_elements(vectors)


@small
@given(vector_sets())
def test_from_gens_keeps_the_minimal_vectors(vectors):
    n = len(vectors[0]) if vectors else 1
    ideal = MonomialIdeal.from_gens(n, vectors)
    assert ideal.gens == oracles.minimal_elements(vectors)


@small
@given(ideal_pairs())
def test_multiply_matches_definition(pair):
    # the packed product that `power` multiplies with, one field wide
    # enough for the sums of the two tops: each sum of packed vectors is
    # the packed product, and `minimal` keeps the generators
    left, right = pair
    top = max((e for g in left.gens + right.gens for e in g), default=0)
    packing = Packing(left.n, 2 * top)
    left_packed = list(map(packing.pack, left.gens))
    right_packed = list(map(packing.pack, right.gens))
    got = packing.minimal(f + g for f in left_packed for g in right_packed)
    assert tuple(map(packing.unpack, got)) == products(left.gens, right.gens)


@small
@given(ideal_pairs(), st.data())
def test_intersect_matches_all_pairwise_joins(pair, data):
    # generators that lie in the other ideal pass through without joins;
    # sharing some of the left's generators with the right makes them common
    left, right = pair
    shared = data.draw(st.lists(st.sampled_from(left.gens), max_size=3)) if left.gens else []
    right = MonomialIdeal.from_gens(right.n, right.gens + tuple(shared))
    for a, b in ((left, right), (right, left)):
        assert a.intersect(b).gens == oracles.intersect_by_joins(a, b)


@settings(small, max_examples=80)
@given(ideal_pairs(max_size=4), st.integers(0, 5))
def test_power_matches_repeated_products(pair, k):
    ideal = pair[0]
    expected = ((0,) * ideal.n,)
    for _ in range(k):
        expected = products(expected, ideal.gens)
    assert ideal.power(k).gens == expected


def test_a_sum_past_the_field_width_raises():
    packing = Packing(3, 100)  # 1-byte fields hold 0..127
    v = packing.pack((0, 100, 0))
    assert packing.unpack(packing.minimal([v])[0]) == (0, 100, 0)
    with pytest.raises(InternalError):
        packing.minimal([v + v])


@small
@given(squarefree_ideals(), st.integers(1, 4))
def test_symbolic_power_matches_intersection(ideal, k):
    assert symbolic_power(
        ideal, k
    ) == oracles.symbolic_power_by_intersection(ideal, k)


@small
@given(facet_antichains())
@example(WeightedComplex.validate(8, [range(8)]))  # the full simplex
@example(WeightedComplex.validate(6, [[1, 4]]))  # one facet, isolated vertices
@example(WeightedComplex.validate(4, [[0], [1], [2, 3]]))
@example(WeightedComplex.validate(5, [[0], [1], [2], [3], [4]]))
def test_cover_complex_matches_hitting_set_oracle(complex_):
    got = set(cover_complex(oracles.facet_ideal(complex_)).facets)
    assert got == oracles.minimal_hitting_sets(complex_.n, complex_.facets)


@settings(small, max_examples=60)
@given(weighted_complexes())
def test_hilbert_basis_matches_primal_oracle(complex_):
    system = build_cone(complex_)
    assert hilbert_basis(system).points == oracles.primal_hilbert_basis(system)


@settings(small, max_examples=60)
@given(squarefree_ideals(), st.integers(1, 3))
def test_compare_witness_matches_membership(ideal, k):
    # I^k from its definition: the products of k generators
    ordinary = [
        tuple(map(sum, zip(*factors)))
        for factors in combinations_with_replacement(ideal.gens, k)
    ]
    symbolic = oracles.symbolic_power_by_intersection(ideal, k)
    outside = [g for g in symbolic.gens if not oracles.member(ordinary, g)]
    result = compare_powers(ideal, k)
    assert result.equal == (not outside)
    assert result.witness == min(outside, key=lambda v: (sum(v), v), default=None)
