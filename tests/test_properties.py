"""Property tests: the antichain kernel, symbolic powers and the Hilbert-basis
engine against oracles.

Inputs are drawn by hypothesis with a fixed derandomized seed and small
example counts, so the suite stays quick and every run checks the same
cases.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

import oracles
from coveralg.algebra import squarefree_symbolic_power
from coveralg.complexes import WeightedComplex
from coveralg.cone import build_cone, hilbert_basis
from coveralg.monomial import MonomialIdeal, minimal_elements

small = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def vector_sets(draw):
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    return draw(st.lists(vector, max_size=20))


@st.composite
def squarefree_ideals(draw):
    n = draw(st.integers(3, 7))
    face = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=min(n, 4))
    faces = draw(st.lists(face, min_size=2, max_size=8, unique=True))
    return MonomialIdeal.from_gens(
        n, [tuple(int(i in f) for i in range(n)) for f in faces]
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


@small
@given(vector_sets())
def test_minimal_elements_match_all_pairs_oracle(vectors):
    assert minimal_elements(vectors) == oracles.minimal_elements(vectors)


@small
@given(squarefree_ideals(), st.integers(1, 4))
def test_symbolic_power_matches_intersection(ideal, k):
    assert squarefree_symbolic_power(
        ideal, k
    ) == oracles.symbolic_power_by_intersection(ideal, k)


@settings(small, max_examples=60)
@given(weighted_complexes())
def test_hilbert_basis_matches_primal_oracle(complex_):
    system = build_cone(complex_)
    assert hilbert_basis(system).points == oracles.primal_hilbert_basis(system)
