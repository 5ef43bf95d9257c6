"""Property tests: the antichain kernel and symbolic powers against oracles.

Inputs are drawn by hypothesis with a fixed derandomized seed and small
example counts, so the suite stays quick and every run checks the same
cases.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import oracles
from coveralg.algebra import squarefree_symbolic_power
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
