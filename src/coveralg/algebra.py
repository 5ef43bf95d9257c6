"""Graded presentations of cover algebras, symbolic powers, degree bounds.

The generator list of a complex is the positive-degree part of the cover
cone's Hilbert basis. Symbolic powers of squarefree ideals are read off
that list, and those of other monomial ideals are met from their primary
components. Degree bounds with irrational closed forms are handled by
squared-integer comparators so every verdict is exact.
"""

from __future__ import annotations

from functools import cache, reduce
from math import isqrt
from operator import or_
from typing import NamedTuple

from .complexes import CoverPoint, WeightedComplex, cover_complex
from .cone import build_cone, hilbert_basis, tight_points
from .errors import InternalError, TruncatedPresentation
from .monomial import ExpVec, MonomialIdeal, Packing, checked_int, minimal_elements


class AlgebraPresentation(NamedTuple):
    complex: WeightedComplex
    generators: tuple[CoverPoint, ...]
    truncated: bool

    @property
    def n(self) -> int:
        return self.complex.n


def _completion_cap(
    complex_: WeightedComplex, cap: int | None
) -> tuple[int | None, bool]:
    """The completion's cap, and whether it proves the basis whole: a graph
    with unit weights has its algebra generated in degree <= 2 (Herzog, Hibi
    and Trung, Adv. Math. 210 (2007)), so there a cap of None or above 2 is 2."""
    graph = complex_.non_edge is None and complex_.has_canonical_weights
    whole = graph and (cap is None or checked_int(cap, "degree cap") >= 2)
    return 2 if whole else cap, whole


def generators(
    complex_: WeightedComplex, degree_cap: int | None = None
) -> AlgebraPresentation:
    """Minimal algebra generators, by degree and then coordinates.

    They are the positive-degree Hilbert basis points at `_completion_cap`'s cap.
    """
    cap, whole = _completion_cap(complex_, degree_cap)
    basis = hilbert_basis(build_cone(complex_), cap)
    gens = tuple(CoverPoint(p[:-1], p[-1]) for p in basis.points if p[-1] > 0)
    return AlgebraPresentation(complex_, gens, basis.truncated and not whole)


def max_degree(presentation: AlgebraPresentation) -> int:
    """Largest generator degree; 0 when there are no generators."""
    if presentation.truncated:
        raise TruncatedPresentation(
            "maximal degree is unknown for a degree-capped presentation"
        )
    return max((g.k for g in presentation.generators), default=0)


class GorensteinReport(NamedTuple):
    verdict: bool | None
    stripped: tuple[tuple[int, int], ...]
    offending: tuple[tuple[tuple[int, ...], int], ...]


def gorenstein_report(complex_: WeightedComplex) -> GorensteinReport:
    """Gorenstein test with the singleton-facet reduction applied first.

    After dropping zero-dimensional facets, the algebra is Gorenstein iff
    every remaining facet F has weight |F| - 1. The criterion needs a facet
    with at least two vertices; without one the verdict is None.
    """
    facets = list(zip(complex_.facets, complex_.weights))
    stripped = tuple((v, w) for f, w in facets if len(f) == 1 for v in f)
    offending = tuple(
        (tuple(sorted(f)), w)
        for f, w in facets
        if len(f) >= 2 and w != len(f) - 1
    )
    verdict = not offending if len(stripped) < len(facets) else None
    return GorensteinReport(verdict, stripped, offending)


def degree_limit(n: int) -> int:
    """Largest degree d the generator bound d < (n+1)^((n+3)/2) / 2^n admits.

    Exactly: the largest d with d^2 * 4^n < (n+1)^(n+3). The bound is
    stated for n >= 1.
    """
    if checked_int(n, "vertex count") < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return isqrt(((n + 1) ** (n + 3) - 1) // 4**n)


def symbolic_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """I^(k), the meet over I's minimal primes P of I^k R_P ∩ R.

    Only minimal primes count, so an embedded component of I^k drops out:
    (x1^2, x1 x2) has the one minimal prime (x1) and I^(2) = (x1^2). A
    squarefree I is read off its cover algebra (`_symbolic_power`). Any
    other I is met as the intersection of the Q_P^k, Q_P being I with the
    variables outside P set to 1, its P-primary component.
    """
    if checked_int(k, "symbolic power order") < 1:
        raise ValueError(f"symbolic power order must be >= 1, got {k}")
    if ideal.is_squarefree:
        return _symbolic_power(ideal, k)[0]
    return _primary_meet(ideal, k)


def _primary_meet(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The intersection of the Q_P^k over the minimal primes P of I."""
    return reduce(MonomialIdeal.intersect, (
        MonomialIdeal(ideal.n, minimal_elements(
            tuple(e if v in p else 0 for v, e in enumerate(g)) for g in ideal.gens
        )).power(k)
        for p in cover_complex(ideal).facets
    ))


def _symbolic_power(ideal: MonomialIdeal, k: int) -> tuple[MonomialIdeal, ExpVec | None]:
    """I^(k) of a squarefree I, k >= 1, and its least generator outside I^k, or None.

    I^(k) is the degree-k part of the vertex cover algebra of the complex
    of I's minimal primes (Herzog, Hibi and Trung, Adv. Math. 210 (2007)),
    so its generators are the minimal k-covers: the minimal a with
    a(P) >= k for every minimal prime P, where a(P) sums a over P.

    A minimal j-cover is a sum of algebra generators whose degrees add up
    to j, and every partial sum is again a minimal cover of its degree.
    So S_j, the minimal j-covers, lies among the sums g.a + s with s in
    S_(j - deg g) and g no earlier in the generator list than the last
    generator s was built with. Generators above degree k cannot be
    summands and are capped off. A cover keeps the first sum met, so by
    induction on j it holds the least last-summand index of all its sums.
    It lies in I^j iff that summand, and so every earlier one, has degree 1.
    The generators come in degree order and each S_j is filled in
    last-summand order, so the scans stop at the first generator above
    degree j and at the first cover of S_(j - deg g) past g.

    Such a sum a is a j-cover. It is minimal exactly when every vertex of
    its support lies in a prime P with a(P) = j, and since g.a(P) >= deg g
    and s(P) >= j - deg g, those tight primes are the ones tight for both
    g and s. A generator's tight primes are the cover-cone rows where its
    slack is 0, read off the completion by `cone.tight_points`. Each cover
    carries its tight primes and its support as bitmasks, so the test takes
    a few integer operations per sum and no antichain is formed.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal, None
    cover = cover_complex(ideal)
    prime_masks = [sum(1 << v for v in p) for p in cover.facets]
    packing = Packing(ideal.n, k)  # a minimal j-cover has coordinates <= j
    points = tight_points(build_cone(cover), _completion_cap(cover, k)[0])
    gens = [  # (packed a, degree, tight primes, support)
        (packing.pack(a), deg, tight, sum(1 << v for v, e in enumerate(a) if e))
        for (*a, deg), tight in points
    ]

    @cache
    def reached(tight: int) -> int:  # the vertices the tight primes contain
        vertices = 0
        while tight:
            vertices |= prime_masks[(tight & -tight).bit_length() - 1]
            tight &= tight - 1
        return vertices

    # S_j: minimal j-cover -> (tight primes, support, index of last summand)
    sums = [{0: ((1 << len(prime_masks)) - 1, 0, 0)}]
    for j in range(1, k + 1):
        level: dict[int, tuple[int, int, int]] = {}
        for i, (a, deg, g_tight, g_support) in enumerate(gens):
            if deg > j:
                break
            for s, (s_tight, s_support, last) in sums[j - deg].items():
                if last > i:
                    break
                tight = g_tight & s_tight
                support = g_support | s_support
                if not support & ~reached(tight):
                    level.setdefault(a + s, (tight, support, i))
        if reduce(or_, level, 0) & packing.guards:
            raise InternalError(f"a minimal {j}-cover overflowed its field")
        sums.append(level)
    covers, unpack = sorted(sums[k]), packing.unpack
    outside = (unpack(a) for a in covers if gens[sums[k][a][2]][1] > 1)
    return MonomialIdeal(ideal.n, tuple(map(unpack, covers))), next(outside, None)


class PowerComparison(NamedTuple):
    equal: bool
    witness: ExpVec | None


def compare_powers(ideal: MonomialIdeal, k: int) -> PowerComparison:
    """Compare the k-th ordinary and symbolic powers of a monomial ideal.

    On strict containment, the witness is the (degree, lex)-least symbolic
    generator outside the ordinary power. For a squarefree I, the pass that
    builds I^(k) keeps, by induction, each cover's least last-summand index.
    The cover lies in I^k, as a sum of k generators of I, iff that summand
    has degree 1. For any other I, I^k lies in I^(k), so a generator of
    I^(k) that lies in I^k is a generator of I^k, and the witness is the
    first generator of I^(k) that is no generator of I^k.
    """
    if checked_int(k, "power") < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if ideal.is_squarefree:
        witness = _symbolic_power(ideal, k)[1]
    else:
        ordinary = set(ideal.power(k).gens)
        witness = next(
            (g for g in _primary_meet(ideal, k).gens if g not in ordinary), None
        )
    return PowerComparison(witness is None, witness)
