"""Graded presentations of cover algebras, symbolic powers, degree bounds.

The generator list of a complex is the positive-degree part of the cover
cone's Hilbert basis, or the paper's closed form where the complex is all
s-subsets of a vertex set (`complexes.skeleton_covers`). Symbolic powers
of squarefree ideals are read off that list, but an edge ideal's below
its odd girth are its ordinary powers, and those of other monomial
ideals are met from their primary components. Degree bounds with
irrational closed forms are handled by squared-integer comparators so
every verdict is exact.
"""

from __future__ import annotations

from functools import cache, reduce
from math import isqrt
from operator import and_, or_
from typing import NamedTuple

from .complexes import CoverPoint, WeightedComplex, cover_complex, skeleton_covers, skeleton_shape
from .cone import build_cone, checked_cap, hilbert_basis, tight_points
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
    cap = checked_cap(cap)
    graph = complex_.non_edge is None and complex_.has_canonical_weights
    whole = graph and (cap is None or cap >= 2)
    return 2 if whole else cap, whole


def generators(
    complex_: WeightedComplex, degree_cap: int | None = None
) -> AlgebraPresentation:
    """Minimal algebra generators, by degree and then coordinates.

    They are the positive-degree Hilbert basis points at `_completion_cap`'s cap.
    A complex of all s-subsets of a vertex set takes the closed form instead
    (`skeleton_covers`), which proves its generators end at degree s.
    """
    cap, whole = _completion_cap(complex_, degree_cap)
    if shape := skeleton_shape(complex_):
        gens = skeleton_covers(complex_.n, *shape, cap)
        return AlgebraPresentation(complex_, gens, cap is not None and cap < shape[1])
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
    squarefree I is read off its cover algebra (`_symbolic_power`), but
    the edge ideal of a graph with no odd cycle of at most 2k - 1 edges
    has I^(k) = I^k, formed by `MonomialIdeal.power` (`_below_odd_girth`).
    Any other I is met as the intersection of the Q_P^k, Q_P being I with
    the variables outside P set to 1, its P-primary component.
    """
    if checked_int(k, "symbolic power order") < 1:
        raise ValueError(f"symbolic power order must be >= 1, got {k}")
    if not ideal.is_squarefree:
        return _primary_meet(ideal, k)
    if _below_odd_girth(ideal, k):
        return ideal.power(k)
    return _symbolic_power(ideal, k)[0]


def _below_odd_girth(ideal: MonomialIdeal, k: int) -> bool:
    """Whether a squarefree I is the edge ideal of a graph with no odd cycle
    of at most 2k - 1 edges, so that I^(k) = I^k.

    For a graph of odd girth 2s + 1, I^(j) = I^j exactly for j <= s, and
    for a bipartite graph for every j (Simis, Vasconcelos and Villarreal,
    J. Algebra 167 (1994); Janssen, Kamp, Vander Meulen and Van Tuyl,
    "Comparing powers of edge ideals", J. Algebra Appl. (2020)). The tests
    check this against the cover-algebra pass on random graphs of up to 9
    vertices, at k = s and s + 1.

    Such a cycle exists iff some vertex r has an odd closed walk of at
    most 2k - 1 edges. A breadth-first search from r on the pairs (vertex,
    parity of the walk), the vertices of each parity a bitmask, finds the
    shortest, stopping when its frontier empties.
    """
    if any(sum(g) != 2 for g in ideal.gens):
        return False
    adjacent = [0] * ideal.n
    for g in ideal.gens:
        u, v = (i for i, e in enumerate(g) if e)
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    for root in range(ideal.n):
        if not adjacent[root] & (adjacent[root] - 1):
            continue  # fewer than two neighbours: on no cycle
        frontier = 1 << root
        seen = [frontier, 0]  # reached by a walk of even, of odd length
        for length in range(1, 2 * k):
            step = 0
            while frontier:
                step |= adjacent[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = step & ~seen[length & 1]
            if not frontier:
                break
            if frontier >> root & 1:  # at an odd length, as seen[0] holds root
                return False
            seen[length & 1] |= frontier
    return True


def _primary_meet(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """The intersection of the Q_P^k over the minimal primes P of I."""
    return reduce(MonomialIdeal.intersect, (
        MonomialIdeal(ideal.n, minimal_elements(
            tuple(e if v in p else 0 for v, e in enumerate(g)) for g in ideal.gens
        )).power(k)
        for p in cover_complex(ideal).facets
    ))


def _skeleton_tight_points(
    complex_: WeightedComplex, vertices: tuple[int, ...], s: int, cap: int
) -> list[tuple[tuple[int, ...], int]]:
    """`cone.tight_points` of the complex of all s-subsets of V, read off the
    closed form: a 0/1 generator of degree q meets a facet F in q vertices,
    so that its slack there is 0, iff F holds the s - q vertices of V it misses."""
    rows_at = [  # vertex -> the rows whose facet holds it
        sum(1 << r for r, f in enumerate(complex_.facets) if v in f) for v in range(complex_.n)
    ]
    every_row = (1 << len(complex_.facets)) - 1
    return [
        ((*a, q), reduce(and_, (rows_at[v] for v in vertices if not a[v]), every_row))
        for a, q in skeleton_covers(complex_.n, vertices, s, cap)
    ]


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
    slack is 0, read off the completion by `cone.tight_points`, or off the
    closed form where the primes are all s-subsets of a vertex set
    (`_skeleton_tight_points`). Each cover
    carries its tight primes and its support as bitmasks, so the test takes
    a few integer operations per sum and no antichain is formed.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal, None
    cover = cover_complex(ideal)
    prime_masks = [sum(1 << v for v in p) for p in cover.facets]
    packing = Packing(ideal.n, k)  # a minimal j-cover has coordinates <= j
    if shape := skeleton_shape(cover):
        points = _skeleton_tight_points(cover, *shape, k)
    else:
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
    generator outside the ordinary power. An edge ideal below its odd
    girth has equal powers (`_below_odd_girth`) and forms neither. For any
    other squarefree I, the pass that builds I^(k) keeps, by induction,
    each cover's least last-summand index. The cover lies in I^k, as a sum
    of k generators of I, iff that summand has degree 1. For any other I,
    I^k lies in I^(k), so a generator of I^(k) that lies in I^k is a
    generator of I^k, and the witness is the first generator of I^(k) that
    is no generator of I^k.
    """
    if checked_int(k, "power") < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if ideal.is_squarefree:
        witness = None if _below_odd_girth(ideal, k) else _symbolic_power(ideal, k)[1]
    else:
        ordinary = set(ideal.power(k).gens)
        witness = next(
            (g for g in _primary_meet(ideal, k).gens if g not in ordinary), None
        )
    return PowerComparison(witness is None, witness)
