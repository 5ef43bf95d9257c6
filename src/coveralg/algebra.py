"""Graded presentations of cover algebras, degree bounds, power comparisons.

The generator list of a complex is the positive-degree part of the cover
cone's Hilbert basis. Degree bounds with irrational closed forms are
handled by squared-integer comparators so every verdict is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

from .complexes import (
    CoverPoint,
    WeightedComplex,
    squarefree_symbolic_power,
    strip_zero_dim_facets,
)
from .cone import build_cone, degree_limit, hilbert_basis
from .errors import InvalidComplex, TruncatedPresentation
from .monomial import ExpVec, MonomialIdeal, degree_lex_key


@dataclass(frozen=True)
class AlgebraPresentation:
    complex: WeightedComplex
    generators: tuple[CoverPoint, ...]
    truncated: bool

    @property
    def n(self) -> int:
        return self.complex.n

    def by_degree(self) -> dict[int, tuple[CoverPoint, ...]]:
        out: dict[int, list[CoverPoint]] = {}
        for g in self.generators:
            out.setdefault(g.k, []).append(g)
        return {k: tuple(v) for k, v in out.items()}


def generators(
    complex_: WeightedComplex,
    degree_cap: int | None = None,
) -> AlgebraPresentation:
    """Minimal algebra generators: positive-degree Hilbert basis points."""
    basis = hilbert_basis(build_cone(complex_), degree_cap)
    gens = tuple(
        CoverPoint(p[:-1], p[-1]) for p in basis.points if p[-1] > 0
    )
    return AlgebraPresentation(complex_, gens, basis.truncated)


def max_degree(presentation: AlgebraPresentation) -> int:
    """Largest generator degree; 0 when there are no generators."""
    if presentation.truncated:
        raise TruncatedPresentation(
            "maximal degree is unknown for a degree-capped presentation"
        )
    return max((g.k for g in presentation.generators), default=0)


def veronese(complex_: WeightedComplex, c: int) -> WeightedComplex:
    """Complex whose cover algebra is the c-th Veronese: weights scaled by c."""
    if c < 1:
        raise ValueError(f"Veronese index must be >= 1, got {c}")
    return WeightedComplex(
        complex_.n,
        complex_.facets,
        tuple(w * c for w in complex_.weights),
    )


def is_standard_graded(complex_: WeightedComplex) -> bool:
    """True iff every minimal algebra generator has degree 1."""
    return max_degree(generators(complex_)) <= 1


@dataclass(frozen=True)
class VeroneseSearch:
    d: int | None
    verified_up_to: int

    @property
    def found(self) -> bool:
        return self.d is not None


def find_veronese_d(
    ideals: Sequence[MonomialIdeal], k_max: int, d_max: int
) -> VeroneseSearch:
    """Smallest d <= d_max with (meet of I_j^d)^k == meet of I_j^(dk).

    The identity is checked for k up to k_max only, and the result says
    so; nothing here certifies the unbounded statement.
    """
    if not ideals:
        raise ValueError("need at least one ideal")
    if k_max < 1 or d_max < 1:
        raise ValueError("bounds must be >= 1")
    n = ideals[0].n
    for ideal in ideals[1:]:
        ideals[0]._same_ring(ideal)

    def meet_of_powers(e: int) -> MonomialIdeal:
        result = MonomialIdeal.unit(n)
        for ideal in ideals:
            result = result.intersect(ideal.power(e))
        return result

    for d in range(1, d_max + 1):
        base = meet_of_powers(d)
        if all(base.power(k) == meet_of_powers(d * k) for k in range(2, k_max + 1)):
            return VeroneseSearch(d, k_max)
    return VeroneseSearch(None, k_max)


@dataclass(frozen=True)
class GorensteinReport:
    verdict: bool
    stripped: tuple[tuple[int, int], ...]
    offending: tuple[tuple[tuple[int, ...], int], ...]


def gorenstein_report(complex_: WeightedComplex) -> GorensteinReport:
    """Gorenstein test with the singleton-facet reduction applied first.

    After dropping zero-dimensional facets, the algebra is Gorenstein iff
    every remaining facet F has weight |F| - 1. Complexes whose facets are
    all singletons fall outside the criterion and are rejected.
    """
    reduced, stripped = strip_zero_dim_facets(complex_)
    if not reduced.facets:
        raise InvalidComplex(
            "Gorenstein criterion needs a facet with at least two vertices"
        )
    offending = tuple(
        (tuple(sorted(f)), w)
        for f, w in zip(reduced.facets, reduced.weights)
        if w != len(f) - 1
    )
    return GorensteinReport(not offending, stripped, offending)


def is_gorenstein(complex_: WeightedComplex) -> bool:
    return gorenstein_report(complex_).verdict


@dataclass(frozen=True)
class DegreeBound:
    """Exact comparator for d < (n+1)^((n+3)/2) / 2^n, squared to stay integral."""

    n: int

    def holds(self, d: int) -> bool:
        return d * d * 4**self.n < (self.n + 1) ** (self.n + 3)

    def max_degree(self) -> int:
        """Largest degree the bound admits."""
        return degree_limit(self.n)


def degree_bound(n: int) -> DegreeBound:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return DegreeBound(n)


@dataclass(frozen=True)
class DeterminantBound:
    """Exact comparator for |det| <= (n+1)^((n+1)/2) / 2^n over 0/1 matrices."""

    n: int

    def holds(self, v: int) -> bool:
        return v * v * 4**self.n <= (self.n + 1) ** (self.n + 1)

    def max_value(self) -> int:
        return isqrt((self.n + 1) ** (self.n + 1) // 4**self.n)


def fs_determinant_bound(n: int) -> DeterminantBound:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return DeterminantBound(n)


@dataclass(frozen=True)
class PowerComparison:
    equal: bool
    witness: ExpVec | None


def compare_powers(ideal: MonomialIdeal, k: int) -> PowerComparison:
    """Compare the k-th ordinary and symbolic powers of a squarefree ideal.

    On strict containment, the witness is the (degree, lex)-least symbolic
    generator outside the ordinary power.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    ordinary = ideal.power(k)
    symbolic = squarefree_symbolic_power(ideal, k)
    if ordinary == symbolic:
        return PowerComparison(True, None)
    missing = sorted(
        (g for g in symbolic.gens if not ordinary.contains(g)),
        key=degree_lex_key,
    )
    return PowerComparison(False, missing[0])
