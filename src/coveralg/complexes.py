"""Weighted simplicial complexes, vertex covers of order k, and cover ideals.

Vertices are 0-indexed internally; the JSON file format and everything the
CLI prints are 1-indexed. A complex is a facet antichain with one positive
integer weight per facet; an integer vector a is a cover of order k when
every facet F satisfies sum(a[i] for i in F) >= k * weight(F).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import DimensionMismatch, InvalidComplex, NonSquarefreeIdeal
from .monomial import ExpVec, MonomialIdeal


class CoverPoint(NamedTuple):
    a: ExpVec
    k: int


def _facet_key(f: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(f), tuple(sorted(f)))


@dataclass(frozen=True)
class WeightedComplex:
    n: int
    facets: tuple[frozenset[int], ...]
    weights: tuple[int, ...]

    @classmethod
    def validate(
        cls,
        n: int,
        facets: Iterable[Iterable[int]],
        weights: Iterable[int] | None = None,
    ) -> WeightedComplex:
        """Check and canonicalize raw (0-indexed) complex data.

        Rejections: bad vertex count, empty facets, out-of-range vertices,
        comparable facet pairs, nonpositive or miscounted weights. Facets
        are sorted by (size, vertex tuple) with weights carried along.
        """
        if n < 0:
            raise InvalidComplex(f"vertex count must be >= 0, got {n}")
        fs = [frozenset(int(v) for v in f) for f in facets]
        for f in fs:
            if not f:
                raise InvalidComplex("empty facet")
            bad = [v for v in f if v < 0 or v >= n]
            if bad:
                raise InvalidComplex(
                    f"vertex {bad[0]} out of range for vertex count {n}"
                )
        ws = [1] * len(fs) if weights is None else [int(w) for w in weights]
        if len(ws) != len(fs):
            raise InvalidComplex(
                f"{len(fs)} facets but {len(ws)} weights"
            )
        for w in ws:
            if w < 1:
                raise InvalidComplex(f"facet weight must be >= 1, got {w}")
        for f, g in combinations(fs, 2):
            if f <= g or g <= f:
                raise InvalidComplex(
                    f"comparable facets {sorted(f)} and {sorted(g)}"
                )
        order = sorted(range(len(fs)), key=lambda i: _facet_key(fs[i]))
        return cls(
            n,
            tuple(fs[i] for i in order),
            tuple(ws[i] for i in order),
        )

    @property
    def has_canonical_weights(self) -> bool:
        return all(w == 1 for w in self.weights)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "facets": [[v + 1 for v in sorted(f)] for f in self.facets],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> WeightedComplex:
        n = int(data["n"])
        facets = [[int(v) - 1 for v in f] for f in data.get("facets", [])]
        weights = data.get("weights")
        return cls.validate(n, facets, weights)


def face_sum(a: Iterable[int], face: Iterable[int]) -> int:
    """Sum of the entries of a over a vertex set; the least m with x^a in P_F^m."""
    av = tuple(a)
    return sum(av[i] for i in face)


def is_cover(complex_: WeightedComplex, a: Iterable[int], k: int) -> bool:
    """True iff a is a vertex cover of order k (order 0 holds vacuously)."""
    av = tuple(int(x) for x in a)
    if len(av) != complex_.n:
        raise DimensionMismatch(
            f"vector of length {len(av)} for complex on {complex_.n} vertices"
        )
    if k < 0:
        raise ValueError(f"cover order must be >= 0, got {k}")
    return all(
        sum(av[i] for i in f) >= k * w
        for f, w in zip(complex_.facets, complex_.weights)
    )


def prime_power_ideal(n: int, face: Iterable[int], m: int) -> MonomialIdeal:
    """P_F^m: all exponent vectors supported on the face with total degree m."""
    verts = sorted(face)
    gens = []
    for comp in _weak_compositions(m, len(verts)):
        v = [0] * n
        for vert, e in zip(verts, comp):
            v[vert] = e
        gens.append(tuple(v))
    return MonomialIdeal.from_gens(n, gens)


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first, *rest)


def cover_ideal(complex_: WeightedComplex, scale: int = 1) -> MonomialIdeal:
    """Intersection of P_F^(scale * w_F) over all facets.

    With scale=1 this is the cover ideal: its minimal generators are
    exactly the componentwise-minimal covers of order 1.
    """
    result = MonomialIdeal.unit(complex_.n)
    for f, w in zip(complex_.facets, complex_.weights):
        result = result.intersect(prime_power_ideal(complex_.n, f, scale * w))
    return result


def module_generators(complex_: WeightedComplex, k: int) -> tuple[CoverPoint, ...]:
    """Minimal generators of the order-k cover module, tagged with k."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    ideal = cover_ideal(complex_, scale=k)
    return tuple(CoverPoint(g, k) for g in ideal.gens)


def facet_complex(ideal: MonomialIdeal) -> WeightedComplex:
    """Complex whose facets are the supports of a squarefree ideal's generators."""
    if not ideal.is_squarefree:
        raise NonSquarefreeIdeal(
            "facet complex requires a squarefree ideal"
        )
    if ideal.is_unit:
        raise InvalidComplex("unit ideal has an empty support facet")
    facets = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.gens]
    return WeightedComplex.validate(ideal.n, facets)


def cover_complex(complex_: WeightedComplex) -> WeightedComplex:
    """Complex on the same vertices whose facets are the minimal vertex covers.

    Branch and bound: pick an uncovered facet, branch on its vertices, then
    antichain-filter the collected hitting sets.
    """
    if not complex_.has_canonical_weights:
        raise InvalidComplex("cover complex requires canonical weights")
    if not complex_.facets:
        raise InvalidComplex("cover complex of an empty facet family")
    found: list[frozenset[int]] = []

    def branch(chosen: frozenset[int], uncovered: list[frozenset[int]]) -> None:
        if any(r <= chosen for r in found):
            return
        if not uncovered:
            found.append(chosen)
            return
        f = uncovered[0]
        for v in sorted(f):
            branch(
                chosen | {v},
                [g for g in uncovered if v not in g],
            )

    branch(frozenset(), list(complex_.facets))
    minimal = [
        c for c in set(found)
        if not any(other < c for other in found)
    ]
    return WeightedComplex.validate(complex_.n, minimal)


def squarefree_symbolic_power(ideal: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-th symbolic power of a squarefree ideal via its minimal primes."""
    if k < 1:
        raise ValueError(f"symbolic power order must be >= 1, got {k}")
    if not ideal.is_squarefree:
        raise NonSquarefreeIdeal(
            "symbolic power via minimal primes requires a squarefree ideal"
        )
    if ideal.is_zero or ideal.is_unit:
        return ideal
    dual = cover_complex(facet_complex(ideal))
    return cover_ideal(dual, scale=k)


def skeleton(n: int, j: int) -> WeightedComplex:
    """The j-skeleton of the full simplex: all (j+1)-subsets of the vertices."""
    if not 0 <= j <= n - 2:
        raise ValueError(f"need 0 <= j <= n-2, got n={n}, j={j}")
    return WeightedComplex.validate(n, combinations(range(n), j + 1))


def skeleton_generators(n: int, j: int) -> tuple[CoverPoint, ...]:
    """Closed-form algebra generators for skeleton(n, j).

    For each degree q in 1..j+1, every squarefree vector supported on
    n-j+q-1 vertices, sorted the same way the cone engine sorts output.
    """
    if not 0 <= j <= n - 2:
        raise ValueError(f"need 0 <= j <= n-2, got n={n}, j={j}")
    out = []
    for q in range(1, j + 2):
        size = n - j + q - 1
        for verts in combinations(range(n), size):
            v = [0] * n
            for i in verts:
                v[i] = 1
            out.append(CoverPoint(tuple(v), q))
    out.sort(key=lambda p: (p.k, p.a))
    return tuple(out)


def strip_zero_dim_facets(
    complex_: WeightedComplex,
) -> tuple[WeightedComplex, tuple[tuple[int, int], ...]]:
    """Split off singleton facets.

    Returns the complex of facets with >= 2 vertices (possibly with no
    facets at all) and the stripped (vertex, weight) pairs.
    """
    keep_f, keep_w, dropped = [], [], []
    for f, w in zip(complex_.facets, complex_.weights):
        if len(f) >= 2:
            keep_f.append(f)
            keep_w.append(w)
        else:
            (v,) = f
            dropped.append((v, w))
    return (
        WeightedComplex.validate(complex_.n, keep_f, keep_w),
        tuple(dropped),
    )
