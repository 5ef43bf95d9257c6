"""Weighted simplicial complexes, vertex covers of order k, and minimal primes.

Vertices are 0-indexed internally; the JSON file format and everything the
CLI prints are 1-indexed. A complex is a facet antichain with one positive
integer weight per facet; a vector a in N^n is a cover of order k when
every facet F satisfies sum(a[i] for i in F) >= k * weight(F).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import DimensionMismatch, InvalidComplex
from .monomial import (
    ExpVec, MonomialIdeal, Packing, checked_int, checked_ints, file_field,
)


class CoverPoint(NamedTuple):
    a: ExpVec
    k: int


def _facet_key(f: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(f), tuple(sorted(f)))


class WeightedComplex(NamedTuple):
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

        Rejections: bad vertex count, empty facets, out-of-range or repeated
        vertices, comparable facet pairs, nonpositive or miscounted weights.
        Messages name vertices 1-indexed, as the file does. Facets are
        sorted by (size, vertex tuple) with weights carried along.
        """
        if checked_int(n, "vertex count") < 0:
            raise InvalidComplex(f"vertex count must be >= 0, got {n}")
        raw = [checked_ints(f, "vertex") for f in facets]
        fs = [frozenset(f) for f in raw]
        for f, vertices in zip(raw, fs):
            if not f:
                raise InvalidComplex("empty facet")
            bad = [v for v in f if v < 0 or v >= n]
            if bad:
                raise InvalidComplex(
                    f"vertex {bad[0] + 1} out of range for vertex count {n}"
                )
            if len(vertices) != len(f):
                raise InvalidComplex(
                    f"facet {[v + 1 for v in f]} lists a vertex twice"
                )
        ws = [1] * len(fs) if weights is None else checked_ints(weights, "facet weight")
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
                    f"comparable facets {sorted(v + 1 for v in f)} and "
                    f"{sorted(v + 1 for v in g)}"
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

    @property
    def non_edge(self) -> frozenset[int] | None:
        """The first facet without exactly two vertices; None for a graph."""
        return next((f for f in self.facets if len(f) != 2), None)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "facets": [[v + 1 for v in sorted(f)] for f in self.facets],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> WeightedComplex:
        n = file_field(data, "n", 0, InvalidComplex)
        facets = file_field(data, "facets", 2, InvalidComplex, [])
        weights = file_field(data, "weights", 1, InvalidComplex, None)
        return cls.validate(n, [[v - 1 for v in f] for f in facets], weights)


def is_cover(complex_: WeightedComplex, a: Iterable[int], k: int) -> bool:
    """True iff a is a vertex cover of order k: a in N^n meeting every facet.

    A negative coordinate is never a cover; order 0 holds for every a >= 0.
    """
    av = checked_ints(a, "cover coordinate")
    if len(av) != complex_.n:
        raise DimensionMismatch(
            f"vector of length {len(av)} for complex on {complex_.n} vertices"
        )
    if checked_int(k, "cover order") < 0:
        raise ValueError(f"cover order must be >= 0, got {k}")
    return all(x >= 0 for x in av) and all(
        sum(av[i] for i in f) >= k * w
        for f, w in zip(complex_.facets, complex_.weights)
    )


def cover_complex(ideal: MonomialIdeal) -> WeightedComplex:
    """Complex of I's minimal primes: the minimal covers of its generators' supports.

    Only supports are read, so every monomial ideal has one. The zero
    ideal, whose only prime would be an empty facet, raises
    `InvalidComplex`; the unit ideal's empty support gives no facets.

    Berge's transversal step (Hypergraphs, 1989), one support at a time
    from the empty cover, smallest support first, then by vertex tuple
    (9% fewer candidates on the benchmark's ideals than the ideal's own
    order): given the minimal covers T of the supports so far, those of
    one more support F are the minimal sets among the T that meet F and
    the T + v, v in F, for the T that miss F. This is exact, since a
    minimal cover C of the larger family contains a minimal cover T of
    the smaller one, and C is T if T meets F, else T + v for a v of C in F.

    Covers are packed 0/1 vectors (`Packing(n, 1)`): meeting F is one `&`
    with F's field mask, adding a vertex one int addition, and one
    `Packing.minimal` pass per support keeps the antichain.
    """
    supports = {frozenset(i for i, e in enumerate(g) if e) for g in ideal.gens}
    packing = Packing(ideal.n, 1)
    degree_one = 1 << packing.degree_at
    covers = [0]  # the empty cover
    for f in sorted(supports, key=_facet_key):
        bits = [1 << packing.shifts[v] for v in f]
        field = sum(bits)
        covers = packing.minimal(
            [c for c in covers if c & field]
            + [c + b + degree_one for c in covers if not c & field for b in bits]
        )
    primes = [[v for v, x in enumerate(packing.unpack(c)) if x] for c in covers]
    return WeightedComplex.validate(ideal.n, primes)


def skeleton_generators(n: int, j: int) -> tuple[CoverPoint, ...]:
    """Closed-form algebra generators for skeleton(n, j).

    For each degree q in 1..j+1, every squarefree vector supported on
    n-j+q-1 vertices, sorted the same way the cone engine sorts output.
    """
    n, j = checked_ints((n, j), "skeleton parameter")
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
