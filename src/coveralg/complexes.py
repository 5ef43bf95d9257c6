"""Weighted simplicial complexes, vertex covers of order k, and minimal primes.

Vertices are 0-indexed internally; the JSON file format and everything the
CLI prints are 1-indexed. A complex is a facet antichain with one positive
integer weight per facet; a vector a in N^n is a cover of order k when
every facet F satisfies sum(a[i] for i in F) >= k * weight(F).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, InvalidComplex
from .monomial import (
    ExpVec, MonomialIdeal, checked_int, checked_ints, file_field,
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

    Covers are vertex bitmasks. The T that meet F are kept untested: they
    are an antichain, and a T + v below one would put T below another. The
    T + v go in popcount order, as only a smaller set lies below a set, and
    each is kept unless a kept mask m has m & c == m. That antichain is the
    complex, built without the pairwise check of `WeightedComplex.validate`.
    """
    if ideal.is_zero:
        raise InvalidComplex("empty facet")
    supports = {frozenset(i for i, e in enumerate(g) if e) for g in ideal.gens}
    covers = [0]  # the empty cover
    for f in sorted(supports, key=_facet_key):
        fmask = sum(1 << v for v in f)
        kept = [c for c in covers if c & fmask]
        grown = {c | 1 << v for c in covers if not c & fmask for v in f}
        for c in sorted(grown, key=int.bit_count):
            for m in kept:
                if m & c == m:
                    break
            else:
                kept.append(c)
        covers = kept
    primes = sorted(
        (frozenset(v for v in range(ideal.n) if c >> v & 1) for c in covers),
        key=_facet_key,
    )
    return WeightedComplex(ideal.n, tuple(primes), (1,) * len(primes))


def skeleton_shape(complex_: WeightedComplex) -> tuple[tuple[int, ...], int] | None:
    """(V, s) when the facets, with unit weights, are all the s-subsets of
    their union V and 1 <= s < |V|, so that `skeleton_covers` applies.

    `validate` sorts facets by size, so the first and last sizes rule out
    most complexes at once; distinct s-subsets of V are all of them exactly
    when there are comb(|V|, s).
    """
    facets = complex_.facets
    if not facets or len(facets[0]) != len(facets[-1]):
        return None
    s, vertices = len(facets[0]), frozenset().union(*facets)
    if s < len(vertices) and len(facets) == comb(len(vertices), s) \
            and complex_.has_canonical_weights:
        return tuple(sorted(vertices)), s
    return None


def skeleton_covers(
    n: int, vertices: Sequence[int], s: int, cap: int | None = None
) -> tuple[CoverPoint, ...]:
    """The cover algebra's generators up to degree cap, for the complex of
    all s-subsets of the sorted vertices V, 1 <= s < |V|, with unit weights.

    The paper's closed form (Herzog, Hibi and Trung, Adv. Math. 210 (2007)):
    in each degree q = 1..s, the 0/1 vectors that are 1 on V but for s - q
    of its vertices, and 0 off V. The missing vertices in `combinations`
    order give each degree's vectors in increasing order, as the engine's.
    """
    top, base = s if cap is None else min(cap, s), [0] * n
    for v in vertices:
        base[v] = 1
    out = []
    for q in range(1, top + 1):
        for missing in combinations(vertices, s - q):
            a = base.copy()
            for v in missing:
                a[v] = 0
            out.append(CoverPoint(tuple(a), q))
    return tuple(out)


def skeleton_generators(n: int, j: int) -> tuple[CoverPoint, ...]:
    """Closed-form algebra generators of skeleton(n, j), all (j + 1)-subsets
    of the n vertices: `skeleton_covers` with V all of them."""
    n, j = checked_ints((n, j), "skeleton parameter")
    if not 0 <= j <= n - 2:
        raise ValueError(f"need 0 <= j <= n-2, got n={n}, j={j}")
    return skeleton_covers(n, range(n), j + 1)
