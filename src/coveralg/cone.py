"""Hilbert bases of cover cones in Z^(n+1), fully exact, by dual mode.

A cover cone is given by inequality rows: one per facet, then the n+1
nonnegativity rows. Its Hilbert basis is computed by Pottier's completion
("The Euclidean algorithm in dimension n", ISSAC 1996), in the form
Normaliz calls dual mode (Bruns and Ichim, J. Algebra 324 (2010), §4):
start from the unit vectors, which generate the orthant's lattice points,
and cut by one facet row at a time, completing the basis of each cut by
pair sums across the new hyperplane until no new element appears.

All arithmetic is on Python ints; no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isqrt
from operator import add, le
from typing import Sequence

from .complexes import WeightedComplex
from .errors import DimensionMismatch
from .monomial import minimal_elements

LatticePoint = tuple[int, ...]
Slack = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class ConeSystem:
    dim: int
    rows: tuple[tuple[int, ...], ...]

    def contains(self, p: Sequence[int]) -> bool:
        """True iff every inequality row evaluates >= 0 on p."""
        pv = tuple(int(x) for x in p)
        if len(pv) != self.dim:
            raise DimensionMismatch(
                f"point of length {len(pv)} in a dimension-{self.dim} system"
            )
        return all(dot(row, pv) >= 0 for row in self.rows)


@dataclass(frozen=True)
class HilbertBasis:
    dim: int
    points: tuple[LatticePoint, ...]
    truncated: bool


def build_cone(complex_: WeightedComplex) -> ConeSystem:
    """Inequality system whose lattice points are the covers of all orders.

    One row per facet (+1 on the facet's coordinates, -weight on the last)
    followed by n+1 nonnegativity rows.
    """
    n = complex_.n
    rows = []
    for f, w in zip(complex_.facets, complex_.weights):
        row = [1 if i in f else 0 for i in range(n)]
        row.append(-w)
        rows.append(tuple(row))
    for i in range(n + 1):
        row = [0] * (n + 1)
        row[i] = 1
        rows.append(tuple(row))
    return ConeSystem(n + 1, tuple(rows))


def _point_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    return (p[-1], tuple(p[:-1]))


def degree_limit(n: int) -> int:
    """Largest d with d^2 * 4^n < (n+1)^(n+3), the generator degree bound."""
    return isqrt(((n + 1) ** (n + 3) - 1) // 4**n)


def _cut(
    basis: list[Slack], row: Sequence[int], cap: int | None
) -> tuple[list[Slack], bool]:
    """Hilbert basis of C ∩ {row >= 0} from the Hilbert basis of C.

    Each element is a slack vector: the point's coordinates followed by
    its values on the rows cut before, so y - x lies in C exactly when x's
    slack is componentwise below y's. The basis splits by the sign of
    lam = row . x, the two sides sharing lam = 0. Sums p + q with
    lam(p) > 0 > lam(q) are formed from pairs with at least one element
    new since the last round; a sum joins each side its lam allows unless
    an element of that side lies below it in slack and |lam|. The sides
    only grow, and the completion stops when a round adds nothing. The
    basis of the cut is then the minimal part of the lam >= 0 side.
    No sum of t-degree above the cap is formed (the flag returned says if
    one was skipped); t only adds under sums and nothing with a larger t
    reduces an element, so the cut's points up to the cap are exact.
    """
    d = len(row)
    sides: dict[int, list[Slack]] = {1: [], -1: []}  # slack + (|lam|,)
    fresh: dict[int, list[tuple[Slack, int]]] = {1: [], -1: []}  # (slack, lam)
    paired: dict[int, list[tuple[Slack, int]]] = {1: [], -1: []}
    for s in basis:
        lam = dot(row, s[:d])
        for sign in (1, -1):
            if sign * lam >= 0:
                sides[sign].append(s + (sign * lam,))
        if lam:
            fresh[1 if lam > 0 else -1].append((s, lam))

    skipped = False
    while fresh[1] or fresh[-1]:
        sums: dict[Slack, int] = {}
        for plus, minus in (
            (fresh[1], paired[-1] + fresh[-1]),
            (paired[1], fresh[-1]),
        ):
            for s, lam in plus:
                # t-degree left for the summand; inf is only compared
                room = inf if cap is None else cap - s[d - 1]
                for t, mu in minus:
                    if t[d - 1] > room:
                        skipped = True
                    else:
                        sums.setdefault(tuple(map(add, s, t)), lam + mu)
        for sign in (1, -1):
            paired[sign] += fresh[sign]
            fresh[sign] = []
        # smallest first, so that fewer reducible sums join a side
        for s, lam in sorted(sums.items(), key=lambda e: sum(e[0]) + abs(e[1])):
            for sign in (1, -1):
                if sign * lam < 0:
                    continue
                full = s + (sign * lam,)
                if any(all(map(le, t, full)) for t in sides[sign]):
                    continue
                sides[sign].append(full)
                if lam:
                    fresh[sign].append((s, lam))
    return list(minimal_elements(sides[1])), skipped


def hilbert_basis(
    system: ConeSystem,
    degree_cap: int | None = None,
) -> HilbertBasis:
    """Unique minimal generating set of the monoid of lattice points.

    Requires every unit row e_i among the system's rows, so that the cone
    lies in the nonnegative orthant, whose basis the completion starts
    from; `build_cone` always emits them. Every other row is then cut in
    turn (see `_cut`). All basis points are returned, the degree-0 units
    included, sorted by degree then coordinates. A degree cap keeps
    exactly the points up to it and forms no pair sum above it; truncated
    says it dropped a sum or a point, so False proves the basis whole.
    """
    d = system.dim
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    missing = [i for i, e in enumerate(units) if e not in system.rows]
    if missing:
        raise ValueError(
            f"system lacks the nonnegativity rows of coordinates {missing}; "
            "the completion needs a cone inside the orthant"
        )
    if degree_cap is not None and degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    basis: list[Slack] = units
    truncated = False
    for row in system.rows:
        if row not in units:
            basis, skipped = _cut(basis, row, degree_cap)
            truncated |= skipped
    cap = inf if degree_cap is None else degree_cap
    points = sorted((s[:d] for s in basis if s[d - 1] <= cap), key=_point_key)
    return HilbertBasis(d, tuple(points), truncated or len(points) < len(basis))
