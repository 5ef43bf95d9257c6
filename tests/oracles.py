"""Independent oracles used by the test suite.

Everything here recomputes answers from first principles (definitions,
enumeration, exhaustive scans) or by a second algorithm (the primal
Hilbert-basis engine at the end) without calling the code paths under
test, so a test comparing the two sides is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterable, Sequence

from coveralg.cone import ConeSystem
from coveralg.intlinalg import det, dot


def divides(f, m) -> bool:
    return all(a <= b for a, b in zip(f, m))


def member(gens, m) -> bool:
    """Monomial membership straight from the definition."""
    return any(divides(g, m) for g in gens)


def member_intersection(gens_i, gens_j, m) -> bool:
    return member(gens_i, m) and member(gens_j, m)


def member_product(gens_i, gens_j, m) -> bool:
    return any(
        divides(tuple(a + b for a, b in zip(f, g)), m)
        for f in gens_i
        for g in gens_j
    )


def member_colon(gens_i, gens_j, m) -> bool:
    return all(
        member(gens_i, tuple(a + b for a, b in zip(m, g))) for g in gens_j
    )


def box(bounds):
    """All exponent vectors v with 0 <= v[i] <= bounds[i]."""
    return product(*(range(b + 1) for b in bounds))


def coordinate_max(*gen_lists):
    n = len(gen_lists[0][0])
    out = [0] * n
    for gens in gen_lists:
        for g in gens:
            for i, e in enumerate(g):
                out[i] = max(out[i], e)
    return tuple(out)


def minimal_hitting_sets(n, facets):
    """All inclusion-minimal vertex sets meeting every facet, by full scan."""
    facs = [frozenset(f) for f in facets]
    hitting = [
        frozenset(s)
        for r in range(n + 1)
        for s in combinations(range(n), r)
        if all(f & frozenset(s) for f in facs)
    ]
    return {
        h for h in hitting if not any(other < h for other in hitting)
    }


def extreme_rays_bruteforce(rows, dim):
    """Extreme rays of {p : rows @ p >= 0} by tight-subset enumeration.

    A nonzero cone direction is extreme iff its tight rows have rank
    dim - 1, so scanning every (dim-1)-subset of rows with an exactly
    one-dimensional nullspace finds each extreme ray (possibly many
    times). Small systems only.
    """
    rays = set()
    for subset in combinations(range(len(rows)), dim - 1):
        basis = _nullspace([rows[i] for i in subset], dim)
        if len(basis) != 1:
            continue
        v = basis[0]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        ints = tuple(x // g for x in ints)
        for cand in (ints, tuple(-x for x in ints)):
            if all(sum(r * c for r, c in zip(row, cand)) >= 0 for row in rows):
                rays.add(cand)
    return rays


def _nullspace(rows, dim):
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    pivots = []
    r = 0
    for c in range(dim):
        piv = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * dim
        v[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def parallelepiped_boxscan(rays):
    """Half-open parallelepiped lattice points by bounding-box scan.

    Scans integer points p with 0 <= p_i <= sum_j max(q_j__i, 0) and keeps
    those whose exact rational coordinates in the ray basis lie in [0, 1).
    """
    d = len(rays)
    bounds = [sum(max(q[i], 0) for q in rays) for i in range(d)]
    points = set()
    for p in product(*(range(b + 1) for b in bounds)):
        coeffs = _solve_square([list(col) for col in zip(*rays)], p)
        if coeffs is not None and all(0 <= c < 1 for c in coeffs):
            points.add(p)
    return points


def _solve_square(matrix, rhs):
    d = len(rhs)
    mat = [[Fraction(matrix[i][j]) for j in range(d)] + [Fraction(rhs[i])] for i in range(d)]
    for c in range(d):
        piv = next((i for i in range(c, d) if mat[i][c] != 0), None)
        if piv is None:
            return None
        mat[c], mat[piv] = mat[piv], mat[c]
        inv = mat[c][c]
        mat[c] = [x / inv for x in mat[c]]
        for i in range(d):
            if i != c and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return [mat[i][-1] for i in range(d)]


# --- the primal Hilbert-basis engine ---------------------------------------
#
# The package computes Hilbert bases by dual mode (Pottier's completion).
# This is the independent second algorithm the tests compare it against:
# incremental double description for the extreme rays, a placing
# triangulation, the lattice points of each simplicial piece's half-open
# fundamental parallelepiped (Hermite form plus adjugate), and an all-pairs
# reduction of the candidates. It shares only `dot` and `det` with the
# package; test_intlinalg checks `det` against cofactor expansion.

Ray = tuple[int, ...]
LatticePoint = tuple[int, ...]
IntVec = tuple[int, ...]


class DegenerateCone(ValueError):
    """Inequality system does not cut out a full-dimensional cone."""


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rank(mat: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (fraction-free row reduction)."""
    a = [list(row) for row in mat]
    m = len(a)
    if m == 0:
        return 0
    ncols = len(a[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            if f:
                a[i] = primitive([p * x - f * y for x, y in zip(a[i], a[r])])
        r += 1
        if r == m:
            break
    return r


def cross_normal(rows: Sequence[Sequence[int]]) -> IntVec:
    """Integer normal to the span of d-1 vectors in dimension d.

    Components are the signed maximal minors (generalized cross product),
    reduced to a primitive vector; all-zero output means the input rows
    are linearly dependent.
    """
    d = len(rows) + 1
    h = []
    for i in range(d):
        minor = [[row[j] for j in range(d) if j != i] for row in rows]
        h.append((-1) ** i * det(minor))
    return primitive(h)


def adjugate(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Adjugate matrix: adjugate(A) @ A == det(A) * I."""
    n = len(mat)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [mat[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def hnf_columns(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite form of a nonsingular integer matrix.

    Returns a lower-triangular H with positive diagonal obtained from the
    input by unimodular column operations, so both matrices generate the
    same lattice of integer column combinations.
    """
    a = [list(row) for row in mat]
    d = len(a)

    def colswap(p: int, q: int) -> None:
        for r in range(d):
            a[r][p], a[r][q] = a[r][q], a[r][p]

    def coladd(dst: int, src: int, f: int) -> None:
        for r in range(d):
            a[r][dst] += f * a[r][src]

    for i in range(d):
        while True:
            if a[i][i] < 0:
                for r in range(d):
                    a[r][i] = -a[r][i]
            if a[i][i] == 0:
                j = next((j for j in range(i + 1, d) if a[i][j] != 0), None)
                if j is None:
                    raise ValueError("matrix is singular")
                colswap(i, j)
                continue
            rest = [j for j in range(i + 1, d) if a[i][j] != 0]
            if not rest:
                break
            jmin = min(
                (j for j in range(i, d) if a[i][j] != 0),
                key=lambda j: abs(a[i][j]),
            )
            if jmin != i:
                colswap(i, jmin)
                continue
            for j in rest:
                coladd(j, i, -(a[i][j] // a[i][i]))
            # remainders now lie in [0, pivot); the swap above keeps Euclid going
    return a


@dataclass(frozen=True)
class SimplicialSubcone:
    rays: tuple[Ray, ...]
    index: int


def _point_key(p: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    return (p[-1], tuple(p[:-1]))


def extreme_rays(system: ConeSystem) -> tuple[Ray, ...]:
    """Primitive extreme rays by incremental double description.

    The cone is a subset of the nonnegative orthant (its invariant), so we
    start from the orthant's unit rays and cut with each row in turn. Ray
    adjacency uses the standard combinatorial test on tight-row sets,
    which is valid because every intermediate cone here is pointed.
    """
    d = system.dim
    rays: list[Ray] = []
    masks: list[int] = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        rays.append(tuple(e))
        masks.append(sum(1 << j for j in range(d) if j != i))
    nbase = d  # bits 0..d-1 are orthant coordinates, then one bit per row

    for t, row in enumerate(system.rows):
        bit = 1 << (nbase + t)
        dots = [dot(row, r) for r in rays]
        if all(v >= 0 for v in dots):
            for i, v in enumerate(dots):
                if v == 0:
                    masks[i] |= bit
            continue
        plus = [i for i, v in enumerate(dots) if v > 0]
        zero = [i for i, v in enumerate(dots) if v == 0]
        minus = [i for i, v in enumerate(dots) if v < 0]
        new_rays: list[Ray] = []
        for i in plus:
            for j in minus:
                meet = masks[i] & masks[j]
                if any(
                    k != i and k != j and meet & masks[k] == meet
                    for k in range(len(rays))
                ):
                    continue
                combo = tuple(
                    dots[i] * rays[j][c] - dots[j] * rays[i][c]
                    for c in range(d)
                )
                new_rays.append(primitive(combo))
        kept_rays = [rays[i] for i in plus + zero]
        kept_masks = [
            masks[i] | (bit if i in zero else 0) for i in plus + zero
        ]
        prior_rows = system.rows[: t + 1]
        for r in new_rays:
            m = sum(1 << c for c in range(d) if r[c] == 0)
            for s, prow in enumerate(prior_rows):
                if dot(prow, r) == 0:
                    m |= 1 << (nbase + s)
            kept_rays.append(r)
            kept_masks.append(m)
        rays, masks = kept_rays, kept_masks

    if rank(rays) < d:
        raise DegenerateCone(
            f"system cuts out a cone of rank {rank(rays)} < {d}"
        )
    return tuple(sorted(rays, key=_point_key))


def triangulate(rays: Sequence[Ray]) -> tuple[SimplicialSubcone, ...]:
    """Placing triangulation of the cone spanned by the given rays.

    Rays are placed in the given order (after a greedy independent prefix
    seeds the first simplex); each new ray is coned over the boundary
    walls it sees. Output is deterministic for a fixed input order.
    """
    rays = [tuple(r) for r in rays]
    d = len(rays[0])
    base: list[int] = []
    rest: list[int] = []
    for idx in range(len(rays)):
        if len(base) < d and rank([rays[i] for i in base] + [rays[idx]]) > len(base):
            base.append(idx)
        else:
            rest.append(idx)
    if len(base) < d:
        raise DegenerateCone(
            f"rays span rank {len(base)} < {d}; cannot triangulate"
        )

    simplices: list[tuple[int, ...]] = [tuple(sorted(base))]
    unsigned_normals: dict[tuple[int, ...], Ray] = {}

    def outward_normal(wall: tuple[int, ...], opposite: int) -> Ray:
        h = unsigned_normals.get(wall)
        if h is None:
            h = cross_normal([rays[i] for i in wall])
            unsigned_normals[wall] = h
        s = dot(h, rays[opposite])
        assert s != 0, "wall normal orthogonal to its own simplex"
        return h if s < 0 else tuple(-x for x in h)

    def boundary_walls() -> list[tuple[tuple[int, ...], int]]:
        seen: dict[tuple[int, ...], list[int]] = {}
        for s in simplices:
            for wall in combinations(s, d - 1):
                opp = next(i for i in s if i not in wall)
                seen.setdefault(wall, []).append(opp)
        return [(w, opps[0]) for w, opps in seen.items() if len(opps) == 1]

    for idx in rest:
        r = rays[idx]
        created = []
        for wall, opp in boundary_walls():
            if dot(outward_normal(wall, opp), r) > 0:
                created.append(tuple(sorted(wall + (idx,))))
        simplices.extend(created)

    out = []
    for s in simplices:
        svecs = tuple(sorted((rays[i] for i in s), key=_point_key))
        out.append(SimplicialSubcone(svecs, abs(det(svecs))))
    out.sort(key=lambda sc: sc.rays)
    return tuple(out)


def parallelepiped_points(subcone: SimplicialSubcone) -> tuple[LatticePoint, ...]:
    """Lattice points of the half-open box {sum a_j q_j : 0 <= a_j < 1}.

    Enumerated through the quotient Z^d / Q Z^d: the column Hermite form
    of the ray matrix gives one residue representative per diagonal box
    cell, and each representative is folded into the parallelepiped by
    reducing its ray coordinates mod 1. Exactly `index` points, 0 included.
    """
    q = subcone.rays
    d = len(q)
    if subcone.index == 1:
        return ((0,) * d,)
    qmat = [[q[j][r] for j in range(d)] for r in range(d)]  # rays as columns
    dval = det(qmat)
    adj = adjugate(qmat)
    if dval < 0:
        dval = -dval
        adj = [[-x for x in row] for row in adj]
    h = hnf_columns(qmat)
    points = set()
    for z in product(*(range(h[i][i]) for i in range(d))):
        t = [sum(adj[j][r] * z[r] for r in range(d)) % dval for j in range(d)]
        p = tuple(
            sum(qmat[r][j] * t[j] for j in range(d)) // dval for r in range(d)
        )
        points.add(p)
    assert len(points) == subcone.index
    return tuple(sorted(points, key=_point_key))


def primal_hilbert_basis(system: ConeSystem) -> tuple[LatticePoint, ...]:
    """Hilbert basis of a cone system by the primal pipeline, uncapped.

    Candidates are all extreme rays plus all parallelepiped points of a
    placing triangulation; a candidate x is dropped iff some other
    candidate y has x - y in the cone and x != y. Points are sorted by
    degree, then coordinates.
    """
    rays = extreme_rays(system)
    subcones = triangulate(rays)

    candidates: set[LatticePoint] = set(rays)
    zero = (0,) * system.dim
    for sc in subcones:
        candidates.update(p for p in parallelepiped_points(sc) if p != zero)

    ordered = sorted(candidates, key=_point_key)
    slacks = [tuple(dot(row, c) for row in system.rows) for c in ordered]

    def irreducible(i: int) -> bool:
        si = slacks[i]
        return not any(
            j != i and all(a <= b for a, b in zip(slacks[j], si))
            for j in range(len(ordered))
        )

    return tuple(c for i, c in enumerate(ordered) if irreducible(i))


def decompose_lattice_point(
    basis_points: Iterable[LatticePoint],
    target: Sequence[int],
) -> dict[LatticePoint, int] | None:
    """Express a lattice point as an N-combination of basis points.

    Bounded depth-first search with memoization; unit vectors in the basis
    absorb whatever remains once the last coordinate reaches zero. Returns
    the multiplicity map, or None when no combination exists.
    """
    target = tuple(int(x) for x in target)
    d = len(target)
    units = {tuple(p) for p in basis_points if p[-1] == 0}
    positive = sorted(
        (tuple(p) for p in basis_points if p[-1] > 0),
        key=_point_key,
        reverse=True,
    )
    dead: set[tuple[LatticePoint, int]] = set()

    def finishable(rem: LatticePoint) -> dict[LatticePoint, int] | None:
        if rem[-1] != 0:
            return None
        out: dict[LatticePoint, int] = {}
        for i, e in enumerate(rem[:-1]):
            if e:
                unit = tuple(1 if j == i else 0 for j in range(d))
                if unit not in units:
                    return None
                out[unit] = e
        return out

    def search(rem: LatticePoint, start: int) -> dict[LatticePoint, int] | None:
        fin = finishable(rem)
        if fin is not None:
            return fin
        if (rem, start) in dead:
            return None
        for idx in range(start, len(positive)):
            g = positive[idx]
            if g[-1] > rem[-1] or any(a > b for a, b in zip(g, rem)):
                continue
            sub = search(tuple(b - a for a, b in zip(g, rem)), idx)
            if sub is not None:
                sub = dict(sub)
                sub[g] = sub.get(g, 0) + 1
                return sub
        dead.add((rem, start))
        return None

    return search(target, 0)
