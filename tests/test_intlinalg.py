from __future__ import annotations

import random
from fractions import Fraction

import pytest

from coveralg.intlinalg import det, dot
from oracles import adjugate, cross_normal, hnf_columns, primitive, rank


def fraction_det(mat):
    """Cofactor-expansion determinant, independent of Bareiss."""
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * fraction_det(minor)
    return total


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((3,)) == (1,)
    assert primitive((0, 5, 0)) == (0, 1, 0)


def test_det_small_cases():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert det(mat) == fraction_det(mat)


def test_rank():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_rank_via_random_products():
    # a product of a n x r and r x m matrix has rank at most r
    rng = random.Random(9)
    for _ in range(30):
        n, r, m = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        prod = [
            [sum(a[i][k] * b[k][j] for k in range(r)) for j in range(m)]
            for i in range(n)
        ]
        assert rank(prod) <= r


def test_cross_normal_is_orthogonal_and_detects_dependence():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(2, 5)
        rows = [
            [rng.randint(-4, 4) for _ in range(d)] for _ in range(d - 1)
        ]
        h = cross_normal(rows)
        if rank(rows) < d - 1:
            assert all(x == 0 for x in h)
        else:
            assert any(h)
            for row in rows:
                assert dot(h, row) == 0


def test_adjugate_identity():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        adj = adjugate(mat)
        d = det(mat)
        for i in range(n):
            for j in range(n):
                entry = sum(adj[i][k] * mat[k][j] for k in range(n))
                assert entry == (d if i == j else 0)


def test_hnf_columns_shape_and_lattice():
    rng = random.Random(21)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        d = det(mat)
        if d == 0:
            continue
        h = hnf_columns(mat)
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i + 1, n):
                assert h[i][j] == 0
        prod_diag = 1
        for i in range(n):
            prod_diag *= h[i][i]
        assert prod_diag == abs(d)
        done += 1


def test_hnf_rejects_singular():
    with pytest.raises(ValueError):
        hnf_columns([[1, 2], [2, 4]])
