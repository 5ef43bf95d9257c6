from __future__ import annotations

import random

import pytest

import oracles
from coveralg.errors import DimensionMismatch, ZeroIdealColon
from coveralg.monomial import MonomialIdeal, minimal_elements, monomial_str


def ideal(n, *gens):
    return MonomialIdeal.from_gens(n, gens)


def random_ideal(rng, n, max_gens=4, max_total_degree=6):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        total = rng.randint(0, max_total_degree)
        v = [0] * n
        for _ in range(total):
            v[rng.randrange(n)] += 1
        gens.append(tuple(v))
    return MonomialIdeal.from_gens(n, gens)


class TestMinimalize:
    def test_drops_divisible_generator(self):
        result = MonomialIdeal.from_gens(2, [(2, 0), (1, 1), (2, 1)])
        assert result.gens == ((1, 1), (2, 0))

    def test_empty_input_is_zero_ideal(self):
        assert MonomialIdeal.from_gens(3, []) == MonomialIdeal.zero(3)

    def test_unit_swallows_everything(self):
        assert MonomialIdeal.from_gens(2, [(0, 0), (1, 0)]) == MonomialIdeal.unit(2)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal.from_gens(2, [(1, 0), (1, 0, 0)])

    def test_generated_ideal_unchanged(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 4)
            raw = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(1, 6))
            ]
            reduced = MonomialIdeal.from_gens(n, raw)
            for m in oracles.box((4,) * n):
                assert reduced.contains(m) == oracles.member(raw, m)


class TestMinimalElements:
    def test_matches_all_pairs_oracle(self):
        # mixed degrees, repeated vectors, the zero vector, empty input
        rng = random.Random(17)
        assert minimal_elements([]) == oracles.minimal_elements([]) == ()
        for _ in range(400):
            n = rng.randint(1, 5)
            vectors = [
                tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 25))
            ]
            vectors += rng.choices(vectors, k=min(3, len(vectors)))
            if rng.random() < 0.1:
                vectors.append((0,) * n)
            rng.shuffle(vectors)
            assert minimal_elements(vectors) == oracles.minimal_elements(vectors)


class TestContains:
    def test_examples(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1))
        assert edges.contains((1, 1, 1))
        assert not edges.contains((1, 0, 1))
        assert not MonomialIdeal.zero(3).contains((1, 0, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ideal(2, (1, 0)).contains((1, 0, 0))

    def test_dunder(self):
        assert (1, 1) in ideal(2, (1, 0))


class TestIntersect:
    def test_two_planes(self):
        # (x,y) & (y,z) = (y, xz), verified below against the brute oracle
        left = ideal(3, (1, 0, 0), (0, 1, 0))
        right = ideal(3, (0, 1, 0), (0, 0, 1))
        got = left & right
        assert got == ideal(3, (0, 1, 0), (1, 0, 1))

    def test_unit_is_identity(self):
        i = ideal(3, (2, 1, 0), (0, 0, 3))
        assert (i & MonomialIdeal.unit(3)) == i

    def test_idempotent(self):
        i = ideal(2, (1, 0), (0, 2))
        assert (i & i) == i

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ideal(2, (1, 0)) & ideal(3, (1, 0, 0))


class TestMultiplyPowerSum:
    def test_square_of_maximal_ideal(self):
        m = ideal(2, (1, 0), (0, 1))
        assert (m * m).gens == ((0, 2), (1, 1), (2, 0))

    def test_power_one_is_identity(self):
        i = ideal(3, (1, 1, 0), (0, 0, 2))
        assert i**1 == i

    def test_power_zero_is_unit(self):
        assert ideal(2, (1, 1)) ** 0 == MonomialIdeal.unit(2)

    def test_power_two_matches_pairwise_products(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        brute = MonomialIdeal.from_gens(
            3,
            [
                tuple(a + b for a, b in zip(f, g))
                for f in i.gens
                for g in i.gens
            ],
        )
        assert i**2 == brute

    def test_binary_exponentiation_matches_repeated_multiply(self):
        rng = random.Random(11)
        for _ in range(20):
            i = random_ideal(rng, rng.randint(2, 3))
            k = rng.randint(1, 4)
            naive = MonomialIdeal.unit(i.n)
            for _ in range(k):
                naive = naive * i
            assert i**k == naive

    def test_sum_is_union(self):
        a = ideal(2, (2, 0))
        b = ideal(2, (0, 2))
        assert (a + b).gens == ((0, 2), (2, 0))

    def test_operators_are_ideal_operations(self):
        # an ideal is a tuple (n, gens); no operator may concatenate or
        # repeat that tuple, or look for m among its two fields
        i, j = ideal(2, (1, 0)), ideal(2, (0, 1))
        results = {
            "+": (i + j, ideal(2, (1, 0), (0, 1))),
            "*": (i * j, ideal(2, (1, 1))),
            "&": (i & j, ideal(2, (1, 1))),
            "**": (i**3, ideal(2, (3, 0))),
        }
        for op, (got, want) in results.items():
            assert type(got) is MonomialIdeal and got == want, op
        assert (2, 0) in i and (0, 2) not in i
        assert (0, 1) in j and (1, 0) not in j


class TestColon:
    def test_examples(self):
        assert ideal(2, (2, 0), (1, 1)).colon(ideal(2, (1, 0))) == ideal(
            2, (1, 0), (0, 1)
        )
        i = ideal(3, (1, 1, 0), (0, 1, 1))
        assert i.colon(MonomialIdeal.unit(3)) == i
        edges = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert edges.colon(ideal(3, (1, 1, 1))) == MonomialIdeal.unit(3)

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ZeroIdealColon):
            ideal(2, (1, 0)).colon(MonomialIdeal.zero(2))

    def test_colon_of_product_contains_factor(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 3)
            i = random_ideal(rng, n)
            j = random_ideal(rng, n)
            if j.is_zero:
                continue
            back = (i * j).colon(j)
            assert all(back.contains(g) for g in i.gens)


class TestSaturate:
    def test_principal_saturation_blows_up_to_unit(self):
        i = ideal(2, (2, 1), (3, 0))  # x^2 y, x^3
        assert i.saturate(ideal(2, (1, 0))) == MonomialIdeal.unit(2)

    def test_saturate_by_unit_is_identity(self):
        i = ideal(3, (1, 1, 0), (0, 0, 2))
        assert i.saturate(MonomialIdeal.unit(3)) == i

    def test_already_saturated_ideal(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        maxl = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert edges.saturate(maxl) == edges
        # oracle: one further colon step leaves the antichain unchanged
        assert edges.colon(maxl) == edges

    def test_matches_iterated_colon(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(2, 3)
            i = random_ideal(rng, n)
            j = random_ideal(rng, n)
            if j.is_zero:
                continue
            chain = i
            for _ in range(5):
                chain = chain.colon(j)
            assert chain.colon(j) == chain, "oracle chain did not stabilize"
            assert i.saturate(j) == chain

    def test_closed_form_makes_no_colon_call(self, monkeypatch):
        n = 6
        c6 = ideal(n, *(
            tuple(int(v in (e, (e + 1) % n)) for v in range(n)) for e in range(n)
        ))
        square = c6**2
        maxl = ideal(n, *(tuple(int(v == i) for v in range(n)) for i in range(n)))
        wrts = [ideal(n, (1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)), maxl]
        chains = []
        for j in wrts:
            chain, nxt = None, square
            while nxt != chain:
                chain, nxt = nxt, nxt.colon(j)
            chains.append(chain)

        def no_colon(self, other):
            raise AssertionError("saturate called colon")

        monkeypatch.setattr(MonomialIdeal, "colon", no_colon)
        for j, chain in zip(wrts, chains):
            assert square.saturate(j) == chain

    def test_idempotent(self):
        i = ideal(2, (2, 1), (0, 3))
        j = ideal(2, (1, 1))
        once = i.saturate(j)
        assert once.saturate(j) == once


class TestSymbolicPower:
    def test_triangle_square_contains_xyz(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        maxl = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        sym2 = edges.symbolic_power(2, maxl)
        assert sym2.contains((1, 1, 1))
        assert not (edges**2).contains((1, 1, 1))

    def test_coprime_saturation_is_identity(self):
        assert ideal(2, (1, 0)).symbolic_power(1, ideal(2, (0, 1))) == ideal(
            2, (1, 0)
        )

    def test_matches_intersection_of_plane_powers(self):
        # the three coordinate planes through the triangle's minimal primes
        planes = [
            ideal(3, (1, 0, 0), (0, 1, 0)),
            ideal(3, (0, 1, 0), (0, 0, 1)),
            ideal(3, (1, 0, 0), (0, 0, 1)),
        ]
        edges = planes[0] & planes[1] & planes[2]
        maxl = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        expected = planes[0] ** 2 & planes[1] ** 2 & planes[2] ** 2
        assert edges.symbolic_power(2, maxl) == expected


class TestEquality:
    def test_order_of_generators_is_irrelevant(self):
        assert ideal(2, (1, 0), (0, 1)) == ideal(2, (0, 1), (1, 0))

    def test_square_differs_from_symbolic_square(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        maxl = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert edges**2 != edges.symbolic_power(2, maxl)

    def test_zero_equals_zero(self):
        assert MonomialIdeal.zero(4) == MonomialIdeal.zero(4)

    def test_repr(self):
        assert repr(ideal(2, (1, 0))) == "MonomialIdeal(n=2, gens=((1, 0),))"
        assert repr(MonomialIdeal.zero(3)) == "MonomialIdeal(n=3, gens=())"

    def test_equal_ideals_hash_equal(self):
        a, b = ideal(2, (1, 0), (0, 1)), ideal(2, (0, 1), (1, 0), (1, 1))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ideal(2, (1, 0))}) == 2

    def test_fields_cannot_be_assigned(self):
        i = ideal(2, (1, 0))
        for field, value in (("n", 3), ("gens", ())):
            with pytest.raises(AttributeError):
                setattr(i, field, value)
        assert i == ideal(2, (1, 0))


class TestBruteForceMembershipOracle:
    """Operations agree with definition-level membership over a finite box."""

    def test_small_random_suite(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 4)
            i = random_ideal(rng, n)
            j = random_ideal(rng, n)
            self._check_pair(i, j)

    def _check_pair(self, i, j):
        bounds_ij = oracles.coordinate_max(i.gens or [(0,) * i.n], j.gens or [(0,) * j.n])
        inter = i & j
        for m in oracles.box(bounds_ij):
            assert inter.contains(m) == oracles.member_intersection(
                i.gens, j.gens, m
            )
        prod_bounds = tuple(2 * b for b in bounds_ij)
        prod = i * j
        for m in oracles.box(prod_bounds):
            assert prod.contains(m) == oracles.member_product(i.gens, j.gens, m)
        if not j.is_zero:
            col = i.colon(j)
            for m in oracles.box(bounds_ij):
                assert col.contains(m) == oracles.member_colon(i.gens, j.gens, m)


class TestAlgebraicLaws:
    def test_intersect_laws(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 3)
            a = random_ideal(rng, n)
            b = random_ideal(rng, n)
            c = random_ideal(rng, n)
            assert (a & b) == (b & a)
            assert ((a & b) & c) == (a & (b & c))
            assert (a & a) == a

    def test_multiply_distributes_over_sum(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 3)
            a = random_ideal(rng, n)
            b = random_ideal(rng, n)
            c = random_ideal(rng, n)
            assert a * (b + c) == (a * b) + (a * c)


class TestGrading:
    def test_products_of_powers_land_in_power_sums(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 3)
            i = random_ideal(rng, n)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            big = i ** (a + b)
            small = (i**a) * (i**b)
            assert all(big.contains(g) for g in small.gens)

    def test_symbolic_grading(self):
        planes = [
            ideal(3, (1, 0, 0), (0, 1, 0)),
            ideal(3, (0, 1, 0), (0, 0, 1)),
            ideal(3, (1, 0, 0), (0, 0, 1)),
        ]
        edges = planes[0] & planes[1] & planes[2]
        maxl = ideal(3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        for a in (1, 2):
            for b in (1, 2):
                product = edges.symbolic_power(a, maxl) * edges.symbolic_power(
                    b, maxl
                )
                target = edges.symbolic_power(a + b, maxl)
                assert all(target.contains(g) for g in product.gens)


class TestSerialization:
    def test_round_trip(self):
        i = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert MonomialIdeal.from_dict(i.to_dict()) == i

    def test_dict_shape(self):
        i = ideal(3, (1, 1, 0))
        assert i.to_dict() == {"n": 3, "gens": [[1, 1, 0]]}


def test_monomial_rendering():
    assert monomial_str((1, 1, 0)) == "x1*x2"
    assert monomial_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_str((0, 0, 0)) == "1"
    assert monomial_str((1, 1, 1), 2) == "x1*x2*x3*t^2"
    assert monomial_str((1, 1, 0), 1) == "x1*x2*t"
    assert monomial_str((0, 0), 3) == "t^3"
