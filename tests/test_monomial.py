from __future__ import annotations

import operator
import random
import re

import pytest

import oracles
from coveralg import algebra
from coveralg.errors import DimensionMismatch, InternalError
from coveralg.monomial import (
    MonomialIdeal, Packing, guard_bits, minimal_elements, monomial_str,
)


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
        assert MonomialIdeal.from_gens(3, []) == oracles.zero(3)

    def test_unit_swallows_everything(self):
        assert MonomialIdeal.from_gens(2, [(0, 0), (1, 0)]) == oracles.unit(2)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal.from_gens(2, [(1, 0), (1, 0, 0)])

    @pytest.mark.parametrize("bad", [1.7, True, "2"])
    def test_exponents_are_not_coerced(self, bad):
        # int() would read [[1.7, 0], ["2", 1]] as the ideal (x1)
        with pytest.raises(
            ValueError,
            match=f"exponent must be an integer, got {re.escape(repr(bad))}",
        ):
            MonomialIdeal.from_gens(2, [(1, 0), (bad, 1)])

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_variable_count_is_not_coerced(self, bad):
        with pytest.raises(
            ValueError, match=f"variable count must be an integer, got {bad!r}"
        ):
            MonomialIdeal.from_gens(bad, [(1, 0)])

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="variable count must be >= 0, got -1"):
            MonomialIdeal.from_gens(-1, [])
        assert MonomialIdeal.from_gens(0, [()]).is_unit

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
                assert oracles.member(reduced.gens, m) == oracles.member(raw, m)


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


class TestGuardBits:
    def test_closed_form_matches_the_sum_of_field_tops(self):
        for fields in range(33):
            for width in range(1, 20):
                tops = sum(1 << (i * width + width - 1) for i in range(fields))
                assert guard_bits(fields, width) == tops, (fields, width)


class TestPackingWidths:
    # a field, guard bit included, takes 1, 2, 4 or 8 whole bytes, and past
    # 64 bits a shift per field; the least and the largest top of each width
    TOPS = {
        8: (0, 127),
        16: (128, 2**15 - 1),
        32: (2**15, 2**31 - 1),
        64: (2**31, 2**63 - 1),
        128: (2**63, 2**127 - 1),
    }

    @pytest.mark.parametrize("width", TOPS)
    def test_round_trip_and_degree_lex_order(self, width):
        rng = random.Random(width)
        for top in self.TOPS[width]:
            for n in (1, 2, 5):
                packing = Packing(n, top)
                assert packing.guards == guard_bits(n, width)
                values = [0, min(1, top), top // 2, max(top - 1, 0), top]
                vectors = {
                    tuple(rng.choice([*values, rng.randint(0, top)]) for _ in range(n))
                    for _ in range(40)
                }
                packed = {packing.pack(v): v for v in vectors}
                assert all(packing.unpack(x) == v for x, v in packed.items())
                in_int_order = [packed[x] for x in sorted(packed)]
                assert in_int_order == sorted(vectors, key=lambda v: (sum(v), v))

    @pytest.mark.parametrize("width", TOPS)
    def test_a_sum_past_the_field_raises(self, width):
        top = self.TOPS[width][1]  # the field's largest value
        packing = Packing(3, top)
        for v in ((top, 0, 0), (0, top, 1), (1, 0, top)):
            x = packing.pack(v)
            assert packing.minimal([x]) == [x]
            with pytest.raises(InternalError):
                packing.minimal([x + x])

    def test_exponents_past_64_bits(self):
        big = 2**70
        left = ideal(3, (big, 1, 0), (0, big + 1, 2), (big, big, 0), (3, 0, 5))
        right = ideal(3, (1, big, 1), (big + 5, 0, 0), (3, 1, 5))
        assert left.gens == ((3, 0, 5), (big, 1, 0), (0, big + 1, 2))
        for a, b in ((left, right), (right, left)):
            assert a.intersect(b).gens == oracles.intersect_by_joins(a, b)
        square = ((6, 0, 10), (big + 3, 1, 5), (3, big + 1, 7), (2 * big, 2, 0),
                  (big, big + 2, 2), (0, 2 * big + 2, 4))
        assert left.power(2).gens == oracles.minimal_elements(square)


class TestContains:
    # membership is the tests' question, answered by `oracles.member`
    def test_examples(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1))
        assert oracles.member(edges.gens, (1, 1, 1))
        assert not oracles.member(edges.gens, (1, 0, 1))
        assert not oracles.member(oracles.zero(3).gens, (1, 0, 1))

    def test_dunder(self):
        # `in` would otherwise look for the monomial among the tuple's fields
        with pytest.raises(TypeError, match="'tuple' and 'MonomialIdeal'"):
            (1, 1) in ideal(2, (1, 0))


class TestIntersect:
    def test_two_planes(self):
        # (x,y) & (y,z) = (y, xz), verified below against the brute oracle
        left = ideal(3, (1, 0, 0), (0, 1, 0))
        right = ideal(3, (0, 1, 0), (0, 0, 1))
        got = left.intersect(right)
        assert got == ideal(3, (0, 1, 0), (1, 0, 1))

    def test_unit_is_identity(self):
        i = ideal(3, (2, 1, 0), (0, 0, 3))
        assert i.intersect(oracles.unit(3)) == i

    def test_generators_inside_the_other_ideal_pass_through(self):
        # (x^2, xy, y^3) lies in (x, y), so every generator passes unjoined
        i = ideal(2, (2, 0), (1, 1), (0, 3))
        m = ideal(2, (1, 0), (0, 1))
        assert i.intersect(m) == m.intersect(i) == i
        # (x^2, y) and (x, y^2): y^2 and x^2 pass, the join x*y of y and x
        # is the one generator formed
        left, right = ideal(2, (2, 0), (0, 1)), ideal(2, (1, 0), (0, 2))
        assert left.intersect(right) == ideal(2, (2, 0), (1, 1), (0, 2))

    def test_idempotent(self):
        i = ideal(2, (1, 0), (0, 2))
        assert i.intersect(i) == i

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ideal(2, (1, 0)).intersect(ideal(3, (1, 0, 0)))


class TestMultiplyPowerSum:
    def test_square_of_maximal_ideal(self):
        m = ideal(2, (1, 0), (0, 1))
        assert m.power(2).gens == ((0, 2), (1, 1), (2, 0))

    def test_power_one_is_identity(self):
        i = ideal(3, (1, 1, 0), (0, 0, 2))
        assert i.power(1) == i

    def test_power_zero_is_unit(self):
        assert ideal(2, (1, 1)).power(0) == oracles.unit(2)

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
        assert i.power(2) == brute

    def test_power_matches_repeated_products(self):
        rng = random.Random(11)
        for _ in range(20):
            i = random_ideal(rng, rng.randint(2, 3))
            k = rng.randint(1, 4)
            naive = oracles.unit(i.n)
            for _ in range(k):
                naive = oracles.product(naive, i)
            assert i.power(k) == naive

    def test_sum_is_union(self):
        a = ideal(2, (2, 0))
        b = ideal(2, (0, 2))
        assert oracles.ideal_sum(a, b).gens == ((0, 2), (2, 0))

    @pytest.mark.parametrize("op", ["+", "*", "&", "**", "in"])
    @pytest.mark.parametrize("left, right", [
        (left, right)
        for left in ("int", "tuple", "ideal")
        for right in ("int", "tuple", "ideal")
        if "ideal" in (left, right)
    ])
    def test_operators_are_refused(self, op, left, right):
        # an ideal is a tuple (n, gens); no operator may concatenate or
        # repeat that tuple, or look for a monomial among its two fields
        operands = {"int": 2, "tuple": (1, 0), "ideal": ideal(2, (1, 0))}
        a, b = operands[left], operands[right]
        apply = {
            "+": operator.add, "*": operator.mul, "&": operator.and_,
            "**": operator.pow, "in": lambda x, y: x in y,
        }[op]
        if (op, left, right) == ("+", "tuple", "ideal"):
            # tuple.__add__ takes any tuple, so the tuple's own answer stands
            assert apply(a, b) == (1, 0, 2, ((1, 0),))
        elif (op, left, right) == ("in", "ideal", "tuple"):
            assert apply(a, b) is False  # the tuple's membership, not the ideal's
        else:
            with pytest.raises(TypeError):
                apply(a, b)

    @pytest.mark.parametrize("left", [2, True, [1], (1,)], ids=repr)
    def test_left_multiplication_is_refused(self, left):
        # a tuple's repetition would otherwise answer `2 * ideal`
        name = type(left).__name__
        with pytest.raises(TypeError, match=f"'{name}' and 'MonomialIdeal'"):
            left * ideal(2, (1, 0))

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_power_exponent_is_not_coerced(self, bad):
        # True would give I itself, and 2.0 failed deep inside the packing
        with pytest.raises(
            ValueError, match=f"power exponent must be an integer, got {bad!r}"
        ):
            ideal(2, (1, 0), (0, 1)).power(bad)


class TestEquality:
    def test_order_of_generators_is_irrelevant(self):
        assert ideal(2, (1, 0), (0, 1)) == ideal(2, (0, 1), (1, 0))

    def test_square_differs_from_symbolic_square(self):
        edges = ideal(3, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert edges.power(2) != algebra.symbolic_power(edges, 2)

    def test_zero_equals_zero(self):
        assert MonomialIdeal.from_gens(4, []) == oracles.zero(4)

    def test_repr(self):
        assert repr(ideal(2, (1, 0))) == "MonomialIdeal(n=2, gens=((1, 0),))"
        assert repr(ideal(3)) == "MonomialIdeal(n=3, gens=())"

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
        inter = i.intersect(j)
        for m in oracles.box(bounds_ij):
            assert oracles.member(inter.gens, m) == oracles.member_intersection(
                i.gens, j.gens, m
            )
        prod_bounds = tuple(2 * b for b in bounds_ij)
        prod = oracles.product(i, j)
        for m in oracles.box(prod_bounds):
            assert oracles.member(prod.gens, m) == oracles.member_product(
                i.gens, j.gens, m
            )


class TestAlgebraicLaws:
    def test_intersect_laws(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 3)
            a = random_ideal(rng, n)
            b = random_ideal(rng, n)
            c = random_ideal(rng, n)
            assert a.intersect(b) == b.intersect(a)
            assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
            assert a.intersect(a) == a

    def test_multiply_distributes_over_sum(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 3)
            a = random_ideal(rng, n)
            b = random_ideal(rng, n)
            c = random_ideal(rng, n)
            product, ideal_sum = oracles.product, oracles.ideal_sum
            assert product(a, ideal_sum(b, c)) == ideal_sum(product(a, b), product(a, c))


class TestGrading:
    def test_products_of_powers_land_in_power_sums(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 3)
            i = random_ideal(rng, n)
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            big = i.power(a + b)
            small = oracles.product(i.power(a), i.power(b))
            assert all(oracles.member(big.gens, g) for g in small.gens)

    def test_symbolic_grading(self):
        # I^(a) I^(b) lies in I^(a+b), non-squarefree ideals included
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 3)
            i = random_ideal(rng, n)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            product = oracles.product(
                algebra.symbolic_power(i, a), algebra.symbolic_power(i, b)
            )
            target = algebra.symbolic_power(i, a + b)
            assert all(oracles.member(target.gens, g) for g in product.gens)


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
