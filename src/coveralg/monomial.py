"""Exact monomial ideal arithmetic in n variables.

An ideal is stored as its unique minimal generating set: an antichain of
exponent vectors under componentwise <=, sorted by (total degree, lex) so
that equal ideals compare equal and output is reproducible bit for bit.
The zero ideal has no generators; the unit ideal is generated by the zero
vector. Values are immutable and every operation returns a new ideal.

Inside an operation each vector is one int (`Packing`): the total degree
on top, then x1 down to xn in fields with a guard bit on top, so int
order is (degree, lex) order, a product is one addition, and g divides v
exactly when ((v | H) - g) & H == H for the guard bits H. The field
width is fixed up front from the largest value the operation can make,
max(f) + max(g) for a product and k * max for a k-th power, so nothing
widens or starts over; a sum that sets a guard bit is a bug and raises
`InternalError`. The degree, the top field, needs no bound.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import le, lshift
from typing import Callable, Iterable, NamedTuple

from .errors import DimensionMismatch, InternalError, ZeroIdealColon

ExpVec = tuple[int, ...]


def divides(f: ExpVec, m: ExpVec) -> bool:
    """True iff x^f divides x^m, i.e. f <= m componentwise."""
    return all(map(le, f, m))


def guard_bits(fields: int, width: int) -> int:
    """The guard bit, the top bit, of each of the lowest `fields` fields."""
    return sum(1 << (i * width + width - 1) for i in range(fields))


class Packing:
    """Exponent vectors of n variables as ints whose fields hold values <= top."""

    def __init__(self, n: int, top: int):
        width = top.bit_length() + 1  # the values, then the guard bit
        self.shifts = tuple(range((n - 1) * width, -1, -width))  # x1 highest
        self.degree_at = n * width
        self.guards = guard_bits(n, width)
        self.mask = (1 << width) - 1

    def pack(self, v: ExpVec) -> int:
        return sum(map(lshift, v, self.shifts), sum(v) << self.degree_at)

    def unpack(self, x: int) -> ExpVec:
        return tuple(map(self.mask.__and__, map(x.__rshift__, self.shifts)))

    def minimal(self, packed: Iterable[int]) -> list[int]:
        """The distinct packed vectors above no other one, in (degree, lex) order.

        If g <= v componentwise and g != v, then g has the lower total
        degree: a vector can only lie above one of strictly lower degree.
        So one pass in int order tests each vector against the kept
        vectors of lower degree only, never against those of its own
        degree; vectors that all share one degree need no test at all.
        """
        guards, at = self.guards, self.degree_at
        lower: list[int] = []  # kept vectors of lower degree than v
        level: list[int] = []  # kept vectors of v's degree
        degree = -1
        for v in sorted(set(packed)):
            if v & guards:
                raise InternalError(f"a packed sum overflowed its field: {v:#x}")
            if v >> at != degree:
                degree = v >> at
                lower += level
                level = []
            high = v | guards
            for g in lower:
                if (high - g) & guards == guards:
                    break
            else:
                level.append(v)
        return lower + level

    def product(self, left: list[int], right: list[int]) -> list[int]:
        """The minimal elements among the sums of a left and a right vector."""
        return self.minimal(f + g for f in left for g in right)


def _top(vectors: Iterable[ExpVec]) -> int:
    return max(chain.from_iterable(vectors), default=0)


def minimal_elements(vectors: Iterable[ExpVec]) -> tuple[ExpVec, ...]:
    """Distinct vectors that lie above no other one, in (degree, lex) order."""
    vecs = list(vectors)
    packing = Packing(len(vecs[0]) if vecs else 0, _top(vecs))
    return tuple(map(packing.unpack, packing.minimal(map(packing.pack, vecs))))


_SHAPES = ("an integer", "a list of integers", "a list of lists of integers")


def _ints(value: object, depth: int) -> bool:
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_ints(v, depth - 1) for v in value)


def file_field(data: object, key: str, depth: int, error: type, default=...):
    """data[key] of a file's JSON object, checked to be ints nested depth deep.

    Nothing is coerced: a bool, float or string is not an int. A missing
    field without a default, a malformed one, or a top level that is not
    an object raises `error` naming the field. Other keys are ignored.
    """
    if not isinstance(data, dict):
        raise error(f"file must hold a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is ...:
            raise error(f"missing field '{key}'")
        return default
    value = data[key]
    if not _ints(value, depth):
        got = f", got {value!r}" if depth == 0 else ""
        raise error(f"field '{key}' must be {_SHAPES[depth]}{got}")
    return value


def _checked(n: int, vectors: Iterable[Iterable[int]]) -> list[ExpVec]:
    vecs = []
    for raw in vectors:
        v = tuple(int(x) for x in raw)
        if len(v) != n:
            raise DimensionMismatch(
                f"exponent vector {v} has length {len(v)}, expected {n}"
            )
        if any(x < 0 for x in v):
            raise ValueError(f"negative exponent in {v}")
        vecs.append(v)
    return vecs


class MonomialIdeal(NamedTuple):
    n: int
    gens: tuple[ExpVec, ...]

    @classmethod
    def from_gens(cls, n: int, vectors: Iterable[Iterable[int]]) -> MonomialIdeal:
        return cls(n, minimal_elements(_checked(n, vectors)))

    @classmethod
    def zero(cls, n: int) -> MonomialIdeal:
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> MonomialIdeal:
        return cls(n, ((0,) * n,))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def _same_ring(self, other: MonomialIdeal) -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"ideals live in {self.n} and {other.n} variables"
            )

    def contains(self, m: Iterable[int]) -> bool:
        """Membership of the monomial x^m."""
        v = tuple(int(x) for x in m)
        if len(v) != self.n:
            raise DimensionMismatch(
                f"monomial {v} has length {len(v)}, expected {self.n}"
            )
        return any(divides(g, v) for g in self.gens)

    def __contains__(self, m: Iterable[int]) -> bool:
        return self.contains(m)

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        joins = (
            tuple(max(a, b) for a, b in zip(f, g))
            for f in self.gens
            for g in other.gens
        )
        return MonomialIdeal(self.n, minimal_elements(joins))

    __and__ = intersect

    def multiply(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        packing = Packing(self.n, _top(self.gens) + _top(other.gens))
        product = packing.product(
            list(map(packing.pack, self.gens)), list(map(packing.pack, other.gens))
        )
        return MonomialIdeal(self.n, tuple(map(packing.unpack, product)))

    __mul__ = multiply

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        self._same_ring(other)
        return MonomialIdeal(self.n, minimal_elements(self.gens + other.gens))

    __add__ = sum

    def power(self, k: int) -> MonomialIdeal:
        """k-th ordinary power by square-and-multiply, k=0 gives the unit ideal."""
        if k < 0:
            raise ValueError(f"power exponent must be >= 0, got {k}")
        packing = Packing(self.n, k * _top(self.gens))  # one packing for I^j, j <= k
        result = [0]  # the unit ideal
        base = list(map(packing.pack, self.gens))
        e = k
        while e:
            if e & 1:
                result = packing.product(result, base)
            e >>= 1
            if e:
                base = packing.product(base, base)
        return MonomialIdeal(self.n, tuple(map(packing.unpack, result)))

    def __pow__(self, k: int) -> MonomialIdeal:
        return self.power(k)

    def _meet(
        self, other: MonomialIdeal, what: str, step: Callable[[ExpVec, ExpVec], ExpVec]
    ) -> MonomialIdeal:
        """Intersect, over other's generators g, the ideals of the step(f, g)."""
        self._same_ring(other)
        if other.is_zero:
            raise ZeroIdealColon(f"{what} by the zero ideal is undefined")
        return reduce(MonomialIdeal.intersect, (
            MonomialIdeal(self.n, minimal_elements(step(f, g) for f in self.gens))
            for g in other.gens
        ))

    def colon(self, other: MonomialIdeal) -> MonomialIdeal:
        """Ideal quotient (self : other), the intersection of the (self : g)."""
        return self._meet(
            other, "colon", lambda f, g: tuple(max(a - b, 0) for a, b in zip(f, g))
        )

    def saturate(self, other: MonomialIdeal) -> MonomialIdeal:
        """(self : other^infinity) in closed form.

        (self : g^infinity) is self with the variables of supp(g) set to 1,
        and the saturation by other is the intersection of these over
        other's generators g.
        """
        return self._meet(
            other, "saturation", lambda f, g: tuple(0 if b else a for a, b in zip(f, g))
        )

    def symbolic_power(self, k: int, wrt: MonomialIdeal) -> MonomialIdeal:
        """k-th power saturated by wrt."""
        if k < 1:
            raise ValueError(f"symbolic power order must be >= 1, got {k}")
        return self.power(k).saturate(wrt)

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_dict(cls, data: dict) -> MonomialIdeal:
        n = file_field(data, "n", 0, ValueError)
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return cls.from_gens(n, file_field(data, "gens", 2, ValueError, []))

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(monomial_str(g) for g in self.gens) + ")"


def monomial_str(v: ExpVec, t_degree: int | None = None) -> str:
    """Render an exponent vector as x1^a1*...*xn^an, optionally with a t^k tail."""
    parts = []
    for i, e in enumerate(v):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    if t_degree is not None and t_degree > 0:
        parts.append("t" if t_degree == 1 else f"t^{t_degree}")
    return "*".join(parts) if parts else "1"
