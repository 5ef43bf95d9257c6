"""Exact monomial ideal arithmetic in n variables.

An ideal is stored as its unique minimal generating set: an antichain of
exponent vectors under componentwise <=, sorted by (total degree, lex) so
that equal ideals compare equal and output is reproducible bit for bit.
The zero ideal has no generators; the unit ideal is generated by the zero
vector. Values are immutable and every operation returns a new ideal.

Inside an operation each vector is one int (`Packing`): the total degree
on top, then x1 down to xn in fields with a guard bit on top, so int
order is (degree, lex) order, a product is one addition, and g lies below
v exactly when ((v | H) - g) & H == H for the guard bits H. The field
width is fixed up front from the largest value the operation can make,
k * max for a k-th power, so nothing widens or starts over; a sum that
sets a guard bit is a bug and raises `InternalError`. The degree, the
top field, needs no bound. The width, guard bit included, is rounded up
to 1, 2, 4 or 8 whole bytes, so a vector is read with one `to_bytes` and
one `struct` call and written with one `from_bytes` (`field_codec`).
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain
from operator import lshift, or_
from struct import Struct
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn

from .errors import DimensionMismatch, InternalError

ExpVec = tuple[int, ...]


def guard_bits(fields: int, width: int) -> int:
    """The guard bit, the top bit, of each of the lowest `fields` fields.

    (2^(fields*width) - 1) / (2^width - 1) has the bottom bit of each set.
    """
    return ((1 << fields * width) - 1) // ((1 << width) - 1) << (width - 1)


_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}  # struct's codes by field width


@cache
def field_codec(count: int, width: int, order: str) -> tuple[Callable, Callable]:
    """Write and read the lowest `count` fields of `width` bits of an int, the
    first value highest if order is "big": at 8, 16, 32 or 64 bits one `struct`
    call and one `from_bytes` or `to_bytes`, past that a shift per field."""
    if width in _FORMATS:
        size = count * width // 8
        low = (1 << 8 * size) - 1
        fields = Struct(f"{'>' if order == 'big' else '<'}{count}{_FORMATS[width]}")
        return (lambda v: int.from_bytes(fields.pack(*v), order),
                lambda x: fields.unpack((x & low).to_bytes(size, order)))
    shifts = range(0, count * width, width)[:: -1 if order == "big" else 1]
    mask = (1 << width) - 1
    return (lambda v: sum(map(lshift, v, shifts)),
            lambda x: tuple(x >> at & mask for at in shifts))


class Packing:
    """Exponent vectors of n variables as ints whose fields hold values <= top."""

    def __init__(self, n: int, top: int):
        # the values, then the guard bit, in 1, 2, 4, 8, 16, ... whole bytes
        width = 8 << (top.bit_length() // 8).bit_length()
        self.degree_at = n * width
        self.guards = guard_bits(n, width)
        self.write, self.unpack = field_codec(n, width, "big")

    def pack(self, v: ExpVec) -> int:
        return self.write(v) + (sum(v) << self.degree_at)

    def minimal(self, packed: Iterable[int]) -> list[int]:
        """The distinct packed vectors above no other one, in (degree, lex) order.

        If g <= v componentwise and g != v, then g has the lower total
        degree: a vector can only lie above one of strictly lower degree.
        So one pass in int order tests each vector against the kept
        vectors of lower degree only, never against those of its own
        degree, and a set that spans one degree is returned as it is
        sorted. The guard bits are checked once, on the OR of the set.
        """
        guards, at = self.guards, self.degree_at
        vectors = sorted(dict.fromkeys(packed))  # a set's order would slow the sort
        if overflow := reduce(or_, vectors, 0) & guards:
            raise InternalError(f"a packed sum overflowed its field: {overflow:#x}")
        if not vectors or vectors[0] >> at == vectors[-1] >> at:
            return vectors
        lower: list[int] = []  # kept vectors of lower degree than v
        level: list[int] = []  # kept vectors of v's degree
        degree = -1
        for v in vectors:
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


def checked_ints(values: Iterable[object], what: str) -> tuple[int, ...]:
    """values as a tuple; a bool, float or str raises, as in `file_field`."""
    v = tuple(values)
    for x in v:
        if not _ints(x, 0):
            raise ValueError(f"{what} must be an integer, got {x!r}")
    return v


def checked_int(value: object, what: str) -> int:
    """value itself, checked as `checked_ints` checks each of its values."""
    return checked_ints((value,), what)[0]


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


def _checked(n: int, vectors: Iterable[Iterable[int]]) -> Iterator[ExpVec]:
    for raw in vectors:
        v = checked_ints(raw, "exponent")
        if len(v) != n:
            raise DimensionMismatch(
                f"exponent vector {v} has length {len(v)}, expected {n}"
            )
        if any(x < 0 for x in v):
            raise ValueError(f"negative exponent in {v}")
        yield v


class MonomialIdeal(NamedTuple):
    n: int
    gens: tuple[ExpVec, ...]

    @classmethod
    def from_gens(cls, n: int, vectors: Iterable[Iterable[int]]) -> MonomialIdeal:
        if checked_int(n, "variable count") < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        return cls(n, minimal_elements(_checked(n, vectors)))

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

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """The monomials in both ideals, generated by the joins max(f, g).

        A generator f of one ideal that lies in the other is its own join
        with a generator below it, and every other join of f lies above f.
        So f passes into the result as it is, and only the generators that
        lie outside the other ideal are joined.
        """
        self._same_ring(other)
        packing = Packing(self.n, _top(self.gens + other.gens))
        guards = packing.guards
        mine = list(map(packing.pack, self.gens))
        theirs = list(map(packing.pack, other.gens))
        passed: list[int] = []
        outside: list[list[ExpVec]] = []
        for gens, packed, others in (
            (self.gens, mine, theirs),
            (other.gens, theirs, mine),
        ):
            rest = []
            for f, x in zip(gens, packed):
                high = x | guards
                for g in others:
                    if (high - g) & guards == guards:
                        passed.append(x)
                        break
                else:
                    rest.append(f)
            outside.append(rest)
        joins = (tuple(map(max, f, g)) for f in outside[0] for g in outside[1])
        kept = packing.minimal(chain(passed, map(packing.pack, joins)))
        return MonomialIdeal(self.n, tuple(map(packing.unpack, kept)))

    def _refuse(self, other: object) -> NoReturn:
        # an ideal's operations are its methods; without this the tuple
        # would concatenate (+), repeat (*) or search its two fields (in)
        raise TypeError(
            f"unsupported operand type(s): {type(other).__name__!r} "
            f"and {type(self).__name__!r}"
        )

    __add__ = __mul__ = __rmul__ = __contains__ = _refuse

    def power(self, k: int) -> MonomialIdeal:
        """k-th ordinary power, k=0 gives the unit ideal.

        Level j maps each minimal product of j generators to the least
        index of its last factor, factors in generator order, and is filled
        in that order. Generator i is added only to the products of level
        j - 1 whose last factor is at most i, the scan stopping at the first
        one past i, so each multiset of factors is formed once. A minimal
        g_i + s, g_i its last factor, has s minimal (else it lies above some
        g_i + s'), so keeping only minimal products loses none.
        """
        if checked_int(k, "power exponent") < 0:
            raise ValueError(f"power exponent must be >= 0, got {k}")
        packing = Packing(self.n, k * _top(self.gens))  # one packing for I^j, j <= k
        base = list(map(packing.pack, self.gens))
        kept, level = [0], {0: 0}  # the unit ideal
        for _ in range(k):
            products: dict[int, int] = {}
            for i, g in enumerate(base):
                for s, last in level.items():
                    if last > i:
                        break
                    products.setdefault(g + s, i)
            kept = packing.minimal(products)
            if len(kept) < len(products):
                keep = set(kept)
                products = {s: i for s, i in products.items() if s in keep}
            level = products
        return MonomialIdeal(self.n, tuple(map(packing.unpack, kept)))

    def to_dict(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.gens]}

    @classmethod
    def from_dict(cls, data: dict) -> MonomialIdeal:
        n = file_field(data, "n", 0, ValueError)
        if n < 1:
            raise ValueError(f"variable count must be >= 1, got {n}")
        return cls.from_gens(n, file_field(data, "gens", 2, ValueError, []))


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
