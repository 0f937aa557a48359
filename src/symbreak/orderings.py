"""Total orderings on assignments: lex after a bijection of the digits.

An assignment's positions are the positions of its values in their domains.
Each ordering maps the positions bijectively onto digits and compares the
digits lexicographically, so every ordering here is lex after a relabelling
of the assignment space.  `rank` is a bijection onto range(space_size),
`unrank` is its inverse, and `compare` agrees with rank comparison.  Ranks
are 0-indexed.  `key` gives each assignment a stand-in that Python compares
natively in the same order, built without a Python loop over the variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import getitem, sub, xor
from typing import Optional, Sequence

from .literals import _gatherer
from .model import (
    Assignment,
    Domain,
    InputError,
    UnsupportedOrderingError,
)

LT, EQ, GT = -1, 0, 1


class SimpleOrdering:
    """Lex over `digits(positions(a))`; the only statement of rank, unrank and compare.

    `rank` reads the digits as a mixed-radix number over `radices`, digit 0
    most significant; `unrank` decodes one and applies `undigits`, the
    inverse map.  A subclass supplies its digit map, that inverse, and
    `unsupported`, its check of the domains (and matrix shape) it is
    defined on.  The map here is the identity.
    """

    name = "?"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        """Why the ordering is undefined on these domains and shape, or None."""
        return None

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        self.domains = tuple(tuple(d) for d in domains)
        if not self.domains:
            raise InputError("an ordering needs at least one variable")
        self._pos = tuple({v: i for i, v in enumerate(d)} for d in self.domains)
        self.n = len(self.domains)
        if not all(self.domains):
            raise InputError("empty domain")
        reason = self.unsupported(self.domains, shape)
        if reason is not None:
            raise UnsupportedOrderingError(reason)
        self.radices = tuple(map(len, self.domains))
        self.space_size = math.prod(self.radices)
        # over one domain 0..k-1, an assignment is its own position vector
        own = tuple(range(len(self.domains[0])))
        self._own_positions = (frozenset(own).issuperset
                               if all(d == own for d in self.domains) else None)

    def positions(self, a: Sequence[int]) -> tuple[int, ...]:
        if len(a) != self.n:
            raise InputError(f"assignment arity {len(a)} != {self.n}")
        if self._own_positions is not None and self._own_positions(a):
            return tuple(a)
        try:
            return tuple(map(getitem, self._pos, a))
        except KeyError as exc:
            raise InputError(f"value {exc.args[0]} outside its domain") from exc

    @staticmethod
    def digits(p: tuple[int, ...]) -> tuple[int, ...]:
        return p

    undigits = digits

    def key(self, a: Sequence[int]) -> tuple[int, ...]:
        """Natively comparable stand-in: key(a) < key(b) iff a precedes b."""
        return self.digits(self.positions(a))

    def rank(self, a: Sequence[int]) -> int:
        k = 0
        for digit, radix in zip(self.key(a), self.radices):
            k = k * radix + digit
        return k

    def unrank(self, k: int) -> Assignment:
        if not 0 <= k < self.space_size:
            raise InputError(f"rank {k} outside [0, {self.space_size})")
        digits = []
        for radix in reversed(self.radices):
            k, digit = divmod(k, radix)
            digits.append(digit)
        return tuple(map(getitem, self.domains, self.undigits(tuple(reversed(digits)))))

    def compare(self, a: Sequence[int], b: Sequence[int]) -> int:
        ka, kb = self.key(a), self.key(b)
        return LT if ka < kb else GT if ka > kb else EQ

    def minimum(self, assignments) -> Assignment:
        """Smallest of a nonempty collection under this ordering."""
        items = list(assignments)
        if not items:
            raise InputError("minimum of an empty collection")
        return min(items, key=self.key)


class LexOrdering(SimpleOrdering):
    """Big-endian positional order: variable 0 is most significant."""

    name = "lex"
    key = SimpleOrdering.positions  # the digits are the positions: no map call


class RevLexOrdering(SimpleOrdering):
    """Lex with every comparison reversed: each digit p becomes len(d) - 1 - p."""

    name = "revlex"

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        super().__init__(domains, shape)
        self._top = tuple(radix - 1 for radix in self.radices)

    def digits(self, p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(sub, self._top, p))

    undigits = digits


class GrayOrdering(SimpleOrdering):
    """Reflected-binary order: codeword at rank k is k XOR (k >> 1).

    Defined for two-valued domains only; consecutive codewords differ in one
    position and the second half mirrors the first over the leading bit.
    The prefix XOR of a codeword is its rank in binary.
    """

    name = "gray"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        two_valued = all(len(d) == 2 for d in domains)
        return None if two_valued else "gray ordering needs two-valued domains"

    @staticmethod
    def digits(p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(accumulate(p, xor))

    @staticmethod
    def undigits(d: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(xor, d, (0,) + d[:-1]))


def snake_variable_order(shape: tuple[int, int]) -> tuple[int, ...]:
    """Cell indices in serpentine column order: odd columns read bottom-up."""
    r, c = shape
    order = []
    for j in range(c):
        rows = range(r) if j % 2 == 0 else range(r - 1, -1, -1)
        order.extend(i * c + j for i in rows)
    return tuple(order)


def snake_vectorize(values: Sequence[int], shape: Optional[tuple[int, int]]) -> tuple[int, ...]:
    """Serpentine read of a row-major matrix: col 0 top-down, col 1 bottom-up, ..."""
    if shape is None:
        raise InputError("snake vectorization needs a matrix shape")
    r, c = shape
    if r * c != len(values):
        raise InputError(f"shape {shape} does not cover {len(values)} values")
    return tuple(values[v] for v in snake_variable_order(shape))


class SnakeLexOrdering(SimpleOrdering):
    """Lex comparison of the serpentine vectorization of a matrix: the
    digits are the positions gathered in snake order."""

    name = "snakelex"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        if shape is None:
            return "snakelex needs a matrix shape"
        if shape[0] * shape[1] != len(domains):
            return f"shape {shape} does not cover {len(domains)} variables"
        return None

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        super().__init__(domains, shape)
        self.shape = tuple(shape)
        self.order = snake_variable_order(self.shape)
        self.digits = _gatherer(self.order)
        self.undigits = _gatherer(sorted(range(self.n), key=self.order.__getitem__))
        self.radices = self.digits(self.radices)


ORDERINGS = {o.name: o for o in (LexOrdering, RevLexOrdering, GrayOrdering, SnakeLexOrdering)}
ORDERING_NAMES = tuple(ORDERINGS)


def make_ordering(name: str, domains: Sequence[Domain],
                  shape: Optional[tuple[int, int]] = None) -> SimpleOrdering:
    if name not in ORDERINGS:
        raise InputError(f"unknown ordering '{name}' (choose from {', '.join(ORDERING_NAMES)})")
    return ORDERINGS[name](domains, shape)


def applicable_orderings(domains: Sequence[Domain],
                         shape: Optional[tuple[int, int]] = None) -> list[SimpleOrdering]:
    """Every named ordering defined on the domains and shape, in ORDERING_NAMES order."""
    return [make_ordering(name, domains, shape) for name, cls in ORDERINGS.items()
            if cls.unsupported(domains, shape) is None]


@dataclass(frozen=True)
class AssignmentPermutation:
    """Bijection on the assignment space: read a position in `source`, realize
    it in `target` (forward = target.unrank of source.rank)."""

    source: SimpleOrdering
    target: SimpleOrdering

    def __post_init__(self) -> None:
        if self.source.domains != self.target.domains:
            raise InputError("source and target orderings cover different spaces")

    @property
    def domains(self) -> tuple[Domain, ...]:
        return self.source.domains

    def forward(self, a: Sequence[int]) -> Assignment:
        return self.target.unrank(self.source.rank(a))

    def inverse(self, a: Sequence[int]) -> Assignment:
        return self.source.unrank(self.target.rank(a))


def rank_preserving_map(ordering: SimpleOrdering) -> AssignmentPermutation:
    """Permutation sending the assignment at lex position k to the assignment
    at position k of `ordering`, for every k."""
    return AssignmentPermutation(LexOrdering(ordering.domains), ordering)
