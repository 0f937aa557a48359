"""Total orderings on assignments with position (rank) / unrank bijections.

Each ordering is defined over the full assignment space of fixed domains:
`rank` is a bijection onto range(space_size), `unrank` is its inverse, and
`compare` agrees with rank comparison.  Ranks are 0-indexed.  Values compare
by domain position, so non-binary domains order consistently.  `key` gives
each assignment a stand-in that Python compares natively in the same order,
built without a Python loop over the variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import getitem, mul, neg
from typing import Optional, Sequence

from .literals import _gatherer
from .model import (
    Assignment,
    Domain,
    InputError,
    UnsupportedOrderingError,
)

LT, EQ, GT = -1, 0, 1

ORDERING_NAMES = ("lex", "revlex", "gray", "snakelex")


class SimpleOrdering:
    """Base ordering: subclasses implement rank/unrank over `self.domains`."""

    name = "?"

    def __init__(self, domains: Sequence[Domain]):
        self.domains = tuple(tuple(d) for d in domains)
        if not self.domains:
            raise InputError("an ordering needs at least one variable")
        self._pos = tuple({v: i for i, v in enumerate(d)} for d in self.domains)
        self.n = len(self.domains)
        if not all(self.domains):
            raise InputError("empty domain")
        self.space_size = math.prod(map(len, self.domains))
        # place value of each position in lex rank: variable 0 most significant
        self._place = tuple(math.prod(map(len, self.domains[i + 1:])) for i in range(self.n))
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

    def _check_rank(self, k: int) -> None:
        if not 0 <= k < self.space_size:
            raise InputError(f"rank {k} outside [0, {self.space_size})")

    def rank(self, a: Sequence[int]) -> int:
        raise NotImplementedError

    def unrank(self, k: int) -> Assignment:
        raise NotImplementedError

    def key(self, a: Sequence[int]):
        """Natively comparable stand-in: key(a) < key(b) iff a precedes b."""
        return self.rank(a)

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

    def rank(self, a: Sequence[int]) -> int:
        return sum(map(mul, self.positions(a), self._place))

    def unrank(self, k: int) -> Assignment:
        self._check_rank(k)
        return tuple(d[k // place % len(d)] for d, place in zip(self.domains, self._place))

    key = SimpleOrdering.positions


class RevLexOrdering(LexOrdering):
    """Lex with every comparison reversed; rank k maps to lex rank size-1-k."""

    name = "revlex"

    def rank(self, a: Sequence[int]) -> int:
        return self.space_size - 1 - super().rank(a)

    def unrank(self, k: int) -> Assignment:
        self._check_rank(k)
        return super().unrank(self.space_size - 1 - k)

    def key(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(neg, self.positions(a)))


class GrayOrdering(SimpleOrdering):
    """Reflected-binary order: codeword at rank k is k XOR (k >> 1).

    Defined for two-valued domains only; consecutive codewords differ in one
    position and the second half mirrors the first over the leading bit.
    """

    name = "gray"

    def __init__(self, domains: Sequence[Domain]):
        super().__init__(domains)
        if any(len(d) != 2 for d in self.domains):
            raise UnsupportedOrderingError("gray ordering needs two-valued domains")

    def rank(self, a: Sequence[int]) -> int:
        k = sum(map(mul, self.positions(a), self._place))  # the codeword as a number
        shift = 1
        while shift < self.n:  # prefix-XOR decodes the codeword back to its index
            k ^= k >> shift
            shift <<= 1
        return k

    def unrank(self, k: int) -> Assignment:
        self._check_rank(k)
        g = k ^ (k >> 1)
        return tuple(self.domains[i][(g >> (self.n - 1 - i)) & 1] for i in range(self.n))


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
    """Lex comparison of the serpentine vectorization of a matrix."""

    name = "snakelex"

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]]):
        super().__init__(domains)
        if shape is None:
            raise InputError("snakelex needs a matrix shape")
        r, c = shape
        if r * c != self.n:
            raise InputError(f"shape {shape} does not cover {self.n} variables")
        self.shape = (r, c)
        self.order = snake_variable_order(self.shape)
        self._snake = _gatherer(self.order)
        self._snake_place = tuple(math.prod(len(self.domains[v]) for v in self.order[i + 1:])
                                  for i in range(self.n))

    def rank(self, a: Sequence[int]) -> int:
        return sum(map(mul, self.key(a), self._snake_place))

    def unrank(self, k: int) -> Assignment:
        self._check_rank(k)
        out = [0] * self.n
        for v, place in zip(self.order, self._snake_place):
            out[v] = self.domains[v][k // place % len(self.domains[v])]
        return tuple(out)

    def key(self, a: Sequence[int]) -> tuple[int, ...]:
        return self._snake(self.positions(a))


def make_ordering(name: str, domains: Sequence[Domain],
                  shape: Optional[tuple[int, int]] = None) -> SimpleOrdering:
    if name == "lex":
        return LexOrdering(domains)
    if name == "revlex":
        return RevLexOrdering(domains)
    if name == "gray":
        return GrayOrdering(domains)
    if name == "snakelex":
        return SnakeLexOrdering(domains, shape)
    raise InputError(f"unknown ordering '{name}' (choose from {', '.join(ORDERING_NAMES)})")


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
