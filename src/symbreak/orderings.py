"""Total orderings on assignments: lex after a bijection of the lex codes.

An assignment's lex code is its lex rank, Σ pos·place in mixed radix with
variable 0 most significant, where a position is the value's index in its
domain as listed (`SimpleOrdering.codes`; `decode` inverts it).  Each
ordering is stated once, as a bijection of range(space_size): `ranks` maps
lex codes to the ordering's ranks and `unranks` is its inverse, both on
lists: the identity for lex, space_size - 1 - code for revlex, the prefix
XOR for gray (k XOR (k >> 1) back), and for snakelex a variable
permutation by chunk tables (`SimpleOrdering.digit_sums`).  `rank`,
`unrank` and π between two orderings (`AssignmentPermutation`) are written
once, on top of that pair.  Ranks are 0-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import add, getitem, mul
from typing import Optional, Sequence

from .model import (
    Assignment,
    Domain,
    InputError,
    UnsupportedOrderingError,
    check_domains,
    check_shape,
    check_values,
)

CHUNK_CAP = 1 << 10  # digit combinations in one table of `SimpleOrdering.chunks`


def _places(radices: Sequence[int]) -> list[int]:
    """The mixed-radix place of each digit: digit 0 most significant."""
    return list(accumulate(reversed(radices[1:]), mul, initial=1))[::-1]


class SimpleOrdering:
    """Lex after the bijection `ranks` of the lex codes; the only statement
    of rank and unrank.  A subclass supplies `ranks`, `unranks`
    (both list rules) and `unsupported`, its check of the domains (and
    matrix shape) it is defined on.  Here both rules are the identity: lex.
    """

    name = "?"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        """Why the ordering is undefined on these domains and shape, or None."""
        return None

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        self.domains = tuple(map(tuple, domains))
        self.n = len(self.domains)
        check_domains("an ordering", self.n, self.domains)
        distinct = set(self.domains)  # one position table each
        pos = {d: dict(zip(d, range(len(d)))) for d in distinct}
        self._pos = tuple(map(pos.__getitem__, self.domains))
        reason = self.unsupported(self.domains, shape)
        if reason is not None:
            raise UnsupportedOrderingError(reason)
        self.radices = tuple(map(len, self.domains))
        self.space_size = math.prod(self.radices)
        self.places = _places(self.radices)
        # over one domain 0..k-1, an assignment is its own position vector
        own = tuple(range(len(self.domains[0])))
        self._own_positions = frozenset(own).issuperset if distinct == {own} else None

    @cached_property
    def offsets(self) -> list[int]:
        """Literal (i, v) is offsets[i] + v's position in domain i; the last is their count."""
        return list(accumulate(self.radices, initial=0))

    @cached_property
    def var_of(self) -> list[int]:  # the variable of each literal
        return [i for i, radix in enumerate(self.radices) for _ in range(radix)]

    @cached_property
    def val_of(self) -> list[int]:  # the value of each literal
        return [v for dom in self.domains for v in dom]

    def ranks(self, codes: list[int]) -> list[int]:
        """The rank of each assignment whose lex code is in `codes`."""
        return codes

    def unranks(self, ranks: list[int]) -> list[int]:
        """The lex code of the assignment at each of `ranks`: `ranks` inverted."""
        return ranks

    def rank(self, a: Sequence[int]) -> int:
        return self.ranks(self.codes([a]))[0]

    def unrank(self, k: int) -> Assignment:
        if not 0 <= k < self.space_size:
            raise InputError(f"rank {k} outside [0, {self.space_size})")
        return self.decode(self.unranks([k]))[0]

    def codes(self, assignments: Sequence[Sequence[int]]) -> list[int]:
        """The lex code of each assignment, Σ pos·place, checked in bulk: the
        first assignment of another arity or with a value outside its
        variable's domain is refused by name."""
        places = self.places
        if not {*map(len, assignments)} - {self.n}:
            if self._own_positions is not None and all(map(self._own_positions, assignments)):
                return [sum(map(mul, a, places)) for a in assignments]
            try:
                return [sum(map(mul, map(getitem, self._pos, a), places)) for a in assignments]
            except KeyError:
                pass
        for a in assignments:  # one is refused: name the first
            if len(a) != self.n:
                raise InputError(f"assignment arity {len(a)} != {self.n}")
            check_values(self.domains, enumerate(a))
        raise AssertionError("every assignment passed its check")

    def decode(self, codes: list[int]) -> list[Assignment]:
        """The assignment whose lex code is each of `codes`: `codes` inverted,
        one pass over the codes per variable."""
        return list(zip(*([dom[c // place % radix] for c in codes] for dom, place, radix
                          in zip(self.domains, self.places, self.radices))))

    def digit_sums(self, codes: list[int], deltas: dict[int, list[int]]) -> list[int]:
        """c + Σ_i deltas[i][digit i of c] for each code c, over the variables
        i with deltas: one lookup per chunk of `chunks`."""
        chunks = self.chunks(deltas, min(CHUNK_CAP, len(codes)))
        if not chunks:
            return list(codes)
        if len(chunks) == 1:
            (low, size, table), = chunks
            return [c + table[c // low % size] for c in codes]
        if len(chunks) == 2:
            (low, size, table), (high, hsize, htable) = chunks
            return [c + table[c // low % size] + htable[c // high % hsize] for c in codes]
        sums = list(codes)
        for low, size, table in chunks:
            sums = list(map(add, sums, [table[c // low % size] for c in codes]))
        return sums

    def chunks(self, deltas: dict[int, list[int]], cap: int) -> list[tuple[int, int, list[int]]]:
        """(place, size, table) per chunk: the variables from the first to
        the last with deltas, cut into runs of consecutive variables from the
        least significant up, each of at most `cap` digit combinations (one
        variable at least).  table[s] sums the run's deltas at the digits
        that s, read in mixed radix, gives its variables; the run's digits
        in a code c are c // place % size."""
        chunks = []
        first, i = min(deltas, default=0), max(deltas, default=-1)
        while i >= first:
            place, table = self.places[i], [0]
            while True:
                step = deltas.get(i) or [0] * self.radices[i]
                table = [t + d for d in step for t in table]  # variable i most significant
                i -= 1
                if i < first or len(table) * self.radices[i] > cap:
                    break
            chunks.append((place, len(table), table))
        return chunks


class LexOrdering(SimpleOrdering):
    """Big-endian positional order: variable 0 is most significant, and an
    assignment's rank is its lex code."""

    name = "lex"


class RevLexOrdering(SimpleOrdering):
    """Lex with every comparison reversed: rank space_size - 1 - code."""

    name = "revlex"

    def ranks(self, codes: list[int]) -> list[int]:
        top = self.space_size - 1
        return [top - c for c in codes]

    unranks = ranks


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

    def ranks(self, codes: list[int]) -> list[int]:
        """The prefix XOR of each code's bits, by shift-xor steps 1, 2, 4, …"""
        shift = 1
        while shift < self.n:
            codes = [c ^ (c >> shift) for c in codes]
            shift *= 2
        return codes

    def unranks(self, ranks: list[int]) -> list[int]:
        return [k ^ (k >> 1) for k in ranks]


def snake_variable_order(shape: tuple[int, int]) -> tuple[int, ...]:
    """Cell indices in serpentine column order: odd columns read bottom-up."""
    r, c = shape
    order = []
    for j in range(c):
        rows = range(r) if j % 2 == 0 else range(r - 1, -1, -1)
        order.extend(i * c + j for i in rows)
    return tuple(order)


class SnakeLexOrdering(SimpleOrdering):
    """Lex comparison of the serpentine vectorization of a matrix: its rank
    is the lex code over the domains in snake order, a variable permutation
    of the lex code, moved digit by digit through chunk tables."""

    name = "snakelex"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        if shape is None:
            return "snakelex needs a matrix shape"
        try:
            check_shape(shape, len(domains))
        except InputError as exc:
            return str(exc)
        return None

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        super().__init__(domains, shape)
        self.shape = tuple(shape)
        self.order = snake_variable_order(self.shape)
        self._snake = SimpleOrdering(map(self.domains.__getitem__, self.order))
        # variable order[k] moves from its lex place to place k of the snake
        moves = [(k, i, place - self.places[i])
                 for k, (i, place) in enumerate(zip(self.order, self._snake.places))
                 if place != self.places[i]]
        self._to_snake = {i: [m * p for p in range(self.radices[i])] for _, i, m in moves}
        self._from_snake = {k: [-m * p for p in range(self.radices[i])] for k, i, m in moves}

    def ranks(self, codes: list[int]) -> list[int]:
        return self.digit_sums(codes, self._to_snake)

    def unranks(self, ranks: list[int]) -> list[int]:
        return self._snake.digit_sums(ranks, self._from_snake)


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
    it in `target`; on lex codes, target.unranks ∘ source.ranks, in bulk."""

    source: SimpleOrdering
    target: SimpleOrdering

    def __post_init__(self) -> None:
        if self.source.domains != self.target.domains:
            raise InputError("source and target orderings cover different spaces")

    @property
    def domains(self) -> tuple[Domain, ...]:
        return self.source.domains

    def forward_codes(self, codes: list[int]) -> list[int]:
        return self.target.unranks(self.source.ranks(codes))

    def inverse_codes(self, codes: list[int]) -> list[int]:
        return self.source.unranks(self.target.ranks(codes))


def rank_preserving_map(ordering: SimpleOrdering) -> AssignmentPermutation:
    """Permutation sending the assignment at lex position k to the assignment
    at position k of `ordering`, for every k."""
    return AssignmentPermutation(LexOrdering(ordering.domains), ordering)
