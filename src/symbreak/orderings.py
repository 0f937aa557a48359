"""Total orderings on assignments: lex after a bijection of the digits.

An assignment's positions are the positions of its values in their domains.
Each ordering maps the positions bijectively onto digits and compares the
digits lexicographically, so every ordering here is lex after a relabelling
of the assignment space.  `rank` is a bijection onto range(space_size),
`unrank` is its inverse, and `compare` agrees with rank comparison.  Ranks
are 0-indexed.  `key` gives each assignment a stand-in that Python compares
natively in the same order, built without a Python loop over the variables.

An assignment's lex code is its lex rank, Σ pos·place in mixed radix with
variable 0 most significant (`LexOrdering.codes`).  `ranks` is each
ordering's rule from codes to its own ranks: the code itself for lex,
space_size - 1 - code for revlex, the prefix XOR for gray, chunk tables
(`LexOrdering.digit_sums`) for snakelex's variable permutation, and for
any other digit map the rank of the decoded assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add, getitem, mul, sub, xor
from typing import Optional, Sequence

from .literals import _gatherer
from .model import (
    Assignment,
    Domain,
    InputError,
    UnsupportedOrderingError,
    check_domains,
    check_shape,
    check_values,
)

LT, EQ, GT = -1, 0, 1
CHUNK_CAP = 1 << 10  # digit combinations in one table of `LexOrdering.chunks`


def _places(radices: Sequence[int]) -> list[int]:
    """The mixed-radix place of each digit: digit 0 most significant."""
    return list(accumulate(reversed(radices[1:]), mul, initial=1))[::-1]


class SimpleOrdering:
    """Lex over `digits(positions(a))`; the only statement of rank, unrank and compare.

    `rank` reads the digits as a mixed-radix number over `radices`, digit 0
    most significant (`places` holds each digit's place); `unrank` decodes
    one and applies `undigits`, the inverse map.  A subclass supplies its
    digit map, that inverse, and `unsupported`, its check of the domains
    (and matrix shape) it is defined on, and may state `ranks`, its rule
    from lex codes to ranks, as arithmetic.  The map here is the identity.
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

    def positions(self, a: Sequence[int]) -> tuple[int, ...]:
        if len(a) != self.n:
            raise InputError(f"assignment arity {len(a)} != {self.n}")
        if self._own_positions is not None and self._own_positions(a):
            return tuple(a)
        try:
            return tuple(map(getitem, self._pos, a))
        except KeyError:
            check_values(self.domains, enumerate(a))  # raises, naming the value missed
            raise

    @staticmethod
    def digits(p: tuple[int, ...]) -> tuple[int, ...]:
        return p

    undigits = digits

    def key(self, a: Sequence[int]) -> tuple[int, ...]:
        """Natively comparable stand-in: key(a) < key(b) iff a precedes b."""
        return self.digits(self.positions(a))

    def rank(self, a: Sequence[int]) -> int:
        return sum(map(mul, self.key(a), self.places))

    def unrank(self, k: int) -> Assignment:
        return tuple(map(getitem, self.domains, self.undigits(self.digits_of(k))))

    def digits_of(self, k: int) -> tuple[int, ...]:
        """The digits of rank k in mixed radix over `radices`, digit 0 first;
        under lex they are the positions of the assignment with code k."""
        if not 0 <= k < self.space_size:
            raise InputError(f"rank {k} outside [0, {self.space_size})")
        digits = []
        for radix in reversed(self.radices):
            k, digit = divmod(k, radix)
            digits.append(digit)
        return tuple(reversed(digits))

    def compare(self, a: Sequence[int], b: Sequence[int]) -> int:
        ka, kb = self.key(a), self.key(b)
        return LT if ka < kb else GT if ka > kb else EQ

    def ranks(self, codes: list[int], coding: "LexOrdering") -> list[int]:
        """The rank of each assignment whose lex code under `coding`, a
        LexOrdering over these domains, is in `codes`.  This rule decodes
        each code to its positions and ranks their digits; an ordering
        whose digit map is arithmetic on the code states it directly."""
        return [sum(map(mul, self.digits(coding.digits_of(c)), self.places)) for c in codes]


class LexOrdering(SimpleOrdering):
    """Big-endian positional order: variable 0 is most significant.  Its
    rank is the lex code every other ordering's `ranks` reads."""

    name = "lex"
    key = SimpleOrdering.positions  # the digits are the positions: no map call

    def codes(self, assignments: Sequence[Sequence[int]]) -> list[int]:
        """The lex code of each assignment, its rank: Σ pos·place, checked as
        `positions` checks (in bulk first)."""
        places, pos = self.places, self._pos
        if {*map(len, assignments)} - {self.n}:
            list(map(self.positions, assignments))  # raises at the first arity refused
        if self._own_positions is not None and all(map(self._own_positions, assignments)):
            return [sum(map(mul, a, places)) for a in assignments]
        try:
            return [sum(map(mul, map(getitem, pos, a), places)) for a in assignments]
        except KeyError:
            list(map(self.positions, assignments))  # raises, naming the value missed
            raise

    def ranks(self, codes: list[int], coding: "LexOrdering") -> list[int]:
        return codes

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


class RevLexOrdering(SimpleOrdering):
    """Lex with every comparison reversed: each digit p becomes len(d) - 1 - p."""

    name = "revlex"

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        super().__init__(domains, shape)
        self._top = tuple(radix - 1 for radix in self.radices)

    def digits(self, p: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(sub, self._top, p))

    undigits = digits

    def ranks(self, codes: list[int], coding: "LexOrdering") -> list[int]:
        top = self.space_size - 1
        return [top - c for c in codes]


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

    def ranks(self, codes: list[int], coding: "LexOrdering") -> list[int]:
        """The prefix XOR of each code's bits, by shift-xor steps 1, 2, 4, …"""
        shift = 1
        while shift < self.n:
            codes = [c ^ (c >> shift) for c in codes]
            shift *= 2
        return codes


def snake_variable_order(shape: tuple[int, int]) -> tuple[int, ...]:
    """Cell indices in serpentine column order: odd columns read bottom-up."""
    r, c = shape
    order = []
    for j in range(c):
        rows = range(r) if j % 2 == 0 else range(r - 1, -1, -1)
        order.extend(i * c + j for i in rows)
    return tuple(order)


class SnakeLexOrdering(SimpleOrdering):
    """Lex comparison of the serpentine vectorization of a matrix: the
    digits are the positions gathered in snake order."""

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
        self.digits = _gatherer(self.order)
        self.undigits = _gatherer(sorted(range(self.n), key=self.order.__getitem__))
        self.radices = self.digits(self.radices)
        self.places = _places(self.radices)

    def ranks(self, codes: list[int], coding: "LexOrdering") -> list[int]:
        """Variable order[k] moves from its lex place to place k of the snake."""
        return coding.digit_sums(codes, {
            i: [(self.places[k] - coding.places[i]) * p for p in range(coding.radices[i])]
            for k, i in enumerate(self.order) if self.places[k] != coding.places[i]})


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
