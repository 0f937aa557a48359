"""Total orderings on assignments: lex after a bijection of the lex codes.

An assignment's lex code is its lex rank, Σ pos·place in mixed radix with
variable 0 most significant, where a position is the value's index in its
domain as listed (`LexOrdering.codes`; `decode` inverts it and `texts`
prints it).  Each ordering is stated once, as a bijection of
range(space_size): `ranks` maps lex codes to the ordering's ranks and
`unranks` is its inverse, both on lists: the identity for lex,
space_size - 1 - code for revlex, the prefix XOR for gray (k XOR (k >> 1)
back), and for snakelex a variable permutation by chunk tables
(`LexOrdering.digit_sums`).  `rank` and `unrank` are written once, on top
of that pair.  O.unranks is π, the rank-preserving bijection from lex to
O, and O.ranks is π⁻¹.  Ranks are 0-indexed.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from operator import add, getitem, mul
from typing import Optional, Sequence

from .model import (
    Assignment,
    Domain,
    InputError,
    check_domains,
    check_shape,
    check_values,
)

CHUNK_CAP = 1 << 10  # digit combinations in one table of `LexOrdering.chunks`


def _places(radices: Sequence[int]) -> list[int]:
    """The mixed-radix place of each digit: digit 0 most significant."""
    return list(accumulate(reversed(radices[1:]), mul, initial=1))[::-1]


class LexOrdering:
    """Big-endian positional order: variable 0 is most significant, and an
    assignment's rank is its lex code.  Every other ordering is lex after
    the bijection `ranks` of the lex codes, and this class is the only
    statement of rank and unrank: a subclass supplies `ranks`, `unranks`
    (both list rules) and `unsupported`, its check of the domains (and
    matrix shape) it is defined on.  Here both rules are the identity.
    """

    name = "lex"

    @staticmethod
    def unsupported(domains: Sequence[Domain], shape) -> Optional[str]:
        """Why the ordering is undefined on these domains and shape, or None."""
        return None

    def __init__(self, domains: Sequence[Domain], shape: Optional[tuple[int, int]] = None):
        self.domains = tuple(map(tuple, domains))
        self.n = len(self.domains)
        check_domains("an ordering", self.n, self.domains)
        pos = {d: dict(zip(d, range(len(d)))) for d in set(self.domains)}  # one per domain
        self._pos = tuple(map(pos.__getitem__, self.domains))
        reason = self.unsupported(self.domains, shape)
        if reason is not None:
            raise InputError(reason)
        self.radices = tuple(map(len, self.domains))
        self.space_size = math.prod(self.radices)
        self.places = _places(self.radices)

    def __eq__(self, other: object) -> bool:
        return self is other or (type(self) is type(other) and self.domains == other.domains
                                 and getattr(self, "shape", None) == getattr(other, "shape", None))

    def __hash__(self) -> int:  # O(1) in the variables: codings of 1000 are hashed on load
        return hash((type(self), self.space_size))

    @cached_property
    def offsets(self) -> list[int]:
        """Literal (i, v) is offsets[i] + v's position in domain i; the last is their count."""
        return list(accumulate(self.radices, initial=0))

    @cached_property
    def var_of(self) -> list[int]:  # the variable of each literal
        return [i for i, radix in enumerate(self.radices) for _ in range(radix)]

    def ranks(self, codes: list[int]) -> list[int]:
        """The rank of each assignment whose lex code is in `codes`."""
        return codes

    def unranks(self, ranks: list[int]) -> list[int]:
        """The lex code of the assignment at each of `ranks`: `ranks` inverted."""
        return ranks

    def rank(self, a: Sequence[int]) -> int:
        return self.ranks(self.codes([a]))[0]

    def unrank(self, k: int) -> Assignment:
        return self.decode([self.unrank_code(k)])[0]

    def unrank_code(self, k: int) -> int:
        """The lex code of the assignment at rank k."""
        if not 0 <= k < self.space_size:
            raise InputError(f"rank {k} outside [0, {self.space_size})")
        return self.unranks([k])[0]

    def codes(self, assignments: Sequence[Sequence[int]]) -> list[int]:
        """The lex code of each assignment, Σ pos·place, checked in bulk: the
        first assignment of another arity or with a value outside its
        variable's domain is refused by name."""
        places = self.places
        if not {*map(len, assignments)} - {self.n}:
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

    def texts(self, codes: Sequence[int]) -> list[str]:
        """The printed row of the assignment with each of these lex codes:
        its values in variable order, run together on all-(0, 1) domains
        and comma-joined otherwise.  A variable's step lists its values as
        strings, each but the first variable's led by the separator; a row
        is one lookup per chunk of `chunks`, most significant chunk first."""
        sep = "" if all(d == (0, 1) for d in self.domains) else ","
        each = {dom: [sep + str(v) for v in dom] for dom in set(self.domains)}
        steps = dict(enumerate(map(each.__getitem__, self.domains)))
        steps[0] = list(map(str, self.domains[0]))
        chunks = self.chunks(steps, min(CHUNK_CAP, len(codes)))[::-1]
        if len(codes) < len(chunks):  # the shorter of the two loops goes outside
            return ["".join([table[c // place % size] for place, size, table in chunks])
                    for c in codes]
        return list(map("".join, zip(*([table[c // place % size] for c in codes]
                                        for place, size, table in chunks))))

    def chunks(self, steps: dict[int, list], cap: int) -> list[tuple[int, int, list]]:
        """(place, size, table) per chunk: the variables from the first to
        the last with steps, cut into runs of consecutive variables from the
        least significant up, each of at most `cap` digit combinations (one
        variable at least).  table[s] sums the run's steps (ints, or strings
        concatenated most significant first; a variable without steps adds
        0) at the digits that s, read in mixed radix, gives its variables;
        the run's digits in a code c are c // place % size."""
        chunks = []
        first, i = min(steps, default=0), max(steps, default=-1)
        step = lambda i: steps.get(i) or [0] * self.radices[i]
        while i >= first:
            place, table = self.places[i], step(i)
            i -= 1
            while i >= first and len(table) * self.radices[i] <= cap:
                table = [d + t for d in step(i) for t in table]  # variable i most significant
                i -= 1
            chunks.append((place, len(table), table))
        return chunks


class RevLexOrdering(LexOrdering):
    """Lex with every comparison reversed: rank space_size - 1 - code."""

    name = "revlex"

    def ranks(self, codes: list[int]) -> list[int]:
        top = self.space_size - 1
        return [top - c for c in codes]

    unranks = ranks


class GrayOrdering(LexOrdering):
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


class SnakeLexOrdering(LexOrdering):
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
        self._snake = LexOrdering(map(self.domains.__getitem__, self.order))
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
                  shape: Optional[tuple[int, int]] = None) -> LexOrdering:
    if name not in ORDERINGS:
        raise InputError(f"unknown ordering '{name}' (choose from {', '.join(ORDERING_NAMES)})")
    return ORDERINGS[name](domains, shape)


def applicable_orderings(domains: Sequence[Domain],
                         shape: Optional[tuple[int, int]] = None) -> list[LexOrdering]:
    """Every named ordering defined on the domains and shape, in ORDERING_NAMES order."""
    return [make_ordering(name, domains, shape) for name, cls in ORDERINGS.items()
            if cls.unsupported(domains, shape) is None]
