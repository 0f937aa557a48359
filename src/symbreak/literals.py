"""Literal symmetries compiled to the permutation they induce on the literals
(i, v) of their lex coding: a product is one gather of literal tuples, and
`image_codes` moves each lex code's digits through it."""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Sequence

from .model import InputError
from .orderings import LexOrdering


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise InputError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")


class LiteralSymmetry:
    """result[var_perm[i]] = maps[i][a[i]], stated as `lits`, the
    permutation it induces on the literals of `coding`, a LexOrdering of
    its domains as listed: literal (i, v) is coding.offsets[i] plus v's
    position in domain i, and lits[l] is the index of l's image.
    `from_maps` and the constructors after it check their input.
    """

    __slots__ = ("lits", "coding", "_deltas")

    def __init__(self, lits: tuple[int, ...], coding: LexOrdering):
        """From a literal permutation that maps variables onto variables, unchecked."""
        self.lits, self.coding = lits, coding
        self._deltas = None  # `image_codes` builds it on first use

    @classmethod
    def from_maps(cls, var_perm: Sequence[int], maps: Sequence[dict],
                  coding: LexOrdering) -> "LiteralSymmetry":
        """(i, v) to (var_perm[i], maps[i][v]), each map a bijection from
        domain i onto domain var_perm[i], over the literals of `coding`."""
        _check_permutation(var_perm, coding.n)
        if len(maps) != len(var_perm):
            raise InputError("need one value map per variable")
        for i, (j, m) in enumerate(zip(var_perm, maps)):
            images = set(m.values())
            if not m or len(images) != len(m):
                raise InputError(f"value map of variable {i} is not a bijection")
            if images != maps[j].keys():
                raise InputError(f"value map of variable {i} is not onto "
                                 f"the domain of variable {j}")
        offsets, pos = coding.offsets, coding._pos
        # each map lands on its target's keys, so keys equal to the domains settle it
        for i, (m, dom) in enumerate(zip(maps, coding.domains)):
            if m.keys() != pos[i].keys():
                raise InputError(f"value map of variable {i} does not cover its domain {dom}")
        return cls(tuple(offsets[j] + pos[j][m[v]]
                         for dom, j, m in zip(coding.domains, var_perm, maps) for v in dom),
                   coding)

    @classmethod
    def variable(cls, perm: Sequence[int], coding: LexOrdering) -> "LiteralSymmetry":
        """Pure variable permutation (identity value maps): the identity literal
        permutation but for each moved variable i, sent to perm[i] value by value."""
        _check_permutation(perm, coding.n)
        offsets, pos = coding.offsets, coding._pos
        lits = list(range(offsets[-1]))
        for i in compress(range(coding.n), map(ne, perm, range(coding.n))):
            j = perm[i]
            if pos[i].keys() != pos[j].keys():
                raise InputError(f"variables {i} and {j} have different domains")
            lits[offsets[i]:offsets[i + 1]] = [offsets[j] + pos[j][v] for v in coding.domains[i]]
        return cls(tuple(lits), coding)

    def image_codes(self, codes: list[int]) -> list[int]:
        """The lex codes of the images of the assignments with these codes.
        Variable i at position p adds place[j]·q in place of place[i]·p, where
        literal offsets[i] + p maps to offsets[j] + q: a delta per variable
        the symmetry moves (`_deltas`, built once), summed by `digit_sums`."""
        own = self.coding
        if self._deltas is None:  # one scan for the moved literals, on first use
            lits, offsets, var_of, places = self.lits, own.offsets, own.var_of, own.places
            literals = tuple(range(len(lits)))  # read twice: stored ints, not one built per step
            self._deltas = {
                i: [places[var_of[m]] * (m - offsets[var_of[m]]) - places[i] * p
                    for p, m in enumerate(lits[offsets[i]:offsets[i + 1]])]
                for i in set(map(var_of.__getitem__, compress(literals, map(ne, lits, literals))))}
        return own.digit_sums(codes, self._deltas)

    def is_identity(self) -> bool:
        return self.lits == tuple(range(len(self.lits)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LiteralSymmetry) and self.lits == other.lits
                and self.coding.domains == other.coding.domains)

    def __hash__(self) -> int:
        return hash(self.lits)

    def __repr__(self) -> str:
        return f"LiteralSymmetry({self.lits})"
