"""Literal symmetries compiled to the permutation they induce on the literals
(i, v): a product is one gather of literal tuples, `apply` one gather."""

from __future__ import annotations

from itertools import accumulate, compress
from operator import contains, getitem, itemgetter, ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .model import Assignment, Domain, InputError, check_domains, check_values


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise InputError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")


def _gatherer(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Callable taking s to tuple(s[i] for i in indices), one C call when it can."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


_UNBUILT = object()


class _LiteralSpace:
    """Literal (i, v) of these domains has index offsets[i] + the position of v
    in variable i's sorted domain; all elements of a literal group share one."""

    def __init__(self, domains: tuple[Domain, ...]):
        self.domains = domains
        self.offsets = list(accumulate(map(len, domains), initial=0))
        self.var_of = [i for i, dom in enumerate(domains) for _ in dom]
        self.val_of = [v for dom in domains for v in dom]
        self.index = tuple(dict(zip(dom, range(off, off + len(dom))))
                           for off, dom in zip(self.offsets, domains))
        self.identity = tuple(range(len(self.var_of)))
        self.heads = _gatherer(self.offsets[:-1])  # first literal of each variable
        index = self.index  # not self: the lambda would hold its owner in a cycle
        self.in_domains = (frozenset(domains[0]).issuperset
                           if len(set(domains)) == 1
                           else lambda a: all(map(contains, index, a)))


class LiteralSymmetry:
    """result[var_perm[i]] = val_maps[i][a[i]].

    `val_maps` holds, per source variable, the sorted (value, image) pairs of
    a bijection from that variable's domain onto the image variable's
    domain.  The symmetry is kept as `lits`, the permutation it induces on
    the literals of its `_LiteralSpace`: lits[l] is the index of l's image.
    `from_maps` and the constructors after it check their input.
    """

    __slots__ = ("lits", "var_perm", "_space", "_gather", "_tables")

    def __init__(self, lits: tuple[int, ...], space: _LiteralSpace):
        """From a literal permutation that maps variables onto variables, unchecked."""
        self.lits, self._space = lits, space
        self.var_perm = tuple(map(space.var_of.__getitem__, space.heads(lits)))
        inverse = sorted(range(len(self.var_perm)), key=self.var_perm.__getitem__)
        self._gather = _gatherer(inverse)
        self._tables = _UNBUILT  # only `apply` reads them: see `_value_tables`

    @property
    def n(self) -> int:
        return len(self.var_perm)

    def _value_tables(self) -> Optional[tuple[dict, ...]]:
        """The value map landing on each variable, built on first use; None
        when no value map moves a value, so `apply` is one gather."""
        if self._tables is _UNBUILT:
            space = self._space
            moved = list(map(space.val_of.__getitem__, self.lits)) != space.val_of
            self._tables = tuple(map(dict, self._gather(self.val_maps))) if moved else None
        return self._tables

    @property
    def val_maps(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        space = self._space
        images = list(map(space.val_of.__getitem__, self.lits))
        return tuple(tuple(zip(dom, images[start:end])) for dom, start, end
                     in zip(space.domains, space.offsets, space.offsets[1:]))

    @classmethod
    def from_maps(cls, var_perm: Sequence[int], maps: Sequence[dict]) -> "LiteralSymmetry":
        _check_permutation(var_perm, len(var_perm))
        if len(maps) != len(var_perm):
            raise InputError("need one value map per variable")
        for i, (j, m) in enumerate(zip(var_perm, maps)):
            images = set(m.values())
            if not m or len(images) != len(m):
                raise InputError(f"value map of variable {i} is not a bijection")
            if images != maps[j].keys():
                raise InputError(f"value map of variable {i} is not onto "
                                 f"the domain of variable {j}")
        space = _LiteralSpace(tuple(tuple(sorted(m)) for m in maps))
        lits: list[int] = []  # variable by variable, values in sorted order
        for dom, j, m in zip(space.domains, var_perm, maps):
            lits += map(space.index[j].__getitem__, map(m.__getitem__, dom))
        return cls(tuple(lits), space)

    @classmethod
    def identity(cls, domains: Sequence[Domain]) -> "LiteralSymmetry":
        return cls.from_maps(range(len(domains)), [{v: v for v in d} for d in domains])

    @classmethod
    def variable(cls, perm: Sequence[int], domains: Sequence[Domain]) -> "LiteralSymmetry":
        """Pure variable permutation (identity value maps)."""
        _check_permutation(perm, len(domains))
        for i, j in enumerate(perm):
            if set(domains[i]) != set(domains[j]):
                raise InputError(f"variables {i} and {j} have different domains")
        return cls.from_maps(perm, [{v: v for v in d} for d in domains])

    @classmethod
    def value_swap(cls, var: int, a: int, b: int, domains: Sequence[Domain]) -> "LiteralSymmetry":
        """Identity on variables; swaps two values of one variable: the
        identity literal permutation with the two literals exchanged."""
        space = _LiteralSpace(tuple(tuple(sorted(d)) for d in domains))
        check_domains("a value swap", len(domains), space.domains)
        if not 0 <= var < len(domains):
            raise InputError(f"variable {var} outside 0..{len(domains) - 1}")
        check_values(space.domains, ((var, a), (var, b)))
        lits, la, lb = list(space.identity), space.index[var][a], space.index[var][b]
        lits[la], lits[lb] = lb, la
        return cls(tuple(lits), space)

    def apply(self, a: Sequence[int]) -> Assignment:
        if len(a) != len(self.var_perm):
            raise InputError(f"assignment arity {len(a)} != {self.n}")
        if not self._space.in_domains(a):
            check_values(self._space.domains, enumerate(a))
        image, tables = self._gather(a), self._value_tables()
        return image if tables is None else tuple(map(getitem, tables, image))

    def images(self, assignments: Iterable[Sequence[int]]) -> Iterator[Assignment]:
        return map(self.apply, assignments)

    def image_codes(self, codes: list[int], coding) -> list[int]:
        """The lex codes under `coding` (any ordering over these domains, in
        any listed order) of the images of the assignments with these
        codes.  Variable i at position p adds place[j]·pos_j(w) in place of
        place[i]·p, where literal (i, domains[i][p]) maps to (j, w): a delta
        per variable the symmetry moves, summed by `coding.digit_sums`."""
        space, lits, places = self._space, self.lits, coding.places
        if coding.domains != space.domains and tuple(map(tuple, map(sorted, coding.domains))) \
                != space.domains:
            raise InputError("symmetry and codes act on different domains")
        deltas = {}
        for i in set(map(space.var_of.__getitem__,
                         compress(space.identity, map(ne, lits, space.identity)))):
            images = map(lits.__getitem__, map(space.index[i].__getitem__, coding.domains[i]))
            deltas[i] = [places[space.var_of[m]] * coding._pos[space.var_of[m]][space.val_of[m]]
                         - places[i] * p for p, m in enumerate(images)]
        return coding.digit_sums(codes, deltas)

    def is_identity(self) -> bool:
        return self.lits == self._space.identity

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LiteralSymmetry) and self.lits == other.lits
                and self._space.domains == other._space.domains)

    def __hash__(self) -> int:
        return hash(self.lits)

    def __repr__(self) -> str:
        return f"LiteralSymmetry(var_perm={self.var_perm}, val_maps={self.val_maps})"
