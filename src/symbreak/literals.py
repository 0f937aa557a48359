"""Literal symmetries compiled to the permutation they induce on the literals
(i, v): a product is one gather of literal tuples, `apply` one gather."""

from __future__ import annotations

from itertools import accumulate
from operator import contains, getitem, itemgetter
from typing import Callable, Sequence

from .model import Assignment, Domain, InputError


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise InputError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")


def _gatherer(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Callable taking s to tuple(s[i] for i in indices), one C call when it can."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


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
        self.in_domains = (frozenset(domains[0]).issuperset
                           if len(set(domains)) == 1
                           else lambda a: all(map(contains, self.index, a)))


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
        # a value-table pass only when some value map moves a value
        moved = list(map(space.val_of.__getitem__, lits)) != space.val_of
        self._tables = tuple(map(dict, self._gather(self.val_maps))) if moved else None

    @property
    def n(self) -> int:
        return len(self.var_perm)

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
        """Identity on variables; swaps two values of one variable."""
        maps = [{v: v for v in d} for d in domains]
        maps[var][a], maps[var][b] = b, a
        return cls.from_maps(range(len(domains)), maps)

    def apply(self, a: Sequence[int]) -> Assignment:
        if len(a) != len(self.var_perm):
            raise InputError(f"assignment arity {len(a)} != {self.n}")
        if not self._space.in_domains(a):
            bad = next(v for v, dom in zip(a, self._space.index) if v not in dom)
            raise InputError(f"value {bad} outside the symmetry's domain")
        image = self._gather(a)
        if self._tables is None:
            return image
        return tuple(map(getitem, self._tables, image))

    def compose(self, other: "LiteralSymmetry") -> "LiteralSymmetry":
        """Symmetry acting as self after other: (self∘other)(a) = self(other(a))."""
        if not isinstance(other, LiteralSymmetry):
            raise InputError("cannot compose literal and assignment-level symmetries")
        if other._space.domains != self._space.domains:
            raise InputError("symmetries act on different domains")
        return LiteralSymmetry(_gatherer(other.lits)(self.lits), self._space)

    def invert(self) -> "LiteralSymmetry":
        inverse = sorted(self._space.identity, key=self.lits.__getitem__)
        return LiteralSymmetry(tuple(inverse), self._space)

    def is_identity(self) -> bool:
        return self.lits == self._space.identity

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LiteralSymmetry) and self.lits == other.lits
                and self._space.domains == other._space.domains)

    def __hash__(self) -> int:
        return hash(self.lits)

    def __repr__(self) -> str:
        return f"LiteralSymmetry(var_perm={self.var_perm}, val_maps={self.val_maps})"
