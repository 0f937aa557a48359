"""Symmetries acting on assignments, generated groups, orbits, conjugation.

Two representations:

* `LiteralSymmetry` (module `literals`) — a variable permutation composed
  with per-variable value bijections.  Structured this way, every complete
  assignment maps to a complete assignment; arbitrary bijections on
  variable-value pairs that could produce non-assignments are excluded by
  construction.
* `AssignmentSymmetry` — an explicit bijection on finitely many listed
  assignments, identity outside the listed set.  This is the carrier for
  conjugated symmetries and for groups defined directly on solution sets.

The two kinds never mix inside one group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .model import (
    Assignment,
    Domain,
    CapExceededError,
    InputError,
    all_assignments,
    binary_domains,
    load_json_object,
    _reject_unknown,
    _require,
)
from .literals import LiteralSymmetry, _check_permutation, _gatherer
from .orderings import AssignmentPermutation

DEFAULT_CLOSURE_CAP = 100_000


class AssignmentSymmetry:
    """Explicit bijection on a finite set of assignments, identity elsewhere."""

    def __init__(self, mapping: dict):
        moved = {tuple(a): tuple(b) for a, b in mapping.items() if tuple(a) != tuple(b)}
        if set(moved) != set(moved.values()):
            raise InputError("listed pairs do not form a bijection on the listed set")
        self._map = moved
        self._key = frozenset(moved.items())

    @classmethod
    def identity(cls) -> "AssignmentSymmetry":
        return cls({})

    @classmethod
    def transposition(cls, a: Assignment, b: Assignment) -> "AssignmentSymmetry":
        return cls({a: b, b: a})

    def apply(self, a: Sequence[int]) -> Assignment:
        a = tuple(a)
        return self._map.get(a, a)

    def compose(self, other: "AssignmentSymmetry") -> "AssignmentSymmetry":
        if not isinstance(other, AssignmentSymmetry):
            raise InputError("cannot compose literal and assignment-level symmetries")
        keys = set(self._map) | set(other._map)
        return AssignmentSymmetry({a: self.apply(other.apply(a)) for a in keys})

    def invert(self) -> "AssignmentSymmetry":
        return AssignmentSymmetry({b: a for a, b in self._map.items()})

    def is_identity(self) -> bool:
        return not self._map

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AssignmentSymmetry) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"AssignmentSymmetry({len(self._map)} moved)"


Symmetry = Union[LiteralSymmetry, AssignmentSymmetry]


@dataclass
class SymmetryGroup:
    """Group given by generators; closure is computed on demand and cached."""

    generators: tuple[Symmetry, ...]
    cap: int = DEFAULT_CLOSURE_CAP
    _closure: Optional[tuple[Symmetry, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if self.cap < 1:
            raise InputError("closure cap must be positive")
        kinds = {type(g) for g in self.generators}
        if len(kinds) > 1:
            raise InputError("a group cannot mix literal and assignment-level symmetries")
        if len({g._space.domains for g in self.generators if isinstance(g, LiteralSymmetry)}) > 1:
            raise InputError("literal generators act on different domains")

    def closure(self) -> tuple[Symmetry, ...]:
        """Breadth-first product closure, deduplicated, identity included.

        A literal group searches over literal permutations, where the
        product g∘e is one gather, and builds each element once at the end.
        """
        if self._closure is None and not self.generators:
            self._closure = ()
        if self._closure is not None:
            return self._closure
        literal = isinstance(self.generators[0], LiteralSymmetry)
        if literal:
            space = self.generators[0]._space
            ident, gens, after = space.identity, [g.lits for g in self.generators], _gatherer
        else:
            ident, gens = AssignmentSymmetry.identity(), self.generators
            after = lambda elem: lambda gen: gen.compose(elem)
        seen: dict = {ident: None}
        frontier = [ident]
        while frontier:
            new: list = []
            for elem in frontier:
                times = after(elem)  # times(gen) is gen∘elem
                for gen in gens:
                    prod = times(gen)
                    if prod not in seen:
                        seen[prod] = None
                        if len(seen) > self.cap:
                            raise CapExceededError(f"closure exceeds cap={self.cap}")
                        new.append(prod)
            frontier = new
        self._closure = (tuple(LiteralSymmetry(lits, space) for lits in seen) if literal
                         else tuple(seen))
        return self._closure

    def orbit_of(self, a: Assignment, cap: Optional[int] = None) -> tuple[Assignment, ...]:
        """Orbit of a single assignment under the generated group, in search order."""
        return tuple(_orbit_search(tuple(a), self.generators,
                                   cap=cap if cap is not None else self.cap))


def _orbit_search(start: Assignment, generators: Sequence[Symmetry],
                  inside: Optional[dict] = None, cap: Optional[int] = None) -> dict:
    """Breadth-first search from `start` along the generators' images.

    Returns the points reached, in discovery order, as the keys of a dict.
    An image outside `inside` (when given) is an input error; more than
    `cap` points is a cap overflow.
    """
    seen: dict = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for gen in generators:
                b = gen.apply(a)
                if b not in seen:
                    if inside is not None and b not in inside:
                        raise InputError(
                            "generator maps a solution outside the solution set "
                            f"({a} -> {b})")
                    seen[b] = None
                    if cap is not None and len(seen) > cap:
                        raise CapExceededError(f"orbit exceeds cap={cap}")
                    new.append(b)
        frontier = new
    return seen


@dataclass
class OrbitPartition:
    """Disjoint blocks covering the input set, in first-occurrence order."""

    blocks: tuple[tuple[Assignment, ...], ...]
    _index: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def block_of(self, a: Assignment) -> int:
        if self._index is None:  # built on first use: the verdicts never need it
            self._index = {a: i for i, block in enumerate(self.blocks) for a in block}
        try:
            return self._index[tuple(a)]
        except KeyError as exc:
            raise InputError("assignment not covered by the partition") from exc

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def orbits(solutions: Sequence[Assignment], group: SymmetryGroup) -> OrbitPartition:
    """Partition of the solution set into orbits of the generated group.

    Works from generators alone (no closure): one breadth-first search from
    each solution not yet placed, whose images must all stay inside the
    solution set.  Each block lists its members in input order.
    """
    sols = [tuple(a) for a in solutions]
    index = {a: i for i, a in enumerate(sols)}
    if len(index) != len(sols):
        raise InputError("solution list repeats an assignment")
    placed: set = set()
    blocks = []
    for a in sols:
        if a not in placed:
            reached = _orbit_search(a, group.generators, inside=index)
            placed.update(reached)
            blocks.append(tuple(sorted(reached, key=index.__getitem__)))
    return OrbitPartition(tuple(blocks))


def conjugate(pi: AssignmentPermutation, group: SymmetryGroup) -> SymmetryGroup:
    """Group with generators pi∘g∘pi⁻¹, tabulated over the full space.

    The conjugated generators have no literal structure in general, so they
    are materialized as assignment-level bijections (desk scale only).
    """
    space = list(all_assignments(pi.domains))
    gens = []
    for gen in group.generators:
        mapping = {b: pi.forward(gen.apply(pi.inverse(b))) for b in space}
        gens.append(AssignmentSymmetry(mapping))
    return SymmetryGroup(tuple(gens), cap=group.cap)


def partitions_isomorphic(p1: OrbitPartition, p2: OrbitPartition,
                          pi: AssignmentPermutation) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does pi map every block of p1 exactly onto a block of p2?

    Returns (True, tau) with the witness block bijection, or (False, None).
    """
    if len(p1) != len(p2) or sorted(p1.sizes()) != sorted(p2.sizes()):
        return False, None
    lookup = {frozenset(block): i for i, block in enumerate(p2.blocks)}
    tau = []
    for block in p1.blocks:
        image = frozenset(pi.forward(a) for a in block)
        target = lookup.get(image)
        if target is None:
            return False, None
        tau.append(target)
    if len(set(tau)) != len(tau):
        return False, None
    return True, tuple(tau)


def map_constraint_set(pi: AssignmentPermutation,
                       satisfying: Iterable[Assignment]) -> frozenset:
    """Image of an extensionally given constraint set under pi."""
    return frozenset(pi.forward(a) for a in satisfying)


# ---------------------------------------------------------------------------
# matrix-model generators and serialization


def row_col_generators(shape: tuple[int, int],
                       domains: Optional[Sequence[Domain]] = None) -> tuple[LiteralSymmetry, ...]:
    """Adjacent row and column transpositions of an r x c matrix model."""
    r, c = shape
    if r < 1 or c < 1:
        raise InputError(f"bad shape {shape}")
    doms = tuple(domains) if domains is not None else binary_domains(r * c)
    if len(doms) != r * c:
        raise InputError("domains do not cover the matrix")
    gens = []
    for k in range(r - 1):
        perm = list(range(r * c))
        for j in range(c):
            perm[k * c + j], perm[(k + 1) * c + j] = perm[(k + 1) * c + j], perm[k * c + j]
        gens.append(LiteralSymmetry.variable(perm, doms))
    for k in range(c - 1):
        perm = list(range(r * c))
        for i in range(r):
            perm[i * c + k], perm[i * c + k + 1] = perm[i * c + k + 1], perm[i * c + k]
        gens.append(LiteralSymmetry.variable(perm, doms))
    return tuple(gens)


def row_col_group(shape: tuple[int, int], domains: Optional[Sequence[Domain]] = None,
                  cap: int = DEFAULT_CLOSURE_CAP) -> SymmetryGroup:
    return SymmetryGroup(row_col_generators(shape, domains), cap=cap)


def _literal_from_dict(data: dict, domains: Sequence[Domain]) -> LiteralSymmetry:
    _reject_unknown(data, {"kind", "var_perm", "val_maps"}, "literal symmetry")
    perm = tuple(_require(data, "var_perm", "literal symmetry", [int]))
    if "val_maps" not in data:
        return LiteralSymmetry.variable(perm, domains)
    maps = _require(data, "val_maps", "literal symmetry", [[[int]]])
    if any(len(pair) != 2 for pairs in maps for pair in pairs):
        raise InputError("val_maps entries must be [value, image] pairs")
    _check_permutation(perm, len(domains))
    sym = LiteralSymmetry.from_maps(perm, [dict(pairs) for pairs in maps])
    # each map lands on its target's keys, so keys equal to the domains settle it
    for i, (keys, dom) in enumerate(zip(sym._space.domains, domains)):
        if set(keys) != set(dom):
            raise InputError(f"value map of variable {i} does not cover its domain {dom}")
    return sym


def symmetry_group_from_dict(data: dict, domains: Sequence[Domain]) -> SymmetryGroup:
    _reject_unknown(data, {"generators", "cap"}, "symmetry file")
    gens: list[LiteralSymmetry] = []
    for k, entry in enumerate(_require(data, "generators", "symmetry file", [dict])):
        kind = _require(entry, "kind", "generator")
        try:
            if kind == "literal":
                gens.append(_literal_from_dict(entry, domains))
            elif kind == "row_col":
                _reject_unknown(entry, {"kind", "rows", "cols"}, "row_col generator")
                shape = (_require(entry, "rows", "row_col generator", int),
                         _require(entry, "cols", "row_col generator", int))
                gens.extend(row_col_generators(shape, domains))
            else:
                raise InputError(f"unknown generator kind '{kind}'")
        except InputError as exc:
            raise InputError(f"generator {k}: {exc}") from exc
    cap = _require(data, "cap", "symmetry file", int) if "cap" in data else DEFAULT_CLOSURE_CAP
    return SymmetryGroup(tuple(gens), cap=cap)


def load_symmetry_group(path, domains: Sequence[Domain]) -> SymmetryGroup:
    return symmetry_group_from_dict(load_json_object(path, "symmetry file"), domains)
