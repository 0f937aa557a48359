"""Symmetries acting on assignments, generated groups, orbits, conjugation.

Two representations:

* `LiteralSymmetry` — a variable permutation composed with per-variable value
  bijections.  Structured this way, every complete assignment maps to a
  complete assignment; arbitrary bijections on variable-value pairs that
  could produce non-assignments are excluded by construction.
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
from .orderings import AssignmentPermutation

DEFAULT_CLOSURE_CAP = 100_000


def _check_permutation(perm: Sequence[int], n: int) -> None:
    if sorted(perm) != list(range(n)):
        raise InputError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class LiteralSymmetry:
    """result[var_perm[i]] = val_maps[i][a[i]].

    `val_maps` stores, per source variable, the sorted (value, image) pairs of
    a bijection from that variable's domain onto the image variable's domain.
    """

    var_perm: tuple[int, ...]
    val_maps: tuple[tuple[tuple[int, int], ...], ...]
    _maps: tuple[dict, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.var_perm)
        _check_permutation(self.var_perm, n)
        if len(self.val_maps) != n:
            raise InputError("need one value map per variable")
        maps = []
        for i, pairs in enumerate(self.val_maps):
            keys = [k for k, _ in pairs]
            images = [v for _, v in pairs]
            if len(set(keys)) != len(keys) or len(set(images)) != len(images):
                raise InputError(f"value map of variable {i} is not a bijection")
            maps.append(dict(pairs))
        object.__setattr__(self, "_maps", tuple(maps))

    @property
    def n(self) -> int:
        return len(self.var_perm)

    @classmethod
    def from_maps(cls, var_perm: Sequence[int], maps: Sequence[dict]) -> "LiteralSymmetry":
        return cls(tuple(var_perm),
                   tuple(tuple(sorted(m.items())) for m in maps))

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
        if len(a) != self.n:
            raise InputError(f"assignment arity {len(a)} != {self.n}")
        out = [0] * self.n
        try:
            for i, v in enumerate(a):
                out[self.var_perm[i]] = self._maps[i][v]
        except KeyError as exc:
            raise InputError(f"value {exc.args[0]} outside the symmetry's domain") from exc
        return tuple(out)

    def compose(self, other: "LiteralSymmetry") -> "LiteralSymmetry":
        """Symmetry acting as self after other: (self∘other)(a) = self(other(a))."""
        if not isinstance(other, LiteralSymmetry):
            raise InputError("cannot compose literal and assignment-level symmetries")
        if other.n != self.n:
            raise InputError("mismatched variable counts")
        perm = tuple(self.var_perm[other.var_perm[i]] for i in range(self.n))
        maps = [{v: self._maps[other.var_perm[i]][w] for v, w in other._maps[i].items()}
                for i in range(self.n)]
        return LiteralSymmetry.from_maps(perm, maps)

    def invert(self) -> "LiteralSymmetry":
        inv_perm = [0] * self.n
        for i, j in enumerate(self.var_perm):
            inv_perm[j] = i
        maps = [{w: v for v, w in self._maps[inv_perm[j]].items()} for j in range(self.n)]
        return LiteralSymmetry.from_maps(inv_perm, maps)

    def is_identity(self) -> bool:
        return (self.var_perm == tuple(range(self.n))
                and all(all(v == w for v, w in pairs) for pairs in self.val_maps))


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
        lits = [g for g in self.generators if isinstance(g, LiteralSymmetry)]
        if len({g.n for g in lits}) > 1:
            raise InputError("literal generators act on different variable counts")

    def _identity_like(self) -> Symmetry:
        gen = self.generators[0]
        if isinstance(gen, AssignmentSymmetry):
            return AssignmentSymmetry.identity()
        return LiteralSymmetry.from_maps(range(gen.n),
                                         [{v: v for v in m} for m in gen._maps])

    def closure(self) -> tuple[Symmetry, ...]:
        """Breadth-first product closure, deduplicated, identity included."""
        if self._closure is not None:
            return self._closure
        if not self.generators:
            self._closure = ()
            return self._closure
        ident = self._identity_like()
        seen: dict = {ident: None}
        frontier = [ident]
        while frontier:
            new: list[Symmetry] = []
            for elem in frontier:
                for gen in self.generators:
                    prod = gen.compose(elem)
                    if prod not in seen:
                        seen[prod] = None
                        if len(seen) > self.cap:
                            raise CapExceededError(f"closure exceeds cap={self.cap}")
                        new.append(prod)
            frontier = new
        self._closure = tuple(seen)
        return self._closure

    def orbit_of(self, a: Assignment, cap: Optional[int] = None) -> tuple[Assignment, ...]:
        """Orbit of a single assignment under the generated group (BFS)."""
        limit = cap if cap is not None else self.cap
        a = tuple(a)
        seen: dict = {a: None}
        frontier = [a]
        while frontier:
            new = []
            for b in frontier:
                for gen in self.generators:
                    c = gen.apply(b)
                    if c not in seen:
                        seen[c] = None
                        if len(seen) > limit:
                            raise CapExceededError(f"orbit exceeds cap={limit}")
                        new.append(c)
            frontier = new
        return tuple(seen)


@dataclass
class OrbitPartition:
    """Disjoint blocks covering the input set, in first-occurrence order."""

    blocks: tuple[tuple[Assignment, ...], ...]
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {a: i for i, block in enumerate(self.blocks) for a in block}

    def block_of(self, a: Assignment) -> int:
        try:
            return self._index[tuple(a)]
        except KeyError as exc:
            raise InputError("assignment not covered by the partition") from exc

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def orbits(solutions: Sequence[Assignment], group: SymmetryGroup) -> OrbitPartition:
    """Partition of the solution set into orbits of the generated group.

    Works from generators alone (no closure): orbits are the connected
    components of the edges a — gen(a).  Every generator must map the
    solution set into itself.
    """
    sols = [tuple(a) for a in solutions]
    if len(set(sols)) != len(sols):
        raise InputError("solution list repeats an assignment")
    index = {a: i for i, a in enumerate(sols)}
    uf = _UnionFind(len(sols))
    for a in sols:
        for gen in group.generators:
            b = gen.apply(a)
            if b not in index:
                raise InputError(
                    "generator maps a solution outside the solution set "
                    f"({a} -> {b})")
            uf.union(index[a], index[b])
    grouped: dict[int, list[Assignment]] = {}
    for i, a in enumerate(sols):
        grouped.setdefault(uf.find(i), []).append(a)
    # first-occurrence order: root ids are minimal member indices
    blocks = tuple(tuple(grouped[root]) for root in sorted(grouped))
    return OrbitPartition(blocks)


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
    perm = tuple(_require(data, "var_perm", "literal symmetry"))
    if "val_maps" in data:
        maps = [dict((int(k), int(v)) for k, v in pairs) for pairs in data["val_maps"]]
        return LiteralSymmetry.from_maps(perm, maps)
    return LiteralSymmetry.variable(perm, domains)


def symmetry_group_from_dict(data: dict, domains: Sequence[Domain]) -> SymmetryGroup:
    _reject_unknown(data, {"generators", "cap"}, "symmetry file")
    gens: list[LiteralSymmetry] = []
    for entry in _require(data, "generators", "symmetry file"):
        kind = _require(entry, "kind", "generator")
        if kind == "literal":
            gens.append(_literal_from_dict(entry, domains))
        elif kind == "row_col":
            _reject_unknown(entry, {"kind", "rows", "cols"}, "row_col generator")
            shape = (_require(entry, "rows", "row_col generator"),
                     _require(entry, "cols", "row_col generator"))
            gens.extend(row_col_generators(shape, domains))
        else:
            raise InputError(f"unknown generator kind '{kind}'")
    return SymmetryGroup(tuple(gens), cap=data.get("cap", DEFAULT_CLOSURE_CAP))


def load_symmetry_group(path, domains: Sequence[Domain]) -> SymmetryGroup:
    return symmetry_group_from_dict(load_json_object(path, "symmetry file"), domains)
