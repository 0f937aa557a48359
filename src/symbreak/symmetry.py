"""Symmetries acting on lex codes, generated groups, orbits, conjugation.

Two representations, never mixed inside one group:

* `LiteralSymmetry` (module `literals`) — a variable permutation composed
  with per-variable value bijections, so every complete assignment maps to
  a complete assignment by construction.
* `ConjugateSymmetry` — π∘g∘π⁻¹, held as the pair (g, O), π = O.unranks.

Each acts on the lex codes of its `coding`, a LexOrdering of its domains
as listed (`image_codes`).  A group's generators share its one coding, and
a solution is its lex code under it, so orbits, verdicts and conjugation
work on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .model import (
    ABSENT,
    Domain,
    CapExceededError,
    InputError,
    binary_domains,
    check_shape,
    load_json_object,
    read_field,
    read_fields,
)
from .literals import LiteralSymmetry
from .orderings import LexOrdering

DEFAULT_CLOSURE_CAP = 100_000


def _gatherer(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """Callable taking s to tuple(s[i] for i in indices), one C call when it can."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[i] for i in indices)


@dataclass(frozen=True)
class ConjugateSymmetry:
    """π∘g∘π⁻¹ as (g, O), π = O.unranks: image codes by π⁻¹, g and π, each in
    bulk, so nothing is tabulated; equal by equal orderings iff the gs are."""

    g: Union[LiteralSymmetry, "ConjugateSymmetry"]
    ordering: LexOrdering

    @property
    def coding(self) -> LexOrdering:
        return self.g.coding

    def image_codes(self, codes: list[int]) -> list[int]:
        return self.ordering.unranks(self.g.image_codes(self.ordering.ranks(codes)))

    def is_identity(self) -> bool:
        return self.g.is_identity()


Symmetry = Union[LiteralSymmetry, ConjugateSymmetry]


@dataclass
class SymmetryGroup:
    """Group given by generators over one `coding`, a LexOrdering of their
    domains as listed (given, or else the generators'; a group without
    generators needs it).  `chain`, its stabilizer chain over the coding's
    literals (G's, for conjugates of G), is built once, under `cap`, and is
    the only element machinery: `order` is the product of its level sizes,
    and `closure()` lists the products of its representatives.  No verdict
    reads the chain, and the group searches no orbit: `orbits` does, from
    the generators.  Without generators, order 1 and an empty closure."""

    generators: tuple[Symmetry, ...]
    cap: int = DEFAULT_CLOSURE_CAP
    coding: Optional[LexOrdering] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if self.cap < 1:
            raise InputError("closure cap must be positive")
        if len({(type(g), getattr(g, "ordering", None)) for g in self.generators}) > 1:
            raise InputError("a group cannot mix kinds of symmetry or conjugates by different "
                             "permutations")
        codings = {g.coding for g in self.generators} | ({self.coding} - {None})  # each hashed once
        if not codings:
            raise InputError("a group without generators needs a coding")
        if len({coding.domains for coding in codings}) > 1:
            raise InputError("generators act on different domains")
        self.coding = self.coding or self.generators[0].coding

    def _points(self) -> tuple[list[tuple[int, ...]], Callable[[tuple[int, ...]], Symmetry]]:
        """The generators as permutations of range(n), and the element that
        such a permutation stands for.  A literal group permutes its
        literals; conjugates of G permute G's, whose elements they conjugate."""
        gens, coding = self.generators, self.coding
        if gens and isinstance(gens[0], ConjugateSymmetry):
            perms, element = SymmetryGroup(tuple(g.g for g in gens), self.cap, coding)._points()
            return perms, lambda e: ConjugateSymmetry(element(e), gens[0].ordering)
        return [g.lits for g in gens], lambda e: LiteralSymmetry(e, coding)

    @cached_property
    def chain(self) -> list[list[tuple[int, ...]]]:
        return _stabilizer_chain(self._points()[0], self.cap)

    @cached_property
    def order(self) -> int:
        return prod(map(len, self.chain))

    def closure(self) -> tuple[Symmetry, ...]:
        """Every group element once, identity first: the products
        u_0∘u_1∘… of one representative per chain level, each one gather."""
        perms, element = self._points()
        if not perms:
            return ()
        products = [tuple(range(len(perms[0])))]
        for level in self.chain:
            products += [p for u in level[1:] for p in map(_gatherer(u), products)]
        return tuple(map(element, products))


def _stabilizer_chain(gens: Sequence[tuple[int, ...]], cap: int) -> list[list[tuple[int, ...]]]:
    """Deterministic Schreier–Sims over permutations of range(n), as tuples,
    where p∘q is _gatherer(q)(p).  Level l holds the coset representatives
    of the stabilizer of base[:l + 1] in that of base[:l], identity first:
    one per point of base[l]'s orbit under the strong generators fixing
    base[:l], mapping base[l] there, found breadth-first.  Every element is
    one product u_0∘u_1∘… of a representative per level, so |G| = Π |level|.
    The strong generators are the distinct generators but the identity, then
    the residues of Schreier generators that do not sift to the identity;
    each is kept next to its inverse.  A level only grows as strong
    generators are added, so once Π |level| passes `cap`, so would |G|:
    the chain is refused there, before it is finished."""
    ident = tuple(range(len(gens[0]))) if gens else ()
    inverse = lambda p: tuple(sorted(ident, key=p.__getitem__))
    moved = lambda p: next(x for x, y in enumerate(p) if x != y)
    # those fixing base[0] come back as residues
    fixing = [[(g, inverse(g)) for k, g in enumerate(gens) if g != ident and g not in gens[:k]]]
    base = [moved(s) for s, _ in fixing[0][:1]]

    def transversal(l: int) -> dict:  # point -> (rep, its inverse)
        reps, queue = {base[l]: (ident, ident)}, [base[l]]
        for p in queue:
            rep, inv = reps[p]
            for s, s_inv in fixing[l]:
                if s[p] not in reps:
                    queue.append(s[p])
                    reps[s[p]] = (_gatherer(rep)(s), _gatherer(s_inv)(inv))
        return reps

    def residues(l: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # (residue, level it stopped at) of each Schreier generator s∘u not sifting to 1
        for u, _ in levels[l].values():
            for s, _ in fixing[l]:
                h = _gatherer(u)(s)
                for j in range(l, len(base)):
                    p = h[base[j]]
                    if p not in levels[j]:
                        break
                    if p != base[j]:  # else the representative is the identity
                        h = _gatherer(h)(levels[j][p][1])
                else:
                    j = len(base)
                    if h == ident:
                        continue
                yield h, j

    levels = [transversal(l) for l in range(len(base))]
    l = len(base) - 1
    while l >= 0:
        if prod(map(len, levels)) > cap:
            raise CapExceededError(f"closure exceeds cap={cap}")
        for h, j in residues(l):
            if j == len(base):
                base.append(moved(h))
                fixing.append([])
            strong = (h, inverse(h))
            for m in range(l + 1, j + 1):
                fixing[m].append(strong)
            levels[l + 1:j + 1] = [transversal(m) for m in range(l + 1, j + 1)]
            l = j
            break
        else:
            l -= 1
    return [[rep for rep, _ in reps.values()] for reps in levels]


@dataclass
class OrbitPartition:
    """The orbits of `group` on the solutions whose lex codes under the
    group's coding are `codes`, kept in input order: block_of[i] is the
    index of the first member of solution i's orbit, and images[k][i] the
    index of generator k's image of solution i."""

    codes: list[int]
    block_of: list[int] = field(repr=False)
    images: tuple[list[int], ...] = field(repr=False)
    group: SymmetryGroup = field(repr=False, compare=False)

    @cached_property
    def firsts(self) -> tuple[int, ...]:
        """The index of each block's first member, increasing."""
        return tuple(dict.fromkeys(self.block_of))

    @cached_property
    def members(self) -> tuple[list[int], ...]:
        """The indices of each block's members, increasing, block by block."""
        members: dict[int, list[int]] = {first: [] for first in self.firsts}
        for i, first in enumerate(self.block_of):
            members[first].append(i)
        return tuple(members.values())

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.grouped(range(len(self.codes)))

    def grouped(self, indices: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """The codes at `indices`, increasing, listed block by block."""
        blocks: dict[int, list[int]] = {first: [] for first in self.firsts}
        for i in indices:
            blocks[self.block_of[i]].append(self.codes[i])
        return tuple(map(tuple, blocks.values()))

    def __len__(self) -> int:
        return len(self.firsts)


def orbits(codes: Sequence[int], group: SymmetryGroup) -> OrbitPartition:
    """Partition of the solutions with these lex codes under the group's
    coding into orbits of the generated group.

    Works from generators alone (no closure).  Each generator's
    `image_codes` are indexed by an int dict, or by the code itself when
    the codes are exactly range(space size).  Each orbit is one
    breadth-first search over the image indices from the first solution not
    yet placed, run inline with `block_of` as its visited mark.  An image
    outside the solution set is an input error, raised when the search
    reaches it (the first in search and generator order), naming both
    assignments.
    """
    codes = list(codes)
    gens, coding = group.generators, group.coding
    if len(codes) == coding.space_size and codes == list(range(len(codes))):
        look = codes.__getitem__  # every code is its solution's index
    else:
        index = dict(zip(codes, count()))
        if len(index) != len(codes):
            raise InputError("solution list repeats an assignment")
        if index and not (0 <= min(index) and max(index) < coding.space_size):
            raise InputError(f"solution code outside [0, {coding.space_size})")
        look = index.get
    lists = [list(map(look, g.image_codes(codes))) for g in gens]
    steps = list(zip(gens, lists))
    block_of = [-1] * len(codes)  # also the visited mark of the searches
    for i, first in enumerate(block_of):
        if first >= 0:
            continue
        block_of[i], orbit = i, [i]
        for j in orbit:
            for g, img in steps:
                k = img[j]
                if k is None:
                    a, image = coding.decode([codes[j], *g.image_codes([codes[j]])])
                    raise InputError("generator maps a solution outside the solution set "
                                     f"({a} -> {image})")
                if block_of[k] < 0:
                    block_of[k] = i
                    orbit.append(k)
    return OrbitPartition(codes, block_of, tuple(lists), group)


def conjugate(ordering: LexOrdering, group: SymmetryGroup) -> SymmetryGroup:
    """Group with generators π∘g∘π⁻¹, π the ordering, each held as (g, π),
    refusing a π over other listed domains; its chain and elements are G's, conjugated."""
    coding = group.coding
    if coding.domains != ordering.domains:
        raise InputError(f"permutation acts on domains {ordering.domains}, "
                         f"group on {coding.domains}")
    return SymmetryGroup(tuple(ConjugateSymmetry(g, ordering) for g in group.generators),
                         group.cap, coding)


def partitions_isomorphic(p1: OrbitPartition, p2: OrbitPartition,
                          ordering: LexOrdering) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Does π = `ordering.unranks` map every block of p1 exactly onto a block of p2?

    Returns (True, tau) with the witness block bijection, or (False, None).
    On lex codes: with as many blocks and solutions on both sides, it is so
    iff π maps every solution of p1 to one of p2 and each block of p1 into
    one block of p2.
    """
    if {p1.group.coding.domains, p2.group.coding.domains} != {ordering.domains}:
        raise InputError(f"permutation acts on domains {ordering.domains}, partitions on others")
    if len(p1) != len(p2) or len(p1.codes) != len(p2.codes):
        return False, None
    block = dict(zip(p2.codes, p2.block_of))
    pairs = dict.fromkeys(zip(p1.block_of, map(block.get, ordering.unranks(p1.codes))))
    position = {first: k for k, first in enumerate(p2.firsts)}
    tau = tuple(position.get(target) for _, target in pairs)
    if len(pairs) != len(p1) or None in tau:
        return False, None
    return True, tau


# ---------------------------------------------------------------------------
# matrix-model generators and serialization


def row_col_generators(shape: tuple[int, int],
                       coding: Optional[LexOrdering] = None) -> tuple[LiteralSymmetry, ...]:
    """Adjacent row transpositions, then adjacent column ones, of an r x c matrix
    model over `coding` (binary by default); each swaps every cell x of a row
    (column) with cell x + step."""
    r, c = shape
    check_shape(shape, r * c if coding is None else coding.n)
    coding = coding or LexOrdering(binary_domains(r * c))
    swaps = ([(range(k * c, (k + 1) * c), c) for k in range(r - 1)]
             + [(range(k, r * c, c), 1) for k in range(c - 1)])
    gens = []
    for cells, step in swaps:
        perm = list(range(r * c))
        for x in cells:
            perm[x], perm[x + step] = x + step, x
        gens.append(LiteralSymmetry.variable(perm, coding))
    return tuple(gens)


def row_col_group(shape: tuple[int, int]) -> SymmetryGroup:
    check_shape(shape, shape[0] * shape[1])
    coding = LexOrdering(binary_domains(shape[0] * shape[1]))
    return SymmetryGroup(row_col_generators(shape, coding), coding=coding)


def _literal_from_dict(data: dict, coding: LexOrdering) -> LiteralSymmetry:
    _, perm, maps = read_fields(data, "literal symmetry", ("kind",), ("var_perm", [int]),
                                ("val_maps", [[[int]]], ABSENT))
    if maps is ABSENT:
        return LiteralSymmetry.variable(perm, coding)
    if any(len(pair) != 2 for pairs in maps for pair in pairs):
        raise InputError("val_maps entries must be [value, image] pairs")
    return LiteralSymmetry.from_maps(perm, [dict(pairs) for pairs in maps], coding)


def symmetry_group_from_dict(data: dict, domains: Sequence[Domain]) -> SymmetryGroup:
    """The group of a symmetry file over these domains, on one coding of them."""
    entries, cap = read_fields(data, "symmetry file", ("generators", [dict]),
                               ("cap", int, DEFAULT_CLOSURE_CAP))
    coding = LexOrdering(domains)
    gens: list[LiteralSymmetry] = []
    for k, entry in enumerate(entries):
        kind = read_field(entry, "generator", "kind")
        try:
            if kind == "literal":
                gens.append(_literal_from_dict(entry, coding))
            elif kind == "row_col":
                _, rows, cols = read_fields(entry, "row_col generator", ("kind",),
                                            ("rows", int), ("cols", int))
                gens.extend(row_col_generators((rows, cols), coding))
            else:
                raise InputError(f"unknown generator kind '{kind}'")
        except InputError as exc:
            raise InputError(f"generator {k}: {exc}") from exc
    return SymmetryGroup(tuple(gens), cap=cap, coding=coding)


def load_symmetry_group(path, domains: Sequence[Domain]) -> SymmetryGroup:
    return symmetry_group_from_dict(load_json_object(path, "symmetry file"), domains)
