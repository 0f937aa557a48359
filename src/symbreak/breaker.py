"""Leader-style symmetry-breaking constraints for arbitrary total orderings.

A leader constraint keeps an assignment only if it precedes (or equals) its
image under one symmetry; posting one per group element keeps exactly the
ordering-minimum of every orbit.  Posting one per generator is cheaper and
still sound but may keep extra members.  A verdict on a partition into
orbits needs no group element for the full set: its survivors are each
block's minimum (see `_judge`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .model import Assignment, Domain, InputError, binary_domains
from .orderings import LexOrdering, SimpleOrdering, applicable_orderings
from .symmetry import (
    OrbitPartition,
    Symmetry,
    SymmetryGroup,
    orbits,
    row_col_generators,
)

@dataclass(frozen=True)
class LeaderConstraint:
    """Satisfied by a iff a precedes-or-equals sigma(a) under the ordering."""

    sigma: Symmetry
    ordering: SimpleOrdering

    def satisfied(self, a: Sequence[int]) -> bool:
        if self.ordering.domains != self.sigma.coding.domains:
            raise InputError("ordering and symmetry act on different domains")
        code = self.sigma.coding.codes([a])
        rank, image = self.ordering.ranks(code + self.sigma.image_codes(code))
        return rank <= image


@dataclass(frozen=True)
class SymmetryBreakingSet:
    """Conjunction of leader constraints, or an extensional satisfying set,
    or the leader-full set of `full` = (group, ordering): one constraint per
    element after the identity, built only when `constraints` is read."""

    posted: tuple[LeaderConstraint, ...] = ()
    allowed: Optional[frozenset] = None
    full: Optional[tuple[SymmetryGroup, SimpleOrdering]] = None

    @cached_property
    def constraints(self) -> tuple[LeaderConstraint, ...]:
        if self.full is None:
            return self.posted
        group, ordering = self.full
        return tuple(LeaderConstraint(s, ordering) for s in group.closure()[1:])

    def satisfied(self, a: Sequence[int]) -> bool:
        if self.allowed is not None:
            return tuple(a) in self.allowed
        return all(con.satisfied(a) for con in self.constraints)

    def __len__(self) -> int:
        return len(self.posted) if self.full is None else self.full[0].order - 1


def extensional_set(satisfying: Iterable[Assignment]) -> SymmetryBreakingSet:
    return SymmetryBreakingSet((), frozenset(tuple(a) for a in satisfying))


def leader_constraints(group: SymmetryGroup, ordering: SimpleOrdering,
                       mode: str = "full") -> SymmetryBreakingSet:
    """One leader constraint per group element (full) or per generator.

    Identity elements contribute nothing and are omitted.  The full set
    refers to the group, and its length is |G| - 1: the group's stabilizer
    chain is built here for that order, under the group's cap, so that an
    overflow is raised ahead of any orbit error; no element is built.
    """
    if mode == "full":
        group.order  # the chain, so that a cap overflow is raised here
        return SymmetryBreakingSet(full=(group, ordering))
    if mode != "generators":
        raise InputError(f"unknown mode '{mode}' (use 'full' or 'generators')")
    return SymmetryBreakingSet(tuple(LeaderConstraint(s, ordering)
                                     for s in group.generators if not s.is_identity()))


def filter_solutions(solutions: Sequence[Assignment],
                     bset: SymmetryBreakingSet) -> list[Assignment]:
    """Subset satisfying the whole set; input order preserved."""
    return [a for a in solutions if bset.satisfied(a)]


@dataclass(frozen=True)
class Verdict:
    """Survivors of one breaking set in each block of one orbit partition,
    as lex codes.

    Sound means every orbit keeps a member, complete that none keeps two.
    """

    kept: tuple[tuple[int, ...], ...]  # per block, in block order

    @cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.kept)

    @property
    def sound(self) -> bool:
        return all(c >= 1 for c in self.counts)

    @property
    def complete(self) -> bool:
        return all(c <= 1 for c in self.counts)


def orbit_verdict(partition: OrbitPartition, bset: SymmetryBreakingSet) -> Verdict:
    """Judge a breaking set against a partition (see `_judge`)."""
    return _judge(partition, [bset])[0]


def _judge(partition: OrbitPartition,
           bsets: Sequence[SymmetryBreakingSet]) -> list[Verdict]:
    """Verdicts of breaking sets on one partition, over solution indices.

    Each posted ordering, over the coding's domains as listed, ranks the
    solutions once, by its `ranks` rule on their lex codes.  A leader constraint (sigma,
    ordering) keeps index i iff rank[i] <= the rank of sigma's image of
    solution i: for a generator a lookup, rank[img[i]] with img the
    partition's image list, and for any other sigma over the coding's
    domains its `image_codes` ranked by the same rule.  Every posted constraint is tested, on the
    indices still alive.  A leader-full set of a group with the partition's generators
    keeps each block's least-ranked member: `orbits` refused any image
    outside the solutions, so the block of i is its orbit G·i, and i passes
    every element's constraint iff nothing in G·i ranks below it."""
    codes, lists = partition.codes, partition.images
    gens, coding = partition.group.generators, partition.group.coding
    idx = list(range(len(codes)))
    posted, alive = {}, []  # posted: ordering -> [(set, sigma, or None for the block minima)]
    for n, bset in enumerate(bsets):
        allowed = None if bset.allowed is None else set(coding.codes(list(bset.allowed)))
        alive.append(idx if allowed is None else [i for i in idx if codes[i] in allowed])
        if bset.full is not None and bset.full[0].generators == gens:
            posted.setdefault(bset.full[1], []).append((n, None))
            continue
        for con in bset.constraints if allowed is None else ():
            posted.setdefault(con.ordering, []).append((n, con.sigma))
    for ordering, judged in posted.items():  # one ordering's ranks at a time
        if ordering.domains != coding.domains:
            raise InputError("ordering and partition act on different domains")
        rank = ordering.ranks(codes)
        for n, sigma in judged:
            if sigma is None:
                alive[n] = [min(block, key=rank.__getitem__) for block in partition.members]
            elif sigma in gens:
                img = lists[gens.index(sigma)]
                alive[n] = [i for i in alive[n] if rank[i] <= rank[img[i]]]
            elif sigma.coding.domains != coding.domains:
                raise InputError("symmetry and codes act on different domains")
            else:
                kept = alive[n]
                images = sigma.image_codes([codes[i] for i in kept])
                alive[n] = [i for i, r in zip(kept, ordering.ranks(images)) if rank[i] <= r]
    return [Verdict(partition.grouped(kept)) for kept in alive]


def per_orbit_survivors(codes: Sequence[int], bset: SymmetryBreakingSet,
                        group: SymmetryGroup) -> tuple[OrbitPartition, tuple[int, ...]]:
    partition = orbits(codes, group)
    return partition, orbit_verdict(partition, bset).counts


def doublelex_constraints(shape: Optional[tuple[int, int]],
                          domains: Optional[Sequence[Domain]] = None) -> SymmetryBreakingSet:
    """Adjacent rows and adjacent columns lex-ordered, for a matrix model.

    Expressed as leader constraints under the row-major lex ordering with the
    corresponding adjacent row/column transpositions.
    """
    if shape is None:
        raise InputError("doublelex needs a matrix shape")
    r, c = shape
    ordering = LexOrdering(domains if domains is not None else binary_domains(r * c))
    return SymmetryBreakingSet(tuple(LeaderConstraint(g, ordering)
                                     for g in row_col_generators(shape, ordering)))


COMPARE_HEADERS = ("ordering", "method", "constraints", "survivors", "orbits",
                   "sound", "complete")


def compare_table(codes: Sequence[int], group: SymmetryGroup,
                  domains: Sequence[Domain], shape: Optional[tuple[int, int]]) -> list[tuple]:
    """One COMPARE_HEADERS row per breaking set, all judged on one partition
    of the solutions with these lex codes.

    Every ordering defined on the domains is posted both leader-full and
    leader-generators, then doublelex when there is a shape.  The ordering
    only picks which member of an orbit survives, so the orbits are
    computed once.
    """
    orderings = applicable_orderings(domains, shape)  # lex, defined everywhere, first
    sets = [(ordering.name, method, leader_constraints(group, ordering, mode))
            for ordering in orderings
            for method, mode in (("leader-full", "full"), ("leader-generators", "generators"))]
    if shape is not None:
        sets.append(("lex", "doublelex", doublelex_constraints(shape, domains)))
    # after the sets, so a closure over its cap is reported ahead of an orbit error
    partition = orbits(codes, group)
    verdicts = _judge(partition, [bset for _, _, bset in sets])
    return [(name, method, len(bset), sum(verdict.counts), len(partition),
             verdict.sound, verdict.complete)
            for (name, method, bset), verdict in zip(sets, verdicts)]
