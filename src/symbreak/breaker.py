"""Leader-style symmetry-breaking constraints for arbitrary total orderings.

A leader constraint keeps an assignment only if it precedes (or equals) its
image under one symmetry; posting one per group element keeps exactly the
ordering-minimum of every orbit.  Posting one per generator is cheaper and
still sound but may keep extra members.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import Assignment, Domain, InputError, binary_domains
from .orderings import GT, LT, LexOrdering, SimpleOrdering, applicable_orderings
from .symmetry import (
    OrbitPartition,
    Symmetry,
    SymmetryGroup,
    orbits,
    row_col_generators,
)

PROVENANCES = ("full-group", "generators-only", "doublelex", "mapped")


@dataclass(frozen=True)
class LeaderConstraint:
    """Satisfied by a iff a precedes-or-equals sigma(a) under the ordering."""

    sigma: Symmetry
    ordering: SimpleOrdering

    def satisfied(self, a: Sequence[int]) -> bool:
        return self.ordering.compare(a, self.sigma.apply(a)) != GT


@dataclass(frozen=True)
class SymmetryBreakingSet:
    """Conjunction of leader constraints, or an extensional satisfying set."""

    constraints: tuple[LeaderConstraint, ...]
    provenance: str
    allowed: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise InputError(f"unknown provenance '{self.provenance}'")

    def satisfied(self, a: Sequence[int]) -> bool:
        if self.allowed is not None:
            return tuple(a) in self.allowed
        return all(con.satisfied(a) for con in self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)


def extensional_set(satisfying: Iterable[Assignment],
                    provenance: str = "mapped") -> SymmetryBreakingSet:
    return SymmetryBreakingSet((), provenance, frozenset(tuple(a) for a in satisfying))


def leader_constraints(group: SymmetryGroup, ordering: SimpleOrdering,
                       mode: str = "full") -> SymmetryBreakingSet:
    """One leader constraint per group element (full) or per generator.

    Identity elements contribute nothing and are omitted.
    """
    if mode == "full":
        elements: Sequence[Symmetry] = group.closure()
        provenance = "full-group"
    elif mode == "generators":
        elements = group.generators
        provenance = "generators-only"
    else:
        raise InputError(f"unknown mode '{mode}' (use 'full' or 'generators')")
    cons = tuple(LeaderConstraint(s, ordering) for s in elements if not s.is_identity())
    return SymmetryBreakingSet(cons, provenance)


def filter_solutions(solutions: Sequence[Assignment],
                     bset: SymmetryBreakingSet) -> list[Assignment]:
    """Subset satisfying the whole set; input order preserved."""
    return [a for a in solutions if bset.satisfied(a)]


@dataclass(frozen=True)
class Verdict:
    """Survivors of one breaking set in each block of one orbit partition.

    Sound means every orbit keeps a member, complete that none keeps two.
    """

    kept: tuple[tuple[Assignment, ...], ...]  # per block, in block order

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.kept)

    @property
    def sound(self) -> bool:
        return all(c >= 1 for c in self.counts)

    @property
    def complete(self) -> bool:
        return all(c <= 1 for c in self.counts)


def orbit_verdict(partition: OrbitPartition, bset: SymmetryBreakingSet) -> Verdict:
    """Judge a breaking set against a partition; `bset` runs once per member."""
    return Verdict(tuple(tuple(a for a in block if bset.satisfied(a))
                         for block in partition.blocks))


def per_orbit_survivors(solutions: Sequence[Assignment], bset: SymmetryBreakingSet,
                        group: SymmetryGroup) -> tuple[OrbitPartition, tuple[int, ...]]:
    partition = orbits(solutions, group)
    return partition, orbit_verdict(partition, bset).counts


def is_sound(solutions: Sequence[Assignment], bset: SymmetryBreakingSet,
             group: SymmetryGroup) -> bool:
    """At least one survivor in every orbit."""
    return orbit_verdict(orbits(solutions, group), bset).sound


def is_complete(solutions: Sequence[Assignment], bset: SymmetryBreakingSet,
                group: SymmetryGroup) -> bool:
    """At most one survivor in every orbit."""
    return orbit_verdict(orbits(solutions, group), bset).complete


def min_in_class(a: Assignment, group: SymmetryGroup, ordering: SimpleOrdering) -> bool:
    """Is `a` the smallest member of its orbit under the ordering?

    Decided by enumerating the orbit; orbits larger than the group's cap
    raise rather than answer.
    """
    return not any(ordering.compare(b, a) == LT for b in group.orbit_of(a))


def doublelex_constraints(shape: Optional[tuple[int, int]],
                          domains: Optional[Sequence[Domain]] = None) -> SymmetryBreakingSet:
    """Adjacent rows and adjacent columns lex-ordered, for a matrix model.

    Expressed as leader constraints under the row-major lex ordering with the
    corresponding adjacent row/column transpositions.
    """
    if shape is None:
        raise InputError("doublelex needs a matrix shape")
    r, c = shape
    doms = tuple(domains) if domains is not None else binary_domains(r * c)
    ordering = LexOrdering(doms)
    cons = tuple(LeaderConstraint(g, ordering) for g in row_col_generators(shape, doms))
    return SymmetryBreakingSet(cons, "doublelex")


COMPARE_HEADERS = ("ordering", "method", "constraints", "survivors", "orbits",
                   "sound", "complete")


def compare_table(solutions: Sequence[Assignment], group: SymmetryGroup,
                  domains: Sequence[Domain], shape: Optional[tuple[int, int]]) -> list[tuple]:
    """One COMPARE_HEADERS row per breaking set, all judged on one partition.

    Every ordering defined on the domains is posted both leader-full and
    leader-generators, then doublelex when there is a shape.  The ordering
    only picks which member of an orbit survives, so the orbits are
    computed once.
    """
    sets = [(ordering.name, method, leader_constraints(group, ordering, mode))
            for ordering in applicable_orderings(domains, shape)
            for method, mode in (("leader-full", "full"), ("leader-generators", "generators"))]
    if shape is not None:
        sets.append(("lex", "doublelex", doublelex_constraints(shape, domains)))
    # after the sets, so a closure over its cap is reported ahead of an orbit error
    partition = orbits(solutions, group)
    rows = []
    for name, method, bset in sets:
        verdict = orbit_verdict(partition, bset)
        rows.append((name, method, len(bset), sum(verdict.counts), len(partition),
                     verdict.sound, verdict.complete))
    return rows
