"""Per-assignment reference checkers that only the tests call.

The CLI answers these questions through the orbit kernel (`orbits` and
`breaker.orbit_verdict`) or never asks them; here each is stated directly,
so the tests can check the kernel and the library against them.  The file
name keeps pytest from collecting it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from symbreak.breaker import SymmetryBreakingSet, orbit_verdict
from symbreak.gray import GrayDecomposition
from symbreak.model import Assignment, InputError, Problem, check_shape, check_values
from symbreak.orderings import LT, AssignmentPermutation, SimpleOrdering, snake_variable_order
from symbreak.symmetry import SymmetryGroup, _orbit_search, orbits


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


def dense_orbit_of(group: SymmetryGroup, a: Assignment) -> tuple[Assignment, ...]:
    """The orbit of `a` by applying every generator at every point, in search
    order; more than the group's cap of points raises CapExceededError."""
    gens = group.generators
    return tuple(_orbit_search(tuple(a), lambda b: [g.apply(b) for g in gens], cap=group.cap))


def check_assignment(problem: Problem, assignment: Sequence[int]) -> bool:
    """True iff the assignment satisfies every constraint of the problem."""
    if len(assignment) != problem.n:
        raise InputError(f"assignment has arity {len(assignment)}, problem has {problem.n}")
    check_values(problem.domains, enumerate(assignment))
    return all(con.satisfied(assignment) for con in problem.constraints)


def snake_vectorize(values: Sequence[int], shape: Optional[tuple[int, int]]) -> tuple[int, ...]:
    """Serpentine read of a row-major matrix: col 0 top-down, col 1 bottom-up, ..."""
    if shape is None:
        raise InputError("snake vectorization needs a matrix shape")
    check_shape(shape, len(values))
    return tuple(values[v] for v in snake_variable_order(shape))


def is_berge_acyclic_chain(decomp: GrayDecomposition) -> bool:
    """Structural check: position blocks form a chain sharing one state each."""
    scopes = [set(con.scope) for _, con in decomp.propagators if len(con.scope) > 1]
    for i, si in enumerate(scopes):
        for j in range(i + 1, len(scopes)):
            overlap = si & scopes[j]
            if j == i + 1:
                if overlap != {decomp.state(i + 1)}:
                    return False
            elif overlap:
                return False
    return True


def map_constraint_set(pi: AssignmentPermutation,
                       satisfying: Iterable[Assignment]) -> frozenset:
    """Image of an extensionally given constraint set under pi."""
    return frozenset(pi.forward(a) for a in satisfying)
