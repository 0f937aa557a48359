"""Desk-scale gadgets showing how leader constraints can hide hard decisions.

Two constructions, both solved exhaustively here and cross-checked against
independent brute-force deciders in the test suite:

* the *ordering gadget*: a single value-swap symmetry whose leader constraint
  decides 1-in-3 satisfiability, because its ordering is lex after a
  bijection that embeds that question;
* the *group gadget*: a polynomial comparator (reverse lex) whose leader
  constraints decide CNF satisfiability, because the group glues all
  solutions into one orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Optional, Sequence

from .breaker import LeaderConstraint
from .model import (
    Assignment,
    Domain,
    InputError,
    InvariantViolationError,
    Problem,
    TableConstraint,
    UnaryConstraint,
    binary_domains,
    binary_problem,
    enumerate_solutions,
    load_json_object,
    _reject_unknown,
    _require,
)
from .orderings import RevLexOrdering, SimpleOrdering
from .symmetry import AssignmentSymmetry, LiteralSymmetry, SymmetryGroup, orbits

MAX_ONE_IN_THREE_VARS = 12
MAX_GROUP_GADGET_VARS = 10

SAT, UNSAT = "SAT", "UNSAT"


# ---------------------------------------------------------------------------
# 1-in-3 instances and the ordering gadget


@dataclass(frozen=True)
class OneInThreeInstance:
    """Positive 3-clauses; a model must make exactly one literal per clause true."""

    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise InputError("instance needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 3 or any(v < 1 for v in clause):
                raise InputError(f"bad clause {clause}: need three indices >= 1")
        if self.num_vars > MAX_ONE_IN_THREE_VARS:
            raise InputError(f"more than {MAX_ONE_IN_THREE_VARS} variables")

    @property
    def num_vars(self) -> int:
        return max(v for clause in self.clauses for v in clause)


def one_in_three_satisfiable(inst: OneInThreeInstance) -> bool:
    """Brute force over all truth assignments."""
    for bits in itertools.product((0, 1), repeat=inst.num_vars):
        if all(bits[i - 1] + bits[j - 1] + bits[k - 1] == 1 for i, j, k in inst.clauses):
            return True
    return False


class OneInThreeOrdering(SimpleOrdering):
    """Orders gadget assignments: lex after flipping the flag digit whenever
    the prefix spells out an instance that is not 1-in-3 satisfiable, so a
    satisfiable prefix puts flag 0 first and an unsatisfiable one flag 1.

    The map keeps the prefix, so it is its own inverse, but computing it
    embeds an NP-hard decision, answered by brute force at this scale once
    per prefix.
    """

    name = "one-in-three"

    def __init__(self, domains: Sequence[Domain]):
        super().__init__(domains)
        self._satisfiable: dict[tuple[int, ...], bool] = {}

    def digits(self, p: tuple[int, ...]) -> tuple[int, ...]:
        prefix = p[:-1]
        if prefix not in self._satisfiable:
            values = tuple(map(getitem, self.domains, prefix))
            self._satisfiable[prefix] = one_in_three_satisfiable(OneInThreeInstance(
                tuple(values[i:i + 3] for i in range(0, len(values), 3))))
        return p if self._satisfiable[prefix] else prefix + (1 - p[-1],)

    undigits = digits


@dataclass(frozen=True)
class OrderingGadget:
    """3m index variables fixed by unary constraints, plus one free flag bit."""

    instance: OneInThreeInstance
    problem: Problem
    flip: LiteralSymmetry  # swaps 0/1 on the flag bit
    ordering: OneInThreeOrdering


def ordering_gadget(inst: OneInThreeInstance) -> OrderingGadget:
    m = len(inst.clauses)
    n = 3 * m + 1
    flag = n - 1
    index_domain = tuple(range(1, inst.num_vars + 1))
    domains = (index_domain,) * (3 * m) + ((0, 1),)
    constraints = []
    for p, (i, j, k) in enumerate(inst.clauses):
        constraints.append(UnaryConstraint(3 * p, i))
        constraints.append(UnaryConstraint(3 * p + 1, j))
        constraints.append(UnaryConstraint(3 * p + 2, k))
    problem = Problem(n, domains, tuple(constraints))
    flip = LiteralSymmetry.value_swap(flag, 0, 1, domains)
    return OrderingGadget(inst, problem, flip, OneInThreeOrdering(domains))


def solve_ordering_gadget(gadget: OrderingGadget) -> str:
    """Solve the gadget with its leader constraint posted; read the flag bit.

    Exactly one assignment survives; flag 0 means the encoded instance is
    satisfiable.
    """
    leader = LeaderConstraint(gadget.flip, gadget.ordering)
    survivors = [a for a in enumerate_solutions(gadget.problem) if leader.satisfied(a)]
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"ordering gadget left {len(survivors)} solutions, expected 1")
    return SAT if survivors[0][-1] == 0 else UNSAT


# ---------------------------------------------------------------------------
# CNF and the group gadget


@dataclass(frozen=True)
class Cnf:
    """Clauses as nonzero signed variable indices (1-based)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise InputError("CNF needs at least one variable")
        for clause in self.clauses:
            if not clause:
                raise InputError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise InputError(f"bad literal {lit}")

    def satisfied_by(self, bits: Sequence[int]) -> bool:
        return all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause)
                   for clause in self.clauses)


def cnf_models(phi: Cnf, n: Optional[int] = None) -> list[Assignment]:
    """All models over n >= phi.num_vars binary variables, lex order."""
    width = phi.num_vars if n is None else n
    if width < phi.num_vars:
        raise InputError("model width below the CNF's variable count")
    return [bits for bits in itertools.product((0, 1), repeat=width)
            if phi.satisfied_by(bits)]


def cnf_satisfiable(phi: Cnf) -> bool:
    return any(phi.satisfied_by(bits)
               for bits in itertools.product((0, 1), repeat=phi.num_vars))


@dataclass(frozen=True)
class GroupGadget:
    """Solutions = models(phi) plus the all-zero vector, glued into one orbit
    by a chain of solution transpositions; ordering = reverse lex."""

    phi: Cnf
    n: int
    problem: Problem
    group: SymmetryGroup
    ordering: RevLexOrdering
    solutions: tuple[Assignment, ...]


def group_gadget(phi: Cnf, n: Optional[int] = None) -> GroupGadget:
    width = phi.num_vars if n is None else n
    if width < phi.num_vars:
        raise InputError("gadget width below the CNF's variable count")
    if width > MAX_GROUP_GADGET_VARS:
        raise InputError(f"gadget width above {MAX_GROUP_GADGET_VARS}")
    zero = (0,) * width
    solutions = tuple(sorted(set(cnf_models(phi, width)) | {zero}))
    problem = binary_problem(width,
                             [TableConstraint(tuple(range(width)), frozenset(solutions))])
    generators = tuple(AssignmentSymmetry.transposition(solutions[i], solutions[i + 1])
                       for i in range(len(solutions) - 1))
    group = SymmetryGroup(generators)
    return GroupGadget(phi, width, problem, group,
                       RevLexOrdering(binary_domains(width)), solutions)


def solve_group_gadget(gadget: GroupGadget) -> str:
    """Filter the gadget's solutions by the group's leader constraints.

    The closure of the transposition chain is the full symmetric group on
    the solution set, so a solution satisfies every closure element's leader
    constraint iff it is the ordering-minimum of its orbit; the survivors are
    therefore the per-orbit minima, computed without materializing the
    (factorially large) closure.  The unique survivor being all-zero and
    falsifying phi means UNSAT; anything else means SAT.
    """
    partition = orbits(enumerate_solutions(gadget.problem), gadget.group)
    survivors = [gadget.ordering.minimum(block) for block in partition.blocks]
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"group gadget left {len(survivors)} solutions, expected 1")
    winner = survivors[0]
    if winner == (0,) * gadget.n:
        return SAT if gadget.phi.satisfied_by(winner) else UNSAT
    return SAT


# ---------------------------------------------------------------------------
# instance files


def one_in_three_from_dict(data: dict) -> OneInThreeInstance:
    _reject_unknown(data, {"clauses"}, "1-in-3 instance")
    return OneInThreeInstance(tuple(tuple(c) for c in
                                    _require(data, "clauses", "1-in-3 instance", [[int]])))


def cnf_from_dict(data: dict) -> Cnf:
    _reject_unknown(data, {"n", "clauses"}, "CNF instance")
    return Cnf(_require(data, "n", "CNF instance", int),
               tuple(tuple(c) for c in _require(data, "clauses", "CNF instance", [[int]])))


def load_one_in_three(path) -> OneInThreeInstance:
    return one_in_three_from_dict(load_json_object(path, "1-in-3 instance file"))


def load_cnf(path) -> Cnf:
    return cnf_from_dict(load_json_object(path, "CNF instance file"))
