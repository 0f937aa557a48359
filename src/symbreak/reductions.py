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
from operator import itemgetter
from typing import Sequence

from .breaker import leader_constraints, orbit_verdict
from .model import (
    Assignment,
    Domain,
    InputError,
    InvariantViolationError,
    Problem,
    TableConstraint,
    binary_domains,
    binary_problem,
    enumerate_solutions,
    load_json_object,
    read_fields,
    unary,
)
from .orderings import LexOrdering, RevLexOrdering, SimpleOrdering
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
    return any(all(bits[i - 1] + bits[j - 1] + bits[k - 1] == 1 for i, j, k in inst.clauses)
               for bits in itertools.product((0, 1), repeat=inst.num_vars))


class OneInThreeOrdering(SimpleOrdering):
    """Orders gadget assignments: lex after flipping the flag whenever the
    prefix spells out an instance that is not 1-in-3 satisfiable, so a
    satisfiable prefix puts flag 0 first and an unsatisfiable one flag 1.

    The flag is the last variable and binary, so it is bit 0 of the lex
    code and the prefix's code is code >> 1.  The rule keeps the prefix, so
    it is its own inverse, but computing it embeds an NP-hard decision,
    answered by brute force at this scale once per prefix.
    """

    name = "one-in-three"

    def __init__(self, domains: Sequence[Domain]):
        super().__init__(domains)
        self._satisfiable: dict[int, bool] = {}  # by the prefix's code

    def ranks(self, codes: list[int]) -> list[int]:
        return [c if self._prefix_satisfiable(c >> 1) else c ^ 1 for c in codes]

    unranks = ranks

    def _prefix_satisfiable(self, prefix: int) -> bool:
        if prefix not in self._satisfiable:
            values = self.decode([prefix << 1])[0][:-1]
            self._satisfiable[prefix] = one_in_three_satisfiable(OneInThreeInstance(
                tuple(values[i:i + 3] for i in range(0, len(values), 3))))
        return self._satisfiable[prefix]


@dataclass(frozen=True)
class OrderingGadget:
    """3m index variables fixed by unary constraints, plus one free flag bit."""

    instance: OneInThreeInstance
    problem: Problem
    flip: LiteralSymmetry  # swaps 0/1 on the flag bit
    ordering: OneInThreeOrdering


def ordering_gadget(inst: OneInThreeInstance) -> OrderingGadget:
    flag = 3 * len(inst.clauses)  # after the clause indices
    domains = (tuple(range(1, inst.num_vars + 1)),) * flag + ((0, 1),)
    problem = Problem(flag + 1, domains, tuple(unary(3 * p + q, v)
                                               for p, clause in enumerate(inst.clauses)
                                               for q, v in enumerate(clause)))
    flip = LiteralSymmetry.value_swap(flag, 0, 1, LexOrdering(domains))
    return OrderingGadget(inst, problem, flip, OneInThreeOrdering(domains))


def solve_ordering_gadget(gadget: OrderingGadget) -> tuple[str, Assignment]:
    """Solve the gadget with its leader constraint posted; read the flag bit.

    The gadget has two solutions, one orbit of the flag swap; the orbit
    kernel judges the swap's leader constraint on them.  Returns the verdict
    and the one assignment that survives; flag 0 means the encoded instance
    is satisfiable.
    """
    group = SymmetryGroup((gadget.flip,))
    partition = orbits(enumerate_solutions(gadget.problem, 2), group)
    verdict = orbit_verdict(partition, leader_constraints(group, gadget.ordering, "generators"))
    survivors = group.coding.decode([c for kept in verdict.kept for c in kept])
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"ordering gadget left {len(survivors)} solutions, expected 1")
    return (SAT if survivors[0][-1] == 0 else UNSAT), survivors[0]


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


def cnf_models(phi: Cnf) -> list[Assignment]:
    """All models over phi's variables, lex order.  Bits falsify a clause iff their
    values at its variables (one `itemgetter`) equal its falsifier; x, -x has none."""
    models = list(itertools.product((0, 1), repeat=phi.num_vars))
    for clause in phi.clauses:
        get = itemgetter(*(abs(lit) - 1 for lit in clause))
        bad = tuple(int(lit < 0) for lit in clause) if len(clause) > 1 else int(clause[0] < 0)
        models = [bits for bits in models if get(bits) != bad]
    return models


def cnf_satisfiable(phi: Cnf) -> bool:
    return bool(cnf_models(phi))


@dataclass(frozen=True)
class GroupGadget:
    """Solutions = models(phi) plus the all-zero vector, as increasing lex codes,
    glued into one orbit by a chain of solution transpositions; ordering = reverse lex."""

    phi: Cnf
    problem: Problem
    group: SymmetryGroup
    ordering: RevLexOrdering
    solutions: tuple[int, ...]


def group_gadget(phi: Cnf) -> GroupGadget:
    width = phi.num_vars
    if width > MAX_GROUP_GADGET_VARS:
        raise InputError(f"gadget width above {MAX_GROUP_GADGET_VARS}")
    models = set(cnf_models(phi)) | {(0,) * width}
    problem = binary_problem(width, [TableConstraint(tuple(range(width)), frozenset(models))])
    coding = LexOrdering(binary_domains(width))
    codes = tuple(sorted(coding.codes(list(models))))
    group = SymmetryGroup(tuple(AssignmentSymmetry({a: b, b: a}, coding)
                                for a, b in zip(codes, codes[1:])), coding=coding)
    return GroupGadget(phi, problem, group, RevLexOrdering(coding.domains), codes)


def solve_group_gadget(gadget: GroupGadget) -> str:
    """Filter the gadget's solutions by the group's leader constraints.

    The closure of the transposition chain is the full symmetric group on
    the solution set, so a solution satisfies every closure element's leader
    constraint iff it is the ordering-minimum of its orbit; the survivors are
    therefore the per-orbit minima, computed without materializing the
    (factorially large) closure.  The unique survivor being all-zero and
    falsifying phi means UNSAT; anything else means SAT.
    """
    codes = enumerate_solutions(gadget.problem)
    if len(gadget.group.orbit_of(codes[0])) != len(codes):
        raise InvariantViolationError("group gadget's solutions form more than one orbit")
    ranks = gadget.ordering.ranks(codes)
    if codes[ranks.index(min(ranks))] == 0:  # the all-zero assignment
        return SAT if gadget.phi.satisfied_by((0,) * gadget.phi.num_vars) else UNSAT
    return SAT


# ---------------------------------------------------------------------------
# instance files


def one_in_three_from_dict(data: dict) -> OneInThreeInstance:
    (clauses,) = read_fields(data, "1-in-3 instance", ("clauses", [[int]]))
    return OneInThreeInstance(tuple(map(tuple, clauses)))


def cnf_from_dict(data: dict) -> Cnf:
    n, clauses = read_fields(data, "CNF instance", ("n", int), ("clauses", [[int]]))
    return Cnf(n, tuple(map(tuple, clauses)))


def load_one_in_three(path) -> OneInThreeInstance:
    return one_in_three_from_dict(load_json_object(path, "1-in-3 instance file"))


def load_cnf(path) -> Cnf:
    return cnf_from_dict(load_json_object(path, "CNF instance file"))
