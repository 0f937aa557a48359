"""Desk-scale gadgets showing how leader constraints can hide hard decisions.

A gadget is an ordering and the increasing lex codes of its solutions.  Its
group is transitive on the solutions, so they are one orbit, and the
group's leader set keeps exactly their ordering-least member: each gadget
is solved by one `ranks` call and a min, and neither its group nor a
problem is built.  The test suite builds both and checks that claim
against the orbit kernel and independent brute-force deciders.

* the *ordering gadget*: the clause indices of a 1-in-3 instance, then a
  flag bit, with the flag's value swap as its group.  Its ordering is lex
  after a bijection that embeds 1-in-3 satisfiability, so the survivor's
  flag decides it;
* the *group gadget*: phi's models plus the all-zero vector, with Sym(S)
  on that set S as its group and reverse lex as its ordering, so a
  polynomial comparator's leader constraints decide CNF satisfiability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .model import (
    InputError,
    binary_domains,
    load_json_object,
    read_fields,
)
from .orderings import LexOrdering, RevLexOrdering

MAX_ONE_IN_THREE_VARS = 12
MAX_GROUP_GADGET_VARS = 10

SAT, UNSAT = "SAT", "UNSAT"


@dataclass(frozen=True)
class Gadget:
    """An instance, the gadget's ordering, and the increasing lex codes of
    the gadget's solutions, on which its group is transitive."""

    instance: Union[OneInThreeInstance, Cnf]
    ordering: LexOrdering
    solutions: tuple[int, ...]


def least_solution(gadget: Gadget) -> int:
    """The solution the group's leader set keeps, the ordering-least."""
    return min(zip(gadget.ordering.ranks(list(gadget.solutions)), gadget.solutions))[1]


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


class OneInThreeOrdering(LexOrdering):
    """Orders gadget assignments: lex after flipping the flag whenever the
    prefix spells out an instance that is not 1-in-3 satisfiable, so a
    satisfiable prefix puts flag 0 first and an unsatisfiable one flag 1.

    The flag is the last variable and binary, so it is bit 0 of the lex
    code and the prefix's code is code >> 1.  The rule keeps the prefix, so
    it is its own inverse, but computing it embeds an NP-hard decision,
    answered by brute force at this scale once per distinct prefix a call
    ranks.
    """

    name = "one-in-three"

    def ranks(self, codes: list[int]) -> list[int]:
        prefixes = list({c >> 1 for c in codes})
        satisfiable = {p for p, a in zip(prefixes, self.decode([p << 1 for p in prefixes]))
                       if one_in_three_satisfiable(OneInThreeInstance(
                           tuple(a[i:i + 3] for i in range(0, len(a) - 1, 3))))}
        return [c if c >> 1 in satisfiable else c ^ 1 for c in codes]

    unranks = ranks


def ordering_gadget(inst: OneInThreeInstance) -> Gadget:
    """Each clause index pinned, then the free flag bit: two solutions,
    flag 0 and flag 1 after the same prefix."""
    flag = 3 * len(inst.clauses)  # after the clause indices
    ordering = OneInThreeOrdering((tuple(range(1, inst.num_vars + 1)),) * flag + ((0, 1),))
    (code,) = ordering.codes([(*itertools.chain.from_iterable(inst.clauses), 0)])
    return Gadget(inst, ordering, (code, code + 1))


def solve_ordering_gadget(gadget: Gadget) -> tuple[str, int]:
    """The verdict and the lex code of the one solution that survives the
    flag swap's leader constraint; its flag, bit 0, is 0 exactly when the
    encoded instance is satisfiable."""
    survivor = least_solution(gadget)
    return (UNSAT if survivor & 1 else SAT), survivor


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


def cnf_model_codes(phi: Cnf, codes: Optional[Iterable[int]] = None) -> list[int]:
    """The lex codes among `codes` (by default every code over phi's
    variables, increasing) of phi's models, in their order.  Variable i is
    bit w-1-i of a code, so a code falsifies a clause iff it sets none of
    the clause's positive variables and all of its negative ones: c & (pos |
    neg) == neg.  A clause holding x and -x is never falsified."""
    width = phi.num_vars
    models = range(1 << width) if codes is None else codes
    for clause in phi.clauses:
        pos = neg = 0
        for lit in clause:
            if lit > 0:
                pos |= 1 << (width - lit)
            else:
                neg |= 1 << (width + lit)
        if not pos & neg:
            models = [c for c in models if c & (pos | neg) != neg]
    return list(models)


def cnf_satisfiable(phi: Cnf) -> bool:
    return bool(cnf_model_codes(phi))


def group_gadget(phi: Cnf) -> Gadget:
    width = phi.num_vars
    if width > MAX_GROUP_GADGET_VARS:
        raise InputError(f"gadget width above {MAX_GROUP_GADGET_VARS}")
    models = cnf_model_codes(phi)
    return Gadget(phi, RevLexOrdering(binary_domains(width)),
                  tuple(models if models[:1] == [0] else [0, *models]))


def solve_group_gadget(gadget: Gadget) -> str:
    """The survivor being all-zero and falsifying phi means UNSAT; anything
    else means SAT."""
    return SAT if least_solution(gadget) or cnf_model_codes(gadget.instance, [0]) else UNSAT


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
