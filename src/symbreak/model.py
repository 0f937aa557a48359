"""Finite-domain problems, assignments, and exhaustive solution enumeration.

Variables are indexed 0..n-1 and carry ordered finite domains; values are
compared by their position in the domain throughout the package.  An
assignment is a plain tuple of values, one per variable.  Matrix models
flatten row-major: cell (i, j) lives at index i*cols + j.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

Assignment = tuple[int, ...]
Domain = tuple[int, ...]

#: Refuse unbounded enumeration above this many candidate assignments.
MAX_ENUMERATION_SPACE = 2**24


class SymbreakError(Exception):
    """Base class for all toolkit errors."""


class InputError(SymbreakError):
    """Malformed problem, symmetry, ordering, or store description."""


class CapExceededError(SymbreakError):
    """An enumeration or closure grew past its configured cap."""


class UnsupportedOrderingError(InputError):
    """The requested ordering is not defined over the given domains."""


class InvariantViolationError(SymbreakError):
    """An internal guarantee failed; indicates a bug rather than bad input."""


def binary_domains(n: int) -> tuple[Domain, ...]:
    return ((0, 1),) * n


def all_assignments(domains: Sequence[Domain]) -> Iterator[Assignment]:
    """Full assignment space, lexicographic by domain position."""
    return itertools.product(*domains)


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class TableConstraint:
    """Extensional constraint: the scope's value tuple must appear in `allowed`."""

    scope: tuple[int, ...]
    allowed: frozenset[tuple[int, ...]]

    def satisfied(self, values: Sequence[int]) -> bool:
        return tuple(values[v] for v in self.scope) in self.allowed


@dataclass(frozen=True)
class Literal:
    """(var == value) when positive, (var != value) otherwise."""

    var: int
    value: int
    positive: bool = True

    def holds(self, values: Sequence[int]) -> bool:
        return (values[self.var] == self.value) == self.positive


@dataclass(frozen=True)
class ClauseConstraint:
    """Disjunction of equality/disequality literals."""

    literals: tuple[Literal, ...]

    @property
    def scope(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(lit.var for lit in self.literals))

    def satisfied(self, values: Sequence[int]) -> bool:
        return any(lit.holds(values) for lit in self.literals)


@dataclass(frozen=True)
class UnaryConstraint:
    """Fixes one variable to one value."""

    var: int
    value: int

    @property
    def scope(self) -> tuple[int, ...]:
        return (self.var,)

    def satisfied(self, values: Sequence[int]) -> bool:
        return values[self.var] == self.value


Constraint = Union[TableConstraint, ClauseConstraint, UnaryConstraint]


# ---------------------------------------------------------------------------
# problems


@dataclass(frozen=True)
class Problem:
    """A finite-domain problem: domains, constraints, optional matrix shape."""

    n: int
    domains: tuple[Domain, ...]
    constraints: tuple[Constraint, ...] = ()
    shape: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("a problem needs at least one variable")
        if len(self.domains) != self.n:
            raise InputError(f"expected {self.n} domains, got {len(self.domains)}")
        for i, dom in enumerate(self.domains):
            if not dom:
                raise InputError(f"domain of variable {i} is empty")
            if len(set(dom)) != len(dom):
                raise InputError(f"domain of variable {i} repeats a value")
        if self.shape is not None:
            r, c = self.shape
            if r < 1 or c < 1 or r * c != self.n:
                raise InputError(f"shape {self.shape} does not cover {self.n} variables")
        for con in self.constraints:
            self._check_constraint(con)

    def _check_constraint(self, con: Constraint) -> None:
        scope = con.scope
        if not scope:
            raise InputError("constraint with empty scope")
        if len(set(scope)) != len(scope):
            raise InputError(f"constraint scope {scope} repeats a variable")
        for v in scope:
            if not 0 <= v < self.n:
                raise InputError(f"constraint refers to unknown variable {v}")
        if isinstance(con, TableConstraint):
            for row in con.allowed:
                if len(row) != len(scope):
                    raise InputError("table row arity differs from scope")
                for v, val in zip(scope, row):
                    if val not in self.domains[v]:
                        raise InputError(f"table value {val} outside domain of variable {v}")
        elif isinstance(con, ClauseConstraint):
            for lit in con.literals:
                if lit.value not in self.domains[lit.var]:
                    raise InputError(f"literal value {lit.value} outside domain of variable {lit.var}")
        elif isinstance(con, UnaryConstraint):
            if con.value not in self.domains[con.var]:
                raise InputError(f"fixed value {con.value} outside domain of variable {con.var}")
        else:
            raise InputError(f"unknown constraint type {type(con).__name__}")

    @property
    def space_size(self) -> int:
        return math.prod(len(d) for d in self.domains)


def binary_problem(n: int, constraints: Sequence[Constraint] = (),
                   shape: Optional[tuple[int, int]] = None) -> Problem:
    return Problem(n, binary_domains(n), tuple(constraints), shape)


# ---------------------------------------------------------------------------
# checking and enumeration


def check_assignment(problem: Problem, assignment: Sequence[int]) -> bool:
    """True iff the assignment satisfies every constraint of the problem."""
    if len(assignment) != problem.n:
        raise InputError(f"assignment has arity {len(assignment)}, problem has {problem.n}")
    for i, v in enumerate(assignment):
        if v not in problem.domains[i]:
            raise InputError(f"value {v} outside domain of variable {i}")
    return all(con.satisfied(assignment) for con in problem.constraints)


def enumerate_solutions(problem: Problem, cap: Optional[int] = None) -> list[Assignment]:
    """All solutions, in lexicographic order of their value vectors.

    Without a cap, search spaces above MAX_ENUMERATION_SPACE are refused.
    With a cap, finding more than `cap` solutions raises rather than
    truncating the result.
    """
    if cap is None:
        if problem.space_size > MAX_ENUMERATION_SPACE:
            raise CapExceededError(
                f"search space {problem.space_size} exceeds "
                f"{MAX_ENUMERATION_SPACE}; pass an explicit cap")
    elif cap < 1:
        raise InputError("cap must be positive")

    # a constraint becomes checkable once the last variable of its scope is set
    ready: list[list[Constraint]] = [[] for _ in range(problem.n + 1)]
    for con in problem.constraints:
        ready[max(con.scope) + 1].append(con)

    solutions: list[Assignment] = []
    prefix: list[int] = []

    def extend(depth: int) -> None:
        if depth == problem.n:
            solutions.append(tuple(prefix))
            if cap is not None and len(solutions) > cap:
                raise CapExceededError(f"more than cap={cap} solutions")
            return
        for v in problem.domains[depth]:
            prefix.append(v)
            if all(con.satisfied(prefix) for con in ready[depth + 1]):
                extend(depth + 1)
            prefix.pop()

    extend(0)
    return solutions


# ---------------------------------------------------------------------------
# candidate stores (used by the propagation engine)


@dataclass
class DomainStore:
    """Mutable per-variable candidate sets; the one mutable type in the package."""

    candidates: list[set[int]]

    def copy(self) -> "DomainStore":
        return DomainStore([set(s) for s in self.candidates])

    def remove(self, var: int, value: int) -> bool:
        """Drop one candidate; True if the variable's set emptied."""
        self.candidates[var].discard(value)
        return not self.candidates[var]

    def total_size(self) -> int:
        return sum(len(s) for s in self.candidates)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DomainStore) and self.candidates == other.candidates


# ---------------------------------------------------------------------------
# serialization


def _reject_unknown(data: dict, allowed: set[str], what: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise InputError(f"unknown field(s) in {what}: {', '.join(sorted(extra))}")


def _has_shape(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_has_shape(v, shape[0]) for v in value)
    # JSON true/false load as bool, a subclass of int, but are not integers
    return isinstance(value, shape) and (shape is bool or not isinstance(value, bool))


def _shape_name(shape, plural: bool = False) -> str:
    if isinstance(shape, list):
        return ("lists of " if plural else "a list of ") + _shape_name(shape[0], True)
    noun = {int: "an integer", dict: "an object", bool: "a boolean"}[shape]
    return noun.split()[1] + "s" if plural else noun


def _require(data: dict, key: str, what: str, shape=None):
    """data[key], checked against `shape` if given: int, bool, dict, or [inner] for a list."""
    if key not in data:
        raise InputError(f"missing field '{key}' in {what}")
    if shape is not None and not _has_shape(data[key], shape):
        raise InputError(f"field '{key}' in {what} must be {_shape_name(shape)}")
    return data[key]


def constraint_from_dict(data: dict) -> Constraint:
    kind = _require(data, "kind", "constraint")
    if kind == "table":
        _reject_unknown(data, {"kind", "scope", "tuples"}, "table constraint")
        scope = tuple(_require(data, "scope", "table constraint", [int]))
        rows = frozenset(tuple(row) for row in _require(data, "tuples", "table constraint", [[int]]))
        return TableConstraint(scope, rows)
    if kind == "clause":
        _reject_unknown(data, {"kind", "literals"}, "clause constraint")
        lits = []
        for entry in _require(data, "literals", "clause constraint", [dict]):
            _reject_unknown(entry, {"var", "value", "positive"}, "clause literal")
            lits.append(Literal(_require(entry, "var", "clause literal", int),
                                _require(entry, "value", "clause literal", int),
                                _require(entry, "positive", "clause literal", bool)
                                if "positive" in entry else True))
        return ClauseConstraint(tuple(lits))
    if kind == "unary":
        _reject_unknown(data, {"kind", "var", "value"}, "unary constraint")
        return UnaryConstraint(_require(data, "var", "unary constraint", int),
                               _require(data, "value", "unary constraint", int))
    raise InputError(f"unknown constraint kind '{kind}'")


def constraint_to_dict(con: Constraint) -> dict:
    if isinstance(con, TableConstraint):
        return {"kind": "table", "scope": list(con.scope),
                "tuples": sorted(list(row) for row in con.allowed)}
    if isinstance(con, ClauseConstraint):
        return {"kind": "clause",
                "literals": [{"var": l.var, "value": l.value, "positive": l.positive}
                             for l in con.literals]}
    return {"kind": "unary", "var": con.var, "value": con.value}


def problem_from_dict(data: dict) -> Problem:
    _reject_unknown(data, {"n", "domains", "constraints", "shape"}, "problem")
    n = _require(data, "n", "problem", int)
    domains = tuple(tuple(d) for d in _require(data, "domains", "problem", [[int]]))
    cons = _require(data, "constraints", "problem", [dict]) if "constraints" in data else ()
    constraints = tuple(map(constraint_from_dict, cons))
    shape = (tuple(_require(data, "shape", "problem", [int]))
             if data.get("shape") is not None else None)
    if shape is not None and len(shape) != 2:
        raise InputError("shape must be a [rows, cols] pair")
    return Problem(n, domains, constraints, shape)


def problem_to_dict(problem: Problem) -> dict:
    out: dict = {"n": problem.n, "domains": [list(d) for d in problem.domains],
                 "constraints": [constraint_to_dict(c) for c in problem.constraints]}
    if problem.shape is not None:
        out["shape"] = list(problem.shape)
    return out


def load_json_object(path, what: str) -> dict:
    """Parse a JSON input file whose top level must be an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or text, or nested too deep
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} must hold a JSON object, not {type(data).__name__}")
    return data


def load_problem(path) -> Problem:
    return problem_from_dict(load_json_object(path, "problem file"))


def is_binary(domains: Sequence[Domain]) -> bool:
    return all(tuple(d) == (0, 1) for d in domains)


def format_assignment(a: Sequence[int], domains: Sequence[Domain]) -> str:
    """0/1 string for binary spaces (leftmost char = variable 0), else comma-joined."""
    if is_binary(domains):
        return "".join(str(v) for v in a)
    return ",".join(str(v) for v in a)


def parse_assignment(text: str, domains: Sequence[Domain]) -> Assignment:
    text = text.strip()
    if "," in text:
        try:
            values = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise InputError(f"bad assignment '{text}'") from exc
    else:
        if not all(ch in "01" for ch in text):
            raise InputError(f"bad assignment '{text}': expected 0/1 string or comma-separated values")
        values = tuple(int(ch) for ch in text)
    if len(values) != len(domains):
        raise InputError(f"assignment '{text}' has arity {len(values)}, expected {len(domains)}")
    for i, v in enumerate(values):
        if v not in domains[i]:
            raise InputError(f"value {v} outside domain of variable {i}")
    return values
