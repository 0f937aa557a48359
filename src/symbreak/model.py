"""Finite-domain problems, assignments, and exhaustive solution enumeration.

Variables are indexed 0..n-1 and carry ordered finite domains; values are
compared by their position in the domain throughout the package.  An
assignment is a tuple of values, one per variable; in memory a solution is
its lex code (see `orderings`).  Matrix models flatten row-major: cell
(i, j) lives at index i*cols + j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, compress, pairwise
from operator import getitem, itemgetter
from typing import AbstractSet, Callable, Iterable, Optional, Sequence, Union

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


def binary_domains(n: int) -> tuple[Domain, ...]:
    return ((0, 1),) * n


# ---------------------------------------------------------------------------
# the rules every problem, ordering and symmetry checks its input against


def check_domains(what: str, n: int, domains: Sequence[Domain]) -> None:
    """n >= 1 variables, one domain each, every domain nonempty and free of repeats."""
    if n < 1:
        raise InputError(f"{what} needs at least one variable")
    if len(domains) != n:
        raise InputError(f"expected {n} domains, got {len(domains)}")
    if all(domains) and all(len(set(d)) == len(d) for d in set(map(tuple, domains))):
        return  # each distinct domain checked once; the loop below names the variable
    for i, dom in enumerate(domains):
        if not dom:
            raise InputError(f"domain of variable {i} is empty")
        if len(set(dom)) != len(dom):
            raise InputError(f"domain of variable {i} repeats a value")


def check_shape(shape: tuple[int, int], n: int) -> None:
    """A matrix of n cells: rows >= 1, cols >= 1 and rows * cols == n."""
    if min(shape) < 1 or shape[0] * shape[1] != n:
        raise InputError(f"shape {shape} does not cover {n} variables")


def check_values(domains: Sequence[Domain], pairs: Iterable[tuple[int, int]]) -> None:
    """Every (variable, value) pair has its value in the variable's domain."""
    for var, value in pairs:
        if value not in domains[var]:
            raise InputError(f"value {value} outside domain of variable {var}")


# ---------------------------------------------------------------------------
# constraints


@dataclass(frozen=True)
class TableConstraint:
    """Extensional constraint: the scope's value tuple must appear in `allowed`.
    Tested by one gather and one set lookup; an itemgetter of one index gives
    the bare value, so a one-variable table looks up its rows' values."""

    scope: tuple[int, ...]
    allowed: frozenset[tuple[int, ...]]
    _values_of: Callable = field(init=False, repr=False, compare=False)
    _keys: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # an empty scope is refused by Problem; its getter keeps the meaning
        gather = itemgetter(*self.scope) if self.scope else lambda values: ()
        keys = (frozenset(row[0] for row in self.allowed if len(row) == 1)
                if len(self.scope) == 1 else self.allowed)
        object.__setattr__(self, "_values_of", gather)
        object.__setattr__(self, "_keys", keys)

    def satisfied(self, values: Sequence[int]) -> bool:
        return self._values_of(values) in self._keys


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


def unary(var: int, value: int) -> TableConstraint:
    """Fixes one variable to one value: a one-row table."""
    return TableConstraint((var,), frozenset({(value,)}))


Constraint = Union[TableConstraint, ClauseConstraint]


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
        check_domains("a problem", self.n, self.domains)
        if self.shape is not None:
            check_shape(self.shape, self.n)
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
                check_values(self.domains, zip(scope, row))
        elif isinstance(con, ClauseConstraint):
            check_values(self.domains, ((lit.var, lit.value) for lit in con.literals))
        else:
            raise InputError(f"unknown constraint type {type(con).__name__}")

    @property
    def space_size(self) -> int:
        return math.prod(len(d) for d in self.domains)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_solutions(problem: Problem, cap: Optional[int] = None) -> list[int]:
    """The lex codes of all solutions under `LexOrdering(problem.domains)`, increasing.

    Without a cap, search spaces above MAX_ENUMERATION_SPACE are refused.
    With a cap, finding more than `cap` solutions raises rather than
    truncating the result, so a cap below 1 raises on any problem with a
    solution.  The search is depth-first over an explicit stack of per-level
    iterators, so depth is not bounded by Python's recursion limit.  A level
    is one variable over its domain, or a run of variables that ends at the
    last variable of a sparse table whose scope covers it, over the table's
    rows that match the values read before the run.  It stops at the last
    variable a constraint reads (variable 0 at least): each prefix found
    there stands for the `tail` consecutive codes of its free completions.
    """
    if cap is None:
        if problem.space_size > MAX_ENUMERATION_SPACE:
            raise CapExceededError(
                f"search space {problem.space_size} exceeds "
                f"{MAX_ENUMERATION_SPACE}; pass an explicit cap")

    # a constraint is checkable once its scope's last variable is set
    domains = problem.domains
    free = 1 + max((max(con.scope) for con in problem.constraints), default=0)
    ready: list[list[Constraint]] = [[] for _ in range(free)]
    for con in problem.constraints:
        ready[max(con.scope)].append(con)
    # per level: where its values go, their code's width, its candidates and
    # the constraints it checks; each driven run, from the right, is folded
    ats, widths, sources = list(range(free)), [*map(len, domains[:free])], [*domains[:free]]
    for lo, hi in reversed([*pairwise([0, *compress(range(1, free + 1), ready)])]):
        driver = min((con for con in ready[hi - 1] if isinstance(con, TableConstraint)
                      and sum(v >= lo for v in con.scope) == hi - lo  # covers the run
                      and 2 * len(con.allowed) <= math.prod(len(domains[v]) for v in con.scope)),
                     key=lambda con: len(con.allowed), default=None) if hi - lo > 1 else None
        if driver is None:
            continue
        # its rows, read by variable like values: (increment, values[lo:hi]) per key, sorted
        scope, rows = driver.scope, {}
        before = [v for v in scope if v < lo]
        read = itemgetter(*before) if before else lambda values: ()
        run = itemgetter(*range(lo, hi))  # a tuple: a driven run has two variables at least
        weights = [{value: pos * math.prod(widths[v + 1:hi])
                    for pos, value in enumerate(domains[v])} for v in range(lo, hi)]
        for inc, key, vals in sorted((sum(map(getitem, weights, run(row))), read(row), run(row))
                                     for row in (dict(zip(scope, row)) for row in driver.allowed)):
            rows.setdefault(key, []).append((inc, vals))
        ats[lo:hi], widths[lo:hi] = [slice(lo, hi)], [math.prod(widths[lo:hi])]
        sources[lo:hi] = [lambda values, get=rows.get, read=read: get(read(values), ())]
        ready[lo:hi] = [[con for con in ready[hi - 1] if con is not driver]]
    checks = [None if not cons else cons[0].satisfied if len(cons) == 1
              else lambda values, cons=cons: all(con.satisfied(values) for con in cons)
              for cons in ready]

    last = len(ats) - 1
    tail = math.prod(map(len, domains[free:]))  # the free completions of each prefix
    codes: list[int] = []  # the codes of the prefixes found
    values: list = [None] * free  # the current prefix, up to the current level
    prefix = [0] * (last + 2)  # prefix[k + 1] is the code of the prefix to level k
    levels = [iter(sources[0](values)) if callable(sources[0]) else enumerate(sources[0])]
    while levels:  # levels[k] yields what is left to try at level k
        k = len(levels) - 1
        at, check = ats[k], checks[k]
        for inc, values[at] in levels[k]:
            if check is None or check(values):
                break
        else:  # this level is exhausted: back up one
            levels.pop()
            continue
        prefix[k + 1] = prefix[k] * widths[k] + inc
        if k < last:
            source = sources[k + 1]
            levels.append(iter(source(values)) if callable(source) else enumerate(source))
            continue
        codes.append(prefix[k + 1])
        if cap is not None and len(codes) * tail > cap:
            raise CapExceededError(f"more than cap={cap} solutions")
    if tail == 1:
        return codes
    return list(chain.from_iterable(range(c * tail, c * tail + tail) for c in codes))


# ---------------------------------------------------------------------------
# candidate stores (used by the propagation engine)


@dataclass
class DomainStore:
    """Per-variable candidate sets.  The Gray stores hold shared frozensets;
    `copy` gives mutable sets, for code that narrows a store in place."""

    candidates: list[AbstractSet[int]]

    def copy(self) -> "DomainStore":
        return DomainStore([set(s) for s in self.candidates])


# ---------------------------------------------------------------------------
# serialization


#: The default of an optional field whose absence means something of its own.
ABSENT = object()


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


def read_field(data: dict, what: str, name: str, shape=None, *default):
    """data[name], checked against `shape` if given: int, bool, dict, or [inner] for a list.

    With a default the field is optional: it reads as the default when
    absent, and also when null if the default is None.  Any other null
    fails the shape check.
    """
    if name not in data or (data[name] is None and default == (None,)):
        if not default:
            raise InputError(f"missing field '{name}' in {what}")
        return default[0]
    if shape is not None and not _has_shape(data[name], shape):
        raise InputError(f"field '{name}' in {what} must be {_shape_name(shape)}")
    return data[name]


def read_fields(data: dict, what: str, *fields: tuple) -> list:
    """Every field of a JSON object, each given as (name, shape[, default]).

    A field not listed is an error, reported before any listed one is read;
    then each is read in turn by `read_field`.
    """
    extra = set(data) - {f[0] for f in fields}
    if extra:
        raise InputError(f"unknown field(s) in {what}: {', '.join(sorted(extra))}")
    return [read_field(data, what, *f) for f in fields]


def constraint_from_dict(data: dict) -> Constraint:
    kind = read_field(data, "constraint", "kind")
    if kind == "table":
        _, scope, rows = read_fields(data, "table constraint", ("kind",), ("scope", [int]),
                                     ("tuples", [[int]]))
        return TableConstraint(tuple(scope), frozenset(map(tuple, rows)))
    if kind == "clause":
        _, entries = read_fields(data, "clause constraint", ("kind",), ("literals", [dict]))
        return ClauseConstraint(tuple(
            Literal(*read_fields(entry, "clause literal", ("var", int), ("value", int),
                                 ("positive", bool, True)))
            for entry in entries))
    if kind == "unary":
        _, var, value = read_fields(data, "unary constraint", ("kind",), ("var", int),
                                    ("value", int))
        return unary(var, value)
    raise InputError(f"unknown constraint kind '{kind}'")


def problem_from_dict(data: dict) -> Problem:
    n, domains, cons, shape = read_fields(
        data, "problem", ("n", int), ("domains", [[int]]), ("constraints", [dict], ()),
        ("shape", [int], None))
    constraints = tuple(map(constraint_from_dict, cons))
    if shape is not None and len(shape) != 2:
        raise InputError("shape must be a [rows, cols] pair")
    return Problem(n, tuple(map(tuple, domains)), constraints,
                   tuple(shape) if shape is not None else None)


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


def parse_assignment(text: str, domains: Sequence[Domain]) -> Assignment:
    text = text.strip()
    if "," in text or len(domains) == 1:  # one variable: its value, whatever its domain
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
    check_values(domains, enumerate(values))
    return values
