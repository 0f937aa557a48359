"""Command-line front end: one binary, subcommand per task.

Exit codes: 0 success, 1 infeasible problem / negative verdict, 2 usage or
input error (or stdout closed before the report was written), 3
enumeration/closure cap overflow.  Results go to stdout, diagnostics to
stderr.  Identical configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .breaker import (
    COMPARE_HEADERS,
    compare_table,
    doublelex_constraints,
    extensional_set,
    leader_constraints,
    orbit_verdict,
)
from .gray import build_decomposition, initial_store, propagate, store_from_candidates
from .model import (
    CapExceededError,
    InputError,
    Problem,
    SymbreakError,
    binary_domains,
    check_shape,
    enumerate_solutions,
    load_json_object,
    load_problem,
    parse_assignment,
    read_fields,
)
from .orderings import ORDERING_NAMES, LexOrdering, make_ordering
from .reductions import (
    SAT,
    UNSAT,
    cnf_satisfiable,
    group_gadget,
    load_cnf,
    load_one_in_three,
    one_in_three_satisfiable,
    ordering_gadget,
    solve_group_gadget,
    solve_ordering_gadget,
)
from .symmetry import load_symmetry_group, orbits

METHODS = ("leader-full", "leader-generators", "doublelex")

# (name, help, prints a report, options, handler), in `--help` order
_COMMANDS: list = []


def _command(name: str, help_text: str, *options, report: bool = True):
    """State a subcommand once: its name, help line, options and handler.
    Only report commands take --seed and --format."""
    def register(handler):
        _COMMANDS.append((name, help_text, report, options, handler))
        return handler
    return register


_PROBLEM = ("--problem", {"required": True})
_SYMMETRIES = ("--symmetries", {"required": True})
_CAP = ("--cap", {"type": int})
_ORDERING = ("--ordering", {"choices": ORDERING_NAMES})
_METHOD = ("--method", {"choices": METHODS})
_SPACE = (_ORDERING, ("--problem", {"help": "problem file supplying domains and shape"}),
          ("--n", {"type": int, "help": "binary space with this many variables"}),
          ("--shape", {"help": "ROWSxCOLS covering the --n variables (snakelex reads it)"}))

# An option that gives what others would give too refuses them, rather than
# silently using one: (option, the value that triggers it or None for any,
# the options it excludes, what it gives).  Every option here defaults to
# None, so that "given" is observable; run fills in lex and leader-full after.
_REDUNDANT = (
    ("problem", None, ("n", "shape"), "--problem gives the domains and shape"),
    ("store", None, ("n", "non_strict"), "--store gives n and strictness"),
    ("survivors", None, ("ordering", "method"), "--survivors gives the survivors to check"),
    ("method", "doublelex", ("ordering",), "--method doublelex gives the ordering (lex)"),
)


def _parse_shape(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    for sep in ("x", ","):
        if sep in text:
            try:
                r, c = (int(tok) for tok in text.split(sep))
                return (r, c)
            except ValueError:
                break
    raise InputError(f"bad shape '{text}': expected ROWSxCOLS")


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _print_rows(headers: Sequence[str], rows: Sequence[Sequence], fmt: str) -> None:
    table = [list(map(_cell, row)) for row in rows]
    if fmt == "csv":
        print(",".join(headers))
        for row in table:
            print(",".join(row))
        return
    widths = [max(len(h), *(len(row[i]) for row in table)) if table else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _load_pair(ns: argparse.Namespace):
    problem = load_problem(ns.problem)
    return problem, load_symmetry_group(ns.symmetries, problem.domains)


def _breaking_set(ns: argparse.Namespace, problem: Problem, group):
    if ns.method == "doublelex":
        return doublelex_constraints(problem.shape, problem.domains)
    ordering = make_ordering(ns.ordering, problem.domains, problem.shape)
    mode = "full" if ns.method == "leader-full" else "generators"
    return leader_constraints(group, ordering, mode)


# ---------------------------------------------------------------------------
# subcommands


@_command("solve", "enumerate all solutions", _PROBLEM, _CAP)
def _cmd_solve(ns: argparse.Namespace) -> int:
    problem = load_problem(ns.problem)
    sols = enumerate_solutions(problem, ns.cap)
    print(f"# seed={ns.seed} solutions={len(sols)}")
    _print_rows(["assignment"], [[row] for row in LexOrdering(problem.domains).texts(sols)],
                ns.format)
    return 0 if sols else 1


@_command("orbits", "orbit partition of the solutions", _PROBLEM, _SYMMETRIES, _CAP)
def _cmd_orbits(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    partition = orbits(enumerate_solutions(problem, ns.cap), group)
    print(f"# seed={ns.seed} orbits={len(partition)}")
    texts = group.coding.texts(partition.codes)
    rows = [[i, len(members), " ".join(map(texts.__getitem__, members))]
            for i, members in enumerate(partition.members)]
    _print_rows(["orbit", "size", "members"], rows, ns.format)
    return 0


@_command("break", "generate breaking constraints and filter",
          _PROBLEM, _SYMMETRIES, _ORDERING, _METHOD, _CAP)
def _cmd_break(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    bset = _breaking_set(ns, problem, group)
    sols = enumerate_solutions(problem, ns.cap)
    partition = orbits(sols, group)
    verdict = orbit_verdict(partition, bset)
    survivors = sorted(a for kept in verdict.kept for a in kept)
    print(f"# seed={ns.seed} ordering={ns.ordering} method={ns.method} "
          f"constraints={len(bset)} survivors={len(survivors)}")
    _print_rows(["assignment"], [[row] for row in group.coding.texts(survivors)], ns.format)
    print()
    _print_rows(["orbit", "size", "survivors"],
                [[i, len(members), count]
                 for i, (members, count) in enumerate(zip(partition.members, verdict.counts))],
                ns.format)
    return 0 if survivors else 1


def _read_survivors(path, domains) -> list:
    try:
        with open(path) as fh:
            texts = [line.strip() for line in fh.read().splitlines()]
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not text
        raise InputError(f"cannot read survivor file: {exc}") from exc
    texts = [text for text in texts if not text.startswith("#")]
    start = next((i for i, text in enumerate(texts) if text), len(texts))
    if texts[start:start + 1] != ["assignment"]:
        raise InputError("survivor file lacks an 'assignment' header")
    rows = []
    # the body ends at a blank line or the orbit table; a repeated header is skipped
    for text in texts[start + 1:]:
        if not text or text.startswith("orbit"):
            break
        if text != "assignment":
            rows.append(parse_assignment(text, domains))
    return rows


@_command("check", "soundness/completeness verdicts", _PROBLEM, _SYMMETRIES, _ORDERING,
          _METHOD, _CAP, ("--survivors", {"help": "survivor list CSV to check instead"}))
def _cmd_check(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    sols = enumerate_solutions(problem, ns.cap)
    if ns.survivors is not None:
        bset = extensional_set(_read_survivors(ns.survivors, problem.domains))
    else:
        bset = _breaking_set(ns, problem, group)
    partition = orbits(sols, group)
    verdict = orbit_verdict(partition, bset)
    print(f"# seed={ns.seed}")
    _print_rows(["sound", "complete", "orbits", "survivors"],
                [[verdict.sound, verdict.complete, len(partition), sum(verdict.counts)]],
                ns.format)
    return 0 if verdict.sound and verdict.complete else 1


def _ordering(ns: argparse.Namespace):
    if ns.problem is not None:
        problem = load_problem(ns.problem)
        return make_ordering(ns.ordering, problem.domains, problem.shape)
    shape = _parse_shape(ns.shape)
    if ns.n is None:
        raise InputError("need --problem or --n")
    ordering = make_ordering(ns.ordering, binary_domains(ns.n), shape)
    if shape is not None:
        check_shape(shape, ns.n)
    return ordering


@_command("rank", "position of an assignment", *_SPACE,
          ("assignment", {"help": "0/1 string or comma-separated values"}), report=False)
def _cmd_rank(ns: argparse.Namespace) -> int:
    ordering = _ordering(ns)
    print(ordering.rank(parse_assignment(ns.assignment, ordering.domains)))
    return 0


@_command("unrank", "assignment at a position", *_SPACE,
          ("--k", {"type": int, "required": True}), report=False)
def _cmd_unrank(ns: argparse.Namespace) -> int:
    ordering = _ordering(ns)
    print(ordering.texts([ordering.unrank_code(ns.k)])[0])
    return 0


def _load_store(path):
    lhs, rhs, state, strict = read_fields(
        load_json_object(path, "store file"), "store file", ("lhs", [[int]]),
        ("rhs", [[int]]), ("state", [[int]], None), ("strict", bool, True))
    n = len(lhs)
    return n, strict, store_from_candidates(n, lhs, rhs, state)


@_command("gray-check", "propagate the reflected-binary precedence decomposition",
          ("--store", {"help": "candidate-store JSON file"}),
          ("--n", {"type": int, "help": "full domains over this many bit positions"}),
          ("--non-strict", {"action": "store_true", "default": None}))
def _cmd_gray_check(ns: argparse.Namespace) -> int:
    if ns.store is not None:
        n, strict, store = _load_store(ns.store)
    elif ns.n is not None:
        n, strict = ns.n, not ns.non_strict
        store = None
    else:
        raise InputError("need --store or --n")
    decomp = build_decomposition(n, strict)
    if store is None:
        store = initial_store(decomp)
    outcome = propagate(decomp, store)
    print(f"# seed={ns.seed} n={n} strict={str(strict).lower()} "
          f"events={outcome.trace.removals}")
    if outcome.failed:
        print("FAIL")
        return 1
    rows = [[decomp.var_label(idx),
             " ".join(str(v) for v in sorted(outcome.store.candidates[idx]))]
            for idx in range(decomp.num_vars)]
    _print_rows(["variable", "candidates"], rows, ns.format)
    return 0


def _report_verdict(verdict: str, oracle: str) -> int:
    print(f"verdict: {verdict}")
    print(f"oracle: {oracle}")
    print(f"agreement: {str(verdict == oracle).lower()}")
    return 0 if verdict == SAT else 1


@_command("demo-prop1", "hard-ordering demo", ("--instance", {"required": True}),
          report=False)
def _cmd_demo_prop1(ns: argparse.Namespace) -> int:
    inst = load_one_in_three(ns.instance)
    gadget = ordering_gadget(inst)
    verdict, survivor = solve_ordering_gadget(gadget)
    oracle = SAT if one_in_three_satisfiable(inst) else UNSAT
    print(f"# clauses={list(list(c) for c in inst.clauses)}")
    print(f"problem: {gadget.ordering.n} variables; prefix fixed to the clause "
          f"indices; flag bit free; symmetry swaps the flag bit's values")
    print(f"survivor: {gadget.ordering.texts([survivor])[0]}")
    return _report_verdict(verdict, oracle)


@_command("demo-prop2", "hard-group demo", ("--instance", {"required": True}),
          report=False)
def _cmd_demo_prop2(ns: argparse.Namespace) -> int:
    phi = load_cnf(ns.instance)
    gadget = group_gadget(phi)
    verdict = solve_group_gadget(gadget)
    oracle = SAT if cnf_satisfiable(phi) else UNSAT
    print(f"# n={phi.num_vars} clauses={list(list(c) for c in phi.clauses)}")
    print(f"solutions of the gadget ({len(gadget.solutions)} members, 1 orbit):")
    # one print for all members: a gadget always holds the all-zero vector
    print("  " + "\n  ".join(gadget.ordering.texts(gadget.solutions)))
    return _report_verdict(verdict, oracle)


@_command("compare", "survivor counts across orderings and methods",
          _PROBLEM, _SYMMETRIES, _CAP)
def _cmd_compare(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    sols = enumerate_solutions(problem, ns.cap)
    rows = compare_table(sols, group, problem.shape)
    print(f"# seed={ns.seed} solutions={len(sols)}")
    _print_rows(COMPARE_HEADERS, rows, ns.format)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on first use and reused by every later `run`."""
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Symmetry breaking for finite-domain problems under "
                    "pluggable assignment orderings.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, report, options, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if report:
            p.add_argument("--seed", type=int, default=0, help="recorded in report headers")
            p.add_argument("--format", choices=("table", "csv"), default="table")
        for option, kwargs in options:
            p.add_argument(option, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        # both checks come before any file is read
        if getattr(ns, "cap", None) is not None and ns.cap < 1:
            raise InputError("cap must be positive")
        for option, value, excluded, gives in _REDUNDANT:
            given = getattr(ns, option, None)
            dropped = [other for other in excluded if getattr(ns, other, None) is not None]
            if given is not None and value in (None, given) and dropped:
                raise InputError(f"{gives}; drop --{dropped[0].replace('_', '-')}")
        for option, default in (("ordering", "lex"), ("method", "leader-full")):
            if getattr(ns, option, default) is None:
                setattr(ns, option, default)
        return ns.handler(ns)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SymbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); send what is left to
        # devnull so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
