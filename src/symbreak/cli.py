"""Command-line front end: one binary, subcommand per task.

Exit codes: 0 success, 1 infeasible problem / negative verdict, 2 usage or
input error, 3 enumeration/closure cap overflow.  Results go to stdout,
diagnostics to stderr.  Identical configuration and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .breaker import (
    COMPARE_HEADERS,
    LeaderConstraint,
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
    InvariantViolationError,
    Problem,
    SymbreakError,
    binary_domains,
    enumerate_solutions,
    format_assignment,
    load_json_object,
    load_problem,
    parse_assignment,
    _reject_unknown,
    _require,
)
from .orderings import ORDERING_NAMES, make_ordering
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


def _cmd_solve(ns: argparse.Namespace) -> int:
    problem = load_problem(ns.problem)
    sols = enumerate_solutions(problem, ns.cap)
    print(f"# seed={ns.seed} solutions={len(sols)}")
    _print_rows(["assignment"],
                [[format_assignment(a, problem.domains)] for a in sols], ns.format)
    return 0 if sols else 1


def _cmd_orbits(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    sols = enumerate_solutions(problem, ns.cap)
    partition = orbits(sols, group)
    print(f"# seed={ns.seed} orbits={len(partition)}")
    rows = [[i, len(block), " ".join(format_assignment(a, problem.domains) for a in block)]
            for i, block in enumerate(partition.blocks)]
    _print_rows(["orbit", "size", "members"], rows, ns.format)
    return 0


def _cmd_break(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    bset = _breaking_set(ns, problem, group)
    sols = enumerate_solutions(problem, ns.cap)
    partition = orbits(sols, group)
    verdict = orbit_verdict(partition, bset)
    kept = {a for block in verdict.kept for a in block}
    survivors = [a for a in sols if a in kept]
    print(f"# seed={ns.seed} ordering={ns.ordering} method={ns.method} "
          f"constraints={len(bset)} survivors={len(survivors)}")
    _print_rows(["assignment"],
                [[format_assignment(a, problem.domains)] for a in survivors], ns.format)
    print()
    _print_rows(["orbit", "size", "survivors"],
                [[i, len(block), count]
                 for i, (block, count) in enumerate(zip(partition.blocks, verdict.counts))],
                ns.format)
    return 0 if survivors else 1


def _read_survivors(path, domains) -> list:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read survivor file: {exc}") from exc
    rows = []
    in_body = False
    for line in lines:
        text = line.strip()
        if not text:
            if in_body:
                break
            continue
        if text.startswith("#"):
            continue
        if text == "assignment":
            in_body = True
            continue
        if text.startswith("orbit"):
            break
        if not in_body:
            raise InputError("survivor file lacks an 'assignment' header")
        rows.append(parse_assignment(text, domains))
    if not in_body:
        raise InputError("survivor file lacks an 'assignment' header")
    return rows


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
        for option in ("n", "shape"):
            if getattr(ns, option) is not None:
                raise InputError(f"--problem gives the domains and shape; drop --{option}")
        problem = load_problem(ns.problem)
        return make_ordering(ns.ordering, problem.domains, problem.shape)
    shape = _parse_shape(ns.shape)
    if ns.n is None:
        raise InputError("need --problem or --n")
    return make_ordering(ns.ordering, binary_domains(ns.n), shape)


def _cmd_rank(ns: argparse.Namespace) -> int:
    ordering = _ordering(ns)
    print(ordering.rank(parse_assignment(ns.assignment, ordering.domains)))
    return 0


def _cmd_unrank(ns: argparse.Namespace) -> int:
    ordering = _ordering(ns)
    print(format_assignment(ordering.unrank(ns.k), ordering.domains))
    return 0


def _load_store(path):
    data = load_json_object(path, "store file")
    _reject_unknown(data, {"strict", "lhs", "rhs", "state"}, "store file")
    lhs = _require(data, "lhs", "store file", [[int]])
    rhs = _require(data, "rhs", "store file", [[int]])
    state = (_require(data, "state", "store file", [[int]])
             if data.get("state") is not None else None)
    strict = _require(data, "strict", "store file", bool) if "strict" in data else True
    n = len(lhs)
    return n, strict, store_from_candidates(n, lhs, rhs, state)


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


def _cmd_demo_prop1(ns: argparse.Namespace) -> int:
    inst = load_one_in_three(ns.instance)
    gadget = ordering_gadget(inst)
    verdict = solve_ordering_gadget(gadget)
    oracle = SAT if one_in_three_satisfiable(inst) else UNSAT
    leader = LeaderConstraint(gadget.flip, gadget.ordering)
    survivors = [a for a in enumerate_solutions(gadget.problem) if leader.satisfied(a)]
    print(f"# clauses={list(list(c) for c in inst.clauses)}")
    print(f"problem: {gadget.problem.n} variables; prefix fixed to the clause "
          f"indices; flag bit free; symmetry swaps the flag bit's values")
    for a in survivors:
        print(f"survivor: {format_assignment(a, gadget.problem.domains)}")
    return _report_verdict(verdict, oracle)


def _cmd_demo_prop2(ns: argparse.Namespace) -> int:
    phi = load_cnf(ns.instance)
    gadget = group_gadget(phi)
    # solve_group_gadget raises unless the gadget's solutions form one orbit
    verdict = solve_group_gadget(gadget)
    oracle = SAT if cnf_satisfiable(phi) else UNSAT
    print(f"# n={gadget.n} clauses={list(list(c) for c in phi.clauses)}")
    print(f"solutions of the gadget ({len(gadget.solutions)} members, 1 orbit):")
    for a in gadget.solutions:
        print(f"  {format_assignment(a, gadget.problem.domains)}")
    return _report_verdict(verdict, oracle)


def _cmd_compare(ns: argparse.Namespace) -> int:
    problem, group = _load_pair(ns)
    sols = enumerate_solutions(problem, ns.cap)
    rows = compare_table(sols, group, problem.domains, problem.shape)
    print(f"# seed={ns.seed} solutions={len(sols)}")
    _print_rows(COMPARE_HEADERS, rows, ns.format)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "orbits": _cmd_orbits,
    "break": _cmd_break,
    "check": _cmd_check,
    "rank": _cmd_rank,
    "unrank": _cmd_unrank,
    "gray-check": _cmd_gray_check,
    "demo-prop1": _cmd_demo_prop1,
    "demo-prop2": _cmd_demo_prop2,
    "compare": _cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Symmetry breaking for finite-domain problems under "
                    "pluggable assignment orderings.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="recorded in report headers")
    common.add_argument("--format", choices=("table", "csv"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[common], help="enumerate all solutions")
    p.add_argument("--problem", required=True)
    p.add_argument("--cap", type=int)

    p = sub.add_parser("orbits", parents=[common], help="orbit partition of the solutions")
    p.add_argument("--problem", required=True)
    p.add_argument("--symmetries", required=True)
    p.add_argument("--cap", type=int)

    for name in ("break", "check"):
        p = sub.add_parser(name, parents=[common],
                           help="generate breaking constraints and filter" if name == "break"
                           else "soundness/completeness verdicts")
        p.add_argument("--problem", required=True)
        p.add_argument("--symmetries", required=True)
        p.add_argument("--ordering", choices=ORDERING_NAMES, default="lex")
        p.add_argument("--method", choices=METHODS, default="leader-full")
        p.add_argument("--cap", type=int)
        if name == "check":
            p.add_argument("--survivors", help="survivor list CSV to check instead")

    for name in ("rank", "unrank"):
        p = sub.add_parser(name, parents=[common],
                           help="position of an assignment" if name == "rank"
                           else "assignment at a position")
        p.add_argument("--ordering", choices=ORDERING_NAMES, default="lex")
        p.add_argument("--problem", help="problem file supplying domains and shape")
        p.add_argument("--n", type=int, help="binary space with this many variables")
        p.add_argument("--shape", help="ROWSxCOLS, for snakelex with --n")
        if name == "rank":
            p.add_argument("assignment", help="0/1 string or comma-separated values")
        else:
            p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("gray-check", parents=[common],
                       help="propagate the reflected-binary precedence decomposition")
    p.add_argument("--store", help="candidate-store JSON file")
    p.add_argument("--n", type=int, help="full domains over this many bit positions")
    p.add_argument("--non-strict", action="store_true", dest="non_strict")

    for name in ("demo-prop1", "demo-prop2"):
        p = sub.add_parser(name, parents=[common],
                           help="hard-ordering demo" if name == "demo-prop1"
                           else "hard-group demo")
        p.add_argument("--instance", required=True)

    p = sub.add_parser("compare", parents=[common],
                       help="survivor counts across orderings and methods")
    p.add_argument("--problem", required=True)
    p.add_argument("--symmetries", required=True)
    p.add_argument("--cap", type=int)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if getattr(ns, "cap", None) is not None and ns.cap < 1:
            raise InputError("cap must be positive")  # before any file is read
        return _DISPATCH[ns.command](ns)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except SymbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
