"""The four benchmark workloads: seeded inputs, the operation, the check.

Each workload turns a seed into a *cycle*: a fixed list of instances that
the closed loop runs in order, again and again.  `generate` writes the
inputs (problem, symmetry and instance files, or candidate lists) and
returns a JSON-able spec; `prepare` loads or builds them through the
library, which is the part of set-up a user of symbreak pays; `run_op`
performs one operation; `check` compares one output with the oracles in
`oracles.py`.

This module imports only the standard library at import time, so the
cold-start probe measures symbreak's imports and nothing of ours.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random


def _write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def _adjacent_swaps(k: int) -> list[tuple[int, int]]:
    """The transpositions (i, i+1), which generate the full symmetric group
    on 0..k-1.  The generating set is fixed rather than seeded: the
    survivors of the generators-only rows, and with them the cost of an
    operation, depend on which transpositions generate the group."""
    return [(i, i + 1) for i in range(k - 1)]


def _swap_perm(size: int, pairs) -> list[int]:
    perm = list(range(size))
    for a, b in pairs:
        perm[a], perm[b] = b, a
    return perm


class CliWorkload:
    """Operations that are one in-process `symbreak` invocation."""

    def prepare(self, spec: dict) -> list:
        return [inst["argv"] for inst in spec["instances"]]

    @staticmethod
    def run_op(argv):
        from symbreak import cli  # resolved per call so the tracer's patch applies

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except (Exception, SystemExit) as exc:  # a raise is a failed operation
            return ("raised", repr(exc))
        return (code, out.getvalue())

    @staticmethod
    def fingerprint(output):
        return output


# ---------------------------------------------------------------------------
# matrix models


class MatrixWorkload(CliWorkload):
    """`symbreak compare` on r x c models with row and column symmetry.

    LADDER lists (rows, cols, values, nonzero) once per occurrence in the
    cycle; the counts set each shape's share of the operations.  With
    `nonzero` set, a table constraint on each row admits only the rows
    with exactly that many non-zero cells.

    The seed orders the generators, the table's tuples and the cycle.  It
    changes nothing that sets an operation's cost, so every seed costs the
    same and a run's figures vary only with the machine.
    """

    LADDER: list[tuple[int, int, int, int | None]] = []

    def generate(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        instances = []
        for idx, (r, c, d, nonzero) in enumerate(self.LADDER):
            constraints = []
            if nonzero is not None:
                rows = [list(t) for t in itertools.product(range(d), repeat=c)
                        if sum(1 for v in t if v) == nonzero]
                rng.shuffle(rows)
                constraints = [{"kind": "table", "scope": list(range(i * c, i * c + c)),
                                "tuples": rows} for i in range(r)]
            problem = {"n": r * c, "domains": [list(range(d))] * (r * c),
                       "shape": [r, c], "constraints": constraints}
            gens = [_swap_perm(r * c, [(a * c + j, b * c + j) for j in range(c)])
                    for a, b in _adjacent_swaps(r)]
            gens += [_swap_perm(r * c, [(i * c + a, i * c + b) for i in range(r)])
                     for a, b in _adjacent_swaps(c)]
            rng.shuffle(gens)
            symmetries = {"generators": [{"kind": "literal", "var_perm": g} for g in gens]}
            ppath = _write_json(os.path.join(workdir, f"problem{idx}.json"), problem)
            spath = _write_json(os.path.join(workdir, f"symmetries{idx}.json"), symmetries)
            instances.append({"shape": [r, c], "values": d, "nonzero": nonzero,
                              "generators": len(gens),
                              "files": [ppath, spath],
                              "argv": ["compare", "--problem", ppath, "--symmetries", spath]})
        rng.shuffle(instances)
        return {"instances": instances}

    def prepare(self, spec: dict) -> list:
        from symbreak.model import load_problem
        from symbreak.symmetry import load_symmetry_group

        for inst in spec["instances"]:
            problem = load_problem(inst["files"][0])
            load_symmetry_group(inst["files"][1], problem.domains)
        return super().prepare(spec)

    def check(self, inst: dict, output, item) -> str | None:
        """None if the compare report is right, else what is wrong."""
        from oracles import matrix_orbit_count, matrix_solution_count

        code, text = output
        if code != 0:
            return f"exit code {code}"
        (r, c), d, k = inst["shape"], inst["values"], inst["nonzero"]
        lines = text.splitlines()
        want_sols = matrix_solution_count(r, c, d, k)
        if lines[0] != f"# seed=0 solutions={want_sols}":
            return f"header {lines[0]!r}, expected {want_sols} solutions"
        orbits = matrix_orbit_count(r, c, d, k)
        group_order = math.factorial(r) * math.factorial(c)
        rows = [line.split() for line in lines[2:]]
        orderings = ["lex", "revlex"] + (["gray"] if d == 2 else []) + ["snakelex"]
        expected_keys = [(o, m) for o in orderings
                         for m in ("leader-full", "leader-generators")] + [("lex", "doublelex")]
        if [(row[0], row[1]) for row in rows] != expected_keys:
            return f"rows {[(row[0], row[1]) for row in rows]}"
        for name, method, cons, survivors, n_orbits, sound, complete in rows:
            cons, survivors, n_orbits = int(cons), int(survivors), int(n_orbits)
            if n_orbits != orbits:
                return f"{name}/{method}: {n_orbits} orbits, Burnside says {orbits}"
            if sound != "true":
                return f"{name}/{method}: not sound"
            if method == "leader-full":
                if (cons, survivors, complete) != (group_order - 1, orbits, "true"):
                    return f"{name}/{method}: {cons} constraints, {survivors} survivors, complete={complete}"
            elif cons != inst["generators"] or survivors < orbits:
                return f"{name}/{method}: {cons} constraints, {survivors} survivors"
        return None


class MatrixFull(MatrixWorkload):
    # sorted by cost, 3x3 spans the 20th to 70th percentile of a cycle and
    # 2x5 the 70th to 90th, so op_p50_ms and op_tail_ms (p80) fall mid-shape
    LADDER = ([(2, 3, 2, None)] * 2 + [(3, 3, 2, None)] * 5
              + [(2, 5, 2, None)] * 2 + [(3, 4, 2, None)])


class MatrixSparse(MatrixWorkload):
    # sorted by cost, 4x4 and 3x5 span the 14th to 71st percentile of a
    # cycle and 4x5 the 71st to 86th: op_p50_ms and op_tail_ms (p80) again
    # fall mid-shape.  Each binary shape with two slots takes k and c-k
    # non-zero cells, which give the same number of solutions
    LADDER = [(2, 3, 3, 2), (4, 4, 2, 1), (4, 4, 2, 3), (3, 5, 2, 1), (3, 5, 2, 4),
              (4, 5, 2, 1), (5, 4, 2, 3)]


# ---------------------------------------------------------------------------
# reduction gadgets


class Gadgets(CliWorkload):
    """`demo-prop1` on 1-in-3 instances and `demo-prop2` on CNFs."""

    # (clauses, variables): the gadget's nominal space v**(3m) * 2 stays
    # within the 2**24 enumeration limit
    PROP1 = [(2, 4), (3, 4), (2, 5), (3, 5), (2, 6), (4, 3)] * 2
    # (variables, disjoint 3-clauses): models = 2**(v - 3m) * 7**m exactly,
    # so every seed builds gadgets of the same size (196, 343, 686 models)
    PROP2 = [(8, 2)] * 4 + [(9, 3)] * 3 + [(10, 3)]

    def generate(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        instances = []
        for m, v in self.PROP1:
            clauses = [sorted(rng.sample(range(1, v + 1), 3)) for _ in range(m)]
            if all(v not in cl for cl in clauses):
                clauses[rng.randrange(m)][0] = v
                clauses = [sorted(cl) for cl in clauses]
            instances.append({"kind": "demo-prop1", "clauses": clauses})
        for v, m in self.PROP2:
            order = rng.sample(range(1, v + 1), 3 * m)
            clauses = [[x if rng.random() < 0.5 else -x for x in order[3 * i:3 * i + 3]]
                       for i in range(m)]
            instances.append({"kind": "demo-prop2", "n": v, "clauses": clauses})
        # plus one unsatisfiable CNF: its gadget has the all-zero vector only
        v = rng.randint(4, 8)
        x = rng.randint(1, v)
        others = rng.sample([u for u in range(1, v + 1) if u != x], 2)
        clauses = [[x], [-x], [x if rng.random() < 0.5 else -x] + others]
        rng.shuffle(clauses)
        instances.append({"kind": "demo-prop2", "n": v, "clauses": clauses})
        for idx, inst in enumerate(instances):
            data = {"clauses": inst["clauses"]}
            if inst["kind"] == "demo-prop2":
                data["n"] = inst["n"]
            path = _write_json(os.path.join(workdir, f"instance{idx}.json"), data)
            inst["file"] = path
            inst["argv"] = [inst["kind"], "--instance", path]
        rng.shuffle(instances)
        return {"instances": instances}

    def prepare(self, spec: dict) -> list:
        from symbreak.reductions import load_cnf, load_one_in_three

        for inst in spec["instances"]:
            (load_one_in_three if inst["kind"] == "demo-prop1" else load_cnf)(inst["file"])
        return super().prepare(spec)

    def check(self, inst: dict, output, item) -> str | None:
        from oracles import cnf_model_count, one_in_three_sat

        code, text = output
        lines = text.splitlines()
        if inst["kind"] == "demo-prop1":
            sat = one_in_three_sat(inst["clauses"])
            survivors = [line for line in lines if line.startswith("survivor: ")]
            if len(survivors) != 1 or survivors[0][-1] != ("0" if sat else "1"):
                return f"survivors {survivors}, expected one with flag {0 if sat else 1}"
        else:
            models, zero_is_model = cnf_model_count(inst["n"], inst["clauses"])
            sat = models > 0
            members = models + (0 if zero_is_model else 1)
            want = f"solutions of the gadget ({members} members, 1 orbit):"
            if want not in lines:
                return f"expected line {want!r}"
        verdict = "SAT" if sat else "UNSAT"
        if code != (0 if sat else 1):
            return f"exit code {code}, brute force says {verdict}"
        if lines[-3:] != [f"verdict: {verdict}", f"oracle: {verdict}", "agreement: true"]:
            return f"report ends {lines[-3:]}, brute force says {verdict}"
        return None


# ---------------------------------------------------------------------------
# Gray precedence propagation


class GrayPropagate:
    """One `propagate(decomp, store)` call per operation."""

    WIDTHS = [8, 16, 32, 64, 128]
    # random variants of each store kind per (width, strictness): 250
    # stores a cycle, so a percentile sits among several stores of similar
    # cost rather than on one seeded store
    VARIANTS = 6

    def generate(self, seed: int, workdir: str) -> dict:
        from oracles import gray_rank

        rng = random.Random(seed)
        instances = []
        for n in self.WIDTHS:
            for strict in (True, False):
                def add(kind, lhs, rhs, state=None):
                    instances.append({"n": n, "strict": strict, "kind": kind,
                                      "lhs": lhs, "rhs": rhs, "state": state})

                free = [[0, 1]] * n
                add("full", free, free)
                for _ in range(self.VARIANTS):
                    add("bits", *([[rng.randint(0, 1)] if rng.random() < 0.3 else [0, 1]
                                   for _ in range(n)] for _ in range(2)))
                    x, y = (rng.getrandbits(n) for _ in range(2))
                    bits = [[(w >> (n - 1 - i)) & 1 for i in range(n)] for w in (x, y)]
                    lo, hi = sorted(bits, key=gray_rank)
                    add("pair-in", [[b] for b in lo], [[b] for b in hi])
                    add("pair-out", [[b] for b in hi], [[b] for b in lo])
                    state = [[-1, 0, 1]] * (n + 1)
                    for pos in rng.sample(range(1, n + 1), 2):
                        state[pos] = [rng.choice([-1, 0, 1])]
                    add("state", [[rng.randint(0, 1)] if rng.random() < 0.2 else [0, 1]
                                  for _ in range(n)], free, state)
        rng.shuffle(instances)
        return {"instances": instances}

    def prepare(self, spec: dict) -> list:
        from symbreak.gray import build_decomposition, store_from_candidates

        decomps = {key: build_decomposition(*key)
                   for key in sorted({(inst["n"], inst["strict"]) for inst in spec["instances"]})}
        return [(decomps[(inst["n"], inst["strict"])],
                 store_from_candidates(inst["n"], inst["lhs"], inst["rhs"], inst["state"]))
                for inst in spec["instances"]]

    @staticmethod
    def run_op(item):
        from symbreak import gray

        decomp, store = item
        try:
            return gray.propagate(decomp, store)
        except Exception as exc:  # a raise is a failed operation
            return ("raised", repr(exc))

    @staticmethod
    def fingerprint(output):
        if isinstance(output, tuple):
            return output
        # no copy: the list of sets is compared by value when needed
        return (output.failed, output.trace.removals, output.store.candidates)

    def check(self, inst: dict, output, item) -> str | None:
        from oracles import gray_rank, precedence_fixpoint

        if isinstance(output, tuple) and output[0] == "raised":
            return output[1]
        failed, removals, cands = output
        n, strict = inst["n"], inst["strict"]
        state = inst["state"] or [[-1, 0, 1]] * (n + 1)
        before = [set(c) for c in inst["lhs"] + inst["rhs"] + state]
        want = precedence_fixpoint(n, strict, before)
        if failed != (want is None):
            return f"failed={failed}, chain oracle says {want is None}"
        if not failed:
            if cands != want:
                return "fixpoint differs from the chain oracle"
            if removals != sum(map(len, before)) - sum(map(len, cands)):
                return f"{removals} removal events for a smaller store"
        if inst["kind"].startswith("pair-"):
            lhs, rhs = gray_rank([c[0] for c in inst["lhs"]]), gray_rank([c[0] for c in inst["rhs"]])
            if failed == (lhs < rhs if strict else lhs <= rhs):
                return f"pinned pair ranks {lhs}, {rhs}: failed={failed}"
        if n <= 10:
            from symbreak.gray import gac_oracle

            ref = gac_oracle(n, item[1], strict)
            if ref.failed != failed or (not failed and ref.store.candidates != cands):
                return "disagrees with gac_oracle"
        return None


WORKLOADS = {
    "matrix-full": MatrixFull,
    "matrix-sparse": MatrixSparse,
    "gray-propagate": GrayPropagate,
    "gadgets": Gadgets,
}
