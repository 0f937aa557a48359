"""A fixed corpus of `symbreak` invocations, run in process, one JSON line
each, so that the command line of two source trees can be compared:

    python3 tests/cli_corpus.py SRC OUT.jsonl
    python3 tests/cli_corpus.py ../other/src OTHER.jsonl && diff OUT.jsonl OTHER.jsonl

SRC is the `src/` directory whose `symbreak` runs.  The inputs are built
from fixed seeds in a temporary directory, and help text is formatted for
80 columns.  Each line holds the argv (the temporary directory written as
`TMP`), the exit code (or `"raised"` and the exception, for an exception
that escapes `run`), stdout and stderr.  The script exits 1 if any
invocation raised or wrote a traceback to stderr, since every outcome of
the command line is an exit code and an `error:` line at worst.

The corpus covers every subcommand with and without `--help`, both
formats, every ordering and method on the binary row/column models of up to
9 cells and on 2x3 and 2x2 models whose domains are listed out of sorted
order, value maps whose pairs come out of the domains' order on unsorted
ternary and mixed domains, symmetry files with a bad `var_perm`, a partial
value map or one that is not onto (alone and together, so the order of
those checks is pinned), leader-full sets on groups whose generators repeat or include the
identity with the closure cap at |G| and |G| - 1, leader-full sets on
groups whose stabilizer chain needs products of the generators (mixed
domains and value swaps among them), leader-full sets of the 2x8
row/column group (80,640 elements), `break` output read back by
`check --survivors` (binary, and unsorted ternary), symmetry files without
generators on mixed and unsorted domains, generators that leave the
solution set of a ternary and of a mixed model, `rank` and `unrank` grids (binary, mixed-radix,
3x1 and unsorted domains), `gray-check` stores of up to 5 bit positions
and stores of the benchmark's widths (8 to 128) and kinds, the
`gadgets` benchmark instances of seeds 1-3, the two matrix benchmark
ladders at seed 1, problems of 1000 or more variables (with `break`,
`check` and `compare` on a shaped 1x1000 row/column model), `demo-prop1`
instances above the uncapped enumeration limit, `demo-prop2` instances of
10 variables, gadgets of 1, 2 and 3 members and CNFs with a tautological
clause, a repeated literal or only unit clauses, `clause` constraints on
binary, ternary and mixed domains through solve, orbits, compare, check
and break, 2x3 problems whose
enumeration takes a run of variables from a sparse table's rows (a scope
listed out of order that reaches back across runs, a one-per-row ternary
model on unsorted domains, a dense and a sparse table ready at one depth,
caps that overflow inside such a run), and the input errors and
option conflicts of each command: cap overflows (`more than cap=N
solutions`, a search space above the uncapped limit), a field of the wrong
shape, an unknown field and text that is not JSON in each kind of input
file, every check of a problem, a symmetry file, a 1-in-3 or CNF instance
and a candidate store, and assignments that `rank` and `check
--survivors` refuse.  The file name keeps pytest from collecting it.

The `raise` lines that the corpus never reaches are listed by the standard
library's line counter (`>>>>>>` marks a line never run):

    python3 -m trace --count --missing --coverdir DIR tests/cli_corpus.py src OUT.jsonl
    grep -n '>>>>>>.*raise' DIR/symbreak.*.cover
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import operator
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ["solve", "orbits", "break", "check", "rank", "unrank", "gray-check",
            "demo-prop1", "demo-prop2", "compare"]
ORDERINGS = ["lex", "revlex", "gray", "snakelex"]
METHODS = ["leader-full", "leader-generators", "doublelex"]
FORMATS = [[], ["--format", "csv"]]


def _write(path: str, data) -> str:
    """Bytes and text as they are, anything else as JSON."""
    if not isinstance(data, (bytes, str)):
        data = json.dumps(data)
    with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)
    return path


class Corpus:
    def __init__(self, run, tmp: str, out):
        self.run, self.tmp, self.out = run, tmp, out
        self.count = self.failures = 0

    def invoke(self, argv: list[str]) -> tuple:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, not raised: the corpus goes on
            code = ["raised", repr(exc)]
        record = {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
                  "stderr": stderr.getvalue()}
        self.out.write(json.dumps(record).replace(self.tmp, "TMP") + "\n")
        self.count += 1
        self.failures += isinstance(code, list) or "Traceback" in record["stderr"]
        return code, stdout.getvalue()

    def file(self, name: str, data) -> str:
        return _write(os.path.join(self.tmp, name), data)


def _shapes():
    return [(r, c) for r in range(1, 10) for c in range(1, 10) if r * c <= 9]


def front_end(corpus: Corpus) -> None:
    corpus.invoke([])
    corpus.invoke(["--help"])
    for command in COMMANDS:
        corpus.invoke([command])
        corpus.invoke([command, "--help"])
    corpus.invoke(["break", "--method", "sideways"])
    corpus.invoke(["solve", "--problem"])


def matrix_models(corpus: Corpus) -> None:
    rng = random.Random(1)
    for r, c in _shapes():
        n = r * c
        syms = corpus.file(f"rc{r}x{c}.json",
                           {"generators": [{"kind": "row_col", "rows": r, "cols": c}]})
        k = rng.randint(0, c)
        rows = [list(t) for t in itertools.product((0, 1), repeat=c) if sum(t) == k]
        variants = {"free": [], f"rows{k}": [
            {"kind": "table", "scope": list(range(i * c, i * c + c)), "tuples": rows}
            for i in range(r)]}
        for label, constraints in variants.items():
            problem = corpus.file(f"p{r}x{c}{label}.json", {
                "n": n, "domains": [[0, 1]] * n, "shape": [r, c], "constraints": constraints})
            pair = ["--problem", problem, "--symmetries", syms]
            for fmt in FORMATS:
                corpus.invoke(["solve", "--problem", problem, *fmt])
                corpus.invoke(["orbits", *pair, *fmt])
                corpus.invoke(["compare", *pair, *fmt])
                runs = [["--ordering", o, "--method", m]
                        for o in ORDERINGS for m in METHODS[:2]]
                runs += [["--method", "doublelex"], ["--ordering", "snakelex", "--method",
                                                      "doublelex"]]
                runs += [[], ["--ordering", "gray"], ["--method", "leader-generators"]]
                for i, options in enumerate(runs):
                    corpus.invoke(["check", *pair, *options, *fmt])
                    # the same argv in every tree, whatever break printed
                    _, text = corpus.invoke(["break", *pair, *options, *fmt, "--seed", "7"])
                    surv = corpus.file(f"s{r}x{c}{label}{i}.txt", text)
                    corpus.invoke(["check", *pair, "--survivors", surv, *fmt])
                    if i == 0:
                        corpus.invoke(["check", *pair, "--survivors", surv,
                                       "--ordering", "gray"])
                        corpus.invoke(["check", *pair, "--survivors", surv,
                                       "--method", "leader-full"])
        if (r, c) == (3, 3):
            corpus.invoke(["compare", *pair, "--cap", "0"])
            corpus.invoke(["orbits", *pair, "--cap", "5"])
            tight = corpus.file("cap5.json", {"generators": [
                {"kind": "row_col", "rows": r, "cols": c}], "cap": 5})
            corpus.invoke(["break", "--problem", problem, "--symmetries", tight])


def unsorted_domains(corpus: Corpus) -> None:
    # domains listed out of sorted order: a position is the index in the
    # domain as listed, so lex codes and the literals' order differ.  With
    # x0 fixed, only the identity is a generator, so doublelex's swaps map
    # solutions outside the solution set
    cycle = [[[2, 0], [0, 1], [1, 2]]] * 4
    models = [("unsorted2x3", 2, 3, [1, 0], []),
              ("unsorted2x2", 2, 2, [2, 0, 1],
               [{"kind": "literal", "var_perm": [0, 1, 2, 3], "val_maps": cycle}])]
    for name, r, c, dom, extra in models:
        identity = [{"kind": "literal", "var_perm": list(range(r * c))}]
        for label, constraints, gens in (
                ("free", [], [{"kind": "row_col", "rows": r, "cols": c}, *extra]),
                ("x0", [{"kind": "unary", "var": 0, "value": dom[0]}], identity)):
            problem = corpus.file(f"{name}{label}.json", {
                "n": r * c, "domains": [dom] * (r * c), "shape": [r, c],
                "constraints": constraints})
            syms = corpus.file(f"{name}{label}syms.json", {"generators": gens})
            pair = ["--problem", problem, "--symmetries", syms]
            corpus.invoke(["orbits", *pair])
            for fmt in FORMATS:
                corpus.invoke(["compare", *pair, *fmt])
            runs = [["--ordering", o, "--method", m] for o in ORDERINGS for m in METHODS[:2]]
            for options in runs + [["--method", "doublelex"]]:
                corpus.invoke(["check", *pair, *options])
                corpus.invoke(["break", *pair, *options])


def value_maps(corpus: Corpus) -> None:
    """Literal generators over unsorted ternary and mixed domains whose
    `val_maps` pairs come in neither the listed nor the sorted order, then
    symmetry files that fail its checks, each through orbits, compare, check
    and break."""
    ternary, mixed = [[2, 0, 1]] * 4, [[2, 0, 1], [1, 0], [2, 0, 1], [1, 0]]
    cycle, keep3 = [[1, 2], [2, 0], [0, 1]], [[1, 1], [2, 2], [0, 0]]
    flip, keep2 = [[0, 1], [1, 0]], [[0, 0], [1, 1]]
    literal = lambda perm, maps: {"kind": "literal", "var_perm": perm, "val_maps": maps}
    files = {
        "vm-ternary": (ternary, [{"kind": "row_col", "rows": 2, "cols": 2},
                                 literal([0, 1, 2, 3], [cycle] * 4),
                                 literal([1, 0, 3, 2], [[[0, 0], [2, 1], [1, 2]]] * 4)]),
        "vm-mixed": (mixed, [literal([2, 3, 0, 1], [cycle, keep2, keep3, flip]),
                             literal([0, 1, 2, 3], [keep3, flip, [[2, 2], [0, 0], [1, 1]],
                                                    keep2])]),
        "vm-bad-perm": (mixed, [literal([0, 0, 1, 2], [[[2, 2], [0, 0]], flip, keep3, flip])]),
        "vm-short-perm": (mixed, [literal([0, 1, 2], [keep3, flip, keep3])]),
        "vm-partial": (mixed, [literal([0, 1, 2, 3], [keep3, flip, [[2, 2], [0, 0]], flip])]),
        "vm-partial-then-not-bijection": (
            mixed, [literal([0, 1, 2, 3], [[[2, 2], [0, 0]], flip, keep3, [[1, 0], [0, 0]]])]),
        "vm-partial-target": (
            mixed, [literal([2, 3, 0, 1], [cycle, keep2, [[2, 2], [0, 0]], flip])]),
        "vm-not-onto": (mixed, [literal([0, 1, 2, 3], [keep3, [[1, 5], [0, 1]], keep3, flip])]),
        "vm-not-onto-then-partial": (
            mixed, [literal([0, 1, 2, 3], [[[2, 2], [0, 0]], [[1, 5], [0, 1]], keep3, flip])]),
        "vm-short-maps": (mixed, [literal([0, 1, 2, 3], [keep3, flip, keep3])]),
    }
    for name, (domains, gens) in files.items():
        # no shape off the ternary model: doublelex's column swaps need equal domains
        shape = {"shape": [2, 2]} if domains is ternary else {}
        problem = corpus.file(f"{name}.json", {"n": 4, "domains": domains, **shape})
        syms = corpus.file(f"{name}-syms.json", {"generators": gens})
        pair = ["--problem", problem, "--symmetries", syms]
        corpus.invoke(["orbits", *pair])
        corpus.invoke(["compare", *pair])
        for ordering in ORDERINGS:
            for method in METHODS[:2]:
                corpus.invoke(["check", *pair, "--ordering", ordering, "--method", method])
                corpus.invoke(["break", *pair, "--ordering", ordering, "--method", method])


def leader_full_groups(corpus: Corpus) -> None:
    """Leader-full sets on groups whose generators repeat or include the
    identity, with the closure cap at |G|, at |G| - 1 and at the default."""
    for r, c in ((1, 2), (2, 2), (2, 3), (3, 3)):
        n = r * c
        free = corpus.file(f"lf{r}x{c}.json", {"n": n, "domains": [[0, 1]] * n,
                                                "shape": [r, c]})
        one = corpus.file(f"lf{r}x{c}x0.json", {"n": n, "domains": [[0, 1]] * n,
                                                "shape": [r, c], "constraints": [
                                                    {"kind": "unary", "var": 0, "value": 0}]})
        identity = {"kind": "literal", "var_perm": list(range(n))}
        flip = {"kind": "literal", "var_perm": list(range(n)), "val_maps": [[[0, 1], [1, 0]]] * n}
        row_col = {"kind": "row_col", "rows": r, "cols": c}
        order = math.factorial(r) * math.factorial(c)
        groups = {"repeated": ([row_col, row_col], order),
                  "identities": ([identity, row_col, identity], order),
                  "flips": ([flip, identity, flip, row_col], 2 * order),
                  "identity": ([identity], 1), "none": ([], 1)}
        for label, (gens, size) in groups.items():
            for cap in (size, size - 1, None):
                syms = corpus.file(f"lf{r}x{c}{label}{cap}.json", {"generators": gens} if cap
                                   is None else {"generators": gens, "cap": cap})
                for problem in (free, one):
                    pair = ["--problem", problem, "--symmetries", syms]
                    corpus.invoke(["compare", *pair])
                    for ordering in ("lex", "gray"):
                        full = ["--ordering", ordering, "--method", "leader-full"]
                        corpus.invoke(["check", *pair, *full])
                        corpus.invoke(["break", *pair, *full])


def residue_groups(corpus: Corpus) -> None:
    """Leader-full sets on groups whose stabilizer chain needs strong
    generators that are products of the given ones: a row 5-cycle with a row
    transposition on 5x2, value swaps mixed with variable permutations on
    3x2, and mixed domains; the first with the closure cap at |G| and
    |G| - 1 as well."""
    def rows(perm, r, c):
        return [perm[i] * c + j for i in range(r) for j in range(c)]

    flip, keep = [[0, 1], [1, 0]], [[0, 0], [1, 1]]
    groups = {
        "5x2-cycle": ((5, 2), [[0, 1]] * 10, [
            {"kind": "literal", "var_perm": rows([1, 2, 3, 4, 0], 5, 2)},
            {"kind": "literal", "var_perm": rows([1, 0, 2, 3, 4], 5, 2)}], 120),
        "3x2-values": ((3, 2), [[0, 1]] * 6, [
            {"kind": "literal", "var_perm": rows([1, 2, 0], 3, 2),
             "val_maps": [flip] + [keep] * 5},
            {"kind": "literal", "var_perm": [1, 0, 3, 2, 5, 4]},
            {"kind": "literal", "var_perm": list(range(6)), "val_maps": [keep] * 5 + [flip]}],
            None),
        "2x2-mixed": ((2, 2), [[0, 1, 2], [0, 1], [0, 1, 2], [0, 1]], [
            {"kind": "literal", "var_perm": [2, 3, 0, 1],
             "val_maps": [[[0, 1], [1, 2], [2, 0]], keep, [[0, 0], [1, 1], [2, 2]], keep]},
            {"kind": "literal", "var_perm": [0, 1, 2, 3],
             "val_maps": [[[0, 0], [1, 1], [2, 2]], flip, [[0, 0], [1, 1], [2, 2]], keep]},
            {"kind": "literal", "var_perm": [0, 3, 2, 1]}], None),
    }
    for label, ((r, c), domains, gens, order) in groups.items():
        base = {"n": r * c, "domains": domains, "shape": [r, c]}
        problems = [corpus.file(f"res{label}.json", base), corpus.file(f"res{label}-1.json", {
            **base, "constraints": [{"kind": "table", "scope": list(range(i * c, i * c + c)),
                                     "tuples": [[int(k == j) for k in range(c)]
                                                for j in range(c)]} for i in range(r)]})]
        for cap in ((None, order, order - 1) if order else (None,)):
            syms = corpus.file(f"res{label}{cap}.json", {"generators": gens} if cap is None
                               else {"generators": gens, "cap": cap})
            for problem in problems:
                pair = ["--problem", problem, "--symmetries", syms]
                corpus.invoke(["compare", *pair])
                for ordering in ORDERINGS:
                    full = ["--ordering", ordering, "--method", "leader-full"]
                    corpus.invoke(["check", *pair, *full])
                    corpus.invoke(["break", *pair, *full])


def large_group(corpus: Corpus) -> None:
    """Leader-full sets of the 2x8 row/column group (|G| = 80,640) on models
    with one and with two 1s per row, with the closure cap at the default,
    at |G| and at |G| - 1."""
    r, c = 2, 8
    order = math.factorial(r) * math.factorial(c)
    base = {"n": r * c, "domains": [[0, 1]] * (r * c), "shape": [r, c]}
    problems = [corpus.file(f"large{k}.json", {**base, "constraints": [
        {"kind": "table", "scope": list(range(i * c, i * c + c)),
         "tuples": [list(t) for t in itertools.product((0, 1), repeat=c) if sum(t) == k]}
        for i in range(r)]}) for k in (1, 2)]
    gens = [{"kind": "row_col", "rows": r, "cols": c}]
    for cap in (None, order, order - 1):
        syms = corpus.file(f"large{cap}.json", {"generators": gens} if cap is None
                           else {"generators": gens, "cap": cap})
        for problem in problems:
            pair = ["--problem", problem, "--symmetries", syms]
            corpus.invoke(["compare", *pair])
            for ordering in ORDERINGS:
                full = ["--ordering", ordering, "--method", "leader-full"]
                corpus.invoke(["check", *pair, *full])
                corpus.invoke(["break", *pair, *full])


def survivor_files(corpus: Corpus) -> None:
    problem = corpus.file("p2x2.json", {"n": 4, "domains": [[0, 1]] * 4, "shape": [2, 2]})
    syms = corpus.file("rc2x2.json", {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}]})
    texts = {
        "missing": None,
        "not-text": b"assignment\n\xff\xfe\n",
        "no-header": "0000\n",
        "orbit-first": "orbit,size\n",
        "empty": "",
        "repeated-header": "# c\n\nassignment\n0000\nassignment\n# x\n0001\n\n0011\n",
        "orbit-ends": "assignment\n0000\norbit  size\n0001\n",
        "off-domain": "assignment\n0002\n",
        "short": "assignment\n000\n",
    }
    for name, data in texts.items():
        path = (os.path.join(corpus.tmp, "absent.txt") if data is None
                else corpus.file(f"surv-{name}.txt", data))
        corpus.invoke(["check", "--problem", problem, "--symmetries", syms,
                       "--survivors", path])


def codes_end_to_end(corpus: Corpus) -> None:
    """A symmetry file without generators under orbits, break, check and
    compare, on mixed and on unsorted domains, free and with a constraint;
    `break` output on unsorted ternary domains read back by
    `check --survivors`; and generators that map a solution of a non-binary
    model outside the solution set, so that the error line's tuples are
    pinned."""
    none = corpus.file("gens-none.json", {"generators": []})
    # no shape off the unsorted models: snakelex and doublelex refuse mixed domains
    models = {"mixed": ([[0, 1, 2], [5, 7], [1, 3, 4], [0, 1]], 5, {}),
              "unsorted": ([[2, 0, 1]] * 4, 1, {"shape": [2, 2]}),
              "unsorted-binary": ([[1, 0]] * 4, 0, {"shape": [2, 2]})}
    for name, (domains, value, shape) in models.items():
        for label, constraints in (("free", []), ("x1", [{"kind": "unary", "var": 1,
                                                          "value": value}])):
            problem = corpus.file(f"none-{name}-{label}.json", {
                "n": 4, "domains": domains, **shape, "constraints": constraints})
            pair = ["--problem", problem, "--symmetries", none]
            corpus.invoke(["orbits", *pair])
            for fmt in FORMATS:
                corpus.invoke(["compare", *pair, *fmt])
            for options in ([], ["--ordering", "revlex", "--method", "leader-generators"],
                            ["--ordering", "snakelex"], ["--method", "doublelex"]):
                corpus.invoke(["check", *pair, *options])
                corpus.invoke(["break", *pair, *options])
    # the free model with value cycles too; one 2 in the table model's cells,
    # which every cell permutation keeps
    ternary, row_col = [[2, 0, 1]] * 4, {"kind": "row_col", "rows": 2, "cols": 2}
    cycle = {"kind": "literal", "var_perm": [0, 1, 2, 3],
             "val_maps": [[[2, 0], [0, 1], [1, 2]]] * 4}
    one_two = [list(t) for t in itertools.product((2, 0, 1), repeat=4) if t.count(2) == 1]
    for label, constraints, gens in (
            ("free", [], [row_col, cycle]),
            ("table", [{"kind": "table", "scope": [0, 1, 2, 3], "tuples": one_two}], [row_col])):
        problem = corpus.file(f"surv-ternary-{label}.json", {
            "n": 4, "domains": ternary, "shape": [2, 2], "constraints": constraints})
        syms = corpus.file(f"surv-ternary-{label}-syms.json", {"generators": gens})
        for i, options in enumerate(([], ["--ordering", "snakelex"],
                                     ["--method", "leader-generators"],
                                     ["--method", "doublelex"])):
            for pair in (["--problem", problem, "--symmetries", syms],
                         ["--problem", problem, "--symmetries", none]):
                _, text = corpus.invoke(["break", *pair, *options])
                surv = corpus.file(f"surv-ternary-{label}{i}.txt", text)
                corpus.invoke(["check", *pair, "--survivors", surv])
    # x0 = 2 on ternary domains: the swap sends (2, v) to (v, 2); on mixed
    # domains a value map sends x1 = 5 to 7
    escapes = {"ternary": ([[2, 0, 1]] * 2, {"kind": "unary", "var": 0, "value": 2},
                           {"kind": "literal", "var_perm": [1, 0]}),
               "mixed": ([[0, 1, 2], [5, 7]], {"kind": "unary", "var": 1, "value": 5},
                         {"kind": "literal", "var_perm": [0, 1],
                          "val_maps": [[[0, 0], [1, 1], [2, 2]], [[5, 7], [7, 5]]]})}
    for name, (domains, constraint, gen) in escapes.items():
        problem = corpus.file(f"escape-{name}.json", {"n": 2, "domains": domains,
                                                      "constraints": [constraint]})
        syms = corpus.file(f"escape-{name}-syms.json", {"generators": [gen]})
        for command in ("orbits", "compare", "check", "break"):
            corpus.invoke([command, "--problem", problem, "--symmetries", syms])


def rank_grids(corpus: Corpus) -> None:
    for ordering in ORDERINGS:
        for n in range(1, 5):
            shapes = [[]] + [["--shape", f"{r}x{n // r}"] for r in range(1, n + 1) if n % r == 0]
            for shape in shapes:
                space = ["--ordering", ordering, "--n", str(n), *shape]
                for bits in itertools.product("01", repeat=n):
                    corpus.invoke(["rank", *space, "".join(bits)])
                for k in range(-1, 2 ** n + 1):
                    corpus.invoke(["unrank", *space, "--k", str(k)])
        corpus.invoke(["rank", "--ordering", ordering, "--n", "2", "--shape", "5x5", "01"])
        corpus.invoke(["unrank", "--ordering", ordering, "--n", "2", "--shape=-1x-2", "--k", "1"])
    # every k of each space and one beyond, each assignment ranked back:
    # mixed radices (snakelex's on uneven radices too), a 3x1 shape, and
    # domains listed out of sorted order
    for name, domains, shape in (
            ("mixed", [[0, 1, 2], [5, 7], [1, 3, 4], [0, 1]], [2, 2]),
            ("mixed2x3", [[0, 1, 2], [5, 7], [1, 3, 4, 9], [0, 1], [4, 2], [3]], [2, 3]),
            ("mixed3x1", [[0, 1, 2], [5, 7], [1, 3, 4]], [3, 1]),
            ("unsorted2x2", [[1, 0], [7, 2], [2, 0], [1, 0]], [2, 2]),
            ("unsorted2x2ternary", [[1, 0], [2, 0, 1], [7, 2], [1, 0]], [2, 2])):
        path = corpus.file(f"{name}.json", {"n": len(domains), "domains": domains,
                                            "shape": shape})
        for ordering in ORDERINGS:
            for k in range(-1, math.prod(map(len, domains)) + 1):
                code, text = corpus.invoke(["unrank", "--ordering", ordering, "--problem", path,
                                            "--k", str(k)])
                if code == 0:
                    corpus.invoke(["rank", "--ordering", ordering, "--problem", path,
                                   text.strip()])
    mixed = os.path.join(corpus.tmp, "mixed.json")
    for extra in (["--n", "4"], ["--shape", "2x2"], ["--n", "4", "--shape", "2x2"]):
        corpus.invoke(["rank", "--problem", mixed, *extra, "0,5,1,0"])
        corpus.invoke(["unrank", "--problem", mixed, *extra, "--k", "1"])
    corpus.invoke(["rank", "01"])
    corpus.invoke(["rank", "--n", "2", "012"])
    corpus.invoke(["rank", "--n", "2", "--shape", "x", "01"])
    for option in (["--seed", "1"], ["--format", "csv"]):
        corpus.invoke(["rank", "--n", "2", *option, "01"])
        corpus.invoke(["unrank", "--n", "2", *option, "--k", "1"])


def gray_stores(corpus: Corpus) -> None:
    for n in range(1, 6):
        for strict in ([], ["--non-strict"]):
            for fmt in FORMATS:
                corpus.invoke(["gray-check", "--n", str(n), *strict, *fmt, "--seed", "2"])
    rng = random.Random(2)
    for i in range(40):
        n = rng.randint(1, 4)
        store = {"strict": rng.random() < 0.5,
                 "lhs": [rng.choice([[0], [1], [0, 1]]) for _ in range(n)],
                 "rhs": [rng.choice([[0], [1], [0, 1]]) for _ in range(n)]}
        if rng.random() < 0.5:
            store["state"] = [rng.choice([[-1], [0], [1], [-1, 0, 1], [0, 1]])
                              for _ in range(n + 1)]
        path = corpus.file(f"store{i}.json", store)
        corpus.invoke(["gray-check", "--store", path, *FORMATS[i % 2]])
    for extra in (["--n", "2"], ["--non-strict"], ["--n", "2", "--non-strict"]):
        corpus.invoke(["gray-check", "--store", path, *extra])
    corpus.invoke(["gray-check"])
    corpus.invoke(["gray-check", "--store", corpus.file("bad-store.json", [1, 2])])
    # the benchmark's widths and store kinds: every bit free, random bits, a
    # pinned pair in Gray order and reversed, and two pinned states; a Gray
    # code's rank is the binary number of its prefix parities
    rng = random.Random(3)
    for n in (8, 16, 32, 64, 128):
        for strict in (True, False):
            free = [[0, 1]] * n

            def some_bits(pinned):
                return [[rng.randint(0, 1)] if rng.random() < pinned else [0, 1]
                        for _ in range(n)]

            pair = [[(w >> (n - 1 - i)) & 1 for i in range(n)] for w in map(rng.getrandbits, (n, n))]
            lo, hi = ([[b] for b in v] for v in
                      sorted(pair, key=lambda v: list(itertools.accumulate(v, operator.xor))))
            state = [[-1, 0, 1]] * (n + 1)
            for pos in rng.sample(range(1, n + 1), 2):
                state[pos] = [rng.choice([-1, 0, 1])]
            kinds = {"full": (free, free, None), "bits": (some_bits(0.3), some_bits(0.3), None),
                     "pair-in": (lo, hi, None), "pair-out": (hi, lo, None),
                     "state": (some_bits(0.2), free, state)}
            for kind, (lhs, rhs, states) in kinds.items():
                store = {"strict": strict, "lhs": lhs, "rhs": rhs, "state": states}
                corpus.invoke(["gray-check", "--store",
                               corpus.file(f"wide-{kind}-{n}-{strict}.json", store)])


def benchmark_instances(corpus: Corpus) -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    for seed in (1, 2, 3):
        workdir = os.path.join(corpus.tmp, f"gadgets{seed}")
        os.mkdir(workdir)
        for inst in workloads.Gadgets().generate(seed, workdir)["instances"]:
            corpus.invoke(inst["argv"])
            if seed == 1:
                for option in (["--seed", "1"], ["--format", "csv"]):
                    corpus.invoke([*inst["argv"], *option])
    for name, workload in (("full", workloads.MatrixFull()), ("sparse", workloads.MatrixSparse())):
        workdir = os.path.join(corpus.tmp, name)
        os.mkdir(workdir)
        for inst in workload.generate(1, workdir)["instances"]:
            corpus.invoke(inst["argv"])
    corpus.invoke(["demo-prop1", "--instance", os.path.join(corpus.tmp, "absent.json")])
    corpus.invoke(["demo-prop2", "--instance", corpus.file("bad-cnf.json", {"n": 1})])


def deep_instances(corpus: Corpus) -> None:
    """Problems of 1000 or more variables under `--cap`, verdicts on the
    shaped 1x1000 row/column model, `demo-prop1`
    instances whose nominal gadget space is above 2^24 and its edge cases
    (one variable, UNSAT, so flag 1 survives; unsorted indices up to the
    12-variable maximum; a two-clause UNSAT core), and `demo-prop2`
    instances of 10 variables: no clauses (1024 members), one clause, UNSAT;
    then the smallest gadgets, of 1, 2 and 3 members, and the edge cases of
    the bit-mask model filter: a tautological clause, a repeated literal,
    all-negative unit clauses of 10 variables (zero the only model: 1
    member, SAT) and one positive unit of 10 (513 members)."""
    for n, free in ((1000, 0), (1000, 1), (1200, 0)):
        problem = corpus.file(f"deep{n}-{free}.json", {
            "n": n, "domains": [[0, 1]] * n, "constraints": [
                {"kind": "unary", "var": v, "value": 0} for v in range(n - free)]})
        # column swaps fix the all-zero solution; a free last variable is flipped
        gens = ([{"kind": "literal", "var_perm": list(range(n)),
                  "val_maps": [[[0, 0], [1, 1]]] * (n - 1) + [[[0, 1], [1, 0]]]}] if free
                else [{"kind": "row_col", "rows": 1, "cols": n}])
        syms = corpus.file(f"deep{n}-{free}-syms.json", {"generators": gens})
        corpus.invoke(["solve", "--problem", problem, "--cap", "5"])
        corpus.invoke(["orbits", "--problem", problem, "--symmetries", syms, "--cap", "5"])
    # the verdicts on the shaped 1x1000 model's 999 column swaps: a posted
    # generator is found among the partition's by key, so no command here
    # compares generators pairwise; then leader-full sets under a closure
    # cap of 10, which the stabilizer chain's first level, of 1000 points,
    # already exceeds
    n = 1000
    problem = corpus.file("deep-shaped.json", {
        "n": n, "domains": [[0, 1]] * n, "shape": [1, n], "constraints": [
            {"kind": "unary", "var": v, "value": 0} for v in range(n)]})
    columns = [{"kind": "row_col", "rows": 1, "cols": n}]
    pair = ["--problem", problem, "--symmetries", corpus.file("deep-shaped-syms.json",
                                                              {"generators": columns})]
    corpus.invoke(["break", *pair, "--method", "leader-generators", "--cap", "5"])
    corpus.invoke(["break", *pair, "--method", "doublelex", "--cap", "5"])
    corpus.invoke(["check", *pair, "--method", "leader-generators", "--cap", "5"])
    pair[-1] = corpus.file("deep-shaped-cap.json", {"generators": columns, "cap": 10})
    corpus.invoke(["break", *pair, "--method", "leader-full", "--cap", "5"])
    corpus.invoke(["compare", *pair, "--cap", "5"])
    rng = random.Random(4)
    for i, clauses in enumerate([
            [[1, 2, 3], [4, 5, 6], [1, 4, 7], [2, 5, 7]],
            [[1, 1, 2], [1, 2, 2], [3, 4, 5], [6, 7, 8]],
            [[1, 2, 12], [4, 5, 6], [7, 8, 9]],
            [[3 * k + 1, 3 * k + 2, 3 * k + 3] for k in range(4)] * 100,
            [[rng.randint(1, 12) for _ in range(3)] for _ in range(60)]]):
        corpus.invoke(["demo-prop1", "--instance",
                       corpus.file(f"wide{i}.json", {"clauses": clauses})])
    for i, clauses in enumerate([[[1, 1, 1]], [[12, 11, 10]], [[1, 1, 2], [2, 2, 1]]]):
        corpus.invoke(["demo-prop1", "--instance",
                       corpus.file(f"edge-1in3-{i}.json", {"clauses": clauses})])
    for i, clauses in enumerate([[], [[1, -5, 10]], [[3], [-3, 7], [-7]]]):
        corpus.invoke(["demo-prop2", "--instance",
                       corpus.file(f"wide-cnf{i}.json", {"n": 10, "clauses": clauses})])
    for members, cnf in enumerate([{"n": 1, "clauses": [[1], [-1]]}, {"n": 1, "clauses": []},
                                   {"n": 2, "clauses": [[1]]}], 1):
        corpus.invoke(["demo-prop2", "--instance", corpus.file(f"small-cnf{members}.json", cnf)])
    for i, cnf in enumerate([{"n": 2, "clauses": [[1, -1]]}, {"n": 3, "clauses": [[2, 2, -3]]},
                             {"n": 10, "clauses": [[-v] for v in range(1, 11)]},
                             {"n": 10, "clauses": [[4]]}]):
        corpus.invoke(["demo-prop2", "--instance", corpus.file(f"edge-cnf{i}.json", cnf)])


def clause_problems(corpus: Corpus) -> None:
    """Problems with `clause` constraints, positive and negative literals on
    binary, unsorted ternary and mixed domains, each kept by its generators,
    through solve, orbits, compare, check and break."""
    def clause(*literals):
        return {"kind": "clause", "literals": [{"var": v, "value": x, "positive": sign}
                                               for v, x, sign in literals]}

    models = {
        # a 1 in each row
        "binary2x3": ([[0, 1]] * 6, {"shape": [2, 3]},
                      [{"kind": "row_col", "rows": 2, "cols": 3}],
                      [clause((0, 1, True), (1, 1, True), (2, 1, True)),
                       clause((3, 1, True), (4, 1, True), (5, 1, True))]),
        # no column is 0 in both rows
        "ternary2x2": ([[2, 0, 1]] * 4, {"shape": [2, 2]},
                       [{"kind": "row_col", "rows": 2, "cols": 2}],
                       [clause((0, 0, False), (2, 0, False)),
                        clause((1, 0, False), (3, 0, False))]),
        # the pairs (x0, x1) and (x2, x3), swapped by the generator
        "mixed": ([[0, 1, 2], [5, 7], [0, 1, 2], [5, 7]], {},
                  [{"kind": "literal", "var_perm": [2, 3, 0, 1]}],
                  [clause((0, 2, True), (1, 7, False)), clause((2, 2, True), (3, 7, False))]),
    }
    for name, (domains, shape, gens, constraints) in models.items():
        problem = corpus.file(f"clause-{name}.json", {
            "n": len(domains), "domains": domains, **shape, "constraints": constraints})
        syms = corpus.file(f"clause-{name}-syms.json", {"generators": gens})
        pair = ["--problem", problem, "--symmetries", syms]
        for fmt in FORMATS:
            corpus.invoke(["solve", "--problem", problem, *fmt])
            corpus.invoke(["orbits", *pair, *fmt])
            corpus.invoke(["compare", *pair, *fmt])
        runs = [["--ordering", o, "--method", m] for o in ORDERINGS for m in METHODS[:2]]
        for options in runs + [["--method", "doublelex"]]:
            corpus.invoke(["check", *pair, *options])
            corpus.invoke(["break", *pair, *options])


def joined_runs(corpus: Corpus) -> None:
    """2x3 problems whose enumeration takes a run of variables as one level
    from a sparse table's rows: a table whose scope is listed out of order
    and reaches back across runs, a one-per-row ternary model on unsorted
    domains, and a dense and a sparse table ready at one depth, through
    solve, orbits and compare, then with caps that overflow inside a run."""
    def table(scope, rows):
        return {"kind": "table", "scope": scope, "tuples": [list(row) for row in rows]}

    one_nonzero = [t for t in itertools.product([2, 0, 1], repeat=3)
                   if sum(1 for v in t if v) == 1]
    one_hot = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    identity = [{"kind": "literal", "var_perm": list(range(6))}]
    models = {
        # x0 != x3 ends a run of four unjoined variables; the table on
        # [4, 1, 5, 3] joins x4 and x5 and reads x1 and x3 from before them
        "reach-back": ([[0, 1]] * 6, identity, [
            table([3, 0], [(0, 1), (1, 0)]),
            table([4, 1, 5, 3], [(0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 1, 0),
                                 (0, 1, 0, 0), (1, 1, 0, 1)])]),
        "ternary-one-per-row": ([[2, 0, 1]] * 6, [{"kind": "row_col", "rows": 2, "cols": 3}],
                                [table([0, 1, 2], one_nonzero), table([3, 4, 5], one_nonzero)]),
        # both tables on row 1 cover it; x5 and x2 not both 1 (12 rows of
        # 16) and a clause are checked on the rows of the one-hot table
        "dense-and-sparse": ([[0, 1]] * 6, [{"kind": "literal", "var_perm": [3, 4, 5, 0, 1, 2]}],
                             [table([0, 1, 2], one_hot), table([3, 4, 5], one_hot),
                              table([5, 2, 4, 3], [t for t in itertools.product((0, 1), repeat=4)
                                                   if t[:2] != (1, 1)]),
                              {"kind": "clause", "literals": [{"var": v, "value": 0}
                                                              for v in (0, 3, 2, 5)]}]),
    }
    for name, (domains, gens, constraints) in models.items():
        problem = corpus.file(f"joined-{name}.json", {
            "n": 6, "domains": domains, "shape": [2, 3], "constraints": constraints})
        syms = corpus.file(f"joined-{name}-syms.json", {"generators": gens})
        pair = ["--problem", problem, "--symmetries", syms]
        for fmt in FORMATS:
            corpus.invoke(["solve", "--problem", problem, *fmt])
            corpus.invoke(["orbits", *pair, *fmt])
            corpus.invoke(["compare", *pair, *fmt])
        for cap in ("1", "4"):
            corpus.invoke(["solve", "--problem", problem, "--cap", cap])
            corpus.invoke(["orbits", *pair, "--cap", cap])
            corpus.invoke(["compare", *pair, "--cap", cap])


def input_errors(corpus: Corpus) -> None:
    """The input checks that no other part reaches: cap overflows; in each
    kind of input file a field of the wrong shape, an unknown field and
    text that is not JSON; problems, symmetry files, 1-in-3 and CNF
    instances and candidate stores that fail a check; `gray-check --n 0`;
    and assignments that `rank` and `check --survivors` refuse."""
    free = corpus.file("err-free.json", {"n": 4, "domains": [[0, 1]] * 4, "shape": [2, 2]})
    rc = corpus.file("err-rc.json", {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}]})
    # 2^25 assignments: above the uncapped enumeration limit
    wide = corpus.file("err-wide.json", {"n": 25, "domains": [[0, 1]] * 25})
    none = corpus.file("err-none.json", {"generators": []})
    for command in ("solve", "orbits", "break", "check", "compare"):
        for problem, syms in ((free, rc), (wide, none)):
            pair = ["--problem", problem] + (["--symmetries", syms] if command != "solve" else [])
            corpus.invoke([command, *pair])
            corpus.invoke([command, *pair, "--cap", "1"])
            corpus.invoke([command, *pair, "--cap", "15"])

    binary = {"n": 2, "domains": [[0, 1]] * 2}
    constraint = lambda con: {**binary, "constraints": [con]}
    literal = lambda **entry: constraint({"kind": "clause", "literals": [entry]})
    problems = {
        "n-type": {"n": "2", "domains": [[0, 1]] * 2},
        "domains-type": {"n": 2, "domains": [0, 1]},
        "constraints-type": {**binary, "constraints": {"kind": "unary"}},
        "shape-type": {**binary, "shape": "1x2"},
        "field": {**binary, "size": 2},
        "table-field": constraint({"kind": "table", "scope": [0], "tuples": [[0]], "weight": 1}),
        "table-type": constraint({"kind": "table", "scope": [[0]], "tuples": [[0]]}),
        "clause-field": constraint({"kind": "clause", "literals": [], "weight": 1}),
        "clause-type": constraint({"kind": "clause", "literals": [[0, 1]]}),
        "literal-field": literal(var=0, value=1, sign=1),
        "literal-type": literal(var=0, value=1, positive=1),
        "unary-field": constraint({"kind": "unary", "var": 0, "value": 1, "weight": 1}),
        "unary-type": constraint({"kind": "unary", "var": 0, "value": "1"}),
        "kind": constraint({"kind": "alldiff", "scope": [0, 1]}),
        "empty-scope": constraint({"kind": "table", "scope": [], "tuples": []}),
        "empty-clause": constraint({"kind": "clause", "literals": []}),
        "repeated-scope": constraint({"kind": "table", "scope": [0, 0], "tuples": [[0, 0]]}),
        "unknown-var": constraint({"kind": "unary", "var": 2, "value": 0}),
        "negative-var": literal(var=-1, value=0),
        "row-arity": constraint({"kind": "table", "scope": [0, 1], "tuples": [[0, 1], [0]]}),
        "table-value": constraint({"kind": "table", "scope": [1, 0], "tuples": [[0, 2]]}),
        "clause-value": literal(var=1, value=3, positive=False),
        "unary-value": constraint({"kind": "unary", "var": 0, "value": -1}),
        "shape-pair": {**binary, "shape": [2]},
        "empty-domain": {"n": 2, "domains": [[0, 1], []]},
        "repeated-domain": {"n": 2, "domains": [[0, 1], [1, 0, 1]]},
        "domain-count": {"n": 3, "domains": [[0, 1]] * 2},
        "no-variables": {"n": 0, "domains": []},
        "not-json": '{"n": 2, "domains": [[0, 1]',
        "not-text": b'{"n": \xff}',
    }
    for name, data in problems.items():
        corpus.invoke(["solve", "--problem", corpus.file(f"err-{name}.json", data)])

    symmetries = {
        "generators-type": {"generators": {"kind": "row_col", "rows": 2, "cols": 2}},
        "cap-type": {"generators": [], "cap": "5"},
        "field": {"generators": [], "seed": 1},
        "literal-field": {"generators": [{"kind": "literal", "var_perm": [0, 1, 2, 3],
                                          "weight": 1}]},
        "row-col-field": {"generators": [{"kind": "row_col", "rows": 2, "cols": 2,
                                          "shape": [2, 2]}]},
        "row-col-type": {"generators": [{"kind": "row_col", "rows": "2", "cols": 2}]},
        "val-maps-type": {"generators": [{"kind": "literal", "var_perm": [0, 1, 2, 3],
                                          "val_maps": [[0, 1]] * 4}]},
        "val-maps-pairs": {"generators": [{"kind": "literal", "var_perm": [0, 1, 2, 3],
                                           "val_maps": [[[0, 1, 1], [1, 0]]] * 4}]},
        "val-maps-single": {"generators": [{"kind": "row_col", "rows": 2, "cols": 2},
                                           {"kind": "literal", "var_perm": [0, 1, 2, 3],
                                            "val_maps": [[[0], [1]]] * 4}]},
        "kind": {"generators": [{"kind": "row_col", "rows": 2, "cols": 2},
                                {"kind": "rotation"}]},
        "not-json": '{"generators": [}',
    }
    for name, data in symmetries.items():
        syms = corpus.file(f"err-syms-{name}.json", data)
        corpus.invoke(["orbits", "--problem", free, "--symmetries", syms])

    stores = {
        "lhs-type": {"lhs": [0, 1], "rhs": [[0]]},
        "strict-type": {"lhs": [[0]], "rhs": [[1]], "strict": "yes"},
        "field": {"lhs": [[0]], "rhs": [[1]], "n": 1},
        "short-rhs": {"lhs": [[0], [0, 1]], "rhs": [[1]]},
        "long-rhs": {"lhs": [[0]], "rhs": [[1], [0]]},
        "short-state": {"lhs": [[0]], "rhs": [[1]], "state": [[1]]},
        "long-state": {"lhs": [[0]], "rhs": [[1]], "state": [[1], [0], [0]]},
        "lhs-range": {"lhs": [[0], [2, 1]], "rhs": [[0, 1], [1]]},
        "rhs-range": {"lhs": [[0]], "rhs": [[-1]]},
        "state-range": {"lhs": [[0]], "rhs": [[1]], "state": [[1], [0, 2]]},
        "no-positions": {"lhs": [], "rhs": []},
        "not-json": "lhs: [[0]]",
    }
    for name, data in stores.items():
        corpus.invoke(["gray-check", "--store", corpus.file(f"err-store-{name}.json", data)])
    for n in ("0", "-1"):
        corpus.invoke(["gray-check", "--n", n])

    instances = {
        "one-in-three": ("demo-prop1", {
            "type": {"clauses": [1, 2, 3]},
            "field": {"clauses": [[1, 2, 3]], "n": 3},
            "no-clauses": {"clauses": []},
            "short-clause": {"clauses": [[1, 2, 3], [1, 2]]},
            "zero-index": {"clauses": [[0, 1, 2]]},
            "thirteen": {"clauses": [[1, 2, 3], [11, 12, 13]]},
            "not-json": '{"clauses": [[1, 2, 3]]}}'}),
        "cnf": ("demo-prop2", {
            "type": {"n": 2, "clauses": [1, -2]},
            "n-type": {"n": True, "clauses": []},
            "field": {"n": 2, "clauses": [], "m": 0},
            "no-variables": {"n": 0, "clauses": []},
            "empty-clause": {"n": 2, "clauses": [[1], []]},
            "zero-literal": {"n": 2, "clauses": [[1, 0]]},
            "literal-range": {"n": 2, "clauses": [[-3]]},
            "width": {"n": 11, "clauses": [[1, -11]]},
            "not-json": "",
        }),
    }
    for name, (command, files) in instances.items():
        for label, data in files.items():
            corpus.invoke([command, "--instance", corpus.file(f"err-{name}-{label}.json", data)])

    for text in ("1,x", "1,", "0,2", "1,0,1", "2"):
        corpus.invoke(["rank", "--n", "2", text])
    for name, text in (("off-domain", "assignment\n0,0,0,2\n"), ("bad", "assignment\n0,x\n")):
        corpus.invoke(["check", "--problem", free, "--symmetries", rc, "--survivors",
                       corpus.file(f"err-surv-{name}.txt", text)])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[3].strip(), file=sys.stderr)
        return 2
    src, out_path = argv
    sys.path.insert(0, os.path.abspath(src))
    os.environ["COLUMNS"] = "80"
    from symbreak.cli import run

    with tempfile.TemporaryDirectory() as tmp, open(out_path, "w") as out:
        corpus = Corpus(run, tmp, out)
        for part in (front_end, matrix_models, unsorted_domains, value_maps, leader_full_groups,
                     residue_groups, large_group, survivor_files, codes_end_to_end, rank_grids,
                     gray_stores, benchmark_instances, deep_instances, clause_problems,
                     joined_runs, input_errors):
            part(corpus)
    print(f"{corpus.count} invocations written to {out_path}", file=sys.stderr)
    if corpus.failures:
        print(f"{corpus.failures} raised or printed a traceback", file=sys.stderr)
    return 1 if corpus.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
