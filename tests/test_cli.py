import json
import re
import shlex
from pathlib import Path

import pytest

from symbreak.cli import run
from symbreak.reductions import group_gadget

from reference import assignment_formatter, count_rank_calls, gadget_cnfs

PROBLEM_2x2 = {"n": 4, "domains": [[0, 1]] * 4, "constraints": [], "shape": [2, 2]}
ROWCOL_2x2 = {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}]}


@pytest.fixture
def files(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEM_2x2))
    syms = tmp_path / "syms.json"
    syms.write_text(json.dumps(ROWCOL_2x2))
    return tmp_path, str(problem), str(syms)


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_command_lines() -> list[str]:
    """The commands of README's "Command line" block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.startswith("#")]


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # in order, in one directory: an echo line writes its file, a symbreak
    # line goes through run, and a "# -> X" comment is the line's output
    monkeypatch.chdir(tmp_path)
    shown = 0
    for line in readme_command_lines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words[0] == "echo":
            assert words[2] == ">", line
            Path(words[3]).write_text(words[1] + "\n")
            continue
        assert words[0] == "symbreak", line
        code, (out, err) = run(words[1:]), capsys.readouterr()
        assert code in (0, 1), (line, code, err)
        assert not any(text.startswith("error:") for text in (out + err).splitlines()), line
        if comment.strip().startswith("->"):
            assert out.strip() == comment.strip()[2:].strip(), line
            shown += 1
    assert shown == 1


def test_unrank_gray(capsys):
    code, out, _ = invoke(capsys, ["unrank", "--ordering", "gray", "--n", "4", "--k", "2"])
    assert code == 0
    assert out.strip() == "0011"


def test_rank_round_trips_unrank(capsys):
    code, out, _ = invoke(capsys, ["rank", "--ordering", "gray", "--n", "4", "0011"])
    assert code == 0 and out.strip() == "2"
    code, out, _ = invoke(capsys, ["rank", "--ordering", "snakelex", "--n", "4",
                                   "--shape", "2x2", "0110"])
    assert code == 0
    code, out2, _ = invoke(capsys, ["unrank", "--ordering", "snakelex", "--n", "4",
                                    "--shape", "2x2", "--k", out.strip()])
    assert out2.strip() == "0110"


def test_solve_lists_every_assignment(capsys, files):
    _, problem, _ = files
    code, out, _ = invoke(capsys, ["solve", "--problem", problem, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=0 solutions=16"
    assert lines[1] == "assignment"
    assert len(lines) == 18


def test_solve_infeasible_exit_code(capsys, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({
        "n": 1, "domains": [[0, 1]],
        "constraints": [{"kind": "table", "scope": [0], "tuples": []}]}))
    code, out, _ = invoke(capsys, ["solve", "--problem", str(problem)])
    assert code == 1


def test_orbits_report(capsys, files):
    _, problem, syms = files
    code, out, _ = invoke(capsys, ["orbits", "--problem", problem,
                                   "--symmetries", syms, "--format", "csv"])
    assert code == 0
    assert "# seed=0 orbits=7" in out


def test_break_leader_full(capsys, files):
    _, problem, syms = files
    code, out, _ = invoke(capsys, ["break", "--problem", problem, "--symmetries", syms,
                                   "--ordering", "lex", "--method", "leader-full",
                                   "--format", "csv"])
    assert code == 0
    head = out.splitlines()[0]
    assert "survivors=7" in head and "constraints=3" in head
    body = out.split("\n\n")[0].splitlines()
    assert body[1] == "assignment"
    assert len(body) == 9  # header comment + column header + 7 survivors


def test_check_doublelex_2x2(capsys, files):
    _, problem, syms = files
    code, out, _ = invoke(capsys, ["check", "--problem", problem, "--symmetries", syms,
                                   "--method", "doublelex", "--format", "csv"])
    assert code == 0
    assert "true,true,7,7" in out


def test_break_output_round_trips_into_check(capsys, files, tmp_path):
    _, problem, syms = files
    code, out, _ = invoke(capsys, ["break", "--problem", problem, "--symmetries", syms,
                                   "--ordering", "gray", "--method", "leader-full",
                                   "--format", "csv"])
    assert code == 0
    surv = tmp_path / "survivors.csv"
    surv.write_text(out)
    code, direct, _ = invoke(capsys, ["check", "--problem", problem, "--symmetries", syms,
                                      "--ordering", "gray", "--method", "leader-full",
                                      "--format", "csv"])
    code2, reread, _ = invoke(capsys, ["check", "--problem", problem, "--symmetries", syms,
                                       "--survivors", str(surv), "--format", "csv"])
    assert code == code2 == 0
    assert direct == reread


def test_check_incomplete_set_exits_one(capsys, tmp_path):
    # doublelex keeps two members of one orbit at 2x3
    problem = tmp_path / "p23.json"
    problem.write_text(json.dumps({"n": 6, "domains": [[0, 1]] * 6, "shape": [2, 3]}))
    syms = tmp_path / "s23.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": 2, "cols": 3}]}))
    code, out, _ = invoke(capsys, ["check", "--problem", str(problem),
                                   "--symmetries", str(syms),
                                   "--method", "doublelex", "--format", "csv"])
    assert "true,false" in out
    assert code == 1


def test_gray_check_full_domains(capsys):
    code, out, _ = invoke(capsys, ["gray-check", "--n", "1", "--format", "csv"])
    assert code == 0
    assert "lhs1,0" in out and "rhs1,1" in out
    assert "events=" in out


def test_gray_check_store_file_and_failure(capsys, tmp_path):
    # events= counts the removals made before the wipeout, so it pins the
    # propagator's FIFO order; the second store wipes out at block 3 of 5;
    # the third has no candidates at all, so it fails with no removal
    free, signs = [0, 1], [-1, 0, 1]
    cases = [
        ({"strict": True, "lhs": [[1], [0]], "rhs": [free, free]},
         "# seed=0 n=2 strict=true events=8\nFAIL\n"),
        ({"strict": True, "lhs": [free, free, [1], free, free],
          "rhs": [free, free, [0], free, free],
          "state": [signs, signs, [1], signs, signs, signs]},
         "# seed=0 n=5 strict=true events=6\nFAIL\n"),
        ({"lhs": [[]], "rhs": [[]], "state": [[], []]}, "# seed=0 n=1 strict=true events=0\nFAIL\n"),
    ]
    store = tmp_path / "store.json"
    for data, expected in cases:
        store.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, ["gray-check", "--store", str(store)])
        assert code == 1
        assert out == expected


@pytest.mark.parametrize("extra", [["--n", "5"], ["--non-strict"], ["--n", "2", "--non-strict"]],
                         ids=["n", "non-strict", "n-and-non-strict"])
def test_gray_check_options_conflicting_with_store_are_refused(capsys, tmp_path, extra):
    store = tmp_path / "s.json"
    store.write_text(json.dumps({"lhs": [[0, 1]] * 2, "rhs": [[0, 1]] * 2}))
    code, out, err = invoke(capsys, ["gray-check", "--store", str(store), *extra])
    assert code == 2 and out == ""
    assert err == f"error: --store gives n and strictness; drop {extra[0]}\n"


def test_gray_check_non_strict(capsys):
    code, out, _ = invoke(capsys, ["gray-check", "--n", "1", "--non-strict",
                                   "--format", "csv"])
    assert code == 0
    assert "lhs1,0 1" in out


def test_demo_prop1(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"clauses": [[1, 2, 3]]}))
    code, out, _ = invoke(capsys, ["demo-prop1", "--instance", str(inst)])
    assert code == 0
    assert "verdict: SAT" in out and "oracle: SAT" in out and "agreement: true" in out
    inst.write_text(json.dumps({"clauses": [[1, 1, 1]]}))
    code, out, _ = invoke(capsys, ["demo-prop1", "--instance", str(inst)])
    assert code == 1
    assert "verdict: UNSAT" in out and "agreement: true" in out
    # 13 gadget variables: 7^12 * 2 assignments, above MAX_ENUMERATION_SPACE;
    # the gadget's two solutions are built as codes, so nothing is enumerated
    inst.write_text(json.dumps({"clauses": [[1, 2, 3], [4, 5, 6], [1, 4, 7], [2, 5, 7]]}))
    code, out, err = invoke(capsys, ["demo-prop1", "--instance", str(inst)])
    assert (code, err) == (0, "")
    assert "verdict: SAT" in out and "agreement: true" in out


def test_demo_prop2(capsys, tmp_path):
    inst = tmp_path / "phi.json"
    inst.write_text(json.dumps({"n": 2, "clauses": [[1, 2]]}))
    code, out, _ = invoke(capsys, ["demo-prop2", "--instance", str(inst)])
    assert code == 0
    assert "verdict: SAT" in out and "agreement: true" in out
    inst.write_text(json.dumps({"n": 1, "clauses": [[1], [-1]]}))
    code, out, _ = invoke(capsys, ["demo-prop2", "--instance", str(inst)])
    assert code == 1
    assert "verdict: UNSAT" in out and "agreement: true" in out


def test_demo_prop2_prints_the_reference_rows_of_every_gadget(capsys, tmp_path):
    # the member lines, from the chunk tables, are the reference formatter's
    # rows of the decoded solutions, in increasing code order
    path = tmp_path / "cnf.json"
    for phi in gadget_cnfs():
        path.write_text(json.dumps({"n": phi.num_vars, "clauses": phi.clauses}))
        run(["demo-prop2", "--instance", str(path)])
        lines = capsys.readouterr().out.splitlines()
        gadget = group_gadget(phi)
        rows = map(assignment_formatter(gadget.ordering.domains),
                   gadget.ordering.decode(list(gadget.solutions)))
        assert lines[2:-3] == [f"  {row}" for row in rows], phi


def test_compare_grid(capsys, files):
    _, problem, syms = files
    code, out, _ = invoke(capsys, ["compare", "--problem", problem,
                                   "--symmetries", syms, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "ordering,method,constraints,survivors,orbits,sound,complete"
    assert "lex,leader-full,3,7,7,true,true" in lines
    assert "gray,leader-full,3,7,7,true,true" in lines
    assert any(row.startswith("lex,doublelex") for row in lines)


def test_identical_runs_are_byte_identical(capsys, files):
    _, problem, syms = files
    argv = ["compare", "--problem", problem, "--symmetries", syms, "--format", "csv"]
    _, first, _ = invoke(capsys, argv)
    _, second, _ = invoke(capsys, argv)
    assert first == second


def test_input_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = invoke(capsys, ["solve", "--problem", str(missing)])
    assert code == 2
    assert "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "domains": [[0, 1]], "colour": "red"}')
    code, _, err = invoke(capsys, ["solve", "--problem", str(bad)])
    assert code == 2


def test_cap_overflow_exit_code(capsys, tmp_path):
    problem = tmp_path / "p33.json"
    problem.write_text(json.dumps({"n": 9, "domains": [[0, 1]] * 9, "shape": [3, 3]}))
    syms = tmp_path / "s33.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": 3, "cols": 3}],
                                "cap": 5}))
    for command in (["break", "--method", "leader-full"], ["compare"]):
        code, out, err = invoke(capsys, [*command, "--problem", str(problem),
                                         "--symmetries", str(syms)])
        assert (code, out, err) == (3, "", "error: closure exceeds cap=5\n"), command


@pytest.mark.parametrize("command", ["compare", "check", "break"])
def test_closure_over_its_cap_exits_ahead_of_an_orbit_error(capsys, tmp_path, command):
    # x0 = 1 and row/column swaps: the solutions are not closed under the
    # group (an orbit error, exit 2), but the 4-element closure at cap 3
    # overflows first; at cap 4 it fits and the orbit error follows
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(dict(PROBLEM_2x2, constraints=[
        {"kind": "unary", "var": 0, "value": 1}])))
    syms = tmp_path / "s.json"
    for cap, code, err in ((3, 3, "error: closure exceeds cap=3\n"),
                           (4, 2, "error: generator maps a solution outside the solution set")):
        syms.write_text(json.dumps(dict(ROWCOL_2x2, cap=cap)))
        got = invoke(capsys, [command, "--problem", str(problem), "--symmetries", str(syms)])
        assert got[:2] == (code, "") and got[2].startswith(err), (command, cap)


def test_leader_full_builds_no_group_element(capsys, tmp_path, monkeypatch):
    # On 3x3 the group has 36 elements and 4 generators.  A leader-full set
    # names its group and is judged by each orbit's least-ranked member, so
    # the only LiteralSymmetry objects built are the 4 generators read from
    # the file (and, for compare, doublelex's 4 row and column swaps), and
    # the only LeaderConstraint objects those that compare's
    # leader-generators rows (4 orderings x 4 generators) and doublelex row
    # (4) post.  Building the closure's elements and one constraint per
    # element would add 36 + 35.
    from symbreak.breaker import LeaderConstraint
    from symbreak.literals import LiteralSymmetry

    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 9, "domains": [[0, 1]] * 9, "shape": [3, 3]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": 3, "cols": 3}]}))
    built = {}
    for cls in (LiteralSymmetry, LeaderConstraint):
        def counted(self, *args, init=cls.__init__, name=cls.__name__):
            built[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for command, expected in (("compare", (8, 20)), ("check", (4, 0)), ("break", (4, 0))):
        built.update(LiteralSymmetry=0, LeaderConstraint=0)
        method = [] if command == "compare" else ["--method", "leader-full"]
        code, out, _ = invoke(capsys, [command, *method, "--problem", str(problem),
                                       "--symmetries", str(syms)])
        assert code in (0, 1) and out
        assert (built["LiteralSymmetry"], built["LeaderConstraint"]) == expected, command


def test_leader_full_runs_no_closure_search(capsys, tmp_path, monkeypatch):
    # compare, check and break on a 4x5 model with one 1 per row: the four
    # leader-full rows take each orbit's least-ranked member, and the
    # 2880-element group is only counted by its stabilizer chain, so none of
    # its elements is built
    from symbreak.symmetry import SymmetryGroup, row_col_group

    r, c = 4, 5
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": r * c, "domains": [[0, 1]] * (r * c), "shape": [r, c],
                                   "constraints": [
                                       {"kind": "table", "scope": list(range(i * c, i * c + c)),
                                        "tuples": [[int(k == j) for k in range(c)]
                                                   for j in range(c)]} for i in range(r)]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": r, "cols": c}]}))

    def closure(self):
        raise AssertionError("the group's elements were built")

    monkeypatch.setattr(SymmetryGroup, "closure", closure)
    for command in ("compare", "check", "break"):
        method = [] if command == "compare" else ["--method", "leader-full"]
        code, out, _ = invoke(capsys, [command, *method, "--problem", str(problem),
                                       "--symmetries", str(syms)])
        assert code == 0 and out, command
    with pytest.raises(AssertionError, match="elements were built"):  # the patch is live
        row_col_group((2, 2)).closure()
    rows = invoke(capsys, ["compare", "--problem", str(problem), "--symmetries", str(syms)])[1]
    full = [row.split()[2:] for row in rows.splitlines() if "leader-full" in row]
    assert full == [["2879", "5", "5", "true", "true"]] * 4


def test_runs_leave_no_cyclic_garbage(capsys, tmp_path):
    # Mixed domains give a literal space whose domain check is a lambda, and
    # the enumeration is a nested recursive function: neither may hold its
    # owner in a cycle, so that each run's objects, the solution lists
    # among them, are freed by reference counting alone.
    import gc

    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 4, "domains": [[0, 1], [0, 1, 2], [0, 1], [0, 1, 2]],
                                   "constraints": [
                                       {"kind": "table", "scope": [v], "tuples": [[0], [2]]}
                                       for v in (1, 3)]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "literal", "var_perm": [2, 3, 0, 1]}]}))
    one_in_three = tmp_path / "i.json"
    one_in_three.write_text(json.dumps({"clauses": [[1, 2, 3]]}))
    cnf = tmp_path / "c.json"
    cnf.write_text(json.dumps({"n": 2, "clauses": [[1, 2]]}))
    pair = ["--problem", str(problem), "--symmetries", str(syms)]
    runs = [["solve", "--problem", str(problem)], ["orbits", *pair], ["break", *pair],
            ["check", *pair], ["compare", *pair], ["demo-prop1", "--instance", str(one_in_three)],
            ["demo-prop2", "--instance", str(cnf)]]
    run(runs[0])
    gc.collect()
    gc.disable()
    try:
        for argv in runs:
            assert run(argv) in (0, 1) and capsys.readouterr().out, argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["break", "--method", "sideways"])
    assert exc.value.code == 2


def count_codes(monkeypatch, calls: dict):
    """Count into `calls` the lex codes `LexOrdering.codes` returns
    ("codes"); the returned Counter counts each literal symmetry's
    `image_codes` calls."""
    from collections import Counter

    from symbreak.literals import LiteralSymmetry
    from symbreak.orderings import LexOrdering

    image_codes_of = Counter()
    codes, image_codes = LexOrdering.codes, LiteralSymmetry.image_codes

    def counted_codes(self, assignments):
        found = codes(self, assignments)
        calls["codes"] += len(found)
        return found

    def counted_image_codes(self, some):
        image_codes_of[self] += 1
        return image_codes(self, some)

    monkeypatch.setattr(LexOrdering, "codes", counted_codes)
    monkeypatch.setattr(LiteralSymmetry, "image_codes", counted_image_codes)
    return image_codes_of


def test_orbits_once_and_one_evaluation_per_solution(capsys, files, monkeypatch):
    # The per-assignment path this replaced evaluated each breaking set once
    # per solution (9 x 16, 16 and 16 SymmetryBreakingSet.satisfied calls).
    # The kernel evaluates no set per assignment.  The enumeration gives
    # `orbits` the 16 solutions' lex codes, so nothing encodes an
    # assignment, and `orbits` gives each generator one image-code list;
    # every posted ordering (compare's lex, revlex, gray and snakelex, whose
    # doublelex row shares lex; lex for check and break) ranks those codes
    # by its rule, and the verdicts are rank lookups.  So nothing calls
    # `rank` or `unrank`.
    import symbreak.breaker
    import symbreak.cli
    from symbreak.breaker import LeaderConstraint, SymmetryBreakingSet
    from symbreak.symmetry import orbits, row_col_generators

    calls = count_rank_calls(monkeypatch)
    image_codes_of = count_codes(monkeypatch, calls)

    def counter(name, method):
        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    def counted_orbits(*args):
        calls["orbits"] += 1
        return orbits(*args)

    for module in (symbreak.cli, symbreak.breaker):
        monkeypatch.setattr(module, "orbits", counted_orbits)
    for name, cls in (("set", SymmetryBreakingSet), ("leader", LeaderConstraint)):
        monkeypatch.setattr(cls, "satisfied", counter(name, cls.satisfied))
    _, problem, syms = files
    for command in ("compare", "check", "break", "orbits"):
        calls.update(orbits=0, set=0, leader=0, rank=0, codes=0)
        image_codes_of.clear()
        code, _, _ = invoke(capsys, [command, "--problem", problem, "--symmetries", syms])
        assert code == 0
        assert calls == {"orbits": 1, "set": 0, "leader": 0, "rank": 0, "codes": 0}, command
        assert image_codes_of == dict.fromkeys(row_col_generators((2, 2)), 1), command


def _cli_env() -> dict:
    import os

    import symbreak

    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symbreak.__file__)))


def _run_cli_subprocess(argv):
    import subprocess
    import sys

    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=_cli_env())


def test_deep_problem_solves_without_recursion(tmp_path):
    # one depth per variable: 1200 exceeds Python's default recursion limit
    n = 1200
    problem = tmp_path / "deep.json"
    problem.write_text(json.dumps({"n": n, "domains": [[0, 1]] * n, "constraints": [
        {"kind": "unary", "var": v, "value": v % 2} for v in range(n)]}))
    proc = _run_cli_subprocess(["-m", "symbreak", "solve", "--problem", str(problem),
                                "--cap", "5"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["# seed=0 solutions=1", "assignment", "01" * (n // 2)]


def test_demo_prop1_with_400_clauses_answers(tmp_path):
    # 1201 gadget variables, whose two solutions are built as codes
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"clauses": [[3 * k + 1, 3 * k + 2, 3 * k + 3]
                                            for k in range(4)] * 100}))
    proc = _run_cli_subprocess(["-m", "symbreak", "demo-prop1", "--instance", str(inst)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-3:] == ["verdict: SAT", "oracle: SAT", "agreement: true"]


@pytest.mark.parametrize("kind", ["problem", "symmetries", "store", "1-in-3", "cnf"])
def test_top_level_json_array_is_an_input_error(files, kind):
    tmp_path, problem, syms = files
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]")
    argv = {"problem": ["solve", "--problem", str(bad)],
            "symmetries": ["orbits", "--problem", problem, "--symmetries", str(bad)],
            "store": ["gray-check", "--store", str(bad)],
            "1-in-3": ["demo-prop1", "--instance", str(bad)],
            "cnf": ["demo-prop2", "--instance", str(bad)]}[kind]
    proc = _run_cli_subprocess(["-m", "symbreak", *argv])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_out_of_range_var_perm_is_an_input_error(capsys, tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 2, "domains": [[0, 1]] * 2}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "literal", "var_perm": [0, 5]}]}))
    code, _, err = invoke(capsys, ["orbits", "--problem", str(problem),
                                   "--symmetries", str(syms)])
    assert code == 2
    assert err.startswith("error:")


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # neither importing the command line nor running compare on an
    # unconstrained 3x3 model loads numpy, whose import alone would cost
    # more memory than the benchmark's peak-RSS bound allows
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 9, "domains": [[0, 1]] * 9, "shape": [3, 3]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": 3, "cols": 3}]}))
    script = ("import contextlib, io, sys, symbreak.cli\n"
              "print('numpy' in sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = symbreak.cli.run(['compare', '--problem', {str(problem)!r}, "
              f"'--symmetries', {str(syms)!r}])\n"
              "print(code, 'numpy' in sys.modules)")
    proc = _run_cli_subprocess(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


@pytest.mark.parametrize("layer, unloaded", [
    ("symbreak.gray", ("symbreak.breaker", "symbreak.reductions", "symbreak.cli")),
    # the gadgets are solved on codes: only the model and the orderings
    ("symbreak.reductions",
     ("symbreak.breaker", "symbreak.symmetry", "symbreak.literals", "symbreak.cli")),
], ids=["symbreak.gray", "symbreak.reductions"])
def test_import_leaves_the_other_layers_unloaded(layer, unloaded):
    proc = _run_cli_subprocess(["-c", f"import sys, {layer}; print(sorted(sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert repr(layer) in loaded
    for module in unloaded:
        assert repr(module) not in loaded


@pytest.mark.parametrize("shape, codes", [((2, 3), 64), ((3, 3), 512)])
def test_leader_checks_per_compare(capsys, tmp_path, monkeypatch, shape, codes):
    # The per-assignment path made 1567 and 14152 LeaderConstraint.satisfied
    # calls here, and the ranking that replaced it one key call per solution
    # per posted ordering (4 x 64 and 4 x 512).  The kernel makes no
    # per-assignment call, `satisfied`, `rank` or `unrank`:
    # the enumeration gives each of the 2^(r*c) solutions its lex code, so
    # nothing encodes an assignment, each of the r + c - 2 generators gets
    # one image-code list, and lex, revlex, gray and snakelex (doublelex
    # shares lex) rank the codes by their rules.
    from symbreak.breaker import LeaderConstraint

    r, c = shape
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": r * c, "domains": [[0, 1]] * (r * c),
                                   "shape": [r, c]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": r, "cols": c}]}))
    calls = count_rank_calls(monkeypatch)
    calls.update(leader=0, codes=0)
    image_codes_of = count_codes(monkeypatch, calls)
    satisfied = LeaderConstraint.satisfied

    def counted(self, a):
        calls["leader"] += 1
        return satisfied(self, a)

    monkeypatch.setattr(LeaderConstraint, "satisfied", counted)
    code, out, _ = invoke(capsys, ["compare", "--problem", str(problem),
                                   "--symmetries", str(syms)])
    assert code == 0 and out.splitlines()[0] == f"# seed=0 solutions={codes}"
    assert calls == {"rank": 0, "leader": 0, "codes": 0}
    assert sorted(image_codes_of.values()) == [1] * (r + c - 2)


def test_rank_calls_for_doublelex_images_outside_the_solutions(capsys, tmp_path, monkeypatch):
    # x0 = 1 leaves 8 solutions, and the symmetry file holds only the
    # identity, so doublelex's row and column swaps are no group element:
    # each one's image codes are taken of the solutions still alive, and
    # ranked by lex's rule whether the image is a solution or not, so no
    # per-assignment `rank` or `unrank` call is made.  The row swap sends the 4 solutions with x2 = 0
    # outside (3 survive it); the column swap then codes those 3.
    from symbreak.literals import LiteralSymmetry

    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(dict(PROBLEM_2x2, constraints=[
        {"kind": "unary", "var": 0, "value": 1}])))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "literal", "var_perm": [0, 1, 2, 3]}]}))
    calls = count_rank_calls(monkeypatch)
    coded = []
    image_codes = LiteralSymmetry.image_codes

    def counted(self, codes):
        coded.append(len(codes))
        return image_codes(self, codes)

    monkeypatch.setattr(LiteralSymmetry, "image_codes", counted)
    code, out, _ = invoke(capsys, ["check", "--method", "doublelex", "--problem", str(problem),
                                   "--symmetries", str(syms)])
    assert (code, out.splitlines()[-1].split()) == (1, ["false", "true", "8", "1"])
    # the identity generator's list in `orbits`, then the row and column swaps
    assert calls["rank"] == 0 and coded == [8, 8, 3]


# x0 = 1, and each generator moves x0 to another cell while flipping the
# value it brings back: g (swap x0, x1) sends the solutions with x1 = 1
# outside the set, h (swap x0, x2) those with x2 = 1.  From (1, 0, 0, 0)
# both images stay inside; the search reaches the error one step later, at
# whichever image the first generator found, so the line follows the order.
SWAP_FLIP = {"g": ([1, 0, 2, 3], 1), "h": ([2, 1, 0, 3], 2)}


@pytest.mark.parametrize("command", ["orbits", "check", "compare", "break"])
@pytest.mark.parametrize("order, line", [
    ("gh", "((1, 1, 0, 0) -> (0, 1, 0, 0))"),
    ("hg", "((1, 0, 1, 0) -> (0, 0, 1, 0))"),
])
def test_generator_leaving_the_solutions_is_an_input_error(capsys, tmp_path, command, order,
                                                           line):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(dict(PROBLEM_2x2, constraints=[
        {"kind": "unary", "var": 0, "value": 1}])))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [
        {"kind": "literal", "var_perm": SWAP_FLIP[name][0],
         "val_maps": [[[0, 1], [1, 0]] if i == SWAP_FLIP[name][1] else [[0, 0], [1, 1]]
                      for i in range(4)]}
        for name in order]}))
    code, out, err = invoke(capsys, [command, "--problem", str(problem),
                                     "--symmetries", str(syms)])
    assert (code, out) == (2, "")
    assert err == f"error: generator maps a solution outside the solution set {line}\n"


BINARY_2 = {"n": 2, "domains": [[0, 1]] * 2}
NO_GENERATORS = {"generators": []}


@pytest.mark.parametrize("problem, syms, line", [
    (dict(BINARY_2, n="2"), NO_GENERATORS,
     "field 'n' in problem must be an integer"),
    (dict(BINARY_2, domains=5), NO_GENERATORS,
     "field 'domains' in problem must be a list of lists of integers"),
    (dict(BINARY_2, constraints=[{"kind": "unary", "var": "0", "value": 1}]), NO_GENERATORS,
     "field 'var' in unary constraint must be an integer"),
    (BINARY_2, {"generators": [{"kind": "literal", "var_perm": ["a", 1]}]},
     "generator 0: field 'var_perm' in literal symmetry must be a list of integers"),
    (BINARY_2, {"generators": 5},
     "field 'generators' in symmetry file must be a list of objects"),
    (BINARY_2, {"generators": [], "cap": "x"},
     "field 'cap' in symmetry file must be an integer"),
    # a partial value map, and one onto a value outside the domain
    (BINARY_2, {"generators": [{"kind": "literal", "var_perm": [0, 1],
                                "val_maps": [[[0, 0]], [[0, 0], [1, 1]]]}]},
     "generator 0: value map of variable 0 does not cover its domain (0, 1)"),
    (BINARY_2, {"generators": [{"kind": "row_col", "rows": 1, "cols": 2},
                               {"kind": "literal", "var_perm": [0, 1],
                                "val_maps": [[[0, 0], [1, 2]], [[0, 0], [1, 1]]]}]},
     "generator 1: value map of variable 0 is not onto the domain of variable 0"),
    # JSON booleans are neither integers nor strings
    (dict(BINARY_2, n=True), NO_GENERATORS, "field 'n' in problem must be an integer"),
    (dict(BINARY_2, constraints=[{"kind": "clause", "literals": [
        {"var": 0, "value": 1, "positive": "false"}]}]), NO_GENERATORS,
     "field 'positive' in clause literal must be a boolean"),
    ({"strict": "no", "lhs": [[0]], "rhs": [[1]]}, None,
     "field 'strict' in store file must be a boolean"),
    # every value outside its domain gets the one message, as does every uncovered shape
    (dict(BINARY_2, constraints=[{"kind": "table", "scope": [0, 1], "tuples": [[0, 2]]}]),
     NO_GENERATORS, "value 2 outside domain of variable 1"),
    (dict(BINARY_2, constraints=[{"kind": "unary", "var": 0, "value": 5}]), NO_GENERATORS,
     "value 5 outside domain of variable 0"),
    (dict(BINARY_2, constraints=[{"kind": "clause", "literals": [{"var": 1, "value": 3}]}]),
     NO_GENERATORS, "value 3 outside domain of variable 1"),
    (BINARY_2, {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}]},
     "generator 0: shape (2, 2) does not cover 2 variables"),
], ids=["n-string", "domains-int", "unary-var-string", "var-perm-string", "generators-int",
        "cap-string", "partial-val-map", "val-map-off-domain", "n-true", "positive-string",
        "store-strict-string", "table-value-off-domain", "unary-value-off-domain",
        "literal-value-off-domain", "row-col-shape-uncovered"])
def test_malformed_field_is_a_load_time_input_error(tmp_path, problem, syms, line):
    # without symmetries, `problem` is a gray-check store file
    ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
    ppath.write_text(json.dumps(problem))
    spath.write_text(json.dumps(syms))
    argv = (["orbits", "--problem", str(ppath), "--symmetries", str(spath)]
            if syms is not None else ["gray-check", "--store", str(ppath)])
    proc = _run_cli_subprocess(["-m", "symbreak", *argv])
    assert proc.returncode == 2
    assert proc.stderr == f"error: {line}\n"


def _nested_argv(kind, bad, problem):
    return {"problem": ["solve", "--problem", bad],
            "symmetries": ["orbits", "--problem", problem, "--symmetries", bad],
            "store": ["gray-check", "--store", bad],
            "1-in-3": ["demo-prop1", "--instance", bad],
            "cnf": ["demo-prop2", "--instance", bad]}[kind]


@pytest.mark.parametrize("kind", ["problem", "symmetries", "store", "1-in-3", "cnf"])
def test_deeply_nested_json_is_an_input_error(capsys, files, kind):
    # json.load gives up with RecursionError, which must not escape `run`
    tmp_path, problem, _ = files
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    code, out, err = invoke(capsys, _nested_argv(kind, str(bad), problem))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "is not valid JSON" in err


@pytest.mark.parametrize("extra", [["--n", "5"], ["--shape", "1x2"],
                                   ["--n", "2", "--shape", "1x2"]],
                         ids=["n", "shape", "n-and-shape"])
@pytest.mark.parametrize("command", [["rank", "01"], ["unrank", "--k", "1"]],
                         ids=["rank", "unrank"])
def test_rank_options_conflicting_with_problem_are_refused(capsys, tmp_path, command, extra):
    problem = tmp_path / "p2.json"
    problem.write_text(json.dumps(BINARY_2))
    code, out, err = invoke(capsys, [*command, "--ordering", "gray",
                                     "--problem", str(problem), *extra])
    assert code == 2 and out == ""
    assert err == f"error: --problem gives the domains and shape; drop {extra[0]}\n"


def test_rank_with_n_and_shape_still_works(capsys):
    assert invoke(capsys, ["rank", "--ordering", "snakelex", "--n", "6", "--shape", "2x3",
                           "010011"]) == (0, "13\n", "")
    assert invoke(capsys, ["unrank", "--ordering", "snakelex", "--n", "6", "--shape", "3x2",
                           "--k", "19"]) == (0, "011100\n", "")
    # the other orderings take a covering shape and rank as without one
    for ordering in ("lex", "revlex", "gray"):
        for command in (["rank", "010011"], ["unrank", "--k", "19"]):
            plain = invoke(capsys, [*command, "--ordering", ordering, "--n", "6"])
            assert plain[0] == 0
            assert invoke(capsys, [*command, "--ordering", ordering, "--n", "6",
                                   "--shape", "2x3"]) == plain


@pytest.mark.parametrize("ordering, shape", [("lex", "5x5"), ("gray", "0x3"),
                                             ("revlex", "-1x-2")])
@pytest.mark.parametrize("command", [["rank", "01"], ["unrank", "--k", "1"]],
                         ids=["rank", "unrank"])
def test_rank_with_n_refuses_a_shape_that_does_not_cover_it(capsys, command, ordering, shape):
    r, c = shape.split("x")
    assert invoke(capsys, [*command, "--ordering", ordering, "--n", "2", f"--shape={shape}"]) \
        == (2, "", f"error: shape ({r}, {c}) does not cover 2 variables\n")


MIXED = {"n": 3, "domains": [[0, 1, 2], [5, 7], [1, 3, 4, 9]], "constraints": []}
MIXED_2x2 = {"n": 4, "domains": [[0, 1, 2], [5, 7], [1, 3, 4], [0, 1]], "constraints": [],
             "shape": [2, 2]}

# `unrank` of every k, as printed by the per-ordering rank code that the
# digit maps replaced; `rank` must invert each line
GOLDEN_LISTINGS = [
    ("lex", MIXED,
     "0,5,1 0,5,3 0,5,4 0,5,9 0,7,1 0,7,3 0,7,4 0,7,9 1,5,1 1,5,3 1,5,4 1,5,9 "
     "1,7,1 1,7,3 1,7,4 1,7,9 2,5,1 2,5,3 2,5,4 2,5,9 2,7,1 2,7,3 2,7,4 2,7,9"),
    ("revlex", MIXED,
     "2,7,9 2,7,4 2,7,3 2,7,1 2,5,9 2,5,4 2,5,3 2,5,1 1,7,9 1,7,4 1,7,3 1,7,1 "
     "1,5,9 1,5,4 1,5,3 1,5,1 0,7,9 0,7,4 0,7,3 0,7,1 0,5,9 0,5,4 0,5,3 0,5,1"),
    ("snakelex", MIXED_2x2,
     "0,5,1,0 0,7,1,0 0,5,1,1 0,7,1,1 0,5,3,0 0,7,3,0 0,5,3,1 0,7,3,1 0,5,4,0 "
     "0,7,4,0 0,5,4,1 0,7,4,1 1,5,1,0 1,7,1,0 1,5,1,1 1,7,1,1 1,5,3,0 1,7,3,0 "
     "1,5,3,1 1,7,3,1 1,5,4,0 1,7,4,0 1,5,4,1 1,7,4,1 2,5,1,0 2,7,1,0 2,5,1,1 "
     "2,7,1,1 2,5,3,0 2,7,3,0 2,5,3,1 2,7,3,1 2,5,4,0 2,7,4,0 2,5,4,1 2,7,4,1"),
    ("gray", None,
     "00000 00001 00011 00010 00110 00111 00101 00100 01100 01101 01111 01110 "
     "01010 01011 01001 01000 11000 11001 11011 11010 11110 11111 11101 11100 "
     "10100 10101 10111 10110 10010 10011 10001 10000"),
]


@pytest.mark.parametrize("ordering, problem, listing", GOLDEN_LISTINGS,
                         ids=["lex-mixed", "revlex-mixed", "snakelex-mixed-2x2", "gray-5"])
def test_rank_unrank_golden(capsys, tmp_path, ordering, problem, listing):
    if problem is None:
        space = ["--n", "5"]
    else:
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        space = ["--problem", str(path)]
    words = listing.split()
    for k, text in enumerate(words):
        assert invoke(capsys, ["unrank", "--ordering", ordering, *space, "--k", str(k)]) \
            == (0, text + "\n", "")
        assert invoke(capsys, ["rank", "--ordering", ordering, *space, text]) \
            == (0, f"{k}\n", "")
    for k in (-1, len(words)):
        assert invoke(capsys, ["unrank", "--ordering", ordering, *space, "--k", str(k)]) \
            == (2, "", f"error: rank {k} outside [0, {len(words)})\n")


REPORT_OPTIONS = {"--help", "--seed", "--format"}
PAIR_OPTIONS = {"--problem", "--symmetries", "--cap"}
SPACE_OPTIONS = {"--help", "--ordering", "--problem", "--n", "--shape"}
OPTIONS = {
    "solve": REPORT_OPTIONS | {"--problem", "--cap"},
    "orbits": REPORT_OPTIONS | PAIR_OPTIONS,
    "break": REPORT_OPTIONS | PAIR_OPTIONS | {"--ordering", "--method"},
    "check": REPORT_OPTIONS | PAIR_OPTIONS | {"--ordering", "--method", "--survivors"},
    "rank": SPACE_OPTIONS,
    "unrank": SPACE_OPTIONS | {"--k"},
    "gray-check": REPORT_OPTIONS | {"--store", "--n", "--non-strict"},
    "demo-prop1": {"--help", "--instance"},
    "demo-prop2": {"--help", "--instance"},
    "compare": REPORT_OPTIONS | PAIR_OPTIONS,
}


def test_help_lists_the_options_each_command_reads(capsys):
    # only the six report commands print a header for --seed and a table for --format
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out)[1] == ",".join(OPTIONS)
    for command, options in OPTIONS.items():
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == options, command


@pytest.mark.parametrize("option", [["--seed", "1"], ["--format", "csv"]], ids=["seed", "format"])
@pytest.mark.parametrize("command", ["rank", "unrank", "demo-prop1", "demo-prop2"])
def test_seed_and_format_are_refused_where_nothing_reads_them(capsys, tmp_path, command, option):
    instance = tmp_path / "i.json"
    instance.write_text(json.dumps({"n": 2, "clauses": [[1, 2, 3]]} if command == "demo-prop1"
                                   else {"n": 2, "clauses": [[1, 2]]}))
    argv = {"rank": ["rank", "--n", "2", "01"], "unrank": ["unrank", "--n", "2", "--k", "1"]}.get(
        command, [command, "--instance", str(instance)])
    with pytest.raises(SystemExit) as exc:
        run([*argv, *option])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"symbreak: error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize("command, extra, line", [
    ("check", ["--survivors", "s.txt", "--ordering", "gray"],
     "--survivors gives the survivors to check; drop --ordering"),
    ("check", ["--survivors", "s.txt", "--method", "leader-full"],
     "--survivors gives the survivors to check; drop --method"),
    ("break", ["--method", "doublelex", "--ordering", "lex"],
     "--method doublelex gives the ordering (lex); drop --ordering"),
    ("check", ["--ordering", "snakelex", "--method", "doublelex"],
     "--method doublelex gives the ordering (lex); drop --ordering"),
], ids=["survivors-ordering", "survivors-method", "break-doublelex", "check-doublelex"])
def test_options_the_survivors_or_doublelex_give_are_refused(capsys, tmp_path, command, extra,
                                                             line):
    # refused before any file is read: none of the three files exists
    missing = [str(tmp_path / name) if name.endswith(".txt") else name for name in extra]
    code, out, err = invoke(capsys, [command, "--problem", str(tmp_path / "p.json"),
                                     "--symmetries", str(tmp_path / "s.json"), *missing])
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_runs_in_one_process_give_what_each_gives_alone(capsys, files, tmp_path, monkeypatch):
    # the parser is reused across runs, so a run must leave nothing behind in it
    import subprocess
    import sys

    monkeypatch.setenv("COLUMNS", "80")
    _, problem, syms = files
    pair = ["--problem", problem, "--symmetries", syms]
    survivors = tmp_path / "survivors.txt"
    survivors.write_text(invoke(capsys, ["break", *pair])[1])
    sequence = [["check", *pair, "--survivors", str(survivors)],
                ["break", *pair, "--method", "sideways"],
                ["break", *pair, "--method", "doublelex", "--ordering", "gray"],
                ["break", *pair, "--method", "doublelex"]]
    in_process = []
    for argv in sequence:
        try:
            in_process.append(invoke(capsys, argv))
        except SystemExit as exc:
            captured = capsys.readouterr()
            in_process.append((exc.code, captured.out, captured.err))
    alone = [subprocess.run([sys.executable, "-m", "symbreak", *argv], capture_output=True,
                            text=True, env=_cli_env()) for argv in sequence]
    assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in alone]
    assert in_process[0][:2] == (0, "# seed=0\nsound  complete  orbits  survivors\n"
                                    "true   true      7       7\n")
    assert in_process[2] == (2, "", "error: --method doublelex gives the ordering (lex); "
                                    "drop --ordering\n")
    assert in_process[3][1].startswith("# seed=0 ordering=lex method=doublelex ")


def test_second_run_builds_no_parser(capsys, monkeypatch):
    import argparse

    argv = ["unrank", "--ordering", "gray", "--n", "2", "--k", "3"]
    assert invoke(capsys, argv) == (0, "10\n", "")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert invoke(capsys, argv) == (0, "10\n", "")
    assert built == []


def test_closed_stdout_ends_quietly_with_exit_two(tmp_path):
    # 65,536 rows, far beyond a 64 KB pipe buffer: the reader takes one
    # line and closes the pipe, as `symbreak solve ... | head -1` does
    import subprocess
    import sys

    problem = tmp_path / "p16.json"
    problem.write_text(json.dumps({"n": 16, "domains": [[0, 1]] * 16}))
    proc = subprocess.Popen([sys.executable, "-m", "symbreak", "solve", "--problem", str(problem)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (first, proc.wait(), err) == (b"# seed=0 solutions=65536\n", 2, b"")
