import json

import pytest

from symbreak.cli import run

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
    # propagator's FIFO order; the second store wipes out at block 3 of 5
    free, signs = [0, 1], [-1, 0, 1]
    cases = [
        ({"strict": True, "lhs": [[1], [0]], "rhs": [free, free]},
         "# seed=0 n=2 strict=true events=8\nFAIL\n"),
        ({"strict": True, "lhs": [free, free, [1], free, free],
          "rhs": [free, free, [0], free, free],
          "state": [signs, signs, [1], signs, signs, signs]},
         "# seed=0 n=5 strict=true events=6\nFAIL\n"),
    ]
    store = tmp_path / "store.json"
    for data, expected in cases:
        store.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, ["gray-check", "--store", str(store)])
        assert code == 1
        assert out == expected


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
    code, _, err = invoke(capsys, ["break", "--problem", str(problem),
                                   "--symmetries", str(syms),
                                   "--method", "leader-full"])
    assert code == 3
    assert "cap" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["break", "--method", "sideways"])
    assert exc.value.code == 2


def test_orbits_once_and_one_evaluation_per_solution(capsys, files, monkeypatch):
    import symbreak.breaker
    import symbreak.cli
    from symbreak.breaker import SymmetryBreakingSet
    from symbreak.symmetry import orbits

    calls = {"orbits": 0, "satisfied": 0}

    def counted_orbits(*args):
        calls["orbits"] += 1
        return orbits(*args)

    satisfied = SymmetryBreakingSet.satisfied

    def counted_satisfied(self, a):
        calls["satisfied"] += 1
        return satisfied(self, a)

    for module in (symbreak.cli, symbreak.breaker):
        monkeypatch.setattr(module, "orbits", counted_orbits)
    monkeypatch.setattr(SymmetryBreakingSet, "satisfied", counted_satisfied)
    _, problem, syms = files
    # 16 solutions; compare judges 9 breaking sets
    for command, evaluations in (("compare", 9 * 16), ("check", 16), ("break", 16)):
        calls.update(orbits=0, satisfied=0)
        code, _, _ = invoke(capsys, [command, "--problem", problem, "--symmetries", syms])
        assert code == 0
        assert calls == {"orbits": 1, "satisfied": evaluations}, command


def _run_cli_subprocess(argv):
    import os
    import subprocess
    import sys

    import symbreak

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(symbreak.__file__)))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


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


def test_cli_import_leaves_numpy_unloaded():
    proc = _run_cli_subprocess(
        ["-c", "import sys, symbreak.cli; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("shape, checks", [((2, 3), 1567), ((3, 3), 14152)])
def test_leader_checks_per_compare(capsys, tmp_path, monkeypatch, shape, checks):
    # the count pins closure order and short-circuit order; it was taken
    # from the dict-based kernel that the literal permutations replaced
    from symbreak.breaker import LeaderConstraint

    r, c = shape
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": r * c, "domains": [[0, 1]] * (r * c),
                                   "shape": [r, c]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "row_col", "rows": r, "cols": c}]}))
    calls = [0]
    satisfied = LeaderConstraint.satisfied

    def counted(self, a):
        calls[0] += 1
        return satisfied(self, a)

    monkeypatch.setattr(LeaderConstraint, "satisfied", counted)
    code, _, _ = invoke(capsys, ["compare", "--problem", str(problem),
                                 "--symmetries", str(syms)])
    assert code == 0
    assert calls[0] == checks


BINARY_2 = {"n": 2, "domains": [[0, 1]] * 2}
NO_GENERATORS = {"generators": []}


@pytest.mark.parametrize("problem, syms, needle", [
    (dict(BINARY_2, n="2"), NO_GENERATORS, "'n'"),
    (dict(BINARY_2, domains=5), NO_GENERATORS, "'domains'"),
    (dict(BINARY_2, constraints=[{"kind": "unary", "var": "0", "value": 1}]), NO_GENERATORS,
     "'var'"),
    (BINARY_2, {"generators": [{"kind": "literal", "var_perm": ["a", 1]}]}, "generator 0"),
    (BINARY_2, {"generators": 5}, "'generators'"),
    (BINARY_2, {"generators": [], "cap": "x"}, "'cap'"),
    # a partial value map, and one onto a value outside the domain
    (BINARY_2, {"generators": [{"kind": "literal", "var_perm": [0, 1],
                                "val_maps": [[[0, 0]], [[0, 0], [1, 1]]]}]}, "generator 0"),
    (BINARY_2, {"generators": [{"kind": "row_col", "rows": 1, "cols": 2},
                               {"kind": "literal", "var_perm": [0, 1],
                                "val_maps": [[[0, 0], [1, 2]], [[0, 0], [1, 1]]]}]},
     "generator 1"),
    # JSON booleans are neither integers nor strings
    (dict(BINARY_2, n=True), NO_GENERATORS, "'n'"),
    (dict(BINARY_2, constraints=[{"kind": "clause", "literals": [
        {"var": 0, "value": 1, "positive": "false"}]}]), NO_GENERATORS, "'positive'"),
    ({"strict": "no", "lhs": [[0]], "rhs": [[1]]}, None, "'strict'"),
], ids=["n-string", "domains-int", "unary-var-string", "var-perm-string", "generators-int",
        "cap-string", "partial-val-map", "val-map-off-domain", "n-true", "positive-string",
        "store-strict-string"])
def test_malformed_field_is_a_load_time_input_error(tmp_path, problem, syms, needle):
    # without symmetries, `problem` is a gray-check store file
    ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
    ppath.write_text(json.dumps(problem))
    spath.write_text(json.dumps(syms))
    argv = (["orbits", "--problem", str(ppath), "--symmetries", str(spath)]
            if syms is not None else ["gray-check", "--store", str(ppath)])
    proc = _run_cli_subprocess(["-m", "symbreak", *argv])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and needle in proc.stderr
    assert "Traceback" not in proc.stderr


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
