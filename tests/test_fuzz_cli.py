"""Mutated input files never crash the command line: every run ends with
exit 0-3, no exception escapes `run`, and exits 2 and 3 print an `error:`
line.  The mutations are wrong types, missing and extra keys, out-of-range
indices, and a top level that is an array or a scalar."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from symbreak.cli import run

# the constraints are invariant under every permutation of the cells, so
# the unmutated pair is a valid input for every command
PROBLEM = {"n": 4, "domains": [[0, 1]] * 4, "shape": [2, 2], "constraints": [
    {"kind": "table", "scope": [0, 1, 2, 3],
     "tuples": [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 1, 0],
                [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]},
    {"kind": "clause", "literals": [{"var": v, "value": 0, "positive": False}
                                    for v in range(4)]}]}
SYMMETRIES = {"generators": [
    {"kind": "row_col", "rows": 2, "cols": 2},
    {"kind": "literal", "var_perm": [1, 0, 3, 2], "val_maps": [[[0, 0], [1, 1]]] * 4}],
    "cap": 1000}
STORE = {"strict": True, "lhs": [[0, 1], [1], [0, 1]], "rhs": [[0, 1]] * 3,
         "state": [[1], [-1, 0, 1], [0, 1], [-1, 0, 1]]}
ONE_IN_THREE = {"clauses": [[1, 2, 3], [1, 2, 4]]}
CNF = {"n": 3, "clauses": [[1, -2], [2, 3], [-1]]}

# small values only, so that no mutant asks for a large enumeration
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6),
    st.sampled_from(["", "0", "x", "row_col", "unary"]),
    st.lists(st.integers(-1, 4), max_size=4),
    st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "var", "n", "x"]), st.integers(-1, 3), max_size=2))


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, data):
    """One random edit of `doc`: replace, delete or add at a random place."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(st.one_of(st.lists(JSON_VALUES, max_size=2), JSON_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(JSON_VALUES)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["extra", "kind", "n", "value"]))] = \
            data.draw(JSON_VALUES)
    else:
        parent.insert(path[-1], data.draw(JSON_VALUES))
    return doc


def _mutant(doc, data):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(doc, data)
    return doc


def _run_checked(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        assert any(line.startswith("error:") for line in err.getvalue().splitlines()), \
            (argv, err.getvalue())


def _with_files(docs, make_argv):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        _run_checked(make_argv(*paths))


PAIR_COMMANDS = [
    ["solve"], ["orbits"], ["compare"], ["check", "--method", "leader-generators"],
    ["break", "--ordering", "gray"], ["break", "--ordering", "snakelex", "--method", "doublelex"],
    ["check", "--ordering", "revlex", "--cap", "5"]]


@given(st.data())
def test_mutated_problem_or_symmetries(data):
    which = data.draw(st.sampled_from(["problem", "symmetries"]))
    problem = _mutant(PROBLEM, data) if which == "problem" else PROBLEM
    syms = _mutant(SYMMETRIES, data) if which == "symmetries" else SYMMETRIES
    command = data.draw(st.sampled_from(PAIR_COMMANDS))

    def argv(p, s):
        return [command[0], "--problem", p] + ([] if command == ["solve"] else
                                               ["--symmetries", s]) + command[1:]
    _with_files([problem, syms], argv)


@given(st.data())
def test_mutated_problem_for_rank_and_unrank(data):
    problem = _mutant(PROBLEM, data)
    ordering = data.draw(st.sampled_from(["lex", "revlex", "gray", "snakelex"]))
    tail = data.draw(st.sampled_from([["rank", "0101"], ["rank", "0,1,2"],
                                      ["unrank", "--k", "3"], ["unrank", "--k", "40"]]))
    _with_files([problem], lambda p: [tail[0], "--ordering", ordering, "--problem", p, *tail[1:]])


@given(st.data())
def test_mutated_store(data):
    _with_files([_mutant(STORE, data)], lambda p: ["gray-check", "--store", p])


@given(st.data())
def test_mutated_one_in_three_instance(data):
    _with_files([_mutant(ONE_IN_THREE, data)], lambda p: ["demo-prop1", "--instance", p])


@given(st.data())
def test_mutated_cnf_instance(data):
    _with_files([_mutant(CNF, data)], lambda p: ["demo-prop2", "--instance", p])
