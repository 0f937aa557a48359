import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbreak.model import (
    CapExceededError,
    ClauseConstraint,
    InputError,
    Literal,
    Problem,
    TableConstraint,
    binary_domains,
    enumerate_solutions,
    parse_assignment,
    problem_from_dict,
    unary,
)

from reference import (
    assignment_formatter,
    binary_problem,
    check_assignment,
    gadget_problem,
    lex_codes,
    ordering_gadget_problem,
    tuple_solutions,
)


def one_hot_table(n):
    rows = {tuple(1 if i == j else 0 for i in range(n)) for j in range(n)}
    return TableConstraint(tuple(range(n)), frozenset(rows))


def test_check_no_constraints_is_vacuous():
    p = binary_problem(3)
    for a in itertools.product((0, 1), repeat=3):
        assert check_assignment(p, a)


def test_check_unary_violation():
    p = binary_problem(3, [unary(0, 1)])
    assert not check_assignment(p, (0, 0, 0))
    assert check_assignment(p, (1, 0, 0))


def test_check_arity_mismatch():
    p = binary_problem(2)
    with pytest.raises(InputError):
        check_assignment(p, (0, 0, 0))


def test_check_out_of_domain_value():
    p = binary_problem(2)
    with pytest.raises(InputError):
        check_assignment(p, (0, 2))


def test_clause_semantics():
    # (x0 = 1) or (x1 != 0)
    clause = ClauseConstraint((Literal(0, 1), Literal(1, 0, positive=False)))
    p = binary_problem(2, [clause])
    assert check_assignment(p, (1, 0))
    assert check_assignment(p, (0, 1))
    assert not check_assignment(p, (0, 0))


@pytest.mark.parametrize("scope, rows", [((2,), {(1,)}), ((0,), {(0,), (1,)}), ((1,), set()),
                                         ((2, 0), {(1, 0), (0, 1)}), ((1, 2, 0), {(0, 0, 1)})])
def test_table_checks_its_scope_in_any_order_and_of_one_variable(scope, rows):
    table = TableConstraint(scope, frozenset(rows))
    for a in itertools.product((0, 1), repeat=3):
        expected = tuple(a[v] for v in scope) in rows
        assert table.satisfied(a) == table.satisfied(list(a)) == expected, a
    problem = binary_problem(3, [table])
    assert enumerate_solutions(problem) == lex_codes(problem, [
        a for a in itertools.product((0, 1), repeat=3) if check_assignment(problem, a)])


def test_enumerate_leaves_no_cycle_on_return_or_cap_overflow():
    import gc

    # unconstrained, and with a run taken from a one-hot table's rows
    for problem in (binary_problem(3), binary_problem(3, [one_hot_table(3)])):
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(CapExceededError):
                enumerate_solutions(problem, cap=2)
            assert gc.collect() == 0
            assert enumerate_solutions(problem) and gc.collect() == 0
        finally:
            gc.enable()


def test_enumerate_full_space():
    p = binary_problem(2)
    assert enumerate_solutions(p) == lex_codes(p, [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_enumerate_sum_one_matrix():
    p = Problem(4, ((0, 1),) * 4, (one_hot_table(4),), (2, 2))
    assert len(enumerate_solutions(p)) == 4


def test_enumerate_is_sorted_and_deterministic():
    p = Problem(3, ((0, 1, 2), (0, 1), (5, 7)))
    first = enumerate_solutions(p)
    assert first == enumerate_solutions(p)
    assert first == lex_codes(p, list(itertools.product((0, 1, 2), (0, 1), (5, 7))))


def test_enumerate_cap_exceeded():
    p = binary_problem(4)
    with pytest.raises(CapExceededError):
        enumerate_solutions(p, cap=3)
    assert len(enumerate_solutions(p, cap=16)) == 16


@pytest.mark.parametrize("constraints", [
    # two, then three, constraints ready at depth 2 (their scopes end at variable 2)
    [TableConstraint((0, 2), frozenset({(0, 1), (1, 0), (2, 2)})), unary(2, 1)],
    [ClauseConstraint((Literal(1, 0), Literal(2, 0, False))),
     TableConstraint((2, 1), frozenset({(1, 0), (2, 1), (0, 0)})), unary(2, 1)],
])
def test_enumerate_several_constraints_ready_at_one_depth(constraints):
    problem = Problem(4, ((0, 1, 2), (0, 1), (0, 1, 2), (0, 1)), tuple(constraints))
    assert [max(con.scope) for con in constraints] == [2] * len(constraints)
    expected = lex_codes(problem, [a for a in itertools.product(*problem.domains)
                                   if all(con.satisfied(a) for con in constraints)])
    assert expected and enumerate_solutions(problem) == expected
    assert enumerate_solutions(problem, cap=len(expected)) == expected
    with pytest.raises(CapExceededError, match=f"^more than cap={len(expected) - 1} solutions$"):
        enumerate_solutions(problem, cap=len(expected) - 1)


def test_enumerate_refuses_huge_space_without_cap():
    p = binary_problem(26, [unary(i, 0) for i in range(26)])
    with pytest.raises(CapExceededError):
        enumerate_solutions(p)
    assert enumerate_solutions(p, cap=1) == lex_codes(p, [(0,) * 26])


@st.composite
def small_problems(draw):
    n = draw(st.integers(1, 4))
    domains = tuple(tuple(range(draw(st.integers(1, 3)))) for _ in range(n))
    constraints = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("table", "clause", "unary")))
        var = draw(st.integers(0, n - 1))
        if kind == "unary":
            constraints.append(unary(var, draw(st.sampled_from(domains[var]))))
        elif kind == "clause":
            lits = tuple(Literal(v, draw(st.sampled_from(domains[v])), draw(st.booleans()))
                         for v in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                max_size=3, unique=True)))
            constraints.append(ClauseConstraint(lits))
        else:
            scope = tuple(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                        max_size=min(2, n), unique=True)))
            space = list(itertools.product(*(domains[v] for v in scope)))
            rows = draw(st.sets(st.sampled_from(space), max_size=len(space)))
            constraints.append(TableConstraint(scope, frozenset(rows)))
    return Problem(n, domains, tuple(constraints))


@given(small_problems())
def test_enumerate_matches_check(problem):
    expected = [a for a in itertools.product(*problem.domains)
                if check_assignment(problem, a)]
    assert tuple_solutions(problem) == expected
    assert enumerate_solutions(problem) == lex_codes(problem, expected)


def test_problem_validation():
    with pytest.raises(InputError):
        Problem(2, ((0, 1),))  # missing a domain
    with pytest.raises(InputError):
        Problem(2, ((0, 1), ()))  # empty domain
    with pytest.raises(InputError):
        Problem(3, ((0, 1),) * 3, shape=(2, 2))  # shape does not cover n
    with pytest.raises(InputError):
        binary_problem(2, [unary(5, 0)])  # unknown variable
    with pytest.raises(InputError):
        binary_problem(2, [unary(0, 9)])  # value outside domain
    with pytest.raises(InputError):
        binary_problem(2, [TableConstraint((0, 1), frozenset({(0,)}))])  # arity


def test_problem_dict_round_trip():
    p = Problem(4, ((0, 1),) * 4, (one_hot_table(4),
                                   ClauseConstraint((Literal(0, 1), Literal(2, 0, False))),
                                   unary(3, 0)), (2, 2))
    assert problem_from_dict({
        "n": 4, "domains": [[0, 1]] * 4, "shape": [2, 2],
        "constraints": [
            {"kind": "table", "scope": [0, 1, 2, 3],
             "tuples": [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]},
            {"kind": "clause", "literals": [{"var": 0, "value": 1},
                                            {"var": 2, "value": 0, "positive": False}]},
            {"kind": "unary", "var": 3, "value": 0}]}) == p


def test_problem_dict_rejects_unknown_fields():
    with pytest.raises(InputError):
        problem_from_dict({"n": 1, "domains": [[0, 1]], "colour": "red"})
    with pytest.raises(InputError):
        problem_from_dict({"n": 1, "domains": [[0, 1]],
                           "constraints": [{"kind": "unary", "var": 0, "value": 0,
                                            "note": "x"}]})
    with pytest.raises(InputError):
        problem_from_dict({"n": 1, "domains": [[0, 1]],
                           "constraints": [{"kind": "mystery"}]})


def test_assignment_formatting_round_trip():
    doms = ((0, 1),) * 4
    assert assignment_formatter(doms)((0, 1, 1, 0)) == "0110"
    assert parse_assignment("0110", doms) == (0, 1, 1, 0)
    mixed = ((0, 1, 2), (5, 7))
    assert assignment_formatter(mixed)((2, 5)) == "2,5"
    assert parse_assignment("2,5", mixed) == (2, 5)
    with pytest.raises(InputError):
        parse_assignment("012", doms[:3])


def _reference_problems():
    """Every kind of problem the tests enumerate with tables, clauses, unary
    constraints, or unsorted or mixed domains, by name."""
    mixed = ((0, 1, 2), (0, 1), (0, 1, 2), (0, 1))
    per_row = [TableConstraint(tuple(range(i * 3, i * 3 + 3)),
                               frozenset(tuple(int(k == j) for k in range(3)) for j in range(3)))
               for i in range(2)]
    from symbreak.reductions import Cnf, OneInThreeInstance, group_gadget, ordering_gadget

    problems = {
        "unary": binary_problem(3, [unary(0, 1)]),
        "clause": binary_problem(2, [ClauseConstraint((Literal(0, 1), Literal(1, 0, False)))]),
        "one-hot-2x2": Problem(4, ((0, 1),) * 4, (one_hot_table(4),), (2, 2)),
        "one-per-row-2x3": Problem(6, ((0, 1),) * 6, tuple(per_row), (2, 3)),
        "mixed-free": Problem(3, ((0, 1, 2), (0, 1), (5, 7))),
        "mixed-table-unary": Problem(4, mixed, (
            TableConstraint((0, 2), frozenset({(0, 1), (1, 0), (2, 2)})), unary(2, 1))),
        "mixed-clause-table-unary": Problem(4, mixed, (
            ClauseConstraint((Literal(1, 0), Literal(2, 0, False))),
            TableConstraint((2, 1), frozenset({(1, 0), (2, 1), (0, 0)})), unary(2, 1))),
        "mixed-one-variable-tables": Problem(4, ((0, 1), (0, 1, 2), (0, 1), (0, 1, 2)), tuple(
            TableConstraint((v,), frozenset({(0,), (2,)})) for v in (1, 3))),
        "unsorted-mixed-free": problem_from_dict(
            {"n": 4, "domains": [[2, 0, 1], [1, 0], [2, 0, 1], [1, 0]], "shape": [2, 2]}),
        "unsorted-binary-x0": problem_from_dict({
            "n": 6, "domains": [[1, 0]] * 6, "shape": [2, 3],
            "constraints": [{"kind": "unary", "var": 0, "value": 1}]}),
        "unsorted-ternary-table": problem_from_dict({
            "n": 3, "domains": [[2, 0, 1]] * 3, "constraints": [
                {"kind": "table", "scope": [2, 0], "tuples": [[0, 2], [1, 1], [2, 0]]},
                {"kind": "clause", "literals": [{"var": 1, "value": 2, "positive": False}]}]}),
        "table-and-clause-2x2": problem_from_dict({
            "n": 4, "domains": [[0, 1]] * 4, "constraints": [
                {"kind": "table", "scope": [0, 1, 2, 3],
                 "tuples": [[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 0, 1]]},
                {"kind": "clause", "literals": [{"var": v, "value": 0, "positive": False}
                                                for v in range(4)]}]}),
        # constraints that end before the last variable leave a free tail
        "free-binary-5": binary_problem(5),
        "binary-x0-table": binary_problem(4, [TableConstraint((0,), frozenset({(1,)}))]),
        "mixed-x0-clause": Problem(4, mixed, (ClauseConstraint((Literal(0, 1, False),)),)),
        "mixed-early-table": Problem(5, ((0, 1), *mixed), (
            TableConstraint((2, 0), frozenset({(0, 1), (1, 0), (1, 1)})),)),
        "unsorted-early-table-unary": problem_from_dict({
            "n": 4, "domains": [[1, 0], [2, 0, 1], [1, 0], [2, 0, 1]], "constraints": [
                {"kind": "table", "scope": [1, 0], "tuples": [[2, 1], [0, 0], [1, 1]]},
                {"kind": "unary", "var": 1, "value": 0}]}),
        "ordering-gadget": ordering_gadget_problem(
            ordering_gadget(OneInThreeInstance(((1, 2, 3), (2, 3, 4))))),
        "group-gadget": gadget_problem(group_gadget(Cnf(3, ((1, -2), (2, 3))))),
    }
    return problems


REFERENCE_PROBLEMS = _reference_problems()


@pytest.mark.parametrize("name", REFERENCE_PROBLEMS)
def test_enumeration_codes_are_the_lex_codes_of_the_reference_solutions(name):
    problem = REFERENCE_PROBLEMS[name]
    solutions = tuple_solutions(problem)
    assert solutions and enumerate_solutions(problem) == lex_codes(problem, solutions)
    assert solutions == [a for a in itertools.product(*problem.domains)
                         if check_assignment(problem, a)]


@pytest.mark.parametrize("name", REFERENCE_PROBLEMS)
def test_enumeration_caps_count_and_word_as_the_reference_does(name):
    problem = REFERENCE_PROBLEMS[name]
    count = len(tuple_solutions(problem))
    for cap in range(1, count):
        for enumerate_ in (enumerate_solutions, tuple_solutions):
            with pytest.raises(CapExceededError, match=f"^more than cap={cap} solutions$"):
                enumerate_(problem, cap)
    assert len(enumerate_solutions(problem, count)) == count
    for enumerate_ in (enumerate_solutions, tuple_solutions):  # cli.run refuses cap 0
        with pytest.raises(CapExceededError, match="^more than cap=0 solutions$"):
            enumerate_(problem, 0)


@pytest.mark.parametrize("domains", [binary_domains(6), ((0, 1, 2), (1, 0), (5, 7)), ((2,),)])
def test_unconstrained_enumeration_is_the_whole_code_range(domains):
    problem = Problem(len(domains), domains)
    assert enumerate_solutions(problem) == list(range(problem.space_size))


@pytest.mark.parametrize("constraints", [[], [unary(0, 1)]])
def test_capped_enumeration_raises_before_expanding_a_free_tail(constraints, monkeypatch):
    # 2^63 free completions per prefix: counted, never listed
    import symbreak.model

    monkeypatch.setattr(symbreak.model, "chain", None)
    with pytest.raises(CapExceededError, match="^more than cap=5 solutions$"):
        enumerate_solutions(binary_problem(64, constraints), cap=5)


def test_enumeration_refuses_the_space_the_reference_refuses():
    # 2^25 candidates are refused without a cap; 2^24 are enumerated
    big = binary_problem(25, [unary(i, 0) for i in range(25)])
    message = "^search space 33554432 exceeds 16777216; pass an explicit cap$"
    for enumerate_ in (enumerate_solutions, tuple_solutions):
        with pytest.raises(CapExceededError, match=message):
            enumerate_(big)
    edge = binary_problem(24, [unary(i, 1) for i in range(24)])
    assert enumerate_solutions(edge) == lex_codes(edge, tuple_solutions(edge)) == [2 ** 24 - 1]


def _random_problem(rng: random.Random, kind: str) -> Problem:
    """A problem of up to 9 variables over `kind` domains, cut into runs at
    random ends.  Each run ends with a table (sparse, dense or empty) whose
    scope covers the run and may reach back before it, listed in shuffled
    order, and with up to 2 more constraints ready at the same depth:
    tables that cover the run or not, clauses and unary constraints."""
    n = rng.randint(1, 9 if kind == "binary" else 6)
    if kind == "mixed":
        domains = [tuple(rng.sample((0, 1, 2, 5, 7), rng.randint(1, 3))) for _ in range(n)]
    else:
        values = (0, 1) if kind == "binary" else (0, 1, 2)
        domains = [tuple(rng.sample(values, len(values)) if kind == "unsorted" else values)
                   for _ in range(n)]

    def table(scope, dense):
        rng.shuffle(scope)
        space = list(itertools.product(*(domains[v] for v in scope)))
        half = len(space) // 2
        size = (rng.randint(half + 1, len(space)) if dense
                else 0 if rng.random() < 0.02 else rng.randint((half + 1) // 2, half))
        return TableConstraint(tuple(scope), frozenset(rng.sample(space, size)))

    constraints = []
    ends = sorted(rng.sample(range(n), rng.randint(1, min(n, 3))))
    for lo, end in zip([0] + [e + 1 for e in ends], ends):
        run, before = list(range(lo, end + 1)), rng.sample(range(lo), min(lo, rng.randint(0, 2)))
        constraints.append(table(run + before, dense=rng.random() < 0.3))
        for _ in range(rng.randint(0, 2)):
            extra = rng.choice(("table", "clause", "unary"))
            others = rng.sample(range(lo), min(lo, rng.randint(0, 2)))
            if extra == "table":
                constraints.append(table(rng.choice([[end], run]) + others,
                                         dense=rng.random() < 0.7))
            elif extra == "clause":
                constraints.append(ClauseConstraint(tuple(
                    Literal(v, rng.choice(domains[v]), rng.random() < 0.5) for v in [end, *others])))
            else:
                constraints.append(unary(end, rng.choice(domains[end])))
    rng.shuffle(constraints)
    return Problem(n, tuple(domains), tuple(constraints))


@pytest.mark.parametrize("kind", ["binary", "ternary", "unsorted", "mixed"])
def test_enumeration_matches_the_reference_on_random_problems(kind):
    # 100 seeded problems per kind of domain, at least 40 of them solvable;
    # every cap up to the solution count raises alike in both enumerators
    solvable = 0
    for seed in range(100):
        problem = _random_problem(random.Random(f"{kind}{seed}"), kind)
        solutions = tuple_solutions(problem)
        expected = lex_codes(problem, solutions)
        assert enumerate_solutions(problem) == expected, (seed, problem)
        for cap in range(len(solutions)):
            for enumerate_ in (enumerate_solutions, tuple_solutions):
                with pytest.raises(CapExceededError, match=f"^more than cap={cap} solutions$"):
                    enumerate_(problem, cap)
        assert enumerate_solutions(problem, len(solutions)) == expected
        solvable += bool(solutions)
    assert solvable >= 40


def _count_table_checks(monkeypatch) -> list:
    calls: list = []
    satisfied = TableConstraint.satisfied
    monkeypatch.setattr(TableConstraint, "satisfied",
                        lambda self, values: calls.append(self) or satisfied(self, values))
    return calls


def test_one_per_row_tables_are_not_checked_on_every_completion(monkeypatch):
    # the 4x5 model with one 1 per row: its 625 solutions come from the
    # tables' rows; testing each table once its row is set takes 4,992 tests
    rows = frozenset(tuple(int(j == k) for j in range(5)) for k in range(5))
    problem = Problem(20, binary_domains(20), tuple(
        TableConstraint(tuple(range(5 * i, 5 * i + 5)), rows) for i in range(4)), (4, 5))
    calls = _count_table_checks(monkeypatch)
    assert len(enumerate_solutions(problem)) == 625
    assert len(calls) <= 625


@pytest.mark.parametrize("clauses", [(), ((1, -5, 10),), ((3,), (-3, 7), (-7,))])
def test_group_gadget_tables_are_checked_no_more_than_once_per_assignment(clauses, monkeypatch):
    # one table over all the variables: dense tables are checked once per
    # assignment of the space, as before; the sparse one of an unsatisfiable
    # CNF (its one row is all-zero) is not checked at all
    from symbreak.reductions import Cnf, group_gadget

    problem = gadget_problem(group_gadget(Cnf(10, clauses)))
    calls = _count_table_checks(monkeypatch)
    solutions = enumerate_solutions(problem)
    assert len(calls) <= problem.space_size
    assert (len(calls) == 0) == (len(solutions) == 1)
