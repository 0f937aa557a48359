import itertools
import random

import pytest

from symbreak.breaker import leader_constraints, orbit_verdict
from symbreak.model import InputError, enumerate_solutions
from symbreak.reductions import (
    SAT,
    UNSAT,
    Cnf,
    OneInThreeInstance,
    cnf_from_dict,
    cnf_model_codes,
    cnf_satisfiable,
    group_gadget,
    one_in_three_from_dict,
    one_in_three_satisfiable,
    ordering_gadget,
    solve_group_gadget,
    solve_ordering_gadget,
)
from symbreak.symmetry import SymmetryGroup, orbits

from reference import (
    EQ,
    GT,
    LT,
    apply,
    cnf_models,
    compare,
    flag_swap,
    gadget_group,
    lex_codes,
    ordering_gadget_problem,
    satisfied_by,
    tuple_solutions,
)


def verdict(flag: bool) -> str:
    return SAT if flag else UNSAT


def members(gadget) -> tuple:
    """The group gadget's solutions, each decoded to its value tuple."""
    return tuple(gadget.ordering.decode(list(gadget.solutions)))


# ---------------------------------------------------------------------------
# ordering gadget


def test_gadget_construction_single_clause():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    problem, flip = ordering_gadget_problem(g), flag_swap(g)
    assert problem.n == g.ordering.n == 4
    sols = enumerate_solutions(problem)
    assert sols == lex_codes(problem, [(1, 2, 3, 0), (1, 2, 3, 1)])  # prefix pinned, flag free
    assert tuple(sols) == g.solutions
    assert apply(flip, (1, 2, 3, 0)) == (1, 2, 3, 1)
    assert apply(flip, (1, 2, 3, 1)) == (1, 2, 3, 0)


def test_gadget_ordering_cases():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    o = g.ordering
    sat_lo, sat_hi = (1, 2, 3, 0), (1, 2, 3, 1)
    assert compare(o, sat_lo, sat_hi) == LT  # satisfiable: flag 0 first
    assert compare(o, sat_hi, sat_lo) == GT
    assert compare(o, sat_lo, sat_lo) == EQ
    # unsatisfiable prefix reverses the flag preference
    uns_lo, uns_hi = (1, 1, 1, 1), (1, 1, 1, 0)
    assert compare(o, uns_lo, uns_hi) == LT
    # prefixes dominate the flag
    assert compare(o, (1, 1, 1, 1), (1, 2, 3, 0)) == LT


def _tie_break_compare(a, b):
    """The gadget's ordering as a comparator: prefixes by value, then the
    flag, flag 0 first iff the prefix is 1-in-3 satisfiable."""
    if a[:-1] != b[:-1]:
        return LT if a[:-1] < b[:-1] else GT
    if a[-1] == b[-1]:
        return EQ
    clauses = tuple(a[i:i + 3] for i in range(0, len(a) - 1, 3))
    first = 0 if one_in_three_satisfiable(OneInThreeInstance(clauses)) else 1
    return LT if a[-1] == first else GT


@pytest.mark.parametrize("clauses", [((1, 2, 3),), ((1, 1, 2), (1, 2, 2))])
def test_gadget_ordering_rank_unrank_round_trip(clauses):
    o = ordering_gadget(OneInThreeInstance(clauses)).ordering
    listing = [o.unrank(k) for k in range(o.space_size)]
    assert [o.rank(a) for a in listing] == list(range(o.space_size))
    assert sorted(listing) == list(itertools.product(*o.domains))
    for a, b in itertools.product(listing[::5], listing[::3]):
        assert compare(o, a, b) == _tie_break_compare(a, b)
        assert compare(o, a, b) == (LT if o.rank(a) < o.rank(b) else
                                   GT if o.rank(a) > o.rank(b) else EQ)


def test_one_in_three_brute_force():
    assert one_in_three_satisfiable(OneInThreeInstance(((1, 2, 3),)))
    assert not one_in_three_satisfiable(OneInThreeInstance(((1, 1, 1),)))
    assert one_in_three_satisfiable(OneInThreeInstance(((1, 2, 3), (1, 2, 4))))
    assert not one_in_three_satisfiable(OneInThreeInstance(((1, 1, 2), (1, 2, 2))))


@pytest.mark.parametrize("clauses,expected", [
    (((1, 2, 3),), SAT),
    (((1, 1, 1),), UNSAT),
    (((1, 2, 3), (1, 2, 4)), SAT),
    (((1, 1, 2), (1, 2, 2)), UNSAT),
])
def test_solve_ordering_gadget_examples(clauses, expected):
    # the survivor spells out the clauses, then flag 0 exactly when satisfiable
    flag = 0 if expected == SAT else 1
    gadget = ordering_gadget(OneInThreeInstance(clauses))
    verdict, survivor = solve_ordering_gadget(gadget)
    assert (verdict, gadget.ordering.decode([survivor])) == (expected, [sum(clauses, ()) + (flag,)])


def test_gadget_ordering_decides_each_distinct_prefix_once_per_call(monkeypatch):
    # a solve ranks the two codes of one prefix: one decision, made again
    # on the next solve, since the ordering keeps nothing between calls
    import symbreak.reductions

    decided = []
    monkeypatch.setattr(symbreak.reductions, "one_in_three_satisfiable",
                        lambda inst: decided.append(inst) or one_in_three_satisfiable(inst))
    gadget = ordering_gadget(OneInThreeInstance(((1, 2, 3), (1, 2, 4))))
    for solves in (1, 2):
        assert solve_ordering_gadget(gadget)[0] == SAT and len(decided) == solves
    gadget.ordering.ranks(list(range(gadget.ordering.space_size)))
    assert len(decided) == 2 + gadget.ordering.space_size // 2


def all_clauses(max_index):
    return [tuple(c) for c in
            itertools.combinations_with_replacement(range(1, max_index + 1), 3)]


def two_clause_sample():
    clauses = all_clauses(6)
    rng = random.Random(11)
    return [OneInThreeInstance((rng.choice(clauses), rng.choice(clauses))) for _ in range(120)]


def test_ordering_gadget_exhaustive_single_clause():
    for clause in all_clauses(6):
        inst = OneInThreeInstance((clause,))
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_two_clause_sample():
    for inst in two_clause_sample():
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_has_unique_survivor():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    from symbreak.breaker import LeaderConstraint
    leader = LeaderConstraint(flag_swap(g), g.ordering)
    kept = [a for a in tuple_solutions(ordering_gadget_problem(g)) if leader.satisfied(a)]
    assert kept == g.ordering.decode([solve_ordering_gadget(g)[1]]) == [(1, 2, 3, 0)]


def test_ordering_gadget_leader_constraint_keeps_the_least_solution():
    # the claim `solve_ordering_gadget` rests on, checked on the problem and
    # the group it never builds: the reference problem's solutions are the
    # gadget's two codes, the flag swap glues them into one orbit, and the
    # swap's leader constraint keeps exactly the survivor the solver returns
    instances = [OneInThreeInstance((clause,)) for clause in all_clauses(6)]
    for inst in instances + two_clause_sample():
        g = ordering_gadget(inst)
        assert tuple(enumerate_solutions(ordering_gadget_problem(g))) == g.solutions, inst
        group = SymmetryGroup((flag_swap(g),))
        partition = orbits(list(g.solutions), group)
        kept = orbit_verdict(partition, leader_constraints(group, g.ordering, "generators")).kept
        assert len(partition) == 1, inst
        assert [c for block in kept for c in block] == [solve_ordering_gadget(g)[1]], inst


def test_instance_validation():
    with pytest.raises(InputError):
        OneInThreeInstance(())
    with pytest.raises(InputError):
        OneInThreeInstance(((0, 1, 2),))
    with pytest.raises(InputError):
        OneInThreeInstance(((1, 2, 13),))


# ---------------------------------------------------------------------------
# group gadget


def test_group_gadget_unsat_formula():
    g = group_gadget(Cnf(2, ((1,), (-1,))))
    assert members(g) == ((0, 0),)
    assert gadget_group(g).generators == ()
    assert solve_group_gadget(g) == UNSAT


def test_group_gadget_positive_unit():
    g = group_gadget(Cnf(2, ((1,),)))
    assert members(g) == ((0, 0), (1, 0), (1, 1))
    assert len(orbits(list(g.solutions), gadget_group(g))) == 1
    assert solve_group_gadget(g) == SAT


def test_group_gadget_zero_only_model():
    # phi = not x1 and not x2: all-zero is phi's only model
    g = group_gadget(Cnf(2, ((-1,), (-2,))))
    assert members(g) == ((0, 0),)
    assert solve_group_gadget(g) == SAT


def test_group_gadget_survivor_is_lex_max():
    phi = Cnf(2, ((1, 2),))
    g = group_gadget(phi)
    survivors = [a for a in members(g)
                 if all(compare(g.ordering, a, b) != GT for b in members(g))]
    assert survivors == [max(members(g))]  # revlex minimum = lex maximum
    assert solve_group_gadget(g) == SAT


def fixed_cnf_pool():
    """Width <= 2 clauses over three variables, complement-free."""
    lits = [1, -1, 2, -2, 3, -3]
    pool = [(l,) for l in lits]
    pool += [c for c in itertools.combinations(lits, 2) if c[0] != -c[1]]
    return pool


def test_group_gadget_fixed_enumeration():
    pool = fixed_cnf_pool()
    checked = 0
    for k in (0, 1, 2):
        for clauses in itertools.combinations(pool, k):
            phi = Cnf(3, clauses) if clauses else Cnf(3, ())
            g = group_gadget(phi)
            assert solve_group_gadget(g) == verdict(cnf_satisfiable(phi))
            checked += 1
    assert checked == 1 + len(pool) + len(pool) * (len(pool) - 1) // 2


def test_group_gadget_random_cnfs():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 8)
        clauses = tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)))
        phi = Cnf(n, clauses)
        assert solve_group_gadget(group_gadget(phi)) == verdict(cnf_satisfiable(phi))


@pytest.mark.parametrize("demo, instance, line, reference", [
    # 13 variables, a nominal space of 7^12 * 2 assignments
    ("demo-prop1", '{"clauses": [[1, 2, 3], [4, 5, 6], [1, 4, 7], [2, 5, 7]]}',
     "survivor: 1,2,3,4,5,6,1,4,7,2,5,7,0",
     lambda: ordering_gadget_problem(ordering_gadget(OneInThreeInstance(((1, 2, 3),))))),
    # Sym(1024 members), on the clause-free CNF of 10 variables
    ("demo-prop2", '{"n": 10, "clauses": []}', "solutions of the gadget (1024 members, 1 orbit):",
     lambda: gadget_group(group_gadget(Cnf(2, ())))),
], ids=["demo-prop1", "demo-prop2"])
def test_demos_build_no_problem_group_or_partition(monkeypatch, tmp_path, capsys,
                                                   demo, instance, line, reference):
    # each demo builds, solves and prints its gadget without a Problem, a
    # SymmetryGroup or an OrbitPartition; the test suite's reference builds
    # them
    from symbreak.cli import run
    from symbreak.model import Problem
    from symbreak.symmetry import OrbitPartition, SymmetryGroup

    def refused(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built")

    for cls in (Problem, SymmetryGroup, OrbitPartition):
        monkeypatch.setattr(cls, "__init__", refused)
    path = tmp_path / "instance.json"
    path.write_text(instance)
    assert run([demo, "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert line in out.splitlines()
    assert out.endswith("verdict: SAT\noracle: SAT\nagreement: true\n")
    with pytest.raises(AssertionError, match="(Problem|Group) built"):  # the patch is live
        reference()


def test_group_gadget_is_solved_on_codes(monkeypatch):
    # the gadget's codes are ranked as they are: solving encodes and decodes
    # no assignment
    from symbreak.orderings import LexOrdering

    gadget = group_gadget(cnf_from_dict({"n": 10, "clauses": [[1, -5, 10]]}))
    calls = []
    for name in ("codes", "decode"):
        def counted(self, items, method=getattr(LexOrdering, name), name=name):
            calls.append(name)
            return method(self, items)

        monkeypatch.setattr(LexOrdering, name, counted)
    assert solve_group_gadget(gadget) == SAT and calls == []
    assert len(gadget.solutions) == len(set(cnf_models(gadget.instance)) | {(0,) * 10}) == 896


def test_group_gadget_width_checks():
    with pytest.raises(InputError):
        group_gadget(Cnf(11, ((1,),)))


def test_cnf_helpers():
    phi = Cnf(2, ((1, -2),))
    assert satisfied_by(phi, (1, 1)) and not satisfied_by(phi, (0, 1))
    assert cnf_models(phi) == [(0, 0), (1, 0), (1, 1)]
    assert cnf_model_codes(phi) == [0, 2, 3] and cnf_model_codes(phi, [3, 1, 0]) == [3, 0]
    assert cnf_satisfiable(phi)
    with pytest.raises(InputError):
        Cnf(2, ((3,),))
    with pytest.raises(InputError):
        Cnf(2, ((),))


def test_instance_dict_parsing():
    inst = one_in_three_from_dict({"clauses": [[1, 2, 3]]})
    assert inst.clauses == ((1, 2, 3),)
    with pytest.raises(InputError):
        one_in_three_from_dict({"clauses": [[1, 2, 3]], "weight": 2})
    phi = cnf_from_dict({"n": 2, "clauses": [[1], [-2]]})
    assert phi.num_vars == 2
    with pytest.raises(InputError):
        cnf_from_dict({"clauses": [[1]]})


def test_compiled_cnf_check_matches_satisfied_by():
    # seeded random CNFs with unit clauses, tautologies (x and -x) and
    # repeated literals, plus the clause-free CNF: cnf_models keeps exactly
    # the assignments satisfied_by accepts, in lex order
    rng = random.Random(17)
    cnfs = [Cnf(n, ()) for n in (1, 4)]
    for _ in range(200):
        n = rng.randint(1, 6)
        clauses = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.25:
                clauses.append((rng.choice((-1, 1)) * rng.randint(1, n),))
            elif kind < 0.4:
                v = rng.randint(1, n)
                clauses.append(tuple(rng.sample([v, -v, rng.choice((-1, 1)) * rng.randint(1, n)],
                                                3)))
            else:
                clauses.append(tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                                     for _ in range(rng.randint(1, 4))))
        cnfs.append(Cnf(n, tuple(clauses)))
    for phi in cnfs:
        models = [bits for bits in itertools.product((0, 1), repeat=phi.num_vars)
                  if satisfied_by(phi, bits)]
        assert cnf_models(phi) == models, phi
        assert cnf_satisfiable(phi) == bool(models), phi
    assert any(not cnf_models(phi) for phi in cnfs) and any(
        len(clause) == 1 for phi in cnfs for clause in phi.clauses)


def random_cnfs(rng: random.Random, count: int) -> list[Cnf]:
    """`count` CNFs over 1 to 10 variables, in turn: clause-free ones, and
    mixes of unit clauses, tautologies (x or -x), clauses repeating a
    literal and plain ones, every fifth made unsatisfiable by x and -x."""
    cnfs = []
    lit = lambda n: rng.choice((-1, 1)) * rng.randint(1, n)
    for k in range(count):
        n = k % 10 + 1
        if k % 7 == 0:
            cnfs.append(Cnf(n, ()))
            continue
        clauses = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.25:
                clauses.append((lit(n),))
            elif kind < 0.4:
                v = rng.randint(1, n)
                clauses.append(tuple(rng.sample([v, -v, lit(n)], 3)))
            elif kind < 0.55:
                x = lit(n)
                clauses.append(tuple(rng.sample([x, x, lit(n)], 3)))
            else:
                clauses.append(tuple(lit(n) for _ in range(rng.randint(1, 4))))
        if k % 5 == 0:
            v = rng.randint(1, n)
            clauses += [(v,), (-v,)]
        cnfs.append(Cnf(n, tuple(clauses)))
    return cnfs


def test_model_codes_are_the_lex_codes_of_the_reference_models():
    # the bit-mask filter against the tuple-level reference, on 300 seeded
    # CNFs; a given list of codes is filtered in its own order
    from symbreak.model import binary_domains
    from symbreak.orderings import LexOrdering

    rng = random.Random(31)
    cnfs = random_cnfs(rng, 300)
    for phi in cnfs:
        coding = LexOrdering(binary_domains(phi.num_vars))
        models = cnf_models(phi)
        assert cnf_model_codes(phi) == coding.codes(models), phi
        assert cnf_satisfiable(phi) == bool(models), phi
        some = rng.sample(range(coding.space_size), min(coding.space_size, 5))
        assert cnf_model_codes(phi, some) == [c for c in some
                                              if satisfied_by(phi, coding.decode([c])[0])], phi
    clauses = [clause for phi in cnfs for clause in phi.clauses]
    assert {phi.num_vars for phi in cnfs} == set(range(1, 11))
    assert any(not phi.clauses for phi in cnfs) and any(not cnf_models(phi) for phi in cnfs)
    assert any(len(clause) == 1 for clause in clauses)
    assert any(-lit in clause for clause in clauses for lit in clause)
    assert any(len(set(clause)) < len(clause) for clause in clauses)
