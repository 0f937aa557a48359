import itertools
import random

import pytest

from symbreak.model import InputError, enumerate_solutions
from symbreak.orderings import EQ, GT, LT
from symbreak.reductions import (
    SAT,
    UNSAT,
    Cnf,
    OneInThreeInstance,
    cnf_from_dict,
    cnf_models,
    cnf_satisfiable,
    group_gadget,
    one_in_three_from_dict,
    one_in_three_satisfiable,
    ordering_gadget,
    solve_group_gadget,
    solve_ordering_gadget,
)
from symbreak.symmetry import orbits


def verdict(flag: bool) -> str:
    return SAT if flag else UNSAT


# ---------------------------------------------------------------------------
# ordering gadget


def test_gadget_construction_single_clause():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    assert g.problem.n == 4
    sols = enumerate_solutions(g.problem)
    assert sols == [(1, 2, 3, 0), (1, 2, 3, 1)]  # prefix pinned, flag free
    assert g.flip.apply((1, 2, 3, 0)) == (1, 2, 3, 1)
    assert g.flip.apply((1, 2, 3, 1)) == (1, 2, 3, 0)


def test_gadget_ordering_cases():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    o = g.ordering
    sat_lo, sat_hi = (1, 2, 3, 0), (1, 2, 3, 1)
    assert o.compare(sat_lo, sat_hi) == LT  # satisfiable: flag 0 first
    assert o.compare(sat_hi, sat_lo) == GT
    assert o.compare(sat_lo, sat_lo) == EQ
    # unsatisfiable prefix reverses the flag preference
    uns_lo, uns_hi = (1, 1, 1, 1), (1, 1, 1, 0)
    assert o.compare(uns_lo, uns_hi) == LT
    # prefixes dominate the flag
    assert o.compare((1, 1, 1, 1), (1, 2, 3, 0)) == LT


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
        assert o.compare(a, b) == _tie_break_compare(a, b)
        assert o.compare(a, b) == (LT if o.rank(a) < o.rank(b) else
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
    assert solve_ordering_gadget(ordering_gadget(OneInThreeInstance(clauses))) == expected


def all_clauses(max_index):
    return [tuple(c) for c in
            itertools.combinations_with_replacement(range(1, max_index + 1), 3)]


def test_ordering_gadget_exhaustive_single_clause():
    for clause in all_clauses(6):
        inst = OneInThreeInstance((clause,))
        assert solve_ordering_gadget(ordering_gadget(inst)) == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_two_clause_sample():
    clauses = all_clauses(6)
    rng = random.Random(11)
    for _ in range(120):
        inst = OneInThreeInstance((rng.choice(clauses), rng.choice(clauses)))
        assert solve_ordering_gadget(ordering_gadget(inst)) == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_has_unique_survivor():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    from symbreak.breaker import LeaderConstraint
    leader = LeaderConstraint(g.flip, g.ordering)
    kept = [a for a in enumerate_solutions(g.problem) if leader.satisfied(a)]
    assert len(kept) == 1


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
    g = group_gadget(Cnf(1, ((1,), (-1,))), n=2)
    assert g.solutions == ((0, 0),)
    assert g.group.generators == ()
    assert solve_group_gadget(g) == UNSAT


def test_group_gadget_positive_unit():
    g = group_gadget(Cnf(1, ((1,),)), n=2)
    assert g.solutions == ((0, 0), (1, 0), (1, 1))
    assert len(orbits(list(g.solutions), g.group)) == 1
    assert solve_group_gadget(g) == SAT


def test_group_gadget_zero_only_model():
    # phi = not x1 and not x2: all-zero is phi's only model
    g = group_gadget(Cnf(2, ((-1,), (-2,))))
    assert g.solutions == ((0, 0),)
    assert solve_group_gadget(g) == SAT


def test_group_gadget_survivor_is_lex_max():
    phi = Cnf(2, ((1, 2),))
    g = group_gadget(phi)
    survivors = [a for a in g.solutions
                 if all(g.ordering.compare(a, b) != GT for b in g.solutions)]
    assert survivors == [max(g.solutions)]  # revlex minimum = lex maximum
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


def test_group_gadget_width_checks():
    with pytest.raises(InputError):
        group_gadget(Cnf(3, ((1,),)), n=2)
    with pytest.raises(InputError):
        group_gadget(Cnf(11, ((1,),)))


def test_cnf_helpers():
    phi = Cnf(2, ((1, -2),))
    assert phi.satisfied_by((1, 1)) and not phi.satisfied_by((0, 1))
    assert cnf_models(phi) == [(0, 0), (1, 0), (1, 1)]
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
