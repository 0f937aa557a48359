import itertools
import random

import pytest

from symbreak.model import InputError, enumerate_solutions
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
from symbreak.symmetry import AssignmentSymmetry, orbits

from reference import EQ, GT, LT, apply, compare, lex_codes, tuple_solutions


def verdict(flag: bool) -> str:
    return SAT if flag else UNSAT


def members(gadget) -> tuple:
    """The group gadget's solutions, each decoded to its value tuple."""
    return tuple(gadget.group.coding.decode(list(gadget.solutions)))


# ---------------------------------------------------------------------------
# ordering gadget


def test_gadget_construction_single_clause():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    assert g.problem.n == 4
    sols = enumerate_solutions(g.problem)
    assert sols == lex_codes(g.problem, [(1, 2, 3, 0), (1, 2, 3, 1)])  # prefix pinned, flag free
    assert apply(g.flip, (1, 2, 3, 0)) == (1, 2, 3, 1)
    assert apply(g.flip, (1, 2, 3, 1)) == (1, 2, 3, 0)


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
    assert solve_ordering_gadget(ordering_gadget(OneInThreeInstance(clauses))) == \
        (expected, sum(clauses, ()) + (flag,))


def all_clauses(max_index):
    return [tuple(c) for c in
            itertools.combinations_with_replacement(range(1, max_index + 1), 3)]


def test_ordering_gadget_exhaustive_single_clause():
    for clause in all_clauses(6):
        inst = OneInThreeInstance((clause,))
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_two_clause_sample():
    clauses = all_clauses(6)
    rng = random.Random(11)
    for _ in range(120):
        inst = OneInThreeInstance((rng.choice(clauses), rng.choice(clauses)))
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == \
            verdict(one_in_three_satisfiable(inst))


def test_ordering_gadget_has_unique_survivor():
    g = ordering_gadget(OneInThreeInstance(((1, 2, 3),)))
    from symbreak.breaker import LeaderConstraint
    leader = LeaderConstraint(g.flip, g.ordering)
    kept = [a for a in tuple_solutions(g.problem) if leader.satisfied(a)]
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
    g = group_gadget(Cnf(2, ((1,), (-1,))))
    assert members(g) == ((0, 0),)
    assert g.group.generators == ()
    assert solve_group_gadget(g) == UNSAT


def test_group_gadget_positive_unit():
    g = group_gadget(Cnf(2, ((1,),)))
    assert members(g) == ((0, 0), (1, 0), (1, 1))
    assert len(orbits(list(g.solutions), g.group)) == 1
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


def test_group_gadget_solves_from_two_generators_without_the_chain(monkeypatch):
    # Sym(1024 members) from the 1024-cycle and one swap: `orbits` images the
    # solutions once per generator, and the leader-full verdict takes the
    # block minimum without counting the 1024!-element group
    from symbreak.symmetry import SymmetryGroup

    gadget = group_gadget(cnf_from_dict({"n": 10, "clauses": []}))
    assert len(gadget.solutions) == 1024 and len(gadget.group.generators) <= 2
    calls = []
    image_codes = AssignmentSymmetry.image_codes

    def counted(self, codes):
        calls.append(self)
        return image_codes(self, codes)

    def chain(self):
        raise AssertionError("the stabilizer chain was read")

    monkeypatch.setattr(AssignmentSymmetry, "image_codes", counted)
    monkeypatch.setattr(SymmetryGroup, "chain", property(chain))
    assert solve_group_gadget(gadget) == SAT
    assert len(calls) == len(set(calls)) and set(calls) <= set(gadget.group.generators)
    with pytest.raises(AssertionError, match="chain was read"):  # the patch is live
        gadget.group.order


def test_group_gadget_is_solved_on_codes(monkeypatch):
    # the enumeration's codes are ranked and searched as they are: solving
    # encodes and decodes no assignment
    from symbreak.orderings import SimpleOrdering

    gadget = group_gadget(cnf_from_dict({"n": 10, "clauses": [[1, -5, 10]]}))
    calls = []
    for name in ("codes", "decode"):
        def counted(self, items, method=getattr(SimpleOrdering, name), name=name):
            calls.append(name)
            return method(self, items)

        monkeypatch.setattr(SimpleOrdering, name, counted)
    assert solve_group_gadget(gadget) == SAT and calls == []
    assert len(gadget.solutions) == len(set(cnf_models(gadget.phi)) | {(0,) * 10}) == 896


def test_group_gadget_width_checks():
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
                  if phi.satisfied_by(bits)]
        assert cnf_models(phi) == models, phi
        assert cnf_satisfiable(phi) == bool(models), phi
    assert any(not cnf_models(phi) for phi in cnfs) and any(
        len(clause) == 1 for phi in cnfs for clause in phi.clauses)
