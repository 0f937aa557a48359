import importlib.util
import math
import os
from functools import cmp_to_key, partial

import pytest

from symbreak.breaker import (
    LeaderConstraint,
    doublelex_constraints,
    extensional_set,
    filter_solutions,
    leader_constraints,
    orbit_verdict,
    per_orbit_survivors,
)
from symbreak.model import (
    CapExceededError,
    InputError,
    Problem,
    TableConstraint,
    binary_domains,
    enumerate_solutions,
)
from symbreak.orderings import (
    GrayOrdering,
    LexOrdering,
    SnakeLexOrdering,
    applicable_orderings,
    rank_preserving_map,
)
from symbreak.symmetry import (
    DEFAULT_CLOSURE_CAP,
    LiteralSymmetry,
    SymmetryGroup,
    conjugate,
    orbits,
    partitions_isomorphic,
    row_col_generators,
    row_col_group,
)

from reference import (
    GT,
    all_assignments,
    apply,
    blocks_of,
    compare,
    forward,
    is_complete,
    is_sound,
    kept_of,
    min_in_class,
    tuple_orbits,
)

SPACE2x2 = list(all_assignments(binary_domains(4)))
LEX4 = LexOrdering(binary_domains(4))
GRAY4 = GrayOrdering(binary_domains(4))


def orbit_minima(solutions, group, ordering):
    """Independent oracle: smallest member of each orbit by pairwise compare."""
    part = tuple_orbits(solutions, group)
    key = cmp_to_key(partial(compare, ordering))
    return {min(block, key=key) for block in blocks_of(part)}


def test_leader_constraints_trivial_group():
    trivial = SymmetryGroup((LiteralSymmetry.variable(range(4), LexOrdering(binary_domains(4))),))
    bset = leader_constraints(trivial, LEX4, mode="full")
    assert len(bset) == 0
    assert filter_solutions(SPACE2x2, bset) == SPACE2x2


def test_full_lex_leader_on_2x2():
    group = row_col_group((2, 2))
    bset = leader_constraints(group, LEX4, mode="full")
    assert len(bset) == 3  # closure of 4 minus the identity
    survivors = filter_solutions(SPACE2x2, bset)
    assert len(survivors) == 7
    assert set(survivors) == orbit_minima(SPACE2x2, group, LEX4)


def test_full_gray_leader_on_2x2():
    group = row_col_group((2, 2))
    survivors = filter_solutions(SPACE2x2, leader_constraints(group, GRAY4))
    assert len(survivors) == 7
    assert set(survivors) == orbit_minima(SPACE2x2, group, GRAY4)


def test_generator_set_is_weaker():
    group = row_col_group((3, 2))
    space = list(all_assignments(binary_domains(6)))
    lex = LexOrdering(binary_domains(6))
    full = set(filter_solutions(space, leader_constraints(group, lex, "full")))
    gens = set(filter_solutions(space, leader_constraints(group, lex, "generators")))
    assert full <= gens
    assert is_sound(space, leader_constraints(group, lex, "generators"), group)


def test_leader_constraints_bad_mode():
    with pytest.raises(InputError):
        leader_constraints(row_col_group((2, 2)), LEX4, mode="everything")


def test_filter_preserves_order_and_empty_set_is_identity():
    bset = extensional_set(SPACE2x2[:3])
    assert filter_solutions(SPACE2x2, bset) == SPACE2x2[:3]
    empty = leader_constraints(SymmetryGroup((), coding=LEX4), LEX4)
    assert filter_solutions(SPACE2x2, empty) == SPACE2x2


def test_soundness_and_completeness_verdicts():
    group = row_col_group((2, 2))
    full = leader_constraints(group, LEX4)
    assert is_sound(SPACE2x2, full, group)
    assert is_complete(SPACE2x2, full, group)

    nothing = leader_constraints(SymmetryGroup((), coding=LEX4), LEX4)
    assert is_sound(SPACE2x2, nothing, group)
    assert not is_complete(SPACE2x2, nothing, group)

    survivors = filter_solutions(SPACE2x2, full)
    dropped = extensional_set(survivors[1:])
    assert not is_sound(SPACE2x2, dropped, group)


def test_min_in_class():
    group = row_col_group((2, 2))
    # singleton orbit
    assert min_in_class((1, 1, 1, 1), group, LEX4)
    # global minimum
    assert min_in_class((0, 0, 0, 0), group, LEX4)
    # [[1,1],[0,1]] is beaten by [[0,1],[1,1]]
    assert not min_in_class((1, 1, 0, 1), group, LEX4)
    assert min_in_class((0, 1, 1, 1), group, LEX4)


def test_min_in_class_matches_leader_filter():
    group = row_col_group((2, 2))
    for ordering in (LEX4, GRAY4, SnakeLexOrdering(binary_domains(4), (2, 2))):
        survivors = set(filter_solutions(SPACE2x2, leader_constraints(group, ordering)))
        flags = {a for a in SPACE2x2 if min_in_class(a, group, ordering)}
        assert survivors == flags


def test_doublelex_degenerate_shapes():
    assert len(doublelex_constraints((1, 5))) == 4
    assert len(doublelex_constraints((5, 1))) == 4
    with pytest.raises(InputError):
        doublelex_constraints(None)


def test_doublelex_on_2x2():
    group = row_col_group((2, 2))
    dl = doublelex_constraints((2, 2))
    survivors = set(filter_solutions(SPACE2x2, dl))
    lexmin = set(filter_solutions(SPACE2x2, leader_constraints(group, LEX4)))
    assert lexmin <= survivors  # every lex leader satisfies doublelex
    assert survivors == {(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 1),
                         (0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)}
    assert is_sound(SPACE2x2, dl, group)


def test_doublelex_incomplete_at_2x3():
    # frozen witness: [[0,0,1],[1,1,0]] and [[0,1,1],[1,0,0]] share an orbit
    space = list(all_assignments(binary_domains(6)))
    group = row_col_group((2, 3))
    dl = doublelex_constraints((2, 3))
    a, b = (0, 0, 1, 1, 1, 0), (0, 1, 1, 1, 0, 0)
    part = tuple_orbits(space, group)
    assert any(a in block and b in block for block in blocks_of(part))
    assert dl.satisfied(a) and dl.satisfied(b)
    assert not is_complete(space, dl, group)


def test_conjugated_minima_are_images_of_lex_minima():
    # ordering-minimum members of the conjugated group correspond through the
    # rank-preserving permutation to lex-minimum members of the original group
    group = row_col_group((2, 2))
    for ordering in (GRAY4, SnakeLexOrdering(binary_domains(4), (2, 2))):
        pi = rank_preserving_map(ordering)
        conj = conjugate(pi, group)
        lex_minima = {a for a in SPACE2x2 if min_in_class(a, group, LEX4)}
        conj_minima = {a for a in SPACE2x2 if min_in_class(a, conj, ordering)}
        assert conj_minima == {forward(pi, a) for a in lex_minima}


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 10) for c in range(1, 10)
                                   if r * c <= 9], ids="{0[0]}x{0[1]}".format)
def test_conjugation_carries_lex_leaders_to_ordering_leaders(shape):
    # the paper's reduction, through the orbit kernel: for every ordering O
    # but lex, with pi the rank-preserving map, the orbits of pi G pi⁻¹ are
    # pi's images of G's, and its O-leader survivors (full and generators)
    # are the images of G's lex-leader survivors, block by block through
    # tau; the cap admits the 9! elements of the 1x9 and 9x1 groups
    doms = binary_domains(shape[0] * shape[1])
    space = list(all_assignments(doms))
    group = SymmetryGroup(row_col_generators(shape), cap=10 ** 6, coding=LexOrdering(doms))
    lex, *others = applicable_orderings(doms, shape)
    assert [o.name for o in others] == ["revlex", "gray", "snakelex"]
    original = tuple_orbits(space, group)
    lex_kept = {mode: kept_of(orbit_verdict(original, leader_constraints(group, lex, mode)),
                              original)
                for mode in ("full", "generators")}
    for ordering in others:
        pi = rank_preserving_map(ordering)
        conj = conjugate(pi, group)
        conjugated = tuple_orbits(space, conj)
        ok, tau = partitions_isomorphic(original, conjugated, pi)
        assert ok and sorted(tau) == list(range(len(original))), ordering.name
        for mode, kept in lex_kept.items():
            verdict = orbit_verdict(conjugated, leader_constraints(conj, ordering, mode))
            assert [set(kept_of(verdict, conjugated)[k]) for k in tau] == \
                [{forward(pi, a) for a in block} for block in kept], (ordering.name, mode)


TERNARY_2x2 = LexOrdering(((0, 1, 2),) * 4)


@pytest.mark.parametrize("group, shape", [
    (row_col_group((2, 3)), (2, 3)),
    (SymmetryGroup((*row_col_generators((2, 2), TERNARY_2x2), LiteralSymmetry.from_maps(
        range(4), [{0: 1, 1: 2, 2: 0}] * 4, TERNARY_2x2))), (2, 2)),
    (conjugate(rank_preserving_map(GrayOrdering(binary_domains(4))), row_col_group((2, 2))),
     (2, 2)),
], ids=["row-col-2x3", "ternary-value-maps-2x2", "conjugated-gray-2x2"])
def test_leader_constraint_is_the_per_assignment_comparison(group, shape):
    # on codes, as the reference `compare` of a with its `apply` image, for
    # every closure element under every ordering on every assignment
    space = list(all_assignments(group.coding.domains))
    for ordering in applicable_orderings(group.coding.domains, shape):
        for s in group.closure():
            con = LeaderConstraint(s, ordering)
            assert [con.satisfied(a) for a in space] == \
                [compare(ordering, a, apply(s, a)) != GT for a in space], (ordering.name, s)


def test_leader_constraint_refuses_an_ordering_over_another_listing():
    # the same values listed in another order rank other codes
    con = LeaderConstraint(row_col_generators((1, 2))[0], LexOrdering(((1, 0), (1, 0))))
    with pytest.raises(InputError, match="^ordering and symmetry act on different domains$"):
        con.satisfied((0, 1))


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.parametrize("r", [5, 6])
def test_conjugation_carries_orbits_past_the_enumeration_cap(r):
    # the paper's reduction on r x r binary models with one non-zero cell per
    # row: r^r solutions in a space of 2^(r*r), past the uncapped enumeration
    # limit, under every ordering; the conjugates take the solutions' codes
    # alone, and the orbit count is bench/oracles.py's, by Burnside's lemma
    spec = importlib.util.spec_from_file_location("bench_oracles",
                                                  os.path.join(BENCH, "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    doms = binary_domains(r * r)
    one = frozenset(tuple(int(j == k) for j in range(r)) for k in range(r))
    problem = Problem(r * r, doms, tuple(TableConstraint(tuple(range(i * r, i * r + r)), one)
                                         for i in range(r)))
    sols = enumerate_solutions(problem, cap=r ** r)
    group = row_col_group((r, r))
    original = orbits(sols, group)
    assert len(sols) == r ** r and len(original) == oracles.matrix_orbit_count(r, r, 2, 1)
    for ordering in applicable_orderings(doms, (r, r)):
        pi = rank_preserving_map(ordering)
        conjugated = orbits(pi.forward_codes(sols), conjugate(pi, group))
        ok, tau = partitions_isomorphic(original, conjugated, pi)
        assert ok and sorted(tau) == list(range(len(original))), ordering.name


def test_leader_constraint_nonstrict_keeps_fixed_points():
    row_swap = row_col_group((2, 2)).generators[0]
    con = LeaderConstraint(row_swap, LEX4)
    assert con.satisfied((0, 1, 0, 1))  # rows equal: sigma fixes it
    assert con.satisfied((0, 0, 1, 1))
    assert not con.satisfied((1, 1, 0, 0))


def test_per_orbit_survivor_counts():
    group = row_col_group((2, 2))
    part, counts = per_orbit_survivors(LEX4.codes(SPACE2x2), leader_constraints(group, LEX4),
                                       group)
    assert len(part) == 7
    assert counts == (1,) * 7


@pytest.mark.parametrize("shape", [(r, c) for r in range(1, 10) for c in range(1, 10)
                                   if r * c <= 9])
def test_leader_full_posts_the_closure_after_the_identity(shape):
    group = row_col_group(shape)
    lex = LexOrdering(binary_domains(shape[0] * shape[1]))
    if math.factorial(shape[0]) * math.factorial(shape[1]) > DEFAULT_CLOSURE_CAP:  # 1x9, 9x1
        message = f"closure exceeds cap={DEFAULT_CLOSURE_CAP}"
        with pytest.raises(CapExceededError, match=message):
            leader_constraints(group, lex)
        with pytest.raises(CapExceededError, match=message):
            group.closure()
        return
    bset = leader_constraints(group, lex)
    closure = group.closure()
    assert len(bset) == max(len(closure) - 1, 0) == group.order - 1  # 1x1: no generators
    assert [con.sigma for con in bset.constraints] == list(closure[1:])


IDENT4 = LiteralSymmetry.variable(range(4), LexOrdering(binary_domains(4)))
ROW4, COL4 = row_col_generators((2, 2))


@pytest.mark.parametrize("gens, order", [
    ((), 1), ((IDENT4,), 1), ((ROW4, ROW4), 2), ((IDENT4, ROW4, IDENT4, COL4, ROW4), 4)])
def test_leader_full_length_without_generators_or_with_repeated_ones(gens, order):
    # a group without generators has no space to build its identity on, so
    # its closure is empty though its order is 1
    group = SymmetryGroup(gens, coding=LEX4)
    bset = leader_constraints(group, LEX4)
    assert len(bset) == len(bset.constraints) == max(len(group.closure()) - 1, 0) == order - 1
    assert group.order == order
    assert filter_solutions(SPACE2x2, bset) == [a for a in SPACE2x2 if all(
        compare(LEX4, a, apply(s, a)) != GT for s in group.closure())]
