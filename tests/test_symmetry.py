import itertools
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbreak.breaker import (
    LeaderConstraint,
    SymmetryBreakingSet,
    extensional_set,
    leader_constraints,
    orbit_verdict,
)
from symbreak.model import CapExceededError, InputError, binary_domains
from symbreak.orderings import (
    ORDERING_NAMES,
    GrayOrdering,
    LexOrdering,
    RevLexOrdering,
    applicable_orderings,
    make_ordering,
)
from symbreak.reductions import Cnf, group_gadget, solve_group_gadget
from symbreak.symmetry import (
    ConjugateSymmetry,
    LiteralSymmetry,
    SymmetryGroup,
    conjugate,
    orbits,
    partitions_isomorphic,
    row_col_generators,
    row_col_group,
    symmetry_group_from_dict,
)

from reference import (
    AssignmentSymmetry,
    all_assignments,
    apply,
    blocks_of,
    breadth_first_closure,
    closure_tree,
    cnf_models,
    code_blocks,
    compose,
    count_rank_calls,
    dense_orbit_of,
    digit_rank,
    forward,
    gadget_cnfs,
    gadget_group,
    invert,
    map_constraint_set,
    orbit_of,
    symmetry_from_pairs,
    tabulated_conjugate,
    tuple_orbits,
    val_maps,
    value_swap,
)

SPACE2x2 = list(all_assignments(binary_domains(4)))


def transposition(a, b):
    return symmetry_from_pairs({a: b, b: a}, binary_domains(len(a)))


def burnside_orbit_count(group, space):
    closure = group.closure()
    fixed = sum(sum(1 for a in space if apply(s, a) == a) for s in closure)
    return fixed // len(closure)


def test_identity_apply():
    ident = LiteralSymmetry.variable(range(3), LexOrdering(binary_domains(3)))
    assert apply(ident, (0, 1, 1)) == (0, 1, 1)
    assert ident.is_identity()


def test_value_swap_on_last_variable():
    doms = binary_domains(4)
    flip = value_swap(3, 0, 1, LexOrdering(doms))
    assert apply(flip, (0, 1, 1, 0)) == (0, 1, 1, 1)
    assert apply(flip, (0, 1, 1, 1)) == (0, 1, 1, 0)


VALUE_SWAP_DOMAINS = ((0, 1, 2), (5, 7), (4, 1, 3), (0, 1), (9,))


@pytest.mark.parametrize("var, a, b", [(0, 0, 2), (0, 1, 1), (1, 7, 5), (2, 4, 1),
                                       (2, 3, 4), (3, 0, 1), (4, 9, 9)])
def test_value_swap_equals_its_value_maps(var, a, b):
    # the swap exchanges two literals of the identity; from_maps lays out
    # the identity value maps with the two values traded
    maps = [{v: v for v in d} for d in VALUE_SWAP_DOMAINS]
    maps[var][a], maps[var][b] = b, a
    swap = value_swap(var, a, b, LexOrdering(VALUE_SWAP_DOMAINS))
    assert swap == LiteralSymmetry.from_maps(range(len(maps)), maps,
                                             LexOrdering(VALUE_SWAP_DOMAINS))
    assert val_maps(swap) == \
        val_maps(LiteralSymmetry.from_maps(range(len(maps)), maps, LexOrdering(VALUE_SWAP_DOMAINS)))
    assert swap.is_identity() == (a == b)
    for x in all_assignments(VALUE_SWAP_DOMAINS):
        image = list(x)
        image[var] = {a: b, b: a}.get(x[var], x[var])
        assert apply(swap, x) == tuple(image)


@pytest.mark.parametrize("var, a, b, message", [
    (0, 0, 5, "value 5 outside domain of variable 0"),
    (1, 6, 7, "value 6 outside domain of variable 1"),
    (4, 9, 1, "value 1 outside domain of variable 4"),
    (5, 0, 1, "variable 5 outside 0..4"),
    (-1, 0, 1, "variable -1 outside 0..4"),
])
def test_value_swap_refuses_bad_variables_and_values(var, a, b, message):
    with pytest.raises(InputError, match=re.escape(message)):
        value_swap(var, a, b, LexOrdering(VALUE_SWAP_DOMAINS))


def test_row_swap_on_2x2():
    row_swap = row_col_generators((2, 2))[0]
    # [[0,1],[1,1]] -> [[1,1],[0,1]]
    assert apply(row_swap, (0, 1, 1, 1)) == (1, 1, 0, 1)


def test_apply_arity_and_domain_errors():
    flip = value_swap(0, 0, 1, LexOrdering(binary_domains(2)))
    with pytest.raises(InputError):
        apply(flip, (0,))
    with pytest.raises(InputError):
        apply(flip, (2, 0))


@pytest.mark.parametrize("sym", [
    LiteralSymmetry.variable((1, 0), LexOrdering(binary_domains(2))),
    value_swap(0, 0, 1, LexOrdering(binary_domains(2)))], ids=["swap", "flip"])
@pytest.mark.parametrize("bad", [(0, 5), (5, 0), (0, 1, 1), (1,)])
def test_images_refuse_what_apply_refuses(sym, bad):
    with pytest.raises(InputError) as refused:
        apply(sym, bad)
    with pytest.raises(InputError, match=re.escape(str(refused.value))):
        list(map(LeaderConstraint(sym, sym.coding).satisfied, [(0, 1), bad, (1, 1)]))


def test_literal_validation():
    with pytest.raises(InputError):  # not a permutation
        LiteralSymmetry.from_maps((0, 0), [{0: 0, 1: 1}] * 2, LexOrdering(binary_domains(2)))
    with pytest.raises(InputError):  # value map not bijective
        LiteralSymmetry.from_maps((0,), [{0: 0, 1: 0}], LexOrdering(binary_domains(1)))


def test_literal_value_map_must_land_on_its_target_domain():
    # variable 1 maps onto variable 0, whose values are 0 and 1, not 0 and 2
    with pytest.raises(InputError, match="^value map of variable 1 is not onto the domain of "
                                         "variable 0$"):
        LiteralSymmetry.from_maps((1, 0), [{0: 0, 1: 1}, {0: 0, 1: 2}],
                                  LexOrdering(binary_domains(2)))


def test_compose_and_invert_are_inverse_actions():
    doms = binary_domains(4)
    row_swap, col_swap = row_col_generators((2, 2))
    for sym in (row_swap, col_swap, value_swap(2, 0, 1, LexOrdering(doms))):
        back = compose(sym, invert(sym))
        for a in SPACE2x2:
            assert apply(back, a) == a
            assert apply(invert(sym), apply(sym, a)) == a


def test_row_swap_is_involution():
    row_swap = row_col_generators((2, 2))[0]
    assert compose(row_swap, row_swap).is_identity()


def test_col_after_row_is_half_turn():
    row_swap, col_swap = row_col_generators((2, 2))
    turn = compose(col_swap, row_swap)
    for a in SPACE2x2:
        r, c = (2, 2)
        rotated = tuple(a[(r - 1 - i) * c + (c - 1 - j)] for i in range(r) for j in range(c))
        assert apply(turn, a) == rotated


def test_compose_mixed_representations_fails():
    lit = LiteralSymmetry.variable(range(2), LexOrdering(binary_domains(2)))
    asg = transposition((0, 0), (1, 1))
    with pytest.raises(InputError):
        compose(lit, asg)
    with pytest.raises(InputError):
        compose(asg, lit)


def test_assignment_symmetry_bijection_check():
    with pytest.raises(InputError):
        symmetry_from_pairs({(0, 0): (1, 1)}, binary_domains(2))  # nothing maps back
    sym = transposition((0, 0), (1, 1))
    assert apply(sym, (0, 0)) == (1, 1)
    assert apply(sym, (0, 1)) == (0, 1)  # identity off the listed set
    assert invert(sym) == sym


def test_assignment_symmetry_holds_lex_codes():
    # unsorted domains: codes follow the listed order, and apply decodes
    doms = ((2, 0, 1), (7, 5))
    space = list(all_assignments(doms))
    sym = symmetry_from_pairs(dict(zip(space, space[1:] + space[:1])), doms)
    assert sym._map == {k: (k + 1) % 6 for k in range(6)}
    assert sym.coding.domains == doms and apply(sym, (1, 5)) == (2, 7)
    assert sym.image_codes([0, 5]) == [1, 0]
    with pytest.raises(InputError, match="value 3 outside domain of variable 0"):
        apply(sym, (3, 7))
    same_map = AssignmentSymmetry(sym._map, LexOrdering(((2, 0, 1), (5, 7))))
    assert sym != same_map  # the same codes over other listed domains
    with pytest.raises(InputError, match="generators act on different domains"):
        SymmetryGroup((sym, same_map))


def test_assignment_symmetry_builds_its_key_on_first_comparison():
    sym = transposition((0, 0), (1, 1))
    assert "_key" not in vars(sym)
    assert sym == transposition((1, 1), (0, 0))
    assert "_key" in vars(sym)
    assert hash(sym) == hash(invert(sym))
    assert sym != symmetry_from_pairs({}, binary_domains(2))


@given(st.permutations(list(range(4))))
def test_assignment_symmetry_compose_invert(perm):
    space = list(all_assignments(binary_domains(2)))
    sym = symmetry_from_pairs({space[i]: space[perm[i]] for i in range(4)},
                                        binary_domains(2))
    inv = invert(sym)
    for a in space:
        assert apply(inv, apply(sym, a)) == a
        assert apply(compose(sym, inv), a) == a


def test_closure_sizes():
    flip = value_swap(0, 0, 1, LexOrdering(binary_domains(2)))
    assert len(SymmetryGroup((flip,)).closure()) == 2
    assert len(row_col_group((2, 2)).closure()) == 4
    assert len(row_col_group((3, 3)).closure()) == 36  # 3! * 3!


def test_closure_is_a_group():
    group = row_col_group((2, 2))
    closure = group.closure()
    assert any(s.is_identity() for s in closure)
    table = {s: {a: apply(s, a) for a in SPACE2x2} for s in closure}
    actions = {frozenset(t.items()) for t in table.values()}
    for s1, s2 in itertools.product(closure, repeat=2):
        prod = {a: table[s1][table[s2][a]] for a in SPACE2x2}
        assert frozenset(prod.items()) in actions


GRAY_2x2 = GrayOrdering(binary_domains(4))


@pytest.mark.parametrize("group", [
    row_col_group((3, 3)),
    tabulated_conjugate(GRAY_2x2, row_col_group((2, 2))),
    conjugate(GRAY_2x2, row_col_group((2, 2))),
    SymmetryGroup((), coding=LexOrdering(binary_domains(4))),
], ids=["literal", "assignment-level", "conjugated", "no-generators"])
def test_closure_tree_spans_the_closure_breadth_first(group):
    closure, tree = breadth_first_closure(group), closure_tree(group)
    assert len(tree) == max(len(closure) - 1, 0)
    depth = [0]
    for pos, (parent, k) in enumerate(tree, 1):
        assert parent < pos and compose(group.generators[k], closure[parent]) == closure[pos]
        depth.append(depth[parent] + 1)
    assert depth == sorted(depth)
    parents = [parent for parent, _ in tree]
    assert parents == sorted(parents)  # each element's children one after another


def test_closure_cap_overflow():
    with pytest.raises(CapExceededError):
        SymmetryGroup(row_col_generators((3, 3)), cap=10).closure()


def assert_orbit_of_matches_dense(group, starts, space=None):
    """The reference `orbit_of`, which steps an assignment-level group only
    along its listed pairs, gives the dense search's tuple from every start, and with the
    cap one below the orbit's size both searches overflow.  On a literal
    group both apply every generator at every point, so given the whole
    space, each orbit is also, as a set, the block of `orbits` (which works
    on image codes) holding its start."""
    coding = group.coding
    block = ({} if space is None
             else {a: set(b) for b in blocks_of(tuple_orbits(space, group)) for a in b})
    for a in starts:
        code = coding.codes([a])[0]
        orbit = tuple(coding.decode(list(orbit_of(group, code))))
        assert orbit == dense_orbit_of(group, a), a
        if space is not None:
            assert set(orbit) == block[a], a
        if len(orbit) > 1:
            capped = SymmetryGroup(group.generators, cap=len(orbit) - 1)
            for search, start in ((lambda c: orbit_of(capped, c), code),
                                  (lambda b: dense_orbit_of(capped, b), a)):
                with pytest.raises(CapExceededError, match=f"cap={len(orbit) - 1}$"):
                    search(start)


def test_orbit_of_matches_the_dense_search_on_group_gadgets():
    # each gadget from its first and last solution (every solution up to 3
    # variables) and from a point outside the solution set
    for phi in gadget_cnfs():
        gadget = group_gadget(phi)
        solutions = gadget.ordering.decode(list(gadget.solutions))
        space = list(itertools.product((0, 1), repeat=phi.num_vars))
        outside = [a for a in space if a not in solutions][:1]
        starts = solutions if phi.num_vars <= 3 else (solutions[0], solutions[-1])
        assert_orbit_of_matches_dense(gadget_group(gadget), [*starts, *outside])


def test_group_gadget_group_is_the_symmetric_group_on_its_solutions():
    # the cycle and the swap generate Sym(solutions): N! elements, each the
    # same as a set as the breadth-first closure's
    checked = set()
    for phi in gadget_cnfs():
        gadget = group_gadget(phi)
        n = len(gadget.solutions)
        if n <= 6:
            group = gadget_group(gadget)
            assert group.order == math.factorial(n), phi
            assert set(group.closure()) == set(breadth_first_closure(group)), phi
            checked.add(n)
    assert checked == {1, 2, 3, 4, 5, 6}


def test_group_gadget_leader_full_set_keeps_the_revlex_least_solution():
    # the claim `solve_group_gadget` rests on, checked on the group it never
    # builds: Sym(solutions), from the cycle and the swap, glues the
    # solutions into one orbit, and its leader-full set keeps only their
    # revlex-least member; up to 6 members the group has N! elements
    checked = set()
    for phi in gadget_cnfs():
        gadget = group_gadget(phi)
        group, solutions = gadget_group(gadget), list(gadget.solutions)
        partition = orbits(solutions, group)
        verdict = orbit_verdict(partition, SymmetryBreakingSet(full=(group, gadget.ordering)))
        least = min(solutions, key=lambda c: digit_rank(gadget.ordering,
                                                         gadget.ordering.decode([c])[0]))
        assert len(partition) == 1 and verdict.kept == ((least,),), phi
        sat = bool(cnf_models(phi))
        assert solve_group_gadget(gadget) == ("SAT" if sat else "UNSAT"), phi
        assert (least == 0) == (solutions == [0]), phi
        if len(solutions) <= 6:
            # without generators the closure lists no element, not the identity
            assert max(len(breadth_first_closure(group)), 1) == \
                math.factorial(len(solutions)), phi
            checked.add(len(solutions))
    assert checked == {1, 2, 3, 4, 5, 6}


def test_orbit_of_matches_the_dense_search_on_random_assignment_groups():
    # random bijections on random subsets of a 27-point space; a subset of
    # fewer than two points, or a bijection fixing it, is the identity
    space = list(all_assignments(((0, 1, 2),) * 3))
    rng = random.Random(7)
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(1, 5)):
            subset = rng.sample(space, rng.randint(0, 8))
            gens.append(symmetry_from_pairs(
                dict(zip(subset, rng.sample(subset, len(subset)))), ((0, 1, 2),) * 3))
        assert_orbit_of_matches_dense(SymmetryGroup(tuple(gens)), space)


@pytest.mark.parametrize("name", ORDERING_NAMES)
def test_orbit_of_matches_the_dense_search_on_conjugated_2x2_groups(name):
    ordering = make_ordering(name, binary_domains(4), (2, 2))
    assert_orbit_of_matches_dense(conjugate(ordering, row_col_group((2, 2))), SPACE2x2, SPACE2x2)
    assert_orbit_of_matches_dense(row_col_group((2, 2)), SPACE2x2, SPACE2x2)


VALUE_MAP_DOMAINS = ((2, 0, 1), (1, 0), (2, 0, 1), (1, 0))


@pytest.mark.parametrize("group, domains", [
    (row_col_group((2, 2)), binary_domains(4)),
    (row_col_group((3, 3)), binary_domains(9)),
    (SymmetryGroup((LiteralSymmetry.variable((2, 3, 0, 1), LexOrdering(VALUE_MAP_DOMAINS)),
                    LiteralSymmetry.from_maps((0, 1, 2, 3), [{2: 0, 0: 1, 1: 2}, {1: 0, 0: 1},
                                                             {2: 2, 0: 0, 1: 1}, {1: 1, 0: 0}],
                                              LexOrdering(VALUE_MAP_DOMAINS)))), VALUE_MAP_DOMAINS),
], ids=["rowcol-2x2", "rowcol-3x3", "value-maps-2x2"])
def test_orbit_of_is_its_block_of_the_orbit_partition_on_literal_groups(group, domains):
    space = list(all_assignments(domains))
    assert_orbit_of_matches_dense(group, space, space)


def test_orbits_2x2_full_space():
    group = row_col_group((2, 2))
    part = tuple_orbits(SPACE2x2, group)
    assert len(part) == 7
    assert len(part) == burnside_orbit_count(group, SPACE2x2)
    assert sorted(map(len, part.members), reverse=True) == [4, 4, 2, 2, 2, 1, 1]


def test_orbits_identity_only_group():
    group = SymmetryGroup((LiteralSymmetry.variable(range(4), LexOrdering(binary_domains(4))),))
    part = tuple_orbits(SPACE2x2, group)
    assert len(part) == 16
    assert all(len(members) == 1 for members in part.members)


def test_orbits_3x3_full_space():
    space = list(all_assignments(binary_domains(9)))
    group = row_col_group((3, 3))
    part = tuple_orbits(space, group)
    assert len(part) == burnside_orbit_count(group, space) == 36


def test_orbits_partition_properties():
    group = row_col_group((2, 3))
    space = list(all_assignments(binary_domains(6)))
    part = tuple_orbits(space, group)
    assert sorted(a for block in blocks_of(part) for a in block) == sorted(space)
    for block in blocks_of(part):
        members = set(block)
        for gen in group.generators:
            assert {apply(gen, a) for a in members} == members


def test_orbits_escaping_generator_is_an_error():
    group = row_col_group((2, 2))
    with pytest.raises(InputError):
        tuple_orbits([(0, 1, 0, 0)], group)  # row swap leaves the set


def test_orbits_name_the_first_escape_in_search_order():
    # flip x2, then flip x0, on the solutions 000, 100, 001 listed in that
    # order: the search from 000 reaches 001 (flip x2) before 100, and flip
    # x0 takes 001 out first; 100 leaves too, but by flip x2 and later in
    # the search, though earlier in the input and generator order
    coding = LexOrdering(binary_domains(3))
    group = SymmetryGroup((value_swap(2, 0, 1, coding),
                           value_swap(0, 0, 1, coding)))
    solutions = [(0, 0, 0), (1, 0, 0), (0, 0, 1)]
    message = re.escape("generator maps a solution outside the solution set "
                        "((0, 0, 1) -> (1, 0, 1))")
    with pytest.raises(InputError, match=f"^{message}$"):
        orbits(coding.codes(solutions), group)
    for gen, escaping in zip(group.generators, [(1, 0, 0), (0, 0, 1)]):
        with pytest.raises(InputError, match=re.escape(f"({escaping} -> ")):
            orbits(coding.codes([escaping]), SymmetryGroup((gen,)))


@pytest.mark.parametrize("bad", [(0, 5, 0, 1), (3, 1, 0, 0), (0, 1, 0), (0, 1, 0, 1, 1)])
def test_orbits_refuse_a_solution_with_the_error_apply_raises(bad):
    # the solutions are checked once per partition, by the first generator;
    # the others gather unchecked, and the message is the one apply gives
    mixed = ((0, 1, 2), (0, 1), (0, 1, 2), (0, 1))
    group = SymmetryGroup((LiteralSymmetry.variable((2, 1, 0, 3), LexOrdering(mixed)),
                           value_swap(1, 0, 1, LexOrdering(mixed))))
    for gen in group.generators:
        with pytest.raises(InputError) as refused:
            apply(gen, bad)
        with pytest.raises(InputError, match=f"^{re.escape(str(refused.value))}$"):
            tuple_orbits([(0, 1, 0, 1), bad], group)


def test_conjugate_by_identity_keeps_action():
    lex = LexOrdering(binary_domains(4))
    group = row_col_group((2, 2))
    conj = conjugate(lex, group)
    for gen, cgen in zip(group.generators, conj.generators):
        for a in SPACE2x2:
            assert apply(cgen, a) == apply(gen, a)


def test_conjugate_matches_definition_pointwise():
    gray = GrayOrdering(binary_domains(4))
    group = row_col_group((2, 2))
    conj = conjugate(gray, group)
    for gen, cgen in zip(group.generators, conj.generators):
        for b in SPACE2x2:
            assert apply(cgen, forward(gray, b)) == forward(gray, apply(gen, b))


SHAPES_UP_TO_9 = [(r, c) for r in range(1, 10) for c in range(1, 10) if r * c <= 9]


def value_cycle_group(domains, perms):
    """Variable permutations of 2x2 cells and every value moved one place
    round its listed domain."""
    coding = LexOrdering(domains)
    cycle = [{v: d[(p + 1) % len(d)] for p, v in enumerate(d)} for d in domains]
    return SymmetryGroup((*(LiteralSymmetry.variable(p, coding) for p in perms),
                          LiteralSymmetry.from_maps(range(4), cycle, coding)))


ORACLE_CASES = [(shape, SymmetryGroup(row_col_generators(shape), cap=10 ** 6,
                                      coding=LexOrdering(binary_domains(shape[0] * shape[1]))))
                for shape in SHAPES_UP_TO_9 + [(3, 4)]] + [
    ((2, 2), value_cycle_group(((0, 1, 2),) * 4, [(2, 3, 0, 1), (1, 0, 3, 2)])),
    ((2, 2), value_cycle_group(((2, 0, 1),) * 4, [(2, 3, 0, 1), (1, 0, 3, 2)])),
    ((2, 2), value_cycle_group(VALUE_MAP_DOMAINS, [(2, 3, 0, 1)]))]


@pytest.mark.parametrize("shape, group", ORACLE_CASES, ids=[
    *("{0[0]}x{0[1]}".format(shape) for shape, _ in ORACLE_CASES[:-3]),
    "ternary-value-cycle", "unsorted-value-cycle", "mixed-value-cycle"])
def test_conjugate_equals_the_tabulated_oracle(shape, group):
    # generator by generator, as image codes of every lex code, under every
    # ordering defined there; the cap admits the 9! elements of the 1x9 and
    # 9x1 groups
    doms, space = group.coding.domains, list(range(group.coding.space_size))
    for ordering in applicable_orderings(doms, shape):
        conj, oracle = conjugate(ordering, group), tabulated_conjugate(ordering, group)
        assert len(conj.generators) == len(group.generators) and conj.cap == group.cap
        for g, h in zip(conj.generators, oracle.generators):
            assert g.image_codes(space) == h.image_codes(space), ordering.name
            assert g.coding.domains == h.coding.domains == doms, ordering.name
        assert conj.order == group.order, ordering.name


@pytest.mark.parametrize("name", ORDERING_NAMES)
def test_conjugation_ranks_no_single_assignment(monkeypatch, name):
    doms = binary_domains(9)
    space, group = list(all_assignments(doms)), row_col_group((3, 3))
    ordering = make_ordering(name, doms, (3, 3))
    original = tuple_orbits(space, group)
    calls = count_rank_calls(monkeypatch)
    conj = conjugate(ordering, group)
    ok, tau = partitions_isomorphic(original, tuple_orbits(space, conj), ordering)
    assert ok and sorted(tau) == list(range(36))
    assert calls["rank"] == 0


@pytest.mark.parametrize("ordering", [RevLexOrdering(((0, 1, 2),) * 4),
                                      GrayOrdering(binary_domains(3))],
                         ids=["ternary", "three-variable"])
def test_conjugate_refuses_a_permutation_over_other_domains(ordering):
    message = f"permutation acts on domains {ordering.domains}, group on {binary_domains(4)}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        conjugate(ordering, row_col_group((2, 2)))


def blocks_group(blocks, domains):
    """A group whose orbits are `blocks`: one generator cycling each."""
    return SymmetryGroup((symmetry_from_pairs(
        {a: b for block in blocks for a, b in zip(block, block[1:] + block[:1])}, domains),))


def test_partitions_isomorphic_on_partitions_of_equal_counts():
    # as many blocks and solutions each time: the conjugated orbits, then
    # those with one member of a 4-block moved into a singleton
    doms = binary_domains(4)
    blocks = [list(b) for b in blocks_of(tuple_orbits(SPACE2x2, row_col_group((2, 2))))]
    gray = GrayOrdering(doms)
    conj_blocks = [[forward(gray, a) for a in b] for b in blocks]
    part = tuple_orbits(SPACE2x2, blocks_group(blocks, doms))
    same = tuple_orbits(SPACE2x2, blocks_group(conj_blocks, doms))
    ok, tau = partitions_isomorphic(part, same, gray)
    assert ok and [blocks_of(same)[k] for k in tau] == [tuple(sorted(b, key=SPACE2x2.index))
                                                        for b in conj_blocks]
    big, single = next(b for b in conj_blocks if len(b) == 4), \
        next(b for b in conj_blocks if len(b) == 1)
    moved = [b for b in conj_blocks if b not in (big, single)] + [big[1:], single + big[:1]]
    assert len(moved) == len(blocks)
    assert partitions_isomorphic(part, tuple_orbits(SPACE2x2, blocks_group(moved, doms)), gray) == \
        (False, None)
    # singletons: of the space but one point, and of the space but the
    # image of another, so that one image is no solution of the second
    rest = SPACE2x2[1:]
    singletons = lambda points: tuple_orbits(points, SymmetryGroup((), coding=LexOrdering(doms)))
    assert partitions_isomorphic(singletons(rest), singletons([forward(gray, a) for a in rest]),
                                 gray)[0]
    missing = forward(gray, SPACE2x2[1])
    assert partitions_isomorphic(singletons(rest),
                                 singletons([a for a in SPACE2x2 if a != missing]), gray) == \
        (False, None)


def test_conjugated_closure_keeps_its_breadth_first_order():
    # each element as the lex ranks of its images of the space, in the order
    # the closure listed them before it became the search from the identity
    gray = GrayOrdering(binary_domains(4))
    closure = breadth_first_closure(conjugate(gray, row_col_group((2, 2))))
    assert [[SPACE2x2.index(apply(s, a)) for a in SPACE2x2] for s in closure] == [
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        [0, 6, 10, 12, 11, 13, 1, 7, 8, 14, 2, 4, 3, 5, 9, 15],
        [0, 3, 2, 1, 14, 13, 12, 15, 8, 11, 10, 9, 6, 5, 4, 7],
        [0, 12, 10, 6, 9, 5, 3, 15, 8, 4, 2, 14, 1, 13, 11, 7]]


def test_conjugate_preserves_orbit_size_multiset():
    gray = GrayOrdering(binary_domains(4))
    group = row_col_group((2, 2))
    p1 = tuple_orbits(SPACE2x2, group)
    p2 = tuple_orbits(SPACE2x2, conjugate(gray, group))
    assert sorted(map(len, p1.members)) == sorted(map(len, p2.members))
    ok, tau = partitions_isomorphic(p1, p2, gray)
    assert ok
    assert sorted(tau) == list(range(len(p1)))


def test_partitions_isomorphic_identity_case():
    group = row_col_group((2, 2))
    part = tuple_orbits(SPACE2x2, group)
    lex = LexOrdering(binary_domains(4))
    ok, tau = partitions_isomorphic(part, part, lex)
    assert ok and tau == tuple(range(len(part)))


def test_partitions_isomorphic_size_mismatch():
    group = row_col_group((2, 2))
    part = tuple_orbits(SPACE2x2, group)
    singletons = tuple_orbits(SPACE2x2, SymmetryGroup(
        (LiteralSymmetry.variable(range(4), LexOrdering(binary_domains(4))),)))
    lex = LexOrdering(binary_domains(4))
    ok, tau = partitions_isomorphic(part, singletons, lex)
    assert not ok and tau is None


def test_map_constraint_set():
    ident = LexOrdering(binary_domains(4))
    sample = {(0, 0, 0, 0), (0, 1, 1, 0)}
    assert map_constraint_set(ident, sample) == frozenset(sample)
    gray = GrayOrdering(binary_domains(4))
    image = map_constraint_set(gray, sample)
    assert len(image) == len(sample)


def test_group_file_parsing():
    doms = binary_domains(4)
    group = symmetry_group_from_dict(
        {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}], "cap": 50}, doms)
    assert len(group.generators) == 2 and group.cap == 50
    explicit = symmetry_group_from_dict(
        {"generators": [{"kind": "literal", "var_perm": [1, 0, 2, 3]}]}, doms)
    assert apply(explicit.generators[0], (0, 1, 0, 0)) == (1, 0, 0, 0)
    with pytest.raises(InputError):
        symmetry_group_from_dict({"generators": [{"kind": "mystery"}]}, doms)
    with pytest.raises(InputError):
        symmetry_group_from_dict({"generators": [], "extra": 1}, doms)


@pytest.mark.parametrize("shape", SHAPES_UP_TO_9, ids="{0[0]}x{0[1]}".format)
def test_conjugate_carries_the_order_a_chain_from_scratch_finds(shape):
    # conjugation preserves order, so the conjugate's chain is G's; a group
    # rebuilt from its generators agrees, and a cap below |G| overflows
    # either way
    r, c = shape
    doms = binary_domains(r * c)
    group = SymmetryGroup(row_col_generators(shape), cap=10 ** 6, coding=LexOrdering(doms))
    for name in ORDERING_NAMES:
        conj = conjugate(make_ordering(name, doms, shape), group)
        scratch = SymmetryGroup(conj.generators, conj.cap, conj.coding)
        assert conj.order == scratch.order == math.factorial(r) * math.factorial(c), name
    if group.order > 1:
        capped = SymmetryGroup(group.generators, cap=group.order - 1)
        conj = conjugate(GrayOrdering(doms), capped)
        with pytest.raises(CapExceededError, match=f"^closure exceeds cap={group.order - 1}$"):
            conj.order


def test_every_generator_of_a_loaded_group_shares_the_group_coding():
    domains = ((2, 0, 1),) * 4
    cycle, keep = [[2, 0], [0, 1], [1, 2]], [[2, 2], [0, 0], [1, 1]]
    group = symmetry_group_from_dict({"generators": [
        {"kind": "row_col", "rows": 2, "cols": 2},
        {"kind": "literal", "var_perm": [2, 3, 0, 1]},
        {"kind": "literal", "var_perm": [0, 1, 2, 3], "val_maps": [cycle, keep, cycle, keep]},
        {"kind": "row_col", "rows": 2, "cols": 2}]}, domains)
    assert len(group.generators) == 6 and group.coding.domains == domains
    assert all(g.coding is group.coding for g in group.generators)
    empty = symmetry_group_from_dict({"generators": []}, domains)
    assert empty.coding.domains == domains and empty.order == 1 and empty.closure() == ()


def test_a_group_needs_a_coding_and_generators_over_its_domains():
    with pytest.raises(InputError, match="^a group without generators needs a coding$"):
        SymmetryGroup(())
    with pytest.raises(InputError, match="^generators act on different domains$"):
        SymmetryGroup(row_col_generators((1, 2)), coding=LexOrdering(((1, 0),) * 2))
    # one kind of symmetry, and a group of conjugates takes G's points, so
    # it needs one ordering
    gray, revlex = (conjugate(make_ordering(name, binary_domains(4)),
                              row_col_group((2, 2))).generators for name in ("gray", "revlex"))
    swap = transposition((0, 0, 0, 1), (0, 0, 1, 0))
    for mixed in ((row_col_generators((2, 2))[0], swap), (swap, gray[0]), gray[:1] + revlex[1:]):
        with pytest.raises(InputError, match="^a group cannot mix kinds of symmetry or "
                                             "conjugates by different permutations$"):
            SymmetryGroup(mixed)


def test_conjugates_by_separately_built_equal_orderings_share_a_group(monkeypatch):
    # orderings compare by value, so two GrayOrderings of one space give
    # equal conjugates: one group, and `_judge`'s generator lookup for a
    # leader set built from the other conjugate group
    doms, group = binary_domains(4), row_col_group((2, 2))
    first, second = (conjugate(GrayOrdering(doms), group) for _ in range(2))
    assert first.generators == second.generators
    assert SymmetryGroup((first.generators[0], second.generators[1])).order == 4
    partition = orbits(list(range(16)), second)
    expected = orbit_verdict(partition, leader_constraints(second, GrayOrdering(doms),
                                                           "generators"))
    calls = []
    image_codes = ConjugateSymmetry.image_codes
    monkeypatch.setattr(ConjugateSymmetry, "image_codes",
                        lambda self, codes: calls.append(codes) or image_codes(self, codes))
    verdict = orbit_verdict(partition, leader_constraints(first, GrayOrdering(doms),
                                                          "generators"))
    assert verdict == expected and calls == []


@pytest.mark.parametrize("domains", [binary_domains(3), ((2, 0, 1), (1, 0), (0, 1, 2))],
                         ids=["binary", "unsorted-mixed"])
def test_a_group_without_generators_gives_singleton_orbits(domains):
    # through `orbits`, every verdict of `_judge` (leader sets keep every
    # solution, an extensional set its own) and `partitions_isomorphic`
    group = SymmetryGroup((), coding=LexOrdering(domains))
    codes = list(range(0, group.coding.space_size, 2))
    partition = orbits(codes, group)
    assert code_blocks(partition) == tuple((c,) for c in codes) and partition.images == ()
    sets = [leader_constraints(group, ordering, mode)
            for ordering in applicable_orderings(domains) for mode in ("full", "generators")]
    chosen = group.coding.decode(codes[1::3])
    verdicts = [orbit_verdict(partition, bset) for bset in sets + [extensional_set(chosen)]]
    assert all(verdict.kept == code_blocks(partition) for verdict in verdicts[:-1])
    assert verdicts[-1].kept == tuple((c,) if c in codes[1::3] else () for c in codes)
    revlex = RevLexOrdering(domains)
    image = orbits(revlex.unranks(codes), group)
    assert partitions_isomorphic(partition, image, revlex) == (True, tuple(range(len(codes))))
    assert partitions_isomorphic(partition, orbits(codes[1:] + [1], group), revlex) == \
        (False, None)
