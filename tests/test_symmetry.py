import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbreak.model import CapExceededError, InputError, all_assignments, binary_domains
from symbreak.orderings import GrayOrdering, rank_preserving_map
from symbreak.symmetry import (
    AssignmentSymmetry,
    LiteralSymmetry,
    SymmetryGroup,
    conjugate,
    map_constraint_set,
    orbits,
    partitions_isomorphic,
    row_col_generators,
    row_col_group,
    symmetry_group_from_dict,
)

SPACE2x2 = list(all_assignments(binary_domains(4)))


def burnside_orbit_count(group, space):
    closure = group.closure()
    fixed = sum(sum(1 for a in space if s.apply(a) == a) for s in closure)
    return fixed // len(closure)


def test_identity_apply():
    ident = LiteralSymmetry.identity(binary_domains(3))
    assert ident.apply((0, 1, 1)) == (0, 1, 1)
    assert ident.is_identity()


def test_value_swap_on_last_variable():
    doms = binary_domains(4)
    flip = LiteralSymmetry.value_swap(3, 0, 1, doms)
    assert flip.apply((0, 1, 1, 0)) == (0, 1, 1, 1)
    assert flip.apply((0, 1, 1, 1)) == (0, 1, 1, 0)


def test_row_swap_on_2x2():
    row_swap = row_col_generators((2, 2))[0]
    # [[0,1],[1,1]] -> [[1,1],[0,1]]
    assert row_swap.apply((0, 1, 1, 1)) == (1, 1, 0, 1)


def test_apply_arity_and_domain_errors():
    flip = LiteralSymmetry.value_swap(0, 0, 1, binary_domains(2))
    with pytest.raises(InputError):
        flip.apply((0,))
    with pytest.raises(InputError):
        flip.apply((2, 0))


def test_literal_validation():
    with pytest.raises(InputError):
        LiteralSymmetry.from_maps((0, 0), [{0: 0, 1: 1}] * 2)  # not a permutation
    with pytest.raises(InputError):
        LiteralSymmetry.from_maps((0,), [{0: 0, 1: 0}])  # value map not bijective


def test_literal_value_map_must_land_on_its_target_domain():
    # variable 1 maps onto variable 0, whose values are 0 and 1, not 0 and 2
    with pytest.raises(InputError):
        LiteralSymmetry.from_maps((1, 0), [{0: 0, 1: 1}, {0: 0, 1: 2}])


def test_compose_and_invert_are_inverse_actions():
    doms = binary_domains(4)
    row_swap, col_swap = row_col_generators((2, 2))
    for sym in (row_swap, col_swap, LiteralSymmetry.value_swap(2, 0, 1, doms)):
        back = sym.compose(sym.invert())
        for a in SPACE2x2:
            assert back.apply(a) == a
            assert sym.invert().apply(sym.apply(a)) == a


def test_row_swap_is_involution():
    row_swap = row_col_generators((2, 2))[0]
    assert row_swap.compose(row_swap).is_identity()


def test_col_after_row_is_half_turn():
    row_swap, col_swap = row_col_generators((2, 2))
    turn = col_swap.compose(row_swap)
    for a in SPACE2x2:
        r, c = (2, 2)
        rotated = tuple(a[(r - 1 - i) * c + (c - 1 - j)] for i in range(r) for j in range(c))
        assert turn.apply(a) == rotated


def test_compose_mixed_representations_fails():
    lit = LiteralSymmetry.identity(binary_domains(2))
    asg = AssignmentSymmetry.transposition((0, 0), (1, 1))
    with pytest.raises(InputError):
        lit.compose(asg)
    with pytest.raises(InputError):
        asg.compose(lit)


def test_assignment_symmetry_bijection_check():
    with pytest.raises(InputError):
        AssignmentSymmetry({(0, 0): (1, 1)})  # nothing maps back onto (0, 0)
    sym = AssignmentSymmetry.transposition((0, 0), (1, 1))
    assert sym.apply((0, 0)) == (1, 1)
    assert sym.apply((0, 1)) == (0, 1)  # identity off the listed set
    assert sym.invert() == sym


@given(st.permutations(list(range(4))))
def test_assignment_symmetry_compose_invert(perm):
    space = list(all_assignments(binary_domains(2)))
    sym = AssignmentSymmetry({space[i]: space[perm[i]] for i in range(4)})
    inv = sym.invert()
    for a in space:
        assert inv.apply(sym.apply(a)) == a
        assert sym.compose(inv).apply(a) == a


def test_closure_sizes():
    flip = LiteralSymmetry.value_swap(0, 0, 1, binary_domains(2))
    assert len(SymmetryGroup((flip,)).closure()) == 2
    assert len(row_col_group((2, 2)).closure()) == 4
    assert len(row_col_group((3, 3)).closure()) == 36  # 3! * 3!


def test_closure_is_a_group():
    group = row_col_group((2, 2))
    closure = group.closure()
    assert any(s.is_identity() for s in closure)
    table = {s: {a: s.apply(a) for a in SPACE2x2} for s in closure}
    actions = {frozenset(t.items()) for t in table.values()}
    for s1, s2 in itertools.product(closure, repeat=2):
        prod = {a: table[s1][table[s2][a]] for a in SPACE2x2}
        assert frozenset(prod.items()) in actions


def test_closure_cap_overflow():
    with pytest.raises(CapExceededError):
        SymmetryGroup(row_col_generators((3, 3)), cap=10).closure()


def test_orbits_2x2_full_space():
    group = row_col_group((2, 2))
    part = orbits(SPACE2x2, group)
    assert len(part) == 7
    assert len(part) == burnside_orbit_count(group, SPACE2x2)
    assert sorted(part.sizes(), reverse=True) == [4, 4, 2, 2, 2, 1, 1]


def test_orbits_identity_only_group():
    group = SymmetryGroup((LiteralSymmetry.identity(binary_domains(4)),))
    part = orbits(SPACE2x2, group)
    assert len(part) == 16
    assert all(size == 1 for size in part.sizes())


def test_orbits_3x3_full_space():
    space = list(all_assignments(binary_domains(9)))
    group = row_col_group((3, 3))
    part = orbits(space, group)
    assert len(part) == burnside_orbit_count(group, space) == 36


def test_orbits_partition_properties():
    group = row_col_group((2, 3))
    space = list(all_assignments(binary_domains(6)))
    part = orbits(space, group)
    assert sorted(a for block in part.blocks for a in block) == sorted(space)
    for block in part.blocks:
        members = set(block)
        for gen in group.generators:
            assert {gen.apply(a) for a in members} == members


def test_orbits_escaping_generator_is_an_error():
    group = row_col_group((2, 2))
    with pytest.raises(InputError):
        orbits([(0, 1, 0, 0)], group)  # row swap leaves the set


def test_conjugate_by_identity_keeps_action():
    from symbreak.orderings import LexOrdering
    pi = rank_preserving_map(LexOrdering(binary_domains(4)))
    group = row_col_group((2, 2))
    conj = conjugate(pi, group)
    for gen, cgen in zip(group.generators, conj.generators):
        for a in SPACE2x2:
            assert cgen.apply(a) == gen.apply(a)


def test_conjugate_matches_definition_pointwise():
    pi = rank_preserving_map(GrayOrdering(binary_domains(4)))
    group = row_col_group((2, 2))
    conj = conjugate(pi, group)
    for gen, cgen in zip(group.generators, conj.generators):
        for b in SPACE2x2:
            assert cgen.apply(pi.forward(b)) == pi.forward(gen.apply(b))


def test_conjugate_preserves_orbit_size_multiset():
    pi = rank_preserving_map(GrayOrdering(binary_domains(4)))
    group = row_col_group((2, 2))
    p1 = orbits(SPACE2x2, group)
    p2 = orbits(SPACE2x2, conjugate(pi, group))
    assert sorted(p1.sizes()) == sorted(p2.sizes())
    ok, tau = partitions_isomorphic(p1, p2, pi)
    assert ok
    assert sorted(tau) == list(range(len(p1)))


def test_partitions_isomorphic_identity_case():
    group = row_col_group((2, 2))
    part = orbits(SPACE2x2, group)
    from symbreak.orderings import LexOrdering
    pi = rank_preserving_map(LexOrdering(binary_domains(4)))
    ok, tau = partitions_isomorphic(part, part, pi)
    assert ok and tau == tuple(range(len(part)))


def test_partitions_isomorphic_size_mismatch():
    group = row_col_group((2, 2))
    part = orbits(SPACE2x2, group)
    singletons = orbits(SPACE2x2, SymmetryGroup(
        (LiteralSymmetry.identity(binary_domains(4)),)))
    from symbreak.orderings import LexOrdering
    pi = rank_preserving_map(LexOrdering(binary_domains(4)))
    ok, tau = partitions_isomorphic(part, singletons, pi)
    assert not ok and tau is None


def test_map_constraint_set():
    from symbreak.orderings import LexOrdering
    ident = rank_preserving_map(LexOrdering(binary_domains(4)))
    sample = {(0, 0, 0, 0), (0, 1, 1, 0)}
    assert map_constraint_set(ident, sample) == frozenset(sample)
    pi = rank_preserving_map(GrayOrdering(binary_domains(4)))
    image = map_constraint_set(pi, sample)
    assert len(image) == len(sample)


def test_group_file_parsing():
    doms = binary_domains(4)
    group = symmetry_group_from_dict(
        {"generators": [{"kind": "row_col", "rows": 2, "cols": 2}], "cap": 50}, doms)
    assert len(group.generators) == 2 and group.cap == 50
    explicit = symmetry_group_from_dict(
        {"generators": [{"kind": "literal", "var_perm": [1, 0, 2, 3]}]}, doms)
    assert explicit.generators[0].apply((0, 1, 0, 0)) == (1, 0, 0, 0)
    with pytest.raises(InputError):
        symmetry_group_from_dict({"generators": [{"kind": "mystery"}]}, doms)
    with pytest.raises(InputError):
        symmetry_group_from_dict({"generators": [], "extra": 1}, doms)
