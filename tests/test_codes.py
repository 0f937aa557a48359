"""Differential tests of lex codes and the orderings' rules on them.

A solution's lex code is its LexOrdering rank.  Checked on every binary
shape of up to 9 cells, ternary, mixed and unsorted domains, value maps and
the 1-in-3 gadget's ordering: decoding (one at a time and in bulk)
inverts encoding, a literal or assignment-level symmetry's image codes are
the codes of its reference `apply` (and a verdict refuses a symmetry over
other domains), a group's coding is its problem's listing, every ordering's
`ranks` rule gives the rank of its digit map (`reference.digit_rank`), and
on the whole space `unranks` inverts `ranks` and `unrank` agrees with the
digit map's.  Subsets of the space exercise the chunk tables at every size
from one variable per chunk to one chunk.  The printed rows of `texts`, one
chunk-table lookup per chunk, are the reference formatter's rows of the
decoded assignments.
"""

import random
import re

import pytest

from symbreak.breaker import LeaderConstraint, SymmetryBreakingSet, orbit_verdict
from symbreak.literals import LiteralSymmetry
from symbreak.model import (
    InputError,
    binary_domains,
    enumerate_solutions,
    problem_from_dict,
)
from symbreak.orderings import (
    CHUNK_CAP,
    LexOrdering,
    RevLexOrdering,
    applicable_orderings,
)
from symbreak.reductions import OneInThreeInstance, ordering_gadget
from symbreak.symmetry import (
    SymmetryGroup,
    conjugate,
    orbits,
    row_col_generators,
    symmetry_group_from_dict,
)

from reference import (
    all_assignments,
    assignment_formatter,
    apply,
    compare,
    digit_rank,
    digit_unrank,
    flag_swap,
    symmetry_from_pairs,
    tuple_orbits,
    tuple_solutions,
    val_maps,
)


def value_cycle(domains, shift=1):
    """Every variable's value moved `shift` places round its listed domain."""
    return LiteralSymmetry.from_maps(range(len(domains)), [
        {v: d[(p + shift) % len(d)] for p, v in enumerate(d)} for d in domains],
        LexOrdering(domains))


MIXED = ((0, 1, 2), (5, 7), (1, 3, 4), (0, 1))
MIXED_2x3 = ((0, 1, 2), (5, 7), (1, 3, 4, 9), (0, 1), (4, 2), (3,))
# variables 0 and 2 trade places through value bijections, as do 1 and 3
MIXED_SWAP = LiteralSymmetry.from_maps((2, 3, 0, 1), [{0: 1, 1: 3, 2: 4}, {5: 0, 7: 1},
                                                      {1: 2, 3: 0, 4: 1}, {0: 7, 1: 5}],
                                       LexOrdering(MIXED))

CASES = [(f"binary-{r}x{c}", binary_domains(r * c), (r, c), row_col_generators((r, c)))
         for r in range(1, 10) for c in range(1, 10) if r * c <= 9]
CASES += [
    ("ternary-2x2", ((0, 1, 2),) * 4, (2, 2),
     row_col_generators((2, 2), LexOrdering(((0, 1, 2),) * 4)) + (value_cycle(((0, 1, 2),) * 4),)),
    ("ternary-2x3", ((0, 1, 2),) * 6, (2, 3),
     row_col_generators((2, 3), LexOrdering(((0, 1, 2),) * 6))
     + (value_cycle(((0, 1, 2),) * 6, 2),)),
    ("mixed", MIXED, (2, 2), (MIXED_SWAP, value_cycle(MIXED))),
    ("binary-2x3-unsorted", ((1, 0),) * 6, (2, 3),
     row_col_generators((2, 3), LexOrdering(((1, 0),) * 6))),
    ("ternary-2x2-unsorted-value-cycle", ((2, 0, 1),) * 4, (2, 2),
     row_col_generators((2, 2), LexOrdering(((2, 0, 1),) * 4)) + (value_cycle(((2, 0, 1),) * 4),)),
    ("odd-values-2x2-value-flip", ((7, 2),) * 4, (2, 2),
     row_col_generators((2, 2), LexOrdering(((7, 2),) * 4)) + (value_cycle(((7, 2),) * 4),)),
    ("mixed-2x3", MIXED_2x3, (2, 3), (value_cycle(MIXED_2x3),)),
    ("mixed-3x1", MIXED[:3], (3, 1), (value_cycle(MIXED[:3]),)),
]


def subsets(space):
    """The whole space and spread-out subsets of 1, 2, 5 and 17 members:
    min(CHUNK_CAP, len(codes)) sets how many variables share a chunk, from
    the whole space's one (every space of CASES has at most CHUNK_CAP
    members) down to one variable per chunk."""
    return [space] + [space[::max(1, len(space) // k)][:k] for k in (1, 2, 5, 17)
                      if k < len(space)]


def check_bijection(ordering, space):
    """On the whole space, listed in lex order: `unranks` inverts `ranks`,
    and `rank`, `unrank` and the reference `compare` agree with the digit map's ranks."""
    codes = list(range(len(space)))
    ranks = ordering.ranks(codes)
    assert sorted(ranks) == codes and ordering.unranks(ranks) == codes, ordering.name
    assert [ordering.rank(a) for a in space] == ranks, ordering.name
    assert [ordering.unrank(k) for k in codes] == [digit_unrank(ordering, k) for k in codes], \
        ordering.name
    for a, b in zip(space, space[1:] + space[:1]):
        ra, rb = digit_rank(ordering, a), digit_rank(ordering, b)
        assert compare(ordering, a, b) == (ra > rb) - (ra < rb), ordering.name


@pytest.mark.parametrize("name, domains, shape, gens", CASES, ids=[c[0] for c in CASES])
def test_codes_images_and_ranks_match_the_per_assignment_path(name, domains, shape, gens):
    lex = LexOrdering(domains)
    space = list(all_assignments(domains))
    codes = lex.codes(space)
    assert codes == list(range(lex.space_size))  # listed order is lex order
    assert [lex.unrank(c) for c in codes] == space == lex.decode(codes)
    orderings = applicable_orderings(domains, shape)
    for ordering in orderings:
        check_bijection(ordering, space)
    for part in subsets(space) + [space[:0], space[-3:]]:
        part_codes = lex.codes(part)
        assert lex.decode(part_codes) == part
        assert lex.texts(part_codes) == list(map(assignment_formatter(domains), part))
        for g in gens:
            assert g.image_codes(part_codes) == lex.codes([apply(g, a) for a in part])
        reversal = symmetry_from_pairs(dict(zip(part, part[::-1])), domains)
        assert reversal.image_codes(part_codes) == part_codes[::-1] == \
            lex.codes([apply(reversal, a) for a in part])
        for ordering in orderings:
            assert ordering.ranks(part_codes) == [digit_rank(ordering, a) for a in part], \
                ordering.name


def assert_reference_rows(lex, codes):
    assert lex.texts(codes) == list(map(assignment_formatter(lex.domains), lex.decode(codes)))


@pytest.mark.parametrize("domains", [binary_domains(12), ((1, 0),) * 11, ((0, 1, 2),) * 7,
                                     MIXED_2x3 * 2],
                         ids=["binary-12", "binary-unsorted-11", "ternary-7", "mixed-12"])
def test_texts_past_the_chunk_cap(domains):
    # above CHUNK_CAP codes the tables stop at the cap and a row takes several
    lex = LexOrdering(domains)
    assert lex.space_size > CHUNK_CAP + 1
    codes = list(range(0, lex.space_size, 3))
    for count in (0, 1, 3, CHUNK_CAP + 1, len(codes)):
        assert_reference_rows(lex, codes[:count])
    assert_reference_rows(lex, list(range(lex.space_size)))


def test_texts_of_a_thousand_binary_variables():
    # the corpus's 1x1000 problems: one variable per chunk up to 17 codes,
    # whose tables hold 4 variables each
    lex, rng = LexOrdering(binary_domains(1000)), random.Random(7)
    for count in (0, 1, 3, 17):
        assert_reference_rows(lex, [rng.getrandbits(1000) for _ in range(count)])
    assert lex.texts([0, lex.space_size - 1]) == ["0" * 1000, "1" * 1000]


def test_gadget_ordering_ranks_by_its_prefix_rule():
    gadget = ordering_gadget(OneInThreeInstance(((1, 2, 3), (1, 2, 3))))
    domains, flip = gadget.ordering.domains, flag_swap(gadget)
    lex, space = LexOrdering(domains), list(all_assignments(domains))
    check_bijection(gadget.ordering, space)
    for part in subsets(space):
        codes = lex.codes(part)
        assert gadget.ordering.ranks(codes) == [digit_rank(gadget.ordering, a) for a in part]
        assert flip.image_codes(codes) == lex.codes([apply(flip, a) for a in part])


@pytest.mark.parametrize("count", [1, 2, 5, 1000, 4096])
def test_every_chunk_keeps_under_the_cap(count):
    # 12 binary variables, every one moved: no table holds more than
    # min(CHUNK_CAP, count) entries, the most significant one included
    domains = binary_domains(12)
    lex = LexOrdering(domains)
    flip_all = value_cycle(domains)
    codes = list(range(0, 4096, 4096 // count))[:count]
    chunks = lex.chunks({i: [1 << (11 - i), -(1 << (11 - i))] for i in range(12)},
                        min(CHUNK_CAP, count))
    cap = max(2, min(CHUNK_CAP, count))
    assert all(size == len(table) <= cap for _, size, table in chunks)
    assert sum(size.bit_length() - 1 for _, size, _ in chunks) == 12
    assert flip_all.image_codes(codes) == [4095 - c for c in codes]


def test_orbits_index_by_code_only_when_the_codes_are_the_space():
    # listed [1, 0], the full space in listed order has codes 0..63, each its
    # solution's index; the same space reversed takes the dict
    domains = ((1, 0),) * 6
    space = list(all_assignments(domains))
    group = SymmetryGroup(row_col_generators((2, 3), LexOrdering(domains)))
    listed, reversed_ = tuple_orbits(space, group), tuple_orbits(space[::-1], group)
    assert listed.codes == list(range(64)) and reversed_.codes == list(range(63, -1, -1))
    assert len(listed) == len(reversed_) == 13
    assert set(map(frozenset, listed.blocks)) == set(map(frozenset, reversed_.blocks))


REFUSED_CODES = [  # domains, assignments, the refusal of the first bad one
    (binary_domains(2), [(0, 1, 0)], "assignment arity 3 != 2"),
    (binary_domains(2), [(0, 1), (0, 2)], "value 2 outside domain of variable 1"),
    (((0, 1, 2),) * 2, [(2, 1), (0, 3), (3, 0)], "value 3 outside domain of variable 1"),
    (((0, 1, 2),) * 2, [(2, 1), (0, 1, 2)], "assignment arity 3 != 2"),
    (((1, 0),) * 2, [(1, 0), (0, 1), (1, 2)], "value 2 outside domain of variable 1"),
    (((1, 0),) * 2, [(0, 1), (-1, 0)], "value -1 outside domain of variable 0"),
    (MIXED, [(2, 7, 4, 1), (1, 5, 0, 0)], "value 0 outside domain of variable 2"),  # 0 is in 0's
    (MIXED, [(0, 5, 1, 7)], "value 7 outside domain of variable 3"),  # 7 is in variable 1's
    (MIXED, [(0, 5, 1)], "assignment arity 3 != 4"),
]
REFUSAL_DOMAINS = list(dict.fromkeys(domains for domains, _, _ in REFUSED_CODES))


@pytest.mark.parametrize("domains, bad, message", [
    pytest.param(*case, id=f"bad{i}-{case[2]}") for i, case in enumerate(REFUSED_CODES)])
def test_codes_refuse_what_positions_refuse(domains, bad, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        LexOrdering(domains).codes(bad)


@pytest.mark.parametrize("domains", REFUSAL_DOMAINS)
def test_codes_are_the_digit_rank_under_lex(domains):
    lex, space = LexOrdering(domains), list(all_assignments(domains))
    assert lex.codes(space) == [digit_rank(lex, a) for a in space]


OTHER_LISTINGS = [((0, 1, 2),) * 2, ((1, 0), (0, 1)), binary_domains(3)]
REFUSAL = "^symmetry and codes act on different domains$"


def refuse_on_other_domains(swap, domains):
    """A verdict on a partition over `domains` refuses swap's leader constraint."""
    coding = LexOrdering(domains)
    partition = orbits(list(range(coding.space_size)), SymmetryGroup((), coding=coding))
    with pytest.raises(InputError, match=REFUSAL):
        orbit_verdict(partition, SymmetryBreakingSet((LeaderConstraint(swap, coding),)))


def test_image_codes_refuse_codes_over_other_domains():
    # a posted literal symmetry takes only codes over its domains as listed:
    # the same values listed in another order are other codes
    swap = row_col_generators((1, 2))[0]
    for domains in OTHER_LISTINGS:
        refuse_on_other_domains(swap, domains)


@pytest.mark.parametrize("domains", OTHER_LISTINGS, ids=["ternary", "relisted", "three-variable"])
def test_assignment_image_codes_refuse_codes_over_other_domains(domains):
    # by the same rule and message as a literal symmetry, and so a conjugate
    swap = symmetry_from_pairs({(0, 1): (1, 0), (1, 0): (0, 1)}, binary_domains(2))
    refuse_on_other_domains(swap, domains)
    revlex = RevLexOrdering(binary_domains(2))
    refuse_on_other_domains(conjugate(revlex, SymmetryGroup((swap,))).generators[0], domains)


# listed out of sorted order, ternary and mixed: the row swap of a 2x2
# model, and value maps whose pairs come in neither listed nor sorted order
UNSORTED_PROBLEM = {"n": 4, "domains": [[2, 0, 1], [1, 0], [2, 0, 1], [1, 0]], "shape": [2, 2]}
UNSORTED_SYMMETRIES = {"generators": [
    {"kind": "literal", "var_perm": [2, 3, 0, 1]},
    {"kind": "literal", "var_perm": [0, 1, 2, 3],
     "val_maps": [[[1, 2], [0, 1], [2, 0]], [[0, 1], [1, 0]], [[0, 0], [2, 2], [1, 1]],
                  [[1, 1], [0, 0]]]}]}


def test_a_loaded_literal_group_codes_over_the_problem_listing():
    problem = problem_from_dict(UNSORTED_PROBLEM)
    group = symmetry_group_from_dict(UNSORTED_SYMMETRIES, problem.domains)
    assert group.coding.domains == problem.domains == ((2, 0, 1), (1, 0), (2, 0, 1), (1, 0))
    sols = tuple_solutions(problem)
    partition = orbits(enumerate_solutions(problem), group)
    assert partition.codes == LexOrdering(problem.domains).codes(sols)
    assert val_maps(group.generators[1]) == (((0, 1), (1, 2), (2, 0)), ((0, 1), (1, 0)),
                                             ((0, 0), (1, 1), (2, 2)), ((0, 0), (1, 1)))


def test_conjugate_refuses_a_permutation_over_another_listing_of_the_same_values():
    problem = problem_from_dict(UNSORTED_PROBLEM)
    group = symmetry_group_from_dict(UNSORTED_SYMMETRIES, problem.domains)
    relisted = tuple(map(tuple, map(sorted, problem.domains)))
    message = f"permutation acts on domains {relisted}, group on {problem.domains}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        conjugate(RevLexOrdering(relisted), group)
    same = conjugate(RevLexOrdering(problem.domains), group)
    assert same.coding.domains == problem.domains and same.order == group.order
