"""The stabilizer chain against the closure search, and leader-full
verdicts against the walks.

`SymmetryGroup.order` is read from the chain and must equal the size of the
breadth-first closure (`reference.breadth_first_closure`) and that of the
word-keeping chain (`reference.word_chain`); `closure()`, the products of the
chain's representatives, must list the breadth-first closure's elements.  The
walk along the word-keeping chain (`reference._chain_walk`) must reach every
group element other than the identity exactly once.  The leader-full verdict,
each block's least-ranked member, must equal the survivors of the chain walk,
of the walk along the closure's breadth-first tree (`walked_kept`) and of
every element's `LeaderConstraint.satisfied`.
"""

import itertools
import math
import random
from collections import Counter
from functools import reduce

import pytest

from symbreak.breaker import compare_table, leader_constraints, orbit_verdict
from symbreak.model import CapExceededError, binary_domains
from symbreak.orderings import (
    ORDERING_NAMES,
    LexOrdering,
    applicable_orderings,
    make_ordering,
)
from symbreak.reductions import Cnf, group_gadget
from symbreak.symmetry import (
    DEFAULT_CLOSURE_CAP,
    LiteralSymmetry,
    SymmetryGroup,
    _gatherer,
    conjugate,
    row_col_generators,
    row_col_group,
)

from reference import (
    all_assignments,
    apply,
    _chain_walk,
    blocks_of,
    breadth_first_closure,
    chain_walked_kept,
    gadget_group,
    tuple_orbits,
    value_swap,
    walked_kept,
    word_chain,
)

MIXED = ((0, 1, 2), (0, 1), (0, 1, 2), (0, 1))


def _with_values(shape, domains, shift):
    """Row and column swaps plus every value moved `shift` places round its domain."""
    values = LiteralSymmetry.from_maps(range(len(domains)), [
        {v: d[(p + shift) % len(d)] for p, v in enumerate(d)} for d in domains],
        LexOrdering(domains))
    return SymmetryGroup(row_col_generators(shape, LexOrdering(domains)) + (values,))


def _random_literal_group(rng):
    """Up to four random generators on at most five variables of two or three
    values each: a variable permutation within equal domains and a random
    value bijection per variable, so most generators are no involution."""
    domains = tuple(rng.choice(((0, 1), (0, 1, 2))) for _ in range(rng.randint(2, 5)))
    gens = []
    for _ in range(rng.randint(1, 4)):
        perm = list(range(len(domains)))
        for dom in set(domains):
            cells = [i for i, d in enumerate(domains) if d == dom]
            for i, j in zip(cells, rng.sample(cells, len(cells))):
                perm[i] = j
        maps = [dict(zip(domains[i], rng.sample(domains[i], len(domains[i]))))
                for i in range(len(domains))]
        gens.append(LiteralSymmetry.from_maps(perm, maps, LexOrdering(domains)))
    return SymmetryGroup(tuple(gens)), domains


def _cases():
    """(id, group, domains, shape) of every group the tests judge."""
    cases = []
    for r, c in ((r, c) for r in range(1, 10) for c in range(1, 10) if r * c <= 9):
        if math.factorial(r) * math.factorial(c) <= 720:
            cases.append((f"rowcol-{r}x{c}", row_col_group((r, c)), binary_domains(r * c), (r, c)))
    cases += [
        ("binary-2x2-value-flip", _with_values((2, 2), binary_domains(4), 1),
         binary_domains(4), (2, 2)),
        ("ternary-2x2-value-cycle", _with_values((2, 2), ((0, 1, 2),) * 4, 1),
         ((0, 1, 2),) * 4, (2, 2)),
        ("odd-values-2x3-value-cycle", _with_values((2, 3), ((2, 5, 7),) * 6, 2),
         ((2, 5, 7),) * 6, (2, 3)),
        ("ternary-2x3", SymmetryGroup(row_col_generators((2, 3), LexOrdering(((0, 1, 2),) * 6))),
         ((0, 1, 2),) * 6, (2, 3)),
        ("mixed-2x2", SymmetryGroup((
            LiteralSymmetry.from_maps([2, 3, 0, 1], [{0: 1, 1: 2, 2: 0}, {0: 0, 1: 1},
                                                     {0: 0, 1: 1, 2: 2}, {0: 0, 1: 1}],
                                      LexOrdering(MIXED)),
            value_swap(1, 0, 1, LexOrdering(MIXED)),
            LiteralSymmetry.variable([0, 3, 2, 1], LexOrdering(MIXED)))), MIXED, (2, 2)),
    ]
    ident = LiteralSymmetry.variable(range(4), LexOrdering(binary_domains(4)))
    row, col = row_col_generators((2, 2))
    for label, gens in (("repeated", (row, row)), ("identities", (ident, row, ident, col, row)),
                        ("identity", (ident,)), ("absent", ())):
        cases.append((f"{label}-2x2", SymmetryGroup(gens, coding=LexOrdering(binary_domains(4))),
                      binary_domains(4), (2, 2)))
    for shape in ((2, 2), (2, 3)):
        doms = binary_domains(shape[0] * shape[1])
        for name in ORDERING_NAMES:
            ordering = make_ordering(name, doms, shape)
            cases.append((f"conjugated-{name}-{shape[0]}x{shape[1]}",
                          conjugate(ordering, row_col_group(shape)), doms, shape))
    gadget = group_gadget(Cnf(3, ((1, 2), (-1, 3))))  # 4 models and the zero vector
    cases.append(("group-gadget", gadget_group(gadget), binary_domains(3), None))
    rng = random.Random(11)
    for k in range(30):
        group, domains = _random_literal_group(rng)
        cases.append((f"random-{k}", group, domains, None))
    return cases


CASES = _cases()
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, group, domains, shape", CASES, ids=IDS)
def test_order_is_the_closure_size_and_the_cap_bounds_it(name, group, domains, shape):
    order = group.order
    assert order == max(len(group.closure()), 1)
    assert order == math.prod(map(len, word_chain(group)[1]))
    assert type(group)(group.generators, cap=order, coding=group.coding).order == order
    if order > 1:
        capped = type(group)(group.generators, cap=order - 1)
        lex = make_ordering("lex", domains)
        for build in (lambda: capped.order, lambda: leader_constraints(capped, lex),
                      capped.closure):
            with pytest.raises(CapExceededError, match=f"^closure exceeds cap={order - 1}$"):
                build()


@pytest.mark.parametrize("r, c", [(1, 7), (7, 1), (1, 8), (8, 1), (1, 9), (9, 1), (3, 3)])
def test_order_of_large_row_col_groups(r, c):
    # the chain needs no closure: 9! = 362880 is past the default cap
    order = math.factorial(r) * math.factorial(c)
    assert SymmetryGroup(row_col_generators((r, c)), cap=order).order == order
    if order > DEFAULT_CLOSURE_CAP:
        with pytest.raises(CapExceededError, match=f"^closure exceeds cap={DEFAULT_CLOSURE_CAP}$"):
            row_col_group((r, c)).order


def test_the_chain_refuses_its_cap_while_it_is_built(monkeypatch):
    # Sym(1024 codes), the group gadget's group of the clause-free CNF of 10
    # variables, has 1024! elements; its level sizes, read before each
    # Schreier-Sims step, pass the default cap by the second level, and the
    # chain is refused there
    from symbreak import symmetry

    sizes = []

    def recorded(levels):
        sizes.append(list(levels))
        return math.prod(sizes[-1])

    monkeypatch.setattr(symmetry, "prod", recorded)
    group = gadget_group(group_gadget(Cnf(10, ())))
    with pytest.raises(CapExceededError, match=f"^closure exceeds cap={DEFAULT_CLOSURE_CAP}$"):
        group.order
    assert len(sizes[-1]) <= 2 and math.prod(sizes[-1]) > DEFAULT_CLOSURE_CAP
    assert sizes[0] == [1024]


def _residues(group):
    """The strong generators after the given ones, as literal tuples, from their words."""
    words, _ = word_chain(group)
    strong = [g.lits for g in group.generators]
    inverse = lambda p: tuple(sorted(range(len(p)), key=p.__getitem__))
    factor = lambda f: strong[f] if f >= 0 else inverse(strong[~f])
    for word in words:  # left to right: product(a, f) = a∘f
        strong.append(reduce(lambda a, f: _gatherer(f)(a), map(factor, word)))
    return strong[len(group.generators):]


def test_some_strong_generators_are_no_generators():
    # the residues whose lists the walk builds by products and inversions
    literal = [group for name, group, _, _ in CASES
               if name.startswith(("random", "mixed", "odd")) and group.generators]
    new = [r for group in literal for r in _residues(group)
           if r not in [g.lits for g in group.generators]]
    assert len(new) >= 5
    # sifting keeps only a residue that is no identity
    assert all(r != tuple(range(len(r))) for r in new)


@pytest.mark.parametrize("name, group, domains, shape", CASES, ids=IDS)
def test_chain_walk_reaches_every_element_but_the_identity_once(name, group, domains, shape):
    space = list(all_assignments(domains))
    index = {a: i for i, a in enumerate(space)}
    partition = tuple_orbits(space, group)
    walked = Counter(_chain_walk(word_chain(group), partition.images, list(range(len(space)))))
    closure = group.closure()
    assert walked == Counter(tuple(index[apply(s, a)] for a in space) for s in closure[1:])
    assert sum(walked.values()) == group.order - 1


@pytest.mark.parametrize("name, group, domains, shape", CASES, ids=IDS)
def test_closure_lists_the_breadth_first_closure_identity_first(name, group, domains, shape):
    closure = group.closure()
    assert Counter(closure) == Counter(breadth_first_closure(group))
    if group.generators:
        assert closure[0].is_identity()
        assert len(closure) == max(group.order, 1)


def test_closure_starts_no_orbit_search(monkeypatch):
    # the elements are the products of the chain's representatives, one
    # gather each: 35 for the 36 elements, where a breadth-first search from
    # the identity would form generator∘element for each of 36 elements and
    # 4 generators
    import symbreak.symmetry

    group = row_col_group((3, 3))
    group.chain  # built before the count
    gather, gathers = symbreak.symmetry._gatherer, []

    def counted(indices):
        g = gather(indices)

        def step(s):
            gathers.append(s)
            return g(s)
        return step

    monkeypatch.setattr(symbreak.symmetry, "_gatherer", counted)
    closure = group.closure()
    assert len(closure) == 36 and len(gathers) == 35


def _solution_sets(name, group, domains):
    """The whole space and a seeded union of about half its orbits."""
    space = list(all_assignments(domains))
    blocks = blocks_of(tuple_orbits(space, group))
    rng = random.Random(len(name))
    chosen = set(itertools.chain.from_iterable(rng.sample(blocks, (len(blocks) + 1) // 2)))
    return space, [a for a in space if a in chosen]


@pytest.mark.parametrize("name, group, domains, shape", CASES, ids=IDS)
def test_chain_walk_verdicts_match_the_breadth_first_walk(name, group, domains, shape):
    # on the whole space and on a seeded union of its orbits, for every ordering
    for solutions in _solution_sets(name, group, domains):
        partition = tuple_orbits(solutions, group)
        for ordering in applicable_orderings(domains, shape):
            kept = orbit_verdict(partition, leader_constraints(group, ordering)).kept
            assert kept == walked_kept(partition, ordering), ordering.name


@pytest.mark.parametrize("name, group, domains, shape", CASES, ids=IDS)
def test_block_minima_match_the_walks_and_every_constraint(name, group, domains, shape):
    for solutions in _solution_sets(name, group, domains):
        partition = tuple_orbits(solutions, group)
        for ordering in applicable_orderings(domains, shape):
            bset = leader_constraints(group, ordering)
            kept = orbit_verdict(partition, bset).kept
            assert kept == chain_walked_kept(partition, ordering), ordering.name
            assert kept == walked_kept(partition, ordering), ordering.name
            decoded = group.coding.decode(partition.codes)
            assert kept == partition.grouped(i for i, a in enumerate(decoded)
                                             if bset.satisfied(a)), ordering.name


def test_leader_full_verdicts_read_no_chain(monkeypatch):
    # once leader_constraints has built the chain, for |G| and the cap, a
    # leader-full set is judged from the partition's blocks alone
    shape, domains = (3, 3), binary_domains(9)
    group, space = row_col_group(shape), list(all_assignments(domains))
    bset = leader_constraints(group, make_ordering("lex", domains, shape))
    chain, reads = SymmetryGroup.chain, []

    def counted(self):
        reads.append(self)
        return chain.__get__(self, SymmetryGroup)

    monkeypatch.setattr(SymmetryGroup, "chain", property(counted))
    partition = tuple_orbits(space, group)
    verdict = orbit_verdict(partition, bset)
    rows = compare_table(partition.codes, group, domains, shape)
    assert reads == []
    assert verdict.counts == (1,) * len(partition) == (1,) * 36
    full = [row for row in rows if row[1] == "leader-full"]
    assert len(full) == 4 and all(row[2:5] == (35, 36, 36) for row in full)
