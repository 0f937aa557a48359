"""Differential tests of the literal and solution-indexed kernels against
per-assignment references.

`RefSymmetry` and `ref_compare` are copies of the dict-based `apply`,
`compose` and `compare` that the literal-permutation kernel replaced: one
dict lookup per variable, one position per variable.  `reference_kept` is
the per-assignment path that the solution-indexed kernel of
`orbit_verdict` and `compare_table` replaced: `SymmetryBreakingSet.satisfied`,
that is `LeaderConstraint.satisfied`, once per solution.  The breadth-first
closure's order, the closure's elements, orbit blocks, the survivors of
every breaking set and every compare row must agree exactly.
"""

import itertools
import json
import math
from collections import Counter

import pytest

from symbreak.breaker import (
    LeaderConstraint,
    SymmetryBreakingSet,
    compare_table,
    doublelex_constraints,
    leader_constraints,
    orbit_verdict,
)
from symbreak.cli import run
from symbreak.model import binary_domains
from symbreak.orderings import (
    ORDERING_NAMES,
    LexOrdering,
    applicable_orderings,
    make_ordering,
    rank_preserving_map,
    snake_variable_order,
)
from symbreak.symmetry import LiteralSymmetry, SymmetryGroup, conjugate, row_col_group

from reference import (
    EQ,
    GT,
    LT,
    all_assignments,
    apply,
    blocks_of,
    breadth_first_closure,
    compose,
    invert,
    kept_of,
    tuple_orbits,
)

# leader-full rows need the closure; beyond this the reference is too slow
MAX_REFERENCE_GROUP = 720


class RefSymmetry:
    """result[var_perm[i]] = maps[i][a[i]], one dict per variable."""

    def __init__(self, var_perm, maps):
        self.var_perm = tuple(var_perm)
        self.maps = tuple(dict(m) for m in maps)

    def key(self):
        return self.var_perm, tuple(tuple(sorted(m.items())) for m in self.maps)

    def apply(self, a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[self.var_perm[i]] = self.maps[i][v]
        return tuple(out)

    def compose(self, other):
        n = len(self.var_perm)
        perm = tuple(self.var_perm[other.var_perm[i]] for i in range(n))
        maps = [{v: self.maps[other.var_perm[i]][w] for v, w in other.maps[i].items()}
                for i in range(n)]
        return RefSymmetry(perm, maps)


def ref_closure(gens, domains):
    ident = RefSymmetry(range(len(domains)), [{v: v for v in d} for d in domains])
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        new = []
        for elem in frontier:
            for gen in gens:
                prod = gen.compose(elem)
                if prod.key() not in seen:
                    seen[prod.key()] = prod
                    new.append(prod)
        frontier = new
    return list(seen.values())


def ref_compare(name, domains, shape, a, b):
    pos = [{v: i for i, v in enumerate(d)} for d in domains]
    pa = [pos[i][v] for i, v in enumerate(a)]
    pb = [pos[i][v] for i, v in enumerate(b)]
    if name == "gray":
        ranks = []
        for p in (pa, pb):
            k = acc = 0
            for g in p:
                acc ^= g
                k = (k << 1) | acc
            ranks.append(k)
        return LT if ranks[0] < ranks[1] else GT if ranks[0] > ranks[1] else EQ
    order = snake_variable_order(shape) if name == "snakelex" else range(len(a))
    for v in order:
        if pa[v] != pb[v]:
            result = LT if pa[v] < pb[v] else GT
            return -result if name == "revlex" else result
    return EQ


def ref_blocks(solutions, gens):
    """Connected components of a -- g(a), first-occurrence order."""
    index = {a: i for i, a in enumerate(solutions)}
    label = {}
    for a in solutions:
        if a in label:
            continue
        label[a] = index[a]
        stack = [a]
        while stack:
            b = stack.pop()
            for gen in gens:
                c = gen.apply(b)
                if c not in label:
                    label[c] = index[a]
                    stack.append(c)
    roots = sorted(set(label.values()))
    return tuple(tuple(a for a in solutions if label[a] == r) for r in roots)


def ref_kept(blocks, elements, name, domains, shape):
    return tuple(tuple(a for a in block
                       if all(ref_compare(name, domains, shape, a, s.apply(a)) != GT
                              for s in elements))
                 for block in blocks)


def reference_kept(partition, bset):
    """Survivors per block by the per-assignment path: one `satisfied` per member."""
    return tuple(tuple(a for a in block if bset.satisfied(a)) for block in blocks_of(partition))


def reference_rows(solutions, group, domains, shape):
    """compare_table's rows, each judged by `reference_kept`."""
    sets = [(o.name, method, leader_constraints(group, o, mode))
            for o in applicable_orderings(domains, shape)
            for method, mode in (("leader-full", "full"), ("leader-generators", "generators"))]
    if shape is not None:
        sets.append(("lex", "doublelex", doublelex_constraints(shape, domains)))
    partition = tuple_orbits(solutions, group)
    rows = []
    for name, method, bset in sets:
        counts = [len(kept) for kept in reference_kept(partition, bset)]
        rows.append((name, method, len(bset), sum(counts), len(partition),
                     all(c >= 1 for c in counts), all(c <= 1 for c in counts)))
    return rows


def row_col_specs(r, c, domains):
    """(var_perm, val_maps) of the adjacent row then column transpositions."""
    specs = []
    ident = [{v: v for v in d} for d in domains]
    for k in range(r - 1):
        perm = list(range(r * c))
        for j in range(c):
            perm[k * c + j], perm[(k + 1) * c + j] = perm[(k + 1) * c + j], perm[k * c + j]
        specs.append((perm, ident))
    for k in range(c - 1):
        perm = list(range(r * c))
        for i in range(r):
            perm[i * c + k], perm[i * c + k + 1] = perm[i * c + k + 1], perm[i * c + k]
        specs.append((perm, ident))
    return specs


def value_spec(domains, shift):
    """Every variable's value moved `shift` places round its domain."""
    return (list(range(len(domains))),
            [{v: d[(p + shift) % len(d)] for p, v in enumerate(d)} for d in domains])


def one_per_row(r, c, domains):
    """Assignments with exactly one non-first value in each row."""
    return [a for a in all_assignments(domains)
            if all(sum(1 for v, d in zip(a[i * c:i * c + c], domains) if v != d[0]) == 1
                   for i in range(r))]


CASES = []
for r in range(1, 10):
    for c in range(1, 10):
        if r * c <= 9:
            CASES.append((f"binary-{r}x{c}", (r, c), ((0, 1),) * (r * c), False, False))
CASES += [
    ("ternary-2x2", (2, 2), ((0, 1, 2),) * 4, False, False),
    ("ternary-2x3", (2, 3), ((0, 1, 2),) * 6, False, False),
    ("binary-2x3-one-per-row", (2, 3), ((0, 1),) * 6, False, True),
    ("binary-2x2-value-flip", (2, 2), ((0, 1),) * 4, True, False),
    ("ternary-2x2-value-cycle", (2, 2), ((0, 1, 2),) * 4, True, False),
    ("odd-values-2x3-value-cycle", (2, 3), ((2, 5, 7),) * 6, True, False),
    # listed out of sorted order: codes follow the listed positions
    ("binary-2x3-unsorted", (2, 3), ((1, 0),) * 6, False, False),
    ("ternary-2x2-unsorted-value-cycle", (2, 2), ((2, 0, 1),) * 4, True, False),
]


@pytest.mark.parametrize("name, shape, domains, values, sparse", CASES,
                         ids=[case[0] for case in CASES])
def test_kernel_matches_per_assignment_reference(name, shape, domains, values, sparse):
    r, c = shape
    specs = row_col_specs(r, c, domains)
    if values:
        specs.append(value_spec(domains, 1))
    coding = LexOrdering(domains)
    group = SymmetryGroup(tuple(LiteralSymmetry.from_maps(p, m, coding) for p, m in specs),
                          coding=coding)
    refs = [RefSymmetry(p, m) for p, m in specs]
    for gen, ref in zip(group.generators, refs):
        assert [apply(gen, a) for a in all_assignments(domains)] == \
            [ref.apply(a) for a in all_assignments(domains)]
    solutions = one_per_row(r, c, domains) if sparse else list(all_assignments(domains))

    blocks = ref_blocks(solutions, refs)
    partition = tuple_orbits(solutions, group)
    assert blocks_of(partition) == blocks

    binary = all(len(d) == 2 for d in domains)
    modes = [("generators", refs)]
    if refs and math.factorial(r) * math.factorial(c) * (len(domains[0]) if values else 1) \
            <= MAX_REFERENCE_GROUP:
        closure = ref_closure(refs, domains)
        breadth_first = [(s.var_perm, s.val_maps) for s in breadth_first_closure(group)]
        assert breadth_first == [ref.key() for ref in closure]
        assert Counter((s.var_perm, s.val_maps) for s in group.closure()) == \
            Counter(breadth_first)
        modes.append(("full", closure))
    for ordering_name in ORDERING_NAMES:
        if ordering_name == "gray" and not binary:
            continue
        ordering = make_ordering(ordering_name, domains, shape)
        for mode, elements in modes:
            verdict = orbit_verdict(partition, leader_constraints(group, ordering, mode))
            assert kept_of(verdict, partition) == \
                ref_kept(blocks, elements, ordering_name, domains, shape), \
                (ordering_name, mode)
    doublelex = orbit_verdict(partition, doublelex_constraints(shape, domains))
    row_col = [RefSymmetry(p, m) for p, m in row_col_specs(r, c, domains)]
    assert kept_of(doublelex, partition) == ref_kept(blocks, row_col, "lex", domains, shape)
    if len(modes) == 2:
        assert compare_table(partition.codes, group, domains, shape) == \
            reference_rows(solutions, group, domains, shape)


def set_case(name):
    """(solutions, group, domains, shape) of a case for the indexed kernel."""
    kind, _, cells = name.rpartition("-")
    shape = tuple(map(int, cells.split("x")))
    doms = binary_domains(shape[0] * shape[1])
    space = list(all_assignments(doms))
    if kind.startswith("conjugated-"):
        # assignment-level generators: the walk gathers their lists alike
        pi = rank_preserving_map(make_ordering(kind[len("conjugated-"):], doms, shape))
        return space, conjugate(pi, row_col_group(shape)), doms, shape
    if kind == "row-swaps-only":
        # doublelex's column swaps are no element of this group
        rows = row_col_specs(*shape, doms)[:shape[0] - 1]
        gens = tuple(LiteralSymmetry.from_maps(p, m, LexOrdering(doms)) for p, m in rows)
        return space, SymmetryGroup(gens), doms, shape
    if kind == "repeats-and-identities":
        # only the first of equal generators reaches the closure tree's first level
        row, *_, col = row_col_group(shape).generators
        ident = LiteralSymmetry.variable(range(len(doms)), LexOrdering(doms))
        return space, SymmetryGroup((ident, col, row, col, ident, row)), doms, shape
    # x0 = 1: doublelex sends solutions outside the solution set
    coding = LexOrdering(doms)
    gens = (LiteralSymmetry.variable(range(len(doms)), coding),) if kind == "x0-identity" else ()
    return [a for a in space if a[0] == 1], SymmetryGroup(gens, coding=coding), doms, shape


SET_CASES = ["conjugated-gray-2x2", "conjugated-snakelex-2x3", "conjugated-revlex-3x2",
             "row-swaps-only-2x3", "row-swaps-only-3x2", "repeats-and-identities-2x3",
             "repeats-and-identities-3x2", "x0-identity-2x2",
             "x0-no-generators-2x2", "x0-identity-2x3"]


@pytest.mark.parametrize("name", SET_CASES)
def test_indexed_kernel_matches_leader_constraint_oracle(name):
    solutions, group, domains, shape = set_case(name)
    partition = tuple_orbits(solutions, group)
    sets = [leader_constraints(group, ordering, mode)
            for ordering in applicable_orderings(domains, shape)
            for mode in ("full", "generators")]
    for bset in sets + [doublelex_constraints(shape, domains)]:
        assert kept_of(orbit_verdict(partition, bset), partition) == reference_kept(partition, bset)
    assert compare_table(partition.codes, group, domains, shape) == \
        reference_rows(solutions, group, domains, shape)


@pytest.mark.parametrize("name", ["row-col-2x3", "conjugated-gray-2x2"])
def test_sets_near_the_closure_match_leader_constraint_oracle(name):
    # only a leader-full set, which names its group, is walked; these list
    # closure elements one by one, the last exactly the closure after the
    # identity, and are judged per constraint
    if name.startswith("row-col"):
        domains, shape = binary_domains(6), (2, 3)
        solutions, group = list(all_assignments(domains)), row_col_group(shape)
    else:
        solutions, group, domains, shape = set_case(name)
    lex, revlex = applicable_orderings(domains, shape)[:2]
    cons = leader_constraints(group, lex).constraints
    mixed = cons[:-1] + (LeaderConstraint(cons[-1].sigma, revlex),)
    uncached = tuple_orbits(solutions, SymmetryGroup(group.generators))
    for partition in (tuple_orbits(solutions, group), uncached):
        for near in (cons[:-1], cons[::-1], mixed, cons + cons[:1], cons):
            bset = SymmetryBreakingSet(near)
            assert kept_of(orbit_verdict(partition, bset), partition) == \
                reference_kept(partition, bset)


def test_doublelex_outside_the_solutions_on_the_command_line(capsys, tmp_path):
    # the bytes of the per-assignment path; doublelex posts the adjacent
    # swaps though the symmetry file holds only the identity
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"n": 4, "domains": [[0, 1]] * 4, "shape": [2, 2],
                                   "constraints": [{"kind": "unary", "var": 0, "value": 1}]}))
    syms = tmp_path / "s.json"
    syms.write_text(json.dumps({"generators": [{"kind": "literal", "var_perm": [0, 1, 2, 3]}]}))
    files = ["--method", "doublelex", "--problem", str(problem), "--symmetries", str(syms)]
    assert run(["check", *files]) == 1
    assert capsys.readouterr().out == ("# seed=0\nsound  complete  orbits  survivors\n"
                                       "false  true      8       1\n")
    assert run(["break", *files]) == 0
    orbit_rows = "".join(f"{i}      1     {int(i == 7)}\n" for i in range(8))
    assert capsys.readouterr().out == (
        "# seed=0 ordering=lex method=doublelex constraints=2 survivors=1\n"
        "assignment\n1111\n\norbit  size  survivors\n" + orbit_rows)


def test_compose_and_invert_match_reference():
    # mixed: the row swap is the only row/column transposition that keeps domains
    mixed = ((1, 0), (7, 2, 5), (1, 0), (7, 2, 5))
    cross = ([2, 3, 0, 1], [{1: 0, 0: 1}, {7: 2, 2: 5, 5: 7}, {1: 1, 0: 0}, {7: 5, 2: 7, 5: 2}])
    for domains, specs in [(((0, 1, 2),) * 4, row_col_specs(2, 2, ((0, 1, 2),) * 4)),
                           (((2, 0, 1),) * 4, row_col_specs(2, 2, ((2, 0, 1),) * 4)),
                           (mixed, row_col_specs(2, 2, mixed)[:1] + [cross])]:
        specs = specs + [value_spec(domains, 1), value_spec(domains, 2)]
        coding = LexOrdering(domains)
        pairs = [(LiteralSymmetry.from_maps(p, m, coding), RefSymmetry(p, m)) for p, m in specs]
        for s, rs in pairs:
            assert [apply(s, a) for a in all_assignments(domains)] == \
                [rs.apply(a) for a in all_assignments(domains)]
        for (s, rs), (t, rt) in itertools.product(pairs, repeat=2):
            prod = compose(s, t)
            assert (prod.var_perm, prod.val_maps) == rs.compose(rt).key()
            assert compose(prod, invert(prod)).is_identity()
            for a in all_assignments(domains):
                assert apply(prod, a) == rs.apply(rt.apply(a))
