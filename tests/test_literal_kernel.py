"""Differential test of the literal kernel against the per-assignment reference.

`RefSymmetry` and `ref_compare` are copies of the dict-based `apply`,
`compose` and `compare` that the literal-permutation kernel replaced: one
dict lookup per variable, one position per variable.  Closure order, orbit
blocks and the survivors of every breaking set must agree exactly.
"""

import itertools
import math

import pytest

from symbreak.breaker import doublelex_constraints, leader_constraints, orbit_verdict
from symbreak.model import all_assignments
from symbreak.orderings import EQ, GT, LT, ORDERING_NAMES, make_ordering, snake_variable_order
from symbreak.symmetry import LiteralSymmetry, SymmetryGroup, orbits

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
]


@pytest.mark.parametrize("name, shape, domains, values, sparse", CASES,
                         ids=[case[0] for case in CASES])
def test_kernel_matches_per_assignment_reference(name, shape, domains, values, sparse):
    r, c = shape
    specs = row_col_specs(r, c, domains)
    if values:
        specs.append(value_spec(domains, 1))
    group = SymmetryGroup(tuple(LiteralSymmetry.from_maps(p, m) for p, m in specs))
    refs = [RefSymmetry(p, m) for p, m in specs]
    solutions = one_per_row(r, c, domains) if sparse else list(all_assignments(domains))

    blocks = ref_blocks(solutions, refs)
    partition = orbits(solutions, group)
    assert partition.blocks == blocks

    binary = all(len(d) == 2 for d in domains)
    modes = [("generators", refs)]
    if refs and math.factorial(r) * math.factorial(c) * (len(domains[0]) if values else 1) \
            <= MAX_REFERENCE_GROUP:
        closure = ref_closure(refs, domains)
        assert [(s.var_perm, s.val_maps) for s in group.closure()] == \
            [ref.key() for ref in closure]
        modes.append(("full", closure))
    for ordering_name in ORDERING_NAMES:
        if ordering_name == "gray" and not binary:
            continue
        ordering = make_ordering(ordering_name, domains, shape)
        for mode, elements in modes:
            verdict = orbit_verdict(partition, leader_constraints(group, ordering, mode))
            assert verdict.kept == ref_kept(blocks, elements, ordering_name, domains, shape), \
                (ordering_name, mode)
    doublelex = orbit_verdict(partition, doublelex_constraints(shape, domains))
    row_col = [RefSymmetry(p, m) for p, m in row_col_specs(r, c, domains)]
    assert doublelex.kept == ref_kept(blocks, row_col, "lex", domains, shape)


def test_compose_and_invert_match_reference():
    domains = ((0, 1, 2),) * 4
    specs = row_col_specs(2, 2, domains) + [value_spec(domains, 1), value_spec(domains, 2)]
    pairs = [(LiteralSymmetry.from_maps(p, m), RefSymmetry(p, m)) for p, m in specs]
    for (s, rs), (t, rt) in itertools.product(pairs, repeat=2):
        prod = s.compose(t)
        assert (prod.var_perm, prod.val_maps) == rs.compose(rt).key()
        assert prod.compose(prod.invert()).is_identity()
        for a in all_assignments(domains):
            assert prod.apply(a) == rs.apply(rt.apply(a))
