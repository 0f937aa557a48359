"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value below is either frozen from an independent
oracle computed inside this module (Burnside counts, per-orbit minima,
exhaustive searches) or is a fixed reference sequence.
"""

import itertools
import random
import time
from functools import cmp_to_key, partial

from symbreak.breaker import (
    doublelex_constraints,
    extensional_set,
    filter_solutions,
    leader_constraints,
    per_orbit_survivors,
)
from symbreak.gray import build_decomposition, gac_oracle, initial_store, propagate
from symbreak.model import binary_domains
from symbreak.orderings import (
    GrayOrdering,
    LexOrdering,
    RevLexOrdering,
    SnakeLexOrdering,
)
from symbreak.reductions import (
    SAT,
    UNSAT,
    Cnf,
    OneInThreeInstance,
    cnf_satisfiable,
    group_gadget,
    one_in_three_satisfiable,
    ordering_gadget,
    solve_group_gadget,
    solve_ordering_gadget,
)
from symbreak.symmetry import (
    conjugate,
    partitions_isomorphic,
    row_col_group,
)

from reference import (
    all_assignments,
    apply,
    blocks_of,
    compare,
    forward,
    is_complete,
    is_sound,
    map_constraint_set,
    min_in_class,
    tuple_orbits,
)

# 4-bit reflected-binary listing, leftmost bit = variable 0
GRAY4_LISTING = ["0000", "0001", "0011", "0010", "0110", "0111", "0101", "0100",
                 "1100", "1101", "1111", "1110", "1010", "1011", "1001", "1000"]

LEADER_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]
# orbit counts of the full binary spaces under the row/column group,
# frozen from the Burnside oracle below (2x2 cross-checked by hand)
ORBIT_COUNTS = {(2, 2): 7, (2, 3): 13, (3, 2): 13, (3, 3): 36}
# shapes with r*c <= 9 where the exhaustive search finds a doublelex gap
DOUBLELEX_GAP_SHAPES = {(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)}


def burnside_orbit_count(group, space):
    closure = group.closure()
    fixed = sum(sum(1 for a in space if apply(s, a) == a) for s in closure)
    assert fixed % len(closure) == 0
    return fixed // len(closure)


def shape_orderings(shape):
    n = shape[0] * shape[1]
    doms = binary_domains(n)
    return [LexOrdering(doms), GrayOrdering(doms), SnakeLexOrdering(doms, shape)]


def report(num, message):
    print(f"[criterion {num:02d}] PASS  {message}")


def test_criterion_01_gray_listing():
    start = time.perf_counter()
    gray = GrayOrdering(binary_domains(4))
    listing = ["".join(map(str, gray.unrank(k))) for k in range(16)]
    matches = sum(a == b for a, b in zip(listing, GRAY4_LISTING))
    assert matches == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"4-bit listing reproduced 16/16 in {elapsed:.3f}s")


def test_criterion_02_rank_unrank_inverses():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        doms = binary_domains(n)
        for ordering in (LexOrdering(doms), GrayOrdering(doms), RevLexOrdering(doms)):
            for k in range(2 ** n):
                a = ordering.unrank(k)
                assert ordering.rank(a) == k
                checked += 1
    shapes = [(r, c) for r in range(1, 13) for c in range(1, 13) if r * c <= 12]
    for shape in shapes:
        n = shape[0] * shape[1]
        ordering = SnakeLexOrdering(binary_domains(n), shape)
        for k in range(2 ** n):
            a = ordering.unrank(k)
            assert ordering.rank(a) == k
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{checked} round trips over lex/gray/revlex (n<=12) and "
              f"{len(shapes)} snakelex shapes in {elapsed:.2f}s")


def test_criterion_03_gray_adjacency_and_reflection():
    start = time.perf_counter()
    for n in range(1, 13):
        gray = GrayOrdering(binary_domains(n))
        prev = gray.unrank(0)
        for k in range(1, 2 ** n):
            cur = gray.unrank(k)
            assert sum(x != y for x, y in zip(prev, cur)) == 1
            prev = cur
    for n in range(2, 11):
        gray = GrayOrdering(binary_domains(n))
        half = 2 ** (n - 1)
        lower = [gray.unrank(k)[1:] for k in range(half)]
        upper = [gray.unrank(k)[1:] for k in range(half, 2 ** n)]
        assert upper == lower[::-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"adjacency n<=12 and reflected suffixes n<=10 in {elapsed:.2f}s")


def test_criterion_04_propagator_matches_oracle():
    start = time.perf_counter()
    decomps = {(n, s): build_decomposition(n, s)
               for n in range(1, 9) for s in (True, False)}

    def agree(n, strict, store):
        got = propagate(decomps[(n, strict)], store)
        want = gac_oracle(n, store, strict)
        assert got.failed == want.failed, (n, strict, store.candidates)
        if not got.failed:
            bit_vars = range(2 * n)
            assert [got.store.candidates[i] for i in bit_vars] == \
                [want.store.candidates[i] for i in bit_vars], (n, strict)

    exhaustive = 0
    subdomains = [{0}, {1}, {0, 1}]
    for n in (1, 2, 3):
        for strict in (True, False):
            for doms in itertools.product(subdomains, repeat=2 * n):
                store = initial_store(decomps[(n, strict)])
                for i, dom in enumerate(doms):
                    store.candidates[i] = set(dom)
                agree(n, strict, store)
                exhaustive += 1

    rng = random.Random(20260810)
    randomized = 10_000
    for _ in range(randomized):
        n = rng.randint(1, 8)
        strict = rng.random() < 0.5
        store = initial_store(decomps[(n, strict)])
        for i in range(2 * n):
            store.candidates[i] = set(rng.choice(((0,), (1,), (0, 1))))
        agree(n, strict, store)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"{exhaustive} exhaustive + {randomized} random stores, "
              f"zero disagreements, in {elapsed:.2f}s")


def test_criterion_05_propagation_event_linearity():
    start = time.perf_counter()
    events = {}
    for n in (8, 16, 32, 64):
        decomp = build_decomposition(n, True)
        out = propagate(decomp, initial_store(decomp))
        assert not out.failed
        assert out.trace.removals <= 20 * n
        events[n] = out.trace.removals
    ratios = [events[n] / n for n in (8, 16, 32, 64)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"events {events} all within 20n, ratios non-increasing, "
              f"in {elapsed:.2f}s")


def test_criterion_06_full_leader_sets_sound_complete_minimal():
    start = time.perf_counter()
    checked = []
    for shape in LEADER_SHAPES:
        n = shape[0] * shape[1]
        space = list(all_assignments(binary_domains(n)))
        group = row_col_group(shape)
        partition = tuple_orbits(space, group)
        assert len(partition) == burnside_orbit_count(group, space) \
            == ORBIT_COUNTS[shape]
        for ordering in shape_orderings(shape):
            bset = leader_constraints(group, ordering, mode="full")
            part, counts = per_orbit_survivors(partition.codes, bset, group)
            assert counts == (1,) * len(part), (shape, ordering.name)
            survivors = set(filter_solutions(space, bset))
            key = cmp_to_key(partial(compare, ordering))
            minima = {min(block, key=key) for block in blocks_of(part)}
            assert survivors == minima, (shape, ordering.name)
            checked.append((shape, ordering.name))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(6, f"{len(checked)} (shape, ordering) pairs: one survivor per orbit, "
              f"each the orbit minimum; orbit counts {ORBIT_COUNTS} match the "
              f"Burnside oracle; in {elapsed:.2f}s")


def test_criterion_07_doublelex_derivable_sound_and_gap_recorded():
    start = time.perf_counter()
    for shape in LEADER_SHAPES:
        n = shape[0] * shape[1]
        space = list(all_assignments(binary_domains(n)))
        group = row_col_group(shape)
        lex = LexOrdering(binary_domains(n))
        dl = doublelex_constraints(shape)
        for a in filter_solutions(space, leader_constraints(group, lex, "full")):
            assert dl.satisfied(a), (shape, a)
        assert is_sound(space, dl, group), shape

    gaps = {}
    for r in range(1, 10):
        for c in range(1, 10):
            if r * c > 9:
                continue
            space = list(all_assignments(binary_domains(r * c)))
            group = row_col_group((r, c))
            dl = doublelex_constraints((r, c))
            for block in blocks_of(tuple_orbits(space, group)):
                kept = [a for a in block if dl.satisfied(a)]
                if len(kept) > 1:
                    gaps[(r, c)] = kept[:2]
                    break
    assert set(gaps) == DOUBLELEX_GAP_SHAPES
    witness = gaps[(2, 3)]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, "every lex leader satisfies doublelex; doublelex sound on all "
              f"shapes; incomplete at {sorted(gaps)} — e.g. 2x3 orbit keeps "
              f"{['%s' % ''.join(map(str, a)) for a in witness]}; in {elapsed:.2f}s")


def test_criterion_08_conjugation_round_trip():
    start = time.perf_counter()
    doms = binary_domains(4)
    space = list(all_assignments(doms))
    group = row_col_group((2, 2))
    gray = GrayOrdering(doms)
    conj = conjugate(gray, group)

    original = tuple_orbits(space, group)
    conjugated = tuple_orbits(space, conj)
    ok, tau = partitions_isomorphic(original, conjugated, gray)
    assert ok and tau is not None and sorted(tau) == list(range(len(original)))

    lex = LexOrdering(doms)
    lex_minima = {a for a in space if min_in_class(a, group, lex)}
    gray_minima = {a for a in space if min_in_class(a, conj, gray)}
    assert len(lex_minima) == len(gray_minima) == 7
    assert gray_minima == {forward(gray, a) for a in lex_minima}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, f"partitions isomorphic (tau={tau}); gray minima of the "
              f"conjugated group are the images of the 7 lex minima; "
              f"in {elapsed:.2f}s")


def test_criterion_09_mapped_breaking_set_stays_sound_complete():
    doms = binary_domains(4)
    space = list(all_assignments(doms))
    group = row_col_group((2, 2))
    gray = GrayOrdering(doms)
    conj = conjugate(gray, group)

    survivors = filter_solutions(space, leader_constraints(group, LexOrdering(doms)))
    mapped = extensional_set(map_constraint_set(gray, survivors))
    assert is_sound(space, mapped, conj)
    assert is_complete(space, mapped, conj)
    report(9, "image of the 2x2 lex-leader set is sound and complete "
              "for the conjugated group")


def all_triples(max_index):
    return [tuple(c) for c in
            itertools.combinations_with_replacement(range(1, max_index + 1), 3)]


def fixed_cnf_pool():
    """Deterministic clause pool over four variables (units plus a spread of
    width-2 clauses, complement-free)."""
    pool = [(v,) for v in range(1, 5)] + [(-v,) for v in range(1, 5)]
    pool += [(1, 2), (-1, -2), (1, -3), (2, 4), (-3, -4), (-2, 3)]
    return pool


def test_criterion_10_reduction_gadgets_match_brute_force():
    start = time.perf_counter()
    singles = all_triples(6)
    count1 = 0
    for clause in singles:
        inst = OneInThreeInstance((clause,))
        expect = SAT if one_in_three_satisfiable(inst) else UNSAT
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == expect
        count1 += 1
    for c1, c2 in itertools.product(singles, repeat=2):
        inst = OneInThreeInstance((c1, c2))
        expect = SAT if one_in_three_satisfiable(inst) else UNSAT
        assert solve_ordering_gadget(ordering_gadget(inst))[0] == expect
        count1 += 1

    pool = fixed_cnf_pool()
    count2 = 0
    for k in range(5):
        for clauses in itertools.combinations(pool, k):
            phi = Cnf(4, clauses)
            expect = SAT if cnf_satisfiable(phi) else UNSAT
            assert solve_group_gadget(group_gadget(phi)) == expect
            count2 += 1

    rng = random.Random(20260810)
    for _ in range(100):
        n = rng.randint(1, 8)
        clauses = tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)))
        phi = Cnf(n, clauses)
        expect = SAT if cnf_satisfiable(phi) else UNSAT
        assert solve_group_gadget(group_gadget(phi)) == expect
        count2 += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(10, f"{count1} ordering-gadget instances and {count2} group-gadget "
               f"formulas all match brute force; in {elapsed:.2f}s")
