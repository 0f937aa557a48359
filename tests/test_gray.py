import importlib.util
import itertools
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbreak.gray import (
    _LINES,
    _SETS,
    BITS,
    SIGNS,
    build_decomposition,
    gac_oracle,
    initial_store,
    propagate,
    store_from_candidates,
)
from symbreak.model import DomainStore, InputError, binary_domains
from symbreak.orderings import GrayOrdering

from reference import is_berge_acyclic_chain, set_propagate

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

_DECOMPS = {}


def decomp(n, strict):
    if (n, strict) not in _DECOMPS:
        _DECOMPS[(n, strict)] = build_decomposition(n, strict)
    return _DECOMPS[(n, strict)]


def reference_chain(x, y):
    """Independent statement of the state rules: start at +1, flip where both
    bits are 1, collapse to 0 at the first disagreement and stay there."""
    states = [1]
    for xi, yi in zip(x, y):
        prev = states[-1]
        if prev == 0 or xi != yi:
            states.append(0)
        elif xi == 1:
            states.append(-prev)
        else:
            states.append(prev)
    return states


def pair_store(n, strict, x=None, y=None):
    store = initial_store(decomp(n, strict))
    if x is not None:
        for i, v in enumerate(x):
            store.candidates[i] = {v}
    if y is not None:
        for i, v in enumerate(y):
            store.candidates[n + i] = {v}
    return store


def test_build_counts_and_arities():
    # five lines per position, each over at most the position's four slots
    assert len(_LINES) == 5
    assert all(len(slots) <= 4 and all(len(row) == len(slots) for row in rows)
               for slots, rows in _LINES)
    for n, strict, boundary in ((1, True, 2), (3, False, 1)):
        d = decomp(n, strict)
        cons = [con for _, con in d.propagators]
        unaries = [con for con in cons if len(con.scope) == 1]
        blocks = [con for con in cons if len(con.scope) > 1]
        assert [(con.scope, set(con.allowed)) for con in unaries] == \
            [((d.state(0),), {(1,)}), ((d.state(n),), {(0,)})][:boundary]
        assert len(blocks) == n and all(len(con.scope) == 4 for con in blocks)
    with pytest.raises(InputError):
        build_decomposition(0, True)


def test_block_hypergraph_is_a_chain():
    for n in (1, 2, 5, 9):
        assert is_berge_acyclic_chain(decomp(n, True))


def test_strict_rejects_gray_descending_pair():
    # x = 10 (last in the 2-bit listing) cannot strictly precede y = 11
    out = propagate(decomp(2, True), pair_store(2, True, (1, 0), (1, 1)))
    assert out.failed


def test_non_strict_accepts_equal_vectors():
    out = propagate(decomp(2, False), pair_store(2, False, (1, 0), (1, 0)))
    assert not out.failed


def test_strict_n1_full_domains_fixes_the_pair():
    out = propagate(decomp(1, True), initial_store(decomp(1, True)))
    assert not out.failed
    assert out.store.candidates[0] == {0} and out.store.candidates[1] == {1}
    oracle = gac_oracle(1, initial_store(decomp(1, True)), True)
    assert oracle.store.candidates[:2] == out.store.candidates[:2]


def test_strict_n2_shared_prefix_forces_suffix():
    # both vectors start 1; 11 precedes 10 in the 2-bit listing
    store = pair_store(2, True)
    store.candidates[0] = {1}
    store.candidates[2] = {1}
    out = propagate(decomp(2, True), store)
    assert not out.failed
    assert out.store.candidates[1] == {1}  # lhs2
    assert out.store.candidates[3] == {0}  # rhs2


def test_strict_fails_on_maximal_lhs():
    store = pair_store(2, True, x=(1, 0))
    out = propagate(decomp(2, True), store)
    assert out.failed


def test_oracle_keeps_fully_assigned_satisfying_pair():
    store = pair_store(3, True, (0, 1, 1), (1, 1, 0))
    gray = GrayOrdering(binary_domains(3))
    assert gray.rank((0, 1, 1)) < gray.rank((1, 1, 0))
    out = gac_oracle(3, store, True)
    assert not out.failed
    assert out.store.candidates[:6] == store.candidates[:6]


def test_propagate_does_not_mutate_input():
    store = initial_store(decomp(1, True))
    before = store.copy()
    propagate(decomp(1, True), store)
    assert store == before


def test_satisfaction_equivalence_exhaustive():
    # a fully assigned pair admits a consistent chain iff ranked accordingly
    for n in range(1, 9):
        gray = GrayOrdering(binary_domains(n))
        for strict in (True, False):
            d = decomp(n, strict)
            for x in itertools.product((0, 1), repeat=n):
                for y in itertools.product((0, 1), repeat=n):
                    out = propagate(d, pair_store(n, strict, x, y))
                    rx, ry = gray.rank(x), gray.rank(y)
                    expect = rx < ry if strict else rx <= ry
                    assert out.failed != expect, (n, strict, x, y)


def test_chain_values_on_satisfying_pairs():
    n = 4
    gray = GrayOrdering(binary_domains(n))
    d = decomp(n, True)
    for x in itertools.product((0, 1), repeat=n):
        for y in itertools.product((0, 1), repeat=n):
            if gray.rank(x) >= gray.rank(y):
                continue
            out = propagate(d, pair_store(n, True, x, y))
            assert not out.failed
            states = [out.store.candidates[2 * n + i] for i in range(n + 1)]
            assert states == [{v} for v in reference_chain(x, y)]


def test_propagator_matches_oracle_exhaustively_n2():
    subdomains = [{0}, {1}, {0, 1}]
    for strict in (True, False):
        d = decomp(2, strict)
        for doms in itertools.product(subdomains, repeat=4):
            store = initial_store(d)
            for i, dom in enumerate(doms):
                store.candidates[i] = set(dom)
            got = propagate(d, store)
            want = gac_oracle(2, store, strict)
            assert got.failed == want.failed, doms
            if not got.failed:
                assert got.store.candidates == want.store.candidates, doms


def test_propagator_matches_oracle_with_narrowed_states():
    rng = random.Random(7)
    sign_subsets = [s for k in range(1, 4) for s in itertools.combinations(SIGNS, k)]
    for _ in range(300):
        n = rng.randint(1, 4)
        strict = rng.random() < 0.5
        d = decomp(n, strict)
        store = initial_store(d)
        for i in range(2 * n):
            store.candidates[i] = set(rng.choice([(0,), (1,), (0, 1)]))
        for i in range(n + 1):
            store.candidates[2 * n + i] = set(rng.choice(sign_subsets))
        got = propagate(d, store)
        want = gac_oracle(n, store, strict)
        assert got.failed == want.failed
        if not got.failed:
            assert got.store.candidates == want.store.candidates


def test_propagator_matches_oracle_on_every_n1_store_and_empty_sets():
    """Every subset of every candidate set at n=1, the empty one included;
    at n=2 the store whose every set is empty: nothing is removed there, yet
    it fails."""
    def subsets(values):
        return [set(c) for k in range(len(values) + 1)
                for c in itertools.combinations(sorted(values), k)]

    for strict in (True, False):
        d = decomp(1, strict)
        for doms in itertools.product(*map(subsets, initial_store(d).candidates)):
            store = initial_store(d)
            store.candidates[:] = doms
            got, want = propagate(d, store), gac_oracle(1, store, strict)
            assert got.failed == want.failed, doms
            if not got.failed:
                assert got.store.candidates == want.store.candidates, doms
        empty = initial_store(decomp(2, strict))
        empty.candidates[:] = [set() for _ in empty.candidates]
        got = propagate(decomp(2, strict), empty)
        assert got.failed and gac_oracle(2, empty, strict).failed
        assert got.trace.removals == 0


@given(st.integers(1, 6), st.booleans(), st.data())
def test_propagator_matches_oracle_random(n, strict, data):
    d = decomp(n, strict)
    store = initial_store(d)
    for i in range(2 * n):
        store.candidates[i] = set(data.draw(st.sampled_from([(0,), (1,), (0, 1)])))
    got = propagate(d, store)
    want = gac_oracle(n, store, strict)
    assert got.failed == want.failed
    if not got.failed:
        assert got.store.candidates == want.store.candidates


def test_trace_events_bounded_by_store_size():
    for n in (2, 5, 8):
        d = decomp(n, True)
        store = initial_store(d)
        out = propagate(d, store)
        assert out.trace.removals <= sum(map(len, store.candidates))
        assert out.trace.wakes  # every propagator woke at least once


def test_linear_event_count_on_full_domains():
    ratios = []
    for n in (8, 16, 32, 64):
        d = build_decomposition(n, True)
        out = propagate(d, initial_store(d))
        assert not out.failed
        assert out.trace.removals <= 20 * n
        ratios.append(out.trace.removals / n)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_propagation_is_deterministic():
    d = decomp(3, True)
    store = initial_store(d)
    store.candidates[0] = {1}
    store.candidates[5] = {0}
    first = propagate(d, store)
    second = propagate(d, store)
    assert first.store == second.store
    assert first.trace.removals == second.trace.removals
    assert first.trace.wakes == second.trace.wakes


def test_store_builder_validation():
    with pytest.raises(InputError):
        store_from_candidates(2, [[0]], [[0], [1]])
    with pytest.raises(InputError):
        store_from_candidates(1, [[2]], [[0]])
    with pytest.raises(InputError):
        store_from_candidates(1, [[0]], [[0]], [[5], [0]])
    store = store_from_candidates(1, [[0]], [[0, 1]], [[1], [0, 1]])
    assert store.candidates[0] == {0}


def test_oracle_size_guard():
    with pytest.raises(InputError):
        gac_oracle(11, initial_store(build_decomposition(11, True)), True)


def subsets(values):
    return [set(c) for k in range(len(values) + 1) for c in itertools.combinations(values, k)]


def assert_matches_set_engine(d, store):
    """The mask engine against the set engine of tests/reference.py: the same
    verdict, removal count, wakes in order and candidates, failed stores too;
    and every set the engine hands back is one of the eight shared ones."""
    got, want = propagate(d, store), set_propagate(d, store)
    assert (got.failed, got.trace.removals, list(got.trace.wakes.items())) == \
        (want.failed, want.trace.removals, list(want.trace.wakes.items()))
    assert got.store.candidates == want.store.candidates
    assert all(any(c is s for s in _SETS) for c in got.store.candidates)
    return got


def test_mask_engine_matches_set_engine_on_every_n1_store():
    for strict in (True, False):
        d = decomp(1, strict)
        for doms in itertools.product(*map(subsets, (BITS, BITS, SIGNS, SIGNS))):
            assert_matches_set_engine(d, DomainStore(list(doms)))


def test_mask_engine_matches_set_engine_on_random_stores():
    rng = random.Random(26)
    bit_sets, sign_sets = subsets(BITS), subsets(SIGNS)
    for _ in range(5000):
        n = rng.randint(1, 8)
        d = decomp(n, rng.random() < 0.5)
        store = initial_store(d)
        for i in rng.sample(range(d.num_vars), rng.randint(0, d.num_vars)):
            # the empty set, listed first, is left out nine times in ten, so
            # that most stores propagate past their first wakes
            choices = bit_sets if i < 2 * n else sign_sets
            store.candidates[i] = set(rng.choice(choices[rng.random() < 0.9:]))
        assert_matches_set_engine(d, store)


def test_mask_engine_matches_set_engine_on_the_benchmark_stores(monkeypatch, tmp_path):
    """Every store of the benchmark's gray-propagate cycle at seeds 1-3, as
    bench/workloads.py, loaded by path, builds them."""
    monkeypatch.syspath_prepend(BENCH)  # workloads imports its sibling `oracles`
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gray = workloads.GrayPropagate()
    items = [item for seed in (1, 2, 3) for item in gray.prepare(gray.generate(seed, str(tmp_path)))]
    assert len(items) == 750
    verdicts = set()
    for d, store in items:
        got = assert_matches_set_engine(d, store)
        verdicts.add(got.failed)
        # fresh mutable sets in, the same run out, and neither store changes
        fresh = DomainStore([set(c) for c in store.candidates])
        again = propagate(d, fresh)
        assert (again.failed, again.trace, again.store) == (got.failed, got.trace, got.store)
        assert fresh.candidates == store.candidates
    assert verdicts == {False, True}


def test_store_builders_hand_out_the_shared_sets():
    for n in (1, 3):
        for store in (initial_store(decomp(n, True)),
                      store_from_candidates(n, [[0], [1], []][:n], [[0, 1]] * n,
                                            [[-1, 1]] + [[]] * n)):
            assert all(any(c is s for s in _SETS) for c in store.candidates)
    assert len({id(s) for s in _SETS}) == len(set(_SETS)) == 8
