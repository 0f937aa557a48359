"""Propagating decomposition of reflected-binary (Gray) precedence.

The constraint orders two n-bit vectors: `lhs` must come no later than `rhs`
in the reflected-binary order (`strict` forbids equality).  A chain of state
variables state_1..state_{n+1} with values {-1, 0, 1} threads through the bit
positions; writing x_i, y_i for the i-th bits and s_i for the states, the
decomposition is, for 1 <= i <= n:

    s_1 = 1                     comparison starts undecided, positive sense
    s_{n+1} = 0                 strict only: the comparison must resolve
    s_i != 1  or x_i <= y_i
    s_i != -1 or x_i >= y_i
    x_i = y_i or s_{i+1} = 0
    x_i = 1 or y_i = 1 or s_{i+1} = s_i
    x_i = 0 or y_i = 0 or s_{i+1} = -s_i

While the prefixes agree, s_i carries the comparison sense at position i
(+1: 0-before-1, -1: 1-before-0), flipping wherever both bits are 1 — the
reflection of the order.  At the first disagreement the sense must match the
bit pair and the chain collapses to 0 for good.

The five lines of one position interact through all four of {x_i, y_i, s_i,
s_{i+1}}, so propagating them separately is too weak (they pairwise share
two variables).  Grouped per position, consecutive blocks share exactly the
one variable s_{i+1}: the block hypergraph is a chain, hence Berge acyclic,
and enforcing domain consistency block by block to a fixpoint yields domain
consistency on the whole conjunction.  The engine therefore wakes one
propagator per position block (plus the boundary constraints), and the
network is stored only as those propagators.  The five lines live once, as
the table `_LINES` that every position's block is built from.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import DomainStore, InputError, TableConstraint

BITS = (0, 1)
SIGNS = (-1, 0, 1)


@dataclass(frozen=True)
class GrayDecomposition:
    """Constraint network over lhs_1..lhs_n, rhs_1..rhs_n, state_1..state_{n+1}.

    Stored once, as the propagators the engine drives: the boundary
    constraints as one-row tables, then one table per position block.
    Without propagators it is the variable layout alone.
    """

    n: int
    strict: bool
    propagators: tuple = ()  # (label, TableConstraint) pairs driven by the engine
    watchers: tuple = ()  # watchers[var]: ids of the propagators whose scope holds var

    @property
    def num_vars(self) -> int:
        return 3 * self.n + 1

    def lhs(self, i: int) -> int:
        return i

    def rhs(self, i: int) -> int:
        return self.n + i

    def state(self, i: int) -> int:
        return 2 * self.n + i

    def var_label(self, idx: int) -> str:
        if idx < self.n:
            return f"lhs{idx + 1}"
        if idx < 2 * self.n:
            return f"rhs{idx - self.n + 1}"
        return f"state{idx - 2 * self.n + 1}"


def _table(scope: Sequence[int], rows) -> TableConstraint:
    return TableConstraint(tuple(scope), frozenset(rows))


# The five lines of position i over its slots (x_i, y_i, s_i, s_{i+1}) = 0..3,
# as (slots of the line's scope, allowed tuples); every position shares them.
_PAIRS = tuple(itertools.product(BITS, BITS))
_LINES = (
    ((2, 0, 1), frozenset((q, a, b) for q in SIGNS for a, b in _PAIRS if q != 1 or a <= b)),
    ((2, 0, 1), frozenset((q, a, b) for q in SIGNS for a, b in _PAIRS if q != -1 or a >= b)),
    ((0, 1, 3), frozenset((a, b, qn) for a, b in _PAIRS for qn in SIGNS if a == b or qn == 0)),
    ((0, 1, 2, 3), frozenset((a, b, q, qn) for a, b in _PAIRS for q in SIGNS for qn in SIGNS
                             if a == 1 or b == 1 or qn == q)),
    ((0, 1, 2, 3), frozenset((a, b, q, qn) for a, b in _PAIRS for q in SIGNS for qn in SIGNS
                             if a == 0 or b == 0 or qn == -q)),
)
# a position block is the conjunction of the position's five lines
_BLOCK = frozenset(t for t in itertools.product(BITS, BITS, SIGNS, SIGNS)
                   if all(tuple(t[k] for k in slots) in rows for slots, rows in _LINES))


def build_decomposition(n: int, strict: bool) -> GrayDecomposition:
    if n < 1:
        raise InputError("need at least one bit position")
    layout = GrayDecomposition(n, strict)
    props = [("state1=1", _table((layout.state(0),), [(1,)]))]
    if strict:
        props.append((f"state{n + 1}=0", _table((layout.state(n),), [(0,)])))
    props.extend((f"block{i + 1}", TableConstraint(
        (layout.lhs(i), layout.rhs(i), layout.state(i), layout.state(i + 1)), _BLOCK))
        for i in range(n))
    watchers: list[list[int]] = [[] for _ in range(layout.num_vars)]
    for pid, (_, con) in enumerate(props):
        for var in con.scope:
            watchers[var].append(pid)
    return GrayDecomposition(n, strict, tuple(props), tuple(map(tuple, watchers)))


def initial_store(decomp: GrayDecomposition) -> DomainStore:
    """Every bit free, every state variable at {-1, 0, 1}."""
    n = decomp.n
    return DomainStore([set(BITS) for _ in range(2 * n)]
                       + [set(SIGNS) for _ in range(n + 1)])


def store_from_candidates(n: int, lhs: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]],
                          state: Optional[Sequence[Sequence[int]]] = None) -> DomainStore:
    if len(lhs) != n or len(rhs) != n:
        raise InputError(f"expected {n} candidate lists for each vector")
    if state is None:
        state = (SIGNS,) * (n + 1)
    elif len(state) != n + 1:
        raise InputError(f"expected {n + 1} state candidate lists")
    cands: list[set[int]] = []
    for name, lists, ok in (("lhs", lhs, BITS), ("rhs", rhs, BITS), ("state", state, SIGNS)):
        for i, values in enumerate(lists):
            vals = set(values)
            if not vals <= set(ok):
                raise InputError(f"{name}{i + 1} candidates {sorted(vals)} outside {ok}")
            cands.append(vals)
    return DomainStore(cands)


@dataclass
class PropagationTrace:
    """Removal events and per-propagator wake counts of one run."""

    removals: int = 0
    wakes: dict = field(default_factory=dict)


@dataclass
class PropagationOutcome:
    failed: bool
    store: DomainStore
    trace: Optional[PropagationTrace] = None


def propagate(decomp: GrayDecomposition, store: DomainStore) -> PropagationOutcome:
    """Fixpoint of per-block domain consistency over a copy of the store.

    FIFO queue of woken propagators; a propagator wakes when a variable of
    its scope loses a value.  Deterministic: same input, same trace.  Because
    the block hypergraph is a chain, the fixpoint equals domain consistency
    on the conjunction of all constraints.
    """
    if len(store.candidates) != decomp.num_vars:
        raise InputError(f"store covers {len(store.candidates)} variables, "
                         f"decomposition has {decomp.num_vars}")
    work = store.copy()
    trace = PropagationTrace()
    props, watchers = decomp.propagators, decomp.watchers
    queue = deque(range(len(props)))
    queued = [True] * len(props)
    while queue:
        pid = queue.popleft()
        queued[pid] = False
        label, con = props[pid]
        trace.wakes[label] = trace.wakes.get(label, 0) + 1
        doms = [work.candidates[v] for v in con.scope]
        valid = [t for t in con.allowed
                 if all(t[j] in doms[j] for j in range(len(con.scope)))]
        changed = []
        for j, var in enumerate(con.scope):
            supported = {t[j] for t in valid}
            extra = doms[j] - supported
            if extra:
                for v in sorted(extra):
                    trace.removals += 1
                    if work.remove(var, v):
                        return PropagationOutcome(True, work, trace)
                changed.append(var)
        for var in changed:
            for other in watchers[var]:
                if other != pid and not queued[other]:
                    queue.append(other)
                    queued[other] = True
    return PropagationOutcome(False, work, trace)


def gac_oracle(n: int, store: DomainStore, strict: bool) -> PropagationOutcome:
    """Domain consistency by brute force over every candidate vector pair.

    A pair (x, y) supports a value iff x and y lie within the current bit
    candidates, x precedes y in the reflected-binary order (weakly unless
    strict), and the state chain the pair induces fits the current state
    candidates.  Kept values are exactly those used by some supporting pair.
    """
    import numpy as np  # the oracle is the package's only numpy user

    if n > 10:
        raise InputError("oracle enumerates 4^n pairs; n must be <= 10")
    if len(store.candidates) != 3 * n + 1:
        raise InputError("store does not cover the decomposition's variables")
    if any(not c for c in store.candidates):
        return PropagationOutcome(True, store.copy())

    layout = GrayDecomposition(n, strict)
    x_doms = [sorted(store.candidates[layout.lhs(i)]) for i in range(n)]
    y_doms = [sorted(store.candidates[layout.rhs(i)]) for i in range(n)]
    s_doms = [store.candidates[layout.state(i)] for i in range(n + 1)]

    xs = np.array(list(itertools.product(*x_doms)), dtype=np.int8).reshape(-1, n)
    ys = np.array(list(itertools.product(*y_doms)), dtype=np.int8).reshape(-1, n)
    weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)
    rx = np.bitwise_xor.accumulate(xs, axis=1).astype(np.int64) @ weights
    ry = np.bitwise_xor.accumulate(ys, axis=1).astype(np.int64) @ weights

    ok = rx[:, None] < ry[None, :] if strict else rx[:, None] <= ry[None, :]

    chain = [np.ones((len(xs), len(ys)), dtype=np.int8)]
    for i in range(n):
        xi = xs[:, i][:, None]
        yi = ys[:, i][None, :]
        prev = chain[-1]
        chain.append(np.where(xi != yi, 0,
                              np.where((xi == 1) & (yi == 1), -prev, prev)).astype(np.int8))
    for i in range(n + 1):
        fits = np.zeros(ok.shape, dtype=bool)
        for v in s_doms[i]:
            fits |= chain[i] == v
        ok &= fits

    if not ok.any():
        return PropagationOutcome(True, store.copy())

    new = store.copy()
    x_keep = ok.any(axis=1)
    y_keep = ok.any(axis=0)
    for i in range(n):
        new.candidates[layout.lhs(i)] = {int(v) for v in np.unique(xs[x_keep, i])}
        new.candidates[layout.rhs(i)] = {int(v) for v in np.unique(ys[y_keep, i])}
    for i in range(n + 1):
        new.candidates[layout.state(i)] = {int(v) for v in np.unique(chain[i][ok])}
    return PropagationOutcome(False, new)
