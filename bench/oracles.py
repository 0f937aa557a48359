"""Reference answers computed without the symbreak package.

Every function here re-derives its result from first principles (Burnside
counting, brute-force search, the reflected-binary rank, a two-sweep chain
pass), so a defect in the library cannot hide behind the same defect in
its checker.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


# ---------------------------------------------------------------------------
# matrix models: orbit counts by Burnside's lemma


def _cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        lengths.append(length)
    return lengths


@lru_cache(maxsize=None)
def _cycle_types(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(cycle type, number of permutations of S_k with that type)."""
    counts: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(k)):
        key = tuple(sorted(_cycle_lengths(perm)))
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fixed_rows(col_cycles: list[int], power: int, nonzero_values: int,
                nonzero: int | None) -> int:
    """Rows fixed by tau**power that satisfy the row constraint.

    A fixed row is constant on every cycle of tau**power; the row holds
    `nonzero` non-zero cells (any count when None), each of which takes one
    of `nonzero_values` values.
    """
    poly = [1]
    for b in col_cycles:
        g = math.gcd(power, b)
        for _ in range(g):
            length = b // g
            term = [0] * (length + 1)
            term[0] = 1
            term[length] = nonzero_values
            poly = _poly_mul(poly, term)
    if nonzero is None:
        return sum(poly)
    return poly[nonzero] if nonzero < len(poly) else 0


def matrix_orbit_count(rows: int, cols: int, values: int, nonzero: int | None) -> int:
    """Orbits of r x c matrices over {0..values-1} under row and column
    permutations, optionally restricted to rows with exactly `nonzero`
    non-zero cells.

    Burnside: average over (sigma, tau) of the matrices it fixes.  A matrix
    fixed by (sigma, tau) is determined by one row per sigma-cycle of length
    a, and that row must be fixed by tau**a; the row constraint is
    invariant under column permutations, so it holds for the whole cycle
    iff it holds for that row.
    """
    total = 0
    for row_type, row_count in _cycle_types(rows):
        for col_type, col_count in _cycle_types(cols):
            fixed = 1
            for a in row_type:
                fixed *= _fixed_rows(list(col_type), a, values - 1, nonzero)
            total += row_count * col_count * fixed
    order = math.factorial(rows) * math.factorial(cols)
    if total % order:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // order


def matrix_solution_count(rows: int, cols: int, values: int, nonzero: int | None) -> int:
    if nonzero is None:
        return values ** (rows * cols)
    return (math.comb(cols, nonzero) * (values - 1) ** nonzero) ** rows


# ---------------------------------------------------------------------------
# reduction instances: brute-force deciders


def one_in_three_sat(clauses: list[list[int]]) -> bool:
    width = max(v for clause in clauses for v in clause)
    return any(all(sum(bits[v - 1] for v in clause) == 1 for clause in clauses)
               for bits in itertools.product((0, 1), repeat=width))


def cnf_model_count(num_vars: int, clauses: list[list[int]]) -> tuple[int, bool]:
    """(number of models, whether the all-zero vector is one)."""
    def sat(bits):
        return all(any(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in clause)
                   for clause in clauses)
    models = sum(1 for bits in itertools.product((0, 1), repeat=num_vars) if sat(bits))
    return models, sat((0,) * num_vars)


# ---------------------------------------------------------------------------
# reflected-binary precedence


def gray_rank(bits: list[int]) -> int:
    """Position of a codeword in the reflected-binary listing: the codeword
    at position k is k ^ (k >> 1), so the position is the prefix-XOR read
    as a binary number."""
    k, acc = 0, 0
    for b in bits:
        acc ^= b
        k = (k << 1) | acc
    return k


def _step(q: int, a: int, b: int) -> int | None:
    """Chain semantics of one position: q is the comparison sense while the
    prefixes agree (+1 means 0 sorts before 1, -1 the reverse) and 0 once
    they differ.  Returns the next state, or None if the pair contradicts
    the sense (lhs would sort after rhs)."""
    if q == 0:
        return 0
    if a != b:
        first_is_smaller = (a == 0) if q == 1 else (a == 1)
        return 0 if first_is_smaller else None
    return -q if a == 1 else q


def precedence_fixpoint(n: int, strict: bool,
                        cands: list[set[int]]) -> list[set[int]] | None:
    """Domain consistency of gray(lhs, rhs) over candidate sets.

    `cands` lists lhs_1..lhs_n, rhs_1..rhs_n, state_1..state_{n+1}.  The
    positions form a chain, so one forward sweep (states reachable from the
    start) and one backward sweep (states that can still end legally)
    identify every supported value.  Returns None on wipeout.
    """
    xs, ys, ss = cands[:n], cands[n:2 * n], cands[2 * n:]
    fwd = [ss[0] & {1}]
    for i in range(n):
        fwd.append({r for q in fwd[i] for a in xs[i] for b in ys[i]
                    if (r := _step(q, a, b)) is not None} & ss[i + 1])
    bwd = [set() for _ in range(n + 1)]
    bwd[n] = ss[n] & ({0} if strict else {-1, 0, 1})
    for i in range(n - 1, -1, -1):
        bwd[i] = {q for q in ss[i] for a in xs[i] for b in ys[i]
                  if _step(q, a, b) in bwd[i + 1]}
    live = [fwd[i] & bwd[i] for i in range(n + 1)]
    if not all(live):
        return None
    new_x, new_y = [], []
    for i in range(n):
        moves = [(a, b) for q in live[i] for a in xs[i] for b in ys[i]
                 if _step(q, a, b) in live[i + 1]]
        new_x.append({a for a, _ in moves})
        new_y.append({b for _, b in moves})
    return new_x + new_y + live
