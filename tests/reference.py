"""Per-assignment reference checkers that only the tests call.

The CLI answers these questions through the orbit kernel (`orbits` and
`breaker.orbit_verdict`) or never asks them; here each is stated directly,
so the tests can check the kernel and the library against them.  So are
the objects only the tests build: assignment-level symmetries and their
groups, both gadgets' groups and problems, CNF models as value tuples,
and the CNFs the gadget tests run on.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from functools import cached_property, reduce
from itertools import accumulate, combinations, count, islice, product
from operator import add, getitem, itemgetter, xor
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from symbreak.breaker import SymmetryBreakingSet, Verdict, orbit_verdict
from symbreak.gray import GrayDecomposition, PropagationOutcome, PropagationTrace
from symbreak.literals import LiteralSymmetry
from symbreak.model import (
    MAX_ENUMERATION_SPACE,
    Assignment,
    CapExceededError,
    Constraint,
    Domain,
    DomainStore,
    InputError,
    Problem,
    TableConstraint,
    binary_domains,
    check_shape,
    check_values,
    unary,
)
from symbreak.orderings import (
    GrayOrdering,
    LexOrdering,
    RevLexOrdering,
    SnakeLexOrdering,
)
from symbreak.reductions import (
    Cnf,
    Gadget,
    OneInThreeInstance,
    OneInThreeOrdering,
    one_in_three_satisfiable,
)
from symbreak.symmetry import (
    ConjugateSymmetry,
    OrbitPartition,
    Symmetry,
    SymmetryGroup,
    _gatherer,
    orbits,
)


LT, EQ, GT = -1, 0, 1


class AssignmentSymmetry:
    """Explicit bijection on a finite set of assignments, identity elsewhere:
    `_map` takes each moved one's lex code under `coding` to its image's."""

    def __init__(self, moves: dict[int, int], coding: LexOrdering):
        moved = {a: b for a, b in moves.items() if a != b}
        if moved.keys() != set(moved.values()):
            raise InputError("listed pairs do not form a bijection on the listed set")
        self._map, self.coding = moved, coding

    def image_codes(self, codes: list[int]) -> list[int]:
        """The lex codes of the images of the assignments with these codes."""
        return list(map(self._map.get, codes, codes))

    def is_identity(self) -> bool:
        return not self._map

    @cached_property
    def _key(self) -> frozenset:  # built on first comparison or hash
        return frozenset(self._map.items())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AssignmentSymmetry) and self._key == other._key
                and self.coding.domains == other.coding.domains)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"AssignmentSymmetry({len(self._map)} moved)"


class AssignmentGroup(SymmetryGroup):
    """A group of assignment-level symmetries, whose stabilizer chain runs
    over the lex codes its generators list, numbered in the order they are
    first listed.  A `SymmetryGroup` of them partitions orbits all the same."""

    def _points(self):
        gens, coding = self.generators, self.coding
        listed = list(dict.fromkeys(c for g in gens for c in g._map))
        index = dict(zip(listed, count()))
        return ([tuple(map(index.get, g.image_codes(listed))) for g in gens],
                lambda e: AssignmentSymmetry(dict(zip(listed, map(listed.__getitem__, e))), coding))


def gadget_group(gadget: Gadget) -> AssignmentGroup:
    """Sym(solutions) of the group gadget, identity elsewhere, generated by
    the cycle c_k -> c_{k+1} (c_{N-1} -> c_0) of its increasing codes and,
    above two members, the swap of c_0 and c_1."""
    codes, coding = gadget.solutions, LexOrdering(gadget.ordering.domains)
    cycle, swap = dict(zip(codes, codes[1:] + codes[:1])), dict(zip(codes[:2], codes[1::-1]))
    # one member: no generator; two: the cycle is the swap
    gens = [AssignmentSymmetry(moves, coding) for moves in (cycle, swap)[:len(codes) - 1]]
    return AssignmentGroup(tuple(gens), coding=coding)


def binary_problem(n: int, constraints: Sequence[Constraint] = ()) -> Problem:
    return Problem(n, binary_domains(n), tuple(constraints))


def gadget_problem(gadget: Gadget) -> Problem:
    """The group gadget's solutions as the problem of one dense table over
    all its variables."""
    width = gadget.instance.num_vars
    return binary_problem(width, [TableConstraint(
        tuple(range(width)), frozenset(gadget.ordering.decode(list(gadget.solutions))))])


def ordering_gadget_problem(gadget: Gadget) -> Problem:
    """The ordering gadget as a problem: 3m unary constraints pinning the
    clause indices, then the free flag bit."""
    domains = gadget.ordering.domains
    return Problem(len(domains), domains, tuple(unary(3 * p + q, v)
                                                for p, clause in enumerate(gadget.instance.clauses)
                                                for q, v in enumerate(clause)))


def value_swap(var: int, a: int, b: int, coding: LexOrdering) -> LiteralSymmetry:
    """Identity on variables; swaps two values of one variable: the
    identity literal permutation with the two literals exchanged."""
    if not 0 <= var < coding.n:
        raise InputError(f"variable {var} outside 0..{coding.n - 1}")
    check_values(coding.domains, ((var, a), (var, b)))
    lits = list(range(coding.offsets[-1]))
    la, lb = (coding.offsets[var] + coding._pos[var][v] for v in (a, b))
    lits[la], lits[lb] = lb, la
    return LiteralSymmetry(tuple(lits), coding)


def flag_swap(gadget: Gadget) -> LiteralSymmetry:
    """The ordering gadget's group: the swap of the flag bit's values 0 and 1."""
    domains = gadget.ordering.domains
    return value_swap(len(domains) - 1, 0, 1, LexOrdering(domains))


def satisfied_by(phi: Cnf, bits: Sequence[int]) -> bool:
    """Do these truth values (one per variable) satisfy every clause of phi?"""
    return all(any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause)
               for clause in phi.clauses)


def cnf_models(phi: Cnf) -> list[Assignment]:
    """All models over phi's variables, lex order.  Bits falsify a clause iff their
    values at its variables (one `itemgetter`) equal its falsifier; x, -x has none."""
    models = list(product((0, 1), repeat=phi.num_vars))
    for clause in phi.clauses:
        get = itemgetter(*(abs(lit) - 1 for lit in clause))
        bad = tuple(int(lit < 0) for lit in clause) if len(clause) > 1 else int(clause[0] < 0)
        models = [bits for bits in models if get(bits) != bad]
    return models


def cnf_with_models(n: int, models: set[Assignment]) -> Cnf:
    """A CNF over n variables whose models are exactly `models`: one clause
    falsified by each other assignment."""
    return Cnf(n, tuple(tuple(-(i + 1) if v else i + 1 for i, v in enumerate(a))
                        for a in product((0, 1), repeat=n) if a not in models))


def gadget_cnfs() -> list[Cnf]:
    """Every CNF up to 3 variables (one per set of models), then seeded random
    CNFs and the clause-free CNF up to 6."""
    cnfs = [cnf_with_models(n, set(models)) for n in (1, 2, 3)
            for k in range(2 ** n + 1)
            for models in combinations(product((0, 1), repeat=n), k)]
    rng = Random(13)
    for n in (4, 5, 6):
        cnfs.append(Cnf(n, ()))
        cnfs += [Cnf(n, tuple(tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                                    for _ in range(rng.randint(1, 3)))
                              for _ in range(rng.randint(1, 4)))) for _ in range(10)]
    return cnfs


def compare(ordering: LexOrdering, a: Sequence[int], b: Sequence[int]) -> int:
    """LT, EQ or GT as a ranks before, with or after b under the ordering."""
    ra, rb = ordering.ranks(ordering.codes([a, b]))
    return LT if ra < rb else GT if ra > rb else EQ


def assignment_formatter(domains: Sequence[Domain]) -> Callable[[Sequence[int]], str]:
    """The row formatter of a space: a 0/1 string for binary spaces (leftmost
    char = variable 0), else comma-joined values.  `LexOrdering.texts`
    prints the same rows from lex codes."""
    sep = "" if all(tuple(d) == (0, 1) for d in domains) else ","
    return lambda a: sep.join(map(str, a))


def val_of(coding: LexOrdering) -> list[int]:
    """The value of each literal of the coding."""
    return [v for dom in coding.domains for v in dom]


def var_perm(s: LiteralSymmetry) -> tuple[int, ...]:
    """The variable that each variable's literals map to under s."""
    coding = s.coding
    return tuple(map(coding.var_of.__getitem__, map(s.lits.__getitem__, coding.offsets[:-1])))


def val_maps(s: LiteralSymmetry) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per source variable, the sorted (value, image) pairs of s's bijection
    from its domain onto the image variable's, read off `lits`."""
    coding, offsets = s.coding, s.coding.offsets
    images = list(map(val_of(coding).__getitem__, s.lits))
    return tuple(tuple(sorted(zip(dom, images[start:end]))) for dom, start, end
                 in zip(coding.domains, offsets, offsets[1:]))


def apply(s: Symmetry, a: Sequence[int]) -> Assignment:
    """s of one assignment, without `image_codes`.  A literal symmetry maps
    each value's literal through `lits` to m and sets var_of[m] to val_of[m];
    an assignment-level one looks its lex code up; a conjugate π∘g∘π⁻¹ by
    the ordering O reads π off `digit_rank` and `digit_unrank` of O and of
    lex."""
    if isinstance(s, ConjugateSymmetry):
        target = s.ordering
        source = LexOrdering(target.domains)
        back = digit_unrank(source, digit_rank(target, a))
        return digit_unrank(target, digit_rank(source, apply(s.g, back)))
    coding = s.coding
    if isinstance(s, AssignmentSymmetry):
        code = coding.codes([a])[0]
        return coding.decode([s._map.get(code, code)])[0]
    if len(a) != coding.n:
        raise InputError(f"assignment arity {len(a)} != {coding.n}")
    image, var_of, values = [None] * coding.n, coding.var_of, val_of(coding)
    try:
        for m in map(s.lits.__getitem__,
                     map(add, coding.offsets, map(getitem, coding._pos, a))):
            image[var_of[m]] = values[m]
    except KeyError:
        check_values(coding.domains, enumerate(a))
        raise
    return tuple(image)


def identity_like(s: Symmetry) -> Symmetry:
    """The identity in the representation of s."""
    if isinstance(s, ConjugateSymmetry):
        return ConjugateSymmetry(identity_like(s.g), s.ordering)
    if isinstance(s, AssignmentSymmetry):
        return AssignmentSymmetry({}, s.coding)
    return LiteralSymmetry(tuple(range(len(s.lits))), s.coding)


def all_assignments(domains: Sequence[Domain]) -> Iterator[Assignment]:
    """Full assignment space, lexicographic by domain position."""
    return product(*domains)


def symmetry_from_pairs(mapping: dict, domains: Sequence[Domain]) -> AssignmentSymmetry:
    """The assignment-level symmetry taking each key of `mapping` to its value."""
    coding = LexOrdering(domains)
    return AssignmentSymmetry(dict(zip(coding.codes(list(mapping)),
                                       coding.codes(list(mapping.values())))), coding)


def forward(ordering: LexOrdering, a: Sequence[int]) -> Assignment:
    """π of one assignment, π the rank-preserving bijection from lex to the
    ordering: encode, `unranks` and decode."""
    return ordering.decode(ordering.unranks(ordering.codes([a])))[0]


def inverse(ordering: LexOrdering, a: Sequence[int]) -> Assignment:
    """π⁻¹ of one assignment: encode, `ranks` and decode."""
    return ordering.decode(ordering.ranks(ordering.codes([a])))[0]


def compose(s: Symmetry, t: Symmetry) -> Symmetry:
    """The symmetry acting as s after t: compose(s, t)(a) = s(t(a)).  Literal
    symmetries compose by one gather of literal tuples, assignment-level
    ones on the lex codes either lists, and conjugates by one ordering as
    the conjugate of their gs' product."""
    if type(s) is not type(t):
        raise InputError("cannot compose literal and assignment-level symmetries")
    if isinstance(s, ConjugateSymmetry):
        if s.ordering != t.ordering:
            raise InputError("cannot compose conjugates by different permutations")
        return ConjugateSymmetry(compose(s.g, t.g), s.ordering)
    if isinstance(s, AssignmentSymmetry):
        listed = list(s._map.keys() | t._map.keys())
        return AssignmentSymmetry(dict(zip(listed, s.image_codes(t.image_codes(listed)))),
                                  s.coding)
    if t.coding.domains != s.coding.domains:
        raise InputError("symmetries act on different domains")
    return LiteralSymmetry(_gatherer(t.lits)(s.lits), s.coding)


def invert(s: Symmetry) -> Symmetry:
    """The inverse symmetry."""
    if isinstance(s, ConjugateSymmetry):
        return ConjugateSymmetry(invert(s.g), s.ordering)
    if isinstance(s, AssignmentSymmetry):
        return AssignmentSymmetry({b: a for a, b in s._map.items()}, s.coding)
    return LiteralSymmetry(tuple(sorted(range(len(s.lits)), key=s.lits.__getitem__)), s.coding)


def tuple_solutions(problem: Problem, cap: Optional[int] = None) -> list[Assignment]:
    """All solutions as value tuples, in lexicographic order of their domain
    positions: the depth-first search `enumerate_solutions` makes, with the
    same refusals, building each solution's tuple rather than its code."""
    if cap is None:
        if problem.space_size > MAX_ENUMERATION_SPACE:
            raise CapExceededError(
                f"search space {problem.space_size} exceeds "
                f"{MAX_ENUMERATION_SPACE}; pass an explicit cap")
    solutions: list[Assignment] = []
    values: list = [None] * problem.n
    levels = [iter(problem.domains[0])]
    while levels:
        depth = len(levels) - 1
        for values[depth] in levels[depth]:
            if all(con.satisfied(values) for con in problem.constraints
                   if max(con.scope) == depth):
                break
        else:
            levels.pop()
            continue
        if depth < problem.n - 1:
            levels.append(iter(problem.domains[depth + 1]))
            continue
        solutions.append(tuple(values))
        if cap is not None and len(solutions) > cap:
            raise CapExceededError(f"more than cap={cap} solutions")
    return solutions


def lex_codes(problem: Problem, assignments: Iterable[Sequence[int]]) -> list[int]:
    """The lex code of each assignment over the problem's domains as listed."""
    return LexOrdering(problem.domains).codes(list(assignments))


def tuple_orbits(solutions: Iterable[Sequence[int]], group: SymmetryGroup) -> OrbitPartition:
    """`orbits` of the solutions given as value tuples."""
    return orbits(group.coding.codes(list(solutions)), group)


def code_blocks(partition: OrbitPartition) -> tuple[tuple[int, ...], ...]:
    """The partition's blocks, as their members' lex codes."""
    return partition.grouped(range(len(partition.codes)))


def blocks_of(partition: OrbitPartition) -> tuple[tuple[Assignment, ...], ...]:
    """The partition's blocks, each member decoded to its value tuple."""
    return tuple(map(tuple, map(partition.group.coding.decode, code_blocks(partition))))


def kept_of(verdict: Verdict, partition: OrbitPartition) -> tuple[tuple[Assignment, ...], ...]:
    """The verdict's survivors in each block, each decoded to its value tuple."""
    return tuple(map(tuple, map(partition.group.coding.decode, verdict.kept)))


def is_sound(solutions: Sequence[Assignment], bset: SymmetryBreakingSet,
             group: SymmetryGroup) -> bool:
    """At least one survivor in every orbit."""
    return orbit_verdict(tuple_orbits(solutions, group), bset).sound


def is_complete(solutions: Sequence[Assignment], bset: SymmetryBreakingSet,
                group: SymmetryGroup) -> bool:
    """At most one survivor in every orbit."""
    return orbit_verdict(tuple_orbits(solutions, group), bset).complete


def orbit_search(start, neighbours: Callable[..., Iterable], cap: Optional[int] = None) -> list:
    """Breadth-first search from `start`; neighbours(p) lists the points one
    step from p.  Returns the points reached, in discovery order; more than
    `cap` of them overflow the orbit."""
    order, seen = [start], {start}
    for a in order:
        for b in neighbours(a):
            if b not in seen:
                seen.add(b)
                order.append(b)
                if cap is not None and len(order) > cap:
                    raise CapExceededError(f"orbit exceeds cap={cap}")
    return order


def orbit_of(group: SymmetryGroup, code: int) -> tuple[int, ...]:
    """The lex codes of the orbit of the assignment with this code, in
    search order, under the group's cap.

    An assignment-level generator fixes what it does not list, so the search
    steps only along listed pairs: movers[b] holds b's images in generator
    order.  A generator that skips b maps it to itself, already seen."""
    gens, coding = group.generators, group.coding
    if not 0 <= code < coding.space_size:
        raise InputError(f"code {code} outside [0, {coding.space_size})")
    step = lambda b: [g.image_codes([b])[0] for g in gens]
    if gens and isinstance(gens[0], AssignmentSymmetry):
        movers: dict = {}
        for g in gens:
            for b, image in g._map.items():
                movers.setdefault(b, []).append(image)
        step = lambda b: movers.get(b, ())
    return tuple(orbit_search(code, step, cap=group.cap))


def min_in_class(a: Assignment, group: SymmetryGroup, ordering: LexOrdering) -> bool:
    """Is `a` the smallest member of its orbit under the ordering?

    Decided by enumerating the orbit; orbits larger than the group's cap
    raise rather than answer.
    """
    orbit = group.coding.decode(list(orbit_of(group, group.coding.codes([a])[0])))
    return not any(compare(ordering, b, a) == LT for b in orbit)


def dense_orbit_of(group: SymmetryGroup, a: Assignment) -> tuple[Assignment, ...]:
    """The orbit of `a` by applying every generator at every point, in search
    order; more than the group's cap of points raises CapExceededError."""
    gens = group.generators
    return tuple(orbit_search(tuple(a), lambda b: [apply(g, b) for g in gens], cap=group.cap))


def breadth_first_closure(group: SymmetryGroup) -> tuple:
    """Every group element, identity first, by breadth-first search from the
    identity where the neighbours of e are the products gen∘e; more than the
    group's cap of elements raises CapExceededError.  A literal group
    searches over literal tuples, where a product is one gather."""
    gens = group.generators
    if not gens:
        return ()
    if isinstance(gens[0], LiteralSymmetry):
        lits, coding = [g.lits for g in gens], group.coding
        found = orbit_search(tuple(range(len(lits[0]))), lambda e: map(_gatherer(e), lits),
                              cap=group.cap)
        return tuple(LiteralSymmetry(e, coding) for e in found)
    return tuple(orbit_search(identity_like(gens[0]),
                               lambda e: [compose(g, e) for g in gens], cap=group.cap))


def closure_tree(group: SymmetryGroup) -> tuple[tuple[int, int], ...]:
    """For each element of the breadth-first closure after the identity, the
    first (p, k) in order with generators[k] ∘ closure[p] equal to it: the
    record of the breadth-first closure search."""
    closure = breadth_first_closure(group)
    position = {s: i for i, s in enumerate(closure)}
    tree: dict = {}
    for p, s in enumerate(closure):
        for k, g in enumerate(group.generators):
            tree.setdefault(position[compose(g, s)], (p, k))
    tree.pop(0, None)
    return tuple(tree[pos] for pos in range(1, len(closure)))


def walk(tree: Sequence[tuple[int, int]], lists: Sequence[list[int]],
         root: list[int]) -> Iterator[tuple[int, list[int]]]:
    """(position, image list) of each closure element after the identity,
    depth-first over the breadth-first closure tree from the identity's list
    `root`.  A list is one gather of its parent's list through its
    generator's; only the lists on the current path are held."""
    parents = [parent for parent, _ in tree]  # sorted, so each one's children are adjacent
    children = lambda p: iter(range(bisect_left(parents, p) + 1, bisect_right(parents, p) + 1))
    path = [(root, children(0))]
    while path:
        pos = next(path[-1][1], None)
        if pos is None:
            path.pop()
        else:
            path.append((_gatherer(path[-1][0])(lists[tree[pos - 1][1]]), children(pos)))
            yield pos, path[-1][0]


def walked_kept(partition: OrbitPartition, ordering: LexOrdering) -> tuple:
    """Survivors of the leader-full set of the partition's group, per block:
    every closure element's image list by `walk`, compared by `digit_rank`."""
    keys = [digit_rank(ordering, a) for a in partition.group.coding.decode(partition.codes)]
    alive = list(range(len(keys)))
    for _, img in walk(closure_tree(partition.group), partition.images, alive):
        alive = [i for i in alive if keys[i] <= keys[img[i]]]
    return partition.grouped(alive)


def word_chain(group: SymmetryGroup) -> tuple[list[tuple], list[dict]]:
    """Deterministic Schreier–Sims over the group's point permutations (see
    `SymmetryGroup._points`), keeping how each representative was reached:
    (words, trees).  The strong generators are the generators, then one
    residue per word, its factors left to right as indices of earlier ones
    (~s: s⁻¹).  trees[l]: base point l's Schreier tree under the strong
    generators fixing the earlier ones, breadth-first, point -> (parent, s)
    with point = strong[s](parent), None at the base point.  |G| = Π |trees[l]|."""
    gens = group._points()[0]
    ident = tuple(range(len(gens[0]))) if gens else ()
    inverse = lambda p: tuple(sorted(ident, key=p.__getitem__))
    moved = lambda p: next(x for x, y in enumerate(p) if x != y)
    strong, inverses, words = list(gens), list(map(inverse, gens)), []
    # the distinct generators but the identity; those fixing base[0] come back as residues
    fixing = [[k for k, g in enumerate(gens) if g != ident and g not in gens[:k]]]
    base = [moved(gens[k]) for k in fixing[0][:1]]

    def transversal(l: int) -> dict:  # point -> (rep, its inverse, its word, tree edge)
        reps, queue = {base[l]: (ident, ident, (), None)}, [base[l]]
        for p in queue:
            rep, inv, word, _ = reps[p]
            for s in fixing[l]:
                if strong[s][p] not in reps:
                    queue.append(strong[s][p])
                    reps[queue[-1]] = (_gatherer(rep)(strong[s]), _gatherer(inverses[s])(inv),
                                       (s, *word), (p, s))
        return reps

    def residues(l: int) -> Iterator[tuple[tuple[int, ...], tuple, int]]:
        # (residue, word, level it stopped at) of each Schreier generator s∘u not sifting to 1
        for u, _, word, _ in list(levels[l].values()):
            for s in fixing[l]:
                h, sifted = _gatherer(u)(strong[s]), []
                for j in range(l, len(base)):
                    if h[base[j]] not in levels[j]:
                        break
                    _, inv, rep_word, _ = levels[j][h[base[j]]]
                    if rep_word:
                        h = _gatherer(h)(inv)
                        sifted.append(rep_word)
                else:
                    j = len(base)
                    if h == ident:
                        continue
                yield h, (*(~f for w in reversed(sifted) for f in reversed(w)), s, *word), j

    levels = [transversal(l) for l in range(len(base))]
    l = len(base) - 1
    while l >= 0:
        for h, word, j in residues(l):
            if j == len(base):
                base.append(moved(h))
                fixing.append([])
            strong.append(h)
            inverses.append(inverse(h))
            words.append(word)
            for m in range(l + 1, j + 1):
                fixing[m].append(len(strong) - 1)
            levels[l + 1:j + 1] = [transversal(m) for m in range(l + 1, j + 1)]
            l = j
            break
        else:
            l -= 1
    return words, [{p: edge for p, (*_, edge) in reps.items()} for reps in levels]


def _chain_walk(chain: tuple[list[tuple], list[dict]], lists: Sequence[list[int]],
                root: Sequence[int]) -> Iterator[Sequence[int]]:
    """The image list over `root`'s solutions of each element but the identity
    (see `_descend`), from `word_chain` and the generators' `lists`: a residue's
    list is its word's product, a representative's its tree edge's after its parent's."""
    words, trees = chain
    strong = list(lists)
    factor = lambda f: (strong[f] if f >= 0
                        else sorted(range(len(strong[~f])), key=strong[~f].__getitem__))
    for word in words:
        strong.append(reduce(lambda product, f: _gatherer(f)(product), map(factor, word)))
    reps = []
    for tree in trees:
        level: dict = {}
        for point, (parent, s) in islice(tree.items(), 1, None):
            level[point] = _gatherer(level[parent])(strong[s]) if parent in level else strong[s]
        reps.append(list(level.values()))
    return _descend(reps, root, len(reps))


def _descend(reps: list[list[Sequence[int]]], parent: Sequence[int],
             top: int) -> Iterator[Sequence[int]]:
    """Depth-first, rep∘parent for each rep of the levels below `top`, then its
    descendants: every u_0∘u_1∘… once, by one gather, holding only the path."""
    take = _gatherer(parent)
    for l in range(top):
        for rep in reps[l]:
            child = take(rep)
            yield child
            yield from _descend(reps, child, l)


def chain_walked_kept(partition: OrbitPartition, ordering: LexOrdering) -> tuple:
    """Survivors of the leader-full set of the partition's group, per block:
    every element's image list along the stabilizer chain by `_chain_walk`,
    compared by `digit_rank`."""
    keys = [digit_rank(ordering, a) for a in partition.group.coding.decode(partition.codes)]
    alive = list(range(len(keys)))
    for img in _chain_walk(word_chain(partition.group), partition.images, alive):
        alive = [i for i in alive if keys[i] <= keys[img[i]]]
    return partition.grouped(alive)


def digit_map(ordering: LexOrdering) -> tuple:
    """(digits, undigits, radices): the ordering stated as lex over digits,
    digits(p) for an assignment's positions p, undigits the inverse map, and
    radices those of the digits.  Each ordering here is such a map; the
    library states the same bijections on lex codes (`ranks`, `unranks`)."""
    radices = tuple(map(len, ordering.domains))
    if isinstance(ordering, RevLexOrdering):
        flip = lambda p: tuple(r - 1 - x for r, x in zip(radices, p))
        return flip, flip, radices
    if isinstance(ordering, GrayOrdering):
        return (lambda p: tuple(accumulate(p, xor)),
                lambda d: tuple(map(xor, d, (0,) + d[:-1])), radices)
    if isinstance(ordering, SnakeLexOrdering):
        order = ordering.order
        back = sorted(range(len(order)), key=order.__getitem__)
        gather = lambda indices: lambda s: tuple(s[i] for i in indices)
        return gather(order), gather(back), gather(order)(radices)
    if isinstance(ordering, OneInThreeOrdering):
        def flag(p):  # flipped when the prefix is not 1-in-3 satisfiable
            values = tuple(map(getitem, ordering.domains, p[:-1]))
            satisfiable = one_in_three_satisfiable(OneInThreeInstance(
                tuple(values[i:i + 3] for i in range(0, len(values), 3))))
            return p if satisfiable else p[:-1] + (1 - p[-1],)
        return flag, flag, radices
    return tuple, tuple, radices


def digit_rank(ordering: LexOrdering, a: Sequence[int]) -> int:
    """The ordering's rank of `a`: its digits read in mixed radix, digit 0
    most significant."""
    digits, _, radices = digit_map(ordering)
    rank = 0
    for digit, radix in zip(digits(tuple(d.index(v) for d, v in zip(ordering.domains, a))),
                            radices):
        rank = rank * radix + digit
    return rank


def digit_unrank(ordering: LexOrdering, k: int) -> Assignment:
    """The assignment of rank k under the ordering: `digit_rank` inverted."""
    _, undigits, radices = digit_map(ordering)
    digits = []
    for radix in reversed(radices):
        k, digit = divmod(k, radix)
        digits.append(digit)
    return tuple(map(getitem, ordering.domains, undigits(tuple(reversed(digits)))))


def check_assignment(problem: Problem, assignment: Sequence[int]) -> bool:
    """True iff the assignment satisfies every constraint of the problem."""
    if len(assignment) != problem.n:
        raise InputError(f"assignment has arity {len(assignment)}, problem has {problem.n}")
    check_values(problem.domains, enumerate(assignment))
    return all(con.satisfied(assignment) for con in problem.constraints)


def snake_vectorize(values: Sequence[int], shape: Optional[tuple[int, int]]) -> tuple[int, ...]:
    """Serpentine read of a row-major matrix: col 0 top-down, col 1 bottom-up, ..."""
    if shape is None:
        raise InputError("snake vectorization needs a matrix shape")
    check_shape(shape, len(values))
    return tuple(values[v] for v in snake_order(shape))


def snake_order(shape: tuple[int, int]) -> list[int]:
    """Cell indices in serpentine column order: odd columns read bottom-up."""
    r, c = shape
    order = []
    for j in range(c):
        rows = range(r) if j % 2 == 0 else range(r - 1, -1, -1)
        order.extend(i * c + j for i in rows)
    return order


def is_berge_acyclic_chain(decomp: GrayDecomposition) -> bool:
    """Structural check: position blocks form a chain sharing one state each."""
    scopes = [set(con.scope) for _, con in decomp.propagators if len(con.scope) > 1]
    for i, si in enumerate(scopes):
        for j in range(i + 1, len(scopes)):
            overlap = si & scopes[j]
            if j == i + 1:
                if overlap != {decomp.state(i + 1)}:
                    return False
            elif overlap:
                return False
    return True


def set_propagate(decomp: GrayDecomposition, store: DomainStore) -> PropagationOutcome:
    """`gray.propagate` on Python sets: the same FIFO queue of woken
    propagators, each keeping the values that some allowed row within the
    current sets uses, one removal event per dropped value."""
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
            extra = doms[j] - {t[j] for t in valid}
            if extra:
                for v in sorted(extra):
                    trace.removals += 1
                    work.candidates[var].discard(v)
                    if not work.candidates[var]:
                        return PropagationOutcome(True, work, trace)
                changed.append(var)
        for var in changed:
            for other in watchers[var]:
                if other != pid and not queued[other]:
                    queue.append(other)
                    queued[other] = True
    return PropagationOutcome(not all(work.candidates), work, trace)


def tabulated_conjugate(ordering: LexOrdering, group: SymmetryGroup) -> SymmetryGroup:
    """The group with generators π∘g∘π⁻¹, π the rank-preserving bijection
    from lex to `ordering`, tabulated assignment by assignment over the
    full space, with π read off `digit_rank` and `digit_unrank` and each
    generator applied to one assignment at a time."""
    lex, domains = LexOrdering(ordering.domains), ordering.domains
    space = list(all_assignments(domains))
    forward = {a: digit_unrank(ordering, digit_rank(lex, a)) for a in space}
    back = {b: a for a, b in forward.items()}
    return AssignmentGroup(tuple(
        symmetry_from_pairs({b: forward[apply(g, back[b])] for b in space}, domains)
        for g in group.generators), cap=group.cap, coding=lex)


def count_rank_calls(monkeypatch) -> dict:
    """Count the per-assignment `rank` and `unrank` calls of every ordering
    ("rank"): LexOrdering writes both, and no ordering overrides them."""
    calls = {"rank": 0}
    for name in ("rank", "unrank"):
        def counted(self, *args, method=getattr(LexOrdering, name)):
            calls["rank"] += 1
            return method(self, *args)

        monkeypatch.setattr(LexOrdering, name, counted)
    return calls


def map_constraint_set(ordering: LexOrdering,
                       satisfying: Iterable[Assignment]) -> frozenset:
    """Image of an extensionally given constraint set under π, the
    rank-preserving bijection from lex to the ordering."""
    return frozenset(forward(ordering, a) for a in satisfying)
