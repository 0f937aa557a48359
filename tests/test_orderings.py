import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symbreak.model import InputError, binary_domains
from symbreak.orderings import (
    ORDERINGS,
    GrayOrdering,
    LexOrdering,
    RevLexOrdering,
    SnakeLexOrdering,
    applicable_orderings,
    make_ordering,
)

from symbreak.reductions import OneInThreeOrdering

from reference import EQ, GT, LT, compare, forward, inverse, snake_vectorize

# the 4-bit reflected-binary listing, frozen
GRAY4 = ["0000", "0001", "0011", "0010", "0110", "0111", "0101", "0100",
         "1100", "1101", "1111", "1110", "1010", "1011", "1001", "1000"]


def bits(text):
    return tuple(int(ch) for ch in text)


def test_lex_rank_endpoints():
    for n in (1, 4, 9):
        lex = LexOrdering(binary_domains(n))
        assert lex.rank((0,) * n) == 0
        assert lex.rank((0,) * (n - 1) + (1,)) == 1
        assert lex.rank((1,) * n) == 2 ** n - 1


def test_lex_mixed_radix():
    lex = LexOrdering(((0, 1, 2), (5, 7)))
    ordered = [(0, 5), (0, 7), (1, 5), (1, 7), (2, 5), (2, 7)]
    assert [lex.unrank(k) for k in range(6)] == ordered
    assert [lex.rank(a) for a in ordered] == list(range(6))


def test_lex_unrank_out_of_range():
    lex = LexOrdering(binary_domains(3))
    with pytest.raises(InputError):
        lex.unrank(8)
    with pytest.raises(InputError):
        lex.unrank(-1)


def test_gray_known_positions():
    gray = GrayOrdering(binary_domains(4))
    assert gray.rank(bits("0011")) == 2
    assert gray.unrank(7) == bits("0100")
    assert [gray.unrank(k) for k in range(16)] == [bits(s) for s in GRAY4]
    for n in (2, 5, 8):
        g = GrayOrdering(binary_domains(n))
        assert g.rank((1,) + (0,) * (n - 1)) == 2 ** n - 1


def test_gray_rejects_non_binary_domains():
    with pytest.raises(InputError, match="^gray ordering needs two-valued domains$"):
        GrayOrdering(((0, 1, 2), (0, 1)))
    with pytest.raises(InputError, match="^gray ordering needs two-valued domains$"):
        make_ordering("gray", ((0, 1), (0, 1, 2)))


def test_snake_vectorize_examples():
    # 2x2: first column, then the second column reversed
    assert snake_vectorize((1, 2, 3, 4), (2, 2)) == (1, 3, 4, 2)
    # 3x2
    assert snake_vectorize((1, 2, 3, 4, 5, 6), (3, 2)) == (1, 3, 5, 6, 4, 2)
    # single row: column concatenation restores the row
    assert snake_vectorize((4, 5, 6), (1, 3)) == (4, 5, 6)
    with pytest.raises(InputError):
        snake_vectorize((1, 2), None)
    with pytest.raises(InputError):
        snake_vectorize((1, 2, 3), (2, 2))
    with pytest.raises(InputError):
        snake_vectorize((1, 2, 3, 4), (-2, -2))  # four cells, but no matrix


@pytest.mark.parametrize("cls", [LexOrdering, RevLexOrdering, GrayOrdering, SnakeLexOrdering])
def test_ordering_refuses_a_domain_that_repeats_a_value(cls):
    # over (0, 0) x (0, 1), lex would unrank 0 and 2 to the same assignment
    with pytest.raises(InputError, match="^domain of variable 0 repeats a value$"):
        cls(((0, 0), (0, 1)), (1, 2))


def test_snakelex_requires_shape():
    with pytest.raises(InputError, match="^snakelex needs a matrix shape$"):
        SnakeLexOrdering(binary_domains(4), None)
    with pytest.raises(InputError, match=r"^shape \(3, 2\) does not cover 4 variables$"):
        make_ordering("snakelex", binary_domains(4), (3, 2))


def test_compare_basics():
    gray = GrayOrdering(binary_domains(4))
    assert compare(gray, bits("0110"), bits("0110")) == EQ
    assert compare(gray, bits("0010"), bits("0110")) == LT  # positions 3 and 4
    rev = RevLexOrdering(binary_domains(3))
    for a in itertools.product((0, 1), repeat=3):
        if a != (0, 0, 0):
            assert compare(rev, (0, 0, 0), a) == GT


def test_snakelex_compare_matches_vectorized_lex():
    shape = (3, 2)
    snake = SnakeLexOrdering(binary_domains(6), shape)
    lex = LexOrdering(binary_domains(6))
    space = list(itertools.product((0, 1), repeat=6))
    for a, b in itertools.product(space[::7], space[::5]):
        expect = compare(lex, snake_vectorize(a, shape), snake_vectorize(b, shape))
        assert compare(snake, a, b) == expect


def all_orderings(n, shape=None):
    out = [LexOrdering(binary_domains(n)), RevLexOrdering(binary_domains(n)),
           GrayOrdering(binary_domains(n))]
    if shape:
        out.append(SnakeLexOrdering(binary_domains(n), shape))
    return out


@pytest.mark.parametrize("n,shape", [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (6, (3, 2))])
def test_rank_unrank_inverse_exhaustive(n, shape):
    for o in all_orderings(n, shape):
        seen = set()
        for k in range(2 ** n):
            a = o.unrank(k)
            assert o.rank(a) == k
            seen.add(a)
        assert len(seen) == 2 ** n


@given(st.integers(1, 10), st.data())
def test_rank_unrank_round_trip_random(n, data):
    o = data.draw(st.sampled_from(all_orderings(n, None)))
    k = data.draw(st.integers(0, 2 ** n - 1))
    assert o.rank(o.unrank(k)) == k


@given(st.integers(2, 8), st.data())
def test_compare_agrees_with_rank(n, data):
    shape = (2, n // 2) if n % 2 == 0 else None
    o = data.draw(st.sampled_from(all_orderings(n, shape)))
    a = o.unrank(data.draw(st.integers(0, 2 ** n - 1)))
    b = o.unrank(data.draw(st.integers(0, 2 ** n - 1)))
    ra, rb = o.rank(a), o.rank(b)
    expect = LT if ra < rb else GT if ra > rb else EQ
    assert compare(o, a, b) == expect


@given(st.integers(2, 8), st.data())
def test_compare_total_antisymmetric_transitive(n, data):
    o = data.draw(st.sampled_from(all_orderings(n, None)))
    draw_a = lambda: o.unrank(data.draw(st.integers(0, 2 ** n - 1)))
    a, b, c = draw_a(), draw_a(), draw_a()
    assert compare(o, a, b) == -compare(o, b, a)
    assert (compare(o, a, b) == EQ) == (a == b)
    if compare(o, a, b) != GT and compare(o, b, c) != GT:
        assert compare(o, a, c) != GT


def test_gray_adjacency_small():
    for n in range(1, 9):
        o = GrayOrdering(binary_domains(n))
        for k in range(2 ** n - 1):
            diff = sum(x != y for x, y in zip(o.unrank(k), o.unrank(k + 1)))
            assert diff == 1


def test_gray_reflection_small():
    for n in range(2, 9):
        o = GrayOrdering(binary_domains(n))
        half = 2 ** (n - 1)
        lower = [o.unrank(k)[1:] for k in range(half)]
        upper = [o.unrank(k)[1:] for k in range(half, 2 ** n)]
        assert upper == lower[::-1]


# an ordering O is the rank-preserving bijection π from lex to O: the
# assignment at lex rank k goes to the one at O-rank k
def test_rank_preserving_map_identity_for_lex():
    lex = LexOrdering(binary_domains(4))
    for a in itertools.product((0, 1), repeat=4):
        assert forward(lex, a) == a
        assert inverse(lex, a) == a


def test_rank_preserving_map_gray_example():
    assert forward(GrayOrdering(binary_domains(4)), bits("0010")) == bits("0011")


@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_rank_preserving_map_is_bijection(n):
    space = list(itertools.product((0, 1), repeat=n))
    for pi in all_orderings(n, None):
        images = set()
        for a in space:
            fwd = forward(pi, a)
            images.add(fwd)
            assert inverse(pi, fwd) == a
            assert forward(pi, inverse(pi, a)) == a
        assert len(images) == len(space)


def test_orderings_of_one_kind_domains_and_shape_are_equal():
    doms = binary_domains(6)
    for make in (lambda: LexOrdering(doms), lambda: RevLexOrdering(doms),
                 lambda: GrayOrdering(doms), lambda: SnakeLexOrdering(doms, (2, 3))):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("a, b", [
    (LexOrdering(((1, 0),) * 4), LexOrdering(((0, 1),) * 4)),  # domains relisted
    (SnakeLexOrdering(binary_domains(6), (2, 3)), SnakeLexOrdering(binary_domains(6), (3, 2))),
    (RevLexOrdering(binary_domains(4)), LexOrdering(binary_domains(4))),
    (GrayOrdering(binary_domains(3)), GrayOrdering(binary_domains(4))),
], ids=["relisted", "snake-shape", "revlex-lex", "gray-size"])
def test_orderings_differing_in_kind_domains_or_shape_are_unequal(a, b):
    assert a != b and b != a


def test_every_ordering_is_lex_after_a_bijection():
    doms = binary_domains(4)
    assert make_ordering("lex", doms) == LexOrdering(doms)
    assert all(issubclass(cls, LexOrdering) for cls in (*ORDERINGS.values(), OneInThreeOrdering))


def test_one_in_three_orderings_over_one_space_are_equal():
    # the rule reads only the prefix, so the instance the gadget came from
    # is not part of the ordering; ranking keeps no state between calls
    doms = (tuple(range(1, 4)),) * 3 + ((0, 1),)
    first, second = OneInThreeOrdering(doms), OneInThreeOrdering(doms)
    first.ranks(list(range(first.space_size)))
    assert first == second and hash(first) == hash(second) and vars(first) == vars(second)


@pytest.mark.parametrize("domains, shape, names", [
    (binary_domains(4), (2, 2), ["lex", "revlex", "gray", "snakelex"]),
    (binary_domains(4), None, ["lex", "revlex", "gray"]),
    (((0, 1, 2),) * 4, (2, 2), ["lex", "revlex", "snakelex"]),
    (((0, 1, 2), (0, 1)), None, ["lex", "revlex"]),
    (binary_domains(2), (-1, -2), ["lex", "revlex", "gray"]),  # covers 2 cells, but no matrix
])
def test_applicable_orderings_follow_each_orderings_own_check(domains, shape, names):
    assert [o.name for o in applicable_orderings(domains, shape)] == names
