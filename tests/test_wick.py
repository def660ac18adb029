"""Wick engine: contraction examples, oracle/DP agreement, limit laws."""

import random
from fractions import Fraction
from itertools import product

import pytest
from oracles import level_dp_q_permanent

from quonstat import (
    CapExceeded,
    ContractViolation,
    ModeLabel,
    QPolynomial,
    all_permutations,
    delta_matrix,
    inversion_number,
    oracle_q_permanent,
    oracle_scalar_product,
    q_permanent,
    scalar_product,
)
from quonstat.wick import contract_terms

K1, K2, K3 = ModeLabel("k1"), ModeLabel("k2"), ModeLabel("k3")
K = ModeLabel("k")


def _q_factorial(n):
    result = QPolynomial.one()
    for m in range(1, n + 1):
        result = result * QPolynomial([1] * m)
    return result


def test_scalar_product_two_distinct_same_order():
    assert scalar_product((K1, K2), (K1, K2)) == QPolynomial.one()


def test_scalar_product_two_distinct_swapped():
    assert scalar_product((K1, K2), (K2, K1)) == QPolynomial.q()


def test_scalar_product_repeated_label():
    assert scalar_product((K, K), (K, K)) == QPolynomial([1, 1])


def test_scalar_product_length_mismatch():
    assert scalar_product((K1, K2), (K1, K2, K3)) == QPolynomial.zero()
    assert oracle_scalar_product((K1,), ()) == QPolynomial.zero()


def test_empty_words():
    assert scalar_product((), ()) == QPolynomial.one()


def test_mode_label_delta_needs_both_fields():
    assert ModeLabel("x", "p1") != ModeLabel("x", "p2")
    assert ModeLabel("x", "p1") == ModeLabel("x", "p1")
    assert delta_matrix([ModeLabel("x", "p1")], [ModeLabel("x")]) == [[0]]


def test_q_permanent_examples():
    assert q_permanent([[1, 0], [0, 1]]) == QPolynomial.one()
    assert q_permanent([[1, 1], [1, 1]]) == QPolynomial([1, 1])
    assert q_permanent([[1] * 3 for _ in range(3)]) == QPolynomial([1, 2, 2, 1])


def test_q_permanent_rejects_non_square():
    with pytest.raises(ContractViolation):
        q_permanent([[1, 0], [1]])


def test_q_permanent_cap():
    with pytest.raises(CapExceeded):
        q_permanent([[1] * 17 for _ in range(17)])
    with pytest.raises(CapExceeded):
        oracle_q_permanent([[1] * 10 for _ in range(10)])
    # scalar_product keeps the q_permanent cap on word length
    word = tuple(ModeLabel(i) for i in range(17))
    with pytest.raises(CapExceeded):
        scalar_product(word, word)
    assert scalar_product(word, word[:16]) == QPolynomial.zero()


def test_oracle_q_permanent_is_capped_as_work_over_s_n():
    ones = [[1] * 8 for _ in range(8)]
    assert oracle_q_permanent(ones) == q_permanent(ones)
    with pytest.raises(CapExceeded, match=r"S_9 \(9! elements\); cap is 8"):
        oracle_q_permanent([[1] * 9 for _ in range(9)])


def test_scalar_product_cap_names_word_length():
    word = tuple(ModeLabel(i) for i in range(17))
    with pytest.raises(CapExceeded, match="16 letters per word, got 17"):
        scalar_product(word, word)


def test_q_permanent_zero_row_and_column():
    assert q_permanent([[0, 0], [1, 1]]) == QPolynomial.zero()
    assert q_permanent([[1, 0], [1, 0]]) == QPolynomial.zero()


def test_oracle_equivalence_exhaustive_small():
    for n in (1, 2):
        for bits in product((0, 1), repeat=n * n):
            matrix = [list(bits[i * n : (i + 1) * n]) for i in range(n)]
            assert q_permanent(matrix) == oracle_q_permanent(matrix)


def test_oracle_equivalence_sampled():
    rng = random.Random(20260810)
    for n in (3, 4, 5):
        for _ in range(60):
            matrix = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            assert q_permanent(matrix) == oracle_q_permanent(matrix)

    # negative, huge and rational entries: the packed fields of the DP must
    # be wide enough and signed, and row denominators must be restored
    def entry():
        kind = rng.randrange(5)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-3, 3)
        if kind == 2:
            return rng.choice((-1, 1)) * rng.randint(2**70, 2**72)
        return Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**15))

    for n in range(1, 7):
        for _ in range(15):
            matrix = [[entry() for _ in range(n)] for _ in range(n)]
            assert q_permanent(matrix) == oracle_q_permanent(matrix)
    # rows whose bijection products cancel exactly
    assert q_permanent([[1, 1], [1, -1]]) == QPolynomial([-1, 1])
    assert q_permanent([[2**80, 2**80], [2**80, -(2**80)]]) == QPolynomial([-(2**160), 2**160])


def test_scalar_product_matches_oracle_on_random_words():
    rng = random.Random(99)
    pool = [ModeLabel(i) for i in range(3)] + [ModeLabel(0, "t")]
    for _ in range(200):
        length = rng.randint(0, 7)
        left = tuple(rng.choice(pool) for _ in range(length))
        # half the right words permute the left multiset, half are drawn
        # independently, so label multisets often differ
        if rng.random() < 0.5:
            right = tuple(rng.sample(left, length))
        else:
            right = tuple(rng.choice(pool) for _ in range(length))
        expected = oracle_scalar_product(left, right)
        assert scalar_product(left, right) == expected
        assert q_permanent(delta_matrix(left, right)) == expected


def test_permuted_distinct_word_gives_inversion_monomial():
    for n in range(1, 7):
        labels = tuple(ModeLabel(i) for i in range(n))
        for p in all_permutations(n):
            permuted = tuple(labels[i - 1] for i in p)
            expected = QPolynomial.monomial(inversion_number(p))
            assert scalar_product(labels, permuted) == expected


def test_identical_labels_word_gives_q_factorial():
    for n in range(1, 7):
        word = tuple(ModeLabel("k") for _ in range(n))
        got = scalar_product(word, word)
        assert got == _q_factorial(n)
        if n <= 6:
            assert got == oracle_scalar_product(word, word)


def test_repeated_label_vanishes_at_fermi_point():
    rng = random.Random(7)
    pool = [ModeLabel(i) for i in range(4)]
    for _ in range(60):
        length = rng.randint(2, 6)
        left = [rng.choice(pool) for _ in range(length)]
        # force a repeat on the left side
        left[rng.randrange(length)] = left[rng.randrange(length)]
        while len(set(left)) == len(left):
            left[0] = left[1]
        right = [rng.choice(pool) for _ in range(length)]
        value = scalar_product(tuple(left), tuple(right)).evaluate(-1)
        assert value == 0


def test_squared_norms_nonnegative_inside_range():
    rng = random.Random(13)
    pool = [ModeLabel(i) for i in range(3)]
    points = [-1.0, -0.7, -0.3, 0.0, 0.4, 0.8, 1.0]
    for _ in range(40):
        length = rng.randint(1, 5)
        word = tuple(rng.choice(pool) for _ in range(length))
        norm = scalar_product(word, word)
        for x in points:
            assert norm.evaluate(x) >= -1e-12


def _one_hole(n, rng):
    holes = list(range(n))
    rng.shuffle(holes)
    return [[0 if j == holes[i] else 1 for j in range(n)] for i in range(n)]


def test_q_permanent_matches_level_dp_past_the_brute_force_cap():
    rng = random.Random(20261019)
    matrices = [_one_hole(n, rng) for n in (13, 14, 16)]
    perm = list(range(16))
    rng.shuffle(perm)
    matrices.append([[1 if j == perm[i] else 0 for j in range(16)] for i in range(16)])
    matrices.append([[1 if abs(i - j) <= 2 else 0 for j in range(16)] for i in range(16)])
    # a 30 %-dense 0/1 matrix; a zero line would end both DPs before the loop
    dense30 = [[0] * 16]
    while any(not any(row) for row in dense30) or not all(map(any, zip(*dense30))):
        dense30 = [[1 if rng.random() < 0.3 else 0 for _ in range(16)] for _ in range(16)]
    matrices.append(dense30)
    ab = tuple(ModeLabel(x) for x in "ab" * 8)
    matrices.append(delta_matrix(ab, ab))
    for n in (9, 10):
        for _ in range(3):
            matrices.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            matrices.append(
                [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
            )
    for matrix in matrices:
        assert len(matrix) >= 9
        with pytest.raises(CapExceeded):
            oracle_q_permanent(matrix)
        assert q_permanent(matrix) == level_dp_q_permanent(matrix)


def test_q_permanent_of_all_ones_at_the_cap_is_the_q_factorial():
    ones = [[1] * 16 for _ in range(16)]
    expected = _q_factorial(16)
    assert q_permanent(ones) == expected
    assert level_dp_q_permanent(ones) == expected


def test_q_permanent_when_a_frontier_slot_cancels():
    # four of the block's six bijection terms are nonzero, and they cancel
    block = [[1, 1, 1], [1, 0, 1], [1, -1, 1]]
    assert q_permanent(block) == oracle_q_permanent(block) == QPolynomial.zero()
    rng = random.Random(5)
    for n in (6, 9, 12):
        # block-diagonal: the cancelled slot is the only one its row reached
        diagonal = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i < 3 and j < 3:
                    diagonal[i][j] = block[i][j]
                elif i >= 3 and j >= 3:
                    diagonal[i][j] = rng.randint(1, 2)
        # the block's rows also reach other columns, so the run goes on
        # past the cancelled slot
        spread = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        for i in range(3):
            spread[i][:3] = block[i]
        for matrix in (diagonal, spread):
            expected = level_dp_q_permanent(matrix)
            if n <= 8:
                assert expected == oracle_q_permanent(matrix)
            assert q_permanent(matrix) == expected
        assert q_permanent(diagonal) == QPolynomial.zero()
    # a slot that cancels to zero and is then reached again in the same row
    # is listed twice in the frontier; it must be pushed once
    twice = [[1, 0, 1, -1], [0, 1, 0, 1], [-1, 1, 1, 1], [-1, 1, 1, 1]]
    assert q_permanent(twice) == oracle_q_permanent(twice)



def test_contract_terms_runs_on_words_past_the_recursion_limit():
    word = tuple(ModeLabel(i) for i in range(1500))
    assert contract_terms([(word, 1)], [(word, 1)]) == QPolynomial.one()
    # the last two letters swapped: the trie branches just above its leaves
    swapped = word[:-2] + word[:-3:-1]
    terms = [(word, 1), (swapped, 1)]
    assert contract_terms(terms, terms) == QPolynomial([2, 2])


def test_engine_and_dp_results_hold_ints_where_integral():
    def types(p):
        return tuple(type(c) for c in p.coefficients)

    ones = q_permanent([[1, 1, 1]] * 3)
    assert ones == _q_factorial(3) and set(types(ones)) == {int}
    # a Fraction entry whose products are all integral
    assert types(q_permanent([[Fraction(1, 2), 1], [1, 2]])) == (int, int)
    third = q_permanent([[Fraction(1, 3), 1], [1, 1]])
    assert third.coefficients == (Fraction(1, 3), 1) and types(third) == (Fraction, int)
    word = (K1, K2)
    halves = contract_terms([(word, Fraction(1, 2))], [(word, 2), (word[::-1], Fraction(1, 2))])
    assert halves.coefficients == (1, Fraction(1, 4)) and types(halves) == (int, Fraction)
    assert set(types(scalar_product((K, K, K1), (K1, K, K)))) == {int}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_q_permanent_refuses_a_non_finite_entry(value):
    with pytest.raises(ContractViolation, match=f"coefficient {value} is not a finite rational"):
        q_permanent([[value]])
