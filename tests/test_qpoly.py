"""Exact polynomial arithmetic: worked examples, ring axioms, text format."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quonstat import ContractViolation, ParseError, QPolynomial
from quonstat.qpoly import _clear_denominators, _field_width, _pack, _unpack

from oracles import mixed_horner, schoolbook_product
from oracles import parse as parse_polynomial

ONE_PLUS_Q = QPolynomial([1, 1])
ONE_MINUS_Q = QPolynomial([1, -1])


def test_add_cancellation():
    assert ONE_PLUS_Q + ONE_MINUS_Q == QPolynomial([2])


def test_add_identity():
    p = QPolynomial([3, 0, Fraction(1, 2)])
    assert QPolynomial.zero() + p == p


def test_reflected_subtraction_hash_and_truth_value():
    assert 1 - ONE_PLUS_Q == QPolynomial([0, -1])
    assert hash(ONE_PLUS_Q) == hash(QPolynomial([Fraction(1), Fraction(2, 2)]))
    assert bool(ONE_PLUS_Q) and not QPolynomial.zero()


@pytest.mark.parametrize("number", [0, 1, -2, Fraction(1, 2)], ids=str)
def test_a_constant_polynomial_equals_and_hashes_as_its_number(number):
    constant = QPolynomial([number])
    assert constant == number and number == constant
    assert hash(constant) == hash(number)
    assert len({constant, number}) == 1
    assert {number: "x"}.get(constant) == "x"
    assert QPolynomial.q() != number


def test_an_operand_that_is_not_a_number_is_refused():
    for operation in (
        lambda p: p + "x", lambda p: p - "x", lambda p: "x" - p, lambda p: p * "x",
    ):
        with pytest.raises(TypeError):
            operation(ONE_PLUS_Q)
    assert not ONE_PLUS_Q == "x"


def test_add_hand_example():
    assert ONE_PLUS_Q + QPolynomial([0, 1, 1]) == QPolynomial([1, 2, 1])


def test_mul_difference_of_squares():
    assert ONE_PLUS_Q * ONE_MINUS_Q == QPolynomial([1, 0, -1])


def test_mul_hand_example():
    assert ONE_PLUS_Q * QPolynomial([1, 1, 1]) == QPolynomial([1, 2, 2, 1])


def test_mul_annihilator():
    assert QPolynomial([2, 5]) * QPolynomial.zero() == QPolynomial.zero()


def test_mul_degree_adds():
    a = QPolynomial([1, 2, 3])
    b = QPolynomial([0, 0, 5])
    assert (a * b).degree == a.degree + b.degree


def test_eval_fermi_and_bose_points():
    assert ONE_PLUS_Q.evaluate(-1) == 0
    assert ONE_PLUS_Q.evaluate(1) == 2


def test_eval_rational_point():
    p = QPolynomial([1, 2, 2, 1])
    assert p.evaluate(Fraction(1, 2)) == Fraction(21, 8)


def test_eval_float_returns_float():
    value = ONE_PLUS_Q.evaluate(0.25)
    assert isinstance(value, float)
    assert value == pytest.approx(1.25)


def test_substitute_power():
    assert ONE_PLUS_Q.substitute_power(4) == QPolynomial([1, 0, 0, 0, 1])
    assert QPolynomial.q().substitute_power(9) == QPolynomial.monomial(9)
    p = QPolynomial([1, Fraction(1, 3), 0, 2])
    assert p.substitute_power(1) == p


def test_substitute_power_rejects_zero():
    with pytest.raises(ContractViolation):
        ONE_PLUS_Q.substitute_power(0)


def test_canonical_trailing_zeros():
    assert QPolynomial([1, 1, 0, 0]) == ONE_PLUS_Q
    assert QPolynomial([0, 0]).is_zero()
    assert QPolynomial([0]).degree == -1
    assert [QPolynomial([1, 1, 0, 0]).coefficient(k) for k in range(4)] == [1, 1, 0, 0]


def test_str_examples():
    assert str(QPolynomial([1, 2, 2, 1])) == "1 + 2*q + 2*q^2 + q^3"
    assert str(QPolynomial.zero()) == "0"
    assert str(QPolynomial([2, -2])) == "2 - 2*q"
    assert str(QPolynomial([0, -1, Fraction(1, 2)])) == "-q + 1/2*q^2"
    assert str(QPolynomial([Fraction(-3, 2)])) == "-3/2"


def test_parse_examples():
    assert parse_polynomial("1 + 2*q + 2*q^2 + q^3") == QPolynomial([1, 2, 2, 1])
    assert parse_polynomial("0") == QPolynomial.zero()
    assert parse_polynomial("q") == QPolynomial.q()
    assert parse_polynomial("-q + 1/2*q^2") == QPolynomial([0, -1, Fraction(1, 2)])
    assert parse_polynomial("2 - 2*q") == QPolynomial([2, -2])


def canonical(p):
    """Every coefficient an int where integral and a Fraction only where not."""
    return all(
        type(c) is (int if c.denominator == 1 else Fraction) for c in p.coefficients
    )


def test_integral_results_hold_ints():
    half = QPolynomial([Fraction(1, 2), Fraction(3, 2)])
    for p in (half + half, half - QPolynomial([Fraction(1, 2)]), half * 2, half * half):
        assert canonical(p)
    assert (half + half).coefficients == (1, 3)
    assert (QPolynomial([Fraction(1, 2)]) * 2).coefficients == (1,)
    assert (half * half).coefficients == (Fraction(1, 4), Fraction(3, 2), Fraction(9, 4))
    assert type(QPolynomial([Fraction(4, 2)]).coefficients[0]) is int
    assert type(half.coefficient(7)) is int
    assert QPolynomial([0.5]).coefficients == (Fraction(1, 2),)
    assert type(QPolynomial([0.5]).coefficients[0]) is Fraction
    parsed = parse_polynomial("1/2 + 4/2*q")
    assert parsed.coefficients == (Fraction(1, 2), 2) and canonical(parsed)
    assert type(parse_polynomial("1/2 + 1/2").coefficients[0]) is int


def test_parse_rejects_garbage():
    for bad in ("", "q^", "1 +", "x + 1", "q^-2", "1/0", "1/0*q"):
        with pytest.raises(ParseError):
            parse_polynomial(bad)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)
polys = st.lists(rationals, max_size=8).map(QPolynomial)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys, polys, st.integers(min_value=0, max_value=6))
def test_arithmetic_results_are_canonical(a, b, k):
    results = (a, a + b, a - b, a * b, -a, a.substitute_power(3), a.shift(k), parse_polynomial(str(a)))
    for p in results:
        assert canonical(p), p.coefficients
    assert a.shift(k) == QPolynomial.monomial(k) * a


def test_shift_keeps_zero_zero():
    assert QPolynomial.zero().shift(5).coefficients == ()


def test_shift_refuses_a_negative_power():
    for shift in (QPolynomial.one().shift, QPolynomial.zero().shift, QPolynomial.monomial):
        with pytest.raises(ContractViolation, match="power must be >= 0"):
            shift(-1)


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(a, b, x):
    assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


@given(polys)
def test_str_parse_roundtrip(p):
    assert parse_polynomial(str(p)) == p


@given(polys, st.integers(min_value=1, max_value=5), rationals)
def test_substitution_commutes_with_eval(p, m, x):
    assert p.substitute_power(m).evaluate(x) == p.evaluate(x**m)


@given(
    st.lists(st.fractions(max_denominator=10**12), max_size=40).map(QPolynomial),
    st.floats(min_value=-1.5, max_value=1.5),
)
def test_float_evaluation_is_bit_identical_to_mixed_horner(p, x):
    value = p.evaluate(x)
    assert isinstance(value, float)
    assert value == mixed_horner(p, x)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_coefficient_is_a_contract_violation(value):
    with pytest.raises(ContractViolation, match=f"coefficient {value} is not a finite rational"):
        QPolynomial([1, value])


BIG = 10**40
codec_values = st.lists(
    st.one_of(
        st.just(0),
        st.integers(min_value=-BIG, max_value=BIG),
        st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**6),
    ),
    max_size=30,
)


@given(codec_values)
@example([BIG, -BIG, 0])
@example([0, Fraction(-BIG, 7), Fraction(1, 3)])
@example([0, 0])
def test_codec_round_trip(values):
    # the widest field, |c| = max |c|, sits at the bound of its width
    ints, scale = _clear_denominators(values)
    width = _field_width(max(map(abs, ints), default=0))
    decoded = _unpack(_pack(ints, width), width, scale)
    expected = QPolynomial(values)
    assert decoded.coefficients == expected.coefficients
    assert list(map(type, decoded.coefficients)) == list(map(type, expected.coefficients))


int_polys = st.lists(st.integers(min_value=-(10**12), max_value=10**12), max_size=60)
fraction_polys = st.lists(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4), max_size=60
)
# every product at the largest magnitude and of one sign: the sums reach the field bound
constant_polys = st.builds(
    lambda c, k: [c] * k, st.integers(min_value=-(10**20), max_value=10**20), st.integers(0, 60)
)
product_polys = st.one_of(int_polys, fraction_polys, constant_polys).map(QPolynomial)


@given(product_polys, product_polys)
@example(QPolynomial([1] * 60), QPolynomial([1] * 60))
@example(QPolynomial([-1] * 60), QPolynomial([1] * 3))
def test_mul_matches_the_schoolbook_product(a, b):
    product, expected = a * b, schoolbook_product(a, b)
    assert product.coefficients == expected.coefficients
    assert list(map(type, product.coefficients)) == list(map(type, expected.coefficients))
