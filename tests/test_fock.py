"""State construction, normalization polynomials, Gram matrices, weights."""

import functools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quonstat import (
    CapExceeded,
    ContractViolation,
    GramMatrix,
    ModeLabel,
    QPolynomial,
    RepCoefficients,
    StateVector,
    UnsupportedError,
    all_permutations,
    build_state,
    character_table,
    compose,
    gram,
    inverse,
    inversion_number,
    irrep_blocks,
    irrep_weight_polys,
    irrep_weights,
    normalization_poly,
    oracle_scalar_product,
    permutation_basis,
    preset_rep,
    psd_report,
    random_rep,
    state_scalar_product,
    tensor,
)
from quonstat import fock

from oracles import (
    MIN_EIGENVALUE_QS,
    MIN_EIGENVALUES,
    exact_pivots,
    pairwise_irrep_weights,
    projected_norm_irrep_weights,
)

A, B, C = ModeLabel("a"), ModeLabel("b"), ModeLabel("c")


def labels(n):
    return [ModeLabel(i) for i in range(1, n + 1)]


def q_factorial(n):
    out = QPolynomial.one()
    for m in range(1, n + 1):
        out = out * QPolynomial([1] * m)
    return out


def signed_q_factorial(n):
    out = QPolynomial.one()
    for m in range(1, n + 1):
        out = out * QPolynomial([(-1) ** k for k in range(m)])
    return out


def test_build_state_symmetric_pair():
    state = build_state((A, B), preset_rep(2, "symmetric"))
    assert state.terms == {(A, B): 1, (B, A): 1}


def test_build_state_antisymmetric_pair():
    state = build_state((A, B), preset_rep(2, "antisymmetric"))
    assert state.terms == {(A, B): 1, (B, A): -1}


def test_build_state_antisymmetric_triple():
    state = build_state((A, B, C), preset_rep(3, "antisymmetric"))
    assert len(state.terms) == 6
    assert state.terms[(C, B, A)] == -1
    assert state.terms[(B, C, A)] == 1


def test_build_state_arity_mismatch():
    with pytest.raises(ContractViolation):
        build_state((A,), preset_rep(2, "symmetric"))


def test_state_vector_merges_and_drops_zeros():
    sv = StateVector({(A, B): Fraction(1, 2)})
    assert sv.terms == {(A, B): Fraction(1, 2)}
    with pytest.raises(ContractViolation):
        StateVector({(A,): 1, (A, B): 1})
    assert StateVector({}).word_length() == 0


def test_build_state_cancels_on_repeated_labels():
    # both place permutations of (a, a) give the same word; antisymmetric
    # coefficients cancel it away entirely
    state = build_state((A, A), preset_rep(2, "antisymmetric"))
    assert state.terms == {}
    assert state_scalar_product(state, state) == QPolynomial.zero()
    sym = build_state((A, A), preset_rep(2, "symmetric"))
    assert sym.terms == {(A, A): 2}


def test_tensor_concatenates():
    s1 = build_state((A, B), preset_rep(2, "antisymmetric"))
    s2 = StateVector({(C,): Fraction(2)})
    prod = tensor(s1, s2)
    assert prod.terms == {(A, B, C): 2, (B, A, C): -2}


def test_states_hold_ints_where_integral():
    state = build_state((A, B, C), preset_rep(3, "antisymmetric"))
    assert {type(c) for c in state.terms.values()} == {int}
    assert state == StateVector({w: Fraction(c) for w, c in state.terms.items()})
    for c in state.terms.values():
        assert hash(c) == hash(Fraction(c))
    mixed = StateVector({(A, B): Fraction(6, 3), (B, A): Fraction(1, 2), (A, A): Fraction(1, 2)})
    assert mixed.terms == {(A, B): 2, (B, A): Fraction(1, 2), (A, A): Fraction(1, 2)}
    assert type(mixed.terms[(A, B)]) is int and type(mixed.terms[(B, A)]) is Fraction
    # a sum of Fractions that is integral is stored as an int
    halves = RepCoefficients(2, {(1, 2): Fraction(1, 2), (2, 1): Fraction(3, 2)})
    halves = build_state((A, A), halves)
    assert halves.terms == {(A, A): 2} and type(halves.terms[(A, A)]) is int
    prod = tensor(mixed, StateVector({(C,): Fraction(4, 2)}))
    assert prod.terms == {(A, B, C): 4, (B, A, C): 1, (A, A, C): 1}
    assert {type(c) for c in prod.terms.values()} == {int}
    assert type(tensor(mixed, StateVector({(C,): 3})).terms[(B, A, C)]) is Fraction


@pytest.mark.parametrize("kind", ["symmetric", "antisymmetric"])
def test_normalization_poly_contracts_int_coefficients(monkeypatch, kind):
    # a preset is dense: its norm packs the rep's int coefficients over
    # S_4 as they are, with no denominator, and takes no engine call
    seen = []
    cleared = []
    clear_denominators = fock._clear_denominators

    def spy(values):
        values = list(values)
        seen.extend(map(type, values))
        out = clear_denominators(values)
        cleared.append(out[1])
        return out

    def no_engine(left, right):
        raise AssertionError("the norm of a dense rep must not call the engine")

    monkeypatch.setattr(fock, "_clear_denominators", spy)
    monkeypatch.setattr(fock, "contract_terms", no_engine)
    norm = normalization_poly(preset_rep(4, kind), labels(4))
    assert norm == (q_factorial(4) if kind == "symmetric" else signed_q_factorial(4)) * 24
    assert {type(c) for c in norm.coefficients} == {int}
    assert len(seen) == 24 and set(seen) == {int}
    assert cleared == [1]


def test_normalization_poly_examples():
    assert normalization_poly(preset_rep(2, "symmetric"), labels(2)) == QPolynomial([2, 2])
    assert normalization_poly(preset_rep(2, "antisymmetric"), labels(2)) == QPolynomial([2, -2])
    assert normalization_poly(preset_rep(3, "symmetric"), labels(3)) == QPolynomial(
        [6, 12, 12, 6]
    )


def test_normalization_poly_rejects_repeated_labels():
    with pytest.raises(UnsupportedError):
        normalization_poly(preset_rep(2, "symmetric"), (A, A))


def test_normalization_closed_forms():
    for n in range(1, 9):
        n_fact = math.factorial(n)
        assert normalization_poly(preset_rep(n, "symmetric"), labels(n)) == (
            n_fact * q_factorial(n)
        )
        assert normalization_poly(preset_rep(n, "antisymmetric"), labels(n)) == (
            n_fact * signed_q_factorial(n)
        )


def test_normalization_excludes_wrong_symmetry_at_endpoints():
    for n in range(2, 6):
        assert normalization_poly(preset_rep(n, "antisymmetric"), labels(n)).evaluate(1) == 0
        assert normalization_poly(preset_rep(n, "symmetric"), labels(n)).evaluate(-1) == 0


def test_normalization_degree_bound_random_reps():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(5):
            rep = random_rep(n, rng)
            poly = normalization_poly(rep, labels(n))
            assert poly.degree <= n * (n - 1) // 2


def test_normalization_matches_brute_force_double_sum():
    # independent oracle: sum over permutation pairs of c(P)c(P') q^{i(P^-1 P')}
    rng = random.Random(17)
    for n in (2, 3, 4):
        rep = random_rep(n, rng)
        expected = QPolynomial.zero()
        for p, cp in rep.coeffs.items():
            for s, cs in rep.coeffs.items():
                power = inversion_number(compose(inverse(p), s))
                expected = expected + cp * cs * QPolynomial.monomial(power)
        assert normalization_poly(rep, labels(n)) == expected


def _rep_on(n, support, rng, fraction):
    """A rep over ``support`` with nonzero coefficients of mixed sign,
    Fractions with denominators up to 4 when ``fraction``."""
    coeffs = {}
    for p in support:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        coeffs[p] = Fraction(c, rng.randint(1, 4)) if fraction else c
    if fraction:
        coeffs[support[0]] = Fraction(1, 3)
    return RepCoefficients(n, coeffs)


def _cancelling_reps(n, fraction):
    """Reps whose coefficients sum to zero or alternate in sign, so the
    sums inside the norm cancel: the sign rep, and +1 / -1 by whether
    the first image is below the last."""
    unit = Fraction(1, 3) if fraction else 1
    signs = preset_rep(n, "antisymmetric").coeffs
    yield RepCoefficients(n, {p: unit * c for p, c in signs.items()})
    if n >= 2:
        yield RepCoefficients(n, {p: unit if p[0] < p[-1] else -unit for p in signs})


@pytest.mark.parametrize("fraction", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("n", range(1, 8))
def test_normalization_poly_matches_the_engine(monkeypatch, n, fraction):
    # the dense path against the engine's contraction of the state with
    # itself, on both sides of the rule s * n >= n! and on reps that cancel
    rng = random.Random(100 * n + fraction)
    perms = list(all_permutations(n))
    n_fact = math.factorial(n)
    sizes = sorted({s for s in (1, n_fact // n - 1, n_fact // n, n_fact) if s >= 1})
    reps = [_rep_on(n, rng.sample(perms, s), rng, fraction) for s in sizes]
    reps += _cancelling_reps(n, fraction)
    dense = []
    regular_norm = fock._regular_norm

    def spy(rep):
        dense.append(rep)
        return regular_norm(rep)

    monkeypatch.setattr(fock, "_regular_norm", spy)
    for rep in reps:
        state = build_state(labels(n), rep)
        want = state_scalar_product(state, state)
        got = normalization_poly(rep, labels(n))
        assert got == want
        assert list(map(type, got.coefficients)) == list(map(type, want.coefficients))
    assert dense == [rep for rep in reps if len(rep.coeffs) * n >= n_fact]


def test_normalization_poly_checks_its_labels_on_both_paths():
    sparse = RepCoefficients(4, {(1, 2, 3, 4): 1})
    for rep in (preset_rep(4, "symmetric"), sparse):
        with pytest.raises(UnsupportedError):
            normalization_poly(rep, (A, B, A, C))
        with pytest.raises(ContractViolation) as built:
            build_state((A, B, C), rep)
        with pytest.raises(ContractViolation) as normed:
            normalization_poly(rep, (A, B, C))
        assert str(normed.value) == str(built.value) == "got 3 labels for a rep over S_4"


def test_gram_two_distinct_orders():
    g = gram([(A, B), (B, A)])
    assert g.entries[0][0] == QPolynomial.one()
    assert g.entries[0][1] == QPolynomial.q()
    assert g.entries[1][0] == QPolynomial.q()


def test_gram_single_word():
    g = gram([(A,)])
    assert g.entries == ((QPolynomial.one(),),)


def test_gram_rejects_mixed_lengths():
    with pytest.raises(ContractViolation):
        gram([(A,), (A, B)])


def test_gram_canonical_entry_law():
    # entry(P, Q) = q^{i(P^-1 Q)} on the full permutation basis
    for n in range(2, 5):
        perms = list(all_permutations(n))
        basis = permutation_basis(labels(n))
        g = gram(basis)
        for i, p in enumerate(perms):
            for j, s in enumerate(perms):
                expected = QPolynomial.monomial(inversion_number(compose(inverse(p), s)))
                assert g.entries[i][j] == expected


def test_gram_symmetric_and_matches_oracle():
    basis = permutation_basis([A, B, C])
    g = gram(basis)
    for i in range(6):
        for j in range(6):
            assert g.entries[i][j] == g.entries[j][i]
            assert g.entries[i][j] == oracle_scalar_product(g.words[i], g.words[j])


def test_gram_calls_the_engine_once_per_distinct_product(monkeypatch):
    engine = fock.scalar_product
    calls = []

    def counted(left, right):
        calls.append((left, right))
        return engine(left, right)

    monkeypatch.setattr(fock, "scalar_product", counted)
    for n in range(3, 6):
        calls.clear()
        g = gram(permutation_basis(labels(n)))
        assert len(calls) == math.factorial(n)
        # every entry is one of the n! computed objects
        assert len({id(e) for row in g.entries for e in row}) == math.factorial(n)


def test_gram_evaluation_is_bit_identical_to_per_entry_evaluation():
    shared = gram(permutation_basis([A, A, B, C]))
    # equal entries held as distinct objects, next to unequal ones
    hand_built = GramMatrix(
        words=((A, B), (B, A), (A, A)),
        entries=(
            (QPolynomial([1, 2]), QPolynomial([Fraction(1, 3), -1]), QPolynomial([1, 2])),
            (QPolynomial([Fraction(1, 3), -1]), QPolynomial([0, 0, 5]), QPolynomial([1, 2])),
            (QPolynomial([1, 2]), QPolynomial([1, 2]), QPolynomial([-2, 0, 1])),
        ),
    )
    assert hand_built.entries[0][0] is not hand_built.entries[0][2]
    for g in (shared, hand_built):
        for q in (0.5, -0.3, 1.7, -1.0, 1e-3):
            numeric = g.evaluate(q)
            assert numeric == [[e.evaluate(q) for e in row] for row in g.entries]
            assert all(type(value) is float for row in numeric for value in row)


def zagier_determinant(n, q):
    """Zagier's product for det gram(permutation_basis(n))."""
    det = Fraction(1)
    for k in range(1, n):
        power, rem = divmod((n - k) * math.factorial(n), k * (k + 1))
        assert rem == 0
        det *= (1 - q ** (k * (k + 1))) ** power
    return det


def test_gram_exact_determinant_and_pivots():
    # exact certificate beside the float eigenvalue check: at rational q
    # inside (-1, 1) the permutation-basis Gram matrix is positive definite
    # and its determinant is Zagier's product
    for n in range(2, 5):
        g = gram(permutation_basis(labels(n)))
        for q in (Fraction(1, 2), Fraction(-1, 3)):
            pivots = exact_pivots([[e.evaluate(q) for e in row] for row in g.entries])
            assert len(pivots) == g.dimension
            assert all(p > 0 for p in pivots)
            assert math.prod(pivots) == zagier_determinant(n, q)


def test_irrep_weights_are_projected_norms_matching_pairwise_sum(monkeypatch):
    # no Gram matrix, no state norm and no engine call; the oracles run
    # afterwards through the unpatched functions
    def no_engine(*args):
        raise AssertionError("irrep_weight_polys must not contract states")

    polys = {}
    with monkeypatch.context() as patch:
        for name in ("gram", "normalization_poly", "contract_terms", "scalar_product"):
            patch.setattr(fock, name, no_engine)
        for n in range(2, 7):
            polys[n] = irrep_weight_polys(n)
    for n in range(2, 7):
        assert polys[n] == projected_norm_irrep_weights(n)
        if n <= 4:
            assert polys[n] == pairwise_irrep_weights(n)


def test_check_psd_examples(monkeypatch):
    word = labels(2)
    report = psd_report(word, 0.5)
    assert report.passed
    assert report.min_eigenvalue == pytest.approx(0.5)
    report = psd_report(word, -1.0)
    assert report.passed
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    report = psd_report(word, -1.5)
    assert not report.passed
    assert report.min_eigenvalue == pytest.approx(-0.5)
    assert not report.q_in_range
    assert report.witness == "trivial"
    # the threshold is fixed at -1e-10 * n!: -2e-10 for ab, -6e-10 for abc.
    # At q = 0.5 the blocks are unscaled, so every block's minimum is the
    # patched value itself, and a failure names the first irrep, trivial
    for word, inside, outside in (("ab", -1.99e-10, -2.01e-10), ("abc", -5.99e-10, -6.01e-10)):
        for value, passed in ((inside, True), (outside, False)):
            monkeypatch.setattr(fock, "_min_eigenvalue", lambda block: value)
            report = psd_report(word, 0.5)
            assert (report.passed, report.witness) == (passed, None if passed else "trivial")
            assert report.min_eigenvalue == value


def test_psd_check_refuses_an_empty_matrix():
    with pytest.raises(ContractViolation, match="non-empty"):
        psd_report([], 0.5)


def test_gram_refuses_more_than_720_words_at_once(monkeypatch):
    def no_engine(*args):
        raise AssertionError("gram contracted a pair before refusing")

    monkeypatch.setattr(fock, "scalar_product", no_engine)
    with pytest.raises(CapExceeded, match="capped at 720 words, got 5040"):
        gram(permutation_basis("abcdefg"))


def test_gram_refuses_words_past_the_engine_cap_before_contracting(monkeypatch):
    def no_engine(*args):
        raise AssertionError("gram contracted a pair before refusing")

    monkeypatch.setattr(fock, "scalar_product", no_engine)
    word = tuple(labels(17))
    with pytest.raises(CapExceeded, match="capped at 16 letters per word, got 17"):
        gram([word, word[::-1]])


def test_gram_evaluation_refuses_non_finite_q():
    g = gram(permutation_basis(labels(2)))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation):
            g.evaluate(value)
    # finite q whose cube overflows a float
    g = gram(permutation_basis(labels(3)))
    with pytest.raises(ContractViolation, match=r"q = 1e\+200"):
        g.evaluate(1e200)



def _determinant(rows):
    """Float determinant by Gaussian elimination with partial pivoting."""
    a = [list(row) for row in rows]
    det = 1.0
    for k in range(len(a)):
        pivot = max(range(k, len(a)), key=lambda i: abs(a[i][k]))
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def test_block_determinants_give_zagiers_determinant():
    # det gram(permutation_basis(n)) = prod over irreps of det(block)^dim,
    # checked against Zagier's product up to n = 6 (720 x 720)
    for n in range(2, 7):
        table = character_table(n)
        for q in (Fraction(1, 2), Fraction(-1, 3)):
            blocks = irrep_blocks(n, float(q))
            product = math.prod(
                _determinant(blocks[label]) ** dim for label, dim, _ in table.irreps
            )
            expected = float(zagier_determinant(n, q))
            assert product == pytest.approx(expected, rel=1e-9), (n, q)


def test_trivial_and_sign_blocks_are_q_factorials():
    for n in range(2, 7):
        for q in (0.5, -0.3, 0.9, -0.99, 1e-3):
            blocks = irrep_blocks(n, q)
            assert blocks["trivial"][0][0] == pytest.approx(q_factorial(n).evaluate(q), rel=1e-12)
            assert blocks["sign"][0][0] == pytest.approx(
                signed_q_factorial(n).evaluate(q), rel=1e-12, abs=1e-15
            )


def test_blocks_vanish_at_the_boson_and_fermion_points():
    # X_n at q = 1 is the sum of all permutations, at q = -1 their signed
    # sum: each lives on one irrep alone, with the value n!
    for n in range(2, 7):
        for q, alive in ((1.0, "trivial"), (-1.0, "sign")):
            for label, block in irrep_blocks(n, q).items():
                if label == alive:
                    assert block[0][0] == pytest.approx(math.factorial(n))
                else:
                    assert all(abs(x) < 1e-12 for row in block for x in row), (n, q, label)


def test_psd_minimum_matches_the_recorded_eigvalsh_minimum():
    for word, minima in MIN_EIGENVALUES.items():
        n = len(word)
        g = gram(permutation_basis(word))
        for q, expected in zip(MIN_EIGENVALUE_QS, minima):
            largest = max(abs(x) for row in g.evaluate(q) for x in row)
            report = psd_report(word, q)
            assert report.dimension == g.dimension
            assert abs(report.min_eigenvalue - expected) <= 1e-12 * math.factorial(n) * largest


def test_failing_report_names_the_irrep_of_the_minimum():
    # n = 2: the blocks are 1 + q (trivial) and 1 - q (sign).  n = 3 at
    # q = 1.7: the standard block has trace 2 - 2q^2 and determinant
    # (1 - q^2)^3, so eigenvalues -5.103 and 1.323, below the sign block
    # (1 - q)(1 - q + q^2) = -1.533; with a repeated label the sign irrep
    # is absent and the minimum is twice the standard one
    cases = (
        ("ab", -1.5, "trivial", -0.5),
        ("ab", 1.7, "sign", -0.7),
        ("abc", 1.7, "standard", -5.103),
        ("aab", 1.7, "standard", -10.206),
        ("aa", -1.5, "trivial", -1.0),
    )
    for word, q, name, minimum in cases:
        report = psd_report(word, q)
        assert not report.passed
        assert report.witness == name
        assert report.min_eigenvalue == pytest.approx(minimum, rel=1e-12)
    assert psd_report("ab", 0.5).witness is None
    # [[1+q, 1+q], [1+q, 1+q]]: the negative sign block 1 - q is absent
    assert psd_report("aa", 1.7)[:2] == (True, 0.0)


@pytest.mark.parametrize("word, repeats, name", [
    ("abcd", 1, "standard"), ("aabc", 2, "standard"), ("abcde", 1, "4+1"), ("aabbc", 4, "4+1"),
])
@pytest.mark.parametrize("q", [1e30, -1e30])
def test_tied_minima_name_the_first_irrep_in_partitions_order(word, repeats, name, q):
    # far outside [-1, 1] every irrep holding the eigenvalue -1 of the
    # longest permutation reaches the minimum -|H| |q|^top up to rounding;
    # for abcde and aabbc the block that rounds lowest is 2+2+1's
    n = len(word)
    report = psd_report(word, q)
    assert not report.passed
    assert report.witness == name
    assert report.min_eigenvalue == pytest.approx(-repeats * abs(q) ** (n * (n - 1) // 2), rel=1e-12)


def test_a_near_tie_still_names_the_least_block():
    # at q = -1e10 the standard block of abc reaches -(1 + 1e-10) |q|^3 and
    # the trivial one -(1 - 2e-10) |q|^3: 3e-10 apart, not a tie
    assert psd_report("abc", -1e10).witness == "standard"


def test_psd_report_is_finite_far_outside_the_convexity_range():
    # the blocks are scaled by |q|^3 before the rotations, whose squares
    # would overflow a float from |q| ~ 1e51 on
    for q in (1e100, -1e100, 5e102, -5e102):
        report = psd_report("abc", q)
        assert math.isfinite(report.min_eigenvalue)
        assert not report.passed
        assert report.min_eigenvalue == pytest.approx(-abs(q) ** 3, rel=1e-9)


def _top_power_threshold(top):
    """The largest q > 0 whose top-th power, by repeated products, is a
    finite float."""
    def finite(x):
        power = 1.0
        for _ in range(top):
            power *= x
        return math.isfinite(power)

    x = sys.float_info.max ** (1 / top)
    while not finite(x):
        x = math.nextafter(x, 0.0)
    while finite(math.nextafter(x, math.inf)):
        x = math.nextafter(x, math.inf)
    return x


def test_psd_report_refuses_wherever_evaluate_refuses():
    words = ("ab", "abc", "aab", "aaa", "abcd", "aabb", "aaab", "abcde", "aabbc")
    for word in words:
        n = len(word)
        g = gram(permutation_basis(word))
        edge = _top_power_threshold(n * (n - 1) // 2)
        qs = [edge, math.nextafter(edge, math.inf), 1e30, 1e60, 1e103, 1e200, 1e308]
        for q in filter(math.isfinite, qs + [-q for q in qs]):
            try:
                g.evaluate(q)
            except ContractViolation as exc:
                with pytest.raises(ContractViolation) as refused:
                    psd_report(word, q)
                assert str(refused.value) == str(exc)
                assert str(exc) == f"the Gram matrix overflows a float at q = {q}"
                continue
            # where every entry is finite, only an overflowing minimum is refused
            try:
                report = psd_report(word, q)
            except ContractViolation as exc:
                assert str(exc) == f"the Gram matrix overflows a float at q = {q}"
            else:
                assert math.isfinite(report.min_eigenvalue), (word, q)
    # every entry of the repeated-label matrix is finite, its minimum is not
    gram(permutation_basis("aab")).evaluate(5e102)
    with pytest.raises(ContractViolation, match="overflows a float at q = 5e"):
        psd_report("aab", 5e102)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation, match="finite"):
            psd_report("ab", value)
    with pytest.raises(CapExceeded, match="cap is 8"):
        psd_report("abcdefghi", 0.5)


def test_state_scalar_product_bilinearity():
    s1 = build_state((A, B), preset_rep(2, "symmetric"))
    s2 = build_state((A, B), preset_rep(2, "antisymmetric"))
    # symmetric and antisymmetric states are orthogonal
    assert state_scalar_product(s1, s2) == QPolynomial.zero()


# small values make cancellations likely; huge numerators and denominators
# test the width of the engine's packed coefficient fields
COEFFICIENTS = st.one_of(
    st.sampled_from(
        [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)]
    ),
    st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70)),
)
LABELS = st.builds(ModeLabel, st.sampled_from("abc"), st.sampled_from([None, "t"]))


@st.composite
def state_pair(draw):
    """Two random states over an alphabet of at most three labels; words
    repeat labels, and repeated words merge, so coefficients can cancel."""
    alphabet = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))

    def state(m):
        word = st.lists(st.sampled_from(alphabet), min_size=m, max_size=m).map(tuple)
        terms: dict = {}
        for w, c in draw(st.lists(st.tuples(word, COEFFICIENTS), max_size=6)):
            terms[w] = terms.get(w, 0) + c
        return StateVector(terms)

    m = draw(st.integers(0, 5))
    right_m = draw(st.one_of(st.just(m), st.integers(0, 5)))
    return state(m), state(right_m)


@settings(deadline=None)
@given(state_pair())
def test_contraction_engine_matches_pairing_oracle(pair):
    left, right = pair
    expected = QPolynomial.zero()
    for wl, cl in left.terms.items():
        for wr, cr in right.terms.items():
            expected = expected + (cl * cr) * oracle_scalar_product(wl, wr)
    assert state_scalar_product(left, right) == expected


@st.composite
def word_list(draw):
    """Up to six equal-length words over at most three labels, each word
    drawing from its own subset, so some use labels others lack."""
    alphabet = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    m = draw(st.integers(0, 5))
    words = []
    for _ in range(draw(st.integers(1, 6))):
        letters = draw(st.lists(st.sampled_from(alphabet), min_size=1, unique=True))
        words.append(tuple(draw(st.lists(st.sampled_from(letters), min_size=m, max_size=m))))
    return words


@settings(deadline=None)
@given(word_list())
def test_gram_matches_pairing_oracle(words):
    g = gram(words)
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            assert g.entries[i][j] == oracle_scalar_product(wi, wj)


def test_irrep_weights_two_quons():
    for q in (-0.9, -0.5, 0.0, 0.3, 0.8):
        weights = irrep_weights(2, q)
        assert weights["trivial"] == pytest.approx((1 + q) / 2, abs=1e-14)
        assert weights["sign"] == pytest.approx((1 - q) / 2, abs=1e-14)


def test_irrep_weights_three_quons_at_zero():
    weights = irrep_weights(3, 0.0)
    assert weights["trivial"] == pytest.approx(1 / 6)
    assert weights["sign"] == pytest.approx(1 / 6)
    assert weights["standard"] == pytest.approx(2 / 3)


def test_irrep_weights_near_fermi():
    weights = irrep_weights(2, -1 + 1e-6)
    assert weights["sign"] == pytest.approx(1 - 5e-7, abs=1e-12)


def test_irrep_weights_sum_to_one_and_nonnegative():
    for n in range(2, 8):
        for k in range(21):
            q = -0.95 + k * 0.095
            weights = irrep_weights(n, q)
            assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= -1e-12 for w in weights.values())


def test_irrep_weight_polys_exact_certificate():
    # the weights sum to 1 as polynomials; bosons (q = 1) are all in the
    # trivial irrep, fermions (q = -1) all in the sign irrep, and at q = 0
    # the weights are the Plancherel measure dim^2 / n!
    for n in range(2, 9):
        polys = irrep_weight_polys(n)
        assert sum(polys.values(), QPolynomial.zero()) == 1
        dims = {label: dim for label, dim, _ in character_table(n).irreps}
        assert dims.keys() == polys.keys()
        for label, poly in polys.items():
            assert poly.evaluate(1) == (label == "trivial")
            assert poly.evaluate(-1) == (label == "sign")
            assert poly.evaluate(0) == Fraction(dims[label] ** 2, math.factorial(n))


def test_irrep_weights_round_the_exact_value_once(monkeypatch):
    # the class sum cancels to ~1e-16 at q = -0.999, where a float Horner
    # pass of the polynomial is 1 % off
    trivial = irrep_weights(8, -0.999)["trivial"]
    assert trivial == float(irrep_weight_polys(8)["trivial"].evaluate(Fraction(-0.999)))
    assert f"{trivial:.10g}" == "5.881428316e-16"
    monkeypatch.setattr(fock, "irrep_weight_polys", functools.cache(fock.irrep_weight_polys))
    for n in range(2, 9):
        polys = fock.irrep_weight_polys(n)
        for k in range(-19, 20, 2):
            q = k / 20 + 0.001 * n
            exact = {label: float(poly.evaluate(Fraction(q))) for label, poly in polys.items()}
            assert irrep_weights(n, q) == exact, (n, q)


def test_irrep_weights_range_checks():
    assert irrep_weights(1, 0.3) == {"trivial": 1.0}
    assert irrep_weight_polys(1) == {"trivial": QPolynomial.one()}
    with pytest.raises(ContractViolation, match="n must be >= 1"):
        irrep_weights(0, 0.0)
    with pytest.raises(ContractViolation, match="n must be >= 1"):
        irrep_blocks(0, 0.5)
    with pytest.raises(CapExceeded):
        irrep_weights(9, 0.0)
    with pytest.raises(ContractViolation):
        irrep_weights(2, 1.0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_state_vector_refuses_a_non_finite_coefficient(value):
    with pytest.raises(ContractViolation, match=f"coefficient {value} is not a finite rational"):
        StateVector({(A,): value})
