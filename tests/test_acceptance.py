"""Acceptance suite: one test per release criterion.

Each test re-derives its expected values from an independent oracle
(brute-force enumeration, closed forms, or published limits), runs the
operation under test at the stated tolerance, and prints one PASS line.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
import time
from itertools import permutations as bijections

from quonstat import (
    CompositeSpec,
    ModeLabel,
    QPolynomial,
    block_swap,
    derive_chain,
    gram,
    irrep_weights,
    load_bundled_limits,
    normalization_poly,
    oracle_q_permanent,
    permutation_basis,
    preset_rep,
    psd_report,
    q_permanent,
    random_rep,
    scalar_product,
    two_composite_scalar,
    weo_limit_check,
)


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def _set_partitions(items):
    if not items:
        yield []
        return
    head, *rest = items
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [head]] + partition[i + 1 :]
        yield [[head]] + partition


def test_criterion_1_two_particle_law():
    """Scalar product of (k1,k2) vs (l1,l2) equals dd + q*dd for every
    label-coincidence pattern of the four slots."""
    started = time.perf_counter()
    slots = ["k1", "k2", "l1", "l2"]
    patterns = list(_set_partitions(slots))
    assert len(patterns) == 15  # Bell number of 4
    for partition in patterns:
        assign = {}
        for class_id, block in enumerate(partition):
            for slot in block:
                assign[slot] = ModeLabel(class_id)
        k1, k2, l1, l2 = (assign[s] for s in slots)
        d11 = 1 if k1 == l1 else 0
        d22 = 1 if k2 == l2 else 0
        d12 = 1 if k1 == l2 else 0
        d21 = 1 if k2 == l1 else 0
        expected = QPolynomial([d11 * d22, d12 * d21])
        assert scalar_product((k1, k2), (l1, l2)) == expected
    _report(1, "two-particle law", started, budget=1.0)


def test_criterion_2_oracle_equivalence():
    """q_permanent equals brute-force enumeration: exhaustive for n <= 3,
    >= 1000 random 0/1 matrices for n = 4..7."""
    started = time.perf_counter()
    for n in (1, 2, 3):
        for code in range(2 ** (n * n)):
            matrix = [
                [(code >> (i * n + j)) & 1 for j in range(n)] for i in range(n)
            ]
            assert q_permanent(matrix) == oracle_q_permanent(matrix)
    rng = random.Random(424242)
    checked = 0
    for n in (4, 5, 6, 7):
        for _ in range(250):
            matrix = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            assert q_permanent(matrix) == oracle_q_permanent(matrix)
            checked += 1
    assert checked >= 1000
    _report(2, "oracle equivalence", started, budget=60.0)


def test_criterion_3_normalization_degree_and_closed_forms():
    """Normalization polynomial degree <= n(n-1)/2 for symmetric,
    antisymmetric, and 20 random reps, n <= 5; closed forms match."""
    started = time.perf_counter()
    rng = random.Random(31)
    for n in range(1, 6):
        labels = [ModeLabel(i) for i in range(1, n + 1)]
        bound = n * (n - 1) // 2
        sym_closed = QPolynomial([math.factorial(n)])
        anti_closed = QPolynomial([math.factorial(n)])
        for m in range(1, n + 1):
            sym_closed = sym_closed * QPolynomial([1] * m)
            anti_closed = anti_closed * QPolynomial([(-1) ** k for k in range(m)])
        sym = normalization_poly(preset_rep(n, "symmetric"), labels)
        anti = normalization_poly(preset_rep(n, "antisymmetric"), labels)
        assert sym == sym_closed
        assert anti == anti_closed
        assert sym.degree <= bound and anti.degree <= bound
        for _ in range(4):
            poly = normalization_poly(random_rep(n, rng), labels)
            assert poly.degree <= bound
    _report(3, "normalization degree and closed forms", started, budget=60.0)


def test_criterion_4_central_theorem():
    """exchange = q^(n^2) * direct, exactly, for n in 1..4 with the
    symmetric, antisymmetric, and three random representations each."""
    started = time.perf_counter()
    rng = random.Random(777)
    configurations = 0
    for n in (1, 2, 3, 4):
        reps = [preset_rep(n, "symmetric"), preset_rep(n, "antisymmetric")]
        reps += [random_rep(n, rng) for _ in range(3)]
        for rep in reps:
            spec = CompositeSpec(
                n=n, internal_labels=tuple(range(1, n + 1)), rep=rep
            )
            aligned = two_composite_scalar(spec, ("t1", "t2"), ("t1", "t2"))
            swapped = two_composite_scalar(spec, ("t1", "t2"), ("t2", "t1"))
            labels = [ModeLabel(i) for i in spec.internal_labels]
            squared_norm = normalization_poly(rep, labels)
            assert aligned.direct == squared_norm * squared_norm
            assert aligned.exchange.is_zero() and aligned.cross.is_zero()
            assert swapped.direct.is_zero() and swapped.cross.is_zero()
            assert swapped.exchange == QPolynomial.monomial(n * n) * aligned.direct
            configurations += 1
    assert configurations == 20
    _report(4, "central theorem q^(n^2), r-independent", started, budget=300.0)


def test_criterion_5_weo_limit():
    """At the Fermi point the composite is a fermion iff n is odd; at the
    Bose point always a boson (n and n^2 share parity)."""
    started = time.perf_counter()
    for n in range(1, 9):
        expected = "fermion" if n % 2 == 1 else "boson"
        assert weo_limit_check(n, "fermi") == expected
        assert weo_limit_check(n, "bose") == "boson"
        # the parity mechanism itself
        assert (-1) ** (n * n) == (-1) ** n
    _report(5, "WEO limit", started, budget=1.0)


def test_criterion_6_gram_positivity():
    """Minimum Gram eigenvalue >= -1e-10*dim on the full n! permutation
    basis, n <= 5, across the convexity range."""
    started = time.perf_counter()
    for n in range(1, 6):
        labels = [ModeLabel(i) for i in range(1, n + 1)]
        g = gram(permutation_basis(labels))
        assert g.dimension == math.factorial(n)
        for q_value in (-0.99, -0.5, 0.0, 0.5, 0.99):
            report = psd_report(labels, q_value)
            assert report.passed, (n, q_value, report.min_eigenvalue)
    _report(6, "Gram positivity", started, budget=30.0)


def test_criterion_7_published_limit_chain():
    """The bundled oxygen limit propagates to the published nucleon and
    quark bounds within the stated tolerances."""
    started = time.perf_counter()
    records = load_bundled_limits()
    rows = derive_chain(records, [("O16", 1), ("nucleon", 16), ("quark", 3)])
    nucleon = rows[1]
    assert abs(nucleon.epsilon_first_order - 1.953e-11) / 1.953e-11 < 0.03
    assert nucleon.epsilon_first_order <= 2e-11
    assert abs(nucleon.epsilon_exact - 1.953e-11) / 1.953e-11 < 0.03
    quark = rows[2]
    published = 2e-12
    for value in (quark.epsilon_first_order, quark.epsilon_exact):
        ratio = value / published
        assert 1 / 1.2 < ratio < 1.2
    _report(7, "published limit chain", started, budget=1.0)


def test_criterion_8_superline_crossings():
    """The order-preserving block swap of 2n operators has exactly n^2
    inversions, counted pair by pair."""
    started = time.perf_counter()
    for n in range(1, 7):
        swap = block_swap(n)
        crossings = sum(
            1
            for i in range(2 * n)
            for j in range(i + 1, 2 * n)
            if swap[i] > swap[j]
        )
        assert crossings == n * n
    _report(8, "superline crossings", started, budget=1.0)


def test_criterion_9_irrep_weights():
    """Two-quon weights are (1+q)/2 and (1-q)/2 to 1e-12 at 21 points;
    three-quon weights at q=0 are the squared dimensions over 3!."""
    started = time.perf_counter()
    for k in range(21):
        q_value = -0.99 + k * 0.099
        weights = irrep_weights(2, q_value)
        assert abs(weights["trivial"] - (1 + q_value) / 2) <= 1e-12
        assert abs(weights["sign"] - (1 - q_value) / 2) <= 1e-12
    weights3 = irrep_weights(3, 0.0)
    assert abs(weights3["trivial"] - 1 / 6) <= 1e-12
    assert abs(weights3["sign"] - 1 / 6) <= 1e-12
    assert abs(weights3["standard"] - 2 / 3) <= 1e-12
    _report(9, "irrep weights", started, budget=10.0)


def test_all_bijections_of_two_blocks_classify_consistently():
    """Supporting check for criterion 4: on 2n slots every bijection is
    direct, exchange, or cross by block structure, and the counts are
    (n!)^2, (n!)^2, and (2n)! - 2(n!)^2."""
    for n in (1, 2, 3):
        counts = {"direct": 0, "exchange": 0, "cross": 0}
        for pairing in bijections(range(2 * n)):
            first = pairing[:n]
            if all(j < n for j in first):
                counts["direct"] += 1
            elif all(j >= n for j in first):
                counts["exchange"] += 1
            else:
                counts["cross"] += 1
        n_fact_sq = math.factorial(n) ** 2
        assert counts["direct"] == n_fact_sq
        assert counts["exchange"] == n_fact_sq
        assert counts["cross"] == math.factorial(2 * n) - 2 * n_fact_sq
