"""Test-only reference implementations, kept independent of the
contraction engine in ``quonstat.wick`` and of the float evaluation in
``quonstat.qpoly`` so the tests can check them."""

from fractions import Fraction

from quonstat import QPolynomial, StateVector, q_permanent


def pairwise_dp_scalar(left: StateVector, right: StateVector) -> QPolynomial:
    """Bilinear extension of the word scalar product, one q-permanent per
    left x right word pair.

    Scalar products depend on the words only through their delta pattern,
    so pairs sharing a pattern are evaluated once; accumulation stays
    exact and order-independent.
    """
    if not left.terms or not right.terms:
        return QPolynomial.zero()
    if left.word_length() != right.word_length():
        return QPolynomial.zero()
    m = left.word_length()

    ids: dict = {}
    left_words = [
        (tuple(ids.setdefault(lab, len(ids)) for lab in w), c)
        for w, c in left.terms.items()
    ]
    right_indexed = []
    for w, c in right.terms.items():
        masks: dict[int, int] = {}
        for j, lab in enumerate(w):
            lab_id = ids.setdefault(lab, len(ids))
            masks[lab_id] = masks.get(lab_id, 0) | (1 << j)
        right_indexed.append((masks, c))

    acc = [Fraction(0)] * (m * (m - 1) // 2 + 1)
    memo: dict[tuple[int, ...], tuple] = {}
    for wl, cl in left_words:
        for masks, cr in right_indexed:
            key = tuple(masks.get(lab, 0) for lab in wl)
            coeffs = memo.get(key)
            if coeffs is None:
                matrix = [[(row >> j) & 1 for j in range(m)] for row in key]
                coeffs = q_permanent(matrix).coefficients
                memo[key] = coeffs
            if coeffs:
                c = cl * cr
                for k, value in enumerate(coeffs):
                    if value:
                        acc[k] += c * value
    return QPolynomial(acc)


def mixed_horner(poly: QPolynomial, x: float) -> float:
    """Float Horner evaluation that adds the Fraction coefficients to the
    float accumulator directly, through Fraction's mixed-type operators."""
    acc = 0.0
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc
