"""Test-only reference implementations, kept independent of the
contraction engine in ``quonstat.wick`` and of the float evaluation in
``quonstat.qpoly`` so the tests can check them."""

import math
from fractions import Fraction

from quonstat import (
    ModeLabel,
    QPolynomial,
    StateVector,
    all_permutations,
    character_table,
    gram,
    q_permanent,
)


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


def pairwise_irrep_weights(n: int) -> dict[str, QPolynomial]:
    """Irrep weights of ``fock.irrep_weight_polys`` by the double sum
    sum_ij c_i c_j G_ij, one polynomial multiply-add per nonzero pair."""
    table = character_table(n)
    perms = list(all_permutations(n))
    g = gram([tuple(ModeLabel(i) for i in p) for p in perms])
    out = {}
    for label, dim, _ in table.irreps:
        coeff = [Fraction(dim, math.factorial(n)) * table.character(label, p) for p in perms]
        weight = QPolynomial.zero()
        for i, ci in enumerate(coeff):
            if not ci:
                continue
            for j, cj in enumerate(coeff):
                if not cj:
                    continue
                weight = weight + (ci * cj) * g.entries[i][j]
        out[label] = weight
    return out


def exact_pivots(matrix) -> list[Fraction]:
    """Pivots of Gaussian elimination without row exchanges, in exact
    Fractions, stopping at the first zero pivot.  A symmetric matrix is
    positive definite iff every pivot is positive, and then its
    determinant is their product."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for k in range(len(rows)):
        pivot = rows[k][k]
        pivots.append(pivot)
        if not pivot:
            break
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / pivot
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return pivots
