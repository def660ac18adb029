"""Test-only reference implementations, kept independent of the
contraction engine in ``quonstat.wick`` and of the float evaluation in
``quonstat.qpoly`` so the tests can check them."""

import math
from fractions import Fraction
from itertools import combinations

from quonstat import (
    CharacterTable,
    ModeLabel,
    QPolynomial,
    RepCoefficients,
    StateVector,
    all_permutations,
    character_table,
    delta_matrix,
    gram,
    normalization_poly,
    q_permanent,
)

# The character tables of S_2..S_4 as they were once bundled with the
# package, typed from the textbook tables: (cycle type, class size) per
# class, (name, dimension, characters) per irrep.
CHARACTER_TABLES = {
    2: CharacterTable(
        n=2,
        classes=(((1, 1), 1), ((2,), 1)),
        irreps=(("trivial", 1, (1, 1)), ("sign", 1, (1, -1))),
    ),
    3: CharacterTable(
        n=3,
        classes=(((1, 1, 1), 1), ((2, 1), 3), ((3,), 2)),
        irreps=(
            ("trivial", 1, (1, 1, 1)),
            ("standard", 2, (2, 0, -1)),
            ("sign", 1, (1, -1, 1)),
        ),
    ),
    4: CharacterTable(
        n=4,
        classes=(((1, 1, 1, 1), 1), ((2, 1, 1), 6), ((2, 2), 3), ((3, 1), 8), ((4,), 6)),
        irreps=(
            ("trivial", 1, (1, 1, 1, 1, 1)),
            ("standard", 3, (3, 1, -1, 0, -1)),
            ("two_dim", 2, (2, 0, 2, -1, 0)),
            ("standard_sign", 3, (3, -1, -1, 0, 1)),
            ("sign", 1, (1, -1, 1, 1, -1)),
        ),
    ),
}


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


def projected_norm_irrep_weights(n: int) -> dict[str, QPolynomial]:
    """Irrep weights of ``fock.irrep_weight_polys`` as the squared norm of
    the canonical word projected by each central idempotent
    (dim/n!) * sum_P chi(P) P: one ``normalization_poly`` per irrep, with
    the scaled characters as the representation coefficients."""
    table = character_table(n)
    labels = [ModeLabel(i) for i in range(1, n + 1)]
    perms = list(all_permutations(n))
    n_fact = math.factorial(n)
    out: dict[str, QPolynomial] = {}
    for label, dim, _ in table.irreps:
        projector = {p: Fraction(dim, n_fact) * table.character(label, p) for p in perms}
        out[label] = normalization_poly(RepCoefficients(n, projector, label), labels)
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


def shuffle_split_scalar(
    left: StateVector, first: StateVector, second: StateVector, split: int
) -> list[QPolynomial]:
    """<left | first second> by the q-shuffle split of each left word, in
    buckets: ``hits[h]`` collects the pairings in which h of the first
    ``split`` left letters land in ``first``.

    A pairing sends a set S of left positions into ``first`` and the rest
    into ``second``; its crossings are those inside S, those inside the
    rest, and #{i < j : i not in S, j in S}.  So
    <w|uv> = sum_S q^#{i<j : i not in S, j in S} <w|_S|u> <w|_rest|v>,
    each factor a sum of q-permanents of delta matrices over one right
    state, memoized by restricted word.
    """
    m = first.word_length()
    size = left.word_length()
    hits = [QPolynomial.zero()] * (split + 1)
    if size != m + second.word_length():
        return hits
    splits = []
    for s in combinations(range(size), m):
        rest = tuple(i for i in range(size) if i not in s)
        splits.append((s, rest, sum(i < j for i in rest for j in s), sum(i < split for i in s)))
    first_memo: dict = {}
    second_memo: dict = {}

    def factor(memo: dict, state: StateVector, sub: tuple) -> QPolynomial:
        value = memo.get(sub)
        if value is None:
            value = QPolynomial.zero()
            for w, c in state.terms.items():
                value = value + c * q_permanent(delta_matrix(sub, w))
            memo[sub] = value
        return value

    # the second factors summed per (bucket, crossings, first restricted
    # word), so each of those groups costs one polynomial product
    groups: dict = {}
    for w, c in left.terms.items():
        for s, rest, crossings, h in splits:
            on_s = tuple(w[i] for i in s)
            if factor(first_memo, first, on_s).is_zero():
                continue
            off = factor(second_memo, second, tuple(w[i] for i in rest))
            if not off.is_zero():
                key = (h, crossings, on_s)
                groups[key] = groups.get(key, QPolynomial.zero()) + c * off
    for (h, crossings, on_s), off in groups.items():
        hits[h] = hits[h] + QPolynomial.monomial(crossings) * first_memo[on_s] * off
    return hits
