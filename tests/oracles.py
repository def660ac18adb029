"""Test-only reference implementations, kept independent of the
contraction engine in ``quonstat.wick`` and of the packed product and the
float evaluation in ``quonstat.qpoly`` so the tests can check them.

The brute-force pairing oracle (``oracle_q_permanent``,
``oracle_scalar_product`` and ``delta_matrix``) sums over all n! pairings
through ``quonstat.all_permutations``, so it is refused past the S_k cap,
n > 8.  ``parse`` reads back the text that ``QPolynomial.__str__`` writes."""

import math
import re
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from quonstat import (
    CapExceeded,
    CharacterTable,
    ContractViolation,
    ModeLabel,
    QPolynomial,
    RepCoefficients,
    StateVector,
    all_permutations,
    character_table,
    gram,
    inversion_number,
    normalization_poly,
    q_permanent,
)
from quonstat.errors import Q_PERMANENT_CAP, ParseError
from quonstat.qpoly import Coefficient, _clear_denominators, _exact, _field_width, _unpack
from quonstat.wick import Word

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


# The minimum eigenvalue of gram(permutation_basis(labels)).evaluate(q),
# one value per q in MIN_EIGENVALUE_QS, as numpy.linalg.eigvalsh gave it
# on the full n! x n! matrix when the PSD check still used numpy.  Where a
# label repeats the exact minimum inside (-1, 1) is 0; the recorded values
# there are eigvalsh's roundoff.
MIN_EIGENVALUE_QS = (0.5, -0.5, 0.3, 0.813, -0.813, -1.5, 1.7)
MIN_EIGENVALUES = {
    "a": (
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0
    ),
    "ab": (
        0.5, 0.5, 0.7, 0.187, 0.187, -0.4999999999999999, -0.6999999999999998
    ),
    "abc": (
        0.37499999999999967, 0.37499999999999967, 0.5529999999999999,
        0.06339879699999985, 0.06339879699999985, -3.125, -5.103
    ),
    "abcd": (
        0.21598571037125325, 0.21598571037125325, 0.4219390000000008,
        0.01949308652546031, 0.01949308652546031, -31.203423563850876,
        -65.15243655443257
    ),
    "abcde": (
        0.14900664954422244, 0.14900664954422244, 0.3253571629000005,
        0.006968777529255355, 0.006968777529255355, -483.8307628715732,
        -1426.6802152482428
    ),
    "aab": (
        -2.315188530458303e-16, -1.0721125236332306e-16, -6.610854240441263e-16,
        -1.207156476074557e-16, -3.084101600586272e-17, -6.25, -10.206000000000007
    ),
    "aabb": (
        -1.0742861290913451e-15, -6.577764633122723e-16, -2.1664094251207357e-15,
        -2.1545022449623668e-15, -2.651705871150283e-16, -30.445752147247784,
        -260.60974621773005
    ),
    "aaab": (
        -1.107595045529047e-15, -3.720696421726587e-16, -7.696195533624276e-16,
        -3.582284684586304e-14, -6.981387641618797e-16, -45.66862822087165,
        -390.91461932659513
    ),
    "aabc": (
        -7.095022713993448e-16, -3.617882367382639e-16, -9.25848670032625e-16,
        -3.0741270877695316e-16, -1.5293915231308595e-16, -62.40684712770175,
        -130.30487310886517
    ),
    "aabbc": (
        -9.199611648906598e-15, -2.0774405159069494e-15, -5.350946931969646e-15,
        -4.313120144020624e-14, -1.546380037692763e-15, -440.82568084224084,
        -5706.720860992971
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


def schoolbook_product(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Reference for ``QPolynomial.__mul__``: the double loop over
    coefficient pairs, in exact arithmetic, with no packing."""
    x, y = a.coefficients, b.coefficients
    if not x or not y:
        return QPolynomial.zero()
    out = [0] * (len(x) + len(y) - 1)
    for i, ca in enumerate(x):
        if not ca:
            continue
        for j, cb in enumerate(y):
            out[i + j] += ca * cb
    return QPolynomial(out)


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


def level_dp_q_permanent(matrix) -> QPolynomial:
    """Reference for ``q_permanent`` past the brute-force cap: the subset
    DP with one dict of column masks per row, as ``q_permanent`` once ran
    it.  It shares only the packed-polynomial codec of ``quonstat.qpoly``,
    which the brute-force oracle checks at n <= 8.

    Subset dynamic program: rows are processed in order; a state is the
    set of used columns.  Assigning column j at row i adds one inversion
    for every already-used column greater than j, which reconstructs the
    inversion number of the full bijection.  Each row is scaled to
    integers, so every state is a packed integer whose fields are bounded
    by n! times the product of the largest row entries.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ContractViolation("q_permanent requires a square matrix")
    if n == 0:
        return QPolynomial.one()
    if n > Q_PERMANENT_CAP:
        raise CapExceeded(f"q_permanent cap is {Q_PERMANENT_CAP} rows, got {n}")
    # zero row or column forces every bijection product to vanish
    if any(not any(row) for row in matrix):
        return QPolynomial.zero()
    if any(not any(matrix[i][j] for i in range(n)) for j in range(n)):
        return QPolynomial.zero()

    rows = []
    denominator = 1
    bound = math.factorial(n)
    for row in matrix:
        entries, scale = _clear_denominators(row)
        rows.append([(j, 1 << j, e) for j, e in enumerate(entries) if e])
        denominator *= scale
        bound *= max(map(abs, entries))
    width = _field_width(bound)

    level = {0: 1}
    for columns in rows:
        nxt: dict[int, int] = {}
        for mask, value in level.items():
            for j, bit, entry in columns:
                if mask & bit:
                    continue
                term = (value if entry == 1 else value * entry) << (
                    (mask >> (j + 1)).bit_count() * width
                )
                target = mask | bit
                nxt[target] = nxt.get(target, 0) + term
        level = nxt
        if not level:
            return QPolynomial.zero()
    (value,) = level.values()
    return _unpack(value, width, denominator)


def delta_matrix(left: Sequence[ModeLabel], right: Sequence[ModeLabel]) -> list[list[int]]:
    """0/1 matrix of label coincidences, entry (i, j) = delta(left_i, right_j)."""
    return [[1 if a == b else 0 for b in right] for a in left]


def oracle_q_permanent(matrix: Sequence[Sequence]) -> QPolynomial:
    """Ground truth for ``q_permanent``: explicit sum over all n! bijections."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ContractViolation("q_permanent requires a square matrix")
    if n == 0:
        return QPolynomial.one()
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    for bijection in all_permutations(n):
        prod = math.prod(matrix[i][j - 1] for i, j in enumerate(bijection))
        if prod:
            coeffs[inversion_number(bijection)] += prod
    return QPolynomial(coeffs)


def oracle_scalar_product(left: Word, right: Word) -> QPolynomial:
    """Vacuum scalar product by brute-force pairing enumeration."""
    if len(left) != len(right):
        return QPolynomial.zero()
    return oracle_q_permanent(delta_matrix(left, right))


# compiled by ``re``'s own cache on the first ``parse``, not at import
_TERM_PATTERN = r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?P<var>q(?:\^(?P<exp>\d+))?)?$"


def parse(text: str) -> QPolynomial:
    """Parse the rendering produced by ``str``: ascending powers, terms
    joined by ' + ' / ' - ', rationals as 'p/q', e.g. '1 + 2*q + q^3'."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms at top level
    chunks = re.split(r"(?=[+-])", s.replace(" ", ""))
    coeffs: dict[int, Coefficient] = {}
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = re.match(_TERM_PATTERN, body)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError(f"bad polynomial term {chunk!r} in {text!r}")
        try:
            coef = _exact(m.group("coef")) if m.group("coef") else 1
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in term {chunk!r} of {text!r}") from None
        if m.group("var") is None:
            power = 0
        elif m.group("exp") is None:
            power = 1
        else:
            power = int(m.group("exp"))
        coeffs[power] = coeffs.get(power, 0) + sign * coef
    return QPolynomial(coeffs.get(k, 0) for k in range(max(coeffs) + 1))
