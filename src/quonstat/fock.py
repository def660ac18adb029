"""Multi-quon state constructions built on the Wick engine.

A state is a rational linear combination of equal-length creation words.
The central objects here are the normalization polynomial of a
representation-weighted state, the Gram matrix of a word basis, a numeric
positive-semidefiniteness certificate, and the q-dependent weights of the
symmetric-group irreps inside the n-quon state, each the squared norm of
the state projected onto one irrep, computed as a class sum over S_n.

Scalar products of states and of single words go through one
contraction engine, ``wick.contract_terms``, which ``state_scalar_product``
calls once on the terms of two `StateVector`: the left words act as quon
annihilators on the sparse right state (the q-Fock-space action of
Bozejko and Speicher), so the work grows with the residual support rather
than with the number of word pairs.  The one exception is the norm of a
dense rep, one with at least n!/n terms: on distinct labels
``normalization_poly`` forms it as c . (X_n c) in the regular
representation, n(n-1)/2 gather-and-shift steps over the n! coefficients
through the coset factorization of X_n below, and keeps the engine for
sparse reps, where a pass over all of S_n would cost more or, past the
S_k cap, could not run at all.  A Gram matrix calls the engine once
per distinct pattern of equal labels in a word pair (n! times for the
permutation basis of n distinct labels, not (n!)^2), its entries share
one object per pattern, and ``GramMatrix.map_entries`` runs a function,
such as the float evaluation or the text format, once per shared object.

The PSD check never builds the Gram matrix.  On the permutation basis
that matrix is X_n = sum_P q^inv(P) P in the regular representation
(times the sum over the place permutations of equal labels), so its
spectrum is that of the irrep blocks rho(X_n), each at most 16 x 16 at
n = 6 (Zagier, Commun. Math. Phys. 147 (1992) 199).  The blocks are
built through the coset factorization of X_n on the exact rational
generators of Young's seminormal form, converted to floats once; each
block is then symmetrized into the block of Young's orthogonal form, a
diagonal conjugate with the same spectrum, and its eigenvalues are found
by Jacobi rotations, in plain Python floats.
"""

import math
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, lshift, mul
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    DEFAULT_ENUM_CAP,
    GRAM_CAP,
    Q_PERMANENT_CAP,
    CapExceeded,
    ContractViolation,
    UnsupportedError,
    refuse_above_cap,
)
from .permutations import (
    RepCoefficients,
    all_permutations,
    character_table,
    cycle_type,
    dominates,
    inversion_number,
    irrep_name,
    partitions,
    seminormal_form,
)
from .qpoly import Coefficient, QPolynomial, _clear_denominators, _exact, _field_width, _unpack
from .record import Record
from .wick import ModeLabel, Word, contract_terms, scalar_product


class StateVector(Record):
    """Linear combination of equal-length operator words; zero
    coefficients are never stored.  Each coefficient is exact and stored
    by ``qpoly._exact``: an int when it is integral, a Fraction
    otherwise, so states of integer reps hold only ints."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Coefficient]):
        cleaned: dict[Word, Coefficient] = {}
        length = None
        for w, c in terms.items():
            w = tuple(w)
            if length is None:
                length = len(w)
            elif len(w) != length:
                raise ContractViolation("all words in a StateVector must have equal length")
            cleaned[w] = cleaned.get(w, 0) + _exact(c)
        # a sum of Fractions can be integral
        self._set({w: _exact(c) for w, c in cleaned.items() if c})

    def word_length(self) -> int:
        for w in self.terms:
            return len(w)
        return 0


def _check_label_count(labels: Sequence[ModeLabel], rep: RepCoefficients) -> tuple:
    labels = tuple(labels)
    if len(labels) != rep.n:
        raise ContractViolation(
            f"got {len(labels)} labels for a rep over S_{rep.n}"
        )
    return labels


def build_state(labels: Sequence[ModeLabel], rep: RepCoefficients) -> StateVector:
    """Representation-weighted combination: the word permuted by P enters
    with coefficient c(P), for every P with a nonzero coefficient; the
    coefficients keep the rep's form, int where integral."""
    labels = _check_label_count(labels, rep)
    terms: dict[Word, Coefficient] = {}
    for p, c in rep.coeffs.items():
        permuted = tuple(labels[i - 1] for i in p)
        terms[permuted] = terms.get(permuted, 0) + c
    return StateVector(terms)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Concatenation product: words concatenate, coefficients multiply."""
    terms: dict[Word, Coefficient] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            terms[w] = terms.get(w, 0) + ca * cb
    return StateVector(terms)


def state_scalar_product(left: StateVector, right: StateVector) -> QPolynomial:
    """Bilinear extension of the word scalar product, by one
    ``wick.contract_terms`` call."""
    return contract_terms(left.terms.items(), right.terms.items())


def normalization_poly(rep: RepCoefficients, labels: Sequence[ModeLabel]) -> QPolynomial:
    """Squared norm of ``build_state`` as a polynomial in q; for distinct
    labels its degree is at most n(n-1)/2.

    Repeated labels are refused: the degree bound tacitly assumes
    constituents in distinct internal states.  With distinct labels the
    norm does not depend on the labels themselves, and it is computed in
    one of two ways, decided by the rep's support s over S_n:

    * dense, s * n >= n! and n <= DEFAULT_ENUM_CAP: c . (X_n c) in the
      regular representation (``_regular_norm``), n(n-1)/2 steps over a
      vector of n! entries whatever s is;
    * sparse, otherwise: one ``state_scalar_product`` of the state with
      itself, whose work follows s and which runs at any n, such as a
      one-term rep of thousands of letters.

    The engine's work grows with s and the dense path's does not, so the
    rule sends a rep to the dense path only past a support where that
    path is the faster one: measured, the two cost the same at a fifth
    to a half of n!/n terms for n = 4..8.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise UnsupportedError("normalization_poly requires distinct labels")
    n = rep.n
    if n <= DEFAULT_ENUM_CAP and len(rep.coeffs) * n >= math.factorial(n):
        _check_label_count(labels, rep)
        return _regular_norm(rep)
    state = build_state(labels, rep)
    return state_scalar_product(state, state)


def _regular_norm(rep: RepCoefficients) -> QPolynomial:
    """<psi|psi> = c . (X_n c) for the coefficient vector c of the rep
    over lexicographic S_n.  On distinct labels the Gram matrix of the
    permutation basis is X_n = sum_P q^inv(P) P acting on the right,
    (P c)(R) = c(R P), and X_n = T_2 T_3 .. T_n by the coset
    factorization (Zagier 1992), so T_n is applied first.  Each T_k is
    applied in Horner form, 1 + q s_(k-1) (1 + q s_(k-2) (.. (1 + q s_1))):
    every step gathers the vector through the index table of one s_i and
    adds the start vector to it shifted by one power of q.

    Entries are polynomials packed by the codec of ``qpoly``, as in the
    engine, with the engine's field bound for the same product,
    n! * (sum|c|)^2: a coefficient of the norm sums c(P) c(R) over pairs
    (P, R), so it is at most (sum|c|)^2 in magnitude.
    """
    n = rep.n
    coeffs, scale = _clear_denominators(
        map(rep.coeffs.get, all_permutations(n), repeat(0))
    )
    width = _field_width(math.factorial(n) * sum(map(abs, coeffs)) ** 2)
    gathers = [itemgetter(*table) for table in _transposition_tables(n)]
    vector = coeffs
    for k in range(n, 1, -1):
        partial = vector
        for gather in gathers[:k - 1]:
            partial = list(map(add, vector, map(lshift, gather(partial), repeat(width))))
        vector = partial
    return _unpack(sum(map(mul, coeffs, vector)), width, scale * scale)


def _transposition_tables(n: int) -> list[list[int]]:
    """Index tables of the adjacent transpositions s_1 .. s_(n-1) on
    lexicographic S_n acting on the right: entry r of table i is the rank
    of R s_i, R of rank r, which swaps places i and i+1 of R.

    Built from the tables of S_(n-1), no permutation hashed: S_n is n
    blocks of S_(n-1) by the first image, so s_i for i >= 2 acts inside
    each block as s_(i-1) of S_(n-1), and s_1 sends the sub-block
    (a, b, ...) to the sub-block (b, a, ...), the rest in the same order.
    """
    tables: list[list[int]] = []
    for m in range(2, n + 1):
        block = math.factorial(m - 1)
        sub = block // (m - 1)
        first: list[int] = []
        for a in range(m):
            for b in range(m):
                if b != a:
                    # block b, sub-block of a among the images other than b
                    start = b * block + (a - (a > b)) * sub
                    first.extend(range(start, start + sub))
        inner = []
        for table in tables:
            lifted: list[int] = []
            for offset in range(0, m * block, block):
                lifted.extend(map(add, table, repeat(offset)))
            inner.append(lifted)
        tables = [first] + inner
    return tables


def _finite_q(q_value: float) -> float:
    if not math.isfinite(q_value):
        raise ContractViolation(f"q must be a finite number, got {q_value}")
    return float(q_value)


class GramMatrix(NamedTuple):
    words: tuple[Word, ...]
    entries: tuple[tuple[QPolynomial, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.words)

    def map_entries(self, f: Callable[[QPolynomial], object]) -> list[list]:
        """f of every entry, as rows.

        f runs once per distinct entry object and its value is reused
        wherever that object recurs, so on a matrix from ``gram`` it runs
        once per distinct scalar product; entries that are equal but
        distinct objects are simply passed to f separately.
        """
        # keyed by identity: hashing the coefficients of every entry, even
        # int ones, costs more than the calls it would save
        distinct = {id(entry): entry for row in self.entries for entry in row}
        values = {key: f(entry) for key, entry in distinct.items()}
        return [[values[id(entry)] for entry in row] for row in self.entries]

    def evaluate(self, q_value: float) -> list[list[float]]:
        """The entries at q, as rows of Python floats, one Horner pass per
        distinct entry object (see ``map_entries``).  A non-finite q, or a
        q at which an entry overflows, is refused."""
        return self.map_entries(_entry_value(q_value))


def _entry_value(q_value: float) -> Callable[[QPolynomial], float]:
    """The value of one Gram entry at q, refusing a non-finite q at once
    and an entry that overflows a float when it is evaluated."""
    x = _finite_q(q_value)

    def value(entry: QPolynomial) -> float:
        v = entry.evaluate(x)
        if not math.isfinite(v):
            raise ContractViolation(f"the Gram matrix overflows a float at q = {q_value}")
        return v

    return value


def gram(words: Sequence[Word]) -> GramMatrix:
    """Gram matrix of scalar products; symmetric because a pairing and its
    inverse have the same inversion number.

    A scalar product depends on its two words only through which letters
    are equal.  Every label is written as one character and every word as
    a string.  Row i's translation table sends each label of word i to
    its first-occurrence number there and every other label to one
    sentinel, ``chr(word length)``, which makes the product zero whichever
    label it was; the pair (i, j) is keyed by word i's pattern followed by
    word j translated.  The engine runs once per distinct key, pairs with
    equal keys share one `QPolynomial`, and the lower triangle is the
    earlier rows' column i.
    """
    words = tuple(tuple(w) for w in words)
    if len(words) > GRAM_CAP:
        raise CapExceeded(f"gram is capped at {GRAM_CAP} words, got {len(words)}")
    if not words:
        return GramMatrix(words=(), entries=())
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ContractViolation("gram requires equal-length words")
    # the engine's cap, checked first: it keeps every label code and the
    # sentinel within the range of chr
    if length > Q_PERMANENT_CAP:
        raise CapExceeded(f"gram is capped at {Q_PERMANENT_CAP} letters per word, got {length}")
    codes: dict = {}
    strings = ["".join([codes.setdefault(label, chr(len(codes))) for label in w]) for w in words]
    sentinel = chr(length)
    products: dict = {}
    entries = []
    for i, (wi, si) in enumerate(zip(words, strings)):
        table = [sentinel] * len(codes)
        for number, code in enumerate(dict.fromkeys(si)):
            table[ord(code)] = chr(number)
        pattern = si.translate(table)
        row = list(map(itemgetter(i), entries))
        keys = map(pattern.__add__, map(str.translate, strings[i:], repeat(table)))
        for wj, key in zip(words[i:], keys):
            entry = products.get(key)
            if entry is None:
                entry = products[key] = scalar_product(wi, wj)
            row.append(entry)
        entries.append(row)
    return GramMatrix(words=words, entries=tuple(map(tuple, entries)))


def permutation_basis(labels: Sequence[ModeLabel]) -> list[Word]:
    """All n! place-permuted words of ``labels``, lexicographic in the
    permutation."""
    labels = tuple(labels)
    return [
        tuple(labels[i - 1] for i in p) for p in all_permutations(len(labels))
    ]


class PsdReport(NamedTuple):
    passed: bool
    min_eigenvalue: float
    dimension: int
    q_value: float
    q_in_range: bool
    witness: Optional[str]  # on failure, the first irrep whose block holds the minimum


def psd_report(labels: Sequence[ModeLabel], q_value: float) -> PsdReport:
    """Test the minimum eigenvalue of ``gram(permutation_basis(labels))``
    at q against the fixed threshold -1e-10 * n!, 1e-10 per row of that
    matrix, without building it.

    Let mu be the multiplicities of equal labels and H the group of the
    |H| = prod mu_i! place permutations that only move equal labels.  The
    Gram matrix is sum_h in H of h times X_n = sum_P q^inv(P) P; the two
    act on opposite sides of the regular representation, so its spectrum
    is |H| times that of rho(X_n) on every irrep whose partition dominates
    mu, plus 0 when a label repeats (the rows of equal words coincide).

    q outside [-1, 1] is permitted but flagged: positivity is only
    guaranteed inside the convexity range.  Empty labels, more than
    DEFAULT_ENUM_CAP (8) labels and a non-finite q are refused, and so
    is a q where q^top, top = n(n-1)/2, or the minimum eigenvalue
    overflows.  For n <= 6 that covers every q at which
    ``GramMatrix.evaluate`` refuses the matrix, because there the entries
    of degree top, a word paired with its reverse, are q^top plus lower
    powers below its rounding whenever |q| is that large.
    """
    labels = tuple(labels)
    n = len(labels)
    if n == 0:
        raise ContractViolation("the PSD check needs a non-empty Gram matrix")
    refuse_above_cap(n)
    x = _finite_q(q_value)
    top_power = QPolynomial.monomial(n * (n - 1) // 2).evaluate(x)
    if not math.isfinite(top_power):
        raise ContractViolation(f"the Gram matrix overflows a float at q = {q_value}")
    counts: dict = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    mu = sorted(counts.values(), reverse=True)
    repeats = math.prod(map(math.factorial, mu))
    # the blocks come divided by |q|^top when |q| > 1
    scale = repeats * max(1.0, abs(top_power))
    candidates = [(0.0, None)] if repeats > 1 else []
    for shape in partitions(n):
        if dominates(shape, mu):
            least = _min_eigenvalue(_irrep_block(shape, x))
            candidates.append((scale * least, shape))
    min_eig = min(value for value, _ in candidates)
    if not math.isfinite(min_eig):
        raise ContractViolation(f"the Gram matrix overflows a float at q = {q_value}")
    passed = min_eig >= -1e-10 * math.factorial(n)
    # as |q| grows, every irrep holding the eigenvalue -1 of the longest
    # permutation tends to the same minimum, and their blocks differ by
    # about 1/|q| relative: name the first irrep in partitions order
    # within 1e-12 of the least, above the rounding of the blocks
    shape = next(s for value, s in candidates if math.isclose(value, min_eig, rel_tol=1e-12))
    return PsdReport(
        passed=passed,
        min_eigenvalue=min_eig,
        dimension=math.factorial(n),
        q_value=float(q_value),
        q_in_range=-1.0 <= q_value <= 1.0,
        witness=None if passed else irrep_name(shape),
    )


def irrep_blocks(n: int, q_value: float) -> dict[str, list[list[float]]]:
    """rho(X_n) at q on every irrep of S_n, X_n = sum_P q^inv(P) P, built
    in Young's seminormal form and returned symmetric, in the basis of
    Young's orthogonal form (see ``_irrep_block``), divided by
    |q|^(n(n-1)/2) when |q| > 1; keyed by ``irrep_name``.  The Gram matrix
    of the permutation basis of n distinct labels is the regular
    representation of X_n: it holds each block dim times."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    x = _finite_q(q_value)
    return {irrep_name(shape): _irrep_block(shape, x) for shape in partitions(n)}


def _irrep_block(shape: tuple[int, ...], x: float) -> list[list[float]]:
    """rho(X_n) by the coset factorization X_n = X_{n-1} T_n over the
    minimal coset representatives, T_k = sum_{j<k} q^j s_{k-1} .. s_{k-j}:
    each T_k costs k-1 products with a sparse generator of the seminormal
    form, whose exact entries are converted to floats once.  When |q| > 1,
    T_k is divided by |q|^(k-1), so no entry exceeds n! in magnitude.

    The seminormal block B is D^-1 O D for the block O of Young's
    orthogonal form and a positive diagonal D, so B_ab B_ba = O_ab^2 and
    the block returned, sign(B_ab) sqrt(B_ab B_ba) for a < b mirrored
    below the diagonal, is the symmetric O up to rounding."""
    dimension, exact = seminormal_form(shape)
    generators = [(list(map(float, d)), p, list(map(float, c))) for d, p, c in exact]
    block = [[float(a == b) for b in range(dimension)] for a in range(dimension)]
    m = max(1.0, abs(x))
    for k in range(2, len(generators) + 2):
        weights = [(x / m) ** j * m ** (j - k + 1) for j in range(k)]
        step = block
        total = [[weights[0] * v for v in row] for row in block]
        for j in range(1, k):
            diagonal, partner, coupling = generators[k - j - 1]
            step = [
                [row[c] * diagonal[c] + row[partner[c]] * coupling[c] for c in range(dimension)]
                for row in step
            ]
            w = weights[j]
            total = [[t + w * v for t, v in zip(trow, srow)] for trow, srow in zip(total, step)]
        block = total
    for a in range(dimension):
        for b in range(a + 1, dimension):
            # O_ab^2 >= 0, so a negative product is rounding of a zero
            product = block[a][b] * block[b][a]
            block[a][b] = block[b][a] = math.copysign(math.sqrt(abs(product)), block[a][b])
    return block


def _min_eigenvalue(block: list[list[float]]) -> float:
    """Smallest eigenvalue of a symmetric matrix, by cyclic Jacobi
    rotations on a copy."""
    d = len(block)
    a = [row[:] for row in block]
    for sweep in range(50):
        rotated = False
        for p in range(d - 1):
            for r in range(p + 1, d):
                apr = a[p][r]
                if apr == 0.0:
                    continue
                app, arr = a[p][p], a[r][r]
                # an entry below the rounding of both diagonals is dropped
                g = 100.0 * abs(apr)
                if sweep > 3 and abs(app) + g == abs(app) and abs(arr) + g == abs(arr):
                    a[p][r] = a[r][p] = 0.0
                    continue
                rotated = True
                theta = (arr - app) / (2.0 * apr)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                a[p][p] = app - t * apr
                a[r][r] = arr + t * apr
                a[p][r] = a[r][p] = 0.0
                for k in range(d):
                    if k != p and k != r:
                        akp, akr = a[k][p], a[k][r]
                        a[k][p] = a[p][k] = c * akp - s * akr
                        a[k][r] = a[r][k] = s * akp + c * akr
        if not rotated:
            break
    return min(a[i][i] for i in range(d))


def irrep_weight_polys(n: int) -> dict[str, QPolynomial]:
    """Exact weight of each S_n irrep in the n-quon state of n distinct
    labels, as a polynomial in q.

    The weight of irrep lambda is the squared norm of the canonical word
    projected by the central idempotent e = (dim/n!) sum_P chi(P) P.  The
    Gram matrix of the permutation basis is X_n = sum_P q^inv(P) P acting
    in the regular representation, and e is central, self-adjoint and
    idempotent, so that norm is the identity coefficient of X_n e: the
    class sum (dim/n!) sum_P chi(P) q^inv(P).  One pass over S_n counts
    the inversion numbers per cycle type; no state is contracted.
    """
    table = character_table(n)
    top = n * (n - 1) // 2
    counts = {mu: [0] * (top + 1) for mu, _ in table.classes}
    for p in all_permutations(n):
        counts[cycle_type(p)][inversion_number(p)] += 1
    n_fact = math.factorial(n)
    out: dict[str, QPolynomial] = {}
    for label, dim, chars in table.irreps:
        class_sum = [
            sum(chi * counts[mu][k] for chi, (mu, _) in zip(chars, table.classes))
            for k in range(top + 1)
        ]
        out[label] = QPolynomial(Fraction(dim * c, n_fact) for c in class_sum)
    return out


def irrep_weights(n: int, q_value: float) -> dict[str, float]:
    """q-dependent probabilities of the S_n irreps for n distinct quons;
    reproduces (1+q)/2 and (1-q)/2 at n=2.  Requires -1 < q < 1.  The
    exact polynomials are evaluated at the rational q and rounded once."""
    if not -1.0 < q_value < 1.0:
        raise ContractViolation("irrep weights require -1 < q < 1")
    x = Fraction(q_value)
    return {label: float(poly.evaluate(x)) for label, poly in irrep_weight_polys(n).items()}
