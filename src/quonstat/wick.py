"""Vacuum scalar products of creation-operator words.

The contraction rule: put the left word on one line, the right word below,
and sum over all ways of pairing each left operator with a distinct right
operator.  A pairing is a bijection R, it contributes the product of its
label deltas weighted by q to the inversion number of R (the minimum
number of crossings of the contraction lines).  Words of different length
give zero because an operator is left over to annihilate the vacuum.

Two independent evaluation paths are provided on purpose:

* ``oracle_scalar_product`` / ``oracle_q_permanent`` enumerate all n!
  pairings literally and serve as the ground truth; being work over S_n,
  they are refused above the S_k cap, n > 8;
* ``scalar_product`` runs the contraction engine ``contract_terms``, which
  applies the left word as quon annihilators to the right word and
  returns the whole product as one polynomial; the state products of
  ``fock``, all but the norm of a dense rep, and the two-composite
  products of ``composite`` go through the same engine.

``q_permanent`` evaluates the same weighted sum for an arbitrary square
matrix by a dynamic program over subsets of used columns, with at most
O(2^n * n) steps: a flat list holds one slot per column mask, and each
row visits only the masks the previous row reached.  The engine and the
DP hold each polynomial packed as one integer, in the codec that
``qpoly`` owns, so a shift by q^j is one ``<<`` and a merge one ``+``.

All paths return exact `QPolynomial` values and must agree identically.
"""

import math
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import Q_PERMANENT_CAP, CapExceeded, ContractViolation
from .permutations import all_permutations, inversion_number
from .qpoly import QPolynomial, _clear_denominators, _field_width, _unpack


class ModeLabel(NamedTuple):
    """Mode of one creation operator.

    ``index`` is an opaque internal quantum number; ``tag`` optionally
    names the composite the operator belongs to (a center-of-mass
    stand-in).  Two labels contract iff both fields are equal;
    tuple semantics keep that comparison cheap in the inner loops.
    """

    index: Hashable
    tag: Hashable = None

    def __str__(self) -> str:
        return f"{self.tag}:{self.index}" if self.tag is not None else str(self.index)


Word = tuple[ModeLabel, ...]


def delta_matrix(left: Sequence[ModeLabel], right: Sequence[ModeLabel]) -> list[list[int]]:
    """0/1 matrix of label coincidences, entry (i, j) = delta(left_i, right_j)."""
    return [[1 if a == b else 0 for b in right] for a in left]


def q_permanent(matrix: Sequence[Sequence]) -> QPolynomial:
    """Permanent-like sum over bijections R weighted by q^(inversions of R).

    Subset dynamic program: rows are processed in order; a state is the
    set of used columns.  Assigning column j at row i adds one inversion
    for every already-used column greater than j, which reconstructs the
    inversion number of the full bijection.  Each row is scaled to
    integers, so every state is a packed integer whose fields are bounded
    by n! times the product of the largest row entries.

    The states live in a flat list of 2^n slots indexed by the column
    mask.  A row walks a frontier, the masks the previous row reached: a
    mask joins the next frontier when its slot turns nonzero, and a slot
    is reset to 0 once pushed, so only two rows' states are live.  Free
    columns are taken highest first, so the number of used columns above
    the target only grows; the source is shifted once per distinct count,
    not once per target.
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
        # highest column first, so the used columns above a target only grow
        rows.append([(j + 1, 1 << j, entries[j]) for j in reversed(range(n)) if entries[j]])
        denominator *= scale
        bound *= max(map(abs, entries))
    width = _field_width(bound)

    slots = [0] * (1 << n)
    slots[0] = 1
    frontier = [0]
    for columns in rows:
        reached = []
        for mask in frontier:
            value = slots[mask]
            # a slot that cancelled to zero, or that was listed again
            # after cancelling and being reached anew, has nothing to push
            if not value:
                continue
            slots[mask] = 0
            rank = 0
            shifted = value
            for above, bit, entry in columns:
                if mask & bit:
                    continue
                used = (mask >> above).bit_count()
                if used != rank:
                    rank = used
                    shifted = value << rank * width
                target = mask | bit
                old = slots[target]
                if not old:
                    reached.append(target)
                slots[target] = old + (shifted if entry == 1 else shifted * entry)
        if not reached:
            return QPolynomial.zero()
        frontier = reached
    return _unpack(slots[-1], width, denominator)


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


def contract_terms(left: Iterable, right: Iterable) -> QPolynomial:
    """Scalar product of two linear combinations of words by the quon
    annihilator action.

    ``left`` and ``right`` are (word, coefficient) pairs, each
    coefficient an int or a Fraction; all
    words of one side have one length, and words of different lengths
    contract to zero.  Reading the left word from its first letter, each
    letter k applies a(k) (w_1...w_m) = sum_j q^(j-1) delta(k, w_j)
    (w without w_j) to the right combination, held sparsely as residual
    word -> packed polynomial; the scalar product of a left word is what
    remains on the empty word.  The left words are walked as a prefix
    trie, so left terms sharing a prefix share its residual states.
    Right terms whose residuals coincide merge: with distinct labels the
    support at depth d is at most (m - d)! words, the orders of the
    labels not yet annihilated, however many right terms there are.  The
    cost is therefore about the number of trie nodes times the support at
    their depth, instead of |left| * |right| word pairs.

    Integer coefficients are used as they are, and a side with a
    Fraction coefficient is cleared to integers over one common
    denominator.  Every polynomial is one integer with a signed field of
    fixed width per power of q; no field can exceed
    m! * sum|left| * sum|right|, the number of pairings times the
    coefficient mass.  The trie is walked with a stack, not recursion, so
    no word is too long for it: each node fills the residual states of
    all its child letters in one pass over its own state.
    """
    left, right = list(left), list(right)
    if not left or not right or len(left[0][0]) != len(right[0][0]):
        return QPolynomial.zero()
    m = len(left[0][0])
    left_coeffs, left_scale = _clear_denominators(c for _, c in left)
    right_coeffs, right_scale = _clear_denominators(c for _, c in right)
    width = _field_width(
        math.factorial(m) * sum(map(abs, left_coeffs)) * sum(map(abs, right_coeffs))
    )
    ids: dict = {}

    # residual words are tuples of label ids
    state: dict = {}
    for (w, _), c in zip(right, right_coeffs):
        key = tuple(ids.setdefault(k, len(ids)) for k in w)
        state[key] = state.get(key, 0) + c

    trie: dict = {}
    for (w, _), c in zip(left, left_coeffs):
        node = trie
        for k in w:
            node = node.setdefault(ids.setdefault(k, len(ids)), {})
        node[None] = node.get(None, 0) + c

    total = 0
    stack = [(trie, state)]
    while stack:
        node, state = stack.pop()
        if None in node:
            total += node[None] * state[()]
            continue
        children = {k: {} for k in node}
        for residual, value in state.items():
            for j, letter in enumerate(residual):
                nxt = children.get(letter)
                if nxt is not None:
                    key = residual[:j] + residual[j + 1:]
                    nxt[key] = nxt.get(key, 0) + (value << j * width)
        stack.extend((node[k], nxt) for k, nxt in children.items() if nxt)
    return _unpack(total, width, left_scale * right_scale)


def scalar_product(left: Word, right: Word) -> QPolynomial:
    """Vacuum scalar product of two creation words, by ``contract_terms``."""
    if len(left) != len(right):
        return QPolynomial.zero()
    if len(left) > Q_PERMANENT_CAP:
        raise CapExceeded(
            f"scalar_product is capped at {Q_PERMANENT_CAP} letters per word, got {len(left)}"
        )
    return contract_terms([(left, 1)], [(right, 1)])


def oracle_scalar_product(left: Word, right: Word) -> QPolynomial:
    """Vacuum scalar product by brute-force pairing enumeration."""
    if len(left) != len(right):
        return QPolynomial.zero()
    return oracle_q_permanent(delta_matrix(left, right))
