"""Vacuum scalar products of creation-operator words.

The contraction rule: put the left word on one line, the right word below,
and sum over all ways of pairing each left operator with a distinct right
operator.  A pairing is a bijection R, it contributes the product of its
label deltas weighted by q to the inversion number of R (the minimum
number of crossings of the contraction lines).  Words of different length
give zero because an operator is left over to annihilate the vacuum.

``scalar_product`` runs the contraction engine ``contract_terms``, which
applies the left word as quon annihilators to the right word and returns
the whole product as one polynomial; the state products of ``fock``, all
but the norm of a dense rep, and the two-composite products of
``composite`` go through the same engine.

``q_permanent`` evaluates the same weighted sum for an arbitrary square
matrix by a dynamic program over subsets of used columns, with at most
O(2^n * n) steps: a flat list holds one slot per column mask, and one
pass reads the masks in ascending order, each pushing along the row its
bit count names.  The engine and the DP hold each polynomial packed as
one integer, in the codec that ``qpoly`` owns, so a shift by q^j is one
``<<`` and a merge one ``+``.

Both return exact `QPolynomial` values.  The brute-force enumeration of
all n! pairings that checks them is a test oracle in ``tests/oracles.py``.
"""

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .errors import Q_PERMANENT_CAP, ContractViolation, refuse_above_cap
from .qpoly import QPolynomial, _clear_denominators, _field_width, _unpack


class ModeLabel(namedtuple("ModeLabel", "index tag", defaults=(None,))):
    """Mode of one creation operator.

    ``index`` is an opaque internal quantum number; ``tag`` optionally
    names the composite the operator belongs to (a center-of-mass
    stand-in).  Two labels contract iff both fields are equal.

    Unlike every other value type of the package, a label is a tuple, not
    a `record.Record`: every word is a tuple of labels that is hashed as a
    dict key, so the tuple's C-level hash and equality sit in the inner
    loops.  With a label as a `Record`, ``composite --n 4 --rep sym
    --overlap`` took 89 ms in process instead of 20 ms, and ``gram
    --labels a,a,b,b,c,d`` 443 ms instead of 316 ms (minimum of 15 runs,
    one CPU, Python 3.11).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.tag}:{self.index}" if self.tag is not None else str(self.index)


Word = tuple[ModeLabel, ...]


def q_permanent(matrix: Sequence[Sequence]) -> QPolynomial:
    """Permanent-like sum over bijections R weighted by q^(inversions of R).

    Subset dynamic program: rows are processed in order; a state is the
    set of used columns.  Assigning column j at row i adds one inversion
    for every already-used column greater than j, which reconstructs the
    inversion number of the full bijection.  Each row is scaled to
    integers, so every state is a packed integer whose fields are bounded
    by n! times the product of the largest row entries.

    The states live in a flat list of 2^n slots indexed by the column
    mask, and one pass walks the masks in ascending numeric order.  A
    mask only pushes into masks with one more bit set, which are larger
    numbers, so ascending order is a topological order of the DP: when a
    mask is read, every push into it has landed.  A mask with k bits set
    has assigned rows 0..k-1, so it pushes along row k; a zero slot has
    nothing to push, and a slot is reset to 0 once pushed, so it holds
    its integer only until its turn.  A row lists every column, highest
    first, with its entry; walking a source mask down that list, each
    used column adds one field width to a pending shift, which is applied
    to the source at the next free column with a nonzero entry.  So the
    source is shifted once per run of used columns, and no free column
    counts the used ones above it.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ContractViolation("q_permanent requires a square matrix")
    if n == 0:
        return QPolynomial.one()
    refuse_above_cap(n, Q_PERMANENT_CAP, "a q-permanent of {0} rows")
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
        rows.append([(1 << j, entries[j]) for j in reversed(range(n))])
        denominator *= scale
        bound *= max(map(abs, entries))
    width = _field_width(bound)

    slots = [0] * (1 << n)
    slots[0] = 1
    for mask in range(len(slots) - 1):
        value = slots[mask]
        if not value:
            continue
        slots[mask] = 0
        pending = 0
        for bit, entry in rows[mask.bit_count()]:
            if mask & bit:
                pending += width
                continue
            if not entry:
                continue
            if pending:
                value <<= pending
                pending = 0
            target = mask | bit
            slots[target] = slots[target] + (value if entry == 1 else value * entry)
    return _unpack(slots[-1], width, denominator)


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
    refuse_above_cap(len(left), Q_PERMANENT_CAP, "a scalar product of words of {0} letters")
    return contract_terms([(left, 1)], [(right, 1)])

