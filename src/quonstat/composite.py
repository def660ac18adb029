"""Two-composite scalar products and the effective exchange parameter.

A composite of n constituents is a representation-weighted sum of n!
permuted creation words, every constituent carrying the label
(tag, internal index): the tag stands in for the bound-state argument, a
delta-localized internal wavefunction.  The scalar product of two
two-composite states splits over pairing diagrams by block structure:

* direct   - each left composite pairs wholly with the right composite
             in the same position;
* exchange - the two composites swap partners (the n^2 crossings of the
             two superlines contribute the q^(n^2) factor);
* cross    - constituents of one left composite pair into both right
             composites; vanishes identically when the four tags are
             pairwise distinct and is only nonzero under forced overlap.

``two_composite_scalar`` splits each pairing by the set S of left
positions it sends into the first right composite (Rosso's quantum-shuffle
coproduct on the Bozejko-Speicher pairing rule).  Labels pair only if
their tags agree, and that one test decides every S.  The two whole
left blocks are the direct and the exchange S.  A block pairs with a
composite of its own tag as a composite pairs with itself, so each
passing block's term is q^crossings * P * P for the composite norm P;
the exchange block's crossings are the n^2 inversions of
``block_swap``.  A mixed S passes only when a side repeats a tag, so
with distinct tags on both sides the cross term is zero; otherwise it
is the full product less the two whole-block terms, one more engine
call on the 2n-operator states.  That is work over S_2n, which the S_k
cap of ``errors.refuse_above_cap`` refuses for n > 4.

The two whole-block terms are formed once per law: ``_whole_blocks``
forms P once by ``fock.normalization_poly``, squares it, counts the
crossings c of ``block_swap`` and shifts P^2 by c, and the split only
picks between P^2 and q^c * P^2 by the tag test.  P of a dense rep,
such as ``sym`` and ``antisym``, comes from the regular representation
of S_n and makes no engine call; P of a sparse rep, such as one term,
is one engine call on n letters.  ``exchange_law`` feeds the pair to
the split of both the aligned and the swapped product and checks
c = n^2; ``two_composite_scalar`` forms it only when a whole block
passes.
"""

from typing import Hashable, NamedTuple, Sequence

from .errors import ContractViolation, TheoremViolation, refuse_above_cap
from .fock import StateVector, build_state, normalization_poly, state_scalar_product, tensor
from .permutations import Permutation, RepCoefficients, inversion_number
from .qpoly import QPolynomial
from .record import Record
from .wick import ModeLabel

BOSON = "boson"
FERMION = "fermion"


class CompositeSpec(Record):
    """An n-constituent bound state: distinct internal labels plus the
    representation coefficients that weight the permuted orders."""

    __slots__ = ("n", "internal_labels", "rep")

    def __init__(self, n: int, internal_labels: Sequence[Hashable], rep: RepCoefficients):
        internal_labels = tuple(internal_labels)
        if n < 1:
            raise ContractViolation("composite needs at least one constituent")
        if len(internal_labels) != n:
            raise ContractViolation("need exactly n internal labels")
        if len(set(internal_labels)) != n:
            raise ContractViolation("internal labels must be distinct")
        if rep.n != n:
            raise ContractViolation("rep arity does not match constituent count")
        self._set(n, internal_labels, rep)


class TwoCompositeResult(NamedTuple):
    direct: QPolynomial
    exchange: QPolynomial
    cross: QPolynomial
    n: int

    @property
    def total(self) -> QPolynomial:
        return self.direct + self.exchange + self.cross


def composite_word(spec: CompositeSpec, tag: Hashable) -> StateVector:
    """The composite creation state for one bound-state tag."""
    labels = [ModeLabel(index, tag) for index in spec.internal_labels]
    return build_state(labels, spec.rep)


def block_swap(n: int) -> Permutation:
    """The 2n-permutation exchanging the two blocks while preserving the
    order inside each; its inversion number is exactly n^2."""
    return tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))


def _whole_blocks(spec: CompositeSpec) -> tuple[QPolynomial, QPolynomial, int]:
    """P^2 and q^c * P^2 for the composite norm P = <A|A> of one
    composite state, formed once, and the crossing count c of
    ``block_swap``."""
    p = normalization_poly(spec.rep, [ModeLabel(i) for i in spec.internal_labels])
    squared = p * p
    crossings = inversion_number(block_swap(spec.n))
    return squared, squared.shift(crossings), crossings


def _split(
    spec: CompositeSpec,
    left_tags: Sequence[Hashable],
    right_tags: Sequence[Hashable],
    whole_blocks: tuple[QPolynomial, QPolynomial] | None,
) -> TwoCompositeResult:
    # the q-shuffle split of ``two_composite_scalar``, given the direct and
    # exchange block terms of ``_whole_blocks``; None forms them here, and
    # only if a whole block passes the tag test
    n = spec.n
    (t1, t2), (u1, u2) = left_tags, right_tags
    overlap = t1 == t2 or u1 == u2
    if overlap:
        # the full contraction of the 2n-operator states is work over S_2n
        refuse_above_cap(2 * n)
    # S is left block k: it pairs with u1 and the other block with u2, so
    # it passes the tag test only if those blocks carry u1 and u2
    passes = [(left_tags[k], left_tags[1 - k]) == (u1, u2) for k in (0, 1)]
    zero = QPolynomial.zero()
    direct = exchange = zero
    if any(passes):
        if whole_blocks is None:
            whole_blocks = _whole_blocks(spec)[:2]
        direct, exchange = (term if ok else zero for term, ok in zip(whole_blocks, passes))
    cross = zero
    if overlap:
        left = tensor(composite_word(spec, t1), composite_word(spec, t2))
        right = tensor(composite_word(spec, u1), composite_word(spec, u2))
        cross = state_scalar_product(left, right) - direct - exchange
    return TwoCompositeResult(direct=direct, exchange=exchange, cross=cross, n=n)


def two_composite_scalar(
    spec: CompositeSpec,
    left_tags: Sequence[Hashable],
    right_tags: Sequence[Hashable],
) -> TwoCompositeResult:
    """Scalar product of two-composite states, split into direct,
    exchange, and cross components (their sum is the full product).

    A pairing sends a set S of left positions into the first right
    composite; its crossings are those inside S, those inside the rest,
    and #{i < j : i not in S, j in S}.  The direct and exchange
    components are the two whole-block S, with the 0 and n^2 crossings
    of the identity and of ``block_swap``.  A block paired with a
    composite of another tag gives zero, and one of its own tag gives
    the composite norm P, so a passing block's term is
    q^crossings * P * P.  A mixed S passes only if a side repeats a tag.
    With distinct tags on both sides the cross component is zero;
    otherwise it is the full product of the two tensor states less the
    whole-block terms.  P is formed once, and only if a whole block
    passes: for aligned or swapped tags and under full overlap, not when
    no block passes.  Engine calls: none for P of a dense rep (one for a
    sparse rep), plus one on 2n letters for the full product if a side
    repeats a tag.  A repeated tag is work over S_2n, refused for n > 4
    before P is formed.
    """
    return _split(spec, left_tags, right_tags, None)


def exchange_law(
    spec: CompositeSpec,
) -> tuple[TwoCompositeResult, TwoCompositeResult, int]:
    """The aligned and swapped two-composite scalar products and the
    verified exponent of the composite exchange parameter, from one
    composite norm P: for a dense rep no engine call at all, for a
    sparse rep the one engine call of P.

    Asserts the exact identities direct = P^2 and exchange = q^(n^2) *
    direct, plus the n^2 crossing count of the order-preserving block
    swap.  Any failure raises TheoremViolation.  Both products come from
    the split of ``two_composite_scalar``, fed the one pair P^2 and
    q^(n^2) * P^2; direct = P^2 checks which block the split let pass.
    Once c = n^2 and direct = P^2 hold, exchange = q^(n^2) * direct is
    checked against that q^(n^2) * P^2, so no second shift is formed.
    """
    n = spec.n
    squared, shifted, crossings = _whole_blocks(spec)
    if crossings != n * n:
        raise TheoremViolation(f"block swap of n={n} does not have n^2 inversions")
    aligned = _split(spec, ("t1", "t2"), ("t1", "t2"), (squared, shifted))
    swapped = _split(spec, ("t1", "t2"), ("t2", "t1"), (squared, shifted))
    zero = QPolynomial.zero()
    if aligned.direct != squared:
        raise TheoremViolation("direct component does not equal the squared normalization polynomial")
    if (aligned.exchange, aligned.cross) != (zero, zero):
        raise TheoremViolation("aligned tags produced non-direct components")
    if swapped.exchange != shifted:
        raise TheoremViolation("exchange component is not q^(n^2) times the direct component")
    if (swapped.direct, swapped.cross) != (zero, zero):
        raise TheoremViolation("swapped tags produced non-exchange components")
    return aligned, swapped, n * n


def weo_limit_check(n: int, sign: str) -> str:
    """Boundary statistics of an n-constituent composite: q^(n^2)
    evaluated at q=+1 (bose) or q=-1 (fermi).  Fermi constituents give a
    fermion iff n is odd, because n and n^2 share parity."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if sign == "bose":
        q_value = 1
    elif sign == "fermi":
        q_value = -1
    else:
        raise ContractViolation("sign must be 'bose' or 'fermi'")
    return BOSON if q_value ** (n * n) == 1 else FERMION
