"""Composite statistics: classification, the q^(n^2) exchange law, limits."""

import math
import random
import re
from fractions import Fraction
from itertools import permutations as bijections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pairwise_dp_scalar, schoolbook_product, shuffle_split_scalar

from quonstat import (
    CapExceeded,
    CompositeSpec,
    ContractViolation,
    ModeLabel,
    QPolynomial,
    RepCoefficients,
    TheoremViolation,
    all_permutations,
    block_swap,
    composite,
    composite_word,
    exchange_law,
    fock,
    inversion_number,
    normalization_poly,
    preset_rep,
    random_rep,
    state_scalar_product,
    tensor,
    two_composite_scalar,
    weo_limit_check,
)


def make_spec(n, rep=None):
    return CompositeSpec(
        n=n,
        internal_labels=tuple(range(1, n + 1)),
        rep=rep if rep is not None else preset_rep(n, "antisymmetric"),
    )


def literal_classified(spec, left_tags, right_tags):
    """Independent oracle: expand both product states and enumerate every
    one of the (2n)! pairings of each word pair literally."""
    n = spec.n
    left = tensor(composite_word(spec, left_tags[0]), composite_word(spec, left_tags[1]))
    right = tensor(composite_word(spec, right_tags[0]), composite_word(spec, right_tags[1]))
    buckets = {
        "direct": QPolynomial.zero(),
        "exchange": QPolynomial.zero(),
        "cross": QPolynomial.zero(),
    }
    for wl, cl in left.terms.items():
        for wr, cr in right.terms.items():
            for pairing in bijections(range(2 * n)):
                if any(wl[i] != wr[pairing[i]] for i in range(2 * n)):
                    continue
                first_images = pairing[:n]
                if all(j < n for j in first_images):
                    kind = "direct"
                elif all(j >= n for j in first_images):
                    kind = "exchange"
                else:
                    kind = "cross"
                inv = sum(
                    1
                    for i in range(2 * n)
                    for j in range(i + 1, 2 * n)
                    if pairing[i] > pairing[j]
                )
                buckets[kind] = buckets[kind] + cl * cr * QPolynomial.monomial(inv)
    return buckets


def full_scalar(spec, left_tags, right_tags):
    """The whole product by the pairwise q-permanent oracle, which shares no
    code with the contraction engine behind ``two_composite_scalar``."""
    left = tensor(composite_word(spec, left_tags[0]), composite_word(spec, left_tags[1]))
    right = tensor(composite_word(spec, right_tags[0]), composite_word(spec, right_tags[1]))
    return pairwise_dp_scalar(left, right)


def split_buckets(spec, left_tags, right_tags):
    """Direct, exchange and cross by the q-shuffle split of each left word
    (``oracles.shuffle_split_scalar``), which shares no code with the
    contraction engine either."""
    n = spec.n
    left = tensor(composite_word(spec, left_tags[0]), composite_word(spec, left_tags[1]))
    hits = shuffle_split_scalar(
        left, composite_word(spec, right_tags[0]), composite_word(spec, right_tags[1]), n
    )
    return {
        "direct": hits[n],
        "exchange": hits[0],
        "cross": sum(hits[1:n], QPolynomial.zero()),
    }


TAG_CONFIGS = [
    (("t1", "t2"), ("t1", "t2")),   # aligned
    (("t1", "t2"), ("t2", "t1")),   # swapped
    (("t1", "t2"), ("u1", "u2")),   # disjoint
    (("t1", "t2"), ("t1", "u2")),   # half aligned
    (("t", "t"), ("t", "t")),       # forced overlap
]
# a tag repeated on one side only
ONE_SIDED_CONFIGS = [
    (("t", "t"), ("t", "u")),
    (("t", "u"), ("t", "t")),
    (("t", "t"), ("u1", "u2")),
]


def test_composite_word_single_constituent():
    spec = make_spec(1, preset_rep(1, "symmetric"))
    state = composite_word(spec, "p")
    assert state.terms == {(ModeLabel(1, "p"),): 1}


def test_composite_word_antisymmetric_pair():
    spec = make_spec(2)
    state = composite_word(spec, "p1")
    assert state.terms == {
        (ModeLabel(1, "p1"), ModeLabel(2, "p1")): 1,
        (ModeLabel(2, "p1"), ModeLabel(1, "p1")): -1,
    }


def test_composite_word_symmetric_triple():
    spec = make_spec(3, preset_rep(3, "symmetric"))
    state = composite_word(spec, "x")
    assert len(state.terms) == 6
    assert set(state.terms.values()) == {Fraction(1)}


def test_spec_validation():
    with pytest.raises(ContractViolation, match="at least one constituent"):
        CompositeSpec(0, (), preset_rep(2, "symmetric"))
    with pytest.raises(ContractViolation):
        CompositeSpec(n=2, internal_labels=(1, 1), rep=preset_rep(2, "symmetric"))
    with pytest.raises(ContractViolation):
        CompositeSpec(n=2, internal_labels=(1, 2, 3), rep=preset_rep(2, "symmetric"))
    with pytest.raises(ContractViolation):
        CompositeSpec(n=3, internal_labels=(1, 2, 3), rep=preset_rep(2, "symmetric"))


def test_two_composite_repeated_tag_on_one_side(monkeypatch):
    # a repeated tag is computed while the full contraction, work over
    # S_2n, is within the S_k cap, and refused past it before any state
    spec = make_spec(2)
    got = two_composite_scalar(spec, ("t", "t"), ("u1", "u2"))
    want = literal_classified(spec, ("t", "t"), ("u1", "u2"))
    assert (got.direct, got.exchange, got.cross) == (
        want["direct"],
        want["exchange"],
        want["cross"],
    )
    spec = make_spec(5, preset_rep(5, "symmetric"))

    def no_state(*args):
        raise AssertionError("a composite state was built before the refusal")

    monkeypatch.setattr(composite, "composite_word", no_state)
    with pytest.raises(CapExceeded, match=r"S_10 \(10! elements\); cap is 8"):
        two_composite_scalar(spec, ("t", "t"), ("t", "t"))


@pytest.mark.parametrize(
    "left_tags, right_tags, calls",
    [
        (("t1", "t2"), ("t1", "t2"), 1),  # aligned: the direct block passes
        (("t1", "t2"), ("t2", "t1"), 1),  # swapped: the exchange block passes
        (("t1", "t2"), ("u1", "u2"), 0),  # disjoint: no block passes
        (("t1", "t2"), ("t1", "u2"), 0),  # half aligned: no block passes
        (("t", "t"), ("t", "t"), 2),      # forced overlap: the norm and the full product
    ],
)
def test_two_composite_contracts_the_norm_once(monkeypatch, left_tags, right_tags, calls):
    # calls counts the norm P, formed once if a whole block passes, and the
    # full product; P of the dense random rep takes no engine call, so the
    # full product is the one engine call, on 2n letters
    spec = make_spec(3, random_rep(3, random.Random(7)))
    want = split_buckets(spec, left_tags, right_tags)
    formed = []
    word_lengths = []
    norm = composite.normalization_poly
    contract_terms = fock.contract_terms

    def counted_norms(rep, labels):
        formed.append(rep.n)
        return norm(rep, labels)

    def counted(left, right):
        left = list(left)
        word_lengths.append(len(left[0][0]))
        return contract_terms(left, right)

    monkeypatch.setattr(composite, "normalization_poly", counted_norms)
    monkeypatch.setattr(fock, "contract_terms", counted)
    got = two_composite_scalar(spec, left_tags, right_tags)
    assert formed == [3] * min(calls, 1)
    assert word_lengths == [6] * (calls - len(formed))
    assert (got.direct, got.exchange, got.cross) == (want["direct"], want["exchange"], want["cross"])


def test_single_constituent_examples():
    spec = make_spec(1, preset_rep(1, "symmetric"))
    aligned = two_composite_scalar(spec, ("t1", "t2"), ("t1", "t2"))
    assert (aligned.direct, aligned.exchange, aligned.cross) == (
        QPolynomial.one(),
        QPolynomial.zero(),
        QPolynomial.zero(),
    )
    swapped = two_composite_scalar(spec, ("t1", "t2"), ("t2", "t1"))
    assert (swapped.direct, swapped.exchange, swapped.cross) == (
        QPolynomial.zero(),
        QPolynomial.q(),
        QPolynomial.zero(),
    )


def test_classified_matches_literal_oracle():
    rng = random.Random(41)
    for n in (1, 2):
        for rep in (
            preset_rep(n, "symmetric"),
            preset_rep(n, "antisymmetric"),
            random_rep(n, rng),
        ):
            spec = make_spec(n, rep)
            for left_tags, right_tags in TAG_CONFIGS + ONE_SIDED_CONFIGS:
                got = two_composite_scalar(spec, left_tags, right_tags)
                want = literal_classified(spec, left_tags, right_tags)
                assert got.direct == want["direct"]
                assert got.exchange == want["exchange"]
                assert got.cross == want["cross"]
                assert split_buckets(spec, left_tags, right_tags) == want


def test_classified_matches_literal_oracle_n3_overlap():
    spec = make_spec(3, preset_rep(3, "antisymmetric"))
    got = two_composite_scalar(spec, ("t", "t"), ("t", "t"))
    want = literal_classified(spec, ("t", "t"), ("t", "t"))
    assert (got.direct, got.exchange, got.cross) == (
        want["direct"],
        want["exchange"],
        want["cross"],
    )
    assert split_buckets(spec, ("t", "t"), ("t", "t")) == want


def test_classified_matches_literal_oracle_n3():
    # three of the six orders, with unequal weights, give product states
    # of 9 words instead of 36, which the literal oracle can afford
    rep = RepCoefficients(n=3, coeffs={(1, 2, 3): 1, (2, 1, 3): Fraction(-1, 2), (2, 3, 1): 3})
    spec = make_spec(3, rep)
    for left_tags, right_tags in TAG_CONFIGS + ONE_SIDED_CONFIGS:
        got = two_composite_scalar(spec, left_tags, right_tags)
        want = literal_classified(spec, left_tags, right_tags)
        assert (got.direct, got.exchange, got.cross) == tuple(want.values())


@st.composite
def small_composite(draw):
    """n <= 2 with random rational coefficients (some cancelling in the
    product states) and tags that repeat within and across sides."""
    n = draw(st.integers(1, 2))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=math.factorial(n),
            max_size=math.factorial(n),
        ).filter(any)
    )
    rep = RepCoefficients(n=n, coeffs=dict(zip(all_permutations(n), coeffs)))
    tags = st.tuples(st.sampled_from("tu"), st.sampled_from("tu"))
    return make_spec(n, rep), draw(tags), draw(tags)


@settings(deadline=None)
@given(small_composite())
def test_classified_buckets_match_literal_oracle(case):
    spec, left_tags, right_tags = case
    got = two_composite_scalar(spec, left_tags, right_tags)
    want = literal_classified(spec, left_tags, right_tags)
    assert (got.direct, got.exchange, got.cross) == (
        want["direct"],
        want["exchange"],
        want["cross"],
    )


def test_decomposition_identity_all_configs():
    rng = random.Random(3)
    for n in (1, 2, 3):
        for rep in (
            preset_rep(n, "symmetric"),
            preset_rep(n, "antisymmetric"),
            random_rep(n, rng),
        ):
            spec = make_spec(n, rep)
            for left_tags, right_tags in TAG_CONFIGS:
                result = two_composite_scalar(spec, left_tags, right_tags)
                assert result.total == full_scalar(spec, left_tags, right_tags)


# n = 4 is checked against the split oracle, which is checked against
# literal_classified at n <= 3 above; the pairwise oracle is too slow here
@pytest.mark.parametrize("kind", ["symmetric", "antisymmetric"])
def test_decomposition_identity_n4_distinct_tags(kind):
    spec = make_spec(4, preset_rep(4, kind))
    for left_tags, right_tags in TAG_CONFIGS[:4]:
        result = two_composite_scalar(spec, left_tags, right_tags)
        want = split_buckets(spec, left_tags, right_tags)
        assert result.total == sum(want.values(), QPolynomial.zero())
        assert (result.direct, result.exchange, result.cross) == tuple(want.values())


@pytest.mark.parametrize("kind", ["symmetric", "antisymmetric"])
def test_decomposition_identity_n4_forced_overlap(kind):
    spec = make_spec(4, preset_rep(4, kind))
    result = two_composite_scalar(spec, ("t", "t"), ("t", "t"))
    want = split_buckets(spec, ("t", "t"), ("t", "t"))
    assert result.total == sum(want.values(), QPolynomial.zero())
    assert (result.direct, result.exchange, result.cross) == tuple(want.values())
    assert not result.cross.is_zero()


def test_exchange_law_small_n():
    # the split path equals the shuffle-split oracle in every bucket on
    # the distinct-tag configurations
    rng = random.Random(8)
    for n in (1, 2, 3, 4):
        reps = [
            preset_rep(n, "symmetric"),
            preset_rep(n, "antisymmetric"),
            random_rep(n, rng),
        ]
        for rep in reps:
            spec = make_spec(n, rep)
            for left_tags, right_tags in TAG_CONFIGS[:4]:
                got = two_composite_scalar(spec, left_tags, right_tags)
                want = split_buckets(spec, left_tags, right_tags)
                assert (got.direct, got.exchange, got.cross) == tuple(want.values())
            aligned = two_composite_scalar(spec, ("t1", "t2"), ("t1", "t2"))
            swapped = two_composite_scalar(spec, ("t1", "t2"), ("t2", "t1"))
            assert swapped.exchange == QPolynomial.monomial(n * n) * aligned.direct
            p = normalization_poly(rep, [ModeLabel(i) for i in spec.internal_labels])
            assert aligned.direct == p * p


def test_effective_exponent_values():
    assert exchange_law(make_spec(1, preset_rep(1, "symmetric")))[2] == 1
    assert exchange_law(make_spec(2, preset_rep(2, "symmetric")))[2] == 4
    assert exchange_law(make_spec(2))[2] == 4
    assert exchange_law(make_spec(3))[2] == 9


def test_exchange_law_returns_the_products_it_verified():
    spec = make_spec(3, preset_rep(3, "symmetric"))
    aligned, swapped, exponent = exchange_law(spec)
    assert aligned == two_composite_scalar(spec, ("t1", "t2"), ("t1", "t2"))
    assert swapped == two_composite_scalar(spec, ("t1", "t2"), ("t2", "t1"))
    assert exponent == 9


def _on_split(mutate):
    """A patch of ``composite._split`` that mutates its result; ``mutate``
    is told whether the product is the swapped one."""
    def patch(split):
        def misrouted(spec, left_tags, right_tags, blocks):
            return mutate(split(spec, left_tags, right_tags, blocks), right_tags == ("t2", "t1"))
        return misrouted
    return patch


def _replaced(result, **changes):
    """``result`` rebuilt from its fields, with ``changes`` in place."""
    fields = {name: getattr(result, name) for name in result.__slots__}
    return type(result)(**{**fields, **changes})


# Each misrouting of the split's two block terms, on the aligned or the
# swapped product, or of the block swap itself: the attribute of
# ``composite`` it patches, the patch made from the original, and the
# trip-wire of exchange_law it must fire.
MISROUTES = {
    "swap_both": (
        "_split", _on_split(lambda r, swapped: _replaced(r, direct=r.exchange, exchange=r.direct)),
        "direct component does not equal the squared normalization polynomial",
    ),
    "swap_swapped": (
        "_split", _on_split(
            lambda r, swapped: _replaced(r, direct=r.exchange, exchange=r.direct) if swapped else r
        ),
        "exchange component is not q^(n^2) times the direct component",
    ),
    "aligned_passes_both": (
        "_split", _on_split(lambda r, swapped: r if swapped else _replaced(r, exchange=r.direct)),
        "aligned tags produced non-direct components",
    ),
    "swapped_passes_both": (
        "_split", _on_split(lambda r, swapped: _replaced(r, direct=r.exchange) if swapped else r),
        "swapped tags produced non-exchange components",
    ),
    "identity_block_swap": (
        "block_swap",
        lambda block_swap: lambda n: tuple(range(1, 2 * n + 1)),
        "block swap of n=3 does not have n^2 inversions",
    ),
}


@pytest.mark.parametrize("misroute", MISROUTES)
def test_exchange_law_trips_on_a_misrouted_block_term(monkeypatch, misroute):
    attribute, patch, message = MISROUTES[misroute]
    monkeypatch.setattr(composite, attribute, patch(getattr(composite, attribute)))
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        exchange_law(make_spec(3, preset_rep(3, "symmetric")))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("rep", ["symmetric", "antisymmetric", "random"])
def test_exchange_law_contracts_the_norm_once(monkeypatch, n, rep):
    # one P and one crossing count of the block swap feed the aligned
    # split, the swapped split and the P^2 check; P of a dense rep takes
    # no engine call
    spec = make_spec(n, random_rep(n, random.Random(n)) if rep == "random" else preset_rep(n, rep))
    p = normalization_poly(spec.rep, [ModeLabel(i) for i in spec.internal_labels])
    formed = []
    contracted = []
    counted_swaps = []
    norm = composite.normalization_poly
    contract_terms = fock.contract_terms
    count_inversions = composite.inversion_number

    def counted_norms(rep, labels):
        formed.append(rep.n)
        return norm(rep, labels)

    def counted(left, right):
        contracted.append(1)
        return contract_terms(left, right)

    def counted_inversions(perm):
        counted_swaps.append(perm)
        return count_inversions(perm)

    monkeypatch.setattr(composite, "normalization_poly", counted_norms)
    monkeypatch.setattr(fock, "contract_terms", counted)
    monkeypatch.setattr(composite, "inversion_number", counted_inversions)
    aligned, swapped, exponent = exchange_law(spec)
    assert formed == [n]
    assert contracted == []
    assert counted_swaps == [block_swap(n)]
    assert (aligned.direct, swapped.exchange, exponent) == (
        p * p,
        QPolynomial.monomial(n * n) * p * p,
        n * n,
    )


def test_effective_exponent_random_rep():
    rng = random.Random(123)
    assert exchange_law(make_spec(3, random_rep(3, rng)))[2] == 9


def test_split_path_matches_full_contraction_n5_and_law_n6():
    spec = make_spec(5, preset_rep(5, "antisymmetric"))
    swapped = two_composite_scalar(spec, ("t1", "t2"), ("t2", "t1"))
    left = tensor(composite_word(spec, "t1"), composite_word(spec, "t2"))
    right = tensor(composite_word(spec, "t2"), composite_word(spec, "t1"))
    assert swapped.total == state_scalar_product(left, right)
    p = normalization_poly(spec.rep, [ModeLabel(i) for i in spec.internal_labels])
    assert swapped.exchange == QPolynomial.monomial(25) * p * p
    assert exchange_law(spec)[2] == 25
    aligned, swapped, exponent = exchange_law(make_spec(6, preset_rep(6, "symmetric")))
    assert exponent == 36
    assert swapped.exchange == QPolynomial.monomial(36) * aligned.direct


def test_exchange_law_n7_antisymmetric():
    # no composite cap: the S_n cap on the state is the only bound on n
    spec = make_spec(7, preset_rep(7, "antisymmetric"))
    aligned, swapped, exponent = exchange_law(spec)
    p = normalization_poly(spec.rep, [ModeLabel(i) for i in spec.internal_labels])
    assert exponent == 49
    assert aligned.direct == p * p
    assert swapped.exchange == QPolynomial.monomial(49) * aligned.direct


def test_block_swap_inversions():
    for n in range(1, 7):
        swap = block_swap(n)
        assert inversion_number(swap) == n * n


def test_cross_term_zero_for_distinct_tags():
    distinct = (("t1", "t2"), ("u1", "u2"))
    for n in (1, 2, 3):
        spec = make_spec(n)
        assert two_composite_scalar(spec, *distinct).cross == QPolynomial.zero()
    spec = make_spec(5, preset_rep(5, "symmetric"))
    assert two_composite_scalar(spec, *distinct).cross == QPolynomial.zero()


def test_cross_term_single_constituent_overlap():
    spec = make_spec(1, preset_rep(1, "symmetric"))
    assert two_composite_scalar(spec, ("t", "t"), ("t", "t")).cross == QPolynomial.zero()


def test_cross_term_two_constituents_overlap():
    spec = make_spec(2, preset_rep(2, "symmetric"))
    cross = two_composite_scalar(spec, ("t", "t"), ("t", "t")).cross
    oracle = literal_classified(spec, ("t", "t"), ("t", "t"))["cross"]
    assert cross == oracle
    assert not cross.is_zero()


def test_weo_limit_table():
    assert weo_limit_check(2, "fermi") == "boson"
    assert weo_limit_check(7, "fermi") == "fermion"
    assert weo_limit_check(5, "bose") == "boson"
    for n in range(1, 9):
        expected = "fermion" if n % 2 else "boson"
        assert weo_limit_check(n, "fermi") == expected
        assert weo_limit_check(n, "bose") == "boson"
    with pytest.raises(ContractViolation):
        weo_limit_check(2, "anyon")
    with pytest.raises(ContractViolation):
        weo_limit_check(0, "bose")


def test_whole_blocks_square_matches_the_schoolbook_product():
    # P * P at n = 8 is the one polynomial product of ``composite --n 8 --rep sym``
    spec = make_spec(8, preset_rep(8, "symmetric"))
    p = normalization_poly(spec.rep, [ModeLabel(i) for i in spec.internal_labels])
    squared, exchange, crossings = composite._whole_blocks(spec)
    expected = schoolbook_product(p, p)
    assert squared.coefficients == expected.coefficients
    assert {type(c) for c in squared.coefficients} == {int}
    assert exchange == expected.shift(crossings) and crossings == 64
