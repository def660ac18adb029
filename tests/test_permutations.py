"""Permutation utilities, representation presets, character tables."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quonstat import (
    CapExceeded,
    CharacterTable,
    ContractViolation,
    RepCoefficients,
    all_permutations,
    character_table,
    compose,
    cycle_type,
    identity,
    inverse,
    inversion_number,
    preset_rep,
    random_rep,
    seminormal_form,
    sign,
)
from quonstat.permutations import (
    SeminormalForm,
    check_permutation,
    dominates,
    irrep_name,
    partitions,
)

from oracles import CHARACTER_TABLES


def test_inversion_number_examples():
    assert inversion_number((1, 2, 3)) == 0
    assert inversion_number((2, 1)) == 1
    assert inversion_number((3, 2, 1)) == 3


@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_inversion_number_counts_every_pair(p):
    n = len(p)
    assert inversion_number(p) == sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))


def test_enumerate_small():
    assert list(all_permutations(1)) == [(1,)]
    perms3 = list(all_permutations(3))
    assert len(perms3) == 6
    assert perms3 == sorted(perms3)  # lexicographic
    assert len(list(all_permutations(8))) == math.factorial(8)


def test_enumerate_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        list(all_permutations(9))
    # the limit is fixed: the former QUON_ENUM_CAP override has no effect
    monkeypatch.setenv("QUON_ENUM_CAP", "3")
    assert len(list(all_permutations(4))) == 24
    assert len(list(all_permutations(8))) == math.factorial(8)
    with pytest.raises(CapExceeded):
        list(all_permutations(9))


def test_check_permutation():
    assert check_permutation((2, 1, 3)) == (2, 1, 3)
    with pytest.raises(ContractViolation):
        check_permutation((1, 1, 3))
    with pytest.raises(ContractViolation):
        check_permutation((0, 1))


def test_compose_and_inverse():
    p = (2, 3, 1)
    assert compose(p, inverse(p)) == identity(3)
    assert compose(inverse(p), p) == identity(3)
    # (p o s)(i) = p(s(i))
    s = (1, 3, 2)
    assert compose(p, s) == (2, 1, 3)


def test_cycle_type():
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)


def test_preset_rep_examples():
    sym = preset_rep(2, "symmetric")
    assert sym.coeffs == {(1, 2): 1, (2, 1): 1}
    anti = preset_rep(2, "antisymmetric")
    assert anti.coeffs == {(1, 2): 1, (2, 1): -1}
    anti3 = preset_rep(3, "antisymmetric")
    assert anti3.coefficient((3, 2, 1)) == -1
    assert anti3.coefficient((2, 3, 1)) == 1
    with pytest.raises(ContractViolation, match="unknown preset 'x'"):
        preset_rep(3, "x")


def test_rep_coefficients_validation():
    with pytest.raises(ContractViolation, match="RepCoefficients.n must be >= 1"):
        RepCoefficients(0, {})
    with pytest.raises(ContractViolation):
        RepCoefficients(n=2, coeffs={})
    with pytest.raises(ContractViolation):
        RepCoefficients(n=2, coeffs={(1, 2): Fraction(0)})
    with pytest.raises(ContractViolation):
        RepCoefficients(n=2, coeffs={(1, 2, 3): Fraction(1)})
    # zero entries are dropped, nonzero kept
    rep = RepCoefficients(n=2, coeffs={(1, 2): Fraction(1), (2, 1): Fraction(0)})
    assert rep.coeffs == {(1, 2): 1}


def test_random_rep_reproducible():
    a = random_rep(3, random.Random(11))
    b = random_rep(3, random.Random(11))
    assert a.coeffs == b.coeffs
    assert any(a.coeffs.values())


def test_inversion_equals_inverse_inversion_exhaustive():
    for n in range(1, 7):
        for p in all_permutations(n):
            assert inversion_number(p) == inversion_number(inverse(p))


def test_sign_is_homomorphism_exhaustive():
    for n in range(1, 6):
        perms = list(all_permutations(n))
        for p in perms:
            for s in perms:
                assert sign(compose(p, s)) == sign(p) * sign(s)


def test_sign_by_cycle_count_is_the_inversion_parity():
    for n in range(1, 8):
        for p in all_permutations(n):
            assert sign(p) == (-1) ** inversion_number(p)


def exact_forms(values):
    """Each value's type, with an equal Fraction comparing and hashing alike."""
    for c in values:
        assert c == Fraction(c) and hash(c) == hash(Fraction(c))
    return {type(c) for c in values}


def test_rep_coefficients_hold_ints_where_integral():
    for n in (1, 3, 5):
        for kind in ("symmetric", "antisymmetric"):
            rep = preset_rep(n, kind)
            assert exact_forms(rep.coeffs.values()) == {int}
            as_fractions = {p: Fraction(c) for p, c in rep.coeffs.items()}
            assert rep == RepCoefficients(n, as_fractions, kind)
    assert exact_forms(random_rep(3, random.Random(5)).coeffs.values()) == {int}
    rep = RepCoefficients(2, {(1, 2): Fraction(6, 3), (2, 1): Fraction(-1, 2)})
    assert rep.coeffs == {(1, 2): 2, (2, 1): Fraction(-1, 2)}
    assert type(rep.coeffs[(1, 2)]) is int and type(rep.coeffs[(2, 1)]) is Fraction
    assert rep == RepCoefficients(2, {(1, 2): 2, (2, 1): Fraction(-1, 2)})
    assert rep.coefficient((1, 2)) == 2
    assert RepCoefficients(2, {(1, 2): 1}).coefficient((2, 1)) == 0


def test_character_table_dimensions():
    t2 = character_table(2)
    assert sorted(dim for _, dim, _ in t2.irreps) == [1, 1]
    t3 = character_table(3)
    assert sorted(dim for _, dim, _ in t3.irreps) == [1, 1, 2]
    assert sum(dim * dim for _, dim, _ in t3.irreps) == 6
    t4 = character_table(4)
    assert sorted(dim for _, dim, _ in t4.irreps) == [1, 1, 2, 3, 3]
    assert sum(dim * dim for _, dim, _ in t4.irreps) == 24


def test_character_tables_equal_the_textbook_tables():
    for n, table in CHARACTER_TABLES.items():
        assert character_table(n) == table


def test_character_table_names_irreps_by_partition_above_four():
    table = character_table(5)
    assert table.labels == ("trivial", "4+1", "3+2", "3+1+1", "2+2+1", "2+1+1+1", "sign")
    assert table.dimension("3+1+1") == 6
    assert table.character("3+1+1", (2, 3, 4, 5, 1)) == 1
    with pytest.raises(ContractViolation, match="unknown irrep '5'"):
        table.dimension("5")
    with pytest.raises(ContractViolation, match="unknown irrep '5'"):
        table.character("5", (2, 3, 4, 5, 1))
    assert len(character_table(8).irreps) == 22


def test_character_table_unsupported():
    # S_1: one class and the trivial irrep
    assert character_table(1) == CharacterTable(1, (((1,), 1),), (("trivial", 1, (1,)),))
    with pytest.raises(ContractViolation, match="n must be >= 1"):
        character_table(0)
    # the S_n enumeration cap is the only upper limit
    with pytest.raises(CapExceeded, match="cap is 8"):
        character_table(9)


def test_character_orthogonality_rows_and_columns():
    for n in range(2, 9):
        table = character_table(n)
        sizes = [size for _, size in table.classes]
        for li, (_, _, chl) in enumerate(table.irreps):
            for mi, (_, _, chm) in enumerate(table.irreps):
                acc = sum(s * a * b for s, a, b in zip(sizes, chl, chm))
                assert acc == (math.factorial(n) if li == mi else 0)
        for ci in range(len(table.classes)):
            for cj in range(len(table.classes)):
                acc = sum(ch[ci] * ch[cj] for _, _, ch in table.irreps)
                expect = math.factorial(n) // sizes[ci] if ci == cj else 0
                assert acc == expect


def test_character_lookup_via_cycle_type():
    t3 = character_table(3)
    assert t3.character("standard", (1, 2, 3)) == 2
    assert t3.character("standard", (2, 1, 3)) == 0
    assert t3.character("standard", (2, 3, 1)) == -1
    assert t3.character("sign", (2, 1, 3)) == -1
    with pytest.raises(ContractViolation, match="not an element of S_3"):
        t3.character("sign", (2, 1))


@pytest.mark.parametrize("p", [(1, 1, 1), (2, 2, 1), (5, 1, 2)])
def test_character_refuses_a_non_permutation(p):
    with pytest.raises(ContractViolation, match="is not a permutation of 1..3"):
        character_table(3).character("standard", p)


def test_class_sizes_count_permutations():
    for n in range(2, 9):
        table = character_table(n)
        counted = {ct: 0 for ct, _ in table.classes}
        for p in all_permutations(n):
            counted[cycle_type(p)] += 1
        assert counted == {ct: size for ct, size in table.classes}


def _identity(d):
    return [[int(a == b) for b in range(d)] for a in range(d)]


def _times(m, generator):
    """m rho(s_i) for one generator of a `SeminormalForm`, in exact
    arithmetic: column c of rho(s_i) holds diagonal[c] at row c and
    coupling[c] at row partner[c]."""
    diagonal, partner, coupling = generator
    return [
        [row[c] * diagonal[c] + row[partner[c]] * coupling[c] for c in range(len(row))]
        for row in m
    ]


def _word(d, generators):
    """rho of the product of ``generators``, leftmost first."""
    m = _identity(d)
    for generator in generators:
        m = _times(m, generator)
    return m


def test_seminormal_form_satisfies_the_coxeter_relations():
    # exact: s_i^2 = 1, s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1), and s_i, s_j
    # commute for |i - j| >= 2, on every shape of n <= 6
    for n in range(1, 7):
        for shape in partitions(n):
            form = seminormal_form(shape)
            d, gens = form.dimension, form.generators
            assert len(gens) == n - 1
            for i, si in enumerate(gens):
                assert all(
                    type(x) in (int, Fraction) for values in (si[0], si[2]) for x in values
                ), (shape, i)
                assert _word(d, [si, si]) == _identity(d), (shape, i)
                for sj in gens[i + 2 :]:
                    assert _word(d, [si, sj]) == _word(d, [sj, si]), (shape, i)
                if i + 1 < len(gens):
                    sj = gens[i + 1]
                    assert _word(d, [si, sj, si]) == _word(d, [sj, si, sj]), (shape, i)


def test_seminormal_couplings_multiply_to_one_minus_inverse_r_squared():
    # each pair (T, s_i T) of standard tableaux has diagonal entries 1/r
    # and -1/r and couplings whose product is 1 - 1/r^2 > 0, one of them
    # 1; a tableau whose s_i T is not standard has 1/r = +-1 and no coupling
    # (2, 1): rows (0, 0, 1) and (0, 1, 0); on s_2 the coupling is 1 where
    # 2 sits in a higher row than 3, the first tableau
    assert seminormal_form((2, 1)) == SeminormalForm(
        2,
        (
            ((1, -1), (0, 1), (0, 0)),
            ((Fraction(-1, 2), Fraction(1, 2)), (1, 0), (1, Fraction(3, 4))),
        ),
    )
    for n in range(2, 7):
        for shape in partitions(n):
            form = seminormal_form(shape)
            for diagonal, partner, coupling in form.generators:
                for a, b in enumerate(partner):
                    if a == b:
                        assert diagonal[a] in (1, -1) and coupling[a] == 0, shape
                        continue
                    assert partner[b] == a and diagonal[b] == -diagonal[a]
                    product = coupling[a] * coupling[b]
                    assert product == 1 - diagonal[a] ** 2 and product > 0, shape
                    assert 1 in (coupling[a], coupling[b]), shape


def test_seminormal_form_traces_are_the_characters():
    # a cycle type is the product of the cycles s_a s_{a+1} .. s_{a+l-2}
    # on consecutive places; its exact trace must be the Murnaghan-Nakayama
    # entry of the character table
    for n in range(2, 7):
        table = character_table(n)
        for shape in partitions(n):
            form = seminormal_form(shape)
            name = irrep_name(shape)
            assert form.dimension == table.dimension(name)
            chars = next(c for label, _, c in table.irreps if label == name)
            for (mu, _), chi in zip(table.classes, chars):
                word = []
                start = 0
                for length in mu:
                    word.extend(form.generators[start : start + length - 1])
                    start += length
                m = _word(form.dimension, word)
                assert sum(m[a][a] for a in range(form.dimension)) == chi, (shape, mu)


def test_seminormal_form_refuses_bad_shapes():
    for bad in ((), (1, 2), (2, 0)):
        with pytest.raises(ContractViolation, match="not a partition"):
            seminormal_form(bad)
    with pytest.raises(CapExceeded, match="cap is 8"):
        seminormal_form((9,))


def test_partitions_dominance_and_names():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [irrep_name(shape) for shape in partitions(4)] == list(character_table(4).labels)
    assert irrep_name((1,)) == "trivial"
    # dominance is a partial order: from n = 6 on some shapes are incomparable
    assert dominates((3, 1), (2, 2)) and not dominates((2, 2), (3, 1))
    assert dominates((2, 2), (2, 1, 1)) and dominates((4,), (1, 1, 1, 1))
    assert not dominates((3, 1, 1, 1), (2, 2, 2)) and not dominates((2, 2, 2), (3, 1, 1, 1))


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_rep_coefficients_refuse_a_non_finite_coefficient(value):
    with pytest.raises(ContractViolation, match=f"coefficient {value} is not a finite rational"):
        RepCoefficients(2, {(1, 2): value})
