"""CLI behaviour: output format, exit codes, determinism, coverage."""

import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import pairwise_dp_scalar
from test_composite import literal_classified

from quonstat import QPolynomial, cli, composite, fock, preset_rep, random_rep, wick
from quonstat.cli import COMMANDS, _parse_rep, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sp_swapped_pair(capsys):
    code, out, _ = run(capsys, "sp", "--left", "k1,k2", "--right", "k2,k1")
    assert code == 0
    assert out == "q\n"


def test_sp_tagged_labels(capsys):
    code, out, _ = run(capsys, "sp", "--left", "p1:1,p1:2", "--right", "p1:2,p1:1")
    assert code == 0
    assert out == "q\n"


def test_sp_repeated_labels(capsys):
    code, out, _ = run(capsys, "sp", "--left", "k,k", "--right", "k,k")
    assert code == 0
    assert out == "1 + q\n"


def test_sp_bad_labels(capsys):
    code, _, err = run(capsys, "sp", "--left", "", "--right", "a")
    assert code == 2
    assert "error" in err


def test_qperm(tmp_path, capsys):
    path = tmp_path / "m.tsv"
    path.write_text("1\t1\t1\n1\t1\t1\n1\t1\t1\n")
    code, out, _ = run(capsys, "qperm", "--matrix", str(path))
    assert code == 0
    assert out == "1 + 2*q + 2*q^2 + q^3\n"


def test_qperm_rejects_non_binary(tmp_path, capsys):
    path = tmp_path / "m.tsv"
    path.write_text("1\t2\n0\t1\n")
    code, _, err = run(capsys, "qperm", "--matrix", str(path))
    assert code == 2
    assert "0 or 1" in err


def test_qperm_rejects_ragged_rows_with_their_line(tmp_path, capsys):
    path = tmp_path / "m.tsv"
    path.write_text("1\t1\t0\n# comment\n\n1\t1\n0\t1\t1\n")
    code, out, err = run(capsys, "qperm", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:4: 2 entries, earlier rows have 3\n"


def test_qperm_rectangular_matrix_is_a_library_refusal(tmp_path, capsys):
    path = tmp_path / "m.tsv"
    path.write_text("1\t1\t0\n0\t1\t1\n")
    code, out, err = run(capsys, "qperm", "--matrix", str(path))
    assert (code, out) == (1, "")
    assert err == "error: q_permanent requires a square matrix\n"


def test_norm_presets(capsys):
    code, out, _ = run(capsys, "norm", "--n", "2", "--rep", "sym")
    assert (code, out) == (0, "2 + 2*q\n")
    code, out, _ = run(capsys, "norm", "--n", "2", "--rep", "antisym")
    assert (code, out) == (0, "2 - 2*q\n")


def test_norm_rep_file(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("# comment\n1,2\t1\n2,1\t-1/2\n")
    code, out, _ = run(capsys, "norm", "--n", "2", "--rep", str(path))
    assert code == 0
    assert out == "5/4 - q\n"


def test_rep_file_of_comments_only_is_parse_error(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("# images\tcoefficient\n#1,2\t1\n")
    assert run(capsys, "norm", "--n", "2", "--rep", str(path)) == (
        2, "", f"error: {path}: no coefficients found\n"
    )


def test_norm_rep_file_arity_mismatch(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("1,2\t1\n")
    code, _, err = run(capsys, "norm", "--n", "3", "--rep", str(path))
    assert code == 1
    assert "S_2" in err


def test_norm_rep_file_mixed_arity_is_parse_error(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("1,2\t1\n1,2,3\t1\n")
    code, _, err = run(capsys, "norm", "--n", "2", "--rep", str(path))
    assert code == 2
    assert f"{path}:2:" in err
    assert len(err.strip().splitlines()) == 1


def test_rep_file_repeated_permutation_is_parse_error(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("1,2\t1\n2,1\t-1\n1,2\t5\n")
    code, out, err = run(capsys, "norm", "--n", "2", "--rep", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:3: permutation 1,2 already given on line 1\n"


@pytest.mark.parametrize("images", ["1,1", "1,3", "0,1"])
def test_rep_file_non_permutation_is_parse_error(tmp_path, capsys, images):
    path = tmp_path / "rep.tsv"
    path.write_text(f"2,1\t1\n{images}\t1\n")
    code, out, err = run(capsys, "norm", "--n", "2", "--rep", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}:2: ") and "not a permutation of 1..2" in err
    assert len(err.splitlines()) == 1


def test_rep_file_coefficient_too_large_for_text_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    # an exponent stands for more digits than memory holds; refused unparsed
    path.write_text("1\t1e999999999\n")
    code, out, err = run(capsys, "norm", "--n", "1", "--rep", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "exponent" in err
    # 4000 digits parse; their square is past the interpreter's default
    # int-to-text limit of 4300 digits
    path.write_text("1\t" + "7" * 4000 + "\n")
    code, out, err = run(capsys, "norm", "--n", "1", "--rep", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "too many digits" in err


def test_rep_file_zero_denominator_is_one_line_parse_error(tmp_path, capsys):
    path = tmp_path / "rep.tsv"
    path.write_text("1,2\t1/0\n2,1\t1\n")
    code, out, err = run(capsys, "norm", "--n", "2", "--rep", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "'1/0'" in err


def test_non_utf8_input_files_are_parse_errors(tmp_path, capsys):
    path = tmp_path / "binary.tsv"
    path.write_bytes(b"\xff\xfe1\t1\n")
    for argv in (
        ("qperm", "--matrix", str(path)),
        ("norm", "--n", "2", "--rep", str(path)),
        ("composite", "--n", "2", "--rep", str(path)),
        ("bounds", "chain", "--input", str(path), "--path", "x"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "not UTF-8" in err
        assert len(err.strip().splitlines()) == 1


LIMITS_ROWS = "root\t-\t1\t1e-8\tnear_bose\tsynthetic\nleaf\troot\t4\t1e-3\tnear_fermi\tsrc\tnote\n"
READER_CASES = {
    "rep": ("1,2\t1\n2,1\t-1/2\n", ("norm", "--n", "2", "--rep")),
    "matrix": ("1\t1\t0\n0\t1\t1\n1\t0\t1\n", ("qperm", "--matrix")),
    "limits": (LIMITS_ROWS, ("bounds", "chain", "--path", "root,leaf:4", "--input")),
    "limits_header": ("# species\tcomposite_of\tn\teps\tproximity\tsource\n" + LIMITS_ROWS,
                      ("bounds", "chain", "--path", "root,leaf:4", "--input")),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_input_files_read_through_a_bom_crlf_comments_and_trailing_spaces(tmp_path, capsys, case):
    text, argv = READER_CASES[case]
    plain = tmp_path / "plain.tsv"
    plain.write_text(text)
    noisy = tmp_path / "noisy.tsv"
    lines = [line + "  " for line in text.splitlines()]
    noisy.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines[:1] + ["# a comment", ""] + lines[1:]).encode())
    expected = run(capsys, *argv, str(plain))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *argv, str(noisy)) == expected


def test_non_utf8_byte_offset_counts_from_the_start_of_the_file(tmp_path, capsys):
    path = tmp_path / "bom.tsv"
    for content, offset in ((b"1\t\xff\n", 2), (b"\xef\xbb\xbf1\t\xff\n", 5)):
        path.write_bytes(content)
        for argv in (
            ("qperm", "--matrix", str(path)),
            ("norm", "--n", "2", "--rep", str(path)),
            ("bounds", "chain", "--input", str(path), "--path", "x"),
        ):
            assert run(capsys, *argv) == (2, "", f"error: {path}: not UTF-8 text (byte {offset})\n")


def test_missing_input_files_are_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "no_such_file.tsv")
    for argv in (
        ("qperm", "--matrix", missing),
        ("qperm", "--matrix", str(tmp_path)),
        ("bounds", "chain", "--input", missing, "--path", "x"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "cannot read" in err
        assert len(err.strip().splitlines()) == 1


def test_norm_missing_rep_file(capsys):
    code, _, err = run(capsys, "norm", "--n", "2", "--rep", "no_such_file.tsv")
    assert code == 2
    assert "not found" in err


def test_gram_polynomial_matrix(capsys):
    code, out, _ = run(capsys, "gram", "--labels", "a,b")
    assert code == 0
    assert out == "1\tq\nq\t1\n"


@pytest.mark.parametrize("labels", ["a,b,c,d", "a,a,b,c"])
def test_gram_formats_each_distinct_entry_once(monkeypatch, capsys, labels):
    # gram shares one QPolynomial among the pairs of one label pattern;
    # the exact printing formats that object once, not once per cell
    g = fock.gram(fock.permutation_basis(fock.ModeLabel(x) for x in labels.split(",")))
    want = "".join("\t".join(map(str, row)) + "\n" for row in g.entries)
    formatted = []
    to_text = fock.QPolynomial.__str__

    def counted_str(poly):
        formatted.append(id(poly))
        return to_text(poly)

    monkeypatch.setattr(fock.QPolynomial, "__str__", counted_str)
    code, out, _ = run(capsys, "gram", "--labels", labels)
    assert (code, out) == (0, want)
    distinct = {id(entry) for row in g.entries for entry in row}
    assert len(formatted) == len(set(formatted)) == len(distinct) < g.dimension**2


@pytest.mark.parametrize("labels", ["a,b,c,d", "a,a,b,c"])
def test_gram_q_formats_each_distinct_entry_once(monkeypatch, capsys, labels):
    # the numeric rows share the distinct entries too: each is evaluated
    # and formatted once, and the text is that of formatting every cell
    g = fock.gram(fock.permutation_basis(fock.ModeLabel(x) for x in labels.split(",")))
    want = "".join("\t".join(f"{v:.10g}" for v in row) + "\n" for row in g.evaluate(0.5))
    formatted = []
    evaluate = fock.QPolynomial.evaluate

    class CountedFloat(float):
        def __format__(self, spec):
            formatted.append(self)
            return float.__format__(self, spec)

    def counted_evaluate(poly, x):
        return CountedFloat(evaluate(poly, x))

    monkeypatch.setattr(fock.QPolynomial, "evaluate", counted_evaluate)
    code, out, _ = run(capsys, "gram", "--labels", labels, "--q", "0.5")
    assert (code, out) == (0, want)
    distinct = {id(entry) for row in g.entries for entry in row}
    assert len(formatted) == len(distinct) < g.dimension**2


def test_gram_psd_verdict(capsys):
    code, out, _ = run(capsys, "gram", "--labels", "a,b", "--q", "-1.0", "--check-psd")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("psd\tpass\t")
    assert lines[-1].endswith("\tin_range")
    code, out, _ = run(capsys, "gram", "--labels", "a,b", "--q", "-1.5", "--check-psd")
    assert code == 0
    assert "psd\tfail" in out
    assert "outside_range" in out
    # equal labels make equal rows: the minimum is exactly 0
    code, out, _ = run(capsys, "gram", "--labels", "a,a,b,c", "--q", "0.5", "--check-psd")
    assert code == 0
    assert out.splitlines()[-1] == "psd\tpass\t0.000000e+00\tin_range"


@pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
def test_gram_refuses_non_finite_q(capsys, q):
    for extra in ((), ("--check-psd",)):
        code, out, err = run(capsys, "gram", "--labels", "a,b", f"--q={q}", *extra)
        assert (code, out) == (1, "")
        assert "finite" in err


@pytest.mark.parametrize(
    "head, option, value, tail, expected",
    [
        (["gram", "--labels", "a,b"], "--q", "-1e-3", [], (0, "1\t-0.001\n-0.001\t1\n", "")),
        (["weights", "--n", "3"], "--q", "-5e-1", [],
         (0, "trivial\t0.0625\nstandard\t0.5\nsign\t0.4375\n", "")),
        (["gram", "--labels", "a,b"], "--q", "-inf", [],
         (1, "", "error: q must be a finite number, got -inf\n")),
        (["bounds", "propagate"], "--epsilon", "-1e-3", ["--n", "3"],
         (1, "", "error: epsilon must satisfy 0 < epsilon <= 2\n")),
    ],
)
def test_negative_number_in_exponent_form_is_a_value(capsys, head, option, value, tail, expected):
    # argparse's own pattern reads '-1e-3' and '-inf' as option names
    assert run(capsys, *head, option, value, *tail) == expected
    assert run(capsys, *head, f"{option}={value}", *tail) == expected


FLOAT_OPTIONS = [
    (["gram", "--labels", "a,b"], "--q", [],
     "error: q must be a finite number, got {value}\n"),
    (["weights", "--n", "3"], "--q", [], "error: irrep weights require -1 < q < 1\n"),
    (["bounds", "propagate"], "--epsilon", ["--n", "3"],
     "error: epsilon must satisfy 0 < epsilon <= 2\n"),
]


@pytest.mark.parametrize(
    "head, option, tail", [o[:3] for o in FLOAT_OPTIONS], ids=["gram", "weights", "propagate"]
)
@pytest.mark.parametrize("literal", ["1e400", "-1E400", "123456789e999"])
def test_float_literal_past_the_float_range_is_a_usage_error(capsys, head, option, tail, literal):
    # float() turns these into an infinity the user never typed
    expected = (2, "", f"error: {option}: {literal} is outside the float range\n")
    assert run(capsys, *head, option, literal, *tail) == expected
    assert run(capsys, *head, f"{option}={literal}", *tail) == expected


@pytest.mark.parametrize("head, option, tail, message", FLOAT_OPTIONS, ids=["gram", "weights", "propagate"])
@pytest.mark.parametrize("literal", ["inf", "-Infinity", "nan"])
def test_spelled_out_non_finite_float_reaches_the_command(capsys, head, option, tail, message, literal):
    code, out, err = run(capsys, *head, option, literal, *tail)
    assert (code, out) == (1, "")
    if "{value}" in message:
        message = message.format(value=float(literal))
    assert err == message


def test_gram_refuses_overflowing_q(capsys):
    for extra in ((), ("--check-psd",)):
        code, out, err = run(capsys, "gram", "--labels", "a,b,c", "--q", "1e200", *extra)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert "q = 1e+200" in err


def test_gram_check_psd_refuses_an_overflowing_minimum(capsys):
    # every entry is finite; the minimum eigenvalue is below -1.8e308
    code, out, err = run(capsys, "gram", "--labels", "a,a,b", "--q", "5e102", "--check-psd")
    assert (code, out) == (1, "")
    assert err == "error: the Gram matrix overflows a float at q = 5e+102\n"


def test_gram_check_psd_needs_q(capsys):
    code, out, err = run(capsys, "gram", "--labels", "a,b", "--check-psd")
    assert (code, out) == (2, "")
    assert err == "error: --check-psd needs --q\n"


def test_gram_cap(capsys):
    code, _, err = run(capsys, "gram", "--labels", "a,b,c,d,e,f,g")
    assert code == 1
    assert "cap is 720" in err


def test_weights(capsys):
    code, out, _ = run(capsys, "weights", "--n", "2", "--q", "0.3")
    assert code == 0
    assert out == "trivial\t0.65\nsign\t0.35\n"


def test_weights_are_rounded_once_from_the_exact_value(capsys):
    code, out, _ = run(capsys, "weights", "--n", "8", "--q", "-0.999")
    assert code == 0
    assert out.startswith("trivial\t5.881428316e-16\n")
    code, out, _ = run(capsys, "weights", "--n", "5", "--q", "-0.5")
    assert code == 0
    assert out == (
        "trivial\t0.001342773438\n4+1\t0.041015625\n3+2\t0.09851074219\n"
        "3+1+1\t0.2264648438\n2+2+1\t0.2332763672\n2+1+1+1\t0.319921875\n"
        "sign\t0.07946777344\n"
    )


def test_weights_names_the_irreps_of_s5(capsys):
    code, out, _ = run(capsys, "weights", "--n", "5", "--q", "0.3")
    assert code == 0
    weights = dict(line.split("\t") for line in out.splitlines())
    assert list(weights) == ["trivial", "4+1", "3+2", "3+1+1", "2+2+1", "2+1+1+1", "sign"]
    assert sum(map(float, weights.values())) == pytest.approx(1.0, abs=1e-9)


def test_weights_unsupported_n(capsys):
    # the S_n enumeration cap is the only upper limit
    code, _, err = run(capsys, "weights", "--n", "9", "--q", "0.0")
    assert code == 1
    assert err.startswith("error: ") and "cap is 8" in err
    assert len(err.splitlines()) == 1
    code, _, err = run(capsys, "weights", "--n", "0", "--q", "0.0")
    assert code == 1
    assert err.startswith("error: ")
    # S_1 is a group like any other: one irrep holding the whole weight
    assert run(capsys, "weights", "--n", "1", "--q", "0.3") == (0, "trivial\t1\n", "")


def test_composite_exponent_quark_model(capsys):
    code, out, _ = run(capsys, "composite", "--n", "3", "--rep", "antisym")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["exponent"] == "9"
    assert lines["cross"] == "0"
    # exchange is q^9 times direct
    from oracles import parse as parse_polynomial

    from quonstat import QPolynomial

    direct = parse_polynomial(lines["direct"])
    exchange = parse_polynomial(lines["exchange"])
    assert exchange == QPolynomial.monomial(9) * direct


def test_composite_overlap_cross(capsys):
    code, out, _ = run(capsys, "composite", "--n", "2", "--rep", "sym", "--overlap")
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert lines["cross"] != "0"
    assert lines["exponent"] == "4"


@pytest.mark.parametrize("n, rep", [
    (2, "sym"), (2, "antisym"), (2, "file"), (3, "sym"), (3, "antisym"), (3, "file"), (4, "sym"),
])
def test_composite_overlap_lines_match_independent_oracles(tmp_path, capsys, n, rep):
    # P and the full product of four equal tags by the pairwise q-permanent
    # oracle, which shares no code with the contraction engine, up to n = 3,
    # and by state_scalar_product at n = 4; the literal pairing enumerator
    # at n = 2
    presets = {"sym": "symmetric", "antisym": "antisymmetric"}
    if rep in presets:
        coefficients = preset_rep(n, presets[rep])
    else:
        coefficients = random_rep(n, random.Random(n))
        rep = str(tmp_path / "rep.tsv")
        Path(rep).write_text("".join(
            ",".join(map(str, images)) + f"\t{c}\n" for images, c in coefficients.coeffs.items()
        ))
    code, out, err = run(capsys, "composite", "--n", str(n), "--rep", rep, "--overlap")
    assert (code, err) == (0, "")
    lines = dict(line.split("\t") for line in out.splitlines())
    assert list(lines) == ["direct", "exchange", "cross", "exponent"]
    spec = composite.CompositeSpec(n, range(1, n + 1), coefficients)
    product = pairwise_dp_scalar if n <= 3 else fock.state_scalar_product
    word = composite.composite_word(spec, "t")
    norm = product(word, word)
    direct = norm * norm
    exchange = QPolynomial.monomial(n * n) * direct
    full = product(fock.tensor(word, word), fock.tensor(word, word))
    assert lines == {
        "direct": str(direct),
        "exchange": str(exchange),
        "cross": str(full - direct - exchange),
        "exponent": str(n * n),
    }
    if n == 2:
        buckets = literal_classified(spec, ("t", "t"), ("t", "t"))
        assert {kind: str(poly) for kind, poly in buckets.items()} == {
            kind: lines[kind] for kind in buckets
        }


@pytest.mark.parametrize("overlap, full", [((), 0), (("--overlap",), 1)], ids=["plain", "overlap"])
def test_composite_contracts_each_product_once(monkeypatch, capsys, overlap, full):
    # the aligned and swapped products, plus, under --overlap and before
    # the law, the four-equal-tag product of two_composite_scalar, whose
    # cross term takes the one full contraction of the 2n-operator states;
    # the distinct-tag cross term is the aligned one.  exchange_law forms
    # the composite norm P and counts the crossings of the block swap once
    # for both of its products and its P^2 check; the overlap product forms
    # its own.  P of the dense sym rep takes no engine call
    products = []
    norms = []
    word_lengths = []
    counted_swaps = []
    scalar_calls = []
    law_calls = []
    split = composite._split
    norm = composite.normalization_poly
    contract_terms = fock.contract_terms
    count_inversions = composite.inversion_number
    scalar = composite.two_composite_scalar
    law = composite.exchange_law

    def counted_products(spec, left_tags, right_tags, blocks):
        products.append((left_tags, right_tags))
        return split(spec, left_tags, right_tags, blocks)

    def counted_norms(rep, labels):
        norms.append(rep.n)
        return norm(rep, labels)

    def counted_contractions(left, right):
        left = list(left)
        word_lengths.append(len(left[0][0]) if left else 0)
        return contract_terms(left, right)

    def counted_inversions(perm):
        counted_swaps.append(perm)
        return count_inversions(perm)

    def counts():
        return len(norms), len(counted_swaps), list(word_lengths)

    def counted_scalar(spec, left_tags, right_tags):
        before = counts()
        result = scalar(spec, left_tags, right_tags)
        scalar_calls.append((left_tags, right_tags, before, counts()))
        return result

    def counted_law(spec):
        before = counts()
        result = law(spec)
        law_calls.append((before, counts()))
        return result

    monkeypatch.setattr(composite, "_split", counted_products)
    monkeypatch.setattr(composite, "normalization_poly", counted_norms)
    monkeypatch.setattr(fock, "contract_terms", counted_contractions)
    monkeypatch.setattr(composite, "inversion_number", counted_inversions)
    monkeypatch.setattr(composite, "two_composite_scalar", counted_scalar)
    monkeypatch.setattr(composite, "exchange_law", counted_law)
    code, out, _ = run(capsys, "composite", "--n", "4", "--rep", "sym", *overlap)
    assert code == 0
    assert "cross\t" in out
    expected = [(("t1", "t2"), ("t1", "t2")), (("t1", "t2"), ("t2", "t1"))]
    expected += [(("t", "t"), ("t", "t"))] * full
    assert sorted(products) == sorted(expected)
    assert norms == [4] * (1 + full)
    assert word_lengths == [8] * full
    assert counted_swaps == [composite.block_swap(4)] * (1 + full)
    # the law forms P once, counts the block swap once and contracts
    # nothing; the overlap product runs before it with its one 8-letter call
    start = (full, full, [8] * full)
    assert law_calls == [(start, (1 + full, 1 + full, [8] * full))]
    tags = ("t", "t")
    assert scalar_calls == [(tags, tags, (0, 0, []), start)] * full


def _refuse_before_the_work(monkeypatch, tmp_path, capsys, *argv):
    def no_work(*args):
        raise AssertionError("work ran before its cap was checked")

    # the overlap law, the rep parser and the contraction engine
    for module, name in ((composite, "exchange_law"), (cli, "_parse_rep"),
                         (wick, "contract_terms"), (fock, "scalar_product")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    Path("bad.tsv").write_text("not a rep\n")
    Path("ones17.tsv").write_text(("\t".join(["1"] * 17) + "\n") * 17)
    return run(capsys, *argv)


def test_composite_overlap_past_its_cap_is_refused_before_the_law(
    monkeypatch, tmp_path, capsys
):
    code, out, err = _refuse_before_the_work(
        monkeypatch, tmp_path, capsys, "composite", "--n", "8", "--rep", "sym", "--overlap"
    )
    assert (code, out) == (1, "")
    assert err == "error: refusing work over S_16 (16! elements); cap is 8\n"


LABELS_17 = ",".join(f"x{i}" for i in range(17))


# every cap refuses in one form, naming the size and the cap; the overlap
# cases also show that the rep is not read first
@pytest.mark.parametrize("argv, refused, cap", [
    (("composite", "--n", "5", "--rep", "sym", "--overlap"), "work over S_10 (10! elements)", 8),
    (("composite", "--n", "9", "--rep", "sym", "--overlap"), "work over S_18 (18! elements)", 8),
    # a bad rep file is not read, so the cap, not its parse error, is reported
    (("composite", "--n", "5", "--rep", "bad.tsv", "--overlap"),
     "work over S_10 (10! elements)", 8),
    # 2n has 4301 digits, past the interpreter's int-to-text limit
    (("composite", "--n", "9" * 4300, "--rep", "sym", "--overlap"),
     "work over S_k for a k with too many digits to print", 8),
    (("sp", "--left", LABELS_17, "--right", LABELS_17),
     "a scalar product of words of 17 letters", 16),
    (("qperm", "--matrix", "ones17.tsv"), "a q-permanent of 17 rows", 16),
    (("gram", "--labels", "a,b,c,d,e,f,g"), "a Gram matrix of 5040 words", 720),
], ids=["n5", "n9", "n5-bad-file", "n-4300-digits", "sp17", "qperm17", "gram7"])
def test_composite_overlap_cap_names_s_2n_before_the_rep_is_read(
    monkeypatch, tmp_path, capsys, argv, refused, cap
):
    code, out, err = _refuse_before_the_work(monkeypatch, tmp_path, capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: refusing {refused}; cap is {cap}\n"


def test_composite_one_term_rep_at_n10(tmp_path, capsys):
    # the S_n cap bounds sym and antisym; a rep file of one term costs one word
    path = tmp_path / "one.tsv"
    path.write_text("10,9,8,7,6,5,4,3,2,1\t1\n")
    code, out, _ = run(capsys, "composite", "--n", "10", "--rep", str(path))
    assert code == 0
    assert out.splitlines()[-2:] == ["cross\t0", "exponent\t100"]


def test_composite_out_of_memory_is_a_one_line_error(monkeypatch, capsys):
    # a one-term rep at n = 6000 under a 400 MB address limit fails this
    # way while it builds the dense q^(n^2)
    def no_memory(spec):
        raise MemoryError

    monkeypatch.setattr(composite, "exchange_law", no_memory)
    assert run(capsys, "composite", "--n", "3", "--rep", "sym") == (
        1, "", "error: out of memory\n"
    )


def test_norm_of_a_one_term_rep_past_the_recursion_limit(tmp_path, capsys):
    # a rep file of one term has no n cap; its one word is 1200 letters long
    path = tmp_path / "one.tsv"
    path.write_text(",".join(map(str, range(1, 1201))) + "\t1\n")
    assert run(capsys, "norm", "--n", "1200", "--rep", str(path)) == (0, "1\n", "")


def test_rep_file_of_mixed_coefficients_prints_the_same_polynomials(tmp_path, capsys):
    # integers, a signed integer, a fraction and an integral fraction
    path = tmp_path / "mixed.tsv"
    path.write_text("1,2,3\t3\n2,1,3\t+2\n1,3,2\t-1/2\n3,2,1\t4/2\n")
    code, out, _ = run(capsys, "norm", "--n", "3", "--rep", str(path))
    assert (code, out) == (0, "69/4 + 9*q + 4*q^2 + 12*q^3\n")
    code, out, _ = run(capsys, "composite", "--n", "3", "--rep", str(path))
    assert (code, out) == (
        0,
        "direct\t4761/16 + 621/2*q + 219*q^2 + 486*q^3 + 232*q^4 + 96*q^5 + 144*q^6\n"
        "exchange\t4761/16*q^9 + 621/2*q^10 + 219*q^11 + 486*q^12 + 232*q^13 + 96*q^14"
        " + 144*q^15\n"
        "cross\t0\n"
        "exponent\t9\n",
    )
    # a Fraction only where a coefficient is not integral
    spec = composite.CompositeSpec(3, (1, 2, 3), _parse_rep(str(path), 3))
    aligned, swapped, _ = composite.exchange_law(spec)
    for poly in (fock.normalization_poly(spec.rep, [1, 2, 3]), aligned.direct, swapped.exchange):
        assert all(
            type(c) is (int if c.denominator == 1 else Fraction) for c in poly.coefficients
        )
        assert type(poly.coefficients[-1]) is int and any(
            type(c) is Fraction for c in poly.coefficients
        )


def test_weo(capsys):
    assert run(capsys, "weo", "--n", "2", "--q", "-1")[1] == "boson\n"
    assert run(capsys, "weo", "--n", "7", "--q", "-1")[1] == "fermion\n"
    assert run(capsys, "weo", "--n", "5", "--q", "1")[1] == "boson\n"


def test_bounds_propagate(capsys):
    code, out, _ = run(capsys, "bounds", "propagate", "--epsilon", "5e-9", "--n", "16")
    assert code == 0
    assert out == "1.953e-11\n"


@pytest.mark.parametrize("exact", [(), ("--exact",)], ids=["first_order", "exact"])
def test_bounds_propagate_refuses_an_underflow_to_zero(capsys, exact):
    code, out, err = run(
        capsys, "bounds", "propagate", "--epsilon", "1e-300", "--n", str(10**20), *exact
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "underflows" in err
    assert len(err.splitlines()) == 1


def test_bounds_chain_refuses_an_underflow_to_zero(capsys):
    n = 10**100
    path = f"O16,nucleon:16,quark:3,preon:{n},sub:{n}"
    code, out, err = run(capsys, "bounds", "chain", "--path", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "underflows" in err
    assert len(err.splitlines()) == 1


def test_bounds_propagate_exact(capsys):
    code, out, _ = run(
        capsys, "bounds", "propagate", "--epsilon", "5e-9", "--n", "16", "--exact"
    )
    assert code == 0
    assert out == "1.953e-11\n"


def test_bounds_propagate_contract_violation(capsys):
    code, _, err = run(capsys, "bounds", "propagate", "--epsilon", "-1", "--n", "4")
    assert code == 1
    assert "error" in err


# both rules refuse an epsilon past 2, the range of a BoundRecord, as they
# refuse a non-finite one
@pytest.mark.parametrize("epsilon", ["nan", "inf", "3", "1e6"])
def test_bounds_propagate_refuses_non_finite_epsilon(capsys, epsilon):
    for extra in ((), ("--exact",)):
        code, out, err = run(
            capsys, "bounds", "propagate", "--epsilon", epsilon, "--n", "3", *extra
        )
        assert (code, out) == (1, "")
        assert "epsilon" in err
        assert len(err.splitlines()) == 1


def test_large_epsilon_warning_is_one_stderr_line(tmp_path):
    # pytest captures warnings in-process, so the shown format is only
    # visible from a separate interpreter; a chain warns level by level,
    # so a bad level stops the walk after the warnings of the levels above
    limits = tmp_path / "limits.tsv"
    limits.write_text("root\t-\t1\t0.5\tnear_bose\tsynthetic\n")
    # epsilon = 2 ends the range of a record and of both rules
    limits_2 = tmp_path / "limits_2.tsv"
    limits_2.write_text("root\t-\t1\t2\tnear_fermi\tsyn\n")
    large = "warning: epsilon={} is large; first-order propagation is only honest for small deviations\n"
    chain = ("bounds", "chain", "--input", str(limits), "--path")
    two_levels = (
        "species\tn\tparity\tepsilon_first_order\tepsilon_exact\tproximity\n"
        "root\t1\todd\t5.000000e-01\t5.000000e-01\tnear_bose\n"
        "a\t2\teven\t1.250000e-01\t1.591036e-01\tnear_fermi\n"
    )
    cases = [
        (("bounds", "propagate", "--epsilon", "0.5", "--n", "3"), 0, large.format(0.5),
         "5.556e-02\n"),
        ((*chain, "root,a:2,b:2"), 0, large.format(0.5) + large.format(0.125),
         two_levels + "b\t2\teven\t3.125000e-02\t4.239672e-02\tnear_fermi\n"),
        ((*chain, "root,a:2,b:3"), 0, large.format(0.5) + large.format(0.125),
         two_levels + "b\t3\todd\t1.388889e-02\t1.906991e-02\tnear_fermi\n"),
        ((*chain, "root,a:2,b:0"), 1,
         large.format(0.5) + "error: chain entry 'b' has n < 1\n", ""),
        ((*chain, "nope,b:0"), 1,
         "error: species 'nope' does not resolve to a usable record\n", ""),
        (("bounds", "propagate", "--epsilon", "2", "--n", "3", "--exact"), 0, "", "2.000e+00\n"),
        (("bounds", "chain", "--path", "root,a:3", "--input", str(limits_2)), 0,
         large.format(2.0),
         "species\tn\tparity\tepsilon_first_order\tepsilon_exact\tproximity\n"
         "root\t1\todd\t2.000000e+00\t2.000000e+00\tnear_fermi\n"
         "a\t3\todd\t2.222222e-01\t2.000000e+00\tnear_fermi\n"),
    ]
    for argv, code, err, out in cases:
        result = subprocess.run(
            [sys.executable, "-m", "quonstat.cli", *argv],
            env=_child_env(), capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr, result.stdout) == (code, err, out), argv


def test_bounds_chain_bundled(capsys):
    code, out, _ = run(
        capsys, "bounds", "chain", "--path", "O16,nucleon:16,quark:3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "species\tn\tparity\tepsilon_first_order\tepsilon_exact\tproximity"
    assert lines[1].startswith("O16\t1\todd\t5.000000e-09")
    assert lines[2].startswith("nucleon\t16\teven\t1.953125e-11")
    assert lines[3].startswith("quark\t3\todd\t2.170139e-12")


def test_bounds_chain_custom_file(tmp_path, capsys):
    path = tmp_path / "limits.tsv"
    path.write_text("root\tleaf\t4\t1e-8\tnear_bose\tsynthetic\n")
    code, out, _ = run(
        capsys, "bounds", "chain", "--input", str(path), "--path", "root,leaf:4"
    )
    assert code == 0
    assert "leaf\t4\teven\t6.250000e-10" in out


def test_bounds_chain_malformed_file(tmp_path, capsys):
    path = tmp_path / "limits.tsv"
    path.write_text("broken line without tabs\n")
    code, _, err = run(capsys, "bounds", "chain", "--input", str(path), "--path", "x")
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("row", ["\troot\t1\t1e-8\tnear_bose\tsrc", "\troot\t1\t1e-8\tnear_bose\tsrc\tnote"])
def test_bounds_chain_refuses_a_line_with_an_empty_species(tmp_path, capsys, row):
    path = tmp_path / "limits.tsv"
    path.write_text("x\t-\t1\t1e-8\tnear_bose\tsrc\n" + row + "\n")
    assert run(capsys, "bounds", "chain", "--input", str(path), "--path", "x") == (
        2, "", f"error: {path}: line 2: species is empty\n"
    )


@pytest.mark.parametrize("text, argv, message", [
    ("1,2\t1\n\t2,1\t1\n", ("norm", "--n", "2", "--rep"), "expected 'images<TAB>coefficient'"),
    ("1\t0\n\t0\t1\n", ("qperm", "--matrix"), "entries must be integers"),
], ids=["rep", "matrix"])
def test_a_leading_tab_is_an_empty_first_field(tmp_path, capsys, text, argv, message):
    path = tmp_path / "input.tsv"
    path.write_text(text)
    assert run(capsys, *argv, str(path)) == (2, "", f"error: {path}:2: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("sp", "--left", "a,,b", "--right", "a"), "empty label in 'a,,b'"),
    (("gram", "--labels", ""), "empty label in ''"),
    (("bounds", "chain", "--path", ""), "empty chain entry in ''"),
    (("bounds", "chain", "--path", "O16, ,quark:3"), "empty chain entry in 'O16, ,quark:3'"),
    (("bounds", "chain", "--path", "O16,nucleon:1e3"), "bad constituent count in 'nucleon:1e3'"),
    (("sp", "--left", "a:", "--right", "a"), "label 'a:' needs a tag and an index"),
    (("gram", "--labels", "a,:1"), "label ':1' needs a tag and an index"),
    (("sp", "--left", ":", "--right", "a"), "label ':' needs a tag and an index"),
])
def test_comma_lists_refuse_empty_entries_and_bad_counts(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("left", ["a: 1", "a :1", " a : 1 "])
def test_spaces_beside_a_label_colon_are_stripped(capsys, left):
    assert run(capsys, "sp", "--left", left, "--right", "a:1") == (0, "1\n", "")


def test_spaces_beside_a_chain_colon_are_stripped(capsys):
    spaced = run(capsys, "bounds", "chain", "--path", "O16, nucleon : 16")
    assert spaced == run(capsys, "bounds", "chain", "--path", "O16,nucleon:16")
    assert spaced[0] == 0


def test_a_label_of_spaces_after_its_colon_has_no_index(capsys):
    assert run(capsys, "sp", "--left", "a : ", "--right", "a") == (
        2, "", "error: label 'a:' needs a tag and an index\n"
    )


def test_bounds_chain_refuses_a_count_below_one(capsys):
    assert run(capsys, "bounds", "chain", "--path", "O16,nucleon:0") == (
        1, "", "error: chain entry 'nucleon' has n < 1\n"
    )


def test_bounds_chain_unknown_species(capsys):
    code, _, err = run(capsys, "bounds", "chain", "--path", "unobtainium")
    assert code == 1
    assert "unobtainium" in err


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command_and_its_options(capsys, flag):
    code, out, err = run(capsys, flag)
    assert (code, err) == (0, "")
    assert all(f"quonstat {name} " in out for name in COMMANDS)
    for name, (_, _, options) in COMMANDS.items():
        # help after an option, as after the command
        for argv in ([*name.split(), flag], [*name.split(), options[0][0], "1", flag]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert all(option in out for option, _, _ in options)
            assert [other for other in COMMANDS if f"quonstat {other} " in out] == [name]
    code, out, err = run(capsys, "bounds", flag)
    assert (code, err) == (0, "")
    assert "quonstat bounds propagate " in out and "quonstat bounds chain " in out


def test_output_deterministic_across_runs(capsys):
    first = run(capsys, "composite", "--n", "2", "--rep", "antisym")
    second = run(capsys, "composite", "--n", "2", "--rep", "antisym")
    assert first == second
    first = run(capsys, "weights", "--n", "4", "--q", "-0.35")
    second = run(capsys, "weights", "--n", "4", "--q", "-0.35")
    assert first == second


def test_every_operation_reachable_from_cli(tmp_path, capsys):
    """Coverage: each library operation has at least one subcommand route."""
    matrix = tmp_path / "m.tsv"
    matrix.write_text("1\t0\n0\t1\n")
    invocations = [
        ("sp", "--left", "a", "--right", "a"),                     # scalar_product
        ("qperm", "--matrix", str(matrix)),                        # q_permanent
        ("norm", "--n", "2", "--rep", "sym"),                      # normalization_poly, build_state, preset_rep
        ("gram", "--labels", "a,b", "--q", "0.5", "--check-psd"),  # gram, psd_report, permutation basis
        ("weights", "--n", "3", "--q", "0.2"),                     # irrep_weights, character_table
        ("composite", "--n", "2", "--rep", "antisym"),             # exchange_law, two-composite split
        ("composite", "--n", "2", "--rep", "sym", "--overlap"),    # cross term under forced overlap
        ("weo", "--n", "3", "--q", "-1"),                          # weo_limit_check
        ("bounds", "propagate", "--epsilon", "1e-9", "--n", "4"),  # propagate_first_order
        ("bounds", "propagate", "--epsilon", "1e-9", "--n", "4", "--exact"),  # propagate_exact
        ("bounds", "chain", "--path", "O16,nucleon:16"),           # ingest_limits, derive_chain
    ]
    for argv in invocations:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert out


START_UP_EXCLUDED = (
    "numpy", "dataclasses", "inspect", "importlib.resources", "random", "pathlib",
    "argparse", "gettext", "locale",
)


def _loaded_after(*python_flags, argv=()):
    """Which of START_UP_EXCLUDED a fresh interpreter has loaded after
    ``import quonstat.cli`` and, if ``argv`` is given, ``cli.main(argv)``."""
    probe = (
        "import sys, quonstat.cli\n"
        f"if {list(argv)!r}: quonstat.cli.main({list(argv)!r})\n"
        f"print(sorted(set({START_UP_EXCLUDED!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, *python_flags, "-c", probe],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_cli_import_leaves_numpy_unloaded():
    # -S: no site hooks that preload a module and would hide that the
    # package imports it
    assert _loaded_after("-S") == "[]"
    # the PSD check takes its eigenvalues from the irrep blocks, without numpy
    gram = ["gram", "--labels", "a,b,c", "--q", "0.5"]
    assert "numpy" not in _loaded_after(argv=gram)
    assert "numpy" not in _loaded_after(argv=[*gram, "--check-psd"])
    assert "numpy" not in _loaded_after(argv=["gram", "--labels", "a,a,b,c", "--q", "0.5", "--check-psd"])


def test_cli_import_leaves_typing_unloaded():
    # annotations come from collections.abc and builtins; -S keeps a site
    # hook from loading typing before the package does
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, quonstat.cli; print('typing' in sys.modules)"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_no_command_loads_a_start_up_excluded_module(tmp_path):
    # argparse loads locale on its first translated string, inside main
    matrix = tmp_path / "m.tsv"
    matrix.write_text("1\t1\n0\t1\n")
    for argv in (
        ["sp", "--left", "a,b", "--right", "b,a"],
        ["qperm", "--matrix", str(matrix)],
        ["norm", "--n", "3", "--rep", "sym"],
        ["gram", "--labels", "a,b", "--q", "-1e-3", "--check-psd"],
        ["weights", "--n", "3", "--q=0.5"],
        ["composite", "--n", "2", "--rep", "antisym", "--overlap"],
        ["weo", "--n", "3", "--q", "-1"],
        ["bounds", "propagate", "--epsilon", "5e-9", "--n", "16", "--exact"],
        ["bounds", "chain", "--path", "O16,nucleon:16"],
        ["--help"],
    ):
        assert _loaded_after("-S", argv=argv) == "[]", argv


def test_closed_stdout_is_a_one_line_error():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "quonstat.cli", "sp", "--left", "a", "--right", "a"],
            env=_child_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


# one call per exit code: a result, a refused size and a usage error
EXIT_CASES = [
    (["weo", "--n", "3", "--q", "-1"], 0),
    (["composite", "--n", "9", "--rep", "sym"], 1),
    (["weo", "--n", "x", "--q", "1"], 2),
]


@pytest.mark.parametrize("argv, expected", EXIT_CASES)
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, expected):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, *argv)[0] == expected
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


# An atexit handler registered before the CLI runs is called after its
# SystemExit, so it sees the heap as interpreter shutdown will collect it.
EXIT_PROBE = """
import atexit, gc, runpy, sys
before = gc.get_freeze_count()
atexit.register(lambda: print(f"probe {before} {gc.get_freeze_count()} {gc.isenabled()}", file=sys.stderr))
entry = sys.argv[1]
sys.argv = ["quonstat", *sys.argv[2:]]
if entry == "run":
    import quonstat.cli
    quonstat.cli.run()
else:
    runpy.run_module("quonstat.cli", run_name="__main__")
"""


@pytest.mark.parametrize("entry", ["run", "__main__"])
@pytest.mark.parametrize("argv, expected", EXIT_CASES)
def test_run_exits_with_mains_code_from_a_frozen_heap(capsys, entry, argv, expected):
    assert main(argv) == expected
    in_process = capsys.readouterr()
    result = subprocess.run(
        [sys.executable, "-c", EXIT_PROBE, entry, *argv],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == expected
    assert result.stdout == in_process.out
    *lines, probe = result.stderr.splitlines()
    assert lines == in_process.err.splitlines()
    before, after, enabled = probe.split()[1:]
    assert before == "0" and int(after) > 0 and enabled == "True", probe


@pytest.mark.parametrize("argv, expected", EXIT_CASES[1:])
def test_module_entry_point_errors_are_one_line(argv, expected):
    result = subprocess.run(
        [sys.executable, "-m", "quonstat.cli", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (expected, "")
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_console_script_is_run():
    # a text check: tomllib is missing on Python 3.10
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    assert '\nquonstat = "quonstat.cli:run"\n' in pyproject


HOSTILE_NUMBERS = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.0", "0.5", "-1", "1", "2"]
    ),
    st.floats().map(repr),
)
# 10**155 is a count whose square overflows a float
COUNTS = st.one_of(st.integers(-2, 5).map(str), st.just(str(10**155)))


def label_lists(max_size):
    tokens = st.sampled_from(["a", "b", "c", "t:1", "t:2", ":", "a:", ":b", "", " "])
    return st.lists(tokens, max_size=max_size).map(",".join)


FILE_CONTENT = st.one_of(
    st.binary(max_size=120),
    st.text(alphabet="0123456789,-/.e\t\n#", max_size=60).map(str.encode),
    st.lists(
        st.tuples(
            st.sampled_from(["root", "x", ""]),
            st.just("y"),
            st.sampled_from(["1", "4", "0", "-2", "z"]),
            HOSTILE_NUMBERS,
            st.sampled_from(["near_bose", "near_fermi", "far"]),
            st.just("src"),
        ).map("\t".join),
        max_size=3,
    ).map(lambda lines: "\n".join(lines).encode()),
)


def numeric(draw, option, values):
    """``option`` and a drawn value, as one '--x=v' token or as two."""
    value = draw(values)
    return [f"{option}={value}"] if draw(st.booleans()) else [option, value]


@st.composite
def accepted_argv(draw, path):
    """An argv that the parser accepts, with hostile values in its slots;
    every file slot names ``path``, and a numeric slot is one token or two."""
    rep = draw(st.sampled_from(["sym", "antisym", str(path), "no_such_rep", ""]))
    command = draw(st.sampled_from(
        ["sp", "qperm", "norm", "gram", "weights", "composite", "weo", "propagate", "chain"]
    ))
    if command == "sp":
        return ["sp", "--left", draw(label_lists(17)), "--right", draw(label_lists(17))]
    if command == "qperm":
        return ["qperm", "--matrix", str(path)]
    if command == "norm":
        return ["norm", *numeric(draw, "--n", COUNTS), "--rep", rep]
    if command == "gram":
        argv = ["gram", "--labels", draw(label_lists(5))]
        if draw(st.booleans()):
            argv += numeric(draw, "--q", HOSTILE_NUMBERS)
        return argv + ["--check-psd"] * draw(st.booleans())
    if command == "weights":
        return ["weights", *numeric(draw, "--n", COUNTS), *numeric(draw, "--q", HOSTILE_NUMBERS)]
    if command == "composite":
        argv = ["composite", *numeric(draw, "--n", COUNTS), "--rep", rep]
        return argv + ["--overlap"] * draw(st.booleans())
    if command == "weo":
        sign = numeric(draw, "--q", st.sampled_from(["-1", "1"]))
        return ["weo", *numeric(draw, "--n", COUNTS), *sign]
    if command == "propagate":
        argv = ["bounds", "propagate", *numeric(draw, "--epsilon", HOSTILE_NUMBERS)]
        argv += numeric(draw, "--n", COUNTS)
        return argv + ["--exact"] * draw(st.booleans())
    links = st.sampled_from(["root", "x", "a:2", "a:0", "a:-2", "a:z", "", ":", "q:3"])
    argv = ["bounds", "chain", "--path", ",".join(draw(st.lists(links, min_size=1, max_size=4)))]
    return argv + ["--input", str(path)] * draw(st.booleans())


# What cli_argv breaks in an accepted argv; None keeps it as drawn
USAGE_FAULTS = [None] * 6 + [
    "unknown command", "bounds alone", "dropped option", "unknown option",
    "no value", "bad count", "weo sign", "flag value",
]


@st.composite
def cli_argv(draw, path):
    """An argv and whether the parser must reject it: an accepted argv, or
    one broken by a drawn usage fault."""
    argv = draw(accepted_argv(path))
    words = 2 if argv[0] == "bounds" else 1
    # every command's first option is required and takes a value
    first = argv[words].partition("=")[0]
    fault = draw(st.sampled_from(USAGE_FAULTS))
    if fault == "unknown command":
        argv[:words] = [draw(st.sampled_from(["frobnicate", "Sp", "bound", "bounds propagate"]))]
    elif fault == "bounds alone":
        argv = ["bounds"]
    elif fault == "dropped option":
        del argv[words:words + (1 if "=" in argv[words] else 2)]
    elif fault == "unknown option":
        # argparse took '--lab' for gram's '--labels'
        argv += ["--lab", "a,b"]
    elif fault == "no value":
        argv.append(first)
    elif fault == "bad count":
        head = draw(st.sampled_from([["weo", "--q", "1"], ["norm", "--rep", "sym"]]))
        argv = head + numeric(draw, "--n", st.sampled_from(["x", "7" * 5000, "1.5", ""]))
    elif fault == "weo sign":
        argv = ["weo", "--n", "3", *numeric(draw, "--q", st.sampled_from(["0", "2", "-2", "x"]))]
    elif fault == "flag value":
        argv = ["bounds", "propagate", "--epsilon", "1e-9", "--n", "4", "--exact=1"]
    return argv, fault is not None


@settings(
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly_with_one_line_errors(tmp_path, capsys, data):
    # an exception escaping main fails the test with the argv that raised it
    path = tmp_path / "input.tsv"
    path.write_bytes(data.draw(FILE_CONTENT, label="file"))
    argv, rejected = data.draw(cli_argv(path), label="argv")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if rejected:
        assert (code, out) == (2, "")
    lines = err.splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), err
    assert sum(line.startswith("error: ") for line in lines) == (code != 0), err
