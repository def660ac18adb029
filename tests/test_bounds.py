"""Limit propagation and dataset ingestion."""

import math

import pytest

from quonstat import (
    BoundRecord,
    ContractViolation,
    LimitsFormatError,
    ParseError,
    derive_chain,
    ingest_limits,
    load_bundled_limits,
    propagate_exact,
    propagate_first_order,
)
from quonstat.bounds import bundled_limits_path


def test_first_order_oxygen_to_nucleon():
    value = propagate_first_order(5e-9, 16)
    assert value == pytest.approx(1.953125e-11, rel=1e-12)
    assert value <= 2e-11


def test_first_order_nucleon_to_quark():
    assert propagate_first_order(2e-11, 3) == pytest.approx(2.2222e-12, rel=1e-4)


def test_first_order_identity():
    assert propagate_first_order(3e-5, 1) == 3e-5


def test_first_order_validation_and_warning():
    with pytest.raises(ContractViolation):
        propagate_first_order(1e-3, 0)
    with pytest.raises(ContractViolation):
        propagate_first_order(-1e-3, 2)
    for value in (math.nan, math.inf):
        with pytest.raises(ContractViolation):
            propagate_first_order(value, 2)
    with pytest.warns(UserWarning):
        propagate_first_order(0.5, 2)


def test_exact_oxygen_to_nucleon():
    value = propagate_exact(5e-9, 16)
    assert value == pytest.approx(1.953125e-11, rel=1e-9)


def test_exact_small_epsilon_limit():
    for n in (2, 5, 16):
        eps = 1e-10
        assert propagate_exact(eps, n) == pytest.approx(eps / n**2, rel=1e-6)


def test_exact_inverts_composition_map():
    # oracle: push a constituent deviation up, then back down
    import random

    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 20)
        # keep (1-eps)^(n^2) well away from 0 so the roundtrip is
        # representable in double precision
        eps_constituent = rng.uniform(1e-12, 1e-3)
        eps_composite = -math.expm1(n * n * math.log1p(-eps_constituent))
        recovered = propagate_exact(eps_composite, n)
        assert recovered == pytest.approx(eps_constituent, rel=1e-10)


def test_exact_vs_first_order_gap():
    # series: exact = eps/n^2 + (n^2-1)/(2 n^4) eps^2 + ..., so the exact
    # inversion sits just above the first-order value
    for eps in (1e-9, 1e-6, 1e-3, 0.05):
        for n in (2, 3, 16):
            exact = propagate_exact(eps, n)
            first = propagate_first_order(eps, n)
            assert exact >= first
            assert abs(first - exact) <= eps * eps * n * n


def test_exact_boundary_cases():
    assert propagate_exact(1.0, 2) == 1.0
    assert propagate_exact(0.5, 2) == pytest.approx(1 - 0.5 ** (1 / 4))
    # negative composite parameter: real root only for odd n
    value = propagate_exact(1.5, 3)
    assert value == pytest.approx(1.0 + 0.5 ** (1 / 9))
    with pytest.raises(ContractViolation):
        propagate_exact(1.5, 2)
    with pytest.raises(ContractViolation):
        propagate_exact(2.0, 3)
    with pytest.raises(ContractViolation):
        propagate_exact(0.0, 3)


def test_counts_whose_square_overflows_a_float_are_refused():
    # 10**154 squared still fits a float; 10**155 squared does not
    assert propagate_first_order(1e-3, 10**154) == pytest.approx(1e-311)
    assert 0 < propagate_exact(1e-3, 10**154) < 1e-300
    for propagate in (propagate_first_order, propagate_exact):
        with pytest.raises(ContractViolation, match="does not fit a float"):
            propagate(1e-3, 10**155)
    records = load_bundled_limits()
    with pytest.raises(ContractViolation, match="does not fit a float"):
        derive_chain(records, [("O16", 1), ("nucleon", 10**155)])


def test_a_bound_that_underflows_to_zero_is_refused():
    # zero would read as exact statistics
    for propagate in (propagate_first_order, propagate_exact):
        with pytest.raises(ContractViolation, match="underflows a float to zero"):
            propagate(1e-300, 10**20)
    records = load_bundled_limits()
    with pytest.raises(ContractViolation, match="underflows a float to zero"):
        derive_chain(records, [("O16", 1), ("nucleon", 16), ("preon", 10**100), ("sub", 10**100)])
    # a subnormal bound is still a bound
    assert 0 < propagate_first_order(1e-300, 10**10) < 1e-319


def test_bound_record_invariants():
    with pytest.raises(ContractViolation):
        BoundRecord("x", "y", 0, 1e-9, "near_bose", "src")
    with pytest.raises(ContractViolation):
        BoundRecord("x", "y", 2, 3.0, "near_bose", "src")
    with pytest.raises(ContractViolation):
        BoundRecord("x", "y", 2, 1e-9, "somewhere", "src")


def test_bundled_dataset_loads():
    records = load_bundled_limits()
    by_species = {r.species: r for r in records}
    oxygen = by_species["O16"]
    assert oxygen.epsilon == 5e-9
    assert oxygen.proximity == "near_bose"
    assert oxygen.n_constituents == 16
    assert not oxygen.model_dependent
    electron = by_species["electron"]
    assert electron.epsilon == 1e-26
    assert electron.proximity == "near_fermi"
    nucleon = by_species["nucleon"]
    assert nucleon.model_dependent


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# only a comment\n\n")
    assert ingest_limits(path) == []


def test_ingest_unreadable_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        ingest_limits(tmp_path / "missing.tsv")
    path = tmp_path / "latin1.tsv"
    path.write_bytes("O16\t-\t1\t5e-9\tnear_bose\tr\u00e9f\n".encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        ingest_limits(path)


def test_ingest_reports_bad_lines_with_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "species\tof\tnot_an_int\t1e-9\tnear_bose\tsrc\n"
        "ok\tof\t4\t1e-9\tnear_bose\tsrc\n"
        "bad\tof\t4\t1e-9\tnowhere\tsrc\n"
        "short\tline\n"
    )
    with pytest.raises(LimitsFormatError) as excinfo:
        ingest_limits(path)
    lines = [no for no, _ in excinfo.value.diagnostics]
    assert lines == [1, 3, 4]


def test_derive_chain_published_numbers():
    records = ingest_limits(bundled_limits_path())
    rows = derive_chain(records, [("O16", 1), ("nucleon", 16), ("quark", 3)])
    assert [r.species for r in rows] == ["O16", "nucleon", "quark"]
    assert rows[1].epsilon_first_order == pytest.approx(1.953125e-11, rel=1e-9)
    assert rows[1].epsilon_exact == pytest.approx(1.953125e-11, rel=1e-6)
    assert rows[2].epsilon_first_order == pytest.approx(2.170139e-12, rel=1e-6)
    assert rows[1].parity == "even"
    assert rows[2].parity == "odd"
    assert rows[1].proximity == "near_fermi"
    assert rows[0].proximity == "near_bose"


def test_derive_chain_identity():
    records = load_bundled_limits()
    rows = derive_chain(records, [("O16", 1)])
    assert len(rows) == 1
    assert rows[0].epsilon_first_order == 5e-9
    assert rows[0].epsilon_exact == 5e-9


def test_derive_chain_composes_first_order_exactly():
    records = [BoundRecord("root", "-", 1, 1e-6, "near_bose", "synthetic")]
    two_steps = derive_chain(records, [("root", 1), ("mid", 2), ("leaf", 3)])
    assert two_steps[-1].epsilon_first_order == 1e-6 / (4 * 9)


def test_derive_chain_skips_model_dependent_roots():
    records = load_bundled_limits()
    with pytest.raises(ContractViolation):
        derive_chain(records, [("nucleon", 1), ("quark", 3)])


def test_derive_chain_unknown_species():
    records = load_bundled_limits()
    with pytest.raises(ContractViolation):
        derive_chain(records, [("unobtainium", 1)])


def test_derive_chain_rejects_bad_root_arity():
    records = load_bundled_limits()
    with pytest.raises(ContractViolation):
        derive_chain(records, [("O16", 16)])
    with pytest.raises(ContractViolation):
        derive_chain(records, [])
