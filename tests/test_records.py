"""The package's public names, and its record classes: built by keyword
as the library builds them, immutable, and compared by value."""

import copy
import pickle
from fractions import Fraction
from types import ModuleType

import pytest

import quonstat
from quonstat import (
    BoundRecord,
    ChainRow,
    CharacterTable,
    CompositeSpec,
    GramMatrix,
    ModeLabel,
    PsdReport,
    QPolynomial,
    RepCoefficients,
    StateVector,
    TwoCompositeResult,
    preset_rep,
)

A, B = ModeLabel("a"), ModeLabel("b")
ONE_PLUS_Q = QPolynomial([1, 1])

RECORDS = [
    (QPolynomial, {"coefficients": (Fraction(1), Fraction(0), Fraction(-2))}),
    (StateVector, {"terms": {(A, B): Fraction(1, 2)}}),
    (RepCoefficients, {
        "n": 2, "coeffs": {(1, 2): Fraction(1), (2, 1): Fraction(-1)}, "label": "x",
    }),
    (CompositeSpec, {"n": 2, "internal_labels": (1, 2), "rep": preset_rep(2, "symmetric")}),
    (BoundRecord, {
        "species": "e", "composite_of": "-", "n_constituents": 1, "epsilon": 1e-9,
        "proximity": "near_fermi", "source": "test", "model_dependent": True,
    }),
    (GramMatrix, {"words": ((A, B), (B, A)), "entries": ((ONE_PLUS_Q, ONE_PLUS_Q),) * 2}),
    (PsdReport, {
        "passed": True, "min_eigenvalue": 0.5, "dimension": 2, "q_value": 0.5,
        "q_in_range": True, "witness": None,
    }),
    (TwoCompositeResult, {
        "direct": ONE_PLUS_Q, "exchange": QPolynomial.zero(), "cross": QPolynomial.zero(), "n": 2,
    }),
    (ChainRow, {
        "species": "quark", "n": 3, "parity": "odd", "epsilon_first_order": 1e-10,
        "epsilon_exact": 1e-10, "proximity": "near_fermi",
    }),
    (CharacterTable, {
        "n": 2, "classes": (((1, 1), 1), ((2,), 1)), "irreps": (("trivial", 1, (1, 1)),),
    }),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_immutable_and_compared_by_value(cls, fields):
    record = cls(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    # a dict field is stored read-only, so its items, and with them the
    # record's hash, cannot change once the constructor has checked them
    for name in (name for name, value in fields.items() if isinstance(value, dict)):
        mapping = getattr(record, name)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = None
        with pytest.raises(TypeError):
            del mapping[key]
        assert mapping == fields[name]
    assert cls(*fields.values()) == record
    assert record != A
    assert copy.copy(record) == record
    assert repr(record).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls", [QPolynomial, GramMatrix, TwoCompositeResult])
def test_records_holding_polynomials_deep_copy_and_pickle(cls):
    record = cls(**dict(RECORDS)[cls])
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_validating_records_keep_their_defaults_and_hash():
    rep = RepCoefficients(2, {(1, 2): 1})
    assert rep.label == ""
    assert rep.coeffs == {(1, 2): Fraction(1)}
    record = BoundRecord("e", "-", 1, 1e-9, "near_bose", "test")
    assert record.model_dependent is False
    assert hash(record) == hash(BoundRecord("e", "-", 1, 1e-9, "near_bose", "test"))
    assert record != BoundRecord("e", "-", 1, 1e-9, "near_fermi", "test")


def test_records_with_dict_fields_hash_by_value():
    rep = preset_rep(2, "symmetric")
    twin = RepCoefficients(2, {(2, 1): 1, (1, 2): Fraction(2, 2)}, label="symmetric")
    assert rep == twin and rep is not twin
    assert hash(rep) == hash(twin)
    state = StateVector({(A, B): Fraction(1, 2), (B, A): 1})
    state_twin = StateVector({(B, A): Fraction(1), (A, B): Fraction(1, 2)})
    assert hash(state) == hash(state_twin)
    spec = CompositeSpec(2, ("x", "y"), rep)
    spec_twin = CompositeSpec(2, ["x", "y"], twin)
    assert hash(spec) == hash(spec_twin)
    table = {rep: "rep", state: "state", spec: "spec"}
    assert table[twin] == "rep"
    assert table[state_twin] == "state"
    assert table[spec_twin] == "spec"
    assert len({rep, twin, preset_rep(2, "antisymmetric")}) == 2


def test_public_names_are_the_names_the_package_imports():
    # __all__ is derived from the import block of the package, so it lists
    # the public non-module names of the package and nothing else
    names = quonstat.__all__
    assert names == sorted(set(names))
    values = [getattr(quonstat, name) for name in names]
    assert not any(name.startswith("_") for name in names)
    assert not any(isinstance(value, ModuleType) for value in values)
    public = [
        name for name, value in vars(quonstat).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert names == sorted(public)
    # each public object is one a submodule defines or imports; a helper of
    # the package's own, such as the module type its filter tests, is not
    submodules = [value for value in vars(quonstat).values() if isinstance(value, ModuleType)]
    for name, value in zip(names, values):
        assert any(value is bound for module in submodules for bound in vars(module).values()), name
    namespace = {}
    exec("from quonstat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
