"""The contract of the package's twelve immutable value types.

Each type is built positionally or by keyword, equals only instances of
its own class with equal fields (FormClassKey leaves its cycle out) and
hashes alike, prints as Name(field=value, ...), refuses assignment and
deletion, and survives copy, deepcopy and pickle.
"""

import copy
import pickle
from types import SimpleNamespace

import pytest

from braidforms import (BraidWord, BurauMat, ClassWithExponent, CountsRow,
                        ExceptionalWitness, FormClassKey, GaussInt,
                        MainIdentityReport, Mat2Z, QForm, SymmetryReport, braid3)
from braidforms.cli import Record
from braidforms.laurent import HalfLaurent
import cli_contract
from oracles import SRC

KEY = FormClassKey(5, (-1, 1, 1), ((-1, 1, 1), (1, 1, -1)))
KEY_REPR = "FormClassKey(disc=5, rep=(-1, 1, 1), cycle=((-1, 1, 1), (1, 1, -1)))"
ROW_REPR = "CountsRow(t=3, n=0, x_count=1, m=1, p=0)"

# (type, its fields by keyword, the repr of the instance they build)
CASES = [
    (Mat2Z, dict(a=2, b=1, c=1, d=1), "Mat2Z(a=2, b=1, c=1, d=1)"),
    (QForm, dict(a=1, b=1, c=-1), "QForm(a=1, b=1, c=-1)"),
    (FormClassKey, dict(disc=5, rep=(-1, 1, 1), cycle=((-1, 1, 1), (1, 1, -1))), KEY_REPR),
    (GaussInt, dict(re=3, im=-4), "GaussInt(re=3, im=-4)"),
    (BraidWord, dict(letters=(1, 1, 1, 2)), "BraidWord(letters=(1, 1, 1, 2))"),
    (BurauMat, dict(e11=HalfLaurent({0: 1}), e12=HalfLaurent(), e21=HalfLaurent({2: -1}),
                    e22=HalfLaurent({1: 1})),
     "BurauMat(e11=HalfLaurent({0: 1}), e12=HalfLaurent({}), "
     "e21=HalfLaurent({2: -1}), e22=HalfLaurent({1: 1}))"),
    (ClassWithExponent, dict(key=KEY, trace=3, residue=5),
     f"ClassWithExponent(key={KEY_REPR}, trace=3, residue=5)"),
    (CountsRow, dict(t=3, n=0, x_count=1, m=1, p=0), ROW_REPR),
    (MainIdentityReport, dict(t=3, n=0, h=1, window_total=1, rows=(CountsRow(3, 0, 1, 1, 0),), ok=True),
     f"MainIdentityReport(t=3, n=0, h=1, window_total=1, rows=({ROW_REPR},), ok=True)"),
    (SymmetryReport, dict(t=3, n=0, lhs=1, rhs=1, ok=False),
     "SymmetryReport(t=3, n=0, lhs=1, rhs=1, ok=False)"),
    (ExceptionalWitness, dict(family="torus", params=(3,), words=(BraidWord((1, 1, 1, -2)),),
                              trace=3, exponent=2),
     "ExceptionalWitness(family='torus', params=(3,), "
     "words=(BraidWord(letters=(1, 1, 1, -2)),), trace=3, exponent=2)"),
    (Record, dict(payload={"t": 3, "h": 1}, header=["t", "h"], rows=[[3, 1]], lines=["1"], status=0),
     "Record(payload={'t': 3, 'h': 1}, header=['t', 'h'], rows=[[3, 1]], lines=['1'], status=0)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_construction_positional_and_keyword(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value and getattr(by_keyword, name) == value
    assert by_position == by_keyword


def test_defaults():
    assert BraidWord().letters == () and BraidWord() == BraidWord(())
    assert FormClassKey(5, (-1, 1, 1)).cycle is None
    assert Record({}, [], [], []).status == 0


def test_construction_checks():
    with pytest.raises(ValueError, match="determinant"):
        Mat2Z(1, 1, 1, 1)
    with pytest.raises(ValueError, match="determinant"):
        Mat2Z(a=2, b=0, c=0, d=2)
    with pytest.raises(ValueError, match="invalid letter 3"):
        BraidWord((1, 3))
    with pytest.raises(ValueError, match="invalid letter 0"):
        BraidWord(letters=(0,))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equality_within_one_class(cls, fields, text):
    value, twin = cls(**fields), cls(**fields)
    assert value == twin and not value != twin
    assert value != SimpleNamespace(**fields) and SimpleNamespace(**fields) != value
    assert value != tuple(fields.values())
    for other_cls, other_fields, _ in CASES:
        if other_cls is not cls:
            assert value != other_cls(**other_fields)
    if cls is Record:  # its fields are dicts and lists
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(twin)


def test_equal_fields_of_another_type_are_unequal():
    row, report = CountsRow(3, 0, 1, 1, 0), SymmetryReport(3, 0, 1, 1, False)
    assert (row.t, row.n, row.x_count, row.m, row.p) == (report.t, report.n, report.lhs,
                                                          report.rhs, report.ok)
    assert row != report and report != row and len({row, report}) == 2


def test_class_key_ignores_cycle():
    bare = FormClassKey(5, (-1, 1, 1))
    assert KEY == bare and hash(KEY) == hash(bare) and len({KEY, bare}) == 1
    assert KEY != FormClassKey(5, (1, 1, -1), KEY.cycle)
    assert KEY != FormClassKey(-5, (-1, 1, 1), KEY.cycle)


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def _round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    # Protocols 0 and 1 cannot pickle HalfLaurent, whose __slots__ hold no state.
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle(cls, fields, text):
    value = cls(**fields)
    for result in _round_trips(value):
        assert type(result) is cls and result == value and repr(result) == text
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(result, name, fields[name])


def test_word_with_cached_images_keeps_its_value_contract():
    word = BraidWord((1, 1, 1, 2))
    image, matrix = braid3.burau(word), braid3.phi(word)
    fresh = BraidWord((1, 1, 1, 2))
    assert word == fresh and hash(word) == hash(fresh)
    assert repr(word) == "BraidWord(letters=(1, 1, 1, 2))"
    assert braid3.burau(word) is image and braid3.phi(word) is matrix
    for result in _round_trips(word):
        assert result == word and repr(result) == repr(word)
        assert braid3.burau(result) == image and braid3.phi(result) == matrix


@pytest.mark.parametrize("args", cli_contract.MODULE_SETS)
def test_cli_loads_only_its_modules(args):
    loaded = cli_contract.loaded_modules(args, cli_contract.contract_env(SRC))
    assert loaded == cli_contract.MODULE_SETS[args]
