"""The basis and result records: immutable named tuples that keep the
behaviour of the frozen dataclasses they replaced (reprs, hashes, equality
within one class, checks on every way of building one), and a package
import that loads neither ``dataclasses`` nor numpy."""

import os
import pickle
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

from extshuffle import (
    CertifiedRelation,
    ChenFraction,
    ChenSymbol,
    DoubleShuffleRelation,
    FractionLinComb,
    HomomorphismReport,
    LinComb,
    RelationScan,
    SymbolLinComb,
    ZetaEstimate,
    fraction_product,
    symbol_product,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

_DIFF = LinComb({(4,): 1, (3, 1): -4})
_EST = ZetaEstimate(1.5, 1024, 1e-09, True)

# each record with the repr the frozen dataclasses gave it
_REPRS = [
    (ChenSymbol((2, -1), (1, 3)), "ChenSymbol(exponents=(2, -1), labels=(1, 3))"),
    (ChenSymbol([1], [2]), "ChenSymbol(exponents=(1,), labels=(2,))"),
    (ChenFraction((1, 0), (2, 1)), "ChenFraction(exponents=(1, 0), var_indices=(2, 1))"),
    (ChenFraction((), ()), "ChenFraction(exponents=(), var_indices=())"),
    (_EST, "ZetaEstimate(value=1.5, cutoff=1024, est_error=1e-09, converged=True)"),
    (
        DoubleShuffleRelation((2,), (2,), _DIFF),
        "DoubleShuffleRelation(a=(2,), b=(2,), difference=LinComb<[4] - 4[3,1]>)",
    ),
    (
        CertifiedRelation((2,), (2,), _DIFF, 0.0, 1e-07, True),
        "CertifiedRelation(a=(2,), b=(2,), difference=LinComb<[4] - 4[3,1]>,"
        " residual=0.0, est_error=1e-07, passed=True)",
    ),
    (RelationScan(()), "RelationScan(relations=(), skipped=())"),
    (
        HomomorphismReport((2,), (3,), _DIFF, _EST, 2.0, 0.5, 0.25, 1e-4, False),
        "HomomorphismReport(a=(2,), b=(3,), expansion=LinComb<[4] - 4[3,1]>,"
        " lhs=ZetaEstimate(value=1.5, cutoff=1024, est_error=1e-09, converged=True),"
        " rhs_value=2.0, rhs_error=0.5, delta=0.25, tolerance=0.0001, passed=False)",
    ),
]
_IDS = [f"{type(record).__name__}-{i}" for i, (record, _) in enumerate(_REPRS)]


@pytest.mark.parametrize("record, text", _REPRS, ids=_IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, _", _REPRS, ids=_IDS)
def test_a_record_never_equals_a_plain_tuple(record, _):
    plain = tuple(record)
    assert record != plain and plain != record
    assert not record == plain and not plain == record
    assert record == type(record)(*plain) and not record != type(record)(*plain)


def test_records_of_different_classes_with_the_same_rows_differ():
    sym, frac = ChenSymbol((1, 2), (2, 1)), ChenFraction((1, 2), (2, 1))
    assert sym != frac and frac != sym
    assert not sym == frac and not frac == sym
    assert len({sym, frac, (sym.exponents, sym.labels)}) == 3


def test_hash_is_the_hash_of_the_fields():
    # the frozen dataclasses hashed the tuple of their fields
    for record in (
        ChenSymbol((2, -1), (1, 3)),
        ChenSymbol((), ()),
        ChenFraction((1, 0), (2, 1)),
        _EST,
        RelationScan(()),
    ):
        assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


def test_keyword_and_positional_construction_agree():
    assert ChenSymbol(exponents=(1,), labels=(2,)) == ChenSymbol((1,), labels=(2,))
    assert ChenFraction(var_indices=[2], exponents=[1]) == ChenFraction((1,), (2,))
    assert ZetaEstimate(value=1.5, cutoff=1024, est_error=1e-09, converged=True) == _EST
    assert RelationScan(relations=()) == RelationScan((), ()) == RelationScan((), skipped=())
    assert ChenSymbol([1], [2]).exponents == (1,)  # rows are stored as tuples


@pytest.mark.parametrize(
    "cls, args",
    [
        (ChenSymbol, ((1,),)),
        (ChenSymbol, ((1,), (1,), (1,))),
        (ChenFraction, ()),
        (ZetaEstimate, (1.0, 1024, 0.0)),
        (RelationScan, ()),
        (RelationScan, ((), (), ())),
        (DoubleShuffleRelation, ((2,), (2,))),
    ],
)
def test_wrong_arity_is_a_type_error(cls, args):
    with pytest.raises(TypeError):
        cls(*args)


def test_unknown_keyword_is_a_type_error():
    with pytest.raises(TypeError):
        ChenSymbol(exponents=(1,), rows=(1,))


@pytest.mark.parametrize("record, _", _REPRS, ids=_IDS)
def test_fields_cannot_be_assigned(record, _):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


# the two-row records, each with its sum, product, bottom row names and one example
_TwoRows = namedtuple("_TwoRows", "cls sum_cls product field name record text")
_TWO_ROWS = [
    _TwoRows(
        ChenSymbol, SymbolLinComb, symbol_product, "labels", "labels",
        ChenSymbol((2, -1), (1, 3)), "<[2,-1];[1,3]>",
    ),
    _TwoRows(
        ChenFraction, FractionLinComb, fraction_product, "var_indices", "variable indices",
        ChenFraction((1, 0), (2, 1)), "f([1,0];[2,1])",
    ),
]
two_rows = pytest.mark.parametrize("rows", _TWO_ROWS, ids=lambda rows: rows.cls.__name__)


@two_rows
def test_from_clean_equals_the_checked_constructor(rows):
    cls = rows.cls
    for exponents, bottom in [((), ()), ((2, -1), (1, 3)), ((0, 0, 5), (4, 2, 9))]:
        clean = cls._from_clean(exponents, bottom)
        checked = cls(exponents, bottom)
        assert clean == checked and hash(clean) == hash(checked)
        assert type(clean) is cls and repr(clean) == repr(checked)
    product = rows.product(cls((2, -1), (1, 2)), cls((1,), (3,)))
    for term in product.support():
        checked = cls(*term)
        assert type(term) is cls and repr(term) == repr(checked)
        assert hash(term) == hash(checked)


@two_rows
def test_str_puts_both_rows_in_the_class_frame(rows):
    assert str(rows.cls((), ())) == "1"
    assert str(rows.record) == rows.text


@two_rows
def test_depth_is_the_row_length(rows):
    assert rows.cls((), ()).depth == 0
    assert rows.cls((-4,), (7,)).depth == 1
    assert rows.record.depth == 2


@two_rows
def test_row_check_messages_name_the_bottom_row(rows):
    name = rows.name
    for bottom, message in [
        ((1,), f"rows must have equal length: 2 exponents vs 1 {name}"),
        ((0, 2), f"{name} must be positive integers, got 0"),
        ((1, True), f"{name} must be positive integers, got True"),
        ((2, 2), f"{name} must be pairwise distinct, got (2, 2)"),
    ]:
        with pytest.raises(ValueError) as err:
            rows.cls((1, 2), bottom)
        assert str(err.value) == message


@two_rows
def test_json_names_the_bottom_row_by_its_field(rows):
    exponents, bottom = rows.record
    assert rows.sum_cls.basis(rows.record, Fraction(-1, 2)).to_json_dict() == {
        "terms": [{"coef": "-1/2", "comp": list(exponents), rows.field: list(bottom)}]
    }


@two_rows
def test_terms_are_ordered_by_bottom_length_then_bottom_then_top(rows):
    ordered = [
        rows.cls(*row)
        for row in [
            ((), ()),
            ((3,), (1,)),
            ((1,), (2,)),
            ((4,), (5,)),
            ((0, 5), (1, 2)),
            ((1, 2), (1, 2)),
            ((1, 1), (2, 1)),
            ((-1, 0, 0), (1, 2, 3)),
        ]
    ]
    combination = rows.sum_cls({term: 1 for term in reversed(ordered)})
    assert combination.support() == ordered
    assert [term for term, _ in combination.terms()] == ordered


@pytest.mark.parametrize(
    "cls, field, good, bad",
    [
        (ChenSymbol, "labels", (1, 2), (1, 1)),
        (ChenSymbol, "labels", (1, 2), (0, 2)),
        (ChenSymbol, "labels", (1, 2), (1,)),
        (ChenFraction, "var_indices", (1, 2), (2, 2)),
        (ChenFraction, "var_indices", (1, 2), (1, -1)),
        (ChenFraction, "var_indices", (1, 2), (1, 2, 3)),
    ],
)
def test_replace_runs_the_constructor_checks(cls, field, good, bad):
    record = cls((3, -1), good)
    with pytest.raises(ValueError) as direct:
        cls((3, -1), bad)
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: bad})
    assert str(replaced.value) == str(direct.value)
    with pytest.raises(TypeError):
        record._replace(exponents=(1.5, 1))
    assert record._replace(**{field: list(good)}) == record


@pytest.mark.parametrize("record, _", _REPRS, ids=_IDS)
def test_pickle_round_trip(record, _):
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


@pytest.mark.parametrize("module", ["extshuffle", "extshuffle.cli"])
def test_import_loads_neither_dataclasses_nor_inspect_nor_numpy(module):
    code = (
        "import sys\n"
        f"import {module}\n"
        "loaded = [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr.decode()
