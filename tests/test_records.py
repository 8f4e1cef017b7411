"""The basis and result records: immutable named tuples that keep the
behaviour of the frozen dataclasses they replaced (reprs, hashes, equality
within one class, checks on every way of building one), and a package
import that loads neither ``dataclasses`` nor numpy."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from extshuffle import (
    CertifiedRelation,
    ChenFraction,
    ChenSymbol,
    DoubleShuffleRelation,
    HomomorphismReport,
    LinComb,
    RelationScan,
    ZetaEstimate,
    fraction_product,
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


def test_from_clean_equals_the_checked_constructor():
    for exponents, labels in [((), ()), ((2, -1), (1, 3)), ((0, 0, 5), (4, 2, 9))]:
        clean = ChenSymbol._from_clean(exponents, labels)
        checked = ChenSymbol(exponents, labels)
        assert clean == checked and hash(clean) == hash(checked)
        assert type(clean) is ChenSymbol and repr(clean) == repr(checked)


def test_fraction_from_clean_equals_the_checked_constructor():
    for exponents, indices in [((), ()), ((2, -1), (1, 3)), ((0, 0, 5), (4, 2, 9))]:
        clean = ChenFraction._from_clean(exponents, indices)
        checked = ChenFraction(exponents, indices)
        assert clean == checked and hash(clean) == hash(checked)
        assert type(clean) is ChenFraction and repr(clean) == repr(checked)
    product = fraction_product(ChenFraction((2, -1), (1, 2)), ChenFraction((1,), (3,)))
    for frac in product.support():
        checked = ChenFraction(*frac)
        assert type(frac) is ChenFraction and repr(frac) == repr(checked)
        assert hash(frac) == hash(checked)


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
