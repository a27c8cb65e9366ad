"""The value records' protocol, and what importing the package loads."""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import enokit
from enokit import (
    CellAverageField,
    CellPolynomial,
    FuzzConfig,
    FuzzReport,
    InterfaceTrace,
    Mesh,
    NewtonPolynomial,
    RateTable,
    SignReport,
    StencilSignature,
    TraceBatch,
    interface_traces,
)

from conftest import BoundTable

SIGNATURE = StencilSignature([0, -1])
POLYNOMIAL = NewtonPolynomial([0, 1], [Fraction(1, 2), 2])
CONFIG = FuzzConfig(seed=3, trials=2, orders=[1, 2])

# (record, its field names in order, its exact repr)
RECORDS = [
    (InterfaceTrace(4, Fraction(1, 2), 1, 2, 3, SIGNATURE,
                    StencilSignature((0, 0))),
     ("index", "location", "left", "right", "data_jump", "left_signature",
      "right_signature"),
     "InterfaceTrace(index=4, location=Fraction(1, 2), left=1, right=2, "
     "data_jump=3, left_signature=StencilSignature(offsets=(0, -1)), "
     "right_signature=StencilSignature(offsets=(0, 0)))"),
    (SignReport(("SameSign", "Continuous"), (Fraction(1, 3), None), 0,
                Fraction(1, 3)),
     ("verdicts", "ratios", "violations", "max_ratio"),
     "SignReport(verdicts=('SameSign', 'Continuous'), "
     "ratios=(Fraction(1, 3), None), violations=0, "
     "max_ratio=Fraction(1, 3))"),
    (SIGNATURE, ("offsets",), "StencilSignature(offsets=(0, -1))"),
    (POLYNOMIAL, ("points", "coefficients"),
     "NewtonPolynomial(points=(0, 1), coefficients=(Fraction(1, 2), 2))"),
    (CellPolynomial(3, POLYNOMIAL), ("cell", "antiderivative"),
     "CellPolynomial(cell=3, antiderivative=NewtonPolynomial(points=(0, 1), "
     "coefficients=(Fraction(1, 2), 2)))"),
    (CONFIG,
     ("seed", "trials", "cells", "orders", "width_low", "width_high",
      "backend", "distribution", "kind"),
     "FuzzConfig(seed=3, trials=2, cells=30, orders=(1, 2), width_low=0.5, "
     "width_high=2.0, backend='exact', distribution='mixed', "
     "kind='reconstruction')"),
    (FuzzReport(CONFIG, 2, 5, 0, 0, 0, {1: "1"}, {1: "1"}, None, ()),
     ("config", "trials_run", "interfaces_checked", "violations",
      "bound_exceedances", "oracle_mismatches", "max_ratio_per_order",
      "bound_per_order", "worst_witness", "violation_witnesses"),
     "FuzzReport(config=FuzzConfig(seed=3, trials=2, cells=30, "
     "orders=(1, 2), width_low=0.5, width_high=2.0, backend='exact', "
     "distribution='mixed', kind='reconstruction'), trials_run=2, "
     "interfaces_checked=5, violations=0, bound_exceedances=0, "
     "oracle_mismatches=0, max_ratio_per_order={1: '1'}, "
     "bound_per_order={1: '1'}, worst_witness=None, "
     "violation_witnesses=())"),
    (RateTable((1, 2), (8, 16), ((0.5, 0.25), (0.125, 0.0)), (1.0, 2.0)),
     ("orders", "resolutions", "errors", "rates"),
     "RateTable(orders=(1, 2), resolutions=(8, 16), "
     "errors=((0.5, 0.25), (0.125, 0.0)), rates=(1.0, 2.0))"),
    (BoundTable("reconstruction", 2, 3, (Fraction(1), Fraction(2, 3)),
                Fraction(5, 3)),
     ("kind", "order", "position", "constants", "bound"),
     "BoundTable(kind='reconstruction', order=2, position=3, "
     "constants=(Fraction(1, 1), Fraction(2, 3)), bound=Fraction(5, 3))"),
]


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("record, names, text", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_protocol(record, names, text):
    """Each record's repr is Name(field=value, ...); it hashes as the tuple
    of its fields (a record holding a dict raises as that tuple does);
    it pickles to an equal record; a record built from the same fields
    is equal to it; and a field cannot be assigned."""
    fields = tuple(getattr(record, name) for name in names)
    assert repr(record) == text
    assert _hash_or_error(record) == _hash_or_error(fields)
    assert pickle.loads(pickle.dumps(record)) == record
    assert type(record)(*fields) == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_trace_batch_protocol():
    """A TraceBatch reprs as the list of its traces, equals that list and
    any batch with the same traces, pickles, is unhashable, and none of
    its columns can be assigned."""
    field = CellAverageField(Mesh(range(7)), [0, 0, 1, 3, 3, 4])
    batch = interface_traces(field, 2)
    traces = list(batch)
    assert repr(batch) == f"TraceBatch({traces!r})"
    assert batch == traces
    columns = ("index", "location", "left", "right", "data_jump",
               "left_signatures", "right_signatures", "approximate")
    rebuilt = TraceBatch(*(getattr(batch, name) for name in columns))
    assert rebuilt == batch
    assert pickle.loads(pickle.dumps(batch)) == batch
    with pytest.raises(TypeError):
        hash(batch)
    for name in (*columns, "jumps"):
        with pytest.raises(AttributeError):
            setattr(batch, name, None)


def test_import_loads_no_unneeded_module():
    """`import enokit, enokit.cli` in a fresh interpreter without site
    packages loads neither dataclasses and its chain nor the process pool
    nor statistics, which only `fuzz --workers` above 1 and
    convergence_study import; and every name in enokit.__all__ resolves."""
    src = os.path.dirname(os.path.dirname(enokit.__file__))
    unneeded = ["dataclasses", "inspect", "ast", "dis", "tokenize",
                "concurrent.futures", "statistics"]
    code = ("import json, sys, enokit, enokit.cli\n"
            f"print(json.dumps([[m for m in {unneeded!r} if m in sys.modules],"
            " [n for n in enokit.__all__ if not hasattr(enokit, n)]]))")
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [[], []]
