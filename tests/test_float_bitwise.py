"""Bitwise pin of the binary64 trace path, verdicts and telescoped oracle.

The digests below hash every float trace of both kinds, p = 1..6, on fixed
hard fields, every float summand the telescoped oracle gives for those
traces, every float divided difference of those fields, and the float sign
report of every trace batch: its verdicts, each ratio's bits and the
largest ratio. They change if the order of any float operation changes:
in the divided differences (which start from the averages themselves in
reconstruction and from the values in interpolation), the stencil
comparisons, the trace products, the oracle's geometric factors or the
verdicts' tolerance test and ratios. The table digest pins the divided
differences alone, so a change to the trace products moves only the
trace and sign report digests. Trace products take their factors in the
order the points entered the stencil, the order of NewtonPolynomial.value.

Run this file as a script to print the current digests:

    python tests/test_float_bitwise.py
"""

import hashlib
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # a source checkout, run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from enokit import CellAverageField, Mesh, PointValueField
from enokit import interface_traces, midpoint_traces
from enokit.numerics import build_table
from enokit.stability import (
    sign_report,
    telescoped_terms_interpolation,
    telescoped_terms_reconstruction,
)

CELLS = 24
NON_DYADIC_WIDTHS = (0.1, 0.3, 1 / 3, 0.7)


def _meshes():
    uniform = [float(k) for k in range(CELLS + 1)]
    non_dyadic = [0.0]
    for k in range(CELLS):
        non_dyadic.append(non_dyadic[-1] + NON_DYADIC_WIDTHS[k % 4])
    return uniform, non_dyadic


def _data(count):
    steps = [0.0 if i < count // 3 else 1.0 if i < 2 * count // 3 else -2.5
             for i in range(count)]
    alternating = [float((-1) ** i) for i in range(count)]
    sawtooth = [0.0 if i % 2 else 1.0 - 1e-9 if i < count // 2 else 1.0
                for i in range(count)]
    zeros = [0.0] * count
    # Mixed magnitudes make the differences cancel against large
    # neighbours.
    scales = [(1e8 if i % 5 == 0 else 1.0) + (7 * i % 13) / 13
              for i in range(count)]
    return steps, alternating, sawtooth, zeros, scales


def _fields(kind):
    """(coordinates, data) of every fixed field of the kind."""
    for xs in _meshes():
        for data in _data(len(xs) if kind == "interpolation" else CELLS):
            yield xs, data


def _traced(kind):
    """(coordinates, data, p, traces) for every fixed field and p = 1..6."""
    for xs, data in _fields(kind):
        if kind == "reconstruction":
            field = CellAverageField(Mesh(xs), data)
            run = interface_traces
        else:
            field = PointValueField(xs, data)
            run = midpoint_traces
        for p in range(1, 7):
            yield xs, data, p, run(field, p)


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _digest(kind):
    return _sha(repr((
        t.index, t.location, t.left, t.right, t.data_jump,
        t.left_signature.offsets, t.right_signature.offsets,
    )) for _, _, _, traces in _traced(kind) for t in traces)


def _hex(ratio):
    return None if ratio is None else ratio.hex()


def _report_digest(kind):
    """Every float sign report of the fixed fields: the verdicts, each
    ratio's float.hex and the largest ratio."""
    lines = []
    for _, _, _, traces in _traced(kind):
        report = sign_report(traces)
        lines.append(repr((report.verdicts, tuple(map(_hex, report.ratios)),
                           _hex(report.max_ratio))))
    return _sha(lines)


def _level(kind):
    """The level the kind's data seed: averages 1, point values 0."""
    return 1 if kind == "reconstruction" else 0


def _table_digest(kind):
    """Every float divided difference of the fixed fields, down to the
    deepest level the oracle digest reads."""
    level = _level(kind)
    return _sha(repr(column)
                for xs, data in _fields(kind)
                for column in build_table(xs, data, 6 + level,
                                          level).levels[level:])


def _oracle_digest(kind):
    level = _level(kind)
    terms_of = (telescoped_terms_reconstruction if kind == "reconstruction"
                else telescoped_terms_interpolation)
    lines = []
    for xs, data, p, traces in _traced(kind):
        table = build_table(xs, data, p + level, level)
        for t in traces:
            lines.append(repr(terms_of(None, t.left_signature,
                                       t.right_signature, t.index, p,
                                       table=table)))
    return _sha(lines)


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "ede27f2afff73c7339e8e0174231df62a9c9802a8eaccf12a19ede1a3b52082b"),
    ("interpolation",
     "c47063d0bab0254945c668d7d143954ba604fc2b7ece282cadaa99872968b469"),
])
def test_float_traces_are_bitwise_pinned(kind, expected):
    assert _digest(kind) == expected


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "1005afacb5d6b513b76d0df9a568ea155daad1d0d69e99f661a6f64f74a48e39"),
    ("interpolation",
     "6e0cb6c897ec8e61ceb5d70f7794b98eb05f1f8ee8e642267845dcf13bc637ed"),
])
def test_float_oracle_terms_are_bitwise_pinned(kind, expected):
    assert _oracle_digest(kind) == expected


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "d70357a767988b9c21ea315ac34296c44be942d9f53250af951e1f5b01db0b80"),
    ("interpolation",
     "c247c3f8e32625fcc483953054ae9471b18fdaec45147dde8296fca457f1298f"),
])
def test_float_tables_are_bitwise_pinned(kind, expected):
    assert _table_digest(kind) == expected


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "2ad63a5e077302090bab3b95839d2ca174438b35f1ee082a4b96b126a92fcf76"),
    ("interpolation",
     "0f73b2c27e1581c1ce52200efba5350ed19be9e0f007a056f0ec3b4907433f1e"),
])
def test_float_sign_reports_are_bitwise_pinned(kind, expected):
    assert _report_digest(kind) == expected


if __name__ == "__main__":
    for name, digest in (("traces", _digest), ("oracle terms", _oracle_digest),
                         ("tables", _table_digest),
                         ("sign reports", _report_digest)):
        for kind in ("reconstruction", "interpolation"):
            print(f"{name:12} {kind:14} {digest(kind)}")
