"""Bitwise pin of the binary64 trace path and telescoped oracle.

The digests below hash every float trace of both kinds, p = 1..6, on fixed
hard fields, and every float summand the telescoped oracle gives for those
traces. They change if the order of any float operation changes: in
the divided differences (which start from the averages themselves in
reconstruction and from the values in interpolation), the stencil
comparisons, the trace products or the oracle's geometric factors.
"""

import hashlib

import pytest

from enokit import CellAverageField, Mesh, PointValueField
from enokit import interface_traces, midpoint_traces
from enokit.numerics import level_table
from enokit.stability import (
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


def _traced(kind):
    """(coordinates, data, p, traces) for every fixed field and p = 1..6."""
    for xs in _meshes():
        for data in _data(len(xs) if kind == "interpolation" else CELLS):
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


def _oracle_digest(kind):
    if kind == "reconstruction":
        level, terms_of = 1, telescoped_terms_reconstruction
    else:
        level, terms_of = 0, telescoped_terms_interpolation
    lines = []
    for xs, data, p, traces in _traced(kind):
        table = level_table(xs, data, p + level, level)
        for t in traces:
            lines.append(repr(terms_of(None, t.left_signature,
                                       t.right_signature, t.index, p,
                                       table=table)))
    return _sha(lines)


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "30892c75819c2d6867bf9f78e11332ada36f2d37dc6d61adcdc3c76c17229260"),
    ("interpolation",
     "7805283ca8561e27eb8ac23b8c927b7ec5fd06f7fe18ecad3160d4bbae2f5f72"),
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
