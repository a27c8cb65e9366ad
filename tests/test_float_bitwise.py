"""Bitwise pin of the binary64 trace path.

The digests below hash every float trace of both kinds, p = 1..6, on fixed
hard fields. They change if the order of any float operation changes: in
the divided differences (which start from the averages themselves in
reconstruction and from the values in interpolation), the stencil
comparisons or the trace products.
"""

import hashlib

import pytest

from enokit import CellAverageField, Mesh, PointValueField
from enokit import interface_traces, midpoint_traces

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


def _digest(kind):
    lines = []
    for xs in _meshes():
        for data in _data(len(xs) if kind == "interpolation" else CELLS):
            if kind == "reconstruction":
                field = CellAverageField(Mesh(xs), data)
                run = interface_traces
            else:
                field = PointValueField(xs, data)
                run = midpoint_traces
            for p in range(1, 7):
                for t in run(field, p):
                    lines.append(repr((
                        t.index, t.location, t.left, t.right, t.data_jump,
                        t.left_signature.offsets, t.right_signature.offsets,
                    )))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "30892c75819c2d6867bf9f78e11332ada36f2d37dc6d61adcdc3c76c17229260"),
    ("interpolation",
     "7805283ca8561e27eb8ac23b8c927b7ec5fd06f7fe18ecad3160d4bbae2f5f72"),
])
def test_float_traces_are_bitwise_pinned(kind, expected):
    assert _digest(kind) == expected
