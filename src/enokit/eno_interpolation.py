"""Adaptive-stencil interpolation of point values with midpoint traces.

Point values are interpolated directly: each node grows a stencil one node
per stage toward the side whose divided difference is strictly smaller in
magnitude, ties keeping the current stencil. The stencil polynomial of a
node is evaluated one-sided at the midpoints between nodes.
"""

from itertools import repeat

from .eno_reconstruction import (
    NODE,
    NewtonPolynomial,
    StencilSignature,
    _check_batch,
    _check_window,
    _select,
    _signatures,
    _stage_values,
)
from .numerics import divided_difference_table, float_entry, level_table
from .stability import TraceBatch

# Interpolation signatures are stencil signatures anchored at nodes.
PointSignature = StencilSignature


def select_signature_pointwise(field, node, p, table=None):
    """Grow the node's stencil one node per stage over the values.

    Stage j compares the magnitudes of the divided differences of the two
    candidate (j+1)-node extensions and moves left only on a strict win;
    ties keep the current stencil. Deterministic.

    Args:
        field: PointValueField.
        node: anchor node index.
        p: stencil order (node count), >= 1.
        table: optional DividedDifferenceTable of the field with
            max_order >= p-1, reused across nodes.

    Raises:
        StencilOutOfRange: the candidate window leaves the data.
    """
    _check_window(len(field.nodes), node, p, NODE)
    if table is None:
        table = divided_difference_table(field.nodes, field.values,
                                         max_order=p - 1)
    return _signatures(_select(table.levels, node, node, p, NODE))[0]


def interpolant_at_node(field, node, p, table=None):
    """Newton form of the values' interpolant over the node's stencil.

    Selects the stencil, then orders the points by the stage at which they
    were brought in, so coefficient j is the stage-(j+1) divided
    difference. Degree <= p-1.
    """
    _check_window(len(field.nodes), node, p, NODE)
    if table is None:
        table = divided_difference_table(field.nodes, field.values,
                                         max_order=p - 1)
    signature = select_signature_pointwise(field, node, p, table=table)
    X = table.points
    levels = table.levels
    points = [X[node]]
    coefficients = [levels[0][node]]
    prev = 0
    for j in range(2, p + 1):
        m = signature.offsets[j - 1]
        coefficients.append(levels[j - 1][node + m])
        points.append(X[node + m + j - 1] if m == prev else X[node + m])
        prev = m
    return NewtonPolynomial(tuple(points), tuple(coefficients))


def midpoint_traces(field, p, table=None):
    """One-sided traces at every interior node midpoint.

    Midpoints between nodes nu and nu+1 for nu = p-1..len-p-1 carry full
    stencil windows on both sides; each gets the left node's polynomial
    and the right node's polynomial evaluated at the midpoint, along with
    the value jump and both signatures. Float data is converted to float
    once here; from then on both backends run the same code.

    Args:
        field: PointValueField.
        p: order, >= 1.
        table: optional DividedDifferenceTable of the field, in its
            scalars, with max_order >= p-1, reused across orders.

    Returns:
        TraceBatch over the midpoints right of nodes p-1..len-p-1, in
        index order: columns of the left node indices, midpoints, left
        and right traces, value jumps and both signatures. An
        InterfaceTrace is built only when an element is read.

    Raises:
        StencilOutOfRange: fewer than 2p nodes.
    """
    n = len(field.nodes)
    _check_batch(n, p, "nodes")
    X, data, approximate = float_entry(field.nodes, field.values)
    if table is None:
        table = level_table(X, data, p - 1)
    X = table.points
    # Nodes p-1..n-p: the left traces come from all but the last, the
    # right traces from all but the first.
    stages = _select(table.levels, p - 1, n - p, p, NODE)
    signatures = _signatures(stages)
    mids = [(a + b) / 2 for a, b in zip(X[p - 1:n - p], X[p:n - p + 1])]
    return TraceBatch(
        range(p - 1, n - p),
        mids,
        _stage_values(table, [s[:-1] for s in stages], mids, repeat(None), NODE),
        _stage_values(table, [s[1:] for s in stages], mids, repeat(None), NODE),
        [b - a for a, b in zip(data[p - 1:n - p], data[p:n - p + 1])],
        signatures[:-1],
        signatures[1:],
        approximate,
    )
