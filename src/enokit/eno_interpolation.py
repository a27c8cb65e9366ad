"""Adaptive-stencil interpolation of point values with midpoint traces.

Point values are interpolated directly: each node grows a stencil one node
per stage toward the side whose divided difference is strictly smaller in
magnitude, ties keeping the current stencil. The stencil polynomial of a
node is evaluated one-sided at the midpoints between nodes.
"""

from .eno_reconstruction import (
    NODE,
    NewtonPolynomial,
    StencilSignature,
    _check_batch,
    _check_window,
    _select,
)
from .numerics import divided_difference_table, float_entry, level_table
from .stability import InterfaceTrace

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
    return _select(table.levels, node, p, NODE)


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


def _eval_at(table, node, offsets, x):
    """Value at x of the node's stencil polynomial, Newton product form.

    Each product runs over its stencil in index order from the first
    factor.
    """
    X = table.points
    levels = table.levels
    total = levels[0][node]
    for j in range(2, len(offsets) + 1):
        start = node + offsets[j - 2]
        prod = x - X[start]
        for idx in range(start + 1, start + j - 1):
            prod = prod * (x - X[idx])
        total = total + levels[j - 1][node + offsets[j - 1]] * prod
    return total


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
        list of InterfaceTrace, ordered by left node index.

    Raises:
        StencilOutOfRange: fewer than 2p nodes.
    """
    n = len(field.nodes)
    _check_batch(n, p, "nodes")
    X, data, _ = float_entry(field.nodes, field.values)
    if table is None:
        table = level_table(X, data, p - 1)
    X = table.points
    sigs = [_select(table.levels, i, p, NODE) for i in range(p - 1, n - p + 1)]
    out = []
    for nu in range(p - 1, n - p):
        xm = (X[nu] + X[nu + 1]) / 2
        left_sig = sigs[nu - p + 1]
        right_sig = sigs[nu - p + 2]
        out.append(InterfaceTrace(
            index=nu,
            location=xm,
            left=_eval_at(table, nu, left_sig.offsets, xm),
            right=_eval_at(table, nu + 1, right_sig.offsets, xm),
            data_jump=data[nu + 1] - data[nu],
            left_signature=left_sig,
            right_signature=right_sig,
        ))
    return out
