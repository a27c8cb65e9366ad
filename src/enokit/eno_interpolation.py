"""Adaptive-stencil interpolation of point values with midpoint traces.

Point values are interpolated directly: each node grows a stencil one node
per stage toward the side whose divided difference is strictly smaller in
magnitude, ties keeping the current stencil. The stencil polynomial of a
node is evaluated one-sided at the midpoints between nodes.
"""

from .eno_reconstruction import (
    NODE,
    StencilSignature,
    _anchor_signature,
    _check_window,
    _newton_form,
    _traces,
)
from .numerics import field_table

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
            max_order >= p-1, reused across nodes. Without one the call
            builds field_table(field, p - 1, NODE), so the stencils are
            the ones midpoint_traces picks.

    Raises:
        StencilOutOfRange: the candidate window leaves the data.
        ValueError: the table's max_order is below p-1.
    """
    _check_window(len(field.nodes), node, p, NODE)
    if table is None:
        table = field_table(field, p - 1, NODE)
    return _anchor_signature(table, node, p, NODE)


def interpolant_at_node(field, node, p, table=None):
    """Newton form of the values' interpolant over the node's stencil.

    Selects the stencil, then orders the points by the stage at which they
    were brought in, so coefficient j is the stage-(j+1) divided
    difference. Degree <= p-1.
    """
    _check_window(len(field.nodes), node, p, NODE)
    if table is None:
        table = field_table(field, p - 1, NODE)
    signature = select_signature_pointwise(field, node, p, table=table)
    return _newton_form(table, field.nodes, node, signature.offsets, NODE,
                        table.levels[0][node])


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
            scalars, with max_order >= p-1, reused across orders. The
            table keeps the nodes' stage-wise selection and evaluation, so
            a call for a higher order resumes where the last one stopped;
            a lower order starts again from stage 1. Without a table the
            call builds its own, for this call only.

    Returns:
        TraceBatch over the midpoints right of nodes p-1..len-p-1, in
        index order: columns of the left node indices, midpoints, left
        and right traces, value jumps and both signatures. An
        InterfaceTrace is built only when an element is read, and the
        signatures when either of their columns first is.

    Raises:
        StencilOutOfRange: fewer than 2p nodes.
        ValueError: p < 1, or the table's max_order is below p-1.
        ShapeError: the table is over another number of points.
    """
    return _traces(field.nodes, field.values, p, table, NODE)
