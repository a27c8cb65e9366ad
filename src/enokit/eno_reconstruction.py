"""Adaptive-stencil reconstruction of interface traces from cell averages.

The cell averages are the first divided differences of their running
integral (the primitive) at the interfaces, so they seed its table at
level 1 and traces build no primitive. Each cell grows a stencil one point
per stage, extending toward the side whose divided difference is strictly
smaller in magnitude; ties keep the current stencil. The interpolant of
the running integral over the final stencil is differentiated to give the
in-cell polynomial, whose one-sided values at the interfaces are the traces.
"""

from dataclasses import dataclass

from .errors import StencilOutOfRange
from .numerics import (
    divided_difference_table,
    float_entry,
    level_table,
    promote_integers,
)
from .stability import InterfaceTrace


@dataclass(frozen=True)
class StencilSignature:
    """Stagewise stencil offsets chosen for one anchor.

    The anchor is a cell's left interface in reconstruction and a node in
    interpolation. offsets[j-1] is the shift of the stage-j stencil's
    leftmost point relative to the anchor; stage j spans j+1 interfaces of
    the primitive, or j nodes. The first offset is 0 and each later stage
    either keeps the stencil or extends it one point to the left.
    """

    offsets: tuple

    def __post_init__(self):
        offsets = tuple(self.offsets)
        object.__setattr__(self, "offsets", offsets)
        if not offsets:
            raise ValueError("a signature needs at least one offset")
        if offsets[0] != 0:
            raise ValueError("the first offset must be 0")
        for j in range(1, len(offsets)):
            if offsets[j] - offsets[j - 1] not in (0, -1):
                raise ValueError(
                    "each stage may keep its stencil or extend it one point left"
                )

    @property
    def order(self):
        return len(self.offsets)

    def __str__(self):
        return ",".join(str(k) for k in self.offsets)


# Shift of the levels that decide each stage: a cell's stage-j stencil
# holds j+1 interfaces of the primitive, a node's holds j nodes.
CELL = 1
NODE = 0


def _check_window(npts, anchor, p, shift):
    """Raise unless every candidate order-p stencil of the anchor fits."""
    if p < 1:
        raise ValueError("order must be >= 1")
    lo = anchor - p + 1
    hi = anchor + p - 1 + shift
    if lo < 0 or hi > npts - 1:
        raise StencilOutOfRange(
            f"{'cell' if shift == CELL else 'node'} {anchor} at order {p} "
            f"needs points {lo}..{hi}; have 0..{npts - 1}"
        )


def _select(levels, anchor, p, shift):
    """Grow the anchor's stencil one point per stage.

    Stage j compares the magnitudes of the two divided differences in
    levels[j + shift] that would extend the current stencil by one point
    to the left or to the right, and moves left only on a strict win; ties
    keep the current stencil. Deterministic.
    """
    left = anchor
    offsets = [0] * p
    for j in range(1, p):
        level = levels[j + shift]
        if abs(level[left - 1]) < abs(level[left]):
            left -= 1
        offsets[j] = left - anchor
    return StencilSignature(tuple(offsets))


def _check_batch(npts, p, unit):
    if p < 1:
        raise ValueError("order must be >= 1")
    if npts < 2 * p:
        raise StencilOutOfRange(
            f"order {p} needs at least {2 * p} {unit}; have {npts}")


@dataclass(frozen=True)
class NewtonPolynomial:
    """Interpolating polynomial in Newton form, points in appearance order.

    coefficients[j] is the divided difference of the ordinates over
    points[0..j], so the polynomial interpolates the underlying data at
    every stored point regardless of the order in which they appeared.
    """

    points: tuple
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.points:
            raise ValueError("a polynomial needs at least one point")
        if len(self.points) != len(self.coefficients):
            raise ValueError(
                f"{len(self.points)} points but {len(self.coefficients)} coefficients"
            )

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def value(self, x):
        total = self.coefficients[0]
        prod = None
        for j in range(1, len(self.coefficients)):
            factor = x - self.points[j - 1]
            prod = factor if prod is None else prod * factor
            total = total + self.coefficients[j] * prod
        return total

    def derivative_value(self, x):
        zero = self.coefficients[0] - self.coefficients[0]
        total = zero
        for j in range(1, len(self.coefficients)):
            dsum = zero
            for skip in range(j):
                prod = self.coefficients[j]
                for m in range(j):
                    if m != skip:
                        prod = prod * (x - self.points[m])
                dsum = dsum + prod
            total = total + dsum
        return total


@dataclass(frozen=True)
class CellPolynomial:
    """In-cell polynomial: derivative of the running-integral interpolant."""

    cell: int
    antiderivative: NewtonPolynomial

    @property
    def order(self):
        return self.antiderivative.degree

    def value(self, x):
        return self.antiderivative.derivative_value(x)


def select_signature(primitive, cell, p, table=None):
    """Grow the cell's stencil one point per stage over the primitive.

    Each stage compares the magnitudes of the two divided differences that
    would extend the current stencil by one point to the left or to the
    right, and moves left only on a strict win; ties keep the current
    stencil. Deterministic.

    Args:
        primitive: PointValueField of running-integral samples.
        cell: index of the cell (its left interface in the primitive).
        p: stencil order, >= 1.
        table: optional precomputed DividedDifferenceTable of the
            primitive with max_order >= p, reused across cells.

    Raises:
        StencilOutOfRange: the candidate window leaves the data.
    """
    _check_window(len(primitive.nodes), cell, p, CELL)
    if table is None:
        table = divided_difference_table(primitive.nodes, primitive.values,
                                         max_order=p)
    return _select(table.levels, cell, p, CELL)


def newton_interpolant(primitive, signature, cell, table=None):
    """Newton form of the primitive's interpolant over the final stencil.

    Points are ordered by the stage at which the signature brought them
    in, so coefficient j is exactly the stage-j divided difference.
    """
    p = signature.order
    _check_window(len(primitive.nodes), cell, p, CELL)
    if table is None:
        table = divided_difference_table(primitive.nodes, primitive.values,
                                         max_order=p)
    X = table.points
    levels = table.levels
    points = [X[cell]]
    coefficients = [levels[0][cell]]
    prev = 0
    for j in range(1, p + 1):
        k = signature.offsets[j - 1]
        coefficients.append(levels[j][cell + k])
        points.append(X[cell + k + j] if k == prev else X[cell + k])
        prev = k
    return NewtonPolynomial(tuple(points), tuple(coefficients))


def reconstruct_cell(primitive, cell, p, table=None):
    """Select the cell's stencil and differentiate its interpolant."""
    if table is None:
        table = divided_difference_table(primitive.nodes, primitive.values,
                                         max_order=p)
    signature = select_signature(primitive, cell, p, table=table)
    return CellPolynomial(cell, newton_interpolant(primitive, signature, cell,
                                                   table=table))


def cell_mean(poly, mesh):
    """Mean of the in-cell polynomial over its cell: exact integration."""
    a = mesh.interfaces[poly.cell]
    b = mesh.interfaces[poly.cell + 1]
    anti = poly.antiderivative
    num = anti.value(b) - anti.value(a)
    den = b - a
    if isinstance(num, float) or isinstance(den, float):
        return num / den
    num, den = promote_integers([num, den])
    return num / den


def _trace_at(table, cell, offsets, q):
    """One-sided trace at point q of the cell's derivative polynomial.

    Evaluates the derivative of the Newton interpolant at a stencil point
    directly: only the product that skips the zero factor survives. Each
    product runs over its stencil in index order from the first factor.
    """
    X = table.points
    levels = table.levels
    xq = X[q]
    total = levels[1][cell]
    for j in range(2, len(offsets) + 1):
        start = cell + offsets[j - 2]
        prod = None
        for idx in range(start, start + j):
            if idx != q:
                prod = xq - X[idx] if prod is None else prod * (xq - X[idx])
        total = total + levels[j][cell + offsets[j - 1]] * prod
    return total


def interface_traces(field, p, table=None):
    """One-sided traces at every interior interface of an average field.

    Interfaces p..ncells-p carry full stencil windows on both sides; each
    gets the left cell's polynomial evaluated from the left and the right
    cell's from the right, along with the data jump and both signatures.
    Float data is converted to float once here; from then on both backends
    run the same code.

    Args:
        field: CellAverageField.
        p: order, >= 1.
        table: optional DividedDifferenceTable over the interfaces, in the
            field's scalars, with max_order >= p, reused across orders.
            Level 1 holds the averages (the primitive's first divided
            differences); level 0 is never read, so it may be None.

    Returns:
        list of InterfaceTrace, ordered by interface index.

    Raises:
        StencilOutOfRange: fewer than 2p cells.
    """
    n = field.mesh.ncells
    _check_batch(n, p, "cells")
    X, data, _ = float_entry(field.mesh.interfaces, field.averages)
    if table is None:
        table = level_table(X, data, p, order=1)
    X = table.points
    sigs = [_select(table.levels, c, p, CELL) for c in range(p - 1, n - p + 1)]
    out = []
    for iota in range(p, n - p + 1):
        left_sig = sigs[iota - p]
        right_sig = sigs[iota - p + 1]
        out.append(InterfaceTrace(
            index=iota,
            location=X[iota],
            left=_trace_at(table, iota - 1, left_sig.offsets, iota),
            right=_trace_at(table, iota, right_sig.offsets, iota),
            data_jump=data[iota] - data[iota - 1],
            left_signature=left_sig,
            right_signature=right_sig,
        ))
    return out
