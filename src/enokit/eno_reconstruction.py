"""Adaptive-stencil reconstruction of interface traces from cell averages.

The cell averages are the first divided differences of their running
integral (the primitive) at the interfaces, so they seed its table at
level 1 and traces build no primitive. Each cell grows a stencil one point
per stage, extending toward the side whose divided difference is strictly
smaller in magnitude; ties keep the current stencil. The interpolant of
the running integral over the final stencil is differentiated to give the
in-cell polynomial, whose one-sided values at the interfaces are the traces.
A stage's choices depend only on the previous stage's, so selection and
evaluation run stage by stage over all cells at once, and the traces come
back as one columnar TraceBatch.
"""

from dataclasses import dataclass

from .errors import StencilOutOfRange
from .numerics import (
    divided_difference_table,
    float_entry,
    level_table,
    quotient,
)
from .stability import TraceBatch


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


def _select(levels, first, last, p, shift):
    """Grow the stencils of anchors first..last one point per stage.

    Stage j compares, for every anchor at once, the magnitudes of the two
    divided differences in levels[j + shift] that would extend its
    stage-j stencil by one point to the left or to the right, and moves
    left only on a strict win; ties keep the current stencil.
    Deterministic. Each stage reads only the previous stage's choices.

    Returns:
        stages, where stages[j-1][i] is the leftmost point of anchor
        first+i's stage-j stencil; stages[0] lists the anchors.
    """
    left = list(range(first, last + 1))
    stages = [left]
    for j in range(1, p):
        level = levels[j + shift]
        left = [s - 1 if abs(level[s - 1]) < abs(level[s]) else s
                for s in left]
        stages.append(left)
    return stages


def _signatures(stages):
    """The StencilSignature of every anchor in `stages` (see _select).

    Anchors with the same offsets share one signature object, so a call
    builds at most 2**(p-1) of them.
    """
    anchors = stages[0]
    keys = list(zip(*[[s - a for s, a in zip(stage, anchors)]
                      for stage in stages]))
    interned = {key: StencilSignature(key) for key in set(keys)}
    return [interned[key] for key in keys]


def _product(X, x, start, stop, skip):
    """Product of x - X[k] over k = start..stop-1 except `skip`, in index
    order from the first factor."""
    prod = None
    for k in range(start, stop):
        if k != skip:
            prod = x - X[k] if prod is None else prod * (x - X[k])
    return prod


def _stage_values(table, stages, xs, skips, shift):
    """Values at xs[i] of the stencil polynomials of the anchors in
    `stages` (see _select), all anchors stage by stage.

    The stage-1 term is levels[shift] at the anchor. The stage-j term,
    j >= 2, is the stage-j divided difference, levels[j-1+shift] at the
    stage-j stencil, times the product of x - X[k] over the stage-(j-1)
    stencil, skipping point skips[i]. A
    stage that kept its stencil multiplies the previous product by the one
    new factor, which keeps every factor in index order; a stage that
    moved left recomputes its product from the first factor. With
    shift = CELL this is the derivative of the primitive's interpolant at
    the stencil point skips[i] = xs[i]; with shift = NODE, the values'
    interpolant at any xs[i] (no point is skipped).
    """
    X = table.points
    levels = table.levels
    totals = [levels[shift][a] for a in stages[0]]
    prods = None
    for j in range(2, len(stages) + 1):
        width = j - 1 + shift  # points of the stage-(j-1) stencil
        base = stages[j - 2]
        if prods is None:
            prods = [_product(X, x, s, s + width, q)
                     for x, s, q in zip(xs, base, skips)]
        else:
            prods = [r * (x - X[s + width - 1]) if s == b
                     else _product(X, x, s, s + width, q)
                     for r, x, s, b, q in zip(prods, xs, base, stages[j - 3],
                                              skips)]
        level = levels[j - 1 + shift]
        totals = [t + level[s] * r
                  for t, s, r in zip(totals, stages[j - 1], prods)]
    return totals


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
    return _signatures(_select(table.levels, cell, cell, p, CELL))[0]


def newton_interpolant(primitive, signature, cell, table=None):
    """Newton form of the primitive's interpolant over the final stencil.

    Points are ordered by the stage at which the signature brought them
    in, so coefficient j is exactly the stage-j divided difference. A
    table built from the averages has no level 0; the constant term is
    then the primitive's own value at the cell.
    """
    p = signature.order
    _check_window(len(primitive.nodes), cell, p, CELL)
    if table is None:
        table = divided_difference_table(primitive.nodes, primitive.values,
                                         max_order=p)
    X = table.points
    levels = table.levels
    points = [X[cell]]
    coefficients = [primitive.values[cell] if levels[0] is None
                    else levels[0][cell]]
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
    return quotient(anti.value(b) - anti.value(a), b - a)


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
        TraceBatch over interfaces p..ncells-p, in index order: columns of
        the interface indices, locations, left and right traces, data
        jumps and both signatures. An InterfaceTrace is built only when an
        element is read.

    Raises:
        StencilOutOfRange: fewer than 2p cells.
    """
    n = field.mesh.ncells
    _check_batch(n, p, "cells")
    X, data, approximate = float_entry(field.mesh.interfaces, field.averages)
    if table is None:
        table = level_table(X, data, p, order=1)
    # Cells p-1..n-p: the left traces come from all but the last, the
    # right traces from all but the first.
    stages = _select(table.levels, p - 1, n - p, p, CELL)
    signatures = _signatures(stages)
    faces = range(p, n - p + 1)
    at = table.points[p:n - p + 1]
    return TraceBatch(
        faces,
        at,
        _stage_values(table, [s[:-1] for s in stages], at, faces, CELL),
        _stage_values(table, [s[1:] for s in stages], at, faces, CELL),
        [b - a for a, b in zip(data[p - 1:n - p], data[p:n - p + 1])],
        signatures[:-1],
        signatures[1:],
        approximate,
    )
