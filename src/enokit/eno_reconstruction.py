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
back as one columnar TraceBatch. The order-p stencils are the first p
stages of the order-(p+1) ones, so that stage-wise state is kept on the
divided-difference table and a higher order resumes it.
"""

from collections import namedtuple
from itertools import islice
from operator import add, mul, sub

from .errors import ShapeError, StencilOutOfRange
from .numerics import (
    CELL,
    NODE,
    _own_type,
    build_table,
    check_depth,
    check_finite_column,
    field_table,
    quotient,
)
from .stability import TraceBatch


class StencilSignature(namedtuple("StencilSignature", "offsets")):
    """Stagewise stencil offsets chosen for one anchor.

    The anchor is a cell's left interface in reconstruction and a node in
    interpolation. offsets[j-1] is the shift of the stage-j stencil's
    leftmost point relative to the anchor; stage j spans j+1 interfaces of
    the primitive, or j nodes. The first offset is 0 and each later stage
    either keeps the stencil or extends it one point to the left.
    """

    __slots__ = ()

    def __new__(cls, offsets):
        offsets = tuple(offsets)
        if not offsets:
            raise ValueError("a signature needs at least one offset")
        if offsets[0] != 0:
            raise ValueError("the first offset must be 0")
        for j in range(1, len(offsets)):
            if offsets[j] - offsets[j - 1] not in (0, -1):
                raise ValueError(
                    "each stage may keep its stencil or extend it one point left"
                )
        return super().__new__(cls, offsets)

    @property
    def order(self):
        return len(self.offsets)

    def __str__(self):
        return ",".join(str(k) for k in self.offsets)


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


def _select(level, left):
    """One stage of stencil selection, for every anchor at once.

    left[i] is the leftmost point of an anchor's current stencil, and
    level[s - 1] and level[s] are the divided differences that would extend
    a stencil starting at s by one point to the left or to the right: the
    next level of the table. The stencil moves left only on a strict win in
    magnitude; ties keep it. Deterministic. Returns the next stage's
    leftmost points.
    """
    mags = list(map(abs, level))
    return [s - 1 if mags[s - 1] < mags[s] else s for s in left]


def _anchor_signature(table, anchor, p, shift):
    """The order-p StencilSignature of one anchor, one _select per stage."""
    check_depth(table, p, p - 1 + shift)
    s = anchor
    offsets = [0]
    for j in range(1, p):
        # The two entries that decide this anchor's stage, the second at 1.
        s += _select(table.levels[j + shift][s - 1:s + 1], [1])[0] - 1
        offsets.append(s - anchor)
    return StencilSignature(offsets)


def _signatures(lefts):
    """The StencilSignature of every anchor, from lefts[j-1][i], the
    leftmost point of anchor lefts[0][i]'s stage-j stencil.

    Each anchor is keyed by the stages whose stencil moved left, as bits,
    and the offsets are rebuilt once per key: anchors with the same offsets
    share one signature object, and a call builds at most 2**(p-1).
    """
    keys = [0] * len(lefts[0])
    for j in range(1, len(lefts)):
        keys = [key | ((b - s) << j)
                for key, s, b in zip(keys, lefts[j], lefts[j - 1])]
    interned = {key: StencilSignature([
        -(key & (2 << j) - 1).bit_count() for j in range(len(lefts))])
        for key in set(keys)}
    return list(map(interned.__getitem__, keys))


class _SignatureColumn:
    """A signature column of a TraceBatch from _traces, derived on first
    read. The batch's two columns share `shared`: [its order's stage
    lefts] until either is read, then the plain lists of the left (k = 0)
    and right (k = 1) anchors' signatures from one _signatures call, so
    right[i] is left[i + 1]. Iteration runs over that list."""

    __slots__ = ("_shared", "_k")

    def __init__(self, shared, k):
        self._shared = shared
        self._k = k

    def _column(self):
        shared = self._shared
        if len(shared) == 1:
            signatures = _signatures(shared.pop())
            shared += signatures[:-1], signatures[1:]
        return shared[self._k]

    def __len__(self):
        return len(self._column())

    def __getitem__(self, i):
        return self._column()[i]

    def __iter__(self):
        return iter(self._column())

    def __eq__(self, other):
        return self._column() == other


def _shifted(column, k):
    """column from entry k on: the entries of the breakpoints' left
    anchors (k = 0) or right anchors (k = 1)."""
    return islice(column, k, None) if k else column


def _breakpoints(points, shift):
    """The breakpoints between anchors on points: the points themselves
    for cells, the midpoints for nodes. ints, which are grid_integers,
    halve exactly."""
    if shift == CELL:
        return points
    if type(points[0]) is int:
        return [(a + b) // 2 for a, b in zip(points, points[1:])]
    return [(a + b) / 2 for a, b in zip(points, points[1:])]


class _Stages:
    """Stage-wise ENO selection and evaluation over one table, for one kind.

    With n cells (shift = CELL) or nodes (shift = NODE) on the table,
    breakpoint b lies between anchors b and b+1, b = 0..n-2; its index is
    b + shift: interface b+1, or the midpoint right of node b. at[i] is
    the point the traces of the breakpoint with index i are evaluated at,
    on the table's points, and location[i] the same point in the field's
    coordinates. They differ when the table is on grid_integers, whose
    midpoints halve exactly; otherwise they are one list.

    The state covers the order of the stage it has reached, j =
    len(lefts): lefts[i-1][a] is the leftmost point of the stage-i
    stencil of anchor j-1+a, for the order-j anchors j-1..n-j, and
    sums[0][b] and sums[1][b] are the stage-j polynomials of breakpoint
    j-1+b's left and right anchors there, for the order-j breakpoints
    j-1..n-j-1. `prods` holds their last products, over the stage-(j-1)
    stencils (None at stage 1). A higher order needs no anchor outside
    that range, so growing a stage drops one anchor at each end of every
    column; earlier stages' sums are not kept. Each stage builds new sums
    lists, and a grow call trims copies of the lefts columns, so the
    columns a TraceBatch took from an earlier order never change. Nothing
    here refers back to the table.
    """

    def __init__(self, table, coords, shift):
        X = table.points
        n = len(X) - shift
        self.at = _breakpoints(X, shift)
        self.location = (_breakpoints(_own_type(coords), shift)
                         if type(X[0]) is int else self.at)
        first = table.levels[shift]
        self.lefts = [list(range(n))]
        self.sums = [list(first[:n - 1]), list(first[1:n])]
        self.prods = [None, None]

    def grow(self, table, p, shift):
        """Select and evaluate stages len(lefts)+1..p.

        Stage j+1 adds to each stream the stage-(j+1) divided difference,
        level j+shift at the new stencil, times the product of x - X[k]
        over the stage-j stencil, its factors in the order the points
        entered, as NewtonPolynomial.value takes them. Each stage
        multiplies the previous product by the factor of the one point it
        brought in: the new right end of a stencil that kept its left end,
        else the new left end. With shift = CELL a sum is the derivative
        of the primitive's interpolant at the interface, whose own factor
        the products skip; the interface is in the stencil from stage 1 on,
        so it is never the new point. With shift = NODE a sum is the
        values' interpolant at the midpoint. The streams are a breakpoint's
        two anchors, so both read one column per stage of each anchor's new
        point and divided difference, then replace their lists in turn.
        """
        X = table.points
        if len(self.lefts) < p:  # a batch of an earlier order may hold these
            self.lefts = [column[:] for column in self.lefts]
        lefts = self.lefts
        sums = self.sums
        prods = self.prods
        for j in range(len(lefts), p):
            for column in lefts:
                del column[0], column[-1]
            level = table.levels[j + shift]
            lefts.append(_select(level, lefts[-1]))
            # Indices of the stage-(j+1) breakpoints, which the first
            # iterator of each zip below spans exactly.
            lo = j + shift
            hi = lo + len(lefts[0]) - 1
            last = j + shift - 1  # right end of a stage-j stencil from its left
            # Per anchor: stage j's new point and stage j+1's coefficient.
            if j > 1:
                new = [X[s + last] if s == b else X[s]
                       for s, b in zip(lefts[j - 1], lefts[j - 2])]
            coefficients = list(map(level.__getitem__, lefts[j]))
            for k in (0, 1):
                xs = islice(self.at, lo, hi)
                if j == 1:
                    # One factor: the stage-1 stencil's point other than a
                    # cell's interface, or a node's own point.
                    prods[k] = list(map(sub, xs, islice(
                        X, lefts[0][0] + k * (1 + shift), None)))
                else:
                    old = prods[k]
                    del old[0], old[-1]
                    prods[k] = [r * (x - y) for x, r, y in zip(
                        xs, old, _shifted(new, k))]
                sums[k] = list(map(add, islice(sums[k], 1, None), map(
                    mul, _shifted(coefficients, k), prods[k])))


def _stages(table, coords, p, shift):
    """The table's stage-wise state of this kind, grown to stage p.

    A table keeps one state per kind and later orders resume it. An order
    below the stage it has reached starts again from stage 1 on a state
    that is not stored. `coords` are the field's coordinates, which the
    state reports as the breakpoints' locations.
    """
    check_depth(table, p, p - 1 + shift)
    state = table._eno_stages.get(shift)
    if state is None:
        state = table._eno_stages[shift] = _Stages(table, coords, shift)
    elif len(state.lefts) > p:
        state = _Stages(table, coords, shift)
    state.grow(table, p, shift)
    return state


def _traces(coords, data, p, table, shift):
    """Order-p TraceBatch of data of level `shift` over coords: the body
    of interface_traces (CELL) and midpoint_traces (NODE). The batch is
    approximate when the table is. An approximate batch takes its data
    jumps from the table's level `shift`, an exact one from the data, its
    ints kept and every other scalar of the exact backend's type
    (_own_type). Float traces or data jumps that overflow to NaN or
    +-inf raise NonFiniteValue. The signatures are derived when a caller
    first reads one."""
    if p < 1:
        raise ValueError("order must be >= 1")
    n = len(data)
    if n < 2 * p:
        raise StencilOutOfRange(
            f"order {p} needs at least {2 * p} "
            f"{'cells' if shift == CELL else 'nodes'}; have {n}")
    if table is None:
        table = build_table(coords, data, p - 1 + shift, shift, grid=True)
    elif len(table.points) != len(coords):
        raise ShapeError(
            f"a table over {len(table.points)} points for data over "
            f"{len(coords)}")
    approximate = table.approximate
    data = table.levels[shift] if approximate else _own_type(data, int)
    state = _stages(table, coords, p, shift)
    shared = [state.lefts]
    left, right = state.sums
    data_jump = [b - a for a, b in zip(data[p - 1:n - p], data[p:n - p + 1])]
    if approximate:
        for what, column in (("left trace", left), ("right trace", right),
                             ("data jump", data_jump)):
            check_finite_column(column, f"float overflow: {what}")
    return TraceBatch(
        range(p - 1 + shift, n - p + shift),
        state.location[p - 1 + shift:n - p + shift],
        left,
        right,
        data_jump,
        _SignatureColumn(shared, 0),
        _SignatureColumn(shared, 1),
        approximate,
    )


class NewtonPolynomial(namedtuple("NewtonPolynomial", "points coefficients")):
    """Interpolating polynomial in Newton form, points in appearance order.

    coefficients[j] is the divided difference of the ordinates over
    points[0..j], so the polynomial interpolates the underlying data at
    every stored point regardless of the order in which they appeared.
    """

    __slots__ = ()

    def __new__(cls, points, coefficients):
        points, coefficients = tuple(points), tuple(coefficients)
        if not points:
            raise ValueError("a polynomial needs at least one point")
        if len(points) != len(coefficients):
            raise ValueError(
                f"{len(points)} points but {len(coefficients)} coefficients")
        return super().__new__(cls, points, coefficients)

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


class CellPolynomial(namedtuple("CellPolynomial", "cell antiderivative")):
    """In-cell polynomial: derivative of the running-integral interpolant."""

    __slots__ = ()

    @property
    def order(self):
        return self.antiderivative.degree

    def value(self, x):
        return self.antiderivative.derivative_value(x)


def _newton_form(table, coords, anchor, offsets, shift, constant):
    """Newton form over an anchor's final stencil, points in the order the
    stages brought them in: stage s reads level s at offset offsets[s-shift].
    `constant` is the level-0 coefficient, at the anchor.

    The table's points on the stencil must be the field's `coords` there,
    or their floats in an approximate table; a table in other units, such
    as one on grid_integers, raises ShapeError.
    """
    X = table.points
    levels = table.levels
    lo = anchor + offsets[-1]
    for k in range(lo, lo + len(offsets) + shift):
        if X[k] != (float(coords[k]) if table.approximate else coords[k]):
            raise ShapeError(
                f"the table's point {k} is {X[k]!r}, not the field's "
                f"coordinate {coords[k]!r}; build it with field_table")
    points = [X[anchor]]
    coefficients = [constant]
    prev = 0
    for s in range(1, len(offsets) + shift):
        off = offsets[s - shift]
        coefficients.append(levels[s][anchor + off])
        points.append(X[anchor + off + s] if off == prev else X[anchor + off])
        prev = off
    return NewtonPolynomial(tuple(points), tuple(coefficients))


def select_signature(primitive, cell, p, table=None):
    """Grow the cell's stencil one point per stage over the primitive.

    Each stage compares the magnitudes of the two divided differences that
    would extend the current stencil by one point to the left or to the
    right, and moves left only on a strict win; ties keep the current
    stencil. Deterministic.

    Args:
        primitive: PointValueField of running-integral samples, from
            primitive_from_averages.
        cell: index of the cell (its left interface in the primitive).
        p: stencil order, >= 1.
        table: optional precomputed DividedDifferenceTable over the
            primitive's nodes with max_order >= p, reused across cells.
            Without one the call builds field_table(primitive, p, CELL),
            the averages' own table, so the stencils are the ones
            interface_traces picks.

    Raises:
        StencilOutOfRange: the candidate window leaves the data.
        ValueError: the table's max_order is below p.
        TypeError: no table, and a primitive without averages.
    """
    _check_window(len(primitive.nodes), cell, p, CELL)
    if table is None:
        table = field_table(primitive, p, CELL)
    return _anchor_signature(table, cell, p, CELL)


def newton_interpolant(primitive, signature, cell, table=None):
    """Newton form of the primitive's interpolant over the final stencil.

    Points are ordered by the stage at which the signature brought them
    in, so coefficient j is exactly the stage-j divided difference. The
    constant term is the primitive's own value at the cell, so the table,
    by default field_table(primitive, p, CELL), needs no level 0.
    """
    p = signature.order
    _check_window(len(primitive.nodes), cell, p, CELL)
    if table is None:
        table = field_table(primitive, p, CELL)
    check_depth(table, p, p)
    return _newton_form(table, primitive.nodes, cell, signature.offsets, CELL,
                        primitive.values[cell])


def reconstruct_cell(primitive, cell, p, table=None):
    """Select the cell's stencil and differentiate its interpolant, both on
    one table: by default field_table(primitive, p, CELL)."""
    if table is None:
        table = field_table(primitive, p, CELL)
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
            differences); level 0 is never read, so it may be None. The
            table keeps the cells' stage-wise selection and evaluation, so
            a call for a higher order resumes where the last one stopped;
            a lower order starts again from stage 1. Without a table the
            call builds its own, for this call only.

    Returns:
        TraceBatch over interfaces p..ncells-p, in index order: columns of
        the interface indices, locations, left and right traces, data
        jumps and both signatures. An InterfaceTrace is built only when an
        element is read, and the signatures when either of their columns
        first is.

    Raises:
        StencilOutOfRange: fewer than 2p cells.
        ValueError: p < 1, or the table's max_order is below p.
        ShapeError: the table is over another number of points.
    """
    return _traces(field.mesh.interfaces, field.averages, p, table, CELL)
