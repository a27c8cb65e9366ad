"""Meshes, cell-average fields, point-value fields, and the primitive bridge.

The primitive of a cell-average field is its cumulative integral sampled at
the mesh interfaces; its first divided differences give back the averages.
The trace and check code uses that identity directly and starts its
divided-difference tables from the averages, so it builds no primitive; the
per-cell API (select_signature, reconstruct_cell, ...) still takes one.
"""

from math import isfinite

from .errors import InvalidMesh, NonFiniteValue, ShapeError
from .numerics import is_float_data, promote_integers


def _check_finite(values, what, indices=None):
    """Reject NaN and +-inf among the float entries of values."""
    for k in range(len(values)) if indices is None else indices:
        v = values[k]
        if isinstance(v, float) and not isfinite(v):
            raise NonFiniteValue(f"{what} {k} is {v!r}")


def _check_increasing(coords, what):
    """Strictly increasing coordinates with finite ends.

    NaN fails every comparison and an infinity can only sit at an end of a
    strictly increasing sequence, so checking the ends and any failed
    comparison covers every entry.
    """
    for k in range(len(coords) - 1):
        if not coords[k] < coords[k + 1]:
            _check_finite(coords, what, (k, k + 1))
            raise InvalidMesh(
                f"{what}s must be strictly increasing; offender at index {k + 1}"
            )
    if coords:
        _check_finite(coords, what, (0, len(coords) - 1))


class Mesh:
    """Strictly increasing interface coordinates delimiting cells.

    Cell i spans [interfaces[i], interfaces[i+1]); values at an interface
    are attributed through one-sided traces, never through cell membership
    of the interface point.
    """

    def __init__(self, interfaces):
        interfaces = tuple(interfaces)
        if len(interfaces) < 2:
            raise InvalidMesh("a mesh needs at least two interfaces")
        _check_increasing(interfaces, "interface")
        self.interfaces = interfaces

    @property
    def ncells(self):
        return len(self.interfaces) - 1

    def width(self, i):
        """Width of cell i."""
        return self.interfaces[i + 1] - self.interfaces[i]

    def mesh_ratio(self, i):
        """Width ratio of cell i+1 to cell i."""
        widths = promote_integers([self.width(i + 1), self.width(i)])
        return widths[0] / widths[1]


def uniform_mesh(ncells, start=0, width=1):
    """Mesh of ncells equal cells beginning at start."""
    return Mesh([start + k * width for k in range(ncells + 1)])


class CellAverageField:
    """Cell averages attached to a mesh, one scalar per cell."""

    def __init__(self, mesh, averages):
        averages = tuple(averages)
        if len(averages) != mesh.ncells:
            raise ShapeError(
                f"{len(averages)} averages for a mesh of {mesh.ncells} cells"
            )
        _check_finite(averages, "average")
        self.mesh = mesh
        self.averages = averages


class PointValueField:
    """Values sampled at strictly increasing nodes."""

    def __init__(self, nodes, values):
        nodes = tuple(nodes)
        values = tuple(values)
        if len(nodes) != len(values):
            raise ShapeError(f"{len(nodes)} nodes but {len(values)} values")
        _check_increasing(nodes, "node")
        _check_finite(values, "value")
        self.nodes = nodes
        self.values = values


# ---- Primitive bridge ----

def primitive_floats(interfaces, averages, base=0.0):
    """Compensated (Neumaier) running integral of cellwise-constant floats."""
    values = [0.0] * (len(averages) + 1)
    values[0] = base
    s = base
    comp = 0.0
    for i in range(len(averages)):
        term = (interfaces[i + 1] - interfaces[i]) * averages[i]
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        values[i + 1] = s + comp
    return values


def primitive_from_averages(field, base=0):
    """Cumulative integral of the field, sampled at the mesh interfaces.

    Args:
        field: CellAverageField.
        base: value assigned at the first interface; it shifts every sample
            by a constant and no divided difference of order >= 1 changes.

    Returns:
        PointValueField on the interfaces with values[0] == base and
        values[j+1] - values[j] == width(j) * averages[j]. Float data uses
        compensated summation; exact data sums exactly.
    """
    X = field.mesh.interfaces
    avgs = field.averages
    if is_float_data(avgs) or is_float_data(X) or isinstance(base, float):
        xs = [float(x) for x in X]
        values = primitive_floats(xs, [float(a) for a in avgs], float(base))
        return PointValueField(xs, values)
    values = [base]
    for i in range(len(avgs)):
        values.append(values[-1] + (X[i + 1] - X[i]) * avgs[i])
    return PointValueField(X, values)


def first_divided_differences(primitive):
    """First divided differences of a point-value field, window by window."""
    xs = promote_integers(primitive.nodes)
    vs = promote_integers(primitive.values)
    return [
        (vs[k + 1] - vs[k]) / (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)
    ]


def first_dd_is_average(primitive, field, rel_tol=1e-12):
    """Check that the primitive's first divided differences are the averages.

    Exact scalars are compared exactly; float scalars within rel_tol of the
    average's scale (with a floor of 1).
    """
    dds = first_divided_differences(primitive)
    if len(dds) != len(field.averages):
        raise ShapeError(
            f"{len(dds)} cells in the primitive but {len(field.averages)} averages"
        )
    approximate = is_float_data(primitive.values) or is_float_data(field.averages)
    for dd, avg in zip(dds, field.averages):
        if approximate:
            if abs(dd - avg) > rel_tol * max(1.0, abs(avg)):
                return False
        elif dd != avg:
            return False
    return True


# ---- Periodic extension ----

def periodic_extension(field, pad):
    """Extend a cell-average field by wrapping pad cells onto each side.

    Convenience for exercising interior-only operations on periodic data;
    no extrapolation is ever fabricated.

    Raises:
        ValueError: pad < 0.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0; got {pad}")
    X = field.mesh.interfaces
    n = field.mesh.ncells
    widths = [X[i + 1] - X[i] for i in range(n)]
    idx = [i % n for i in range(-pad, n + pad)]
    wrapped = [widths[i] for i in idx]
    x0 = X[0]
    for i in range(pad):
        x0 = x0 - wrapped[pad - 1 - i]
    interfaces = [x0]
    for w in wrapped:
        interfaces.append(interfaces[-1] + w)
    return CellAverageField(Mesh(interfaces), [field.averages[i] for i in idx])


def periodic_extension_points(field, pad):
    """Extend a point-value field by wrapping pad nodes onto each side.

    The node pattern repeats with index period n-1 (the last node plays the
    role of the first, one period later), so padded values wrap with that
    period while the original samples are kept verbatim.

    Raises:
        ValueError: pad < 0.
        ShapeError: fewer than two nodes, which leave no period.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0; got {pad}")
    xs = field.nodes
    n = len(xs)
    if n < 2:
        raise ShapeError(
            f"a periodic extension needs at least 2 nodes; have {n}")
    gaps = [xs[i + 1] - xs[i] for i in range(n - 1)]
    gap_idx = [i % (n - 1) for i in range(-pad, n - 1 + pad)]
    wrapped = [gaps[i] for i in gap_idx]
    x0 = xs[0]
    for i in range(pad):
        x0 = x0 - wrapped[pad - 1 - i]
    nodes = [x0]
    for g in wrapped:
        nodes.append(nodes[-1] + g)
    values = [
        field.values[i] if 0 <= i < n else field.values[i % (n - 1)]
        for i in range(-pad, n + pad)
    ]
    return PointValueField(nodes, values)
