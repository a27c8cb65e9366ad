"""Meshes, cell-average fields, point-value fields, and the primitive bridge.

The primitive of a cell-average field is its cumulative integral sampled at
the mesh interfaces; its first divided differences give back the averages.
Every divided-difference table of cells starts from the averages at level
1 (numerics.build_table), so the trace and check code builds no
primitive. The per-cell API (select_signature, reconstruct_cell,
...) takes one for its nodes and values, and builds its table from the
averages it carries.
"""

from .errors import InvalidMesh, ShapeError
from .numerics import (
    check_finite,
    check_increasing,
    is_float_data,
    promote_integers,
)


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
        check_increasing(interfaces, "interface")
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
        check_finite(averages, "average")
        self.mesh = mesh
        self.averages = averages


class PointValueField:
    """Values sampled at strictly increasing nodes."""

    def __init__(self, nodes, values):
        nodes = tuple(nodes)
        values = tuple(values)
        if len(nodes) != len(values):
            raise ShapeError(f"{len(nodes)} nodes but {len(values)} values")
        check_increasing(nodes, "node")
        check_finite(values, "value")
        self.nodes = nodes
        self.values = values


# ---- Primitive bridge ----

def primitive_from_averages(field, base=0):
    """Cumulative integral of the field, sampled at the mesh interfaces.

    Args:
        field: CellAverageField.
        base: value assigned at the first interface; it shifts every sample
            by a constant and no divided difference of order >= 1 changes.

    Returns:
        PointValueField on the interfaces with values[0] == base and
        values[j+1] == values[j] + width(j) * averages[j], summed left to
        right, all in float when the mesh, the averages or base holds a
        float. Its `averages` are the averages summed, in the same
        scalars: the per-cell API and the oracle build their table from
        them.
    """
    X = field.mesh.interfaces
    avgs = field.averages
    if is_float_data(avgs) or is_float_data(X) or isinstance(base, float):
        X, avgs = tuple(map(float, X)), tuple(map(float, avgs))
        base = float(base)
    values = [base]
    for i in range(len(avgs)):
        values.append(values[-1] + (X[i + 1] - X[i]) * avgs[i])
    primitive = PointValueField(X, values)
    primitive.averages = avgs
    return primitive

