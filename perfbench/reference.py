"""Exact ENO reference used by every workload's checks.

It works in `fractions.Fraction` only and calls no enokit function. Stencils
are grown as explicit point windows [lo, hi], one point per stage, toward
the side whose divided difference is strictly smaller in magnitude (ties
extend right). Traces are evaluated in Lagrange form: the derivative of the
primitive's interpolant for reconstruction from cell averages, the value of
the interpolant for interpolation of point values. The package instead
selects through offset signatures and evaluates Newton forms, so agreement
is meaningful.
"""

from fractions import Fraction


def exact(values):
    """Fractions of the given numbers or strings; floats convert to their
    binary value, decimal strings to their printed value."""
    return [Fraction(v) for v in values]


def primitive(xs, averages):
    """Running integral of cellwise-constant averages at the interfaces."""
    out = [Fraction(0)]
    for i, a in enumerate(averages):
        out.append(out[-1] + (xs[i + 1] - xs[i]) * a)
    return out


class Differences:
    """Divided differences over every consecutive window up to `depth`.

    `over(lo, hi)` is the divided difference of the values on points
    lo..hi, whose order is hi - lo.
    """

    def __init__(self, xs, values, depth):
        self.xs = xs
        self.values = values
        rows = [list(values)]
        for order in range(1, min(depth, len(xs) - 1) + 1):
            prev = rows[-1]
            rows.append([(prev[k + 1] - prev[k]) / (xs[k + order] - xs[k])
                         for k in range(len(prev) - 1)])
        self.rows = rows

    def over(self, lo, hi):
        return self.rows[hi - lo][lo]


def grow(table, lo, hi, npoints):
    """Grow window [lo, hi] to `npoints` points, one point per stage.

    Returns (lo_after_each_stage, ties): the window's left end after the
    starting stage and after every growth stage, and the number of stages
    whose two candidates had equal magnitude.
    """
    starts = [lo]
    ties = 0
    while hi - lo + 1 < npoints:
        left = abs(table.over(lo - 1, hi))
        right = abs(table.over(lo, hi + 1))
        if left == right:
            ties += 1
        if left < right:
            lo -= 1
        else:
            hi += 1
        starts.append(lo)
    return starts, ties


class Reconstruction:
    """Exact ENO reconstruction of cell averages on a mesh."""

    def __init__(self, interfaces, averages, pmax):
        self.xs = exact(interfaces)
        self.data = exact(averages)
        self.values = primitive(self.xs, self.data)
        self.table = Differences(self.xs, self.values, pmax + 1)

    def breakpoints(self, p):
        """Interface indices with full windows on both sides."""
        return range(p, len(self.data) - p + 1)

    def owners(self, p):
        """Cells whose stencils the breakpoints use."""
        return range(p - 1, len(self.data) - p + 1)

    def select(self, cell, p):
        """(offsets, ties): stagewise offsets of the cell's stencil."""
        starts, ties = grow(self.table, cell, cell + 1, p + 1)
        return tuple(lo - cell for lo in starts), ties

    def trace(self, cell, offsets, point):
        """Derivative at interface `point` of the primitive's interpolant on
        the stencil given by `offsets`."""
        lo = cell + offsets[-1]
        hi = lo + len(offsets)
        return lagrange_derivative_at_node(
            self.xs[lo:hi + 1], self.values[lo:hi + 1], point - lo)

    def sides(self, index):
        """(left cell, right cell, data jump) at one breakpoint."""
        return index - 1, index, self.data[index] - self.data[index - 1]

    def traces(self, index, left_offsets, right_offsets):
        return (self.trace(index - 1, left_offsets, index),
                self.trace(index, right_offsets, index))


class Interpolation:
    """Exact ENO interpolation of point values."""

    def __init__(self, nodes, values, pmax):
        self.xs = exact(nodes)
        self.data = exact(values)
        self.values = self.data
        self.table = Differences(self.xs, self.values, pmax)

    def breakpoints(self, p):
        """Left node indices of the midpoints with full windows."""
        return range(p - 1, len(self.data) - p)

    def owners(self, p):
        return range(p - 1, len(self.data) - p + 1)

    def select(self, node, p):
        starts, ties = grow(self.table, node, node, p)
        return tuple(lo - node for lo in starts), ties

    def trace(self, node, offsets, midpoint):
        lo = node + offsets[-1]
        hi = lo + len(offsets) - 1
        x = (self.xs[midpoint] + self.xs[midpoint + 1]) / 2
        return lagrange_value(self.xs[lo:hi + 1], self.values[lo:hi + 1], x)

    def sides(self, index):
        return index, index + 1, self.data[index + 1] - self.data[index]

    def traces(self, index, left_offsets, right_offsets):
        return (self.trace(index, left_offsets, index),
                self.trace(index + 1, right_offsets, index))


def lagrange_value(xs, vs, x):
    """Value at x of the interpolant of (xs, vs), Lagrange basis form."""
    total = Fraction(0)
    for k in range(len(xs)):
        term = vs[k]
        for j in range(len(xs)):
            if j != k:
                term = term * (x - xs[j]) / (xs[k] - xs[j])
        total += term
    return total


def lagrange_derivative_at_node(xs, vs, i):
    """Derivative at node xs[i] of the interpolant of (xs, vs).

    The Lagrange basis gives l_i'(x_i) = sum_{j != i} 1 / (x_i - x_j) and,
    for k != i, l_k'(x_i) = prod_{j != i, k} (x_i - x_j) / prod_{j != k}
    (x_k - x_j).
    """
    n = len(xs)
    xi = xs[i]
    total = vs[i] * sum(1 / (xi - xs[j]) for j in range(n) if j != i)
    for k in range(n):
        if k == i:
            continue
        num = Fraction(1)
        den = Fraction(1)
        for j in range(n):
            if j != k:
                den *= xs[k] - xs[j]
                if j != i:
                    num *= xi - xs[j]
        total += vs[k] * num / den
    return total


def verdict(left, right, data_jump):
    """Exact sign verdict, with the package's verdict names."""
    jump = right - left
    if jump == 0:
        return "Continuous"
    if data_jump == 0 or (jump > 0) != (data_jump > 0):
        return "VIOLATION"
    return "SameSign"


def ratio(left, right, data_jump):
    """(right - left) / data_jump, or None for a zero data jump."""
    if data_jump == 0:
        return None
    return (right - left) / data_jump


# The paper's jump bounds on a uniform mesh for p = 1..6.
PAPER_BOUNDS = {
    "reconstruction": ("1", "2", "10/3", "16/3", "128/15", "208/15"),
    "interpolation": ("1", "2", "7/2", "6", "83/8", "73/4"),
}
