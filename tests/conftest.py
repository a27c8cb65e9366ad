"""Shared fixtures plus independent reference implementations.

The trace reference functions below use only fractions.Fraction, greedy
stencil growth on explicit point sets, and Lagrange-form evaluation. They
share no code or representation with the package (which selects via offset
signatures and evaluates Newton forms), so agreement is meaningful.

The bound reference, bound_constants_recursive, builds the constant
triangle around one position by its recursion, in rationals, where
stability.position_bounds reads one integer stage table for every position
and order. It shares with the package only its coordinate and kind checks
and the oracle's window products.
"""

import random
from collections import namedtuple
from fractions import Fraction

import pytest

from enokit import (
    CellAverageField,
    Mesh,
    PointValueField,
    StencilOutOfRange,
    TraceBatch,
)
from enokit.numerics import EXACT
from enokit.stability import (
    _breakpoint,
    _coordinates,
    _kind_shift,
    _window_products,
)


@pytest.fixture
def step_cells():
    return CellAverageField(Mesh(range(9)), [0, 0, 0, 0, 1, 1, 1, 1])


@pytest.fixture
def step_points():
    return PointValueField(range(8), [0, 0, 0, 0, 1, 1, 1, 1])


def random_fraction_mesh(rng, n_points, start=0):
    """Strictly increasing rationals with spacing in [1/2, 2]."""
    xs = [Fraction(start)]
    for _ in range(n_points - 1):
        xs.append(xs[-1] + Fraction(rng.randint(32768, 131072), 65536))
    return xs


def random_int_values(rng, count, lo=-8, hi=8):
    return [rng.randint(lo, hi) for _ in range(count)]


def with_columns(batch, **columns):
    """A new TraceBatch with the given columns and batch's other ones."""
    names = ("index", "location", "left", "right", "data_jump",
             "left_signatures", "right_signatures", "approximate")
    return TraceBatch(*(columns.get(name, getattr(batch, name))
                        for name in names))


# ---- Reference implementation (Fractions + Lagrange form) ----

def _dd_over(xs, vs):
    """Single divided difference over the whole window, by recursion."""
    work = [Fraction(v) for v in vs]
    for j in range(1, len(xs)):
        work = [
            (work[k + 1] - work[k]) / (xs[k + j] - xs[k])
            for k in range(len(work) - 1)
        ]
    return work[0]


def _grow_window(xs, vs, lo, hi, p_points):
    """Greedy growth toward the smaller extension difference.

    Strictly smaller on the left moves the window left; ties extend right.
    """
    while hi - lo + 1 < p_points:
        left = abs(_dd_over(xs[lo - 1:hi + 1], vs[lo - 1:hi + 1]))
        right = abs(_dd_over(xs[lo:hi + 2], vs[lo:hi + 2]))
        if left < right:
            lo -= 1
        else:
            hi += 1
    return lo, hi


def _lagrange_value(xs, vs, t):
    total = Fraction(0)
    for k in range(len(xs)):
        term = Fraction(vs[k])
        for j in range(len(xs)):
            if j != k:
                term = term * (t - xs[j]) / (xs[k] - xs[j])
        total += term
    return total


def _lagrange_derivative(xs, vs, t):
    total = Fraction(0)
    for k in range(len(xs)):
        denom = Fraction(1)
        for j in range(len(xs)):
            if j != k:
                denom *= xs[k] - xs[j]
        dsum = Fraction(0)
        for m in range(len(xs)):
            if m == k:
                continue
            prod = Fraction(1)
            for j in range(len(xs)):
                if j != k and j != m:
                    prod *= t - xs[j]
            dsum += prod
        total += Fraction(vs[k]) * dsum / denom
    return total


def reference_recon_traces(interfaces, averages, p):
    """(left, right) trace pairs at interior interfaces, reference path."""
    xs = [Fraction(x) for x in interfaces]
    avgs = [Fraction(a) for a in averages]
    prim = [Fraction(0)]
    for i, a in enumerate(avgs):
        prim.append(prim[-1] + (xs[i + 1] - xs[i]) * a)
    n = len(avgs)
    windows = {}
    for cell in range(p - 1, n - p + 1):
        windows[cell] = _grow_window(xs, prim, cell, cell + 1, p + 1)
    traces = []
    for iota in range(p, n - p + 1):
        llo, lhi = windows[iota - 1]
        rlo, rhi = windows[iota]
        left = _lagrange_derivative(xs[llo:lhi + 1], prim[llo:lhi + 1], xs[iota])
        right = _lagrange_derivative(xs[rlo:rhi + 1], prim[rlo:rhi + 1], xs[iota])
        traces.append((iota, left, right))
    return traces


def reference_interp_traces(nodes, values, p):
    """(left, right) pairs at node midpoints, reference path."""
    xs = [Fraction(x) for x in nodes]
    vs = [Fraction(v) for v in values]
    n = len(xs)
    windows = {}
    for node in range(p - 1, n - p + 1):
        windows[node] = _grow_window(xs, vs, node, node, p)
    traces = []
    for nu in range(p - 1, n - p):
        xm = (xs[nu] + xs[nu + 1]) / 2
        llo, lhi = windows[nu]
        rlo, rhi = windows[nu + 1]
        left = _lagrange_value(xs[llo:lhi + 1], vs[llo:lhi + 1], xm)
        right = _lagrange_value(xs[rlo:rhi + 1], vs[rlo:rhi + 1], xm)
        traces.append((nu, left, right))
    return traces


def reference_random_case(seed, n, want_points=False):
    rng = random.Random(seed)
    xs = random_fraction_mesh(rng, n + 1)
    data = random_int_values(rng, n if not want_points else n + 1)
    return xs, data


# ---- Reference bound constants (one position, by recursion) ----

class BoundTable(namedtuple("BoundTable",
                            "kind order position constants bound")):
    """Per-offset constants and the aggregated jump bound at one position.

    `constants` holds the order-`order` constants for the offsets
    -order+1..0, leftmost first; `bound` is the aggregated relative-jump
    bound at `position` (an interface index for reconstruction, the left
    node index of a midpoint for interpolation). All entries are exact
    rationals.
    """

    __slots__ = ()


def _recursive_constants(X, anchor, p, shift):
    """Constant triangle around `anchor`; stage-1 entries are all 1.

    The stage-(j+1) denominator of offset k spans X[anchor+k-shift] to
    X[anchor+k+j+1]: one extra gap to the left for shift = CELL.
    """
    two = EXACT.convert(2)
    C = {(k, 1): EXACT.convert(1) for k in range(-p + 1, p)}
    for j in range(1, p):
        for k in range(-p + 1, p - j):
            den = X[anchor + k + j + 1] - X[anchor + k - shift]
            C[(k, j + 1)] = two / den * max(C[(k, j)], C[(k + 1, j)])
    return C


def _bound_factors(X, position, p, shift):
    """Geometric factors of the order-p jump bound at `position`, and their
    divisor X[position+1] - X[position-shift].

    The factor of offset k = -p+1..0 is the absolute window product of the
    telescoped oracle for the window of width p+shift that starts at
    position - shift + k, at the position's breakpoint. Ints on int
    coordinates whose node midpoints are ints.
    """
    left = position - shift
    x, skip = _breakpoint(X, left, shift)
    products = _window_products(X, x, skip, p + shift,
                                range(left - p + 1, left + 1))
    return list(map(abs, products)), X[position + 1] - X[left]


def bound_constants_recursive(mesh, p, kind="reconstruction", position=None):
    """Recursive jump-bound constants anchored at one mesh position.

    Builds the constant triangle around the one position from scratch, so
    it is the per-position reference for `position_bounds`.

    Args:
        mesh: Mesh, point-value field, or plain coordinate sequence.
        p: order, >= 1.
        kind: "reconstruction" or "interpolation".
        position: interface index (reconstruction) or left node index of
            the midpoint (interpolation); defaults to the middle of the
            admissible range.

    Returns:
        BoundTable; all scalars exact rationals regardless of input type.

    Raises:
        StencilOutOfRange: the position's window leaves the coordinates.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    shift = _kind_shift(kind)
    X = [EXACT.convert(x) for x in _coordinates(mesh)]
    lo, hi = p - 1 + shift, len(X) - 1 - p
    if lo > hi:
        raise StencilOutOfRange(
            f"no order-{p} {kind} window fits on {len(X)} coordinates"
        )
    if position is None:
        position = (lo + hi) // 2
    if not lo <= position <= hi:
        raise StencilOutOfRange(
            f"position {position} outside the admissible range {lo}..{hi}"
        )
    C = _recursive_constants(X, position, p, shift)
    constants = tuple(C[(k, p)] for k in range(-p + 1, 1))
    factors, divisor = _bound_factors(X, position, p, shift)
    total = EXACT.convert(0)
    for c, f in zip(constants, factors):
        total = total + c * f
    return BoundTable(kind, p, position, constants, total / divisor)
