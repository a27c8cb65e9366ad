"""Sign-property verdicts, telescoped jump oracles, and jump-bound constants.

The telescoped jump rewrites the one-sided trace difference at an interface
as a short sum of high-order divided differences times geometric factors.
It never evaluates the two polynomials, so it is an independent oracle for
the direct traces: in the exact backend the two must agree to the bit.
This module imports no eno_* module, so the oracle shares no code with the
trace path.

Bound constants are always computed in exact rationals, even when the trace
data is binary64; comparing a measured jump ratio against a bound must not
be polluted by round-off in the bound itself. The tests judge the bounds
against a reference that builds each position's constants by their
recursion, in rationals (bound_constants_recursive in tests/conftest.py).

The oracle and the jump bound read the same window products at a
breakpoint. `_window_pass` builds them once per breakpoint, in O(p) on the
coordinates' grid_integers, and gives the bound there as an int pair and,
with an exact table over those ints, whether the telescoped jump equals
the trace jump, compared by int cross-multiplication; position_bounds and
harness.check_orders both run on it.
"""

import operator
from collections import namedtuple
from functools import cached_property
from math import factorial

from .errors import StencilOutOfRange
from .numerics import (
    CELL,
    EXACT,
    NODE,
    check_depth,
    check_increasing,
    field_table,
    grid_integers,
    halfway,
    is_float_data,
    quotient,
)

FLOAT_SIGN_TOL = 1e-12


# ---- Trace records ----

class InterfaceTrace(namedtuple("InterfaceTrace", (
        "index", "location", "left", "right", "data_jump", "left_signature",
        "right_signature"))):
    """One-sided limits of a piecewise reconstruction at one breakpoint.

    The breakpoint is a mesh interface for reconstruction from averages and
    a node midpoint for interpolation of point values; `index` is the
    interface index in the former case and the left node index in the
    latter. `data_jump` is the difference of the two underlying data values
    whose sign the trace jump may never oppose.
    """

    __slots__ = ()

    @property
    def jump(self):
        return self.right - self.left


class TraceBatch:
    """Traces at consecutive breakpoints, held as columns.

    `index`, `location`, `left`, `right`, `data_jump`, `left_signatures`
    and `right_signatures` hold, breakpoint by breakpoint, the fields of
    the matching InterfaceTrace. The batch is a read-only sequence of
    those traces: len, integer (also negative) indexing and iteration
    build InterfaceTrace objects only for the elements asked for.
    `approximate` is True for binary64 data and False for exact data; it
    picks the verdict rule of sign_report. `jumps`, the column
    right - left, is built once, on first read. The signature columns
    of interface_traces and midpoint_traces are derived together when
    either is first read, so sign_report builds no signature. No
    attribute can be assigned or deleted.
    """

    def __init__(self, index, location, left, right, data_jump,
                 left_signatures, right_signatures, approximate):
        vars(self).update(
            index=index, location=location, left=left, right=right,
            data_jump=data_jump, left_signatures=left_signatures,
            right_signatures=right_signatures, approximate=approximate)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def jumps(self):
        return list(map(operator.sub, self.right, self.left))

    def __len__(self):
        return len(self.index)

    def __getitem__(self, i):
        i = operator.index(i)
        return InterfaceTrace(self.index[i], self.location[i], self.left[i],
                              self.right[i], self.data_jump[i],
                              self.left_signatures[i], self.right_signatures[i])

    def __iter__(self):
        return map(InterfaceTrace, self.index, self.location, self.left,
                   self.right, self.data_jump, self.left_signatures,
                   self.right_signatures)

    def __eq__(self, other):
        if isinstance(other, (TraceBatch, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"TraceBatch({list(self)!r})"


def trace_columns(traces):
    """The traces as a TraceBatch: a batch as it is, any other iterable of
    InterfaceTrace read into columns. As float_entry decides for fields,
    the batch is approximate, its left, right and data_jump columns all
    float, when any trace holds a float there; so a list mixing float and
    exact traces is judged in float."""
    if isinstance(traces, TraceBatch):
        return traces
    traces = list(traces)
    scalars = ([t.left for t in traces], [t.right for t in traces],
               [t.data_jump for t in traces])
    approximate = any(map(is_float_data, scalars))
    if approximate:
        scalars = [list(map(float, column)) for column in scalars]
    return TraceBatch(
        [t.index for t in traces],
        [t.location for t in traces],
        *scalars,
        [t.left_signature for t in traces],
        [t.right_signature for t in traces],
        approximate,
    )


class SignReport(namedtuple("SignReport",
                            "verdicts ratios violations max_ratio")):
    """Per-breakpoint verdicts plus aggregate counters."""

    __slots__ = ()

    @property
    def counts(self):
        return {name: self.verdicts.count(name)
                for name in ("SameSign", "Continuous", "VIOLATION")}


def relative_jump(trace):
    """(right - left) / data_jump, or None when the data jump is zero."""
    if trace.data_jump == 0:
        return None
    return quotient(trace.jump, trace.data_jump)


def _verdict_exact(jump, d):
    if d == 0:
        if jump == 0:
            return "Continuous", None
        return "VIOLATION", None
    ratio = quotient(jump, d)
    if jump == 0:
        return "Continuous", ratio
    if ratio < 0:
        return "VIOLATION", ratio
    return "SameSign", ratio


def _float_verdicts(left, right, data_jump):
    """Verdicts and ratios of float trace columns: Continuous for a jump
    within FLOAT_SIGN_TOL times the local scale, else _verdict_exact's."""
    verdicts = []
    ratios = []
    for a, b, d in zip(left, right, data_jump):
        jump = b - a
        ratio = jump / d if d != 0.0 else None
        ratios.append(ratio)
        if abs(jump) <= FLOAT_SIGN_TOL * max(abs(a), abs(b), abs(d)):
            verdicts.append("Continuous")
        elif ratio is None or ratio < 0.0:
            verdicts.append("VIOLATION")
        else:
            verdicts.append("SameSign")
    return verdicts, ratios


def sign_report(traces):
    """Classify every trace pair and aggregate the verdicts.

    Exact scalars get strict verdicts; float scalars tolerate wrong-signed
    jumps up to FLOAT_SIGN_TOL times the local scale before flagging, so
    round-off is not reported as a violation. `traces` is a TraceBatch or
    any iterable of InterfaceTrace (see trace_columns). An approximate
    batch is judged column-wise, an exact one on its `jumps`.
    """
    batch = trace_columns(traces)
    if batch.approximate:
        verdicts, ratios = map(tuple, _float_verdicts(
            batch.left, batch.right, batch.data_jump))
    else:
        verdicts, ratios = tuple(zip(*map(
            _verdict_exact, batch.jumps, batch.data_jump))) or ((), ())
    max_ratio = max((r for r in ratios if r is not None), default=None)
    return SignReport(verdicts, ratios, verdicts.count("VIOLATION"), max_ratio)


# ---- Telescoped jump oracles ----

def _summed_windows(left_anchor, left_signature, right_signature):
    """(lo, hi, sign): the starts lo..hi of the windows the telescoped jump
    sums over at the breakpoint right of left_anchor, those between the
    starts of the two final stencils, and the sign of the sum: -1, with
    the range turned round, when the right stencil starts left of the left
    one. lo > hi for no window. A signature is a StencilSignature or its
    offsets."""
    lo = left_anchor + getattr(left_signature, "offsets", left_signature)[-1]
    hi = left_anchor + getattr(right_signature, "offsets", right_signature)[-1]
    if lo > hi + 1:
        return hi + 1, lo - 1, -1
    return lo, hi, 1


def _breakpoint(X, left_anchor, shift):
    """The breakpoint between anchors left_anchor and left_anchor+1, and
    the index of the point whose factor it skips: the interface
    X[left_anchor+1] itself for shift = CELL, the midpoint of the two
    nodes, which skips none, for NODE. Int nodes have an int midpoint."""
    if shift == CELL:
        return X[left_anchor + 1], left_anchor + 1
    x0, x1 = X[left_anchor], X[left_anchor + 1]
    return (x0 + x1) // 2 if type(x0) is int else halfway(x0, x1), None


def _window_products(X, x, skip, w, starts):
    """Geometric factor of each width-w window start a at the breakpoint x:
    (X[a+w] - X[a]) * prod_{k=a+1}^{a+w-1, k != skip} (x - X[k]), with the
    products taken left to right."""
    products = []
    for a in starts:
        prod = X[a + w] - X[a]
        for k in range(a + 1, a + w):
            if k != skip:
                prod = prod * (x - X[k])
        products.append(prod)
    return products


def _breakpoint_products(X, left, p, shift):
    """_window_products of the p windows of width p+shift that start at
    left-p+1..left, at the breakpoint between anchors left and left+1, in
    O(p) on int coordinates whose node midpoints are ints.

    The interior factors (x - X[k]) of window a split at the breakpoint:
    those left of it, k = a+1..left, are a suffix product that grows as a
    moves left, and those right of it, k = left+1+shift..a+p+shift-1, a
    prefix product that grows as a moves right. A window's product is its
    width times the two.
    """
    x, _ = _breakpoint(X, left, shift)
    first, w = left - p + 1, p + shift
    products = [1] * p
    for i in range(p - 2, -1, -1):
        products[i] = products[i + 1] * (x - X[first + i + 1])
    right = 1
    for i in range(p):
        a = first + i
        products[i] *= (X[a + w] - X[a]) * right
        right *= x - X[a + w]
    return products


def _window_pass(X, rows, p, shift, positions, level=None, traces=None):
    """Order-p jump bounds at `positions`, and with `level` the oracle's
    agreements, from one _breakpoint_products call per position.

    X holds int coordinates whose node midpoints are ints and rows is
    _stage_rows(X, pmax, shift) for some pmax >= p. The bound at a
    position is returned as the int pair (num, den) whose ratio
    position_bounds gives there: 2**(p-1) times the sum of the absolute
    window products over their stage rows, put over one denominator,
    then over the position's divisor, with no rational made.

    With `level`, the level-(p+shift) entries of a table over X, and
    `traces`, an exact TraceBatch whose indices are `positions`, the pass
    also says at each breakpoint whether the telescoped jump, the sum of
    num(D_a) * P_a / den(D_a) over the oracle's windows (see
    _telescoped_terms), equals traces.jumps there, cross-multiplied with
    the jump's numerator and denominator. Order-p signatures keep those
    windows among the bound's p; others raise ValueError.

    Returns (nums, dens, agrees), agrees None without `level`.
    """
    row = rows[p]
    power = p - 1
    nums = []
    dens = []
    agrees = None
    if level is None:
        oracle = [None] * len(positions)
    else:
        agrees = []
        level_nums = [entry.numerator for entry in level]
        level_dens = [entry.denominator for entry in level]
        oracle = zip(traces.left_signatures, traces.right_signatures,
                     traces.jumps)
    for pos, signatures in zip(positions, oracle):
        left = pos - shift
        first = left - p + 1
        products = _breakpoint_products(X, left, p, shift)
        num, den = 0, 1
        for f, d in zip(products, row[first + shift:pos + 1]):
            num, den = num * d + abs(f) * den, den * d
        nums.append(num << power)
        dens.append(den * (X[pos + 1] - X[left]))
        if signatures is None:
            continue
        left_signature, right_signature, jump = signatures
        lo, hi, sign = _summed_windows(left, left_signature, right_signature)
        num, den = 0, 1
        if lo <= hi:
            if lo < first or hi > left:
                raise ValueError(
                    f"signatures at position {pos} reach window starts "
                    f"{lo}..{hi}, outside order {p}'s {first}..{left}")
            for n, d, f in zip(level_nums[lo:hi + 1], level_dens[lo:hi + 1],
                               products[lo - first:hi - first + 1]):
                if d == den:
                    num += n * f
                else:
                    num, den = num * d + n * f * den, den * d
        agrees.append(sign * num * jump.denominator == jump.numerator * den)
    return nums, dens, agrees


def _telescoped_terms(source, table, left_signatures, right_signatures,
                      indices, p, shift):
    """Summands of the telescoped jump at each breakpoint `indices` (as in
    a TraceBatch; left anchor index - shift), one list each: the
    level-(p+shift) divided differences of `source` (the primitive for
    shift = CELL, the field for NODE) times their window products. With
    no table they come from field_table(source, p + shift, shift), the
    table the trace batch starts from."""
    w = p + shift
    if table is None:
        table = field_table(source, w, shift)
    check_depth(table, p, w)
    X = table.points
    level = table.levels[w]
    for left_signature, right_signature, index in zip(
            left_signatures, right_signatures, indices):
        left_anchor = index - shift
        lo, hi, sign = _summed_windows(left_anchor, left_signature,
                                       right_signature)
        if lo > hi:
            yield []
            continue
        if lo < 0 or hi + w > len(X) - 1:
            raise StencilOutOfRange(
                f"telescoped sum needs points {lo}..{hi + w}; have 0..{len(X) - 1}"
            )
        x, skip = _breakpoint(X, left_anchor, shift)
        products = _window_products(X, x, skip, w, range(lo, hi + 1))
        terms = list(map(operator.mul, level[lo:hi + 1], products))
        yield terms if sign == 1 else [-term for term in terms]


def _left_to_right_sum(terms):
    # Not sum(): from Python 3.12 on it compensates float rounding, and
    # the float bits are pinned to plain addition from 0, whose bits this
    # gives but for the sign of a zero sum, which adding 0 restores.
    terms = iter(terms)
    total = next(terms, 0)
    for term in terms:
        total = total + term
    return total if total else total + 0


def telescoped_jumps(table, traces, p, shift):
    """Telescoped jump at every breakpoint of a TraceBatch, in one pass
    over the table and the batch's signatures, never its traces: the
    column of telescoped_jump_reconstruction (shift = CELL) or
    telescoped_jump_interpolation (NODE) on that table."""
    return list(map(_left_to_right_sum, _telescoped_terms(
        None, table, traces.left_signatures, traces.right_signatures,
        traces.index, p, shift)))


def telescoped_terms_reconstruction(primitive, left_signature, right_signature,
                                    interface, p, table=None):
    """Summands of the telescoped jump at one interface, left to right.

    Each summand is an order-(p+1) divided difference of the primitive
    times its geometric factor. The sum runs between the leftmost points
    of the two final stencils; identical stencils give no summands. When
    the right stencil starts left of the left one (possible only for
    hand-crafted signatures), the summands flip sign.
    """
    return next(_telescoped_terms(primitive, table, (left_signature,),
                                  (right_signature,), (interface,), p, CELL))


def telescoped_jump_reconstruction(primitive, left_signature, right_signature,
                                   interface, p, table=None):
    """Jump of the two one-sided traces at an interface, telescoped form.

    Equals right trace minus left trace without ever evaluating the two
    polynomials; exactly so in the exact backend.
    """
    return _left_to_right_sum(telescoped_terms_reconstruction(
        primitive, left_signature, right_signature, interface, p, table))


def telescoped_terms_interpolation(field, left_signature, right_signature,
                                   midpoint, p, table=None):
    """Summands of the telescoped jump at one node midpoint, left to right.

    Each summand is an order-p divided difference of the values times its
    geometric factor; `midpoint` is the index of the node to the left of
    the evaluation point. On a table over grid_integers the midpoint is
    an int.
    """
    return next(_telescoped_terms(field, table, (left_signature,),
                                  (right_signature,), (midpoint,), p, NODE))


def telescoped_jump_interpolation(field, left_signature, right_signature,
                                  midpoint, p, table=None):
    """Jump of the two one-sided traces at a node midpoint, telescoped form."""
    return _left_to_right_sum(telescoped_terms_interpolation(
        field, left_signature, right_signature, midpoint, p, table))


# ---- Bound constants ----

def _coordinates(mesh):
    if hasattr(mesh, "interfaces"):
        return mesh.interfaces
    if hasattr(mesh, "nodes"):
        return mesh.nodes
    coords = list(mesh)
    check_increasing(coords, "coordinate")
    return coords


def _kind_shift(kind):
    """CELL for "reconstruction", NODE for "interpolation"."""
    if kind == "reconstruction":
        return CELL
    if kind == "interpolation":
        return NODE
    raise ValueError(f"unknown kind {kind!r}")


def _stage_rows(X, pmax, shift):
    """Stage constants of every window on integer coordinates, up to stage
    `pmax` or the largest order whose window fits X, whichever is lower,
    as integer denominators.

    The stage-1 constants are 1, and the stage-(j+1) constant of the
    window that starts at s is 2 / (X[s+j+1] - X[s-shift]) times the
    larger stage-j constant of the windows that start at s and s+1. It
    depends only on s and j, so one table serves every position and every
    order up to `pmax`. The stage-j constant of start s is
    2**(j-1) / rows[j][s], with rows[1][s] = 1 and
    rows[j+1][s] = (X[s+j+1] - X[s-shift]) * min(rows[j][s], rows[j][s+1])
    for shift = CELL or NODE: that recursion with no rational made. Entries
    whose window leaves the coordinates are None. An order p fits when its 2p + shift
    points do, so stages above (len(X) - shift) // 2 serve no position.
    """
    rows = [None, [1] * len(X)]
    for j in range(1, min(pmax, (len(X) - shift) // 2)):
        prev = rows[j]
        row = [None] * len(X)
        for s in range(shift, len(X) - j - 1):
            row[s] = (X[s + j + 1] - X[s - shift]) * min(prev[s], prev[s + 1])
        rows.append(row)
    return rows


def position_bounds(mesh, orders, kind="reconstruction"):
    """Aggregated jump bound at every admissible position, for each order.

    One stage-constant table, built up to the largest order that fits,
    serves every position and every order. The bounds are invariant under
    shifting and scaling the coordinates, so they are computed on their
    grid_integers, whose node midpoints are integers too, which keep the
    geometric factors and the stage constants' denominators in integers.
    Each bound is the int pair of _window_pass, made one rational.

    Args:
        mesh: Mesh, point-value field, or plain coordinate sequence.
        orders: iterable of orders p >= 1; may be empty.
        kind: "reconstruction" or "interpolation".

    Returns:
        {p: {position: bound}} with exact rational bounds; an order whose
        window fits nowhere maps to an empty dict.
    """
    orders = tuple(orders)
    if any(p < 1 for p in orders):
        raise ValueError("order must be >= 1")
    shift = _kind_shift(kind)
    if not orders:
        return {}
    X = grid_integers(_coordinates(mesh))
    rows = _stage_rows(X, max(orders), shift)
    bounds = {}
    for p in orders:
        positions = range(p - 1 + shift, len(X) - p)
        bounds[p] = {}
        if positions:
            nums, dens, _ = _window_pass(X, rows, p, shift, positions)
            bounds[p] = dict(zip(positions, map(quotient, nums, dens)))
    return bounds


def max_bounds(mesh, orders, kind="reconstruction"):
    """Largest aggregated jump bound of each order over its admissible
    positions, from one position_bounds call: a list of exact rationals in
    the order of `orders`, a sequence.

    Raises:
        StencilOutOfRange: the first order in `orders` whose window fits
            nowhere on the mesh, found before any bound is computed, so
            that a long range of orders (`enokit bounds --order 10**9`) is
            never read past its first such order.
    """
    shift = _kind_shift(kind)
    count = len(_coordinates(mesh))
    for p in orders:
        # position_bounds' positions p - 1 + shift .. count - p - 1
        if 2 * p + shift > count:
            raise StencilOutOfRange(
                f"no order-{p} {kind} window fits on {count} coordinates")
    bounds = position_bounds(mesh, orders, kind)
    return [max(bounds[p].values()) for p in orders]


def bound_Cp(mesh, p):
    """Mesh-specific relative-jump bound for reconstruction from averages.

    Maximum of the aggregated bound over every admissible interface, as an
    exact rational.
    """
    return max_bounds(mesh, (p,), "reconstruction")[0]


def bound_cp(mesh, p):
    """Mesh-specific relative-jump bound for interpolation of point values.

    Maximum of the aggregated bound over every admissible midpoint, as an
    exact rational.
    """
    return max_bounds(mesh, (p,), "interpolation")[0]


def uniform_bound_Cp(p):
    """Closed-form reconstruction bound on a uniform mesh, exact rational."""
    if p < 1:
        raise ValueError("order must be >= 1")
    total = sum(factorial(k) * factorial(p - k - 1) for k in range(p))
    return EXACT.convert(2 ** (p - 1) * total) / EXACT.convert(factorial(p))


def uniform_bound_cp(p):
    """Closed-form interpolation bound on uniform nodes, exact rational."""
    if p < 1:
        raise ValueError("order must be >= 1")
    half = EXACT.convert(1) / EXACT.convert(2)
    total = EXACT.convert(0)
    for r in range(-p + 1, 1):
        prod = EXACT.convert(1)
        for m in range(1, p):
            prod = prod * abs(half - r - m)
        total = total + prod
    return EXACT.convert(2 ** (p - 1)) / EXACT.convert(factorial(p - 1)) * total
