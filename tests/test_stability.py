"""Verdicts, telescoped jump oracles, and bound constants."""

import ast
import hashlib
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enokit import (
    CellAverageField,
    InterfaceTrace,
    InvalidMesh,
    Mesh,
    NonFiniteValue,
    PointValueField,
    StencilOutOfRange,
    bound_constants_recursive,
    bound_Cp,
    bound_cp,
    interface_traces,
    midpoint_traces,
    position_bounds,
    primitive_from_averages,
    relative_jump,
    sign_report,
    telescoped_jump_interpolation,
    telescoped_jump_reconstruction,
    uniform_bound_Cp,
    uniform_bound_cp,
    uniform_mesh,
)
import enokit.stability
from enokit.harness import WIDTH_DENOMINATOR, FuzzConfig, _trial_inputs
from enokit.numerics import EXACT
from enokit.stability import (
    TraceBatch,
    telescoped_terms_reconstruction,
    trace_columns,
)

from conftest import _lagrange_value, random_fraction_mesh, random_int_values

T1 = [1, 2, Fraction(10, 3), Fraction(16, 3), Fraction(128, 15),
      Fraction(208, 15)]
T2 = [1, 2, Fraction(7, 2), 6, Fraction(83, 8), Fraction(73, 4)]


def _trace(left, right, d):
    return InterfaceTrace(0, 0, left, right, d, None, None)


def test_relative_jump():
    assert relative_jump(_trace(1, 3, 4)) == Fraction(1, 2)
    assert relative_jump(_trace(Fraction(1), Fraction(2), Fraction(3))) \
        == Fraction(1, 3)
    assert relative_jump(_trace(1, 2, 0)) is None
    assert not isinstance(relative_jump(_trace(1, 3, 4)), float)


def test_exact_verdicts():
    report = sign_report([
        _trace(Fraction(1), Fraction(1), Fraction(0)),
        _trace(Fraction(1), Fraction(2), Fraction(0)),
        _trace(Fraction(1), Fraction(2), Fraction(-1)),
        _trace(Fraction(1), Fraction(2), Fraction(4)),
        _trace(Fraction(2), Fraction(2), Fraction(5)),
    ])
    assert report.verdicts == (
        "Continuous", "VIOLATION", "VIOLATION", "SameSign", "Continuous"
    )
    assert report.violations == 2
    assert report.max_ratio == Fraction(1, 4)
    assert report.counts == {"SameSign": 1, "Continuous": 2, "VIOLATION": 2}


def test_mixed_trace_list_is_judged_in_float():
    """A list mixing exact and float traces is judged in float, as a field
    mixing exact and float scalars is: the wrong-signed 1e-15 jump that is
    a VIOLATION in an all-exact list is round-off there, and every ratio
    is the float one."""
    exact = _trace(Fraction(0), Fraction(-1, 10 ** 15), Fraction(1))
    approx = _trace(0.0, -1e-15, 1.0)
    mixed = [exact, approx, exact]
    assert sign_report([exact]).verdicts == ("VIOLATION",)
    batch = trace_columns(mixed)
    assert batch.approximate is True
    assert batch.right == [-1e-15] * 3
    report = sign_report(mixed)
    assert report.verdicts == ("Continuous",) * 3
    assert report == sign_report([approx] * 3)
    assert report.max_ratio == -1e-15
    assert trace_columns([exact]).approximate is False
    for scalars in ((0.0, 1, 1), (0, 1.0, 1), (0, 1, 1.0)):
        assert trace_columns([exact, _trace(*scalars)]).approximate is True


def test_float_verdicts_tolerate_roundoff():
    tiny = 1e-15
    report = sign_report([
        _trace(1.0, 1.0 + tiny, 0.0),
        _trace(1.0, 1.0 + tiny, -1.0),
        _trace(1.0, 2.0, -1.0),
        _trace(1.0, 2.0, 4.0),
        _trace(1e5, 1e5 + 1e-9, 0.0),
    ])
    assert report.verdicts == (
        "Continuous", "Continuous", "VIOLATION", "SameSign", "Continuous"
    )
    assert report.violations == 1


def test_float_verdict_scales_with_the_data():
    """A jump that is full-size at the data's own scale is a violation."""
    report = sign_report([_trace(0.0, 1e-30, 0.0)])
    assert report.verdicts == ("VIOLATION",)


def test_float_verdict_zero_data_jump_with_real_jump():
    report = sign_report([_trace(0.0, 1.0, 0.0)])
    assert report.verdicts == ("VIOLATION",)
    assert report.ratios == (None,)


def _bits(ratio):
    return None if ratio is None else ratio.hex()


def _report_bits(report):
    """A report with every float ratio as its float.hex."""
    return (report.verdicts, tuple(map(_bits, report.ratios)),
            report.violations, _bits(report.max_ratio))


def test_float_batch_report_equals_the_trace_list_report():
    """A float TraceBatch, judged column by column, reports exactly what
    the list of its traces, judged one at a time, does: zero data jumps,
    zero jumps and jumps inside FLOAT_SIGN_TOL included."""
    rows = [
        ((1.0, 1.0, 0.0), "Continuous", None),
        ((1.0, 1.0, -0.0), "Continuous", None),
        ((0.0, 1.0, 0.0), "VIOLATION", None),
        ((0.0, 1e-30, -0.0), "VIOLATION", None),
        ((1e5, 1e5 + 1e-9, 0.0), "Continuous", None),
        ((2.5, 2.5, 3.0), "Continuous", 0.0),
        ((2.5, 2.5, -3.0), "Continuous", -0.0),
        ((1.0, 1.0 + 1e-15, -1.0), "Continuous", -(1e-15 + 1.0 - 1.0)),
        ((1.0, 1.0 - 1e-15, 2.0), "Continuous", (1.0 - 1e-15 - 1.0) / 2.0),
        ((1.0, 2.0, -1.0), "VIOLATION", -1.0),
        ((1.0, 2.0, 4.0), "SameSign", 0.25),
        ((-3.0, 5.0, 7.0), "SameSign", 8.0 / 7.0),
    ]
    left, right, d = zip(*(row for row, _, _ in rows))
    n = len(rows)
    batch = TraceBatch(range(n), range(n), left, right, d, [None] * n,
                       [None] * n, True)
    report = sign_report(batch)
    assert report.verdicts == tuple(verdict for _, verdict, _ in rows)
    assert _report_bits(report)[1] == tuple(_bits(r) for _, _, r in rows)
    assert report.max_ratio == 8.0 / 7.0
    assert _report_bits(report) == _report_bits(sign_report(list(batch)))
    rng = random.Random(13)
    xs = [0.0]
    for _ in range(40):
        xs.append(xs[-1] + rng.choice((0.1, 0.3, 1 / 3, 0.7)))
    for data in ([float(rng.randint(-3, 3)) for _ in range(41)],
                 [0.0 if i % 2 else 1.0 - 1e-9 for i in range(41)],
                 [1e8 if i % 5 == 0 else 1.0 for i in range(41)]):
        for p in range(1, 6):
            for batch in (interface_traces(CellAverageField(Mesh(xs),
                                                            data[:40]), p),
                          midpoint_traces(PointValueField(xs, data), p)):
                assert batch.approximate is True
                assert _report_bits(sign_report(batch)) \
                    == _report_bits(sign_report(list(batch)))


def test_empty_report():
    report = sign_report([])
    assert report.violations == 0
    assert report.max_ratio is None
    assert report.counts == {"SameSign": 0, "Continuous": 0, "VIOLATION": 0}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_telescoped_equals_direct_reconstruction(seed, p):
    rng = random.Random(seed)
    n = 2 * p + 4
    xs = random_fraction_mesh(rng, n + 1)
    field = CellAverageField(Mesh(xs), random_int_values(rng, n))
    prim = primitive_from_averages(field)
    for t in interface_traces(field, p):
        tele = telescoped_jump_reconstruction(
            prim, t.left_signature, t.right_signature, t.index, p
        )
        assert tele == t.jump


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_telescoped_equals_direct_interpolation(seed, p):
    rng = random.Random(seed)
    n = 2 * p + 5
    xs = random_fraction_mesh(rng, n)
    field = PointValueField(xs, random_int_values(rng, n))
    for t in midpoint_traces(field, p):
        tele = telescoped_jump_interpolation(
            field, t.left_signature, t.right_signature, t.index, p
        )
        assert tele == t.jump


def test_telescoped_identical_windows_sum_empty(step_cells):
    """Coinciding final windows leave nothing to telescope."""
    prim = primitive_from_averages(step_cells)
    traces = interface_traces(step_cells, 2)
    shared = traces[1]
    left_start = (shared.index - 1) + shared.left_signature.offsets[-1]
    right_start = shared.index + shared.right_signature.offsets[-1]
    assert left_start == right_start
    terms = telescoped_terms_reconstruction(
        prim, shared.left_signature, shared.right_signature, shared.index, 2
    )
    assert terms == []


def test_telescoped_equal_signatures_shift_by_one_window(step_cells):
    """Equal signatures at adjacent cells telescope through one step."""
    prim = primitive_from_averages(step_cells)
    flat = interface_traces(step_cells, 2)[0]
    assert flat.left_signature == flat.right_signature
    terms = telescoped_terms_reconstruction(
        prim, flat.left_signature, flat.right_signature, flat.index, 2
    )
    assert len(terms) == 1
    assert terms[0] == 0


def _all_offset_tuples(p):
    sigs = [(0,)]
    for _ in range(p - 1):
        sigs = [s + (s[-1] + step,) for s in sigs for step in (0, -1)]
    return sigs


@pytest.mark.parametrize("p", [2, 3])
def test_telescoped_identity_for_every_signature_pair(p):
    """Identity holds for crafted pairs too, including reversed windows."""
    from enokit import newton_interpolant, StencilSignature

    rng = random.Random(13)
    n = 2 * p + 4
    xs = random_fraction_mesh(rng, n + 1)
    field = CellAverageField(Mesh(xs), random_int_values(rng, n))
    prim = primitive_from_averages(field)
    iota = n // 2
    x = prim.nodes[iota]
    for offs_left in _all_offset_tuples(p):
        for offs_right in _all_offset_tuples(p):
            sig_left = StencilSignature(offs_left)
            sig_right = StencilSignature(offs_right)
            left = newton_interpolant(prim, sig_left, iota - 1) \
                .derivative_value(x)
            right = newton_interpolant(prim, sig_right, iota) \
                .derivative_value(x)
            tele = telescoped_jump_reconstruction(
                prim, sig_left, sig_right, iota, p
            )
            assert tele == right - left


@pytest.mark.parametrize("p", [2, 3])
def test_telescoped_interpolation_identity_for_every_pair(p):
    from enokit import PointSignature
    from enokit.numerics import halfway

    def value_at(node, offsets, x):
        # The interpolant over the final stencil's nodes, evaluated
        # without divided differences.
        first = node + offsets[-1]
        return _lagrange_value(xs[first:first + p],
                               field.values[first:first + p], x)

    rng = random.Random(14)
    n = 2 * p + 5
    xs = random_fraction_mesh(rng, n)
    field = PointValueField(xs, random_int_values(rng, n))
    nu = n // 2
    xm = halfway(xs[nu], xs[nu + 1])
    for offs_left in _all_offset_tuples(p):
        for offs_right in _all_offset_tuples(p):
            left = value_at(nu, offs_left, xm)
            right = value_at(nu + 1, offs_right, xm)
            tele = telescoped_jump_interpolation(
                field, PointSignature(offs_left), PointSignature(offs_right),
                nu, p
            )
            assert tele == right - left


def test_telescoped_window_check():
    field = CellAverageField(uniform_mesh(4), [0, 1, 0, 1])
    prim = primitive_from_averages(field)
    with pytest.raises(StencilOutOfRange):
        telescoped_terms_reconstruction(prim, (0, -1), (0, -1), 1, 2)


def test_the_oracle_shares_no_code_with_the_trace_path():
    """stability, which holds the telescoped oracle, imports no eno_*
    module, so the oracle stays an independent judge of the traces."""
    with open(enokit.stability.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any(
        "eno_" in name for name in imported), sorted(imported)


def test_a_shallow_oracle_table_is_a_value_error():
    """The oracles read level p+1 (reconstruction) or p (interpolation)
    of their table; one level less is a ValueError naming that depth."""
    from enokit.numerics import build_table

    cells = CellAverageField(uniform_mesh(12), [(-1) ** i for i in range(12)])
    xs, avgs = cells.mesh.interfaces, cells.averages
    left, right = (0, -1, -2), (0, 0, 0)
    with pytest.raises(ValueError, match="order 3 needs .* depth 4"):
        telescoped_jump_reconstruction(
            None, left, right, 6, 3, table=build_table(xs, avgs, 3, order=1))
    jump = telescoped_jump_reconstruction(
        None, left, right, 6, 3, table=build_table(xs, avgs, 4, order=1))
    assert jump == telescoped_jump_reconstruction(
        primitive_from_averages(cells), left, right, 6, 3)

    points = PointValueField(range(12), [(-1) ** i for i in range(12)])
    nodes, values = points.nodes, points.values
    with pytest.raises(ValueError, match="order 3 needs .* depth 3"):
        telescoped_jump_interpolation(
            None, left, right, 5, 3, table=build_table(nodes, values, 2))
    jump = telescoped_jump_interpolation(
        None, left, right, 5, 3, table=build_table(nodes, values, 3))
    assert jump == telescoped_jump_interpolation(points, left, right, 5, 3)


def _oracle_meshes(rng, n):
    """A mesh of thirds, sevenths and tenths (no common grid) and one of
    sixteenths (on a grid), n cells each."""
    meshes = []
    for dens in ((3, 7, 10), (16,)):
        xs = [Fraction(0)]
        for _ in range(n):
            xs.append(xs[-1] + Fraction(rng.randint(1, 12), rng.choice(dens)))
        meshes.append(xs)
    return meshes


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_columnar_oracle_equals_the_per_breakpoint_oracle(kind, scalar):
    """telescoped_jumps gives, in one pass per order, what telescoped_jump_*
    give one breakpoint at a time on the same table, and what a sum of
    telescoped_terms_* started at 0 gives: exactly in rationals, bit for
    bit in floats (repr keeps the type and the sign of a zero). Hand-made
    plain-tuple signatures reach the reversed and the empty sum; on zero
    data a reversed sum of -0.0 terms is +0.0."""
    from dataclasses import replace
    from functools import reduce
    from operator import add

    from enokit.numerics import CELL, NODE, build_table
    from enokit.stability import (
        telescoped_jumps,
        telescoped_terms_interpolation,
    )

    rng = random.Random(23)
    n = 30
    if kind == "reconstruction":
        shift, count, traces_of = CELL, n, interface_traces
        jump_of = telescoped_jump_reconstruction
        terms_of = telescoped_terms_reconstruction
    else:
        shift, count, traces_of = NODE, n + 1, midpoint_traces
        jump_of = telescoped_jump_interpolation
        terms_of = telescoped_terms_interpolation
    seen = set()
    for xs in _oracle_meshes(rng, n):
        for data in (random_int_values(rng, count), [0] * count):
            xs_s, data_s = [scalar(x) for x in xs], [scalar(v) for v in data]
            if kind == "reconstruction":
                field = CellAverageField(Mesh(xs_s), data_s)
            else:
                field = PointValueField(xs_s, data_s)
            table = build_table(xs_s, data_s, 6 + shift, shift, grid=True)
            for p in range(1, 7):
                batch = traces_of(field, p, table=table)
                tuples = _all_offset_tuples(p)
                crafted = replace(
                    batch,
                    left_signatures=[rng.choice(tuples) for _ in batch.index],
                    right_signatures=[rng.choice(tuples) for _ in batch.index])
                for traces in (batch, crafted):
                    got = telescoped_jumps(table, traces, p, shift)
                    columns = list(zip(traces.left_signatures,
                                       traces.right_signatures, traces.index))
                    want = [jump_of(None, left, right, index, p, table=table)
                            for left, right, index in columns]
                    terms = [terms_of(None, left, right, index, p, table=table)
                             for left, right, index in columns]
                    assert list(map(repr, got)) == list(map(repr, want))
                    assert list(map(repr, got)) == [
                        repr(reduce(add, t, 0)) for t in terms]
                    if traces is batch and scalar is Fraction:
                        assert got == batch.jumps
                    for (left, right, _), t in zip(columns, terms):
                        offset = _offsets_of(left)[-1] - _offsets_of(right)[-1]
                        if offset > 1:
                            seen.add("reversed")
                            if t and all(math.copysign(1.0, x) < 0 for x in t):
                                seen.add("-0.0 terms")
                        elif offset == 1:
                            seen.add("empty")
                        if type(left) is tuple:
                            seen.add("tuple")
                    if not any(data) and scalar is float:
                        assert all(math.copysign(1.0, j) == 1.0 for j in got)
    want_seen = {"reversed", "empty", "tuple"}
    if scalar is float:
        want_seen.add("-0.0 terms")
    assert seen >= want_seen


def _offsets_of(signature):
    return tuple(getattr(signature, "offsets", signature))


@pytest.mark.parametrize("shift", [0, 1])
def test_breakpoint_products_equal_the_window_products(shift):
    """The O(p) products at a breakpoint equal _window_products, window by
    window, at every position of random int meshes, p = 1..8; node
    meshes are even ints, so their midpoints are ints."""
    from enokit.stability import (
        _breakpoint,
        _breakpoint_products,
        _window_products,
    )

    rng = random.Random(31 + shift)
    checked = 0
    for _ in range(4):
        X = [0]
        for _ in range(24):
            X.append(X[-1] + (2 - shift) * rng.randint(1, 40))
        for p in range(1, 9):
            for pos in range(p - 1 + shift, len(X) - p):
                left = pos - shift
                x, skip = _breakpoint(X, left, shift)
                assert _breakpoint_products(X, left, p, shift) == \
                    _window_products(X, x, skip, p + shift,
                                     range(left - p + 1, left + 1))
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_window_pass_equals_the_oracle_and_position_bounds(kind):
    """On tables over grid_integers, on grid and off-grid meshes, the
    window pass's agreements are telescoped_jumps(...) == jumps, for the
    traces' signatures and for crafted ones: plain tuples of the order,
    which reach the reversed (lo > hi + 1) and the empty sum. Its bound
    pairs, made rationals, are position_bounds' at every breakpoint, with
    the oracle and without it, on the grid_integers that the table and
    position_bounds share. Signatures of the next order, whose windows
    the bound does not read, raise ValueError."""
    from dataclasses import replace

    from enokit.numerics import CELL, NODE, build_table, grid_integers, \
        quotient
    from enokit.stability import (
        _stage_rows,
        _window_pass,
        telescoped_jumps,
    )

    rng = random.Random(41)
    n = 30
    if kind == "reconstruction":
        shift, count, traces_of = CELL, n, interface_traces
    else:
        shift, count, traces_of = NODE, n + 1, midpoint_traces
    seen = set()
    off_grid, on_grid = _oracle_meshes(rng, n)
    for xs in (on_grid,
               [Fraction(rng.randint(1, 9), 10) + k for k in range(n + 1)],
               off_grid):
        data = random_int_values(rng, count)
        field = (CellAverageField(Mesh(xs), data) if shift
                 else PointValueField(xs, data))
        table = build_table(xs, data, 7 + shift, shift, grid=True)
        X = table.points
        assert {type(x) for x in X} == {int}
        rows = _stage_rows(X, 6, shift)
        scaled = grid_integers(xs)
        assert scaled == X
        scaled_rows = _stage_rows(scaled, 6, shift)
        on_coords = position_bounds(xs, range(1, 7), kind)
        for p in range(1, 7):
            batch = traces_of(field, p, table=table)
            tuples = _all_offset_tuples(p)
            signatures = [(rng.choice(tuples), rng.choice(tuples))
                          for _ in batch.index]
            crafted = replace(batch,
                              left_signatures=[s[0] for s in signatures],
                              right_signatures=[s[1] for s in signatures])
            telescoped = telescoped_jumps(table, crafted, p, shift)
            # The crafted signatures with jumps equal to their telescoped
            # sums, so that every agreement is True.
            matched = replace(crafted, right=list(map(
                operator.add, crafted.left, telescoped)))
            for traces in (batch, crafted, matched):
                nums, dens, agrees = _window_pass(
                    X, rows, p, shift, traces.index, table.levels[p + shift],
                    traces)
                want = [tele == jump for tele, jump in zip(
                    telescoped_jumps(table, traces, p, shift), traces.jumps)]
                assert agrees == want
                assert all(want) or traces is crafted
                seen.update(want)
                assert list(map(quotient, nums, dens)) == \
                    [on_coords[p][i] for i in traces.index]
            for left, right in signatures:
                offset = left[-1] - right[-1]
                seen.add("reversed" if offset > 1 else
                         "empty" if offset == 1 else "summed")
            nums, dens, agrees = _window_pass(scaled, scaled_rows, p, shift,
                                              batch.index)
            assert agrees is None
            assert list(map(quotient, nums, dens)) == \
                [on_coords[p][i] for i in batch.index]
            wider = tuple(range(0, -p - 1, -1))
            further = replace(batch, left_signatures=[wider] * len(batch))
            with pytest.raises(ValueError, match="outside"):
                _window_pass(X, rows, p, shift, further.index,
                             table.levels[p + shift], further)
    assert seen == {True, False, "reversed", "empty", "summed"}


@pytest.mark.parametrize("shift", [0, 1])
def test_float_bound_integers_are_the_rational_paths(shift):
    """Float points, read by as_integer_ratio, scale to the grid_integers
    that their exact values give on the rational path: negative,
    subnormal and huge floats among them. Points that are not all floats
    take the rational path and give the same ints. Float coordinates get
    the position_bounds of their exact values."""
    from enokit.numerics import grid_integers

    rng = random.Random(23)
    floats = sorted({-1e300, -2.5, -5e-324, 0.0, 5e-324, 1e-310, 0.1, 1 / 3,
                     7.0, 1e300, *(rng.uniform(-1e3, 1e3) for _ in range(40))})
    exact = [EXACT.convert(x) for x in floats]
    want = grid_integers(exact)
    assert grid_integers(floats) == want
    assert {type(n) for n in want} == {int}
    assert grid_integers(floats[:3]) == grid_integers(exact[:3])
    assert grid_integers([-2, 0.5, 3]) == [0, 10, 20]
    assert grid_integers([]) == []
    assert position_bounds([], (1,)) == {1: {}}
    kind = "reconstruction" if shift else "interpolation"
    middle = [0.1]
    for _ in range(11):
        middle.append(middle[-1] + rng.uniform(0.5, 2))
    assert position_bounds(middle, (1, 2, 3), kind) == position_bounds(
        [EXACT.convert(x) for x in middle], (1, 2, 3), kind)


@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_position_bounds_build_no_stage_an_order_cannot_use(kind,
                                                            monkeypatch):
    """An order that fits nowhere builds no stage row above the largest
    order that fits, and max_bounds names the first such order before it
    reads a long range of orders any further."""
    built = []
    real = enokit.stability._stage_rows

    def spying(X, pmax, shift):
        built.append(real(X, pmax, shift))
        return built[-1]

    monkeypatch.setattr(enokit.stability, "_stage_rows", spying)
    xs = [0, 1, 2, 3, 4, 5]
    largest = (len(xs) - (kind == "reconstruction")) // 2
    assert position_bounds(xs, (100_000,), kind) == {100_000: {}}
    bounds = position_bounds(xs, (largest, 100_000), kind)
    assert bounds[largest] and bounds[100_000] == {}
    assert [len(rows) - 1 for rows in built] == [largest, largest]
    with pytest.raises(StencilOutOfRange,
                       match=f"no order-100000 {kind} window fits on 6 "
                             f"coordinates"):
        enokit.stability.max_bounds(xs, (largest, 100_000, largest + 1),
                                    kind)
    with pytest.raises(StencilOutOfRange,
                       match=f"no order-{largest + 1} {kind} window"):
        enokit.stability.max_bounds(xs, range(1, 10 ** 9), kind)


def test_uniform_closed_forms():
    assert [uniform_bound_Cp(p) for p in range(1, 7)] == T1
    assert [uniform_bound_cp(p) for p in range(1, 7)] == T2
    assert float(uniform_bound_cp(5)) == 10.375
    assert float(uniform_bound_cp(6)) == 18.25
    with pytest.raises(ValueError):
        uniform_bound_Cp(0)
    with pytest.raises(ValueError):
        uniform_bound_cp(0)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_mesh_specific_matches_uniform(p):
    mesh = uniform_mesh(16)
    assert bound_Cp(mesh, p) == uniform_bound_Cp(p)
    assert bound_cp(mesh.interfaces, p) == uniform_bound_cp(p)


def test_bounds_scale_invariance():
    """Bounds are ratios of widths: scaling the mesh changes nothing."""
    rng = random.Random(6)
    xs = random_fraction_mesh(rng, 12)
    scaled = [Fraction(7, 3) * x for x in xs]
    for p in (1, 2, 3):
        assert bound_Cp(Mesh(xs), p) == bound_Cp(Mesh(scaled), p)
        assert bound_cp(xs, p) == bound_cp(scaled, p)


def _table_meshes():
    """Fuzz-corpus meshes, one in integer units, a non-dyadic rational
    mesh and float nodes."""
    meshes = []
    for kind in ("reconstruction", "interpolation"):
        config = FuzzConfig(seed=0, cells=14, kind=kind)
        meshes += [_trial_inputs(config, t)[0] for t in range(3)]
    meshes.append([int(x * WIDTH_DENOMINATOR) for x in meshes[0]])
    rng = random.Random(21)
    xs = [Fraction(0)]
    for _ in range(14):
        xs.append(xs[-1] + Fraction(rng.randint(1, 20), rng.choice((3, 7, 10))))
    meshes.append(xs)
    meshes.append([0.0, 0.1, 0.35, 0.4, 1.0, 1.3, 1.7, 2.2, 2.25, 3.0, 3.1,
                   4.0, 4.5, 5.0, 6.1])
    return meshes


def _coprime_mesh(count):
    """k + a/q with a distinct prime q at every point: no two coordinates
    share a denominator, so their common one is the product of all."""
    rng = random.Random(5)
    primes = [q for q in range(3, 200) if all(q % d for d in range(2, q))]
    return [k + Fraction(rng.randint(1, q - 1), q)
            for k, q in zip(range(count), rng.sample(primes, count))]


@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_position_bounds_equal_the_per_position_reference(kind):
    """One table per mesh gives the reference bound, value and type, also
    on small ints and on coordinates with pairwise coprime denominators."""
    ints = [0, 1, 3, 4, 7, 8, 9, 13, 15, 16, 21, 22, 24, 25, 30]
    for xs in _table_meshes() + [ints, _coprime_mesh(15)]:
        table = position_bounds(xs, range(1, 7), kind)
        assert sorted(table) == list(range(1, 7))
        for p in range(1, 7):
            checked = 0
            for pos in range(len(xs)):
                try:
                    ref = bound_constants_recursive(xs, p, kind,
                                                    position=pos).bound
                except StencilOutOfRange:
                    assert pos not in table[p]
                    continue
                got = table[p][pos]
                assert got == ref
                assert type(got) is type(ref)
                checked += 1
            assert checked == len(table[p]) > 0


@pytest.mark.parametrize("kind, expected", [
    ("reconstruction",
     "f8a2bac16e70f7964cb7a731988c296bee3b046ab4e862bbe6190d0d395aa8c3"),
    ("interpolation",
     "9648134e09893faa5ccdb0038588381d70cc36187b5ea3529894095fd16cd991"),
])
def test_position_bounds_are_pinned(kind, expected):
    """The bounds, value and type, hashed: unlike the per-position
    reference, this check shares no factor code with position_bounds.
    A bound is hashed as its num/den string and whether it is the exact
    backend's rational, so the digest holds for Fraction and gmpy2. The
    digests were recorded before the bound factors became the oracle's
    window product."""
    ints = [0, 1, 3, 4, 7, 8, 9, 13, 15, 16, 21, 22, 24, 25, 30]
    rational = type(EXACT.convert(0))
    digest = hashlib.sha256()
    for xs in _table_meshes() + [ints, _coprime_mesh(15)]:
        for p, at_p in sorted(position_bounds(xs, range(1, 7), kind).items()):
            for pos, bound in sorted(at_p.items()):
                tag = ("rational" if type(bound) is rational
                       else type(bound).__name__)
                digest.update(f"{p} {pos} {tag} {bound}\n".encode())
    assert digest.hexdigest() == expected


def test_position_bounds_edge_cases():
    mesh = uniform_mesh(4)
    assert position_bounds(mesh, ()) == {}
    assert position_bounds(mesh, (1, 3), "interpolation") == {
        1: {0: 1, 1: 1, 2: 1, 3: 1}, 3: {}}
    with pytest.raises(ValueError):
        position_bounds(mesh, (0,))
    with pytest.raises(ValueError):
        position_bounds(mesh, (1,), kind="other")
    with pytest.raises(ValueError):
        bound_Cp(mesh, 0)
    with pytest.raises(StencilOutOfRange):
        bound_cp(mesh, 3)


def test_bound_table_structure():
    table = bound_constants_recursive(uniform_mesh(16), 3)
    assert table.kind == "reconstruction"
    assert table.order == 3
    assert len(table.constants) == 3
    assert table.bound == uniform_bound_Cp(3)
    assert not any(isinstance(c, float) for c in table.constants)
    interp = bound_constants_recursive(uniform_mesh(16), 3,
                                       kind="interpolation")
    assert interp.bound == uniform_bound_cp(3)


def test_bound_table_is_exact_even_for_float_meshes():
    mesh = Mesh([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    table = bound_constants_recursive(mesh, 2)
    assert table.bound == 2
    assert not isinstance(table.bound, float)


def test_bound_position_validation():
    mesh = uniform_mesh(8)
    with pytest.raises(StencilOutOfRange):
        bound_constants_recursive(mesh, 2, position=1)
    with pytest.raises(StencilOutOfRange):
        bound_constants_recursive(mesh, 2, position=7)
    with pytest.raises(StencilOutOfRange):
        bound_constants_recursive(uniform_mesh(2), 4)
    with pytest.raises(ValueError):
        bound_constants_recursive(mesh, 2, kind="other")
    with pytest.raises(ValueError):
        bound_constants_recursive(mesh, 0)


@pytest.mark.parametrize("coords, error", [
    ([0, 2, 1, 3, 4, 5, 6, 7], InvalidMesh),
    ([0, 1, 1, 2, 3, 4, 5, 6], InvalidMesh),
    ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, math.inf], NonFiniteValue),
    ([0.0, math.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], NonFiniteValue),
])
def test_bounds_reject_bad_plain_coordinates(coords, error):
    """Plain coordinate lists are checked as a Mesh checks its interfaces."""
    for kind in ("reconstruction", "interpolation"):
        with pytest.raises(error):
            position_bounds(coords, (2,), kind)
        with pytest.raises(error):
            bound_constants_recursive(coords, 2, kind)
    with pytest.raises(error):
        bound_Cp(coords, 2)
    with pytest.raises(error):
        bound_cp(coords, 2)


def test_stage_one_constants_are_one():
    table = bound_constants_recursive(uniform_mesh(8), 1)
    assert table.constants == (1,)
    assert table.bound == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_measured_ratios_stay_under_mesh_bound(seed, p):
    rng = random.Random(seed)
    n = 2 * p + 6
    xs = random_fraction_mesh(rng, n + 1)
    field = CellAverageField(Mesh(xs), random_int_values(rng, n))
    bound = bound_Cp(field.mesh, p)
    for t in interface_traces(field, p):
        ratio = relative_jump(t)
        if ratio is not None:
            assert ratio <= bound
