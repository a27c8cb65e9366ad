"""Stencil selection, Newton forms, traces, and conservation."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enokit import (
    CellAverageField,
    InterfaceTrace,
    Mesh,
    StencilOutOfRange,
    StencilSignature,
    cell_mean,
    interface_traces,
    newton_interpolant,
    primitive_from_averages,
    reconstruct_cell,
    select_signature,
    sign_report,
    telescoped_jump_reconstruction,
    uniform_mesh,
)

from conftest import (
    random_fraction_mesh,
    random_int_values,
    reference_recon_traces,
)


def test_signature_validation():
    assert StencilSignature((0, -1, -1)).order == 3
    assert str(StencilSignature((0, 0, -1))) == "0,0,-1"
    with pytest.raises(ValueError):
        StencilSignature(())
    with pytest.raises(ValueError):
        StencilSignature((1,))
    with pytest.raises(ValueError):
        StencilSignature((0, -2))
    with pytest.raises(ValueError):
        StencilSignature((0, -1, 0))


def test_select_signature_step_data(step_cells):
    prim = primitive_from_averages(step_cells)
    assert select_signature(prim, 3, 2).offsets == (0, -1)
    assert select_signature(prim, 4, 2).offsets == (0, 0)


def test_select_signature_avoids_the_kink(step_cells):
    """Stencils never cross the jump while a one-sided window exists."""
    prim = primitive_from_averages(step_cells)
    for cell in (2, 3):
        offsets = select_signature(prim, cell, 3).offsets
        assert cell + offsets[-1] + 3 <= 4 or cell + offsets[-1] >= 4
    sig = select_signature(prim, 3, 3)
    assert 3 + sig.offsets[-1] + 3 <= 4


def test_select_signature_window_checks(step_cells):
    prim = primitive_from_averages(step_cells)
    with pytest.raises(StencilOutOfRange):
        select_signature(prim, 0, 2)
    with pytest.raises(StencilOutOfRange):
        select_signature(prim, 7, 2)
    with pytest.raises(ValueError):
        select_signature(prim, 3, 0)


def test_newton_interpolant_matches_primitive_samples(step_cells):
    prim = primitive_from_averages(step_cells)
    samples = dict(zip(prim.nodes, prim.values))
    for cell in range(2, 6):
        sig = select_signature(prim, cell, 3)
        poly = newton_interpolant(prim, sig, cell)
        assert poly.degree == 3
        for pt in poly.points:
            assert poly.value(pt) == samples[pt]


def test_newton_points_follow_appearance_order():
    rng = random.Random(3)
    xs = random_fraction_mesh(rng, 11)
    field = CellAverageField(Mesh(xs), random_int_values(rng, 10))
    prim = primitive_from_averages(field)
    for cell in range(3, 7):
        sig = select_signature(prim, cell, 3)
        poly = newton_interpolant(prim, sig, cell)
        seen = {xs[cell], xs[cell + 1]}
        assert set(poly.points[:2]) == seen
        for j, k in enumerate(sig.offsets[1:], start=2):
            new_pt = poly.points[j]
            assert new_pt in (xs[cell + k], xs[cell + k + j])
            assert new_pt not in seen
            seen.add(new_pt)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_conservation_is_exact(seed, p):
    rng = random.Random(seed)
    n = 2 * p + 3
    xs = random_fraction_mesh(rng, n + 1)
    avgs = [Fraction(v, rng.randint(1, 7)) for v in random_int_values(rng, n)]
    field = CellAverageField(Mesh(xs), avgs)
    prim = primitive_from_averages(field)
    for cell in range(p - 1, n - p + 1):
        poly = reconstruct_cell(prim, cell, p)
        assert cell_mean(poly, field.mesh) == avgs[cell]


def test_polynomial_averages_reproduce_traces_exactly():
    """Averages of a cubic: order-4 traces equal the cubic at interfaces."""
    coeffs = [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]

    def antiderivative(x):
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    def value(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    rng = random.Random(11)
    xs = random_fraction_mesh(rng, 13)
    avgs = [
        (antiderivative(xs[i + 1]) - antiderivative(xs[i])) / (xs[i + 1] - xs[i])
        for i in range(12)
    ]
    field = CellAverageField(Mesh(xs), avgs)
    for t in interface_traces(field, 4):
        assert t.left == value(t.location)
        assert t.right == value(t.location)
        assert t.jump == 0


def test_interface_traces_layout(step_cells):
    traces = interface_traces(step_cells, 2)
    assert [t.index for t in traces] == [2, 3, 4, 5, 6]
    assert [t.location for t in traces] == [2, 3, 4, 5, 6]
    for t in traces:
        assert t.data_jump == step_cells.averages[t.index] \
            - step_cells.averages[t.index - 1]
    jumpy = traces[2]
    assert jumpy.left_signature.offsets == (0, -1)
    assert jumpy.right_signature.offsets == (0, 0)
    assert (jumpy.left, jumpy.right) == (0, 1)


def test_interface_traces_too_few_cells():
    field = CellAverageField(uniform_mesh(5), [1, 2, 3, 4, 5])
    with pytest.raises(StencilOutOfRange):
        interface_traces(field, 3)
    with pytest.raises(ValueError):
        interface_traces(field, 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 17, 91])
def test_traces_agree_with_reference_implementation(p, seed):
    rng = random.Random(seed)
    n = 2 * p + 4
    xs = random_fraction_mesh(rng, n + 1)
    avgs = random_int_values(rng, n)
    field = CellAverageField(Mesh(xs), avgs)
    ours = interface_traces(field, p)
    theirs = reference_recon_traces(xs, avgs, p)
    assert len(ours) == len(theirs)
    for t, (iota, left, right) in zip(ours, theirs):
        assert t.index == iota
        assert t.left == left
        assert t.right == right


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_float_path_tracks_exact_path(p):
    rng = random.Random(23)
    n = 2 * p + 6
    xs = random_fraction_mesh(rng, n + 1)
    avgs = [Fraction(v, 3) for v in random_int_values(rng, n)]
    exact = interface_traces(CellAverageField(Mesh(xs), avgs), p)
    floats = interface_traces(
        CellAverageField(Mesh([float(x) for x in xs]),
                         [float(a) for a in avgs]),
        p,
    )
    for te, tf in zip(exact, floats):
        assert te.index == tf.index
        assert tf.left == pytest.approx(float(te.left), rel=1e-9, abs=1e-9)
        assert tf.right == pytest.approx(float(te.right), rel=1e-9, abs=1e-9)


def test_shared_table_matches_per_call():
    from enokit import divided_difference_table

    rng = random.Random(5)
    xs = random_fraction_mesh(rng, 11)
    field = CellAverageField(Mesh(xs), random_int_values(rng, 10))
    prim = primitive_from_averages(field)
    table = divided_difference_table(prim.nodes, prim.values, max_order=3)
    for cell in range(2, 8):
        assert select_signature(prim, cell, 3, table=table) \
            == select_signature(prim, cell, 3)


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_traces_from_a_given_table_build_no_primitive(monkeypatch, scalar):
    import enokit.grid as grid
    from enokit import divided_difference_table
    from enokit.numerics import level_table

    rng = random.Random(6)
    xs = random_fraction_mesh(rng, 15)
    field = CellAverageField(Mesh([scalar(x) for x in xs]),
                             [scalar(v) for v in random_int_values(rng, 14)])
    if scalar is Fraction:
        prim = primitive_from_averages(field)
        from_primitive = interface_traces(field, 3, table=divided_difference_table(
            prim.nodes, prim.values, max_order=5))

    def no_primitive(*args, **kwargs):
        raise AssertionError("a primitive was built")

    monkeypatch.setattr(grid, "primitive_from_averages", no_primitive)
    table = level_table(field.mesh.interfaces, field.averages, 5, order=1)
    expected = interface_traces(field, 3)
    assert interface_traces(field, 3, table=table) == expected
    if scalar is Fraction:
        assert expected == from_primitive


def non_dyadic_steps(ncells=120, seed=146):
    """Piecewise-constant integer averages on a non-dyadic float mesh.

    Each width is one of 0.1, 0.3, 1/3, 0.7 times U(0.9, 1.1), and the
    level changes with probability 0.02 per cell. This is the smallest
    such field found on which differencing a primitive summed over the
    whole mesh picks other stencils and verdicts than exact ENO at both
    p = 3 and p = 6.
    """
    rng = random.Random(seed)
    xs = [0.0]
    for _ in range(ncells):
        xs.append(xs[-1] + rng.choice((0.1, 0.3, 1 / 3, 0.7))
                  * rng.uniform(0.9, 1.1))
    level = rng.randint(-8, 8)
    data = []
    for _ in range(ncells):
        if rng.random() < 0.02:
            level = rng.randint(-8, 8)
        data.append(float(level))
    return xs, data


@pytest.mark.parametrize("p", [3, 6])
def test_float_traces_follow_exact_eno_on_non_dyadic_steps(p):
    """The float batch picks exact ENO's stencils and verdicts, and the
    float per-cell API, which builds the averages' table as the batch
    does, picks the batch's stencils."""
    xs, data = non_dyadic_steps()
    field = CellAverageField(Mesh(xs), data)
    floats = interface_traces(field, p)
    exact = interface_traces(CellAverageField(
        Mesh([Fraction(x) for x in xs]), [Fraction(v) for v in data]), p)
    assert [(t.left_signature, t.right_signature) for t in floats] \
        == [(t.left_signature, t.right_signature) for t in exact]
    assert sign_report(floats).counts == sign_report(exact).counts
    prim = primitive_from_averages(field)
    assert [select_signature(prim, cell, p) for cell in floats.index] \
        == list(floats.right_signatures)


@pytest.mark.parametrize("p", [3, 6])
def test_float_oracle_without_a_table_is_the_batch_oracle(p):
    """The one-breakpoint oracle given no table differences the averages
    as telescoped_jumps does on their table, so the two agree bit for
    bit."""
    from enokit.numerics import CELL, level_table
    from enokit.stability import telescoped_jumps

    xs, data = non_dyadic_steps()
    field = CellAverageField(Mesh(xs), data)
    batch = interface_traces(field, p)
    prim = primitive_from_averages(field)
    column = telescoped_jumps(level_table(xs, data, p + 1, order=1), batch, p,
                              CELL)
    one_by_one = [telescoped_jump_reconstruction(prim, left, right, i, p)
                  for left, right, i in zip(batch.left_signatures,
                                            batch.right_signatures,
                                            batch.index)]
    assert list(map(repr, one_by_one)) == list(map(repr, column))


def test_per_cell_calls_need_the_primitives_averages(step_cells):
    """A primitive built by hand carries no averages, so a per-cell call
    given no table has nothing to build it from."""
    from enokit import PointValueField

    prim = primitive_from_averages(step_cells)
    bare = PointValueField(prim.nodes, prim.values)
    sig = select_signature(prim, 3, 2)
    for call in (lambda: select_signature(bare, 3, 2),
                 lambda: newton_interpolant(bare, sig, 3),
                 lambda: reconstruct_cell(bare, 3, 2),
                 lambda: telescoped_jump_reconstruction(bare, sig, sig, 4, 2)):
        with pytest.raises(TypeError, match="primitive_from_averages"):
            call()


def test_newton_interpolant_from_an_averages_table():
    """A table built from the averages has no level 0; the polynomial takes
    its constant term from the primitive and equals the one built from the
    primitive's own table."""
    from enokit import divided_difference_table
    from enokit.numerics import level_table

    rng = random.Random(8)
    field = CellAverageField(uniform_mesh(12), random_int_values(rng, 12))
    prim = primitive_from_averages(field)
    for p in (1, 3, 4):
        table = level_table(field.mesh.interfaces, field.averages, p + 1,
                            order=1)
        own = divided_difference_table(prim.nodes, prim.values, max_order=p)
        for cell in range(p - 1, 13 - p):
            poly = reconstruct_cell(prim, cell, p, table=table)
            assert poly == reconstruct_cell(prim, cell, p, table=own)
    floats = CellAverageField(Mesh([float(x) for x in field.mesh.interfaces]),
                              [float(v) for v in field.averages])
    prim = primitive_from_averages(floats)
    table = level_table(floats.mesh.interfaces, floats.averages, 4, order=1)
    poly = reconstruct_cell(prim, 5, 3, table=table)
    assert cell_mean(poly, floats.mesh) == pytest.approx(floats.averages[5])


def _trace_from_scratch(table, cell, offsets, q):
    """One-sided trace at point q, one breakpoint at a time: every stage's
    product starts again from its first factor, with the points in the
    order the stages brought them in."""
    X, levels = table.points, table.levels
    xq = X[q]
    entered = [cell, cell + 1]
    for j in range(2, len(offsets) + 1):
        start = cell + offsets[j - 1]
        entered.append(start if offsets[j - 1] != offsets[j - 2]
                       else start + j)
    total = levels[1][cell]
    for j in range(2, len(offsets) + 1):
        prod = None
        for idx in entered[:j]:
            if idx != q:
                prod = xq - X[idx] if prod is None else prod * (xq - X[idx])
        total = total + levels[j][cell + offsets[j - 1]] * prod
    return total


def _contract_field(scalar, p):
    rng = random.Random(100 + p)
    n = 2 * p + 12
    xs = random_fraction_mesh(rng, n + 1)
    values = [v if i % 3 else v + Fraction(1, 10 ** 9)
              for i, v in enumerate(random_int_values(rng, n))]
    return CellAverageField(Mesh([scalar(x) for x in xs]),
                            [scalar(v) for v in values])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("scalar", [Fraction, float])
def test_trace_batch_contract(monkeypatch, scalar, p):
    import enokit.harness as harness
    from enokit.harness import check_orders
    from enokit.stability import trace_columns
    from enokit.numerics import level_table

    field = _contract_field(scalar, p)
    n = field.mesh.ncells
    table = level_table(field.mesh.interfaces, field.averages, p, order=1)
    prim = primitive_from_averages(field)
    sigs = {c: select_signature(prim, c, p, table=table)
            for c in range(p - 1, n - p + 1)}
    expected = [InterfaceTrace(
        iota, table.points[iota],
        _trace_from_scratch(table, iota - 1, sigs[iota - 1].offsets, iota),
        _trace_from_scratch(table, iota, sigs[iota].offsets, iota),
        field.averages[iota] - field.averages[iota - 1],
        sigs[iota - 1], sigs[iota]) for iota in range(p, n - p + 1)]

    batch = interface_traces(field, p)
    assert len(batch) == len(expected)
    assert batch[0] == expected[0] and batch[-1] == expected[-1]
    assert isinstance(batch[-1], InterfaceTrace)
    assert list(batch) == expected
    assert [repr(t) for t in batch] == [repr(t) for t in expected]
    for column, name in [
            ("index", "index"), ("location", "location"), ("left", "left"),
            ("right", "right"), ("data_jump", "data_jump"), ("jumps", "jump"),
            ("left_signatures", "left_signature"),
            ("right_signatures", "right_signature")]:
        assert list(getattr(batch, column)) == [getattr(t, name) for t in batch]
    assert sign_report(batch) == sign_report(list(batch))

    checked = list(check_orders(field, (p,)))
    # The check loop judges a batch read from per-trace records as it
    # judges the columnar one.
    monkeypatch.setattr(harness, "interface_traces",
                        lambda *args, **kwargs: trace_columns(list(batch)))
    [(order, traces, report, agrees, bound, within)] = check_orders(
        field, (p,))
    [(_, want_traces, want_report, want_agrees, want_bound,
      want_within)] = checked
    assert (order, list(traces), report, agrees, bound, within) \
        == (p, list(want_traces), want_report, want_agrees, want_bound,
            want_within)


def test_trace_batches_build_no_per_breakpoint_objects(monkeypatch):
    """sign_report(interface_traces(...)) builds no InterfaceTrace and no
    signature; reading one signature column builds both columns, at most
    one signature per distinct offset tuple."""
    built = Counter()
    for cls in (InterfaceTrace, StencilSignature):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    rng = random.Random(512)
    xs = [0.0]
    for _ in range(512):
        xs.append(xs[-1] + rng.uniform(0.5, 2.0))
    field = CellAverageField(Mesh(xs), [float(rng.randint(-99, 99))
                                        for _ in range(512)])
    traces = interface_traces(field, 6)
    sign_report(traces)
    assert built["InterfaceTrace"] == 0
    assert built["StencilSignature"] == 0
    left = list(traces.left_signatures)
    assert 0 < built["StencilSignature"] <= 32
    both = built["StencilSignature"]
    right = list(traces.right_signatures)
    assert built["StencilSignature"] == both
    assert all(r is l for r, l in zip(right, left[1:]))
    assert built["InterfaceTrace"] == 0


def _shared_table_field(kind, scalar):
    """A non-dyadic mesh with integer data, near-ties and steps."""
    from enokit import PointValueField

    rng = random.Random(f"shared:{kind}")
    xs = [Fraction(0)]
    for _ in range(26):
        xs.append(xs[-1] + Fraction(rng.randint(1, 20), rng.choice((3, 7, 10))))
    count = 26 if kind == "reconstruction" else 27
    values = [v + Fraction(1, 10 ** 9) if i % 5 == 2 else v
              for i, v in enumerate(random_int_values(rng, count))]
    values[count // 2:] = [v + 4 for v in values[count // 2:]]
    xs = [scalar(x) for x in xs]
    values = [scalar(v) for v in values]
    if kind == "reconstruction":
        return CellAverageField(Mesh(xs), values), xs, values, 1
    return PointValueField(xs, values), xs, values, 0


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_orders_sharing_a_table_match_fresh_calls(kind, scalar):
    """Traces resumed on a shared table, in any order, equal a fresh
    single-order call bit for bit; so do check_orders' verdicts and oracle
    agreements, yielded in the order asked."""
    from enokit import midpoint_traces
    from enokit.harness import check_orders
    from enokit.numerics import level_table

    field, xs, values, level = _shared_table_field(kind, scalar)
    traces_of = interface_traces if kind == "reconstruction" else midpoint_traces
    fresh = {p: [repr(t) for t in traces_of(field, p)] for p in range(1, 7)}
    for calls in ((6, 4, 3, 1, 1, 3, 4, 6), (1, 3, 4, 6, 6, 4, 3, 1)):
        table = level_table(xs, values, 6 + level, level)
        for p in calls:
            assert [repr(t) for t in traces_of(field, p, table=table)] \
                == fresh[p]
    orders = (4, 1, 6, 1, 3)
    checked = list(check_orders(field, orders))
    assert [p for p, *_ in checked] == list(orders)
    for p, traces, report, agrees, bound, within in checked:
        [(_, want, want_report, want_agrees, want_bound,
          want_within)] = check_orders(field, (p,))
        assert [repr(t) for t in traces] == [repr(t) for t in want] == fresh[p]
        assert report == want_report == sign_report(traces_of(field, p))
        assert (agrees, bound, within) == (want_agrees, want_bound,
                                            want_within)
        assert all(agrees) and all(within)


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_batch_signatures_follow_the_stage_columns(kind, scalar):
    """Each anchor's signature offsets are the leftmost points of its
    stage stencils less its own, lefts[j][i] - lefts[0][i], and anchors
    with equal offsets share one signature object; p = 1..7 resumed on
    one table."""
    from enokit import midpoint_traces
    from enokit.numerics import level_table

    field, xs, values, level = _shared_table_field(kind, scalar)
    traces_of = interface_traces if kind == "reconstruction" else midpoint_traces
    table = level_table(xs, values, 7 + level, level)
    for p in range(1, 8):
        batch = traces_of(field, p, table=table)
        lefts = table._eno_stages[level].lefts
        assert len(lefts) == p
        signatures = [*batch.left_signatures, batch.right_signatures[-1]]
        assert all(right is left for right, left
                   in zip(batch.right_signatures, signatures[1:]))
        assert [s.offsets for s in signatures] == [
            tuple(column[i] - lefts[0][i] for column in lefts)
            for i in range(len(lefts[0]))]
        shared = {}
        for signature in signatures:
            assert shared.setdefault(signature.offsets, signature) is signature
        if p > 2:
            assert len(shared) > 1


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_batch_signatures_outlive_later_orders_on_their_table(kind, scalar):
    """A batch derives its signatures when they are first read, from its
    own order's stage columns: read after its table has grown to a higher
    order or restarted for a lower one, they are the per-anchor
    selections, and the two columns share their objects. check_orders'
    batches are read after the loop, and batches resumed on one table at
    orders 2, 4, 6, 2, 4 after the last of them."""
    from enokit import midpoint_traces, select_signature_pointwise
    from enokit.harness import check_orders
    from enokit.numerics import level_table

    field, xs, values, level = _shared_table_field(kind, scalar)
    if kind == "reconstruction":
        traces_of = interface_traces
        primitive = primitive_from_averages(field)

        def select(anchor, p):
            return select_signature(primitive, anchor, p)
    else:
        traces_of = midpoint_traces

        def select(anchor, p):
            return select_signature_pointwise(field, anchor, p)
    batches = [(p, traces) for p, traces, *_ in check_orders(field, (6, 2, 4))]
    table = level_table(xs, values, 6 + level, level)
    batches += [(p, traces_of(field, p, table=table))
                for p in (2, 4, 6, 2, 4)]
    for p, batch in batches:
        anchors = [i - level for i in batch.index]
        left = list(batch.left_signatures)
        right = list(batch.right_signatures)
        assert left == [select(anchor, p) for anchor in anchors]
        assert right == [select(anchor + 1, p) for anchor in anchors]
        assert all(r is l for r, l in zip(right, left[1:]))
        assert batch.right_signatures[-1] is right[-1]
        assert batch.left_signatures == left
        assert len(batch.right_signatures) == len(batch)


@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_a_traced_table_needs_no_cycle_collector(kind):
    """The stage-wise state kept on a table holds no reference back to it,
    so the table is freed as soon as its last reference goes."""
    import gc
    import weakref

    from enokit import midpoint_traces
    from enokit.numerics import level_table

    field, xs, values, level = _shared_table_field(kind, Fraction)
    traces_of = interface_traces if kind == "reconstruction" else midpoint_traces
    gc.disable()
    try:
        table = level_table(xs, values, 4 + level, level)
        traces_of(field, 2, table=table)
        traces_of(field, 4, table=table)
        alive = weakref.ref(table)
        del table
        assert alive() is None
    finally:
        gc.enable()


def test_a_table_that_does_not_fit_is_a_typed_error():
    from enokit import ShapeError
    from enokit.numerics import level_table

    field = CellAverageField(uniform_mesh(12), [(-1) ** i for i in range(12)])
    table = level_table(field.mesh.interfaces, field.averages, 2, order=1)
    with pytest.raises(ValueError, match="depth 3"):
        interface_traces(field, 3, table=table)
    assert table._eno_stages == {}
    prim = primitive_from_averages(field)
    with pytest.raises(ValueError, match="depth 3"):
        select_signature(prim, 5, 3, table=table)
    with pytest.raises(ValueError, match="depth 3"):
        newton_interpolant(prim, StencilSignature((0, 0, 0)), 5, table=table)
    interface_traces(field, 2, table=table)
    with pytest.raises(ShapeError):
        interface_traces(CellAverageField(uniform_mesh(10), [0] * 10), 2,
                         table=table)


def _grid_meshes(n):
    """Meshes of n cells: four whose gaps lie on one grid (1/65536 ticks,
    three-place decimals, ints, dyadic floats read exactly) and one whose
    gap denominators 3, 7, 10, 13 and 64 share none."""
    from enokit.numerics import EXACT

    rng = random.Random(f"grid:{n}")
    meshes = {"ticks": random_fraction_mesh(rng, n + 1, start=Fraction(1, 3))}
    for name, step in (("decimals", lambda: Fraction(rng.randint(1, 2000), 1000)),
                       ("ints", lambda: rng.randint(1, 5)),
                       ("dyadic", lambda: rng.choice((0.5, 0.25, 1.0, 1.375))),
                       ("off-grid", lambda: Fraction(
                           rng.randint(1, 40), rng.choice((3, 7, 10, 13, 64))))):
        xs = [step() * 0]
        for _ in range(n):
            xs.append(xs[-1] + step())
        meshes[name] = xs
    meshes["dyadic"] = [EXACT.convert(x) for x in meshes["dyadic"]]
    return meshes


def test_grid_integers():
    from enokit.numerics import grid_integers

    assert grid_integers([Fraction(1, 3), Fraction(5, 6), Fraction(4, 3),
                          Fraction(7, 3)]) \
        == [0, 2, 4, 8]
    assert grid_integers([2, 3, 7]) == [0, 2, 10]
    assert grid_integers([Fraction(0), Fraction(1, 3), Fraction(1, 2),
                          Fraction(3, 4)]) is None
    assert grid_integers([0.0, 0.5, 1.0]) is None
    for name, xs in _grid_meshes(20).items():
        ints = grid_integers(xs)
        assert (ints is None) == (name == "off-grid")
        if ints is not None:
            assert all(type(x) is int for x in ints)
            scale = Fraction(ints[1], 1) / (xs[1] - xs[0])
            assert all(i == (x - xs[0]) * scale for i, x in zip(ints, xs))


@pytest.mark.parametrize("mesh", ["ticks", "decimals", "ints", "dyadic",
                                  "off-grid"])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_tables_on_grid_integers_give_todays_results(kind, mesh, monkeypatch):
    """Traces and checks on a table of their own, over grid_integers on a
    grid mesh, equal those on a caller-given level_table in the field's
    coordinates: the repr of every trace, the values and types of the
    locations, the sign reports, the oracle agreements and the bounds at
    every breakpoint of the check loop's window pass, which position_bounds
    gives on the field's coordinates too."""
    from enokit import PointValueField, harness, midpoint_traces
    from enokit import eno_reconstruction
    from enokit.numerics import level_table, quotient, trace_table
    from enokit.stability import (
        position_bounds,
        telescoped_jump_interpolation,
        telescoped_jump_reconstruction,
    )

    built = []
    passed = {}

    def recording(*args, **kwargs):
        built.append(trace_table(*args, **kwargs))
        return built[-1]

    real_pass = harness._window_pass

    def spying(X, rows, p, shift, positions, *oracle):
        nums, dens, agrees = real_pass(X, rows, p, shift, positions, *oracle)
        passed[p] = dict(zip(positions, map(quotient, nums, dens)))
        return nums, dens, agrees

    monkeypatch.setattr(eno_reconstruction, "trace_table", recording)
    monkeypatch.setattr(harness, "trace_table", recording)
    monkeypatch.setattr(harness, "_window_pass", spying)
    xs = _grid_meshes(26)[mesh]
    rng = random.Random(f"{kind}:{mesh}")
    count = 26 if kind == "reconstruction" else 27
    values = [v + Fraction(1, 10 ** 9) if i % 5 == 2 else v
              for i, v in enumerate(random_int_values(rng, count))]
    values[count // 2:] = [v + 4 for v in values[count // 2:]]
    if kind == "reconstruction":
        field, level = CellAverageField(Mesh(xs), values), 1
        traces_of, telescoped = interface_traces, telescoped_jump_reconstruction
    else:
        field, level = PointValueField(xs, values), 0
        traces_of, telescoped = midpoint_traces, telescoped_jump_interpolation
    given = level_table(xs, values, 6 + level, level)
    want = {p: traces_of(field, p, table=given) for p in range(1, 7)}
    for p in range(1, 7):
        got = traces_of(field, p)
        assert [repr(t) for t in got] == [repr(t) for t in want[p]]
        assert [type(x) for x in got.location] \
            == [type(x) for x in want[p].location]
        assert sign_report(got) == sign_report(want[p])
    checked = list(harness.check_orders(field, (4, 1, 6, 1, 3)))
    assert [p for p, *_ in checked] == [4, 1, 6, 1, 3]
    on_coords = position_bounds(xs, range(1, 7), kind)
    assert sorted(passed) == [1, 3, 4, 6]
    for p, traces, report, agrees, bound, within in checked:
        assert passed[p] == {i: on_coords[p][i] for i in traces.index}
        assert bound == max(passed[p].values())
        assert [repr(t) for t in traces] == [repr(t) for t in want[p]]
        assert report == sign_report(want[p])
        assert agrees == [
            telescoped(None, t.left_signature, t.right_signature, t.index, p,
                       table=given) == t.jump
            for t in want[p]]
        assert all(agrees) and all(within)
    assert len(built) == 7
    on_grid = mesh != "off-grid"
    assert all((type(x) is int) == on_grid
               for table in built for x in table.points)


@pytest.mark.parametrize("scale, data, p, column", [
    (1.0, 1e308, 1, "data jump"),
    (1.0, 1e308, 2, "level-"),
    (1e160, 1.0, 3, "left trace"),
    (1e120, 1.0, 4, "left trace"),
])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_float_overflow_is_a_non_finite_value(kind, scale, data, p, column):
    """Finite binary64 input whose differences or products overflow raises
    NonFiniteValue, naming the column, and never becomes traces of inf or
    NaN: data jumps of +-2e308, a table level of -inf, and traces
    whose stage products overflow on a mesh of widths `scale`."""
    from enokit import NonFiniteValue, PointValueField, midpoint_traces

    xs = [k * scale for k in range(13)]
    values = [(-1) ** k * data for k in range(13)]
    if kind == "reconstruction":
        field, traces_of = CellAverageField(Mesh(xs), values[:12]), \
            interface_traces
    else:
        field, traces_of = PointValueField(xs, values), midpoint_traces
    with pytest.raises(NonFiniteValue, match=f"float overflow: {column}"):
        traces_of(field, p)


def test_per_cell_and_per_node_calls_raise_on_float_overflow():
    """Averages +-1e308 on unit cells, and values +-1e308 on unit nodes,
    overflow a level of their own table: per-cell and per-node calls raise
    NonFiniteValue as the batch does, and never build a polynomial or a
    stencil from inf or NaN."""
    from enokit import (
        NonFiniteValue,
        PointValueField,
        interpolant_at_node,
        select_signature_pointwise,
    )

    xs = [float(k) for k in range(6)]
    data = [(-1) ** k * 1e308 for k in range(6)]
    prim = primitive_from_averages(CellAverageField(Mesh(xs), data[:5]))
    field = PointValueField(xs, data)
    for call in (lambda: select_signature(prim, 2, 2),
                 lambda: reconstruct_cell(prim, 2, 2),
                 lambda: select_signature_pointwise(field, 2, 2),
                 lambda: interpolant_at_node(field, 2, 2)):
        with pytest.raises(NonFiniteValue, match="float overflow: level-"):
            call()


def test_newton_forms_reject_a_table_in_grid_units():
    """A table over grid_integers holds the coordinates in other units: the
    per-cell and per-node Newton forms reject it rather than return
    polynomials in those units, and take the field's own table."""
    from enokit import ShapeError, PointValueField, interpolant_at_node
    from enokit.numerics import CELL, NODE, field_table, trace_table

    xs = [Fraction(k, 10) for k in range(9)]
    squares = [Fraction(k * k) for k in range(9)]
    field = CellAverageField(Mesh(xs), squares[:8])
    prim = primitive_from_averages(field)
    with pytest.raises(ShapeError, match="field_table"):
        reconstruct_cell(prim, 3, 3, table=trace_table(xs, squares[:8], 3, CELL))
    poly = reconstruct_cell(prim, 3, 3, table=field_table(prim, 3, CELL))
    assert poly == reconstruct_cell(prim, 3, 3)
    assert poly.antiderivative.points == (Fraction(3, 10), Fraction(2, 5),
                                          Fraction(1, 5), Fraction(1, 2))
    assert cell_mean(poly, field.mesh) == 9

    nodes = PointValueField(xs, squares)
    with pytest.raises(ShapeError, match="field_table"):
        interpolant_at_node(nodes, 3, 3, table=trace_table(xs, squares, 2, NODE))
    assert interpolant_at_node(nodes, 3, 3, table=field_table(nodes, 2, NODE)) \
        == interpolant_at_node(nodes, 3, 3)
