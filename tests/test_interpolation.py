"""Pointwise stencil selection, interpolants, and midpoint traces."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enokit import (
    InterfaceTrace,
    PointSignature,
    PointValueField,
    StencilOutOfRange,
    StencilSignature,
    interpolant_at_node,
    midpoint_traces,
    select_signature_pointwise,
    sign_report,
)

from conftest import (
    random_fraction_mesh,
    random_int_values,
    reference_interp_traces,
)


def test_signature_validation():
    assert PointSignature((0, 0, -1)).order == 3
    assert str(PointSignature((0, -1))) == "0,-1"
    with pytest.raises(ValueError):
        PointSignature(())
    with pytest.raises(ValueError):
        PointSignature((-1,))
    with pytest.raises(ValueError):
        PointSignature((0, 1))


def test_select_pointwise_step_data(step_points):
    assert select_signature_pointwise(step_points, 3, 2).offsets == (0, -1)
    assert select_signature_pointwise(step_points, 4, 2).offsets == (0, 0)


def test_select_pointwise_window_checks(step_points):
    with pytest.raises(StencilOutOfRange):
        select_signature_pointwise(step_points, 0, 2)
    with pytest.raises(StencilOutOfRange):
        select_signature_pointwise(step_points, 7, 2)
    with pytest.raises(ValueError):
        select_signature_pointwise(step_points, 3, 0)


def test_interpolant_matches_samples():
    rng = random.Random(4)
    xs = random_fraction_mesh(rng, 10)
    vs = random_int_values(rng, 10)
    field = PointValueField(xs, vs)
    samples = dict(zip(xs, vs))
    for node in range(3, 7):
        poly = interpolant_at_node(field, node, 4)
        assert poly.degree == 3
        for pt in poly.points:
            assert poly.value(pt) == samples[pt]
        assert poly.points[0] == xs[node]


def test_order_one_interpolant_is_the_sample():
    field = PointValueField([0, 1, 2], [5, 7, 9])
    poly = interpolant_at_node(field, 1, 1)
    assert poly.degree == 0
    assert poly.value(Fraction(3, 2)) == 7


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_polynomial_values_reproduce_midpoints_exactly(seed, p):
    """Degree p-1 data: both one-sided midpoint values equal the data."""
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(p)]

    def value(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    n = 2 * p + 4
    xs = random_fraction_mesh(rng, n)
    field = PointValueField(xs, [value(x) for x in xs])
    for t in midpoint_traces(field, p):
        assert t.left == value(t.location)
        assert t.right == value(t.location)
        assert t.jump == 0


def test_midpoint_traces_layout(step_points):
    traces = midpoint_traces(step_points, 2)
    assert [t.index for t in traces] == [1, 2, 3, 4, 5]
    assert traces[0].location == Fraction(3, 2)
    assert not isinstance(traces[0].location, float)
    for t in traces:
        assert t.data_jump == step_points.values[t.index + 1] \
            - step_points.values[t.index]
    jumpy = traces[2]
    assert (jumpy.left, jumpy.right) == (0, 1)
    assert jumpy.left_signature.offsets == (0, -1)
    assert jumpy.right_signature.offsets == (0, 0)


def test_midpoint_traces_too_few_nodes():
    field = PointValueField([0, 1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(StencilOutOfRange):
        midpoint_traces(field, 3)
    with pytest.raises(ValueError):
        midpoint_traces(field, 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 17, 91])
def test_traces_agree_with_reference_implementation(p, seed):
    rng = random.Random(seed)
    n = 2 * p + 5
    xs = random_fraction_mesh(rng, n)
    vs = random_int_values(rng, n)
    field = PointValueField(xs, vs)
    ours = midpoint_traces(field, p)
    theirs = reference_interp_traces(xs, vs, p)
    assert len(ours) == len(theirs)
    for t, (nu, left, right) in zip(ours, theirs):
        assert t.index == nu
        assert t.left == left
        assert t.right == right


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_float_path_tracks_exact_path(p):
    rng = random.Random(29)
    n = 2 * p + 6
    xs = random_fraction_mesh(rng, n)
    vs = [Fraction(v, 3) for v in random_int_values(rng, n)]
    exact = midpoint_traces(PointValueField(xs, vs), p)
    floats = midpoint_traces(
        PointValueField([float(x) for x in xs], [float(v) for v in vs]), p
    )
    for te, tf in zip(exact, floats):
        assert te.index == tf.index
        assert tf.left == pytest.approx(float(te.left), rel=1e-9, abs=1e-9)
        assert tf.right == pytest.approx(float(te.right), rel=1e-9, abs=1e-9)


def _value_from_scratch(table, node, offsets, x):
    """Value at x of the node's stencil polynomial, one breakpoint at a
    time: every stage's product starts again from its first factor, with
    the points in the order the stages brought them in."""
    X, levels = table.points, table.levels
    entered = [node]
    for j in range(2, len(offsets) + 1):
        start = node + offsets[j - 1]
        entered.append(start if offsets[j - 1] != offsets[j - 2]
                       else start + j - 1)
    total = levels[0][node]
    for j in range(2, len(offsets) + 1):
        prod = x - X[entered[0]]
        for idx in entered[1:j - 1]:
            prod = prod * (x - X[idx])
        total = total + levels[j - 1][node + offsets[j - 1]] * prod
    return total


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_float_midpoint_traces_are_the_newton_form_bit_for_bit(p):
    """Float midpoint traces multiply each stage's factors in the order
    the points entered the stencil, as NewtonPolynomial.value does, so
    they equal interpolant_at_node(...).value at the midpoint bit for bit
    on non-dyadic meshes, where index order rounds differently."""
    from enokit import divided_difference_table

    rng = random.Random(300 + p)
    for _ in range(8):
        n = 40
        xs = [0.0]
        for _ in range(n - 1):
            xs.append(xs[-1] + rng.choice((0.1, 0.3, 1 / 3, 0.7))
                      * rng.uniform(0.9, 1.1))
        values = [rng.randint(-8, 8) + rng.uniform(-1e-3, 1e-3)
                  for _ in range(n)]
        field = PointValueField(xs, values)
        table = divided_difference_table(xs, values, max_order=p - 1)
        batch = midpoint_traces(field, p)
        for nu, x, left, right in zip(batch.index, batch.location,
                                      batch.left, batch.right):
            assert x == (xs[nu] + xs[nu + 1]) / 2
            assert left == interpolant_at_node(field, nu, p, table).value(x)
            assert right == interpolant_at_node(field, nu + 1, p,
                                                table).value(x)


def mixed_near_ties(n=12, seed=123):
    """Fraction nodes on a non-dyadic mesh (gaps 1/10, 3/10, 1/3, 7/10)
    and float values: integer levels, changing with probability 0.1 per
    node, plus U(-1, 1) * 1e-13. Differencing the values over the Fraction
    nodes rounds otherwise than over their floats; on this field that
    picks another stencil at one node and other trace bits at three."""
    rng = random.Random(seed)
    xs = [Fraction(0)]
    for _ in range(n - 1):
        xs.append(xs[-1] + rng.choice((Fraction(1, 10), Fraction(3, 10),
                                       Fraction(1, 3), Fraction(7, 10))))
    level = rng.randint(-8, 8)
    values = []
    for _ in range(n):
        if rng.random() < 0.1:
            level = rng.randint(-8, 8)
        values.append(level + rng.uniform(-1, 1) * 1e-13)
    return PointValueField(xs, values)


def test_mixed_scalar_per_node_calls_follow_the_batch():
    """Given no table, the per-node calls convert mixed scalars to float
    as midpoint_traces does, so they pick its stencils and give its
    traces bit for bit."""
    field = mixed_near_ties()
    p = 3
    batch = midpoint_traces(field, p)
    for nu, x, left, right, left_sig, right_sig in zip(
            batch.index, batch.location, batch.left, batch.right,
            batch.left_signatures, batch.right_signatures):
        assert select_signature_pointwise(field, nu, p) == left_sig
        assert select_signature_pointwise(field, nu + 1, p) == right_sig
        assert interpolant_at_node(field, nu, p).value(x) == left
        assert interpolant_at_node(field, nu + 1, p).value(x) == right


def _contract_field(scalar, p):
    rng = random.Random(200 + p)
    n = 2 * p + 12
    xs = random_fraction_mesh(rng, n)
    values = [v if i % 3 else v + Fraction(1, 10 ** 9)
              for i, v in enumerate(random_int_values(rng, n))]
    return PointValueField([scalar(x) for x in xs], [scalar(v) for v in values])


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("scalar", [Fraction, float])
def test_trace_batch_contract(monkeypatch, scalar, p):
    import enokit.harness as harness
    from enokit.harness import check_orders
    from enokit.stability import trace_columns
    from enokit.numerics import build_table, halfway

    field = _contract_field(scalar, p)
    n = len(field.nodes)
    table = build_table(field.nodes, field.values, p - 1)
    X = table.points
    sigs = {i: select_signature_pointwise(field, i, p, table=table)
            for i in range(p - 1, n - p + 1)}
    expected = []
    for nu in range(p - 1, n - p):
        xm = halfway(X[nu], X[nu + 1])
        expected.append(InterfaceTrace(
            nu, xm,
            _value_from_scratch(table, nu, sigs[nu].offsets, xm),
            _value_from_scratch(table, nu + 1, sigs[nu + 1].offsets, xm),
            field.values[nu + 1] - field.values[nu],
            sigs[nu], sigs[nu + 1]))

    batch = midpoint_traces(field, p)
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
    monkeypatch.setattr(harness, "midpoint_traces",
                        lambda *args, **kwargs: trace_columns(list(batch)))
    [(order, traces, report, agrees, bound, within)] = check_orders(
        field, (p,))
    [(_, want_traces, want_report, want_agrees, want_bound,
      want_within)] = checked
    assert (order, list(traces), report, agrees, bound, within) \
        == (p, list(want_traces), want_report, want_agrees, want_bound,
            want_within)


def test_trace_batches_build_no_per_breakpoint_objects(monkeypatch):
    """sign_report(midpoint_traces(...)) builds no InterfaceTrace and no
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
    field = PointValueField(xs, [float(rng.randint(-99, 99)) for _ in range(513)])
    traces = midpoint_traces(field, 6)
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


def test_a_shallow_table_is_a_value_error():
    from enokit.numerics import build_table

    field = PointValueField(range(12), [(-1) ** i for i in range(12)])
    table = build_table(field.nodes, field.values, 1)
    with pytest.raises(ValueError, match="depth 2"):
        midpoint_traces(field, 3, table=table)
    assert table._eno_stages == {}
    with pytest.raises(ValueError, match="depth 2"):
        select_signature_pointwise(field, 5, 3, table=table)
    with pytest.raises(ValueError, match="depth 2"):
        interpolant_at_node(field, 5, 3, table=table)
    midpoint_traces(field, 2, table=table)
