"""Extremal constructions, fuzzing, convergence, and the oracle."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from enokit import (
    EXACT,
    CellAverageField,
    FuzzConfig,
    StencilOutOfRange,
    convergence_study,
    fuzz_sign_property,
    Mesh,
    PointValueField,
    interface_traces,
    midpoint_traces,
    primitive_from_averages,
    uniform_bound_Cp,
    worst_case_averages,
    worst_case_ratio,
)

from enokit.harness import _trial_inputs, check_orders
from enokit.numerics import ExactBackend, _gmpy2, build_table, field_table

from conftest import (
    _lagrange_value,
    bound_constants_recursive,
    random_fraction_mesh,
    random_int_values,
    with_columns,
)


def test_worst_case_structure():
    field = worst_case_averages(3, epsilon=0.25, n_cells=20)
    assert field.mesh.ncells == 20
    assert set(field.averages) <= {0.0, 1.0, 0.75}
    widths = [field.mesh.width(i) for i in range(20)]
    assert widths == [1.0] * 20


def test_worst_case_needs_enough_cells():
    with pytest.raises(StencilOutOfRange):
        worst_case_averages(3, n_cells=12)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_worst_case_hits_the_bound_in_float(p):
    measured = worst_case_ratio(p, epsilon=1e-10)
    assert abs(measured - float(uniform_bound_Cp(p))) < 1e-6


def test_worst_case_exact_gap_is_the_frozen_value():
    eps = Fraction(1, 10 ** 10)
    gap = uniform_bound_Cp(2) - worst_case_ratio(2, eps, 24, EXACT)
    assert gap == Fraction(1, 2 * 10 ** 10)
    gap3 = uniform_bound_Cp(3) - worst_case_ratio(3, eps, 24, EXACT)
    assert gap3 == Fraction(7, 6 * 10 ** 10)


def test_worst_case_epsilon_zero_degrades():
    assert worst_case_ratio(2, 0, 24, EXACT) == 1
    assert worst_case_ratio(3, 0, 24, EXACT) == Fraction(4, 3)


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(orders=())
    with pytest.raises(ValueError):
        FuzzConfig(orders=(0,))
    with pytest.raises(ValueError, match="^orders must be distinct$"):
        FuzzConfig(orders=(1, 3, 1))
    with pytest.raises(ValueError):
        FuzzConfig(width_low=0.0)
    with pytest.raises(ValueError):
        FuzzConfig(width_low=2.0, width_high=1.0)
    with pytest.raises(ValueError):
        FuzzConfig(backend="decimal")
    with pytest.raises(ValueError):
        FuzzConfig(distribution="normal")
    with pytest.raises(ValueError):
        FuzzConfig(kind="extrapolation")
    with pytest.raises(ValueError):
        FuzzConfig(cells=1)
    with pytest.raises(ValueError, match="finite upper bound"):
        FuzzConfig(width_high=math.inf)
    with pytest.raises(ValueError, match="finite upper bound"):
        FuzzConfig(width_high=1e308)
    with pytest.raises(ValueError, match="no cell width"):
        FuzzConfig(width_low=1e-6, width_high=1e-6)
    with pytest.raises(ValueError, match="no cell width"):
        FuzzConfig(width_low=1.00001, width_high=1.00001)
    FuzzConfig(width_low=1.0, width_high=1.0)
    FuzzConfig(width_low=1e-6, width_high=1 / 65536)


SMALL = FuzzConfig(seed=7, trials=8, cells=16, orders=(1, 2, 3))


def test_fuzz_small_run_is_clean():
    report = fuzz_sign_property(SMALL)
    assert report.trials_run == 8
    assert report.violations == 0
    assert report.bound_exceedances == 0
    assert report.oracle_mismatches == 0
    assert report.interfaces_checked > 0
    assert report.worst_witness is not None
    assert set(report.max_ratio_per_order) == {1, 2, 3}


def test_fuzz_report_json_shape():
    report = fuzz_sign_property(SMALL)
    payload = json.loads(report.to_json())
    for key in ("interfaces", "violations", "max_ratio", "bound", "seed",
                "order", "backend", "kind", "trials", "cells"):
        assert key in payload
    assert payload["seed"] == 7
    assert payload["backend"] == "exact"
    assert payload["violations"] == 0
    assert set(payload["max_ratio"]) == {"1", "2", "3"}


def test_fuzz_same_seed_same_bytes():
    a = fuzz_sign_property(SMALL).to_json()
    b = fuzz_sign_property(SMALL).to_json()
    assert a == b


def test_fuzz_parallel_equals_serial():
    serial = fuzz_sign_property(SMALL).to_json()
    parallel = fuzz_sign_property(SMALL, workers=3).to_json()
    assert serial == parallel


def test_fuzz_pool_asks_for_no_more_workers_than_trials(monkeypatch):
    """A process pool forks all of its workers at the first submit, so a
    parallel run asks for at most one worker per trial: 2 for two trials
    at --workers 5000. The pool is a stand-in that records max_workers
    and maps in-process, so the test starts no process."""
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    two = FuzzConfig(seed=7, trials=2, cells=16, orders=(1, 2, 3))
    assert fuzz_sign_property(two, workers=5000).to_json() \
        == fuzz_sign_property(two).to_json()
    assert fuzz_sign_property(SMALL, workers=3).to_json() \
        == fuzz_sign_property(SMALL).to_json()
    one = FuzzConfig(seed=7, trials=1, cells=16, orders=(1, 2, 3))
    assert fuzz_sign_property(one, workers=5000).to_json() \
        == fuzz_sign_property(one).to_json()
    assert asked == [2, 3]


def test_fuzz_seed_changes_the_report():
    other = FuzzConfig(seed=8, trials=8, cells=16, orders=(1, 2, 3))
    assert fuzz_sign_property(SMALL).to_json() \
        != fuzz_sign_property(other).to_json()


def test_fuzz_float_backend_runs_clean():
    config = FuzzConfig(seed=3, trials=6, cells=14, orders=(1, 2),
                        backend="float")
    report = fuzz_sign_property(config)
    assert report.violations == 0
    assert report.oracle_mismatches == 0


def test_fuzz_interpolation_kind_runs_clean():
    config = FuzzConfig(seed=5, trials=6, cells=14, orders=(1, 2, 3),
                        kind="interpolation")
    report = fuzz_sign_property(config)
    assert report.violations == 0
    assert report.bound_exceedances == 0
    assert report.oracle_mismatches == 0


def test_fuzz_uniform_int_distribution():
    config = FuzzConfig(seed=2, trials=6, cells=14, orders=(1, 2),
                        distribution="uniform-int")
    report = fuzz_sign_property(config)
    assert report.violations == 0


def test_fuzz_with_no_fitting_order_reports_nothing():
    """Three cells host no order-2 reconstruction window: an empty report."""
    report = fuzz_sign_property(FuzzConfig(cells=3, trials=2, orders=(2,)))
    assert report.to_json() == (
        '{"backend": "exact", "bound": {}, "bound_exceedances": 0, '
        '"cells": 3, "distribution": "mixed", "interfaces": 0, '
        '"kind": "reconstruction", "max_ratio": {}, "oracle_mismatches": 0, '
        '"order": [2], "seed": 0, "trials": 2, "violation_witnesses": [], '
        '"violations": 0, "worst_witness": null}')


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_fuzz_bounds_equal_the_per_position_reference(kind, backend):
    """Bounds taken on integer coordinates equal the reference maximum."""
    config = FuzzConfig(seed=11, trials=3, cells=10,
                        orders=(1, 2, 3, 4, 5, 6), backend=backend, kind=kind)
    expected = {}
    for trial in range(config.trials):
        coords, values = _trial_inputs(config, trial)
        for p in config.orders:
            try:
                if kind == "reconstruction":
                    traces = interface_traces(
                        CellAverageField(Mesh(coords), values), p)
                else:
                    traces = midpoint_traces(PointValueField(coords, values), p)
            except StencilOutOfRange:
                continue
            for t in traces:
                bound = bound_constants_recursive(coords, p, kind,
                                                  position=t.index).bound
                if p not in expected or bound > expected[p]:
                    expected[p] = bound
    assert sorted(expected) == [1, 2, 3, 4, 5]
    report = fuzz_sign_property(config)
    assert report.bound_per_order == {
        p: EXACT.serialize(b) for p, b in sorted(expected.items())}


# sha256 over the to_json() of the exact fuzz reports below, one line each,
# recorded with fractions.Fraction doing every exact operation, so it judges
# any rational type behind ExactBackend._make.
EXACT_FUZZ_DIGEST = (
    "6a41b00f19aca4255b90373713c7d187dd36f8a2ff72ee32c3cb26076b13a0f6")


def _exact_fuzz_digest():
    digest = hashlib.sha256()
    for kind in ("reconstruction", "interpolation"):
        for seed in (0, 3, 9):
            for distribution in ("mixed", "uniform-int"):
                config = FuzzConfig(seed=seed, trials=40, kind=kind,
                                    distribution=distribution)
                digest.update(fuzz_sign_property(config).to_json().encode())
                digest.update(b"\n")
    return digest.hexdigest()


def test_exact_fuzz_reports_are_pinned():
    assert _exact_fuzz_digest() == EXACT_FUZZ_DIGEST


def test_exact_fuzz_reports_hold_on_plain_fractions(monkeypatch):
    """ExactBackend._make is the one hook on the rational type: with plain
    Fractions behind it, as with any other type, the reports are the same."""
    monkeypatch.setattr(ExactBackend, "_make", Fraction)
    assert type(EXACT.convert(1)) is Fraction
    assert _exact_fuzz_digest() == EXACT_FUZZ_DIGEST


@pytest.mark.skipif(_gmpy2 is not None, reason="gmpy2 supplies the rationals")
@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_exact_checks_run_on_the_backend_type(kind):
    """Every exact value the check loop makes has the backend's own type,
    also for fields built from ints or plain Fractions, on and off the
    grid of the coordinates' gaps, so none falls back to Fraction's
    arithmetic."""
    own = type(EXACT.convert(0))
    assert own is not Fraction and isinstance(EXACT.convert(0), Fraction)
    rng = random.Random(23)
    config = FuzzConfig(seed=4, trials=1, cells=14, kind=kind)
    fuzz_coords, fuzz_values = _trial_inputs(config, 0)
    inputs = [
        (fuzz_coords, fuzz_values),
        (random_fraction_mesh(rng, 15), random_int_values(rng, 15)),
        ([Fraction(k, 3) for k in range(15)],
         [Fraction(rng.randint(-9, 9), 7) for _ in range(15)]),
        ([0, 1, 3, 4, 7, 8, 9, 12, 13, 15, 18, 19, 20, 22, 25],
         random_int_values(rng, 15)),
        ([sum(Fraction(1, (3, 4, 7)[k % 3]) for k in range(n))
          for n in range(15)],
         [Fraction(v) for v in random_int_values(rng, 15)]),
    ]
    shift = 1 if kind == "reconstruction" else 0
    ratios = 0
    for coords, values in inputs:
        values = values[:len(coords) - shift]
        field = (CellAverageField(Mesh(coords), values) if shift
                 else PointValueField(coords, values))
        tables = (build_table(coords, values, 6 + shift, shift, grid=True),
                  field_table(primitive_from_averages(field) if shift
                              else field, 6 + shift, shift))
        for table in tables:
            for level in table.levels[shift:]:
                assert {type(v) for v in level} == {own}
        for p, traces, report, agrees, bound, within in check_orders(
                field, (1, 2, 3, 4, 5, 6)):
            assert len(traces) and all(agrees) and all(within)
            for column in (traces.left, traces.right, traces.jumps):
                assert {type(v) for v in column} == {own}, (p, column)
            assert type(bound) is own
            ratio_types = {type(r) for r in report.ratios if r is not None}
            assert ratio_types <= {own}
            ratios += bool(ratio_types)
    assert ratios >= 20


@pytest.mark.parametrize("bound", [
    Fraction(1), Fraction(7, 3), Fraction(12345678901, 98765),
    Fraction(3, 2 ** 70), Fraction(2 ** 80 + 1, 3)])
def test_within_judges_ratios_as_the_rational_comparison(bound):
    """_within's int cross-multiplication gives the flags of comparing
    each ratio with the bound, times the float slack 1 + ORACLE_FLOAT_TOL
    for float ratios: at float(bound * slack) and one float either side
    of it, infinities and None too; and, with no slack, for exact ratios
    at the bound and one 2**-100 either side."""
    from enokit.harness import ORACLE_FLOAT_TOL, _within

    slack = 1 + EXACT.convert(ORACLE_FLOAT_TOL)
    # The pair _window_pass gives need not be in lowest terms.
    num, den = bound.numerator * 6, bound.denominator * 6
    limit = bound * slack
    f = float(limit)
    ratios = [math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf),
              -f, 0.0, math.inf, -math.inf, None]
    got = _within(ratios, [num] * len(ratios), [den] * len(ratios), slack)
    assert got == [r is None or r <= limit for r in ratios]
    assert got[:3] == [True, f <= limit, False]
    tiny = Fraction(1, 2 ** 100)
    exact = [EXACT.convert(bound + k * tiny) for k in (-1, 0, 1)] + [None]
    assert _within(exact, [num] * 4, [den] * 4) == [True, True, False, True]


def test_convergence_rates_on_smooth_data():
    table = convergence_study(
        lambda x: math.sin(2 * math.pi * x), (1, 2, 3), (16, 32, 64)
    )
    assert table.orders == (1, 2, 3)
    assert table.resolutions == (16, 32, 64)
    for p, rate in zip(table.orders, table.rates):
        assert rate >= p - 0.35
    for row in table.errors:
        assert all(b < a for a, b in zip(row, row[1:]))


def test_convergence_validation():
    sine = math.sin
    with pytest.raises(ValueError):
        convergence_study(sine, (), (16, 32))
    with pytest.raises(ValueError):
        convergence_study(sine, (1,), (16,))
    with pytest.raises(ValueError):
        convergence_study(sine, (1,), (32, 16))
    with pytest.raises(StencilOutOfRange):
        convergence_study(sine, (3,), (4, 8))


def test_convergence_rejects_repeated_orders():
    """A repeated order would fit and report its rows twice."""
    with pytest.raises(ValueError, match="orders must be distinct"):
        convergence_study(math.sin, (2, 1, 2), (8, 16))


def test_gauss_legendre_rule_integrates_polynomials():
    """The 12-point rule: antisymmetric nodes, symmetric weights summing to
    2, and every monomial of degree <= 23 integrated over [-1, 1]."""
    from enokit.harness import _GAUSS_LEGENDRE_12

    nodes, weights = zip(*_GAUSS_LEGENDRE_12)
    assert len(nodes) == 12
    assert list(nodes) == sorted(nodes)
    assert nodes == tuple(-t for t in reversed(nodes))
    assert weights == tuple(reversed(weights))
    assert abs(math.fsum(weights) - 2) <= 1e-15
    for k in range(24):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(w * t ** k for t, w in _GAUSS_LEGENDRE_12)
        assert abs(got - exact) <= 1e-15, k


def test_gauss_legendre_rule_is_numpys():
    """The rule's literals are numpy's leggauss(12), bit for bit."""
    np = pytest.importorskip("numpy")
    from enokit.harness import _GAUSS_LEGENDRE_12

    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert _GAUSS_LEGENDRE_12 == tuple(zip(map(float, nodes),
                                           map(float, weights)))


def test_lagrange_oracle_matches_newton_form():
    from enokit import PointValueField, interpolant_at_node

    rng = random.Random(19)
    xs = random_fraction_mesh(rng, 9)
    vs = random_int_values(rng, 9)
    field = PointValueField(xs, vs)
    poly = interpolant_at_node(field, 4, 3)
    at = Fraction(1, 7) + xs[4]
    assert _lagrange_value(poly.points, [
        vs[list(xs).index(pt)] for pt in poly.points
    ], at) == poly.value(at)


def _plant_failures(monkeypatch):
    """Plant all three failure reasons into check_orders: a consistent
    SignReport with every 5th verdict turned VIOLATION, every bound / 1000,
    and every 7th telescoped jump off by 1. The window pass judges the
    oracle of exact batches on grid tables, so there the jump it compares
    with is off by 1 instead; telescoped_jumps gives the others'."""
    import enokit.harness as harness_mod
    from enokit import SignReport

    real_report = harness_mod.sign_report
    real_pass = harness_mod._window_pass
    real_jumps = harness_mod.telescoped_jumps

    def report(traces):
        honest = real_report(traces)
        verdicts = tuple("VIOLATION" if i % 5 == 0 else v
                         for i, v in enumerate(honest.verdicts))
        return SignReport(verdicts, honest.ratios,
                          verdicts.count("VIOLATION"), honest.max_ratio)

    def window_pass(X, rows, p, shift, positions, level=None, traces=None):
        if traces is not None:
            traces = with_columns(traces, right=[
                right - 1 if i % 7 == 0 else right
                for i, right in enumerate(traces.right)])
        nums, dens, agrees = real_pass(X, rows, p, shift, positions, level,
                                       traces)
        return nums, [den * 1000 for den in dens], agrees

    def jumps(*args, **kwargs):
        return [jump + 1 if i % 7 == 0 else jump
                for i, jump in enumerate(real_jumps(*args, **kwargs))]

    monkeypatch.setattr(harness_mod, "sign_report", report)
    monkeypatch.setattr(harness_mod, "_window_pass", window_pass)
    monkeypatch.setattr(harness_mod, "telescoped_jumps", jumps)


def _fuzz_digest(configs, workers=1):
    digest = hashlib.sha256()
    for config in configs:
        digest.update(fuzz_sign_property(config, workers).to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


FLOAT_FUZZ_CONFIGS = [
    FuzzConfig(seed=seed, trials=30, backend="float", kind=kind,
               distribution=distribution)
    for kind in ("reconstruction", "interpolation")
    for seed in (0, 3)
    for distribution in ("mixed", "uniform-int")]
PLANTED_FUZZ_CONFIGS = [
    FuzzConfig(seed=seed, trials=6, cells=16, backend=backend, kind=kind)
    for backend in ("exact", "float")
    for kind in ("reconstruction", "interpolation")
    for seed in (1, 2)]
# sha256 over the to_json() of the reports of the configs above, one line
# each, recorded before fuzz trials read their counts off the check loop's
# columns.
FLOAT_FUZZ_DIGEST = (
    "7fcff07f49d9f59f8b4cf0ad56d24afa0d045627cff494a80c049aec96ce53ae")
PLANTED_FUZZ_DIGEST = (
    "301e9c6e55c07b4b7a5f1a6154ac5464df99e6aa5f943501804e8fa433a05926")


def test_float_fuzz_reports_are_pinned():
    assert _fuzz_digest(FLOAT_FUZZ_CONFIGS) == FLOAT_FUZZ_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_planted_fuzz_reports_are_pinned(monkeypatch, workers):
    """Every failure reason leaves its witnesses, counted and ordered the
    same in serial and parallel runs."""
    _plant_failures(monkeypatch)
    reports = [fuzz_sign_property(config, workers)
               for config in PLANTED_FUZZ_CONFIGS]
    for report in reports:
        reasons = {w["reason"] for w in report.violation_witnesses}
        assert reasons == {"sign", "bound", "oracle"}
        assert report.violations and report.bound_exceedances \
            and report.oracle_mismatches
    assert _fuzz_digest(PLANTED_FUZZ_CONFIGS, workers) == PLANTED_FUZZ_DIGEST


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-10])
def test_float_oracle_check_is_scale_free(monkeypatch, scale):
    """A telescoped jump planted as 2 t + s, for the true t, on a float
    field of averages s * {-1, 0, 1, 2}, is caught at every breakpoint
    where it differs from t by more than round-off, whatever the scale s:
    all 35 at p = 3, and all but the 8 with t = -s at p = 1. Unplanted,
    every breakpoint agrees."""
    import enokit.harness as harness_mod

    rng = random.Random(0)
    xs = [0.0]
    for _ in range(40):
        xs.append(xs[-1] + rng.uniform(0.5, 2.0))
    field = CellAverageField(
        Mesh(xs), [scale * rng.choice((-1, 0, 1, 2)) for _ in range(40)])
    for *_, agrees, _, _ in check_orders(field, (1, 3)):
        assert all(agrees)
    real_jumps = harness_mod.telescoped_jumps
    true = {}

    def planted(table, traces, p, shift):
        true[p] = real_jumps(table, traces, p, shift)
        return [2 * t + scale for t in true[p]]

    monkeypatch.setattr(harness_mod, "telescoped_jumps", planted)
    caught = {}
    for p, _, _, agrees, _, _ in check_orders(field, (1, 3)):
        assert [not a for a in agrees] == [
            abs(t + scale) > 1e-6 * scale for t in true[p]]
        caught[p] = agrees.count(False), len(agrees)
    assert caught == {1: (31, 39), 3: (35, 35)}


def _off_grid_meshes():
    """Meshes whose gaps share no grid with few points: a sevenths mesh of
    20 cells, a 30-cell mesh with gap denominators up to 1000, and a
    20-cell float mesh."""
    rng = random.Random("off-grid check loop")
    sevenths = [Fraction(0)]
    for _ in range(20):
        sevenths.append(sevenths[-1] + Fraction(rng.randint(1, 8),
                                                rng.choice((3, 7))))
    thousandths = [Fraction(1, 3)]
    for _ in range(30):
        den = rng.randint(1, 1000)
        thousandths.append(thousandths[-1]
                           + Fraction(rng.randint(den // 2 + 1, 2 * den), den))
    floats = [0.1]
    for _ in range(20):
        floats.append(floats[-1] + rng.uniform(0.5, 2.0))
    return {"sevenths": sevenths, "thousandths": thousandths,
            "float": floats}


def _off_grid_check_digest():
    """sha256 over the repr of every output of check_orders, orders 1..6,
    on each _off_grid_meshes mesh, for both kinds: int data with a step,
    some of them nudged by 1e-9 (as floats on the float mesh)."""
    digest = hashlib.sha256()
    for name, xs in _off_grid_meshes().items():
        for kind in ("reconstruction", "interpolation"):
            rng = random.Random(f"{name}:{kind}")
            count = len(xs) - 1 if kind == "reconstruction" else len(xs)
            values = [v + Fraction(1, 10 ** 9) if i % 5 == 2 else v
                      for i, v in enumerate(random_int_values(rng, count))]
            values[count // 2:] = [v + 4 for v in values[count // 2:]]
            if name == "float":
                values = [float(v) for v in values]
            field = (CellAverageField(Mesh(xs), values)
                     if kind == "reconstruction"
                     else PointValueField(xs, values))
            for p, traces, report, agrees, bound, within in check_orders(
                    field, range(1, 7)):
                digest.update(repr((p, list(traces), report, agrees, bound,
                                    within)).encode())
                digest.update(b"\n")
    return digest.hexdigest()


# Recorded while tables over meshes off one small grid were still built in
# the field's coordinates, and their exact oracle compared telescoped_jumps.
OFF_GRID_CHECK_DIGEST = (
    "7d16f49f8415bf34e2ea0a3567c26bb7bc51e46d6edf2f05bd383ffa21c95fa9")


def test_off_grid_check_loop_is_pinned():
    assert _off_grid_check_digest() == OFF_GRID_CHECK_DIGEST
