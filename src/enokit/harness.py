"""Check loop, worst-case generators, randomized fuzzing, convergence studies.

Fuzz trials are reproducible and independent: trial t of seed s draws from
random.Random(f"{s}:{t}"), so a corpus can be replayed trial by trial and
split across workers without changing any draw. All aggregation is
order-independent (sums and max-reductions with total tie-breaks), which
makes serial and parallel runs byte-identical.
"""

import json
import math
import random
from dataclasses import dataclass
from functools import partial

from .eno_interpolation import midpoint_traces
from .eno_reconstruction import interface_traces
from .errors import StencilOutOfRange
from .grid import CellAverageField, Mesh, PointValueField
from .numerics import (
    CELL,
    EXACT,
    FLOAT,
    NODE,
    build_table,
    get_backend,
    grid_integers,
    is_float_data,
    quotient,
)
from .stability import (
    _stage_rows,
    _window_pass,
    relative_jump,
    sign_report,
    telescoped_jumps,
)

ORACLE_FLOAT_TOL = 1e-9
WIDTH_DENOMINATOR = 65536

# The 12-point Gauss-Legendre rule on [-1, 1] (Golub & Welsch 1969) as
# (node, weight) pairs in ascending node order. Its nodes are antisymmetric
# and its weights symmetric, so the six pairs of positive nodes are
# mirrored. tests/test_harness.py pins the literals to leggauss(12)'s,
# bit for bit, where that reference is installed.
_GAUSS_LEGENDRE_HALF = (
    (0.1252334085114689, 0.2491470458134027),
    (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573),
    (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907),
    (0.9815606342467192, 0.04717533638651141),
)
_GAUSS_LEGENDRE_12 = tuple(
    (-t, w) for t, w in reversed(_GAUSS_LEGENDRE_HALF)) + _GAUSS_LEGENDRE_HALF


# ---- Worst case ----

def worst_case_averages(p, epsilon=1e-10, n_cells=20, backend=FLOAT):
    """Perturbed sawtooth of averages whose jump ratio is extremal at x=4.

    Unit-width cells centered so that the interface at coordinate 4 has
    full stencil windows. Averages alternate 0 and 1, with the 1-cells
    left of the target interface lowered to 1-epsilon; the perturbation
    steers every stencil choice toward the configuration that attains the
    uniform-mesh jump bound at the target.

    Args:
        p: order, >= 1.
        epsilon: perturbation, > 0 to attain the bound (0 is allowed and
            demonstrates the collapse when selections tie).
        n_cells: cell count, >= 2p + 10.
        backend: scalar backend for coordinates and averages.

    Raises:
        ValueError: p < 1, or epsilon not >= 0.
        StencilOutOfRange: n_cells too small for the target interface.
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    if n_cells < 2 * p + 10:
        raise StencilOutOfRange(
            f"need at least {2 * p + 10} cells for order {p}; have {n_cells}"
        )
    eps = backend.convert(epsilon)
    if not eps >= 0:
        raise ValueError("epsilon must be >= 0")
    zero = backend.convert(0)
    one = backend.convert(1)
    start = 4 - n_cells // 2
    mesh = Mesh([backend.convert(start + k) for k in range(n_cells + 1)])
    averages = []
    for c in range(n_cells):
        i = start + c + 1
        if i % 2 == 0:
            averages.append(zero)
        elif i >= 5:
            averages.append(one)
        else:
            averages.append(one - eps)
    return CellAverageField(mesh, averages)


def worst_case_ratio(p, epsilon=1e-10, n_cells=20, backend=FLOAT):
    """Relative trace jump of the worst-case field at coordinate 4."""
    field = worst_case_averages(p, epsilon, n_cells, backend)
    # Interface n_cells // 2 is interior: worst_case_averages asks for
    # n_cells >= 2p + 10, and traces start at interface p.
    return relative_jump(interface_traces(field, p)[n_cells // 2 - p])


# ---- Checks ----

def check_orders(field, orders):
    """Traces, sign verdicts, oracle agreement and jump bounds, order by order.

    A CellAverageField is reconstructed, a PointValueField interpolated;
    one divided-difference table serves every order, trace, oracle and
    bound. An exact table is over the coordinates' grid_integers, on any
    mesh; a float table over the float coordinates, whose exact values'
    grid_integers the bounds are taken on. The distinct orders are traced
    in ascending order, so each resumes the stage-wise selection and
    evaluation the previous one left on the table. Each order is one
    columnar pass, and the verdicts read the batch's `jumps`. One
    stability._window_pass call per order builds the window products at
    every breakpoint once and gives each breakpoint's jump bound as an int
    pair. On an exact batch it also decides the oracle there,
    cross-multiplying the telescoped sum with the jump; an approximate
    batch gets the oracle's column from `telescoped_jumps`.
    Yields (p, traces, sign_report(traces), agrees, bound, within) in the
    order given; traces is a TraceBatch, and at its breakpoint i agrees[i]
    says whether the telescoped jump equals traces.jumps[i] and within[i]
    whether the ratio is None or at most the exact jump bound there,
    compared by int cross-multiplication. bound is the largest of those
    bounds, one exact rational (None for a batch with no breakpoint). An
    approximate batch gets ORACLE_FLOAT_TOL of slack on both: of the local
    scale max(|left|, |right|, |data_jump|), the one the float verdicts
    use, so the oracle check has no absolute floor; and as the bound's
    factor 1 + tol. Raises StencilOutOfRange, before yielding anything,
    when an order does not fit the data.
    """
    orders = tuple(orders)
    if not orders:
        return
    if isinstance(field, CellAverageField):
        coords, data, shift = field.mesh.interfaces, field.averages, CELL
    else:
        coords, data, shift = field.nodes, field.values, NODE
    traces_of = interface_traces if shift == CELL else midpoint_traces
    table = build_table(coords, data, min(max(orders) + shift, len(coords) - 1),
                        shift, grid=True)
    # An exact table is on grid_integers; a float one gives the bounds its
    # points' exact grid_integers.
    X = table.points
    if is_float_data(X[:1]):
        X = grid_integers(X)
    rows = _stage_rows(X, max(orders), shift)
    slack = 1 + EXACT.convert(ORACLE_FLOAT_TOL)
    checked = {}
    for p in sorted(set(orders)):
        traces = traces_of(field, p, table=table)
        report = sign_report(traces)
        if traces.approximate:
            nums, dens, _ = _window_pass(X, rows, p, shift, traces.index)
            telescoped = telescoped_jumps(table, traces, p, shift)
            agrees = [abs(tele - jump)
                      <= ORACLE_FLOAT_TOL * max(abs(a), abs(b), abs(d))
                      for tele, jump, a, b, d in zip(
                          telescoped, traces.jumps, traces.left,
                          traces.right, traces.data_jump)]
        else:
            nums, dens, agrees = _window_pass(
                X, rows, p, shift, traces.index, table.levels[p + shift],
                traces)
        within = _within(report.ratios, nums, dens,
                         slack if traces.approximate else None)
        checked[p] = p, traces, report, agrees, _largest(nums, dens), within
    for p in orders:
        yield checked[p]


def _largest(nums, dens):
    """The largest of the ratios nums[i] / dens[i] of positive ints, one
    rational, by cross-multiplication; None for no ratio."""
    if not nums:
        return None
    num, den = nums[0], dens[0]
    for n, d in zip(nums, dens):
        if n * den > num * d:
            num, den = n, d
    return quotient(num, den)


def _within(ratios, nums, dens, slack=None):
    """Whether each ratio is None or at most nums[i] / dens[i] times slack,
    exactly, by int cross-multiplication: exact ratios by their numerator
    and denominator, float ones by as_integer_ratio, an infinite float
    by its sign. No slack is a factor of 1."""
    if slack is None:
        return [r is None or r.numerator * d <= n * r.denominator
                for r, n, d in zip(ratios, nums, dens)]
    sn, sd = slack.numerator, slack.denominator
    within = []
    for r, n, d in zip(ratios, nums, dens):
        if r is None:
            within.append(True)
        elif math.isfinite(r):
            a, b = r.as_integer_ratio()
            within.append(a * d * sd <= n * sn * b)
        else:
            within.append(r < 0)
    return within


# ---- Fuzzing ----

@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible description of one fuzz corpus."""

    seed: int = 0
    trials: int = 100
    cells: int = 30
    orders: tuple = (1, 2, 3, 4, 5, 6)
    width_low: float = 0.5
    width_high: float = 2.0
    backend: str = "exact"
    distribution: str = "mixed"
    kind: str = "reconstruction"

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.cells < 2:
            raise ValueError("cells must be >= 2")
        if not self.orders or any(p < 1 for p in self.orders):
            raise ValueError("orders must be a nonempty sequence of p >= 1")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError("orders must be distinct")
        if not 0 < self.width_low <= self.width_high:
            raise ValueError("cell widths need 0 < low <= high")
        if not math.isfinite(self.width_high * WIDTH_DENOMINATOR):
            raise ValueError("cell widths need a finite upper bound")
        lo, hi = _width_ticks(self)
        if lo > hi:
            raise ValueError(
                f"no cell width in [{self.width_low!r}, {self.width_high!r}] "
                f"is a multiple of 1/{WIDTH_DENOMINATOR}")
        if self.backend not in ("float", "exact"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.distribution not in ("mixed", "uniform-int"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.kind not in ("reconstruction", "interpolation"):
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class FuzzReport:
    """Aggregated outcome of a fuzz corpus; all counters order-independent."""

    config: FuzzConfig
    trials_run: int
    interfaces_checked: int
    violations: int
    bound_exceedances: int
    oracle_mismatches: int
    max_ratio_per_order: dict
    bound_per_order: dict
    worst_witness: object
    violation_witnesses: tuple

    def to_json(self):
        """Canonical JSON with stable key order."""
        payload = {
            "interfaces": self.interfaces_checked,
            "violations": self.violations,
            "max_ratio": {str(p): v for p, v in self.max_ratio_per_order.items()},
            "bound": {str(p): v for p, v in self.bound_per_order.items()},
            "seed": self.config.seed,
            "order": list(self.config.orders),
            "backend": self.config.backend,
            "kind": self.config.kind,
            "trials": self.trials_run,
            "cells": self.config.cells,
            "distribution": self.config.distribution,
            "bound_exceedances": self.bound_exceedances,
            "oracle_mismatches": self.oracle_mismatches,
            "worst_witness": self.worst_witness,
            "violation_witnesses": list(self.violation_witnesses),
        }
        return json.dumps(payload, sort_keys=True)


def _width_ticks(config):
    """Smallest and largest cell width, in units of 1/WIDTH_DENOMINATOR."""
    return (math.ceil(config.width_low * WIDTH_DENOMINATOR),
            math.floor(config.width_high * WIDTH_DENOMINATOR))


def _trial_values(rng, count, distribution):
    roll = rng.random() if distribution == "mixed" else 0.0
    if roll < 0.7:
        return [rng.randint(-8, 8) for _ in range(count)]
    a = rng.randint(-8, 8)
    b = rng.randint(-8, 8)
    if b == a:
        b = a + 1
    if roll < 0.8:
        return [a if i % 2 == 0 else b for i in range(count)]
    split = rng.randint(1, count - 1)
    if roll < 0.9:
        return [a] * split + [b] * (count - split)
    eps = EXACT.convert(1) / 10 ** rng.randint(6, 12)
    values = [a if i % 2 == 0 else b for i in range(count)]
    for i in range(split, count):
        if i % 2 == 1:
            values[i] = b - eps
    return values


def _trial_inputs(config, trial):
    """Coordinates and data values of one trial, in exact scalars."""
    rng = random.Random(f"{config.seed}:{trial}")
    lo, hi = _width_ticks(config)
    coords = [EXACT.convert(0)]
    for _ in range(config.cells):
        width = EXACT.convert(rng.randint(lo, hi)) / WIDTH_DENOMINATOR
        coords.append(coords[-1] + width)
    count = config.cells if config.kind == "reconstruction" else config.cells + 1
    return coords, _trial_values(rng, count, config.distribution)


def _run_fuzz_trial(config, trial):
    """Evaluate one trial; returns a picklable tuple of plain values.

    (counts, max_ratio, bound, best, inputs, witnesses): the interface,
    violation, bound-exceedance and oracle-mismatch counts, read off the
    check loop's columns as `enokit verify` reads them; each fitting
    order's largest ratio (None if no data jump is nonzero) and largest
    bound; the key (ratio, -trial, -order, -index) of the trial's largest
    ratio, or None; the serialized coordinates and data; and a witness for
    each check that fails at a breakpoint.
    """
    backend = get_backend(config.backend)
    coords, values = _trial_inputs(config, trial)
    reconstruction = config.kind == "reconstruction"
    room = len(coords) - 1 if reconstruction else len(coords)
    orders = [p for p in config.orders if room >= 2 * p]
    if not backend.exact:
        coords = [float(x) for x in coords]
        values = [float(v) for v in values]
    if reconstruction:
        field = CellAverageField(Mesh(coords), values)
    else:
        field = PointValueField(coords, values)
    coordinates = [backend.serialize(x) for x in coords]
    data = [backend.serialize(v) for v in values]
    counts = (0, 0, 0, 0)
    max_ratio = {}
    bound = {}
    best = None
    witnesses = []
    for p, traces, report, agrees, largest, within in check_orders(field, orders):
        tally = (len(traces), report.violations, within.count(False),
                 agrees.count(False))
        counts = tuple(map(sum, zip(counts, tally)))
        max_ratio[p] = report.max_ratio
        bound[p] = largest
        if report.max_ratio is not None:
            index = traces.index[report.ratios.index(report.max_ratio)]
            key = (report.max_ratio, -trial, -p, -index)
            best = key if best is None else max(best, key)
        if not any(tally[1:]):
            continue
        # The report sorts the witnesses, so each reason is collected in turn.
        for reason, passed in (
                ("sign", [v != "VIOLATION" for v in report.verdicts]),
                ("bound", within), ("oracle", agrees)):
            for t in (traces[i] for i, ok in enumerate(passed) if not ok):
                witnesses.append(dict(
                    trial=trial, order=p, index=t.index, reason=reason,
                    coordinates=coordinates, data=data,
                    left=backend.serialize(t.left),
                    right=backend.serialize(t.right),
                    data_jump=backend.serialize(t.data_jump)))
    return counts, max_ratio, bound, best, (coordinates, data), witnesses


def fuzz_sign_property(config, workers=1):
    """Run the corpus described by config and aggregate one FuzzReport.

    Deterministic for a fixed config: trials draw from per-trial RNG
    streams and every aggregate is order-independent, so any workers
    value (and any trial interleaving) produces the identical report.
    Trials hand back values; the report serializes each one once.

    Args:
        config: FuzzConfig.
        workers: process count, capped at config.trials; 1 runs
            in-process.

    Raises:
        ValueError: workers below 1.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    trial_ids = range(config.trials)
    runner = partial(_run_fuzz_trial, config)
    # A process pool forks all of its workers on the first submit.
    workers = min(workers, config.trials)
    if workers > 1:
        # Imported only here: loading the process pool is a large share of
        # importing enokit, and only a parallel run uses it.
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, config.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(runner, trial_ids, chunksize=chunk))
    else:
        results = [runner(t) for t in trial_ids]
    backend = get_backend(config.backend)
    counts, ratios, bounds, bests, inputs, witnesses = zip(*results)
    interfaces, violations, exceedances, mismatches = map(sum, zip(*counts))
    # Every trial fits the same orders. Among equal ratios, max keeps the
    # earliest trial's.
    max_ratio = {}
    for p in sorted(ratios[0]):
        top = max((r[p] for r in ratios if r[p] is not None), default=None)
        max_ratio[p] = None if top is None else backend.serialize(top)
    best = max((key for key in bests if key is not None), default=None)
    worst = None
    if best is not None:
        ratio, trial, order, index = best
        coordinates, data = inputs[-trial]
        worst = dict(ratio=backend.serialize(ratio), trial=-trial,
                     order=-order, index=-index, coordinates=coordinates,
                     data=data)
    return FuzzReport(
        config=config,
        trials_run=config.trials,
        interfaces_checked=interfaces,
        violations=violations,
        bound_exceedances=exceedances,
        oracle_mismatches=mismatches,
        max_ratio_per_order=max_ratio,
        bound_per_order={p: EXACT.serialize(max(b[p] for b in bounds))
                         for p in sorted(bounds[0])},
        worst_witness=worst,
        violation_witnesses=tuple(sorted(
            (w for trial_witnesses in witnesses for w in trial_witnesses),
            key=lambda w: (w["trial"], w["order"], w["index"], w["reason"]))),
    )


# ---- Convergence ----

@dataclass(frozen=True)
class RateTable:
    """L-infinity trace errors per order and resolution, with fitted rates.

    errors[i][j] is the max interface-trace error at orders[i] on
    resolutions[j] cells; rates[i] is the fitted decay exponent of that
    row against resolution.
    """

    orders: tuple
    resolutions: tuple
    errors: tuple
    rates: tuple


def convergence_study(sampler, orders, resolutions, domain=(0.0, 1.0)):
    """Refine a smooth sampler and fit interface-trace error decay rates.

    Cell averages are formed by 12-point Gauss-Legendre quadrature of the
    sampler, its weighted samples summed by math.fsum, so in no particular
    order. Traces are compared against the sampler at every interior
    interface, and each order's max errors (clamped below at 1e-300) are
    fitted to a power of the resolution by least squares in log-log
    coordinates: the rate is minus statistics.linear_regression's slope.
    Needs nothing outside the standard library.

    Args:
        sampler: smooth callable on the domain, float to float.
        orders: iterable of distinct p >= 1.
        resolutions: strictly increasing cell counts, at least two, each
            >= 2*max(orders).
        domain: (left, right) interval.
    """
    orders = tuple(orders)
    resolutions = tuple(resolutions)
    if len(resolutions) < 2 or any(
            resolutions[i] >= resolutions[i + 1] for i in range(len(resolutions) - 1)):
        raise ValueError("resolutions must be strictly increasing, two or more")
    if any(p < 1 for p in orders) or not orders:
        raise ValueError("orders must be a nonempty sequence of p >= 1")
    if len(set(orders)) != len(orders):
        raise ValueError("orders must be distinct")
    if resolutions[0] < 2 * max(orders):
        raise StencilOutOfRange(
            f"coarsest resolution {resolutions[0]} cannot host order {max(orders)}"
        )
    a, b = float(domain[0]), float(domain[1])
    errors = []
    for p in orders:
        row = []
        for ncells in resolutions:
            X = [a + (b - a) * k / ncells for k in range(ncells + 1)]
            averages = []
            for i in range(ncells):
                mid = 0.5 * (X[i] + X[i + 1])
                half = 0.5 * (X[i + 1] - X[i])
                averages.append(0.5 * math.fsum(
                    w * sampler(mid + half * t) for t, w in _GAUSS_LEGENDRE_12))
            traces = interface_traces(CellAverageField(Mesh(X), averages), p)
            err = 0.0
            for x, left, right in zip(traces.location, traces.left,
                                      traces.right):
                truth = sampler(x)
                err = max(err, abs(left - truth), abs(right - truth))
            row.append(err)
        errors.append(tuple(row))
    # Imported here, not at module scope, so importing enokit does not
    # load statistics.
    from statistics import linear_regression

    log_n = [math.log(n) for n in resolutions]
    # 0.0 - slope, not -slope: a zero slope gives a rate of 0.0, not -0.0.
    rates = tuple(
        0.0 - linear_regression(
            log_n, [math.log(max(e, 1e-300)) for e in row]).slope
        for row in errors)
    return RateTable(orders, resolutions, tuple(errors), rates)
