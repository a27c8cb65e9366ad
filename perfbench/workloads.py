"""The benchmark's three workloads: inputs, timed operations and checks.

Each workload makes its inputs from the run's seed, builds the program's
objects through enokit's public constructors (`build`, timed as set-up),
and runs one part per kind (`run`, timed). A pass is the reconstruction
part followed by the interpolation part. `record` keeps what the checks
need after each pass, outside the timed parts and in compact form, so the
peak memory read after the samples is the program's. `check` runs the
exact reference once the samples are over.

Every operation of a pass is attempted in every pass, so the share of
failed operations is the same in every run.
"""

import csv
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import reference

KINDS = ("reconstruction", "interpolation")

# Float traces must equal the exact traces on the reported stencils to
# within this share of the field's data scale.
FLOAT_TRACE_TOL = 1e-9

# Breakpoints per operation checked against exact traces, besides every
# breakpoint the program calls a VIOLATION.
PROBES_PER_OP = 16


def _move_mask(offsets):
    """Stages at which a stencil moved left, as bits of one small int."""
    mask = 0
    for j in range(1, len(offsets)):
        if offsets[j] != offsets[j - 1]:
            mask |= 1 << j
    return mask


def breakpoint_count(size, p):
    """Breakpoints with full windows: `size` cells or nodes at order p."""
    return size - 2 * p + 1


class FloatTraces:
    """`sign_report` of float `interface_traces` / `midpoint_traces`.

    Three fields on random non-dyadic meshes, each given as cell averages
    and as point values, at p = 3 and 6:
    - `ints`: 4096 cells, random integers in [-10^6, 10^6];
    - `smooth`: 2048 cells, 1000 sin(x / l + phi) at cell midpoints or nodes;
    - `steps`: 2048 cells of piecewise-constant integers, widths from
      {0.1, 0.3, 1/3, 0.7} times U(0.9, 1.1), made from a fixed seed.
    The first two depend on the run's seed and must match exact ENO on
    every breakpoint. `steps` does not depend on the seed: its float
    reconstruction selects other stencils than exact ENO and reports false
    VIOLATIONs, so those two operations fail in every pass.
    """

    name = "float-traces"
    ORDERS = (3, 6)
    STEPS_SEED = 1

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.rng = rng
        self.inputs = {}
        xs = self._mesh(rng, 4096)
        self.inputs["ints"] = (
            xs,
            [float(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(4096)],
            [float(rng.randint(-10 ** 6, 10 ** 6)) for _ in range(4097)],
        )
        xs = self._mesh(rng, 2048)
        ell = rng.uniform(2.0, 4.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        mids = [(xs[i] + xs[i + 1]) / 2 for i in range(2048)]
        self.inputs["smooth"] = (
            xs,
            [1000.0 * math.sin(x / ell + phase) for x in mids],
            [1000.0 * math.sin(x / ell + phase) for x in xs],
        )
        self.inputs["steps"] = self._steps(random.Random(self.STEPS_SEED), 2048)
        self.ops = [(name, kind, p) for name in self.inputs for kind in KINDS
                    for p in self.ORDERS]
        self.ops_per_pass = len(self.ops)
        self.breakpoints = {kind: 0 for kind in KINDS}
        for name, kind, p in self.ops:
            xs, averages, values = self.inputs[name]
            size = len(averages) if kind == "reconstruction" else len(values)
            self.breakpoints[kind] += breakpoint_count(size, p)
        self.first = {}
        self.errors = []

    @staticmethod
    def _mesh(rng, n):
        xs = [0.0]
        for _ in range(n):
            xs.append(xs[-1] + rng.uniform(0.5, 2.0))
        return xs

    @staticmethod
    def _steps(rng, n):
        xs = [0.0]
        for _ in range(n):
            xs.append(xs[-1] + rng.choice((0.1, 0.3, 1 / 3, 0.7)) * rng.uniform(0.9, 1.1))
        level = rng.randint(-8, 8)
        data = []
        for _ in range(2 * n + 1):
            if rng.random() < 0.02:
                level = rng.randint(-8, 8)
            data.append(float(level))
        return xs, data[:n], data[n:]

    def build(self, api):
        self.api = api
        self.fields = {}
        for name, (xs, averages, values) in self.inputs.items():
            self.fields[(name, "reconstruction")] = api.CellAverageField(
                api.Mesh(xs), averages)
            self.fields[(name, "interpolation")] = api.PointValueField(xs, values)

    def _traces(self, kind):
        api = self.api
        return api.interface_traces if kind == "reconstruction" else api.midpoint_traces

    def run(self, kind, pass_index):
        traces = self._traces(kind)
        sign_report = self.api.sign_report
        return [sign_report(traces(self.fields[(name, k)], p))
                for name, k, p in self.ops if k == kind]

    def first_pass(self):
        """One pass that keeps, per operation, what the checks need."""
        for name, kind, p in self.ops:
            traces = self._traces(kind)(self.fields[(name, kind)], p)
            report = self.api.sign_report(traces)
            masks = bytes(_move_mask(t.left_signature.offsets) for t in traces)
            masks += bytes([_move_mask(traces[-1].right_signature.offsets)])
            chosen = set(self.rng.sample(range(len(traces)), PROBES_PER_OP))
            chosen.update(i for i, v in enumerate(report.verdicts) if v == "VIOLATION")
            probes = [(traces[i].index, traces[i].left, traces[i].right,
                       report.verdicts[i], traces[i].left_signature.offsets,
                       traces[i].right_signature.offsets) for i in sorted(chosen)]
            self.first[(name, kind, p)] = {
                "masks": masks,
                "probes": probes,
                "count": len(traces),
                "summary": (report.counts, report.max_ratio),
            }

    def record(self, pass_index, results):
        for kind, reports in results.items():
            ops = [op for op in self.ops if op[1] == kind]
            for op, report in zip(ops, reports):
                if (report.counts, report.max_ratio) != self.first[op]["summary"]:
                    self.errors.append(f"{op}: a later pass returned other counts or max ratio")

    def check(self):
        """Compare every first-pass result with exact ENO on the same binary
        inputs. Returns the operations that failed in each pass."""
        failed = []
        for name, (xs, averages, values) in self.inputs.items():
            scale = max(1.0, max(abs(v) for v in averages + values))
            exact = {
                "reconstruction": reference.Reconstruction(xs, averages, max(self.ORDERS)),
                "interpolation": reference.Interpolation(xs, values, max(self.ORDERS)),
            }
            for kind in KINDS:
                ref = exact[kind]
                for p in self.ORDERS:
                    op = (name, kind, p)
                    got = self.first[op]
                    owners = ref.owners(p)
                    if got["count"] != len(ref.breakpoints(p)):
                        self.errors.append(f"{op}: {got['count']} breakpoints, expected "
                                           f"{len(ref.breakpoints(p))}")
                        continue
                    selected = {}
                    mismatches = 0
                    for cell, mask in zip(owners, got["masks"]):
                        offsets = ref.select(cell, p)[0]
                        selected[cell] = offsets
                        if _move_mask(offsets) != mask:
                            mismatches += 1
                    verdicts_differ = 0
                    for index, left, right, verdict, lsig, rsig in got["probes"]:
                        want_left, want_right = ref.traces(index, lsig, rsig)
                        for have, want in ((left, want_left), (right, want_right)):
                            if abs(Fraction(have) - want) > FLOAT_TRACE_TOL * scale:
                                self.errors.append(
                                    f"{op}: trace {have!r} at breakpoint {index} is "
                                    f"{float(Fraction(have) - want):.3g} off the exact "
                                    "trace on its own stencil")
                        lcell, rcell, data_jump = ref.sides(index)
                        exact_verdict = reference.verdict(
                            *ref.traces(index, selected[lcell], selected[rcell]),
                            data_jump)
                        if (verdict == "VIOLATION") != (exact_verdict == "VIOLATION"):
                            verdicts_differ += 1
                    if mismatches or verdicts_differ:
                        failed.append((op, mismatches, verdicts_differ))
        return failed


class ExactFuzz:
    """`fuzz_sign_property` with workers=1, both kinds, on the gate corpora's
    shape: 30 cells, orders 1-6, `mixed` data, exact backend.

    Each sample runs TRIALS trials; the sample's seed cycles through SEEDS
    seeds drawn from the run's seed, so a run sees SEEDS * TRIALS distinct
    trials of each kind.
    """

    name = "exact-fuzz"
    TRIALS = 6
    SEEDS = 16
    CELLS = 30
    ORDERS = (1, 2, 3, 4, 5, 6)

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = [rng.randrange(2 ** 31) for _ in range(self.SEEDS)]
        self.ops_per_pass = len(KINDS)
        per_trial = {
            "reconstruction": sum(breakpoint_count(self.CELLS, p)
                                  for p in self.ORDERS),
            "interpolation": sum(breakpoint_count(self.CELLS + 1, p)
                                 for p in self.ORDERS),
        }
        self.breakpoints = {k: self.TRIALS * n for k, n in per_trial.items()}
        self.reports = {}
        self.errors = []

    def build(self, api):
        self.api = api
        self.configs = {
            kind: [api.FuzzConfig(seed=s, trials=self.TRIALS, cells=self.CELLS,
                                  orders=self.ORDERS, backend="exact",
                                  distribution="mixed", kind=kind)
                   for s in self.seeds]
            for kind in KINDS
        }

    def run(self, kind, pass_index):
        config = self.configs[kind][pass_index % self.SEEDS]
        return [self.api.fuzz_sign_property(config, workers=1)]

    def first_pass(self):
        self.record(0, {kind: self.run(kind, 0) for kind in KINDS})

    def record(self, pass_index, results):
        slot = pass_index % self.SEEDS
        for kind, (report,) in results.items():
            key = (kind, slot)
            if key not in self.reports:
                self.reports[key] = (report, report.to_json())
            elif report.to_json() != self.reports[key][1]:
                self.errors.append(f"{kind} seed {self.seeds[slot]}: a later sample "
                                   "returned another report")

    def check(self):
        for (kind, slot), (report, _) in sorted(self.reports.items()):
            where = f"{kind} seed {self.seeds[slot]}"
            if report.interfaces_checked != self.breakpoints[kind]:
                self.errors.append(f"{where}: {report.interfaces_checked} interfaces "
                                   f"checked, expected {self.breakpoints[kind]}")
            for field in ("violations", "bound_exceedances", "oracle_mismatches"):
                if getattr(report, field):
                    self.errors.append(f"{where}: {field} = {getattr(report, field)}")
            ratios = report.max_ratio_per_order
            bounds = report.bound_per_order
            if ratios.get(1) != "1" or bounds.get(1) != "1":
                self.errors.append(f"{where}: p = 1 ratio {ratios.get(1)} and bound "
                                   f"{bounds.get(1)}, expected 1 and 1")
            for p in self.ORDERS:
                if ratios.get(p) is None or Fraction(ratios[p]) > Fraction(bounds[p]):
                    self.errors.append(f"{where}: p = {p} ratio {ratios.get(p)} "
                                       f"over bound {bounds.get(p)}")
            self._check_witness(where, kind, report.worst_witness)
        return []

    def _check_witness(self, where, kind, witness):
        if witness is None:
            self.errors.append(f"{where}: no worst witness")
            return
        p = witness["order"]
        index = witness["index"]
        xs = witness["coordinates"]
        data = witness["data"]
        if kind == "reconstruction":
            ref = reference.Reconstruction(xs, data, p)
        else:
            ref = reference.Interpolation(xs, data, p)
        lcell, rcell, data_jump = ref.sides(index)
        left, right = ref.traces(index, ref.select(lcell, p)[0],
                                 ref.select(rcell, p)[0])
        got = reference.ratio(left, right, data_jump)
        if got != Fraction(witness["ratio"]):
            self.errors.append(f"{where}: worst witness ratio {witness['ratio']}, "
                               f"reference {got}")


class CliVerify:
    """`enokit.cli.main`, in-process, on CSV files with decimal coordinates
    and random integer data.

    A pass runs exact `verify` of each kind on VERIFY_ROWS rows, then float
    `reconstruct` and `interpolate` on FLOAT_ROWS rows, all at order ORDER,
    writing into the run's work directory.
    """

    name = "cli-verify"
    VERIFY_ROWS = 300
    FLOAT_ROWS = 1500
    ORDER = 3
    PROBES = 24

    def __init__(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        self.rng = rng
        self.workdir = workdir
        files = {}
        for label, rows in (("verify", self.VERIFY_ROWS), ("float", self.FLOAT_ROWS)):
            files[(label, "reconstruction")] = self._write_cells(
                rng, os.path.join(workdir, f"{label}_cells.csv"), rows)
            files[(label, "interpolation")] = self._write_points(
                rng, os.path.join(workdir, f"{label}_points.csv"), rows)
        self.files = files
        p = str(self.ORDER)
        self.commands = {kind: [] for kind in KINDS}
        for kind in KINDS:
            verify_in = files[("verify", kind)][0]
            float_in = files[("float", kind)][0]
            stem = "reconstruct" if kind == "reconstruction" else "interpolate"
            self.commands[kind].append((
                "verify", ("verify", "--input", verify_in, "--kind", kind, "--order", p,
                           "--backend", "exact", "--output",
                           os.path.join(workdir, f"verify_{kind}.json"))))
            self.commands[kind].append((
                "float", (stem, "--input", float_in, "--order", p, "--backend", "float",
                          "--output", os.path.join(workdir, f"{stem}.csv"))))
        self.ops_per_pass = sum(len(c) for c in self.commands.values())
        self.breakpoints = {
            kind: breakpoint_count(self.VERIFY_ROWS, self.ORDER)
            + breakpoint_count(self.FLOAT_ROWS, self.ORDER)
            for kind in KINDS
        }
        self.first = {}
        self.errors = []
        self.rows_out = 0
        self.extra_ops = 0

    @staticmethod
    def _decimals(rng, count):
        """Coordinates in thousandths, printed as decimals."""
        ticks = [0]
        for _ in range(count - 1):
            ticks.append(ticks[-1] + rng.randint(500, 2000))
        return [f"{t // 1000}.{t % 1000:03d}" for t in ticks]

    def _write_cells(self, rng, path, rows):
        xs = self._decimals(rng, rows + 1)
        data = [str(rng.randint(-100, 100)) for _ in range(rows)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("x_left", "x_right", "avg"))
            writer.writerows(zip(xs, xs[1:], data))
        return path, xs, data

    def _write_points(self, rng, path, rows):
        xs = self._decimals(rng, rows)
        data = [str(rng.randint(-100, 100)) for _ in range(rows)]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("x", "value"))
            writer.writerows(zip(xs, data))
        return path, xs, data

    def build(self, api):
        self.api = api

    def run(self, kind, pass_index):
        cli = self.api.cli
        return [cli.main(list(argv)) for _, argv in self.commands[kind]]

    def first_pass(self):
        self.record(0, {kind: self.run(kind, 0) for kind in KINDS})

    def _output(self, argv):
        with open(argv[argv.index("--output") + 1], "rb") as handle:
            return handle.read()

    def record(self, pass_index, results):
        for kind, codes in results.items():
            for (label, argv), code in zip(self.commands[kind], codes):
                if code != 0:
                    self.errors.append(f"{argv[0]} {kind}: exit code {code}")
                output = self._output(argv)
                digest = hashlib.sha256(output).hexdigest()
                key = (label, kind)
                if key not in self.first:
                    self.first[key] = (digest, self._keep(label, output))
                    if label == "float":
                        self.rows_out += self.first[key][1][0]
                elif digest != self.first[key][0]:
                    self.errors.append(f"{argv[0]} {kind}: a later pass wrote other output")

    def _keep(self, label, output):
        if label == "verify":
            return json.loads(output)
        rows = list(csv.reader(output.decode().splitlines()))
        picks = sorted(self.rng.sample(range(1, len(rows)), min(self.PROBES, len(rows) - 1)))
        return len(rows) - 1, [(i - 1, rows[i]) for i in picks]

    def check(self):
        p = self.ORDER
        for kind in KINDS:
            _, xs, data = self.files[("verify", kind)]
            ref = self._reference(kind, xs, data)
            self._check_verify(kind, ref, self.first[("verify", kind)][1])
            _, xs, data = self.files[("float", kind)]
            ref = self._reference(kind, [float(x) for x in xs], [float(v) for v in data])
            scale = max(1.0, max(abs(float(v)) for v in data))
            count, rows = self.first[("float", kind)][1]
            expected = breakpoint_count(len(data), p)
            if count != expected:
                self.errors.append(f"float {kind}: {count} rows, expected {expected}")
            breakpoints = ref.breakpoints(p)
            for position, row in rows:
                index = breakpoints[position]
                lsig = tuple(int(k) for k in row[5].split(","))
                rsig = tuple(int(k) for k in row[6].split(","))
                want = ref.traces(index, lsig, rsig)
                for text, exact in zip(row[1:3], want):
                    if abs(Fraction(float(text)) - exact) > FLOAT_TRACE_TOL * scale:
                        self.errors.append(f"float {kind}: row {position + 1} trace "
                                           f"{text} is off the exact trace on its stencil")
        self._check_uniform_bounds()
        return []

    def _reference(self, kind, xs, data):
        if kind == "reconstruction":
            return reference.Reconstruction(xs, data, self.ORDER)
        return reference.Interpolation(xs, data, self.ORDER)

    def _check_verify(self, kind, ref, payload):
        p = self.ORDER
        where = f"verify {kind}"
        expected = len(ref.breakpoints(p))
        if payload["interfaces"] != expected:
            self.errors.append(f"{where}: {payload['interfaces']} interfaces, "
                               f"expected {expected}")
        if payload["violations"] or payload["oracle_mismatches"]:
            self.errors.append(f"{where}: {payload['violations']} violations, "
                               f"{payload['oracle_mismatches']} oracle mismatches")
        best = None
        for index in ref.breakpoints(p):
            lcell, rcell, data_jump = ref.sides(index)
            left, right = ref.traces(index, ref.select(lcell, p)[0], ref.select(rcell, p)[0])
            r = reference.ratio(left, right, data_jump)
            if r is not None and (best is None or r > best):
                best = r
        if payload["max_ratio"] is None or Fraction(payload["max_ratio"]) != best:
            self.errors.append(f"{where}: max ratio {payload['max_ratio']}, "
                               f"reference {best}")
        elif Fraction(payload["max_ratio"]) > Fraction(payload["bound"]):
            self.errors.append(f"{where}: max ratio {payload['max_ratio']} over "
                               f"bound {payload['bound']}")

    def _check_uniform_bounds(self):
        for kind, table in reference.PAPER_BOUNDS.items():
            out = os.path.join(self.workdir, f"bounds_{kind}.csv")
            code = self.api.cli.main(["bounds", "--uniform", "--kind", kind,
                              "--order", str(len(table)), "--output", out])
            self.extra_ops += 1
            with open(out, newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            got = [Fraction(b) for _, b in rows]
            if code != 0 or got != [Fraction(b) for b in table]:
                self.errors.append(f"bounds --uniform {kind}: exit {code}, got "
                                   f"{[str(g) for g in got]}, paper {list(table)}")


WORKLOADS = {w.name: w for w in (FloatTraces, ExactFuzz, CliVerify)}
