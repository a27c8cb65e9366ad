"""enokit benchmark: one workload per run, serial, on a plain install.

Run from the repository root:

    python3 perfbench/run.py --workload float-traces --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics: set-up time, reconstruction and
interpolation rates in breakpoints per reference-loop run, and peak
resident memory. `--trace 1` prints the per-layer metrics instead. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Iterations of the reference loop; fixed, so that breakpoints/ref means the
# same on every commit.
REF_ITERATIONS = 200_000


def reference_loop():
    """Seconds taken by a fixed loop of built-in int and float arithmetic.

    It touches nothing the program imports or configures, so dividing a
    sample's wall time by it cancels the host's own drift in speed.
    """
    start = perf_counter()
    k = 1
    x = 0.5
    for _ in range(REF_ITERATIONS):
        k = (k * 69069 + 1) & 0xFFFFFFFF
        x = x * 0.999 + (k >> 22) * 1e-3
    return perf_counter() - start


def import_program():
    """Import enokit and enokit.cli from the checkout's src/, nowhere else."""
    sys.path.insert(0, SRC)
    import enokit
    import enokit.cli  # noqa: F401
    where = os.path.dirname(os.path.abspath(enokit.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"enokit imported from {where}, not from {SRC}")
    return enokit


def machine_facts(api):
    import importlib.util
    numpy = sys.modules.get("numpy")
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "compiled_kernels": bool(getattr(api, "HAVE_COMPILED", False)),
        "ENOKIT_PURE": os.environ.get("ENOKIT_PURE"),
    }


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Wall times of each part, and the reference loop timed before it."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.ref = []
        self.norm = {}
        self.walls = []

    def take(self, workload, pass_index):
        results = {}
        wall = 0.0
        for kind in self.kinds:
            ref = reference_loop()
            start = perf_counter()
            results[kind] = workload.run(kind, pass_index)
            elapsed = perf_counter() - start
            self.ref.append(ref)
            self.norm.setdefault(kind, []).append(elapsed / ref)
            wall += elapsed
        self.walls.append(wall)
        return results


def run_passes(workload, samples, seconds, first_index, tracer=None, per_pass=None):
    """Timed passes until `seconds` have gone by; at least one."""
    index = first_index
    start = perf_counter()
    while index == first_index or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        results = samples.take(workload, index)
        if tracer is not None:
            per_pass.append((tracer.self_times_ms(), dict(tracer.counts), list(tracer.inputs)))
        workload.record(index, results)
        index += 1
    return index - first_index


def exact_ties(per_pass):
    """Tied stage decisions of exact ENO on the inputs of each pass's traced
    calls, as one {layer: ties} per pass."""
    import reference
    depth = {}
    for _, _, inputs in per_pass:
        for layer, field, p in inputs:
            if layer == "eno_reconstruction":
                key = (layer, field.mesh.interfaces, field.averages)
            else:
                key = (layer, field.nodes, field.values)
            depth[key] = max(p, depth.get(key, 0))
    exact = {}
    for key, p in depth.items():
        make = (reference.Reconstruction if key[0] == "eno_reconstruction"
                else reference.Interpolation)
        exact[key] = make(key[1], key[2], p)
    counted = {}
    out = []
    for _, _, inputs in per_pass:
        ties = {"eno_reconstruction": 0, "eno_interpolation": 0}
        for layer, field, p in inputs:
            if layer == "eno_reconstruction":
                key = (layer, field.mesh.interfaces, field.averages)
            else:
                key = (layer, field.nodes, field.values)
            if (key, p) not in counted:
                ref = exact[key]
                counted[(key, p)] = sum(ref.select(cell, p)[1] for cell in ref.owners(p))
            ties[layer] += counted[(key, p)]
        out.append(ties)
    return out


def median(values):
    import statistics
    return statistics.median(values) if values else 0.0


def main(argv=None):
    # The program is imported first, before the benchmark's own modules,
    # so that the import is cold and every module it pulls in is its cost.
    start = perf_counter()
    api = import_program()
    import_s = perf_counter() - start

    import argparse
    import json
    import tempfile

    from tracer import SETUP_LAYERS, Tracer
    from workloads import KINDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_tracer = Tracer(lambda layer: layer in SETUP_LAYERS)
        if args.trace:
            setup_tracer.install()
        start = perf_counter()
        workload.build(api)
        build_s = perf_counter() - start
        setup_tracer.uninstall()

        workload.first_pass()
        passes = 1
        samples = Samples(KINDS)
        metrics = {}
        if not args.trace:
            passes += run_passes(workload, samples, args.seconds, passes)
            rss = peak_rss_mb()
            metrics["setup_s"] = (import_s + build_s, "s")
            for kind, name in zip(KINDS, ("recon_rate", "interp_rate")):
                metrics[name] = (workload.breakpoints[kind] / median(samples.norm[kind]),
                                 "breakpoints/ref")
            metrics["peak_rss_mb"] = (rss, "MB")
        else:
            passes += run_passes(workload, samples, args.seconds / 2, passes)
            untraced_ms = median(samples.walls) * 1e3
            tracer = Tracer(lambda layer: layer not in SETUP_LAYERS)
            tracer.install()
            traced = Samples(KINDS)
            per_pass = []
            passes += run_passes(workload, traced, args.seconds / 2, passes, tracer, per_pass)
            tracer.uninstall()
            alloc_kb = traced_alloc_kb(workload, KINDS, passes)
            passes += 1
            metrics.update(layer_metrics(
                workload, samples, traced, per_pass, setup_tracer, import_s,
                untraced_ms, alloc_kb))
        failed_ops = workload.check()
        errors = list(workload.errors)
        if args.trace:
            for kind, layer, name in zip(KINDS, ("eno_reconstruction", "eno_interpolation"),
                                         ("interface_traces", "midpoint_traces")):
                if name in tracer.absent:
                    continue
                counted = [counts.get(layer + ".breakpoints", 0) for _, counts, _ in per_pass]
                if any(c != workload.breakpoints[kind] for c in counted):
                    errors.append(f"traced {kind} breakpoints {sorted(set(counted))}, "
                                  f"expected {workload.breakpoints[kind]} per pass")
            absent = setup_tracer.absent + tracer.absent
            print("absent: " + (", ".join(absent) if absent else "none"))

    for op in failed_ops:
        print(f"failed every pass: {op}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print("machine: " + json.dumps(machine_facts(api), sort_keys=True))
    print(f"reference loop: median {median(samples.ref) * 1e3:.2f} ms")
    print(f"passes: {passes}, samples per kind: "
          f"{len(samples.walls)} untraced" + (f", {len(traced.walls)} traced" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    attempted = passes * workload.ops_per_pass + getattr(workload, "extra_ops", 0)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": passes * len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_alloc_kb(workload, kinds, pass_index):
    """Peak bytes allocated during one untraced pass, by tracemalloc."""
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        results = {kind: workload.run(kind, pass_index) for kind in kinds}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workload.record(pass_index, results)
    return (peak - base) / 1024.0


LAYER_MS = (
    ("kernels.primitive_ms", "kernels.primitive"),
    ("kernels.recon_ms", "kernels.recon"),
    ("kernels.interp_ms", "kernels.interp"),
    ("eno_reconstruction.self_ms", "eno_reconstruction"),
    ("eno_interpolation.self_ms", "eno_interpolation"),
    ("stability.sign_report_ms", "stability.sign_report"),
    ("grid.primitive_ms", "grid.primitive"),
    ("numerics.dd_table_ms", "numerics.dd_table"),
    ("stability.oracle_ms", "stability.oracle"),
    ("stability.bounds_ms", "stability.bounds"),
    ("harness.self_ms", "harness"),
    ("cli.self_ms", "cli"),
    ("numerics.parse_ms", "numerics.parse"),
    ("numerics.serialize_ms", "numerics.serialize"),
)

LAYER_COUNTS = (
    ("grid.primitive_calls", "count"),
    ("numerics.dd_entries", "count"),
    ("numerics.rational_bits", "bits"),
    ("stability.oracle_terms", "count"),
    ("stability.bound_entries", "count"),
    ("harness.trials", "count"),
    ("cli.rows_out", "count"),
    ("eno_reconstruction.left_moves", "count"),
    ("eno_reconstruction.exact_ties", "count"),
    ("eno_interpolation.left_moves", "count"),
    ("eno_interpolation.exact_ties", "count"),
)


def layer_metrics(workload, samples, traced, per_pass, setup_tracer, import_s,
                  untraced_ms, alloc_kb):
    """Per-layer metrics: medians over traced passes of per-pass values."""
    out = {}
    out["host.ref_ms"] = (median(samples.ref + traced.ref) * 1e3, "ms")
    out["sample.wall_ms"] = (untraced_ms, "ms")
    out["trace.overhead_ms"] = (median(traced.walls) * 1e3 - untraced_ms, "ms")
    out["setup.import_ms"] = (import_s * 1e3, "ms")
    out["grid.field_ms"] = (setup_tracer.self_times_ms().get("grid.field", 0.0), "ms")
    for name, layer in LAYER_MS:
        out[name] = (median([times.get(layer, 0.0) for times, _, _ in per_pass]), "ms")
    out["op.alloc_peak_kb"] = (alloc_kb, "kB")
    ties = exact_ties(per_pass)
    rows_out = getattr(workload, "rows_out", 0)
    for name, unit in LAYER_COUNTS:
        if name.endswith(".exact_ties"):
            values = [t[name.split(".")[0]] for t in ties]
        elif name == "cli.rows_out":
            values = [rows_out]
        else:
            values = [counts.get(name, 0) for _, counts, _ in per_pass]
        out[name] = (median(values), unit)
    return out


if __name__ == "__main__":
    sys.exit(main())
