"""Batch front end: CSV in, CSV or JSON reports out.

Exit codes: 0 success, 2 malformed CSV, bad arguments, float data that
overflow binary64 or an unwritable output path (one-line diagnostic on
stderr, line-numbered for CSV input), 3 data window too small for the
requested order, 4 violations, bound exceedances or oracle mismatches
found by verify or fuzz. Outputs are byte-stable for a fixed seed,
backend, and argument set.
"""

import argparse
import csv
import io
import json
import math
import sys

from .eno_interpolation import midpoint_traces
from .eno_reconstruction import interface_traces
from .errors import StencilOutOfRange
from .grid import CellAverageField, Mesh, PointValueField
from .harness import (
    FuzzConfig,
    check_orders,
    convergence_study,
    fuzz_sign_property,
    worst_case_averages,
)
from .numerics import EXACT, get_backend, quotient
from .stability import (
    bound_Cp,
    bound_cp,
    sign_report,
    uniform_bound_Cp,
    uniform_bound_cp,
)

TRACE_HEADER = ("x", "v_minus", "v_plus", "data_jump", "ratio_or_CONT",
                "sig_left", "sig_right")
SAMPLERS = {
    "sin2pi": lambda x: math.sin(2 * math.pi * x),
    "cubic": lambda x: x ** 3 - x,
    "gauss": lambda x: math.exp(-32 * (x - 0.5) ** 2),
}


class _CsvError(ValueError):
    """Malformed CSV input, pinned to a 1-based line number."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")


_SCALAR_ERRORS = (ValueError, ZeroDivisionError, TypeError, OverflowError)


def _parse_scalar(backend, text, line, column):
    try:
        return backend.parse(text.strip())
    except _SCALAR_ERRORS:
        raise _CsvError(line, f"column {column}: unparsable scalar {text.strip()!r}")


def _read_rows(path, expected_header):
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if not rows:
        raise _CsvError(1, f"empty file; expected header {','.join(expected_header)}")
    header = tuple(cell.strip() for cell in rows[0])
    if header != expected_header:
        raise _CsvError(
            1,
            f"expected header {','.join(expected_header)}; got {','.join(rows[0])}",
        )
    return rows


def _read_cells(path, backend):
    """Cell CSV (x_left, x_right, avg) to a CellAverageField."""
    rows = _read_rows(path, ("x_left", "x_right", "avg"))
    interfaces = []
    averages = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise _CsvError(line, f"expected 3 columns; got {len(row)}")
        left = _parse_scalar(backend, row[0], line, "x_left")
        right = _parse_scalar(backend, row[1], line, "x_right")
        avg = _parse_scalar(backend, row[2], line, "avg")
        if not left < right:
            raise _CsvError(line, "x_left must be smaller than x_right")
        if interfaces and left != interfaces[-1]:
            raise _CsvError(line, "x_left must equal the previous row's x_right")
        if not interfaces:
            interfaces.append(left)
        interfaces.append(right)
        averages.append(avg)
    if not averages:
        raise _CsvError(2, "no data rows")
    return CellAverageField(Mesh(interfaces), averages)


def _read_points(path, backend):
    """Point CSV (x, value) to a PointValueField."""
    rows = _read_rows(path, ("x", "value"))
    nodes = []
    values = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise _CsvError(line, f"expected 2 columns; got {len(row)}")
        x = _parse_scalar(backend, row[0], line, "x")
        value = _parse_scalar(backend, row[1], line, "value")
        if nodes and not nodes[-1] < x:
            raise _CsvError(line, "x must be strictly increasing")
        nodes.append(x)
        values.append(value)
    if not nodes:
        raise _CsvError(2, "no data rows")
    return PointValueField(nodes, values)


def _write_rows(path, header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buffer.getvalue())


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _trace_rows(traces, backend):
    labels = {signature: str(signature) for signature in
              {*traces.left_signatures, *traces.right_signatures}}
    rows = []
    for x, left, right, d, jump, left_sig, right_sig in zip(
            traces.location, traces.left, traces.right, traces.data_jump,
            traces.jumps, traces.left_signatures, traces.right_signatures):
        if d == 0:
            ratio = "CONT"
        else:
            ratio = backend.serialize(quotient(jump, d))
        rows.append((
            backend.serialize(x),
            backend.serialize(left),
            backend.serialize(right),
            backend.serialize(d),
            ratio,
            labels[left_sig],
            labels[right_sig],
        ))
    return rows


def _cmd_reconstruct(args):
    backend = get_backend(args.backend)
    field = _read_cells(args.input, backend)
    traces = interface_traces(field, args.order)
    _write_rows(args.output, TRACE_HEADER, _trace_rows(traces, backend))
    return 0


def _cmd_interpolate(args):
    backend = get_backend(args.backend)
    field = _read_points(args.input, backend)
    traces = midpoint_traces(field, args.order)
    _write_rows(args.output, TRACE_HEADER, _trace_rows(traces, backend))
    return 0


def _cmd_verify(args):
    backend = get_backend(args.backend)
    p = args.order
    read = _read_cells if args.kind == "reconstruction" else _read_points
    [(_, traces, report, agrees, bounds, within)] = check_orders(
        read(args.input, backend), (p,))
    payload = {
        "interfaces": len(traces),
        "violations": report.violations,
        "max_ratio": None if report.max_ratio is None
        else backend.serialize(report.max_ratio),
        "bound": EXACT.serialize(max(bounds)),
        "bound_exceedances": within.count(False),
        "seed": None,
        "order": p,
        "backend": backend.name,
        "kind": args.kind,
        "oracle_mismatches": agrees.count(False),
        "verdicts": report.counts,
    }
    _write_text(args.output, json.dumps(payload, sort_keys=True) + "\n")
    return 4 if report.violations or not all(agrees) or not all(within) else 0


def _cmd_bounds(args):
    if args.uniform == (args.input is not None):
        raise ValueError("bounds needs exactly one of --uniform or --input")
    if args.order < 1:
        raise ValueError("order must be >= 1")
    rows = []
    if args.uniform:
        closed = uniform_bound_Cp if args.kind == "reconstruction" else uniform_bound_cp
        for p in range(1, args.order + 1):
            rows.append((p, EXACT.serialize(closed(p))))
    else:
        if args.kind == "reconstruction":
            coords = _read_cells(args.input, EXACT).mesh
            at = bound_Cp
        else:
            coords = _read_points(args.input, EXACT).nodes
            at = bound_cp
        for p in range(1, args.order + 1):
            rows.append((p, EXACT.serialize(at(coords, p))))
    _write_rows(args.output, ("p", "bound"), rows)
    return 0


def _cmd_worst_case(args):
    backend = get_backend(args.backend)
    try:
        epsilon = backend.parse(args.epsilon)
    except _SCALAR_ERRORS:
        raise ValueError(f"--epsilon: unparsable scalar {args.epsilon!r}")
    field = worst_case_averages(args.order, epsilon, args.cells, backend)
    traces = interface_traces(field, args.order)
    report = sign_report(traces)
    target = args.cells // 2
    ratio = report.ratios[target - args.order]
    payload = {
        "interfaces": len(traces),
        "violations": report.violations,
        "max_ratio": None if ratio is None else backend.serialize(ratio),
        "bound": EXACT.serialize(uniform_bound_Cp(args.order)),
        "seed": None,
        "order": args.order,
        "backend": backend.name,
        "x": backend.serialize(field.mesh.interfaces[target]),
        "epsilon": backend.serialize(epsilon),
    }
    if args.construction != "-":
        rows = []
        X = field.mesh.interfaces
        for i, avg in enumerate(field.averages):
            rows.append((backend.serialize(X[i]), backend.serialize(X[i + 1]),
                         backend.serialize(avg)))
        _write_rows(args.construction, ("x_left", "x_right", "avg"), rows)
    _write_text(args.output, json.dumps(payload, sort_keys=True) + "\n")
    return 4 if report.violations else 0


def _parse_int_list(text, flag):
    try:
        items = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated integer list")
    if not items:
        raise ValueError(f"{flag} expects a nonempty list")
    return items


def _cmd_fuzz(args):
    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        cells=args.cells,
        orders=_parse_int_list(args.orders, "--orders"),
        width_low=args.width_low,
        width_high=args.width_high,
        backend=args.backend,
        distribution=args.distribution,
        kind=args.kind,
    )
    report = fuzz_sign_property(config, workers=args.workers)
    _write_text(args.output, report.to_json() + "\n")
    bad = report.violations + report.bound_exceedances + report.oracle_mismatches
    return 4 if bad else 0


def _cmd_converge(args):
    orders = _parse_int_list(args.orders, "--orders")
    resolutions = _parse_int_list(args.resolutions, "--resolutions")
    table = convergence_study(SAMPLERS[args.function], orders, resolutions)
    rows = []
    for i, p in enumerate(table.orders):
        for j, n in enumerate(table.resolutions):
            rows.append((p, n, repr(table.errors[i][j]), repr(table.rates[i])))
    _write_rows(args.output, ("order", "resolution", "max_error", "fitted_rate"),
                rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enokit",
        description="Adaptive-stencil reconstruction and interpolation with "
                    "sign-property verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, backend_default="exact"):
        p.add_argument("--order", type=int, required=True, help="stencil order p")
        p.add_argument("--backend", choices=("float", "exact"),
                       default=backend_default)
        p.add_argument("--output", default="-", help="output path, - for stdout")

    p = sub.add_parser("reconstruct",
                       help="interface traces from a cell CSV (x_left,x_right,avg)")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("interpolate",
                       help="midpoint traces from a point CSV (x,value)")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("verify",
                       help="sign, jump-bound and telescoped-oracle checks, JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("reconstruction", "interpolation"),
                   default="reconstruction")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds",
                       help="jump-bound table, closed-form uniform or mesh-specific")
    p.add_argument("--kind", choices=("reconstruction", "interpolation"),
                   default="reconstruction")
    p.add_argument("--order", type=int, required=True, help="largest order")
    p.add_argument("--uniform", action="store_true",
                   help="closed-form uniform-mesh bounds")
    p.add_argument("--input", help="mesh CSV for mesh-specific bounds")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("worst-case",
                       help="extremal perturbed-sawtooth construction and its ratio")
    p.add_argument("--epsilon", default="1e-10")
    p.add_argument("--cells", type=int, default=20)
    p.add_argument("--construction", default="-",
                   help="path for the construction CSV (omitted by default)")
    common(p, backend_default="float")
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("fuzz", help="randomized sign-property corpus, JSON report")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--cells", type=int, default=30)
    p.add_argument("--orders", default="1,2,3,4,5,6")
    p.add_argument("--width-low", type=float, default=0.5)
    p.add_argument("--width-high", type=float, default=2.0)
    p.add_argument("--backend", choices=("float", "exact"), default="exact")
    p.add_argument("--distribution", choices=("mixed", "uniform-int"),
                   default="mixed")
    p.add_argument("--kind", choices=("reconstruction", "interpolation"),
                   default="reconstruction")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("converge", help="trace-error decay rates on smooth data")
    p.add_argument("--orders", default="1,2,3,4,5")
    p.add_argument("--resolutions", default="16,32,64,128,256")
    p.add_argument("--function", choices=sorted(SAMPLERS), default="sin2pi")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except StencilOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
