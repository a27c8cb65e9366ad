"""Batch front end: CSV in, CSV or JSON reports out.

Exit codes: 0 success, 2 malformed CSV, bad arguments, float data that
overflow binary64 or an unwritable output path (one-line diagnostic on
stderr, line-numbered for CSV input), 3 data window too small for the
requested order, 4 violations, bound exceedances or oracle mismatches
found by verify or fuzz. Outputs are byte-stable for a fixed seed,
backend, and argument set.

CSV input is read by columns: each column of scalars is parsed in one
pass (the backend's parse of the stripped cell, see FloatBackend.convert
and ExactBackend.convert), a cell's x_left is not parsed again when its
text is the previous row's x_right, and the row checks then run over the
parsed columns. The fault reported is the first in file order, the one
a row-by-row read would meet; a row the csv module cannot read (a field
over its size limit) is such a fault, after the rows read before it.
Faults name the line a row starts on in the file, which a quoted newline
puts past the row's count. Files are read and written as UTF-8, whatever
the locale; a byte that is not UTF-8 is a fault of its line.

Trace rows are serialized column by column: a float batch's columns
each in one repr pass, which gives FloatBackend.serialize's bytes. main
builds its parser on its first call and reuses it: the parser holds no
input, result or output of a call, and argparse parses each argv into a
new Namespace, so calls in one process are independent.
"""

import argparse
import csv
import json
import math
import sys
from itertools import compress, repeat
from operator import add, eq, lt, ne

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
    max_bounds,
    sign_report,
    uniform_bound_Cp,
    uniform_bound_cp,
)

CELL_HEADER = ("x_left", "x_right", "avg")
POINT_HEADER = ("x", "value")
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


def _text_columns(path, header):
    """The data rows of a CSV as text columns, one per header name.

    Returns (lines, columns, fault): the 1-based line each data row starts
    on, which a quoted newline puts past the row count, the columns, and
    the _CsvError that ends the data rows, or None: that of the first row
    with another column count, or of the row the csv module could not
    read. Blank lines are skipped. A byte that is not UTF-8 is a fault of
    its line before any row is read.
    """
    rows = []
    starts = [1]  # starts[k]: the line that record k starts on
    fault = None
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                for row in reader:  # keeps the rows before a fault
                    rows.append(row)
                    starts.append(reader.line_num + 1)
            except csv.Error as exc:
                fault = _CsvError(starts[-1], str(exc))
    except UnicodeDecodeError:
        with open(path, "rb") as handle:  # the reader decodes by chunks
            raw = handle.read()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _CsvError(raw.count(b"\n", 0, exc.start) + 1,
                            f"not UTF-8 (byte 0x{raw[exc.start]:02x})")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    if not rows:
        raise fault or _CsvError(
            1, f"empty file; expected header {','.join(header)}")
    if tuple(cell.strip() for cell in rows[0]) != header:
        raise _CsvError(
            1, f"expected header {','.join(header)}; got {','.join(rows[0])}")
    data = rows[1:]
    if data and not fault and set(map(len, data)) == {len(header)}:
        return starts[1:-1], list(zip(*data)), None
    lines = []
    kept = []
    for line, row in zip(starts[1:], data):
        if len(row) != len(header):
            if not row:
                continue
            fault = _CsvError(
                line, f"expected {len(header)} columns; got {len(row)}")
            break
        lines.append(line)
        kept.append(row)
    if not kept:
        raise fault or _CsvError(2, "no data rows")
    return lines, list(zip(*kept)), fault


def _parse_column(backend, texts):
    """The scalars of a text column, up to the first cell that does not
    parse: all of them, or as many as precede that cell.

    Float columns are read by one float() pass, which gives what
    backend.parse gives for every text it accepts; exact ones by one
    backend.parse pass. When that pass fails, or a float comes out
    non-finite, the column is read again cell by cell, which also reads
    num/den floats.
    """
    try:
        if backend.exact:
            return list(map(backend.parse, texts))
        values = list(map(add, map(float, texts), repeat(0.0)))
        if math.isfinite(sum(values)):
            return values
    except _SCALAR_ERRORS:
        pass
    values = []
    for text in texts:
        try:
            values.append(backend.parse(text.strip()))
        except _SCALAR_ERRORS:
            break
    return values


def _left_column(backend, texts, right_texts, rights):
    """The x_left scalars of the cells, as _parse_column gives a column.

    A row whose x_left text is the previous row's x_right text takes that
    row's scalar unparsed; only the other texts are parsed. The list stops
    at the first x_left that does not parse, or after the row that follows
    the last parsed x_right, whichever comes first.
    """
    lefts = [None, *rights[:len(texts) - 1]]
    fresh = [0, *compress(range(1, len(lefts)), map(ne, texts[1:], right_texts))]
    values = _parse_column(backend, [texts[k] for k in fresh])
    for k, value in zip(fresh, values):
        lefts[k] = value
    if len(values) < len(fresh):
        del lefts[fresh[len(values)]:]
    return lefts


def _first_fault(lines, header, texts, columns, checks, fault):
    """Raise the fault a row-by-row read would meet first.

    Rows run their checks in order: each column's parse, then `checks`,
    pairs (flags, message) whose flags[k] tells whether row k passes. The
    rows every column parsed are checked first, then the row where a
    column stopped, then the column-count fault that ended the rows.
    """
    parsed = min(map(len, columns))
    failed = []
    for rank, (flags, message) in enumerate(checks):
        try:
            failed.append((flags.index(False, 0, parsed), rank, message))
        except ValueError:
            pass
    if failed:
        row, _, message = min(failed)
        raise _CsvError(lines[row], message)
    for name, text, column in zip(header, texts, columns):
        if len(column) == parsed < len(text):
            raise _CsvError(lines[parsed], f"column {name}: unparsable scalar "
                                           f"{text[parsed].strip()!r}")
    if fault:
        raise fault


def _read_cells(path, backend):
    """Cell CSV (x_left, x_right, avg) to a CellAverageField."""
    lines, texts, fault = _text_columns(path, CELL_HEADER)
    left_texts, right_texts, average_texts = texts
    rights = _parse_column(backend, right_texts)
    lefts = _left_column(backend, left_texts, right_texts, rights)
    averages = _parse_column(backend, average_texts)
    _first_fault(lines, CELL_HEADER, texts, (lefts, rights, averages), (
        (list(map(lt, lefts, rights)), "x_left must be smaller than x_right"),
        ([True, *map(eq, lefts[1:], rights)],
         "x_left must equal the previous row's x_right"),
    ), fault)
    return CellAverageField(Mesh([lefts[0], *rights]), averages)


def _read_points(path, backend):
    """Point CSV (x, value) to a PointValueField."""
    lines, texts, fault = _text_columns(path, POINT_HEADER)
    nodes, values = columns = [_parse_column(backend, t) for t in texts]
    _first_fault(lines, POINT_HEADER, texts, columns, (
        ([True, *map(lt, nodes, nodes[1:])], "x must be strictly increasing"),
    ), fault)
    return PointValueField(nodes, values)


def _write_rows(path, header, rows):
    """Write the header and rows, each a sequence of field strings, as CSV
    lines; a field that needs quoting, as a signature label may, comes
    quoted."""
    lines = [",".join(header), *map(",".join, rows), ""]
    _write_text(path, "\n".join(lines))


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _trace_rows(traces, backend):
    """The rows of a TraceBatch, serialized column by column; each distinct
    signature object is labelled once, quoted if it holds a comma. An
    approximate batch's columns hold floats, so repr gives the bytes of
    FLOAT.serialize, repr(float(x)), with no call per field."""
    labels = {}
    for signatures in (traces.left_signatures, traces.right_signatures):
        labels.update(zip(map(id, signatures), signatures))
    for key, signature in labels.items():
        label = str(signature)
        labels[key] = f'"{label}"' if "," in label else label
    pairs = zip(traces.jumps, traces.data_jump)
    if traces.approximate:
        serialize = repr
        ratios = ["CONT" if d == 0 else repr(jump / d) for jump, d in pairs]
    else:
        serialize = backend.serialize
        ratios = ["CONT" if d == 0 else serialize(quotient(jump, d))
                  for jump, d in pairs]
    return zip(
        map(serialize, traces.location),
        map(serialize, traces.left),
        map(serialize, traces.right),
        map(serialize, traces.data_jump),
        ratios,
        map(labels.__getitem__, map(id, traces.left_signatures)),
        map(labels.__getitem__, map(id, traces.right_signatures)),
    )


def _cmd_traces(args):
    backend = get_backend(args.backend)
    if args.command == "reconstruct":
        read, traces_of = _read_cells, interface_traces
    else:
        read, traces_of = _read_points, midpoint_traces
    traces = traces_of(read(args.input, backend), args.order)
    _write_rows(args.output, TRACE_HEADER, _trace_rows(traces, backend))
    return 0


def _cmd_verify(args):
    backend = get_backend(args.backend)
    p = args.order
    read = _read_cells if args.kind == "reconstruction" else _read_points
    [(_, traces, report, agrees, bound, within)] = check_orders(
        read(args.input, backend), (p,))
    payload = {
        "interfaces": len(traces),
        "violations": report.violations,
        "max_ratio": None if report.max_ratio is None
        else backend.serialize(report.max_ratio),
        "bound": EXACT.serialize(bound),
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
    orders = range(1, args.order + 1)
    if args.uniform:
        closed = uniform_bound_Cp if args.kind == "reconstruction" else uniform_bound_cp
        bounds = map(closed, orders)
    elif args.kind == "reconstruction":
        bounds = max_bounds(_read_cells(args.input, EXACT).mesh, orders)
    else:
        bounds = max_bounds(_read_points(args.input, EXACT).nodes, orders,
                            "interpolation")
    _write_rows(args.output, ("p", "bound"),
                zip(map(str, orders), map(EXACT.serialize, bounds)))
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
        _write_rows(args.construction, CELL_HEADER, rows)
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
            rows.append((str(p), str(n), repr(table.errors[i][j]),
                         repr(table.rates[i])))
    _write_rows(args.output, ("order", "resolution", "max_error", "fitted_rate"),
                rows)
    return 0


def build_parser():
    """A new parser of the enokit command line; main builds one per
    process, on its first call."""
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
    p.set_defaults(func=_cmd_traces)

    p = sub.add_parser("interpolate",
                       help="midpoint traces from a point CSV (x,value)")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_traces)

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


_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
