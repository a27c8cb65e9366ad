"""Command-line front end: formats, exit codes, byte stability.

Run this file as a script to print the digest of the pinned CLI outputs:

    python tests/test_cli.py
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

if __name__ == "__main__":  # a source checkout, run as a script
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import enokit
import enokit.cli as cli_mod
from enokit import NonFiniteValue, interface_traces, midpoint_traces
from enokit.cli import main
from enokit.numerics import FLOAT
from enokit.stability import relative_jump

CELLS_STEP = "x_left,x_right,avg\n" + "".join(
    f"{i},{i + 1},{0 if i < 4 else 1}\n" for i in range(8)
)
POINTS_STEP = "x,value\n" + "".join(
    f"{i},{0 if i < 4 else 1}\n" for i in range(8)
)


@pytest.fixture
def cells_csv(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text(CELLS_STEP)
    return str(path)


@pytest.fixture
def points_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(POINTS_STEP)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_a_usage_error(capsys):
    code, _, _ = run(capsys, )
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "reconstruct" in out


def _checkout_env():
    """The environment of a fresh interpreter that imports enokit from the
    checkout under test."""
    src = os.path.dirname(os.path.dirname(enokit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_import_leaves_numpy_unloaded():
    """enokit needs no numpy, and only `fuzz --workers` above 1 needs the
    process pool; importing the package and its front end in a fresh
    interpreter must load neither."""
    code = ("import sys, enokit, enokit.cli; print('numpy' in sys.modules, "
            "'concurrent.futures.process' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False False"


def test_converge_needs_no_numpy():
    """`converge` runs in an interpreter where importing numpy fails."""
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from enokit.cli import main\n"
            "sys.exit(main(['converge', '--orders', '1,2', "
            "'--resolutions', '8,16']))")
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 5


def test_import_builds_no_parser():
    """Importing the front end parses nothing and builds no parser; main
    builds it on its first call."""
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import enokit.cli\n"
            "print(len(built), enokit.cli._parser)\n"
            "enokit.cli.main(['bounds', '--uniform', '--order', '1'])\n"
            "print(len(built) > 0, enokit.cli._parser is not None)\n")
    result = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["0 None", "p,bound", "1,1",
                                          "True True"]


def test_reused_parser_keeps_calls_independent(capsys, monkeypatch,
                                               cells_csv, points_csv):
    """Calls through one process's main, which reuses its parser, give the
    exit code, stdout and stderr of a fresh interpreter each: a later call
    keeps no option of an earlier one, and usage errors and --help leave
    the parser as it was."""
    monkeypatch.setenv("COLUMNS", "80")  # the same help width both sides
    calls = [
        ("verify", "--input", points_csv, "--kind", "interpolation",
         "--order", "2"),
        ("verify", "--input", cells_csv, "--order", "2"),
        ("verify", "--input", cells_csv, "--order", "x"),
        ("--help",),
        ("fuzz", "--workers", "2"),
        ("fuzz",),
    ]
    codes = []
    for argv in calls:
        got = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "enokit.cli", *argv],
                               env=_checkout_env(), capture_output=True,
                               text=True)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(got[0])
    assert codes == [0, 0, 2, 0, 0, 0]


def test_bounds_uniform_reconstruction(capsys):
    code, out, _ = run(capsys, "bounds", "--order", "6", "--kind",
                       "reconstruction", "--uniform")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,bound"
    assert lines[1:] == ["1,1", "2,2", "3,10/3", "4,16/3", "5,128/15",
                         "6,208/15"]


def test_bounds_uniform_interpolation(capsys):
    code, out, _ = run(capsys, "bounds", "--order", "6", "--kind",
                       "interpolation", "--uniform")
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,2", "3,7/2", "4,6", "5,83/8",
                                    "6,73/4"]


def test_bounds_mesh_specific(capsys, cells_csv):
    code, out, _ = run(capsys, "bounds", "--order", "2", "--input", cells_csv)
    assert code == 0
    assert out.splitlines()[1:] == ["1,1", "2,2"]


def test_bounds_needs_exactly_one_source(capsys, cells_csv):
    code, _, err = run(capsys, "bounds", "--order", "2")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--order", "2", "--uniform",
                     "--input", cells_csv)
    assert code == 2


@pytest.mark.parametrize("order", ["0", "-2"])
def test_bounds_rejects_order_below_one(capsys, cells_csv, order):
    for source in (["--uniform"], ["--input", cells_csv]):
        code, out, err = run(capsys, "bounds", "--order", order, *source)
        assert code == 2
        assert out == ""
        assert "order must be >= 1" in err


def test_reconstruct_step(capsys, cells_csv):
    code, out, _ = run(capsys, "reconstruct", "--input", cells_csv,
                       "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,v_minus,v_plus,data_jump,ratio_or_CONT,sig_left,sig_right"
    assert lines[1] == '2,0,0,0,CONT,"0,0","0,0"'
    assert lines[3] == '4,0,1,1,1,"0,-1","0,0"'
    assert len(lines) == 6


def test_reconstruct_output_reparses(capsys, cells_csv, tmp_path):
    out_path = tmp_path / "traces.csv"
    code, _, _ = run(capsys, "reconstruct", "--input", cells_csv,
                     "--order", "2", "--output", str(out_path))
    assert code == 0
    first = out_path.read_text()
    code, _, _ = run(capsys, "reconstruct", "--input", cells_csv,
                     "--order", "2", "--output", str(out_path))
    assert out_path.read_text() == first


def test_reconstruct_float_backend(capsys, cells_csv):
    code, out, _ = run(capsys, "reconstruct", "--input", cells_csv,
                       "--order", "2", "--backend", "float")
    assert code == 0
    assert out.splitlines()[1].startswith("2.0,")


def test_interpolate_step(capsys, points_csv):
    code, out, _ = run(capsys, "interpolate", "--input", points_csv,
                       "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,v_minus,v_plus,data_jump,ratio_or_CONT,sig_left,sig_right"
    assert lines[1] == '3/2,0,0,0,CONT,"0,0","0,0"'
    assert lines[3] == '7/2,0,1,1,1,"0,-1","0,0"'


def test_verify_constant_averages(capsys, tmp_path):
    """Constant data are continuous everywhere and exceed no bound; the
    reported bound is bound_Cp / bound_cp of the mesh, on integer,
    decimal (grid), off-grid exact and float meshes, for both kinds."""
    from enokit import EXACT, Mesh, bound_Cp, bound_cp, get_backend
    from enokit.numerics import grid_integers

    path = tmp_path / "const.csv"
    path.write_text("x_left,x_right,avg\n" + "".join(
        f"{i},{i + 1},5\n" for i in range(8)
    ))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["interfaces"] == 5
    assert payload["oracle_mismatches"] == 0
    assert payload["bound_exceedances"] == 0
    assert payload["verdicts"]["Continuous"] == 5
    for key in ("interfaces", "violations", "max_ratio", "bound", "seed",
                "order", "backend"):
        assert key in payload

    ticks = [0]
    for gap in (300, 150, 750, 125, 1001, 500, 200, 40, 1000, 625, 5):
        ticks.append(ticks[-1] + gap)
    sevenths = [Fraction(0)]
    for gap in ("1/3", "1/7", "2/3", "3/7", "1/3", "5/7", "4/3", "1/7",
                "2/3", "2/7", "1/3"):
        sevenths.append(sevenths[-1] + Fraction(gap))
    meshes = {
        "decimal": ("exact", [f"{t // 1000}.{t % 1000:03d}" for t in ticks]),
        "off-grid": ("exact", [str(x) for x in sevenths]),
        "float": ("float", [repr(0.1 * k + 0.03 * (k % 3)) for k in range(12)]),
    }
    for name, (backend, xs) in meshes.items():
        coords = [get_backend(backend).parse(x) for x in xs]
        assert all(type(x) is int for x in grid_integers(coords))
        for kind, bound_of in (("reconstruction", bound_Cp),
                               ("interpolation", bound_cp)):
            if kind == "reconstruction":
                path.write_text("x_left,x_right,avg\n" + "".join(
                    f"{a},{b},-2\n" for a, b in zip(xs, xs[1:])))
                mesh = Mesh(coords)
            else:
                path.write_text("x,value\n" + "".join(f"{x},-2\n" for x in xs))
                mesh = coords
            code, out, _ = run(capsys, "verify", "--input", str(path),
                               "--order", "3", "--kind", kind,
                               "--backend", backend)
            payload = json.loads(out)
            assert code == 0, (name, kind)
            assert payload["bound_exceedances"] == 0
            assert payload["verdicts"]["Continuous"] == payload["interfaces"]
            assert payload["bound"] == EXACT.serialize(bound_of(mesh, 3)), \
                (name, kind)


def test_verify_interpolation_kind(capsys, points_csv):
    code, out, _ = run(capsys, "verify", "--input", points_csv, "--order",
                       "2", "--kind", "interpolation")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["bound"] == "2"


def test_verify_flags_planted_violation(capsys, points_csv, monkeypatch):
    import enokit.harness as harness_mod
    from enokit import InterfaceTrace, trace_columns

    def planted(field, p, table=None):
        return trace_columns(
            [InterfaceTrace(1, 1.5, 1.0, 0.0, 1.0, (0, 0), (0, 0))])

    monkeypatch.setattr(harness_mod, "midpoint_traces", planted)
    monkeypatch.setattr(
        harness_mod, "telescoped_jumps",
        lambda *a, **k: [-1.0],
    )
    code, out, _ = run(capsys, "verify", "--input", points_csv, "--order",
                       "2", "--kind", "interpolation")
    assert code == 4
    payload = json.loads(out)
    assert payload["violations"] == 1


def _shrink_bounds(monkeypatch):
    """Make check_orders judge every jump against its bound / 1000."""
    import enokit.harness as harness_mod

    real = harness_mod._window_pass

    def shrunk(*args, **kwargs):
        nums, dens, agrees = real(*args, **kwargs)
        return nums, [den * 1000 for den in dens], agrees

    monkeypatch.setattr(harness_mod, "_window_pass", shrunk)


@pytest.mark.parametrize("kind", ["reconstruction", "interpolation"])
def test_verify_flags_planted_exceedance(capsys, cells_csv, points_csv,
                                         monkeypatch, kind):
    """A step whose jump ratio is 1 exceeds bounds shrunk 1000-fold: verify
    counts the exceedances, reports the shrunk bound and exits 4."""
    _shrink_bounds(monkeypatch)
    source = cells_csv if kind == "reconstruction" else points_csv
    code, out, _ = run(capsys, "verify", "--input", source, "--order", "2",
                       "--kind", kind)
    assert code == 4
    payload = json.loads(out)
    assert payload["bound_exceedances"] > 0
    assert payload["violations"] == payload["oracle_mismatches"] == 0
    assert payload["max_ratio"] == "1"
    assert payload["bound"] == "1/500"


def test_fuzz_planted_exceedance_exits_four(capsys, monkeypatch):
    """Bounds shrunk 1000-fold make every trial's order-1 ratio of 1 an
    exceedance: fuzz exits 4 with witnesses of reason "bound"."""
    _shrink_bounds(monkeypatch)
    code, out, _ = run(capsys, "fuzz", "--trials", "2", "--cells", "12",
                       "--orders", "1,2")
    assert code == 4
    payload = json.loads(out)
    assert payload["bound_exceedances"] > 0
    assert payload["violations"] == payload["oracle_mismatches"] == 0
    reasons = {w["reason"] for w in payload["violation_witnesses"]}
    assert reasons == {"bound"}


@pytest.mark.parametrize("command", [
    ("reconstruct",), ("verify",), ("interpolate",),
    ("verify", "--kind", "interpolation"),
])
def test_float_overflow_exit_code(capsys, tmp_path, command):
    """Averages or values of +-1e308 overflow their differences in binary64:
    exit 2 with an error line, not rows or verdicts of inf and nan."""
    path = tmp_path / "overflow.csv"
    if command[0] == "interpolate" or "interpolation" in command:
        path.write_text("x,value\n" + "".join(
            f"{i},{(-1) ** i}e308\n" for i in range(5)))
    else:
        path.write_text("x_left,x_right,avg\n" + "".join(
            f"{i},{i + 1},{(-1) ** i}e308\n" for i in range(5)))
    code, out, err = run(capsys, *command, "--input", str(path), "--order",
                         "2", "--backend", "float")
    assert code == 2
    assert out == ""
    assert err.startswith("error: float overflow:")


@pytest.mark.parametrize("order", ["3", "6"])
def test_verify_float_on_non_dyadic_steps_exits_zero(capsys, tmp_path, order):
    from test_reconstruction import non_dyadic_steps

    xs, data = non_dyadic_steps()
    path = tmp_path / "steps.csv"
    path.write_text("x_left,x_right,avg\n" + "".join(
        f"{xs[i]!r},{xs[i + 1]!r},{v!r}\n" for i, v in enumerate(data)))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--order", order,
                       "--backend", "float")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["oracle_mismatches"] == 0


def test_malformed_csv_exit_codes(capsys, tmp_path):
    cases = {
        "gap.csv": "x_left,x_right,avg\n0,1,0\n2,3,1\n",
        "scalar.csv": "x_left,x_right,avg\n0,1,abc\n",
        "header.csv": "a,b\n0,1\n",
        "columns.csv": "x_left,x_right,avg\n0,1\n",
        "order.csv": "x_left,x_right,avg\n1,0,2\n",
        "empty.csv": "",
        "nodata.csv": "x_left,x_right,avg\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, _, err = run(capsys, "reconstruct", "--input", str(path),
                           "--order", "1")
        assert code == 2, name
        assert "line" in err, name


def test_out_of_range_float_scalar_is_a_csv_error(capsys, tmp_path):
    huge_ratio = "1" + "0" * 400 + "/1"
    for name, avg in (("big.csv", "1e400"), ("ratio.csv", huge_ratio)):
        path = tmp_path / name
        path.write_text(f"x_left,x_right,avg\n0,1,0\n1,2,{avg}\n")
        code, _, err = run(capsys, "reconstruct", "--backend", "float",
                           "--input", str(path), "--order", "1")
        assert code == 2, name
        assert "line 3" in err, name


@pytest.mark.parametrize("command", [
    ("reconstruct", "--backend", "exact"), ("reconstruct", "--backend", "float"),
    ("verify", "--backend", "exact"), ("verify", "--backend", "float"),
    ("bounds",),
    ("interpolate", "--backend", "exact"), ("interpolate", "--backend", "float"),
    ("verify", "--kind", "interpolation", "--backend", "exact"),
    ("verify", "--kind", "interpolation", "--backend", "float"),
    ("bounds", "--kind", "interpolation"),
], ids=" ".join)
def test_oversized_field_is_a_csv_error(capsys, tmp_path, command):
    """A field over the csv module's size limit ends the data rows as a
    line-numbered fault: exit 2 and one error line, reported after any
    fault in the rows before it, as a row-by-row read would meet them."""
    points = "interpolation" in command or command[0] == "interpolate"
    header, rows = (("x,value", ["0,1", "1,2", "2,3"]) if points else
                    ("x_left,x_right,avg", ["0,1,1", "1,2,2", "2,3,3"]))
    huge = "1" * 140_000
    cases = [
        ([*rows, f"3,{huge}" if points else f"3,4,{huge}"],
         "line 5: field larger than field limit (131072)"),
        ([*rows[:1], "1,x" if points else "1,2,x", *rows[2:],
          f"3,{huge}" if points else f"3,4,{huge}"],
         "line 3: column value: unparsable scalar 'x'" if points else
         "line 3: column avg: unparsable scalar 'x'"),
        ([*rows[:2], "2", f"3,{huge}"],
         f"line 4: expected {header.count(',') + 1} columns; got 1"),
        ([f"{huge},1"], "line 2: field larger than field limit (131072)"),
    ]
    path = tmp_path / "big.csv"
    for lines, message in cases:
        path.write_text("\n".join((header, *lines)) + "\n")
        code, out, err = run(capsys, *command, "--input", str(path),
                             "--order", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    path.write_text(f"{huge},{header}\n")
    code, _, err = run(capsys, *command, "--input", str(path), "--order", "1")
    assert (code, err) == (
        2, "error: line 1: field larger than field limit (131072)\n")


def test_csv_files_are_utf8_in_any_locale(tmp_path):
    """Input is decoded and output encoded as UTF-8 under the C locale too:
    an Arabic-Indic digit reads as the ASCII one does."""
    env = _checkout_env()
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    outputs = []
    for name, three in (("ascii", "3"), ("arabic", "٣")):
        path = tmp_path / f"{name}.csv"
        path.write_text("x_left,x_right,avg\n" + "".join(
            f"{i},{i + 1},{three if i == 2 else i % 2}\n" for i in range(6)),
            encoding="utf-8")
        out_path = tmp_path / f"{name}_traces.csv"
        result = subprocess.run(
            [sys.executable, "-m", "enokit.cli", "reconstruct", "--input",
             str(path), "--order", "2", "--output", str(out_path)],
            env=env, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, ""), name
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"3" in outputs[0]


@pytest.mark.parametrize("command", ["reconstruct", "interpolate"])
def test_csv_faults_name_the_line_after_a_quoted_newline(capsys, tmp_path,
                                                         command):
    """A quoted field that holds a newline spans two lines, so a later
    fault is reported on the line it is on: an unparsable scalar, a short
    row, and a field the csv module cannot read; a row whose quoted
    newline ends it parses as it would without one."""
    points = command == "interpolate"
    header, quoted, good, name = (
        ("x,value", '0,"1\n"', "1,2", "value") if points else
        ("x_left,x_right,avg", '0,1,"1\n"', "1,2,2", "avg"))
    bad = "1,x" if points else "1,2,x"
    huge = ("2," if points else "2,3,") + "1" * 140_000
    columns = header.count(",") + 1
    cases = [
        ([quoted, bad], f"line 4: column {name}: unparsable scalar 'x'"),
        ([quoted, good, "2"], f"line 5: expected {columns} columns; got 1"),
        ([quoted, good, huge],
         "line 5: field larger than field limit (131072)"),
        ([quoted, quoted.replace("0", "1", 1).replace(",1,", ",2,"), bad],
         f"line 6: column {name}: unparsable scalar 'x'"),
    ]
    path = tmp_path / "quoted.csv"
    for rows, message in cases:
        path.write_text("\n".join((header, *rows)) + "\n")
        code, out, err = run(capsys, command, "--input", str(path),
                             "--order", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    path.write_text("\n".join((header, quoted, good)) + "\n")
    code, out, err = run(capsys, command, "--input", str(path), "--order", "1")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


@pytest.mark.parametrize("command", ["reconstruct", "interpolate"])
def test_a_byte_that_is_not_utf8_names_its_line(capsys, tmp_path, command):
    """A byte that is not UTF-8 exits 2 with the line it is on, counted
    from the start of the file, also past the text reader's first chunk."""
    header = "x,value\n" if command == "interpolate" else "x_left,x_right,avg\n"
    row = "{0},1\n" if command == "interpolate" else "{0},{1},1\n"
    path = tmp_path / "latin1.csv"
    for count in (1, 3000):
        text = header + "".join(row.format(i, i + 1) for i in range(count))
        path.write_bytes(text.encode() + b"9,\xff\n")
        code, out, err = run(capsys, command, "--input", str(path),
                             "--order", "1")
        assert (code, out, err) == (
            2, "", f"error: line {count + 2}: not UTF-8 (byte 0xff)\n")


finite_floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def float_csv_fields(draw):
    """(order, coordinates, values) of a float field: increasing
    coordinates and values of one scale, subnormal to 1e300, with repeats
    (zero data jumps) and -0.0 among them."""
    p = draw(st.integers(1, 4))
    count = draw(st.integers(2 * p + 1, 2 * p + 12))
    widths = draw(st.lists(st.floats(0.5, 2.0), min_size=count,
                           max_size=count))
    scale = draw(st.sampled_from((1.0, 5e-324, 1e-310, 1e-300, 1e300)))
    units = draw(st.lists(
        st.one_of(st.integers(-3, 3).map(float), finite_floats, st.just(-0.0)),
        min_size=count, max_size=count))
    return p, list(accumulate(widths)), [scale * u for u in units]


@settings(max_examples=60, deadline=None)
@given(float_csv_fields())
def test_float_rows_are_float_serialize_of_every_field(field):
    """The rows of reconstruct and interpolate --backend float are
    FLOAT.serialize of every field of the traces of the field read, the
    ratio that of relative_jump, or CONT."""
    p, xs, values = field
    cells = "x_left,x_right,avg\n" + "".join(
        f"{a!r},{b!r},{v!r}\n" for a, b, v in zip(xs, xs[1:], values))
    points = "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in zip(xs, values))
    with tempfile.TemporaryDirectory() as directory:
        for command, text, read, traces_of in (
                ("reconstruct", cells, cli_mod._read_cells, interface_traces),
                ("interpolate", points, cli_mod._read_points,
                 midpoint_traces)):
            source = os.path.join(directory, f"{command}.csv")
            target = os.path.join(directory, f"{command}_traces.csv")
            with open(source, "w", encoding="utf-8") as handle:
                handle.write(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, "--input", source, "--order", str(p),
                             "--backend", "float", "--output", target])
            try:
                traces = traces_of(read(source, FLOAT), p)
            except NonFiniteValue as exc:
                assert (code, err.getvalue()) == (2, f"error: {exc}\n")
                continue
            assert code == 0, err.getvalue()
            with open(target, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            expected = []
            for t in traces:
                ratio = relative_jump(t)
                expected.append([
                    *map(FLOAT.serialize, (t.location, t.left, t.right,
                                           t.data_jump)),
                    "CONT" if ratio is None else FLOAT.serialize(ratio),
                    str(t.left_signature), str(t.right_signature)])
            assert rows == expected


def test_point_csv_must_increase(capsys, tmp_path):
    path = tmp_path / "dec.csv"
    path.write_text("x,value\n0,1\n0,2\n")
    code, _, err = run(capsys, "interpolate", "--input", str(path),
                       "--order", "1")
    assert code == 2
    assert "line 3" in err


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "reconstruct", "--input",
                       str(tmp_path / "nope.csv"), "--order", "1")
    assert code == 2


@pytest.mark.parametrize("command", [
    ("bounds", "--uniform", "--order", "3"),
    ("reconstruct", "--input", "{cells}", "--order", "2"),
    ("interpolate", "--input", "{points}", "--order", "2"),
    ("verify", "--input", "{cells}", "--order", "2"),
    ("worst-case", "--order", "2"),
    ("fuzz", "--trials", "1", "--cells", "8", "--orders", "1"),
    ("converge", "--orders", "1", "--resolutions", "8,16"),
], ids=lambda command: command[0])
def test_unwritable_output_exit_code(capsys, tmp_path, cells_csv, points_csv,
                                     command):
    """Every command reports an output path it cannot write as one error
    line and exits 2: here the path is a directory."""
    argv = [arg.format(cells=cells_csv, points=points_csv) for arg in command]
    code, out, err = run(capsys, *argv, "--output", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert err.count("\n") == 1


def test_unwritable_construction_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "construction.csv")
    code, out, err = run(capsys, "worst-case", "--order", "2",
                         "--construction", missing)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {missing}: ")


def test_order_too_large_exit_code(capsys, cells_csv):
    code, _, err = run(capsys, "reconstruct", "--input", cells_csv,
                       "--order", "5")
    assert code == 3
    assert "order 5" in err


def test_worst_case_summary(capsys):
    code, out, _ = run(capsys, "worst-case", "--order", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == "16/3"
    assert abs(float(payload["max_ratio"]) - 16 / 3) < 1e-6
    assert payload["x"] == "4.0"
    assert payload["violations"] == 0


def test_worst_case_construction_round_trips(capsys, tmp_path):
    built = tmp_path / "construction.csv"
    code, _, _ = run(capsys, "worst-case", "--order", "3", "--backend",
                     "exact", "--epsilon", "1/1000", "--construction",
                     str(built))
    assert code == 0
    code, out, _ = run(capsys, "reconstruct", "--input", str(built),
                       "--order", "3")
    assert code == 0
    assert "VIOLATION" not in out


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("epsilon", ["1/0", "abc"])
def test_worst_case_bad_epsilon_exit_code(capsys, backend, epsilon):
    code, out, err = run(capsys, "worst-case", "--order", "3", "--backend",
                         backend, "--epsilon", epsilon)
    assert code == 2
    assert out == ""
    assert err == f"error: --epsilon: unparsable scalar {epsilon!r}\n"


@pytest.mark.parametrize("backend", ["float", "exact"])
def test_worst_case_negative_epsilon_exit_code(capsys, backend):
    code, out, err = run(capsys, "worst-case", "--order", "3", "--backend",
                         backend, "--epsilon", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: epsilon must be >= 0\n"


def test_fuzz_json_and_exit(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "3", "--cells", "12",
                       "--orders", "1,2", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["seed"] == 11
    assert payload["trials"] == 3


def test_fuzz_byte_stable_across_workers(capsys):
    argv = ["fuzz", "--trials", "4", "--cells", "12", "--orders", "1,2,3",
            "--seed", "2"]
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv, "--workers", "2")
    assert code_a == code_b == 0
    assert out_a == out_b


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_fuzz_bad_workers_exit_code(capsys, workers):
    code, out, err = run(capsys, "fuzz", "--trials", "2", "--workers",
                         workers)
    assert code == 2
    assert out == ""
    assert err == "error: workers must be >= 1\n"


def test_fuzz_planted_violation_exits_four(capsys, monkeypatch):
    import enokit.cli as cli_mod

    class Stub:
        violations = 1
        bound_exceedances = 0
        oracle_mismatches = 0

        def to_json(self):
            return "{}"

    monkeypatch.setattr(cli_mod, "fuzz_sign_property",
                        lambda config, workers=1: Stub())
    code, _, _ = run(capsys, "fuzz", "--trials", "1")
    assert code == 4


@pytest.mark.parametrize("low, high, message", [
    ("0.5", "inf", "finite upper bound"),
    ("1e-6", "1e-6", "no cell width"),
])
def test_fuzz_rejects_width_bounds_without_a_width(capsys, low, high, message):
    code, out, err = run(capsys, "fuzz", "--trials", "2", "--width-low", low,
                         "--width-high", high)
    assert code == 2
    assert out == ""
    assert message in err


def test_fuzz_rejects_bad_orders(capsys):
    code, _, err = run(capsys, "fuzz", "--orders", "1,x")
    assert code == 2
    code, _, _ = run(capsys, "fuzz", "--orders", ",")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("fuzz", "--orders", "1,x"),
     "--orders expects a comma-separated integer list"),
    (("fuzz", "--orders", ","), "--orders expects a nonempty list"),
    (("fuzz", "--trials", "3", "--cells", "12", "--orders", "2,2"),
     "orders must be distinct"),
    (("converge", "--orders", "2,2", "--resolutions", "8,16"),
     "orders must be distinct"),
    (("converge", "--orders", "1", "--resolutions", "8,y"),
     "--resolutions expects a comma-separated integer list"),
    (("converge", "--resolutions", " , "),
     "--resolutions expects a nonempty list"),
    (("bounds", "--order", "2"),
     "bounds needs exactly one of --uniform or --input"),
    (("bounds", "--order", "2", "--uniform", "--input", "{cells}"),
     "bounds needs exactly one of --uniform or --input"),
], ids=["orders-list", "orders-empty", "orders-repeated",
        "converge-orders-repeated", "resolutions-list", "resolutions-empty", "bounds-neither",
        "bounds-both"])
def test_argument_errors_name_no_csv_line(capsys, cells_csv, argv, message):
    """Errors that no CSV line caused are one unnumbered line on stderr. A
    repeated fuzz order would be checked, counted and witnessed twice, a
    repeated converge order printed twice."""
    argv = [arg.format(cells=cells_csv) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ("reconstruct", "--order", "1"),
    ("interpolate", "--order", "1"),
    ("verify", "--order", "1"),
    ("bounds", "--order", "1"),
], ids=lambda command: command[0])
def test_unreadable_input_names_no_csv_line(capsys, tmp_path, command):
    missing = str(tmp_path / "nope.csv")
    code, out, err = run(capsys, *command, "--input", missing)
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot read {missing}: [Errno 2] "
                   f"No such file or directory: {missing!r}\n")


def test_converge_table(capsys):
    code, out, _ = run(capsys, "converge", "--orders", "1,2",
                       "--resolutions", "8,16,32")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,resolution,max_error,fitted_rate"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "8"
    assert float(first[3]) > 0.6


# Every scalar form a CSV cell may take: decimals, ints, num/den,
# exponents, -0 (after a 0, so that a float -0.0 would show in a data
# jump), padded cells, an x_left whose text differs from the previous
# x_right but not its value, blank lines and Arabic-Indic digits.
PINNED_CELLS = """x_left,x_right,avg
-0,0.5,1
0.5, 1 ,-0
1,3/2,2.5e1
3/2,2,-1/3

2.0,2.25,7
2.25,3,1E-2
3,3.125,-0.000
3.125,\u0664,\u0663
4,5, 12
5,5.5,-3
5.5,6,1/7

6,7,4
7,7.75,0
7.75,8,-0
8,9,5e0
9,1.0e1,-1.5
10,11,2e-0
"""
PINNED_POINTS = """x,value
-0,1
0.5,-0
1,2.5e1
3/2,-1/3

2.25,7
 3 ,1E-2
3.125,-0.000
\u0664,\u0663
5,12
5.5,-3
6,1/7

7,4
7.75,0
8,-0
9,5e0
1.0e1,-1.5
11,2e-0
"""
# The same files with every num/den written as a decimal, so that the
# float backend reads each of their columns in one float() pass.
FRACTIONS_AS_DECIMALS = (("3/2", "1.5"), ("-1/3", "-0.25"), ("1/7", "0.125"))
# Faults in several rows and columns; each suffix of the rows reports its
# own first fault, the earliest row's, and within a row x_left, x_right,
# avg, then the order checks. 1e400 overflows binary64 only.
MALFORMED_CELLS = ("x_left,x_right,avg", (
    "0,1,2", "1,2,1e400", "2, 3 ,x", "3,4,1", "4.5,5,1", "5,6", "6,1/0,2",
    "y,7,z", "7,6,q", "8,9,1/-2", "9,10,1", "10,10.5,1", "10.50,11,2",
    "11,10,3", "12,13,1", "1_3,14,1", "14,15,1", "1 5,16,1", "16,17,+1",
))
MALFORMED_POINTS = ("x,value", (
    "0,1", "1,1e400", "2,x", "3,1", "3,2", "a,b", "4", "5,inf", "nan,1",
    "6,--2", "7,2", " 8 , 1/3 ", "7.5,1", "9,1", "1_0,2", "1 1,3",
))


def _pinned_runs(directory):
    """(label, argv) of every pinned run, the CSVs written into directory."""
    def write(name, text):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return path

    runs = []
    for tag, rewrite in (("", ()), (" decimal", FRACTIONS_AS_DECIMALS)):
        cells, points = PINNED_CELLS, PINNED_POINTS
        for fraction, decimal in rewrite:
            cells = cells.replace(fraction, decimal)
            points = points.replace(fraction, decimal)
        cells = write(f"cells{tag}.csv", cells)
        points = write(f"points{tag}.csv", points)
        for p in ("1", "3", "6", "9"):
            for backend in ("exact", "float"):
                runs += [
                    (f"reconstruct{tag} {p} {backend}",
                     ["reconstruct", "--input", cells, "--order", p,
                      "--backend", backend]),
                    (f"interpolate{tag} {p} {backend}",
                     ["interpolate", "--input", points, "--order", p,
                      "--backend", backend]),
                    (f"verify cells{tag} {p} {backend}",
                     ["verify", "--input", cells, "--order", p, "--backend",
                      backend]),
                    (f"verify points{tag} {p} {backend}",
                     ["verify", "--input", points, "--kind", "interpolation",
                      "--order", p, "--backend", backend]),
                ]
            runs += [
                (f"bounds cells{tag} {p}",
                 ["bounds", "--input", cells, "--order", p]),
                (f"bounds points{tag} {p}",
                 ["bounds", "--input", points, "--kind", "interpolation",
                  "--order", p]),
            ]
    for name, (header, rows), commands in (
            ("cells", MALFORMED_CELLS,
             (["reconstruct"], ["verify"], ["bounds"])),
            ("points", MALFORMED_POINTS,
             (["interpolate"], ["verify", "--kind", "interpolation"],
              ["bounds", "--kind", "interpolation"]))):
        for start in range(len(rows)):
            path = write(f"bad_{name}{start}.csv",
                         "\n".join((header, *rows[start:])) + "\n")
            for command in commands:
                for backend in ((None,) if command[0] == "bounds"
                                else ("exact", "float")):
                    extra = [] if backend is None else ["--backend", backend]
                    runs.append((f"{' '.join(command)} {name}{start} "
                                 f"{backend}",
                                 [*command, "--input", path, "--order", "1",
                                  *extra]))
    return runs


def _pinned_digest():
    """sha256 over the label, exit code, stdout and stderr of every pinned
    run, in order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as directory:
        for label, argv in _pinned_runs(directory):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            digest.update(repr((label, code, out.getvalue(),
                                err.getvalue())).encode())
    return digest.hexdigest()


def test_cli_outputs_are_pinned():
    """Every byte the reading, checking and writing commands give on CSVs
    of every accepted scalar form, with and without num/den cells, in both
    backends, and the one error line and exit code of every suffix of two
    malformed CSVs."""
    assert _pinned_digest() == PINNED_CLI_DIGEST


PINNED_CLI_DIGEST = (
    "6f8dca6c8b32f38c7d9726ab1dc139b70beda41ef01a4d2c2ba0f79931fdbfa6")


if __name__ == "__main__":
    print(_pinned_digest())
