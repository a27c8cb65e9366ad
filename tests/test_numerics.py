"""Backends, the float-or-exact rule, and divided-difference tables."""

import ast
import copy
import math
import operator
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from enokit import (
    EXACT,
    FLOAT,
    InvalidMesh,
    NonFiniteValue,
    PointValueField,
    ShapeError,
    divided_difference_table,
    get_backend,
)
from enokit import numerics
from enokit.numerics import (
    NODE,
    _Rational,
    _rational,
    build_table,
    field_table,
    float_entry,
    halfway,
    is_float_data,
    quotient,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def test_backend_lookup():
    assert get_backend("float") is FLOAT
    assert get_backend("exact") is EXACT
    with pytest.raises(ValueError):
        get_backend("decimal")


def test_float_backend_flags():
    assert FLOAT.name == "float"
    assert not FLOAT.exact
    assert EXACT.name == "exact"
    assert EXACT.exact


@given(finite_floats)
def test_float_serialize_round_trips(x):
    assert FLOAT.parse(FLOAT.serialize(x)) == x


def test_float_parse_accepts_rational_strings():
    assert FLOAT.parse("1/4") == 0.25
    assert FLOAT.parse("-3/2") == -1.5
    assert FLOAT.parse("1e-3") == 0.001


def test_float_parse_edge_strings():
    assert FLOAT.parse("1/3") == 1 / 3
    assert FLOAT.parse(".5") == 0.5
    assert FLOAT.parse("1_0") == 10.0
    assert FLOAT.parse("1e-400") == 0.0
    for text in ("-0", "-0.0", "-1e-400"):
        zero = FLOAT.parse(text)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0, text
    for text in ("1e400", "-1e400", "nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            FLOAT.parse(text)
    with pytest.raises(OverflowError):
        FLOAT.parse("1" + "0" * 400 + "/1")


def test_float_parse_matches_the_rational_reading():
    rng = random.Random(8)
    for _ in range(3000):
        digits = str(rng.randint(0, 10 ** rng.randint(1, 20)))
        cut = rng.randint(0, len(digits))
        text = f"{rng.choice(('', '-'))}{digits[:cut]}.{digits[cut:]}"
        if rng.random() < 0.5:
            text += f"e{rng.randint(-340, 280)}"
        assert FLOAT.parse(text) == float(Fraction(text)), text


@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 9))
def test_exact_serialize_round_trips(num, den):
    q = EXACT.convert(Fraction(num, den))
    assert EXACT.parse(EXACT.serialize(q)) == q


def test_exact_parse_decimal_is_exact():
    assert EXACT.parse("0.1") == Fraction(1, 10)
    assert EXACT.parse("1e-10") == Fraction(1, 10 ** 10)
    assert EXACT.parse("-7/3") == Fraction(-7, 3)


# The string forms EXACT.convert reads with int(): ASCII or other Unicode
# decimal digits (category Nd), leading zeros included.
decimal_digits = st.text(
    st.sampled_from("0123456789") | st.characters(categories=("Nd",)),
    min_size=1, max_size=40)
signs = st.sampled_from(("", "-"))
decimal_forms = st.builds(
    lambda sign, whole, fraction, exponent: sign + whole + fraction + exponent,
    signs, decimal_digits,
    st.just("") | decimal_digits.map(".".__add__),
    st.just("") | st.builds(
        "".join, st.tuples(st.sampled_from("eE"), st.sampled_from(("", "+", "-")),
                           st.text(st.sampled_from("0123456789"), min_size=1,
                                   max_size=2))))
ratio_forms = st.builds(lambda sign, num, den: f"{sign}{num}/{den}",
                        signs, decimal_digits, decimal_digits)
fast_forms = (decimal_forms | ratio_forms
              | st.sampled_from(("-0", "-0.000", "0/7", "-00/01", "1E+00")))


def _fraction_outcome(text):
    """Fraction's value of text, or the type of the error it raises."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _convert_outcome(text):
    """EXACT.convert's value of text, of the backend's own type, or the
    type of the error it raises."""
    try:
        value = EXACT.convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    assert type(value) is type(EXACT.convert(0)), text
    return value


@given(fast_forms)
def test_exact_convert_reads_its_int_forms_as_fraction_does(text):
    assert _convert_outcome(text) == _fraction_outcome(text)


@given(fast_forms, st.sampled_from((" ", "\t", "\u3000")))
def test_exact_convert_of_padded_and_signed_forms_is_fractions(text, pad):
    for variant in (pad + text, text + pad, "+" + text.lstrip("-"),
                    text.replace("0", "0_0", 1)):
        assert _convert_outcome(variant) == _fraction_outcome(variant)


def test_exact_convert_fast_forms_make_no_fraction(monkeypatch):
    """The [-]digits[.digits][e[+-]digits] and [-]digits/digits forms are
    read with int(), never with Fraction's regex."""
    import enokit.numerics as numerics

    expected = [Fraction(t) for t in ("1234.567", "-57", "2.5E-3", "-6/4")]

    def refuse(*args):
        raise AssertionError("Fraction(str) called")

    monkeypatch.setattr(numerics, "Fraction", refuse)
    got = [EXACT.convert(t) for t in ("1234.567", "-57", "2.5E-3", "-6/4")]
    monkeypatch.undo()
    assert got == expected


@pytest.mark.parametrize("text", ["+1", "1_0", " 2 ", ".5", "1.", "-.5e1",
                                  "1e1_0", "\u0663/\u0664"])
def test_exact_convert_other_strings_go_to_fraction(text):
    assert _convert_outcome(text) == Fraction(text)


def test_exact_convert_digit_limit_applies_as_in_fraction():
    """int() refuses more than sys.get_int_max_str_digits() digits, where
    Python has that limit; the whole and fraction digits of a decimal are
    read apart, as Fraction reads them, so each may come near it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    near = "1" * (limit - 1) + "." + "2" * (limit - 1)
    over = "3" * (limit + 1)
    for text in (near, "-" + near + "e-5", over, over + "/7", "7/" + over):
        assert _convert_outcome(text) == _fraction_outcome(text)


@pytest.mark.parametrize("text, error", [
    ("", ValueError), ("-", ValueError), (".", ValueError),
    ("1..2", ValueError), ("--1", ValueError), ("1/0", ZeroDivisionError),
    ("1/-2", ValueError), ("1e", ValueError), ("1/2e3", ValueError),
    ("-/2", ValueError), ("1.5/2", ValueError),
])
def test_exact_convert_malformed_strings_raise_as_fraction(text, error):
    assert _fraction_outcome(text) is error
    with pytest.raises(error):
        EXACT.convert(text)


def test_exact_convert_float_is_binary_value():
    assert EXACT.convert(0.1) == Fraction(0.1)
    assert EXACT.convert(0.1) != Fraction(1, 10)
    assert EXACT.convert(0.5) == Fraction(1, 2)


def test_exact_serialize_integer_is_bare():
    assert EXACT.serialize(EXACT.convert(3)) == "3"
    assert "/" in EXACT.serialize(EXACT.convert(Fraction(1, 3)))


def test_build_table_makes_exact_ints_its_own_type():
    table = build_table([0, 1, 2], [1, 2, 3], 1)
    assert table.approximate is False
    out = table.levels[0]
    quotient = out[0] / out[1]
    assert quotient == Fraction(1, 2)
    assert not isinstance(quotient, float)


def test_build_table_mixed_int_and_fraction_stay_exact():
    table = build_table([0, 1], [1, Fraction(1, 2)], 1)
    assert table.approximate is False
    own = type(EXACT.convert(0))
    for column in (table.points, table.levels[0], table.levels[1]):
        assert {type(v) for v in column} == {own}
    assert table.levels[0] == [Fraction(1), Fraction(1, 2)]


def test_float_entry_converts_every_column_when_one_holds_a_float():
    assert float_entry([1, 0.5], [Fraction(1, 3)], (2,)) == (
        True, [1.0, 0.5], [float(Fraction(1, 3))], [2.0])
    for column in float_entry([1, 0.5], [Fraction(1, 3)], (2,))[1:]:
        assert {type(v) for v in column} == {float}


def test_float_entry_returns_exact_columns_as_given():
    ints, fractions = [1, 2], (Fraction(1, 2),)
    approximate, *columns = float_entry(ints, fractions)
    assert approximate is False
    assert columns[0] is ints and columns[1] is fractions


def test_is_float_data():
    assert is_float_data([1, 2.0])
    assert not is_float_data([1, Fraction(1, 2)])


def test_halfway_exact_for_ints():
    mid = halfway(0, 1)
    assert mid == Fraction(1, 2)
    assert not isinstance(mid, float)


def test_halfway_float_when_any_float():
    assert halfway(0.0, 1) == 0.5
    assert isinstance(halfway(0, 1.0), float)


def test_table_known_values():
    table = divided_difference_table([0, 1, 3], [1, 2, 0])
    assert table.max_order == 2
    assert table.levels[0][0] == 1
    assert table.levels[1][0] == 1
    assert table.levels[1][1] == -1
    assert table.levels[2][0] == Fraction(-2, 3)


def test_table_depth_clamps():
    table = divided_difference_table([0, 1, 2], [0, 1, 4], max_order=99)
    assert table.max_order == 2
    shallow = divided_difference_table([0, 1, 2], [0, 1, 4], max_order=1)
    assert shallow.max_order == 1


def test_table_validation():
    with pytest.raises(ShapeError):
        divided_difference_table([0, 1], [1])
    with pytest.raises(ShapeError):
        divided_difference_table([], [])
    with pytest.raises(InvalidMesh):
        divided_difference_table([0, 0, 1], [1, 2, 3])
    with pytest.raises(InvalidMesh):
        divided_difference_table([0, 2, 1], [1, 2, 3])
    with pytest.raises(NonFiniteValue, match="value 1"):
        divided_difference_table([0, 1, 2], [1, math.nan, 3])
    with pytest.raises(NonFiniteValue, match="point 2"):
        divided_difference_table([0, 1, math.inf], [1, 2, 3])


@given(
    st.lists(st.integers(-50, 50), min_size=4, max_size=8, unique=True),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_table_annihilates_polynomials(xs, coeffs):
    """Degree-d data: level d is the leading coefficient, deeper levels 0."""
    xs = sorted(xs)
    d = len(coeffs) - 1
    vals = [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs]
    table = divided_difference_table(xs, vals)
    lead = Fraction(coeffs[-1])
    assert all(entry == lead for entry in table.levels[d])
    for level in table.levels[d + 1:]:
        assert all(entry == 0 for entry in level)


def test_table_exact_stays_exact():
    table = divided_difference_table([0, 1, 2], [0, 1, 3])
    assert not any(
        isinstance(entry, float) for level in table.levels for entry in level
    )


def test_table_float_data_stays_float():
    table = divided_difference_table([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
    assert all(
        isinstance(entry, float) for level in table.levels for entry in level
    )


# Each public way to build the full table of point values over points.
_TABLE_BUILDERS = (
    divided_difference_table,
    lambda points, values: field_table(
        PointValueField(points, values), len(points) - 1, NODE),
    lambda points, values: build_table(
        points, values, len(points) - 1, grid=True),
)


@pytest.mark.parametrize("points, values", [
    ([Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)],
     [0.0, 1.0, 4.0, 9.0]),
    ([0.0, 0.3, 0.7, 1.0],
     [Fraction(0), Fraction(1, 3), Fraction(4, 7), Fraction(9)]),
], ids=["exact-points", "float-points"])
def test_every_table_builder_converts_mixed_input_to_float_first(
        points, values):
    """Exact and float scalars mixed: each builder converts all of them to
    float before differencing, so every level has the same bits."""
    tables = [build(points, values) for build in _TABLE_BUILDERS]
    assert all(table.approximate for table in tables)
    digests = [[[float.hex(x) for x in level] for level in table.levels]
               for table in tables]
    assert digests[0] == digests[1] == digests[2]
    xs, ys = [float(x) for x in points], [float(v) for v in values]
    assert digests[0][:2] == [list(map(float.hex, ys)), [
        float.hex((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])) for k in range(3)]]


def test_every_table_builder_raises_on_float_overflow():
    for build in _TABLE_BUILDERS:
        with pytest.raises(NonFiniteValue, match="float overflow"):
            build([0.0, 1.0], [1e308, -1e308])


def _rule_breaches(tree):
    """Nodes of a module that pick float or exact arithmetic themselves: a
    reference to is_float_data, isinstance(x, float) or type(x) is float."""
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and (
                getattr(node, "id", None) == "is_float_data"
                or getattr(node, "attr", None) == "is_float_data"):
            breaches.append(node)
        elif isinstance(node, ast.alias) and node.name == "is_float_data":
            breaches.append(node)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and any(isinstance(n, ast.Name) and n.id == "float"
                      for n in ast.walk(node.args[1]))):
            breaches.append(node)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            typed = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                        and n.func.id == "type" for n in sides)
            if typed and any(isinstance(n, ast.Name) and n.id == "float"
                             for n in sides):
                breaches.append(node)
    return breaches


def test_only_float_entry_decides_float_or_exact():
    """Outside numerics, no module tests for floats to pick its arithmetic:
    the trace and check code read the table's `approximate`, which
    build_table takes from float_entry."""
    package = Path(numerics.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        breaches = _rule_breaches(ast.parse(path.read_text(), str(path)))
        assert not breaches, (
            f"{path.name} line {breaches[0].lineno} picks float or exact "
            f"itself; use numerics.float_entry or table.approximate")
    assert not hasattr(numerics, "promote_integers")
    modules = {path.stem: ast.parse(path.read_text())
               for path in package.glob("*.py")}
    for module, function in (("eno_reconstruction", "_traces"),
                             ("eno_reconstruction", "_newton_form"),
                             ("harness", "check_orders")):
        body, = (node for node in ast.walk(modules[module])
                 if isinstance(node, ast.FunctionDef) and node.name == function)
        assert any(isinstance(node, ast.Attribute)
                   and node.attr == "approximate"
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "table"
                   for node in ast.walk(body)), (module, function)


def test_the_rule_scan_sees_each_way_to_pick_the_arithmetic():
    for source in ("is_float_data(xs)", "from .numerics import is_float_data",
                   "numerics.is_float_data(xs)", "isinstance(x, float)",
                   "isinstance(x, (int, float))", "type(x) is float",
                   "float is not type(xs[0])", "type(x) == float"):
        assert _rule_breaches(ast.parse(source)), source
    for source in ("float(x)", "type(x) is int", "isinstance(x, int)",
                   "x.approximate"):
        assert not _rule_breaches(ast.parse(source)), source


# ---- The exact backend's own rational ----

small_ints = st.integers(-10 ** 6, 10 ** 6) | st.integers(-3, 3)
nonzero = (small_ints | st.integers(-10 ** 30, 10 ** 30)).filter(bool)
rationals = st.builds(_rational, small_ints, nonzero)
fractions = st.builds(Fraction, small_ints, st.integers(1, 10 ** 6))
operands = rationals | small_ints | fractions


def _plain(x):
    """x as the reference sees it: a _Rational becomes a plain Fraction."""
    return Fraction(x.numerator, x.denominator) if type(x) is _Rational else x


def _lowest(q):
    return q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1


@given(operands, operands)
def test_rational_arithmetic_matches_fraction(a, b):
    if _Rational not in (type(a), type(b)):
        a = _rational(a.numerator, a.denominator)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        try:
            expected = op(_plain(a), _plain(b))
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
            continue
        got = op(a, b)
        assert got == expected and type(expected) is Fraction
        assert _lowest(got), (op, a, b, got)
        own = {type(a), type(b)} <= {_Rational, int}
        assert type(got) is (_Rational if own else Fraction), (op, a, b)


@given(rationals)
def test_rational_unary_and_conversions_match_fraction(a):
    ref = _plain(a)
    for got, expected in ((-a, -ref), (abs(a), abs(ref))):
        assert type(got) is _Rational and got == expected and _lowest(got)
    assert _lowest(a)
    assert hash(a) == hash(ref)
    if a.denominator == 1:
        assert hash(a) == hash(a.numerator) and a == a.numerator
    assert str(a) == str(ref) and repr(a) == repr(ref)
    assert bool(a) is bool(ref) and float(a) == float(ref)
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
        assert type(clone) is _Rational and clone == a
    assert isinstance(a, Fraction)


comparands = operands | st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.5, -0.0])


@given(rationals, comparands)
def test_rational_comparisons_match_fraction(a, b):
    for op in (operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge):
        assert op(a, b) is op(_plain(a), _plain(b)), (op, a, b)
        assert op(b, a) is op(_plain(b), _plain(a)), (op, b, a)


@given(small_ints, small_ints)
def test_rational_constructor_normalises(n, d):
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            _rational(n, d)
        return
    q = _rational(n, d)
    assert type(q) is _Rational and q == Fraction(n, d) and _lowest(q)


def test_rational_division_by_zero_raises():
    half = _rational(1, 2)
    for divide in (lambda: half / 0, lambda: half / _rational(0),
                   lambda: 3 / _rational(0), lambda: _rational(0) / 0,
                   lambda: _rational(5, 0), lambda: EXACT.convert(0) / 0):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_exact_backend_makes_its_own_type_everywhere():
    """convert, build_table, quotient and halfway give the backend's
    type, for ints, floats, strings and plain Fractions alike."""
    own = type(EXACT.convert(0))
    made = [EXACT.convert(3), EXACT.convert(0.1), EXACT.convert("-7/3"),
            EXACT.convert("0.25"), EXACT.convert(Fraction(4, 6)),
            quotient(2, -4), halfway(1, 4), *build_table(
                [0, 1, 2], [1, Fraction(1, 2), EXACT.convert(5)], 0).levels[0]]
    assert {type(v) for v in made} == {own}
    assert made == [3, Fraction(0.1), Fraction(-7, 3), Fraction(1, 4),
                    Fraction(2, 3), Fraction(-1, 2), Fraction(5, 2),
                    1, Fraction(1, 2), 5]
