"""Scalar backends and divided-difference tables.

Scalars are plain Python numbers. The float backend works in binary64.
The exact backend works in arbitrary-precision rationals, so no operation
ever rounds and sign checks performed on exact scalars are authoritative:
gmpy2's mpq when gmpy2 is installed, else _Rational, a fractions.Fraction
subclass that does its arithmetic with ints and its own kind directly and
leaves every other operand to Fraction.

The data picks the arithmetic by one rule, float_entry: float when any of
its columns holds a float, else exact. build_table applies it and records
the answer on the table as `approximate`, which the trace and check code
read; making exact scalars the exact backend's type is a separate step
(_own_type).
"""

from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import sub, truediv

from .errors import InvalidMesh, NonFiniteValue, ShapeError

try:
    import gmpy2 as _gmpy2
except ImportError:  # gmpy2 is the optional "gmpy2" extra
    _gmpy2 = None


# Shift of the levels that decide each stage: a cell's stage-j stencil
# holds j+1 interfaces of the primitive, a node's holds j nodes.
CELL = 1
NODE = 0


# ---- Rationals ----

class _Rational(Fraction):
    """A Fraction whose arithmetic with ints and its own kind skips
    Fraction's operand dispatch.

    It keeps Fraction's value, slots, hash, str, pickling and copying;
    repr prints it as a Fraction too. Sums, differences, products and
    quotients with an int or a _Rational use Henrici's reduced cross
    products (Knuth, TAOCP vol. 2, 4.5.1), as Fraction's own do, and give
    a _Rational in lowest terms with a positive denominator; comparisons
    with them cross-multiply. Any other operand (a float, a plain
    Fraction, a Decimal, an mpq) goes to Fraction's method, so mixed
    arithmetic keeps Fraction's results and types. Build one with
    _rational: calling the class runs Fraction's general constructor,
    which is there for unpickling and copying.
    """

    __slots__ = ()

    # A class that defines __eq__ loses its inherited __hash__.
    __hash__ = Fraction.__hash__

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __add__(a, b):
        if type(b) is int:
            return _raw(a._numerator + b * a._denominator, a._denominator)
        if type(b) is _Rational:
            return _sum(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        if type(b) is int:
            return _raw(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        if type(b) is int:
            return _raw(a._numerator - b * a._denominator, a._denominator)
        if type(b) is _Rational:
            return _sum(a._numerator, a._denominator,
                        -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _raw(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _raw(a._numerator * (b // g), a._denominator // g)
        if type(b) is _Rational:
            return _product(a._numerator, a._denominator,
                            b._numerator, b._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        if type(b) is int:
            g = gcd(b, a._denominator)
            return _raw(a._numerator * (b // g), a._denominator // g)
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        if type(b) is int:
            return _product(a._numerator, a._denominator, 1, b)
        if type(b) is _Rational:
            return _product(a._numerator, a._denominator,
                            b._denominator, b._numerator)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        if type(b) is int:
            return _product(b, 1, a._denominator, a._numerator)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _raw(-a._numerator, a._denominator)

    def __abs__(a):
        return _raw(abs(a._numerator), a._denominator)

    def __eq__(a, b):
        if type(b) is int:
            return a._denominator == 1 and a._numerator == b
        if type(b) is _Rational:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        if type(b) is int:
            return a._numerator < b * a._denominator
        if type(b) is _Rational:
            return a._numerator * b._denominator < b._numerator * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is int:
            return a._numerator <= b * a._denominator
        if type(b) is _Rational:
            return (a._numerator * b._denominator
                    <= b._numerator * a._denominator)
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is int:
            return a._numerator > b * a._denominator
        if type(b) is _Rational:
            return a._numerator * b._denominator > b._numerator * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is int:
            return a._numerator >= b * a._denominator
        if type(b) is _Rational:
            return (a._numerator * b._denominator
                    >= b._numerator * a._denominator)
        return Fraction.__ge__(a, b)


def _raw(numerator, denominator, _new=object.__new__):
    """The _Rational numerator/denominator, which must be in lowest terms
    with a positive denominator."""
    r = _new(_Rational)
    r._numerator = numerator
    r._denominator = denominator
    return r


def _rational(numerator, denominator=1):
    """The int ratio numerator/denominator as a _Rational in lowest terms,
    its sign on the numerator.

    Raises:
        ZeroDivisionError: a zero denominator.
    """
    if denominator == 1:
        return _raw(numerator, 1)
    if not denominator:
        raise ZeroDivisionError(f"Fraction({numerator}, 0)")
    g = gcd(numerator, denominator)
    if denominator < 0:
        g = -g
    return _raw(numerator // g, denominator // g)


def _sum(na, da, nb, db):
    """na/da + nb/db, both in lowest terms with positive denominators."""
    g = gcd(da, db)
    if g == 1:
        return _raw(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _raw(t, s * db)
    return _raw(t // g2, s * (db // g2))


def _product(na, da, nb, db):
    """(na/da) * (nb/db), both in lowest terms and da positive; db may be
    negative, so a quotient is the product with its divisor inverted.

    Raises:
        ZeroDivisionError: db is zero.
    """
    if not db:
        raise ZeroDivisionError(f"Fraction({na * nb}, 0)")
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    n, d = na * nb, db * da
    if d < 0:
        return _raw(-n, -d)
    return _raw(n, d)


# ---- Backends ----

class FloatBackend:
    """Binary64 scalars."""

    name = "float"
    exact = False

    def convert(self, x):
        """Coerce x to a finite float, from a number or a decimal or num/den
        string.

        Decimal strings are read by float(), which rounds them correctly;
        num/den strings go through Fraction. A string reads "-0" as 0.0, as
        the exact backend does. Non-finite results raise ValueError.
        """
        if isinstance(x, str):
            value = float(Fraction(x)) if "/" in x else float(x) + 0.0
        else:
            value = float(x)
        if not isfinite(value):
            raise ValueError(f"{x!r} is not a finite binary64 scalar")
        return value

    def parse(self, text):
        """Read a scalar from its serialized form."""
        return self.convert(text)

    def serialize(self, s):
        """Shortest decimal string that round-trips to the same float."""
        return repr(float(s))


class ExactBackend:
    """Arbitrary-precision rational scalars.

    `_make(num, den)` is the one hook that picks the rational type: gmpy2's
    mpq when gmpy2 is installed, else _rational, which gives a _Rational.
    Every exact scalar the package makes (convert, _own_type, quotient,
    halfway) comes from it, and the arithmetic on those keeps the
    type, so the whole exact path runs on one type.
    """

    name = "exact"
    exact = True

    _make = staticmethod(_rational) if _gmpy2 is None else _gmpy2.mpq

    def convert(self, x):
        """Coerce x to a rational, exactly.

        Strings may be integers, decimals, or num/den fractions; decimals
        convert by their printed value ("0.1" becomes 1/10). Floats convert
        to their exact binary value. The forms [-]digits[.digits]
        [(e|E)[+-]digits] and [-]digits/digits are read with int(); every
        other string (a + sign, _ separators, surrounding whitespace,
        ".5", "1.", or anything malformed) goes to Fraction(str), so values
        and errors are Fraction's for every string. Digits are the Unicode
        decimal digits (str.isdecimal), which int() and Fraction's \\d both
        accept.
        """
        if type(x) is int:
            return self._make(x, 1)
        if type(x) is str:
            value = self._read_text(x)
            if value is not None:
                return value
        elif isinstance(x, float):
            return self._make(*x.as_integer_ratio())
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return self._make(x.numerator, x.denominator)

    def _read_text(self, text):
        """The rational a string of convert's int() forms spells, or None
        for any other string."""
        negative = text[:1] == "-"
        body = text[1:] if negative else text
        if body.isdecimal():
            n, d = int(body), 1
        elif "/" in body:
            num, _, den = body.partition("/")
            if not (num.isdecimal() and den.isdecimal()):
                return None
            n, d = int(num), int(den)
        else:
            mantissa, e, exponent = body.partition("e" if "e" in body else "E")
            whole, dot, fraction = mantissa.partition(".")
            if not (whole.isdecimal() and (fraction.isdecimal() or not dot)):
                return None
            # The whole and fraction digits are two int() calls, as in
            # Fraction, so int()'s digit limit applies to each alone.
            n, d = int(whole), 10 ** len(fraction)
            if fraction:
                n = n * d + int(fraction)
            if e:
                digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
                if not digits.isdecimal():
                    return None
                power = int(exponent)
                if power < 0:
                    d *= 10 ** -power
                else:
                    n *= 10 ** power
        return self._make(-n if negative else n, d)

    def parse(self, text):
        """Read a scalar from its serialized form."""
        return self.convert(text)

    def serialize(self, s):
        """num/den string, or a bare integer when the denominator is 1."""
        return str(s)


FLOAT = FloatBackend()
EXACT = ExactBackend()

_BACKENDS = {"float": FLOAT, "exact": EXACT}


def get_backend(name):
    """Look up a backend by name ("float" or "exact")."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected 'float' or 'exact'")


def is_float_data(values):
    """True when any scalar in values is a binary64 float."""
    return any(isinstance(v, float) for v in values)


def float_entry(*columns):
    """The package's one rule for float or exact: float when any column
    holds a float.

    Returns (approximate, *columns): every column as a float list when
    approximate, else each column as given. Exact scalars keep their type
    here; _own_type makes them the exact backend's.
    """
    if any(map(is_float_data, columns)):
        return (True, *(list(map(float, column)) for column in columns))
    return (False, *columns)


def _own_type(values, keep=None):
    """values as a list, EXACT.convert applied to each value whose type is
    neither the exact backend's nor keep."""
    own = type(EXACT.convert(0))
    return [v if type(v) is own or type(v) is keep else EXACT.convert(v)
            for v in values]


def quotient(a, b):
    """a / b: binary64 when either is a float, else exact.

    Only an int over an int needs a rational made for it; every other pair
    divides as it is.
    """
    if type(a) is int and type(b) is int:
        return EXACT._make(a, b)
    return a / b


def halfway(a, b):
    """Midpoint of a and b: binary64 when either is a float, else exact."""
    if type(a) is int and type(b) is int:
        return EXACT._make(a + b, 2)
    return (a + b) / 2


def grid_integers(points):
    """Points as ints on the grid of their gaps: (x - points[0]) * 2D,
    with D the least common multiple of the denominators of the gaps
    between consecutive points.

    Exact points and floats, read exactly by as_integer_ratio, are put
    over one lcm of their denominators; D is that lcm over the gcd of it
    and every point's distance from the first. The midpoint of two of the
    ints is an int too, (a + b) // 2. Divided differences, stencil
    choices and trace values are the same rationals on a shifted and
    rescaled mesh, once the divided differences are taken over the new
    points, and jump bounds do not change with the mesh's scale. Fuzz
    ticks, decimals and ints give small ints; gaps with unrelated
    denominators, such as thirds and sevenths, multiply D.
    """
    try:
        pairs = list(map(float.as_integer_ratio, points))
    except TypeError:
        pairs = [(int(x.numerator), int(x.denominator)) for x in (
            x if hasattr(x, "denominator") else EXACT.convert(x)
            for x in points)]
    scale = lcm(*(d for _, d in pairs))
    ints = [n * (scale // d) for n, d in pairs]
    first = ints[0] if ints else 0
    ints = [x - first for x in ints]
    g = gcd(scale, *ints)
    return [x // g * 2 for x in ints]


def check_finite(values, what, indices=None):
    """Reject NaN and +-inf among the float entries of values."""
    for k in range(len(values)) if indices is None else indices:
        v = values[k]
        if isinstance(v, float) and not isfinite(v):
            raise NonFiniteValue(f"{what} {k} is {v!r}")


def check_finite_column(column, what):
    """Reject NaN and +-inf in a float column: one C-level sum, and an entry
    scan only when the sum is not finite, which finite entries can also
    make by overflowing it."""
    if not isfinite(sum(column)):
        check_finite(column, what)


def check_increasing(coords, what):
    """Strictly increasing coordinates with finite ends.

    NaN fails every comparison and an infinity can only sit at an end of a
    strictly increasing sequence, so checking the ends and any failed
    comparison covers every entry.
    """
    for k in range(len(coords) - 1):
        if not coords[k] < coords[k + 1]:
            check_finite(coords, what, (k, k + 1))
            raise InvalidMesh(
                f"{what}s must be strictly increasing; offender at index {k + 1}"
            )
    if coords:
        check_finite(coords, what, (0, len(coords) - 1))


def check_depth(table, p, depth):
    """Raise ValueError unless the table reaches level `depth`, which
    order p reads."""
    if table.max_order < depth:
        raise ValueError(
            f"order {p} needs a divided-difference table of depth {depth}; "
            f"this one has depth {table.max_order}"
        )


# ---- Divided differences ----

class DividedDifferenceTable:
    """Triangular table of divided differences over consecutive windows.

    Level j entry k is the order-j divided difference over
    points[k:k+j+1], so level j has len(points)-j entries. Level 0 holds
    the ordinates, or is None when the table starts from cell averages
    (see divided_difference_levels). Every window at every level is
    stored, which lets stencil-selection code probe left and right
    extensions without recomputation. The ENO trace code keeps its
    stage-wise selection and evaluation on the table, one state per kind,
    so that a higher order resumes a lower one's; that state holds no
    reference back to the table. build_table gives the trace and check
    code exact tables whose points are all ints, the field's coordinates
    on their grid (grid_integers), on any mesh: the trace code evaluates on
    them and reports the field's own coordinates. `approximate` is
    float_entry's answer for the data the table was built from: True when
    its points and levels are binary64 floats, False when they are exact.
    """

    def __init__(self, points, levels, approximate):
        self.points = points
        self.levels = levels
        self.approximate = approximate
        self._eno_stages = {}

    @property
    def max_order(self):
        return len(self.levels) - 1


def divided_difference_table(points, values, max_order=None):
    """Build the divided-difference table of values over points: the
    build_table of the checked input, in the caller's coordinates. Points
    and values are all float when either holds a float (float_entry).

    Args:
        points: strictly increasing abscissae.
        values: ordinates, one per point.
        max_order: highest difference order to compute (default: all).

    Returns:
        DividedDifferenceTable with levels 0..max_order.

    Raises:
        ShapeError: length mismatch or empty input.
        InvalidMesh: points not strictly increasing.
        NonFiniteValue: a NaN or infinite float point or value, or float
            divided differences that overflow to NaN or +-inf.
    """
    pts = list(points)
    vals = list(values)
    if len(pts) != len(vals):
        raise ShapeError(f"{len(pts)} points but {len(vals)} values")
    if not pts:
        raise ShapeError("empty point set")
    check_increasing(pts, "point")
    check_finite(vals, "value")
    if max_order is None or max_order > len(pts) - 1:
        max_order = len(pts) - 1
    return build_table(pts, vals, max_order)


def divided_difference_levels(points, values, max_order, order=0):
    """Levels 0..max_order of the divided-difference table, unchecked.

    `values` is level `order`: point values are order 0; cell averages are
    order 1, the primitive's first divided differences over the cells
    between the points, and level 0 is then None. The points must already
    be strictly increasing and at least max_order+1 of them; in exact
    data the values must be free of plain ints (see _own_type), and so
    must the points unless they are all ints (see grid_integers).
    """
    levels = [None] * order + [values]
    for j in range(order + 1, max_order + 1):
        prev = levels[j - 1]
        levels.append(list(map(truediv, map(sub, prev[1:], prev),
                               map(sub, points[j:], points))))
    return levels


def build_table(points, values, max_order, order=0, grid=False):
    """The table of level-`order` values over points that every caller
    builds: all float when either holds a float, else exact, as
    float_entry decides; the table records the answer as `approximate`.

    Float levels that overflow to NaN or +-inf raise NonFiniteValue.
    Exact values get the exact backend's type (_own_type), and so do
    exact points, which stay in the caller's coordinates, as the
    per-anchor Newton forms need them; with `grid` they become their
    grid_integers, which keep every product of coordinate differences an
    int. The divided differences are taken over the points the table
    holds, so both give the same stencils and traces.
    """
    approximate, points, values = float_entry(points, values)
    if approximate:
        levels = divided_difference_levels(points, values, max_order, order)
        # A NaN or infinity at one level makes NaN or infinities at every
        # level above it, so the top level shows an overflow anywhere.
        check_finite_column(levels[-1],
                            f"float overflow: level-{max_order} entry")
    else:
        points = grid_integers(points) if grid else _own_type(points)
        levels = divided_difference_levels(
            points, _own_type(values), max_order, order)
    return DividedDifferenceTable(points, levels, approximate)


def field_table(field, max_order, shift):
    """The build_table of a field, the one every per-anchor call and
    oracle given no table builds: a PointValueField's values at level 0
    (shift = NODE), or a primitive's averages at level 1 (CELL), over its
    nodes. The table is in the field's coordinates, so per-anchor
    polynomials are too.

    Raises:
        TypeError: a CELL field without averages, which only
            primitive_from_averages gives a PointValueField.
        NonFiniteValue: float data overflow a level to NaN or +-inf.
    """
    data = field.values if shift == NODE else getattr(field, "averages", None)
    if data is None:
        raise TypeError("the primitive carries no averages; build it with "
                        "primitive_from_averages")
    return build_table(field.nodes, data, max_order, shift)
