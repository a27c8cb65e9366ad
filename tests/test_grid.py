"""Meshes, fields, and primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from enokit import (
    CellAverageField,
    InvalidMesh,
    Mesh,
    NonFiniteValue,
    PointValueField,
    ShapeError,
    primitive_from_averages,
    uniform_mesh,
)

from conftest import random_fraction_mesh, random_int_values


def test_mesh_basics():
    mesh = Mesh([0, 1, 3, 6])
    assert mesh.ncells == 3
    assert mesh.interfaces == (0, 1, 3, 6)
    assert mesh.width(0) == 1
    assert mesh.width(2) == 3
    assert Fraction(mesh.width(1), mesh.width(0)) == 2
    assert Fraction(mesh.width(2), mesh.width(1)) == Fraction(3, 2)


def test_mesh_validation():
    with pytest.raises(InvalidMesh):
        Mesh([0])
    with pytest.raises(InvalidMesh):
        Mesh([0, 1, 1])
    with pytest.raises(InvalidMesh):
        Mesh([0, 2, 1])


def test_non_finite_floats_are_rejected():
    nan, inf = float("nan"), float("inf")
    for interfaces in ([0.0, 1.0, inf], [-inf, 0.0, 1.0], [0.0, nan, 2.0]):
        with pytest.raises(NonFiniteValue):
            Mesh(interfaces)
    mesh = Mesh([0.0, 1.0, 2.0, 3.0])
    for bad in (nan, inf, -inf):
        with pytest.raises(NonFiniteValue):
            CellAverageField(mesh, [1.0, bad, 2])
        with pytest.raises(NonFiniteValue):
            PointValueField([0, 1, 2], [0.5, 1, bad])
    with pytest.raises(NonFiniteValue):
        PointValueField([0.0, 1.0, inf], [0, 1, 2])
    big = Fraction(10 ** 400)
    assert CellAverageField(Mesh([0, big]), [big]).averages == (big,)


def test_uniform_mesh():
    mesh = uniform_mesh(4)
    assert mesh.interfaces == (0, 1, 2, 3, 4)
    scaled = uniform_mesh(2, start=Fraction(1, 2), width=Fraction(1, 4))
    assert scaled.interfaces == (Fraction(1, 2), Fraction(3, 4), Fraction(1))


def test_field_shape_checks():
    mesh = Mesh([0, 1, 2])
    with pytest.raises(ShapeError):
        CellAverageField(mesh, [1])
    with pytest.raises(ShapeError):
        PointValueField([0, 1], [1])
    with pytest.raises(InvalidMesh):
        PointValueField([1, 0], [1, 2])


def test_primitive_known_values():
    field = CellAverageField(Mesh([0, 1, 3]), [2, 5])
    prim = primitive_from_averages(field)
    assert prim.nodes == (0, 1, 3)
    assert prim.values == (0, 2, 12)
    shifted = primitive_from_averages(field, base=7)
    assert shifted.values == (7, 9, 19)


def test_primitive_first_dd_recovers_averages_exact():
    rng = random.Random(7)
    xs = random_fraction_mesh(rng, 13)
    avgs = [Fraction(v, rng.randint(1, 5)) for v in random_int_values(rng, 12)]
    prim = primitive_from_averages(CellAverageField(Mesh(xs), avgs))
    vs = prim.values
    assert [(vs[k + 1] - vs[k]) / (xs[k + 1] - xs[k])
            for k in range(12)] == avgs
    assert prim.averages == tuple(avgs)


def test_float_primitive_is_the_running_sum_from_base():
    """A float primitive is the plain left-to-right running sum of width
    times average from base, and keeps its averages as floats."""
    rng = random.Random(8)
    xs = [0.0]
    for _ in range(12):
        xs.append(xs[-1] + rng.uniform(0.5, 2.0))
    avgs = [rng.uniform(-8, 8) for _ in range(12)]
    mixed = CellAverageField(Mesh([Fraction(x) for x in xs]), avgs)
    for base in (0, 0.1, Fraction(1, 3)):
        prim = primitive_from_averages(CellAverageField(Mesh(xs), avgs), base)
        total = float(base)
        expected = [total]
        for k in range(12):
            total = total + (xs[k + 1] - xs[k]) * avgs[k]
            expected.append(total)
        assert list(map(float.hex, prim.values)) \
            == list(map(float.hex, expected))
        assert prim.nodes == tuple(xs)
        assert prim.averages == tuple(avgs)
        assert primitive_from_averages(mixed, base).values == prim.values


@given(st.integers(0, 10 ** 6))
def test_primitive_base_shift_property(seed):
    rng = random.Random(seed)
    xs = random_fraction_mesh(rng, 7)
    avgs = random_int_values(rng, 6)
    field = CellAverageField(Mesh(xs), avgs)
    low = primitive_from_averages(field, base=0)
    high = primitive_from_averages(field, base=Fraction(5, 3))
    assert all(
        b - a == Fraction(5, 3) for a, b in zip(low.values, high.values)
    )

