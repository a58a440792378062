"""Grids, trace construction, field CSV round trips."""

import csv
import math

import numpy as np
import pytest

from farfield.elliptic import solve_field
from farfield.errors import InputError
from farfield.grids import KINDS, Field, as_trace, load_field_csv, make_grid, save_field_csv
from farfield.nonlinearity import make
from farfield.traces import bump, make_trace


def test_make_grid_node_counts():
    g = make_grid(40.0, 20.0, 0.25)
    assert (g.n1, g.n2) == (160, 80)
    assert g.x2("quarter").size == 81    # floor and far wall kept
    assert g.x2("half").size == 80       # periodic, top identified with bottom
    assert g.x1_nodes("quarter").size == 161
    assert g.x1_nodes("torus").size == 160
    assert g.x1_nodes("quarter")[1] == 0.25


def test_make_grid_rejects_bad_spacing():
    with pytest.raises(InputError):
        make_grid(40.0, 20.0, 0.3)      # 0.3 does not divide 40
    with pytest.raises(InputError):
        make_grid(40.0, 20.0, -0.25)
    with pytest.raises(InputError):
        make_grid(0.25, 20.0, 0.25)     # single cell in x1


def test_as_trace_forms():
    g = make_grid(4.0, 2.0, 0.5)
    flat = as_trace(1.5, g, "half")
    assert flat.shape == (4,)
    assert np.all(flat == 1.5)
    fn = as_trace(lambda y: y * y, g, "quarter")
    assert fn[2] == pytest.approx(1.0)
    arr = as_trace(np.linspace(0, 1, 5), g, "quarter")
    assert arr.size == 5
    with pytest.raises(InputError):
        as_trace(np.zeros(7), g, "quarter")
    with pytest.raises(InputError):
        as_trace(1.0, g, "torus")
    with pytest.raises(InputError):
        as_trace(np.array([0.0, np.nan, 0, 0, 0]), g, "quarter")


def test_quarter_trace_corner_forced_to_floor():
    g = make_grid(4.0, 2.0, 0.5)
    tr = as_trace(2.0, g, "quarter")
    assert tr[0] == 0.0
    assert np.all(tr[1:] == 2.0)


def test_bump_support_and_height():
    y = np.linspace(0.0, 30.0, 301)
    b = bump(y, 10.0, 5.0, 0.5)
    assert b[y == 10.0][0] == pytest.approx(0.5)
    assert np.all(b[np.abs(y - 10.0) >= 5.0] == 0.0)
    assert np.all(b >= 0.0)
    assert np.all(b <= 0.5 + 1e-15)
    with pytest.raises(InputError):
        bump(y, 10.0, 0.0, 0.5)


def test_make_trace_specs(tmp_path):
    nl = make("abs-sin")
    g = make_grid(8.0, 4.0, 0.5)
    assert np.all(make_trace("constant:2", nl, g, "half") == 2.0)
    tb = make_trace("bump:2,1,0.3", nl, g, "quarter")
    assert tb.max() == pytest.approx(0.3)
    tp = make_trace(f"profile:{math.pi}", nl, g, "quarter")
    assert tp[0] == 0.0
    assert tp[-1] <= math.pi
    assert np.all(np.diff(tp) >= 0)
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("y,value\n0,0\n4,2\n")
    tt = make_trace(f"table:{csv_path}", nl, g, "quarter")
    assert tt[4] == pytest.approx(1.0)   # linear interpolation at y = 2
    with pytest.raises(InputError):
        make_trace("wave:1", nl, g, "half")
    with pytest.raises(InputError):
        make_trace("bump:1,2", nl, g, "half")


@pytest.mark.parametrize("kind", ["quarter", "half"])
def test_zero_profile_trace_is_zero_where_f_vanishes(kind):
    # abs-sin has f(0) = 0, so profile:0 is the zero profile on every node
    g = make_grid(8.0, 4.0, 0.5)
    tp = make_trace("profile:0", make("abs-sin"), g, kind)
    assert tp.size == g.x2(kind).size
    assert not tp.any()


def test_field_csv_round_trip(tmp_path):
    g = make_grid(2.0, 1.0, 0.25)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((g.n1 + 1, g.n2 + 1))
    f = Field(vals, g, "quarter", residual=0.0)
    path = tmp_path / "field.csv"
    save_field_csv(f, str(path))
    x1, x2, back = load_field_csv(str(path))
    np.testing.assert_array_equal(back, vals)
    np.testing.assert_array_equal(x1, g.x1_nodes("quarter"))
    np.testing.assert_array_equal(x2, g.x2("quarter"))


def _random_block(shape):
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    vals.flat[:3] = [0.0, -0.0, 1.0]
    return vals


def _repeating_block(shape):
    # what the writer keys its strings on: whole rows repeated (a settled far
    # field), rows constant in x2, 0.0 beside -0.0, two NaN bit patterns that
    # print alike, and both infinities
    rng = np.random.default_rng(5)
    n1, n2 = shape
    vals = np.tile(rng.standard_normal(n2), (n1, 1))
    vals[: n1 // 2] = rng.standard_normal((n1 // 2, 1))
    vals[1, ::2], vals[1, 1::2] = 0.0, -0.0
    vals[2, :4] = [math.nan, -math.nan, math.inf, -math.inf]
    vals[-1, -3:] = [-0.0, math.inf, 0.0]
    return vals


def _byte_case(kind, block):
    if block == "solved":
        # a settled half field: rows repeat their limit, each nearly constant in x2
        g = make_grid(8.0, 2.0, 0.25)
        return g, solve_field(make("abs-sin"), g, kind, 5.2, tol=1e-9).values
    g = make_grid(3.0, 0.7, 0.1)
    shape = (g.x1_nodes(kind).size, g.x2(kind).size)
    return g, (_random_block if block == "random" else _repeating_block)(shape)


@pytest.mark.parametrize("kind, block", [pytest.param(k, "random", id=k) for k in KINDS]
                         + [pytest.param(k, "repeats", id=f"{k}-repeats") for k in KINDS]
                         + [pytest.param("half", "solved", id="half-solved")])
def test_field_csv_bytes_match_csv_writer(tmp_path, kind, block):
    g, vals = _byte_case(kind, block)
    x1, x2 = g.x1_nodes(kind), g.x2(kind)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x1", "x2", "u"])
        for i in range(x1.size):
            for j in range(x2.size):
                wr.writerow([f"{x1[i]:.17g}", f"{x2[j]:.17g}", f"{vals[i, j]:.17g}"])
    path = tmp_path / "field.csv"
    save_field_csv(Field(vals, g, kind), str(path))
    assert path.read_bytes() == ref.read_bytes()
    bx1, bx2, back = load_field_csv(str(path))
    np.testing.assert_array_equal(back, vals)
    signed = ~np.isnan(vals)        # a NaN reads back without its sign
    np.testing.assert_array_equal(np.signbit(back[signed]), np.signbit(vals[signed]))
    np.testing.assert_array_equal(bx1, x1)
    np.testing.assert_array_equal(bx2, x2)
