"""Grids, trace construction, field CSV round trips, the exact %.17g formatter."""

import csv
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from farfield.elliptic import _apply_boundary, _trace_row, _unknown_block, solve_field
from farfield.errors import InputError
from farfield.grids import (KINDS, Field, as_trace, format_17g, make_grid, periodic_axes,
                            save_field_csv)
from farfield.nonlinearity import make
from farfield.traces import bump, make_trace


def test_make_grid_node_counts():
    g = make_grid(40.0, 20.0, 0.25)
    assert (g.n1, g.n2) == (160, 80)
    assert g.x1_nodes("quarter")[1] == 0.25
    # a Dirichlet axis keeps its node at 0 (trace column on x1, floor on x2);
    # a periodic one identifies its far end with 0
    nodes = {"quarter": (161, 81), "half": (161, 80), "torus": (160, 80)}
    assert set(nodes) == set(KINDS)
    rng = np.random.default_rng(2)
    for kind in KINDS:
        p1, p2 = periodic_axes(kind)
        assert (g.x1_nodes(kind).size, g.x2(kind).size) == nodes[kind]
        u = rng.standard_normal(nodes[kind])
        assert _unknown_block(u, kind).shape == (g.n1, g.n2)
        assert (_trace_row(u, kind) is None) == p1
        trace = None if p1 else as_trace(7.0, g, kind)
        v = _apply_boundary(u, kind, trace)
        if not p1:
            np.testing.assert_array_equal(v[0, :], trace)
        if not p2:
            assert not v[:, 0].any()
        np.testing.assert_array_equal(v[1:, 1:], u[1:, 1:])
        if p1 and p2:
            np.testing.assert_array_equal(v, u)
    with pytest.raises(InputError, match=re.escape(
            "domain kind must be one of ('quarter', 'half', 'torus'), got 'bogus'")):
        periodic_axes("bogus")


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


def _load_field(path):
    """x1 nodes, x2 nodes and the value array of a field dump, read as README does."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x1, x2 = np.unique(data[:, 0]), np.unique(data[:, 1])
    return x1, x2, data[:, 2].reshape(x1.size, x2.size)


def test_field_csv_round_trip(tmp_path):
    g = make_grid(2.0, 1.0, 0.25)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((g.n1 + 1, g.n2 + 1))
    f = Field(vals, g, "quarter", residual=0.0)
    path = tmp_path / "field.csv"
    save_field_csv(f, str(path))
    x1, x2, back = _load_field(path)
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
    if block == "solved" and kind == "half":
        # a settled half field: rows repeat their limit, each nearly constant in x2
        g = make_grid(8.0, 2.0, 0.25)
        return g, solve_field(make("abs-sin"), g, kind, 5.2, tol=1e-9).values
    if block == "solved":
        # a quarter field under a bump: nearly every value distinct
        g = make_grid(8.0, 4.0, 0.25)
        nl = make("linear-decay")
        vals = solve_field(nl, g, kind, make_trace("bump:2,1,0.5", nl, g, kind)).values
        assert np.unique(vals).size > vals.size // 2
        return g, vals
    g = make_grid(3.0, 0.7, 0.1)
    shape = (g.x1_nodes(kind).size, g.x2(kind).size)
    return g, (_random_block if block == "random" else _repeating_block)(shape)


@pytest.mark.parametrize("kind, block", [pytest.param(k, "random", id=k) for k in KINDS]
                         + [pytest.param(k, "repeats", id=f"{k}-repeats") for k in KINDS]
                         + [pytest.param(k, "solved", id=f"{k}-solved") for k in ("half", "quarter")])
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
    bx1, bx2, back = _load_field(path)
    np.testing.assert_array_equal(back, vals)
    signed = ~np.isnan(vals)        # a NaN reads back without its sign
    np.testing.assert_array_equal(np.signbit(back[signed]), np.signbit(vals[signed]))
    np.testing.assert_array_equal(bx1, x1)
    np.testing.assert_array_equal(bx2, x2)


# ---------------------------------------------------------------------------
# format_17g against CPython's "%.17g"

def _signed(rng, v):
    return v * rng.choice([-1.0, 1.0], v.size)


def _ties(rng):
    """Dyadic m 2**(d - 17), m odd: 18 significant digits ending in 5, so the
    17th digit is an exact tie whenever the value stays in decade d."""
    d = np.repeat(np.arange(-7, 14), 100)
    lo = np.ceil(5.0 ** d * 2.0 ** 17)
    m = lo + np.floor(rng.random(d.size) * 9.0 * lo)
    m += m % 2 == 0
    return np.ldexp(m, d - 17)


def _is_tie(v: float) -> bool:
    d = int((b"%.16e" % v).split(b"e")[1])
    return (Fraction(v) * Fraction(10) ** (16 - d)).denominator == 2


def _oracle_values():
    rng = np.random.default_rng(1990)
    # every exponent of the format, then every binade of the fast path
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64)
    exps = rng.integers(1023 - 37, 1023 + 51, 400_000).astype(np.uint64)
    mant = rng.integers(0, 2 ** 52, 400_000, dtype=np.uint64)
    fast = _signed(rng, ((exps << np.uint64(52)) | mant).view(np.float64))
    smooth = [rng.random(100_000), -np.expm1(-rng.uniform(0.0, 40.0, 100_000)),
              _signed(rng, rng.random(100_000) * 10.0 ** rng.integers(-14, 18, 100_000))]
    nbits = rng.integers(1, 54, 200_000)
    odd = rng.integers(2 ** (nbits - 1), 2 ** nbits) | 1
    dyadic = _signed(rng, np.ldexp(odd.astype(np.float64), rng.integers(-100, 60, 200_000)))
    ties = _signed(rng, _ties(rng))
    # each power of ten with its neighbours: among them the fast path's edges
    # 1e-10 and 1e14 and the fixed/scientific switch between 1e-5 and 1e-4
    anchors = np.array([float(f"1e{k}") for k in range(-12, 17)])
    edges = np.concatenate([anchors, np.nextafter(anchors, 0.0), np.nextafter(anchors, np.inf),
                            np.geomspace(1e-6, 1e-3, 10_001)])
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
                        2.2250738585072014e-308, 1.7976931348623157e308,
                        math.inf, -math.inf, math.nan, -math.nan])
    return ties, np.concatenate([bits, fast, *smooth, dyadic, ties, _signed(rng, edges),
                                 edges, special])


def test_format_17g_matches_cpython():
    ties, values = _oracle_values()
    assert values.size >= 10 ** 6
    assert sum(_is_tie(v) for v in ties.tolist()) >= 1000
    got = format_17g(values)
    want = [b"%.17g" % v for v in values.tolist()]
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(bad)} of {values.size} differ, e.g. {bad[:5]}")
