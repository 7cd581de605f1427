"""Gauss-Manin transport of the periods, and the polygon geometry kept.

The transport is checked against the periods themselves: the connection
against central differences of polygon_periods, and a transported period
matrix against the periods integrated at the far end of a short path.  The
geometry helpers are checked against scalar per-point references, bit for
bit (through float.hex), because the polygons feed the period fit whose
residuals are reported.
"""

import math

import numpy as np
import pytest

from topmonodromy.periods import (
    _leggauss,
    _segment_distances,
    _winding_numbers,
    polygon_periods,
    polyline,
)
from topmonodromy.poly import real_root_count, roots
from topmonodromy.tracking import (
    _EDGE_RATIO,
    _GL_STAGES,
    _KAPPA_BASE,
    _connection,
    _differentials,
    _gauss_legendre,
    _March,
    _loop_march,
    _oriented_basis,
    _split_edges,
    _transport,
    fiber_polynomial,
    named_loop,
)


def _segment_point_distance(a, b, p):
    d = b - a
    l2 = (d * d.conjugate()).real
    if l2 == 0.0:
        return abs(p - a)
    t = ((p - a) * d.conjugate()).real / l2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _winding_numbers_ref(verts, rs):
    v = np.asarray(verts, dtype=complex)
    out = []
    for r in rs:
        w = v - r
        total = float(np.sum(np.angle(np.roll(w, -1) / w)))
        out.append(int(round(total / (2.0 * math.pi))))
    return tuple(out)


def _scene(seed, n_verts):
    """Roots and a wobbly polygon threading them, with vertex 0 an eighth
    of the least root separation from a root."""
    rng = np.random.default_rng(seed)
    m = int(rng.choice([4, 6]))
    rs = [complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(m)]
    sep = min(abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1 :])
    margin = 0.25 * sep
    radius = float(np.median([abs(r) for r in rs]))
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n_verts))
    wobble = 1.0 + 0.15 * rng.standard_normal(n_verts)
    verts = [
        complex(radius * w * math.cos(t), radius * w * math.sin(t))
        for t, w in zip(th, wobble)
    ]
    k = int(rng.integers(m))
    verts[0] = rs[k] + 0.5 * margin * complex(math.cos(th[0]), math.sin(th[0]))
    return rs, verts


def test_segment_distances_are_bit_identical():
    rng = np.random.default_rng(7)
    a = rng.uniform(-2.0, 2.0, size=300) + 1j * rng.uniform(-2.0, 2.0, size=300)
    b = rng.uniform(-2.0, 2.0, size=300) + 1j * rng.uniform(-2.0, 2.0, size=300)
    b[::10] = a[::10]
    rs = rng.uniform(-2.0, 2.0, size=5) + 1j * rng.uniform(-2.0, 2.0, size=5)
    got = _segment_distances(a, b, rs)
    for k in range(len(a)):
        for j, r in enumerate(rs):
            ref = _segment_point_distance(complex(a[k]), complex(b[k]), complex(r))
            assert got[k, j].hex() == ref.hex()


@pytest.mark.parametrize("seed", range(12))
def test_winding_numbers_match(seed):
    rng = np.random.default_rng(100 + seed)
    rs, verts = _scene(seed, 60)
    probes = rs + [complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(6)]
    want = _winding_numbers_ref(verts, probes)
    assert tuple(_winding_numbers(np.array(verts), probes)) == want
    assert tuple(_winding_numbers(np.array(verts[::-1]), probes)) == tuple(
        -w for w in want
    )


def test_the_collocation_tableau_has_order_twelve():
    # Gauss-Legendre collocation: the weights integrate degree 2s - 1 and
    # each stage row integrates degree s - 1 from 0 to its node
    c, b, a = _gauss_legendre(_GL_STAGES)
    assert len(c) == _GL_STAGES == 6
    for k in range(2 * _GL_STAGES):
        assert b @ c**k == pytest.approx(1.0 / (k + 1), abs=1e-15)
    for k in range(_GL_STAGES):
        want = c ** (k + 1) / (k + 1)
        np.testing.assert_allclose(a @ c**k, want, rtol=0.0, atol=1e-15)


def _chart_points(g, count, seed):
    """Seeded real chart points of genus g whose fibers have no real roots."""
    rng = np.random.default_rng(seed)
    lo, hi = ([-2.0, -2.0, -2.0], [2.0, 5.0, 2.0]) if g == 1 else (
        [-0.6, -0.1, -0.6], [0.6, 1.1, 0.6]
    )
    out = []
    while len(out) < count:
        a = tuple(float(v) for v in rng.uniform(lo, hi))
        if real_root_count(fiber_polynomial(g, a)) == 0:
            out.append(a)
    return out, rng


def _periods_on(g, point, polygons, rs, tol=1e-13):
    """Periods of x^k dx/y, k = 0..2g, at point over the given polygons,
    each pinned to the root nearest its y_ref; edges split near rs."""
    fpoly = fiber_polynomial(g, point)
    diffs = _differentials(2 * g)
    out = []
    for verts, y0 in polygons:
        y = complex(np.sqrt(fpoly(complex(verts[0]))))
        y = y if abs(y - y0) <= abs(y + y0) else -y
        out.append(polygon_periods(fpoly, _split_edges(verts, rs), y, diffs, tol))
    return np.array(out).T


@pytest.mark.parametrize("g", [1, 2])
def test_the_connection_matches_finite_differences_of_the_periods(g):
    # the central difference errs by O(h^2): up to 3e-8 relative here
    points, rng = _chart_points(g, 4, seed=10 + g)
    h = 1e-5
    for a in points:
        fpoly = fiber_polynomial(g, a)
        rs = tuple(roots(fpoly))
        polygons = _oriented_basis(fpoly, rs, g)
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        d /= np.linalg.norm(d)
        plus = _periods_on(g, tuple(np.add(a, h * d)), polygons, rs)
        minus = _periods_on(g, tuple(np.subtract(a, h * d)), polygons, rs)
        pi0 = _periods_on(g, a, polygons, rs)
        omega = _connection(g, np.array([a], dtype=complex), d[None])[0]
        want = omega @ pi0
        err = np.abs((plus - minus) / (2.0 * h) - want).max()
        assert err < 1e-7 * np.abs(want).max(), (a, err)


@pytest.mark.parametrize("g, base", [(1, (0.0, 1.0, 0.0)), (2, _KAPPA_BASE)])
def test_transported_periods_match_the_periods_at_the_far_end(g, base):
    # a short complex path, cut into 20 steps (blocks of 8, 8 and 4), along
    # which the roots stay well inside the base polygons' clearance
    target = tuple(np.add(base, (0.004 + 0.002j, -0.003, 0.002j)))
    march = _March(g, base)
    for k in range(1, 21):  # 20 equal pieces, each one accepted step
        t = k / 20
        march.traverse(tuple((1.0 - t) * a + t * b for a, b in zip(base, target)))
    assert march.steps_used == 20
    fpoly = fiber_polynomial(g, base)
    rs = tuple(roots(fpoly))
    polygons = _oriented_basis(fpoly, rs, g)
    far = _periods_on(g, target, polygons, rs)
    got = _transport(g, march.points) @ _periods_on(g, base, polygons, rs)
    assert np.abs(got - far).max() < 1e-12 * np.abs(far).max()
    # fewer, longer steps reach the same periods
    coarse = _transport(g, march.points[::5])
    assert np.abs(coarse - _transport(g, march.points)).max() < 1e-12


@pytest.mark.parametrize("name", ["cushman", "kappa1", "kappa2", "kappa3"])
def test_a_real_loop_is_transported_in_real_arithmetic(name):
    loop = named_loop(name)
    points = _loop_march(loop).points
    u = _transport(loop.g, points)
    assert u.dtype == np.float64
    # the same points as complex numbers take the complex solves
    forced = _transport(loop.g, np.array(points, dtype=complex))
    assert forced.dtype == np.complex128
    assert np.abs(forced - u).max() < 1e-13


def test_split_edges_keeps_every_vertex_and_bounds_each_edge():
    square = np.array([1.0 + 1.0j, -1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j])
    rs = np.array([0.0, 1.0 + 1e-6 + 0.3j])  # 1e-6 outside the edge at x = 1
    got = _split_edges(square, rs)
    assert got[0] == square[0]
    assert [v for v in got.tolist() if v in square.tolist()] == square.tolist()
    ends = np.roll(got, -1)
    dist = _segment_distances(got, ends, rs).min(axis=1)
    assert np.all(np.abs(ends - got) <= _EDGE_RATIO * dist)
    assert 20 < len(got) < 100  # a geometric grading toward the close root
    # every edge already short enough: nothing to split
    assert _split_edges(square, np.array([10.0])).tolist() == square.tolist()


def _polyline_nodes_ref(verts, n):
    """The former per-edge loop of ContourSpec.nodes for polylines."""
    xs, ws = [], []
    glx, glw = _leggauss(n)
    for i in range(len(verts)):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * glx)
        ws.append(half * glw * np.ones_like(glx))
    return np.concatenate(xs), np.concatenate(ws)


@pytest.mark.parametrize("n", [12 << k for k in range(8)] + [2048])
def test_polyline_nodes_are_bit_identical(n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        m = int(rng.integers(3, 80))
        verts = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** float(
            rng.uniform(-3.0, 3.0)
        )
        verts.real[:: int(rng.integers(2, 6))] = 0.0
        spec = polyline(verts)
        x, w = spec.nodes(n)
        x_ref, w_ref = _polyline_nodes_ref(spec.vertices, n)
        assert x.tobytes() == x_ref.tobytes()
        assert w.tobytes() == w_ref.tobytes()
