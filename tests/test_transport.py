"""Gauss-Manin transport of the periods, and the polygon geometry kept.

The transport is checked against the periods themselves: the connection
against central differences of polygon_periods, and a transported period
matrix against the periods integrated at the far end of a short path.  The
geometry helpers are checked against scalar per-point references, bit for
bit (through float.hex), because the polygons feed the period fit whose
residuals are reported.

The bundle upkeep (_maintain_bundle), which no route calls any more, is
checked against _maintain_cable_ref, the original loop implementation kept
verbatim, which works on one polygon ("cable") at a time: each polygon's
segment of the bundle must agree with the reference run on it alone.
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
from topmonodromy.poly import ComplexPoly, real_root_count, roots
from topmonodromy.tracking import (
    _EDGE_CLEAR,
    _EDGE_RATIO,
    _GL_STAGES,
    _KAPPA_BASE,
    _PUSH_TARGET,
    _Bundle,
    _connection,
    _continue_sqrt,
    _differentials,
    _gauss_legendre,
    _maintain_bundle,
    _March,
    _loop_march,
    _oriented_basis,
    _split_edges,
    _transport,
    fiber_polynomial,
    named_loop,
)


class _Cable:
    """One polygon with its pinned square root, as the references see it."""

    def __init__(self, verts, y_ref, windings=()):
        self.verts = verts
        self.y_ref = y_ref
        self.windings = windings


def _one(verts, y_ref, windings=None):
    """Single-cable bundle."""
    return _Bundle.of([verts], [y_ref], windings)


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


def _maintain_cable_ref(cable, rs, margin, fpoly):
    verts = list(cable.verts)
    y_ref = cable.y_ref
    for _ in range(8):
        moved = False
        for i, v in enumerate(verts):
            for r in rs:
                d = abs(v - r)
                if d < margin:
                    if d == 0.0:
                        return None
                    target = r + (v - r) * (_PUSH_TARGET * margin / d)
                    if i == 0:
                        xs = np.linspace(v, target, 17)
                        y_new = _continue_sqrt(fpoly(xs), y_ref)
                        if y_new is None:
                            return None
                        y_ref = y_new
                    verts[i] = target
                    moved = True
                    break
        refined = []
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            refined.append(a)
            if any(
                _segment_point_distance(a, b, r) < _EDGE_CLEAR * margin for r in rs
            ):
                refined.append(0.5 * (a + b))
                moved = True
        verts = refined
        if not moved:
            return _Cable(verts, y_ref, cable.windings)
    return None


def _hex(verts):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in verts]


def _scene(seed, n_verts):
    """Roots with disjoint margin disks and a wobbly polygon threading them.

    Vertex 0 is placed inside a margin disk, so the push continues y_ref.
    """
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
    fpoly = ComplexPoly.from_roots(rs)
    y_ref = complex(np.sqrt(fpoly(verts[0])))
    return rs, margin, verts, y_ref, fpoly


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
    rs, _, verts, _, _ = _scene(seed, 60)
    probes = rs + [complex(*rng.uniform(-2.0, 2.0, size=2)) for _ in range(6)]
    want = _winding_numbers_ref(verts, probes)
    one = np.array([0])
    assert tuple(_winding_numbers(np.array(verts), one, probes)[0]) == want
    assert tuple(_winding_numbers(np.array(verts[::-1]), one, probes)[0]) == tuple(
        -w for w in want
    )


def test_maintain_cable_keeps_its_input():
    rs, margin, verts, y_ref, fpoly = _scene(0, 40)
    before = np.array(verts)
    bundle = _one(before.copy(), y_ref)
    _maintain_bundle(bundle, rs, margin, fpoly)
    assert _hex(bundle.verts) == _hex(before)
    assert bundle.y_ref.tolist() == [y_ref]


def _ring(rng, n, radius, jitter):
    th = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n))
    wobble = 1.0 + jitter * rng.standard_normal(n)
    return [
        complex(radius * w * math.cos(t), radius * w * math.sin(t))
        for t, w in zip(th, wobble)
    ]


def _bundle_scene(seed, lengths):
    """Shared roots with disjoint margin disks and one polygon per length.

    Cable 0 is a smooth ring far outside the roots, already clean.  Every
    other cable is a wobbly ring threading the roots with its vertex 0 inside
    a margin disk, so its push continues that cable's y_ref.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.choice([4, 6]))
    rs = [complex(*rng.uniform(-1.5, 1.5, size=2)) for _ in range(m)]
    sep = min(abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1 :])
    margin = 0.25 * sep
    far = 3.0 * max(abs(r) for r in rs)
    mid = float(np.median([abs(r) for r in rs]))
    polygons = [_ring(rng, lengths[0], far, 0.0)]
    for c, n in enumerate(lengths[1:], start=1):
        verts = _ring(rng, n, mid * (0.8 + 0.1 * c), 0.15)
        k = (c - 1) % m
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        verts[0] = rs[k] + 0.5 * margin * complex(math.cos(ph), math.sin(ph))
        polygons.append(verts)
    fpoly = ComplexPoly.from_roots(rs)
    y_refs = [complex(np.sqrt(fpoly(p[0]))) for p in polygons]
    return rs, margin, polygons, y_refs, fpoly


SHAPES = ((40, 25, 60), (30, 55, 20, 45, 35))


def _cable_refs(rs, margin, polygons, y_refs, fpoly):
    return [
        _maintain_cable_ref(_Cable(list(v), y), rs, margin, fpoly)
        for v, y in zip(polygons, y_refs)
    ]


def _assert_matches_refs(got, refs):
    ends = list(got.starts[1:]) + [len(got.verts)]
    for c, (a, b, ref) in enumerate(zip(got.starts, ends, refs)):
        assert _hex(got.verts[a:b]) == _hex(ref.verts), c
        assert got.y_ref[c] == ref.y_ref, c


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", range(1))
def test_bundle_matches_each_cable_alone(shape, seed):
    rs, margin, polygons, y_refs, fpoly = _bundle_scene(seed, shape)
    refs = _cable_refs(rs, margin, polygons, y_refs, fpoly)
    got = _maintain_bundle(_Bundle.of(polygons, y_refs), rs, margin, fpoly)
    if any(ref is None for ref in refs):
        assert got is None
        return
    _assert_matches_refs(got, refs)
    probes = rs + [0j, complex(2.0 * rs[0].real, 0.5)]
    rows = _winding_numbers(got.verts, got.starts, probes)
    assert [tuple(row) for row in rows] == [
        _winding_numbers_ref(ref.verts, probes) for ref in refs
    ]


def _clean_edge_crowded(verts, rs, margin):
    """Whether an edge away from every margin disk lacks clearance, so that
    the first round inserts a midpoint whatever the push does."""
    n = len(verts)
    outside = [all(abs(v - r) >= margin for r in rs) for v in verts]
    return any(
        outside[i]
        and outside[(i + 1) % n]
        and any(
            _segment_point_distance(verts[i], verts[(i + 1) % n], r)
            < _EDGE_CLEAR * margin
            for r in rs
        )
        for i in range(n)
    )


@pytest.mark.parametrize("shape, seed", [(SHAPES[0], 3), (SHAPES[1], 2)])
def test_bundle_scene_exercises_every_case(shape, seed):
    rs, margin, polygons, y_refs, fpoly = _bundle_scene(seed, shape)
    refs = _cable_refs(rs, margin, polygons, y_refs, fpoly)
    got = _maintain_bundle(_Bundle.of(polygons, y_refs), rs, margin, fpoly)
    _assert_matches_refs(got, refs)
    # cable 0 is clean after one round; the others move, so need more
    assert _hex(refs[0].verts) == _hex(polygons[0])
    assert all(len(ref.verts) > len(p) for ref, p in zip(refs[1:], polygons[1:]))
    # vertex-0 pushes on cables other than the first
    assert all(ref.y_ref != y for ref, y in zip(refs[1:], y_refs[1:]))
    # several cables insert midpoints in the first round
    assert sum(_clean_edge_crowded(p, rs, margin) for p in polygons) >= 2


def test_one_failing_cable_fails_the_bundle():
    # cable 1 of this scene cannot be restored on its own
    rs, margin, polygons, y_refs, fpoly = _bundle_scene(0, SHAPES[1])
    refs = _cable_refs(rs, margin, polygons, y_refs, fpoly)
    assert [ref is None for ref in refs] == [False, True, False, False, False]
    assert _maintain_bundle(_Bundle.of(polygons, y_refs), rs, margin, fpoly) is None


def test_a_vertex_on_a_root_fails_the_bundle():
    rs, margin, polygons, y_refs, fpoly = _bundle_scene(3, SHAPES[0])
    polygons[2][7] = rs[1]
    refs = _cable_refs(rs, margin, polygons, y_refs, fpoly)
    assert [ref is None for ref in refs] == [False, False, True]
    assert _maintain_bundle(_Bundle.of(polygons, y_refs), rs, margin, fpoly) is None


# the sqrt continuation samples along a step of the former cable upkeep
_BLEND = np.linspace(0.0, 1.0, 9)


def test_blend_lift_rows_match_each_cable():
    rng = np.random.default_rng(11)
    f0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f1 = f0 + 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    y0 = np.sqrt(f0) * np.where(rng.uniform(size=6) < 0.5, -1.0, 1.0)
    rows = (1.0 - _BLEND) * f0[:, None] + _BLEND * f1[:, None]
    got = _continue_sqrt(rows, y0)
    for c in range(6):
        vals = (1.0 - _BLEND) * complex(f0[c]) + _BLEND * complex(f1[c])
        assert vals.tobytes() == rows[c].tobytes()
        want = _continue_sqrt(vals, complex(y0[c]))
        assert complex(got[c]).real.hex() == want.real.hex()
        assert complex(got[c]).imag.hex() == want.imag.hex()
    # a row whose blend lifts ambiguously fails all rows ...
    f1[4] = -f0[4] * (1.0 + 1e-3j)
    rows = (1.0 - _BLEND) * f0[:, None] + _BLEND * f1[:, None]
    assert not np.any(rows[4] == 0.0)
    assert _continue_sqrt(rows[4], complex(y0[4])) is None
    assert _continue_sqrt(rows, y0) is None
    # ... and so does one that passes through zero
    f1[4] = -f0[4]
    rows = (1.0 - _BLEND) * f0[:, None] + _BLEND * f1[:, None]
    assert _continue_sqrt(rows, y0) is None


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
