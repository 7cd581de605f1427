"""Basis-cycle orientations fixed on the integrated polygons.

The reference below is the former orientation pass, kept verbatim: it
located the crossings of the elliptical basis contours by a 4,096-sample
scan and a 60-step bisection, lifted both ellipses from their t = 0 node,
and only then turned each ellipse into a polygon, reversed when its sign
was -1.  The library measures the crossings on the basis polygons
themselves; both must give the same signs and bit-identical polygons.
The ellipses come from the verbatim copy of the former ellipse fit of
pair_loop in conftest; pair_loop now returns the 48-gon on that ellipse.
"""

import math

import numpy as np
import pytest

from conftest import basis_ellipses_ref, on_ellipse
from topmonodromy import periods, tracking
from topmonodromy.errors import DegenerateInputError, QuadratureError
from topmonodromy.homology import (
    _GAMMA_DELTA_NEXT,
    _GAMMA_DELTA_SAME,
    _intersection_matrix,
    build_basis,
)
from topmonodromy.periods import (
    _AMBIGUITY_LIMIT,
    _lift_open,
    _vertex_sqrt,
    basis_contours,
    realized_intersection,
)
from topmonodromy.poly import ComplexPoly, real_root_count
from topmonodromy.tracking import (
    _base_frame,
    _oriented_basis,
    fiber_polynomial,
    monodromy_periods,
    parameter_loop,
    picard_lefschetz_route,
)

KAPPA_BASE = (0.0, 0.5, 0.0)
# the delta ellipse here is 3.9e-4 thin; its raw 48-gon passes that close
# to a branch point
THIN_BASE = (0.1357207135624321, 2.360726848175201, 0.15881514855275736)


def _polygonize_ref(spec, n=48):
    """The former _polygonize: the positive circuit's vertices from t = 0."""
    return on_ellipse(spec, np.arange(n) * (2.0 * math.pi / n))


def _ellipse_tangent(spec, t):
    return spec.axis * (
        -spec.semi_major * np.sin(t) + 1j * spec.semi_minor * np.cos(t)
    )


def _lift_to_parameter(fpoly, spec, t):
    if t < 1e-12:
        return complex(np.sqrt(fpoly(on_ellipse(spec, 0.0))))
    n = max(64, int(8192 * t / (2.0 * math.pi)))
    x = on_ellipse(spec, np.linspace(0.0, t, n))
    y, worst = _lift_open(fpoly(x))
    if worst >= _AMBIGUITY_LIMIT:
        raise QuadratureError("ambiguous lift while locating a crossing")
    return complex(y[-1])


def _ellipse_intersection_ref(fpoly, spec_a, spec_b):
    """Signed same-sheet crossing count of two positive basis ellipses."""

    def q_form(spec, z):
        w = (z - spec.center) / spec.axis
        return (w.real / spec.semi_major) ** 2 + (w.imag / spec.semi_minor) ** 2

    n = 1 << 12
    ts = np.arange(n) * (2.0 * math.pi / n)
    q = q_form(spec_b, on_ellipse(spec_a, ts)) - 1.0
    if np.any(q == 0.0):
        raise QuadratureError("contours touch tangentially")
    total = 0
    for i in np.flatnonzero(q * np.roll(q, -1) < 0.0):
        lo, hi = ts[i], ts[i] + 2.0 * math.pi / n
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (q_form(spec_b, complex(on_ellipse(spec_a, mid))) - 1.0) * q[i] > 0.0:
                lo = mid
            else:
                hi = mid
        sa = 0.5 * (lo + hi)
        z = complex(on_ellipse(spec_a, sa))
        wz = (z - spec_b.center) / spec_b.axis
        tb = math.atan2(wz.imag / spec_b.semi_minor, wz.real / spec_b.semi_major) % (
            2.0 * math.pi
        )
        ya = _lift_to_parameter(fpoly, spec_a, sa)
        yb = _lift_to_parameter(fpoly, spec_b, tb)
        if abs(ya - yb) >= abs(ya + yb):
            continue
        da = complex(_ellipse_tangent(spec_a, sa))
        db = complex(_ellipse_tangent(spec_b, tb))
        total += 1 if (da.conjugate() * db).imag > 0.0 else -1
    return total


def _oriented_ref(g, point):
    """(signs, polygons, y0) of the former pass: orient ellipses, then
    polygonize, reversing each polygon whose sign is -1."""
    fpoly = fiber_polynomial(g, point)
    rs = tracking.roots(fpoly)
    specs = basis_ellipses_ref(build_basis(tuple(rs), g))
    eps = [1] + [0] * (2 * g)
    for j in range(1, g + 1):
        gi, di = j - 1, g + j
        s = _ellipse_intersection_ref(fpoly, specs[gi], specs[di])
        s2 = _ellipse_intersection_ref(fpoly, specs[j], specs[di])
        if abs(s) != 1 or abs(s2) != 1:
            raise QuadratureError("unexpected crossing count between basis contours")
        eps[di] = _GAMMA_DELTA_SAME * eps[gi] * s
        eps[j] = _GAMMA_DELTA_NEXT * eps[di] * s2
    polygons = []
    for spec, e in zip(specs, eps):
        verts = [complex(p) for p in _polygonize_ref(spec)]
        polygons.append(verts if e == 1 else [verts[0]] + verts[1:][::-1])
    y0 = [complex(np.sqrt(fpoly(p[0]))) for p in polygons]
    return eps, polygons, y0


def _library_basis(g, point):
    fpoly = fiber_polynomial(g, point)
    return _oriented_basis(fpoly, tuple(tracking.roots(fpoly)), g)


def _bases():
    rng = np.random.default_rng(11)
    out = [(1, (0.0, 1.0, 0.0)), (2, KAPPA_BASE), (1, THIN_BASE)]
    while len(out) < 28:
        a = tuple(float(v) for v in rng.uniform([-2, -2, -2], [2, 5, 2]))
        if real_root_count(fiber_polynomial(1, a)) == 0:
            out.append((1, a))
    while len(out) < 48:
        a = tuple(float(v) for v in rng.uniform(-0.6, 0.6, 3))
        a = (a[0], 0.5 + a[1], a[2])
        if real_root_count(fiber_polynomial(2, a)) == 0:
            out.append((2, a))
    while len(out) < 63:
        a1 = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        out.append((1, (a1, float(rng.uniform(1, 4)), float(rng.uniform(-1, 1)))))
    return out


def _signed_area(verts):
    v = np.asarray(verts, dtype=complex)
    return float(np.sum(v.real * np.roll(v.imag, -1) - v.imag * np.roll(v.real, -1)))


def test_polygon_orientation_matches_the_ellipse_reference():
    compared = 0
    for g, point in _bases():
        try:
            eps, polygons, y0 = _oriented_ref(g, point)
        except (QuadratureError, DegenerateInputError):
            with pytest.raises((QuadratureError, DegenerateInputError)):
                _library_basis(g, point)
            continue
        got = _library_basis(g, point)
        # the positive circuit of an ellipse runs counter-clockwise
        signs = [1 if _signed_area(v) > 0.0 else -1 for v, _ in got]
        assert signs == eps, (g, point)
        for (verts, y), ref, y_ref in zip(got, polygons, y0):
            assert verts.tobytes() == np.array(ref).tobytes()
            assert y == y_ref
        compared += 1
    assert compared >= 60


def test_thin_ellipse_base_is_oriented_on_the_raw_polygon():
    # the raw delta polygon passes within 4e-4 of a branch point, and its
    # tip edges far closer to its own ends; it is oriented as it is and
    # integrated on edges split near the roots
    rs = tracking.roots(fiber_polynomial(1, THIN_BASE))
    delta = basis_ellipses_ref(build_basis(tuple(rs), 1))[2]
    raw = _polygonize_ref(delta)
    gap = np.min(np.abs(raw[:, None] - np.array(rs)[None, :]))
    assert delta.semi_minor < 4e-4 and gap < 4e-4
    eps, polygons, _ = _oriented_ref(1, THIN_BASE)
    assert eps == [1, -1, -1]
    got = _library_basis(1, THIN_BASE)
    assert got[2][0].tobytes() == np.array(polygons[2]).tobytes()
    assert np.all(np.isfinite(_base_frame(1, THIN_BASE, 1e-9).periods))


def test_thin_ellipse_base_refines_only_the_edges_near_a_branch_point(monkeypatch):
    # the crossing lifts double the samples of an ambiguous edge alone; the
    # former lift doubled every edge until the two tip edges, 1.7e-6 from a
    # branch point, cleared, and lifted 298,664 samples in all
    _, polygons, _ = _oriented_ref(1, THIN_BASE)
    lifted = []
    steps = periods._lift_steps

    def counting(fvals, y_start=None):
        lifted.append(fvals.shape[-1])
        return steps(fvals, y_start)

    monkeypatch.setattr(periods, "_lift_steps", counting)
    got = _library_basis(1, THIN_BASE)
    assert [v.tobytes() for v, _ in got] == [np.array(p).tobytes() for p in polygons]
    assert sum(lifted) < 40_000


def test_a_loop_from_the_thin_ellipse_base_is_the_identity_by_both_routes():
    # the loop of the console-script smoke test, which runs the thin polygon
    # through the installed entry point
    a1, a2, a3 = THIN_BASE
    corners = [(0.1857207135624321, a2, a3), (a1, 2.410726848175201, a3)]
    loop = parameter_loop(1, [THIN_BASE, *corners, THIN_BASE])
    for route in (monodromy_periods, picard_lefschetz_route):
        assert route(loop).matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_a_basis_chosen_for_clear_chords_realizes_the_canonical_form():
    # here build_basis passes over the shortest matching, whose delta chord
    # runs 3.7e-4 from a third branch point; every pair of the realized
    # basis polygons must cross as the canonical intersection form says
    point = (-0.2083501014287662, 1.0600318763097865, 0.4560335572521116)
    fpoly = fiber_polynomial(2, point)
    basis = _library_basis(2, point)
    got = [[0 if a is b else realized_intersection(fpoly, a, b) for b in basis]
           for a in basis]
    assert got == _intersection_matrix(2).tolist()


@pytest.mark.parametrize(
    "fv", [-4.0 + 0.0j, complex(-4.0, -0.0), -4.0 + 1e-20j, -4.0 - 1e-20j]
)
def test_vertex_sqrt_takes_the_upper_root_on_the_negative_axis(fv):
    assert _vertex_sqrt(ComplexPoly.of([fv]), 0.0) == pytest.approx(2j, abs=1e-15)


@pytest.mark.parametrize("fv", [4.0 + 0.0j, -4.0 - 1e-3j, 1j, -1j])
def test_vertex_sqrt_is_principal_elsewhere(fv):
    assert _vertex_sqrt(ComplexPoly.of([fv]), 0.0) == complex(np.sqrt(fv))


def _on_axis_variants():
    """The kappa base roots with their last-bit real parts replaced."""
    rs = tracking.roots(fiber_polynomial(2, KAPPA_BASE))
    axis = [k for k, r in enumerate(rs) if abs(r.real) < 1e-20]
    assert len(axis) == 2  # a conjugate pair on the imaginary axis

    def vary(f):
        return [complex(f(r), r.imag) if k in axis else r for k, r in enumerate(rs)]

    return [
        vary(lambda r: 0.0),
        vary(lambda r: -r.real),
        vary(lambda r: math.ulp(abs(r))),
        vary(lambda r: -math.ulp(abs(r))),
    ]


@pytest.mark.parametrize("variant", range(4))
def test_root_rounding_at_the_kappa_base_does_not_flip_a_cable(variant):
    base = _library_basis(2, KAPPA_BASE)
    varied = _on_axis_variants()[variant]
    fpoly = fiber_polynomial(2, KAPPA_BASE)
    gamma2 = basis_contours(build_basis(tuple(varied), 2))[1].vertices
    fv = complex(fpoly(complex(gamma2[0])))
    assert fv.real < 0.0 and abs(fv.imag) <= 1e-12 * abs(fv)  # a real tie
    got = _oriented_basis(fpoly, tuple(varied), 2)
    for (verts, y), (ref, y_ref) in zip(got, base):
        assert len(verts) == len(ref)
        np.testing.assert_allclose(verts, ref, rtol=0.0, atol=1e-12)
        assert abs(y - y_ref) <= 1e-12


# branch points at |x| = 10: every polygon below lies on one sheet
FAR = ComplexPoly.of([1e4, 0.0, 0.0, 0.0, 1.0])
SQUARE = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])


@pytest.mark.parametrize(
    "other",
    [
        [1.0 + 0.5j, 2.0, 2.0 + 1.0j],  # a vertex on an edge of the square
        [1.0 + 1.0j, 2.0 + 1.0j, 2.0 + 2.0j],  # a shared vertex
        [1.0 + 0.2j, 1.0 + 0.6j, 2.0 + 0.4j],  # an edge along an edge
    ],
)
def test_polygons_that_touch_raise(other):
    cable = (np.array(other), 100.0)
    with pytest.raises(QuadratureError):
        realized_intersection(FAR, (SQUARE, 100.0), cable)
    with pytest.raises(QuadratureError):
        realized_intersection(FAR, cable, (SQUARE, 100.0))


def test_crossings_on_one_sheet_cancel():
    shifted = (SQUARE + (0.5 + 0.5j), 100.0)
    assert realized_intersection(FAR, (SQUARE, 100.0), shifted) == 0
    # an edge collinear with an edge of the square but clear of it
    apart = (np.array([1.0 + 2.0j, 1.0 + 3.0j, 2.0 + 2.5j]), 100.0)
    assert realized_intersection(FAR, (SQUARE, 100.0), apart) == 0
