import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import Ellipse, ellipse_fit_ref, on_ellipse, warm_roots
from test_orientation import THIN_BASE
from topmonodromy import periods, tracking
from topmonodromy.discriminant import in_component_C, quartic_poly
from topmonodromy.errors import (
    DegenerateInputError,
    NearDiscriminantError,
    QuadratureError,
    RootFindingError,
    ValidationError,
)
from topmonodromy.homology import build_basis
from topmonodromy.periods import (
    _AMBIGUITY_LIMIT,
    ContourSpec,
    _a2_deformation_path,
    _action_quartic,
    _lift_steps,
    _sheet_sign_at_origin,
    _vertex_sqrt,
    _vanishing_pair,
    _winding_numbers,
    action_I1,
    action_I1_cubic,
    basis_contours,
    big_loop,
    cycle_integral,
    normalized_basis_contours,
    pair_loop,
    polyline,
    realized_intersection,
    reference_branch,
    residue_check,
)
from topmonodromy.poly import ComplexPoly, has_repeated_root, real_root_count, roots
from topmonodromy.spectral import SpectralCoeffs


UNIT_QUARTIC = ComplexPoly.of([1, 0, 1, 0, 1])  # x^4 + x^2 + 1


def quartic_in_C(rng):
    """Random spectral quartic A^2 f with no real roots (component C)."""
    while True:
        a1 = rng.uniform(-2, 2)
        a3 = rng.uniform(-2, 2)
        a2 = rng.uniform(-2, 5)
        f = ComplexPoly.of([1.0, a3, a2, a1, 1.0])
        rs = roots(f)
        if min(abs(r.imag) for r in rs) > 0.05:
            return (a1, a2, a3), f, rs


# ---------------------------------------------------------------------------
# branch of sqrt(f)
# ---------------------------------------------------------------------------


def test_reference_branch_squares_to_f():
    rng = np.random.default_rng(3)
    _, f, _ = quartic_in_C(rng)
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    y = reference_branch(f, x)
    assert np.allclose(y * y, f(x), rtol=1e-12, atol=1e-12)


def test_reference_branch_positive_leading_asymptotics():
    # far from all cuts the branch behaves like +x^{g+1} sqrt(lead), off by
    # at most the subleading coefficient ratio
    for coeffs in ([1, 0, 1, 0, 1], [1.0, 0.3, 2.0, 0.1, 1.0, 0.2, 2.0]):
        f = ComplexPoly.of(coeffs)
        g1 = (f.degree + 1) // 2  # g + 1
        for x in (1e4, 1e4j, -1e4, 3e3 - 4e3j):
            y = reference_branch(f, x)
            ref = x**g1 * math.sqrt(coeffs[-1])
            assert abs(y / ref - 1) < 1.0 / abs(x)


def test_reference_branch_scalar_and_array_agree():
    f = UNIT_QUARTIC
    xs = [0.3 + 0.2j, -1.5, 2j]
    arr = reference_branch(f, np.array(xs))
    for x, v in zip(xs, arr):
        assert reference_branch(f, x) == pytest.approx(v)


# ---------------------------------------------------------------------------
# contours and cycle integrals
# ---------------------------------------------------------------------------


def windings(spec, points):
    """Turn counts of a contour's polygon about each point."""
    return list(_winding_numbers(spec.vertices, points))


def clearance_ref(verts, points):
    """Least distance from the points to the closed polygon's edges, by a
    scalar loop over every edge."""
    best = math.inf
    for k, a in enumerate(verts):
        d = verts[(k + 1) % len(verts)] - a
        for p in points:
            t = min(1.0, max(0.0, ((p - a) * d.conjugate()).real / abs(d) ** 2))
            best = min(best, abs(p - (a + t * d)))
    return best


def test_pair_loop_encloses_only_its_pair():
    rs = roots(UNIT_QUARTIC)
    cfg = build_basis(rs, 1)
    for j in range(2):
        for o in (1, -1):
            spec = pair_loop(rs, cfg.pairing[j], orientation=o)
            want = [o if k in cfg.pairing[j] else 0 for k in range(4)]
            assert windings(spec, rs) == want
        x, _ = spec.nodes(512)
        others = [rs[i] for i in range(4) if i not in cfg.pairing[j]]
        assert min(np.abs(x - r).min() for r in others) > 0.05
        assert spec.clearance > 0.05


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(
    a1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 8.0),
    a3=st.floats(-3.0, 3.0),
    palindromic=st.booleans(),
)
def test_a_pair_loop_fitted_to_avoid_the_origin_does_not_wind_it(
    a1, a2, a3, palindromic
):
    # action_I1 takes no winding count on such a loop: the fit keeps the
    # origin outside the 1.2-times scaled ellipse, so outside the polygon
    a = (a1, a2, a1 if palindromic else a3)
    f = quartic_poly(a)
    assume(real_root_count(f) == 0 and not has_repeated_root(f))
    rs = roots(f)
    fitted = 0
    for pair in ((i, j) for i in range(4) for j in range(4) if i != j):
        for o in (1, -1):
            try:
                spec = pair_loop(rs, pair, orientation=o, avoid=(0.0,))
            except DegenerateInputError:
                continue
            assert windings(spec, (0.0,)) == [0]
            fitted += 1
    assume(fitted)


def test_contour_arrays_are_read_only_and_take_no_part_in_equality():
    rs = roots(UNIT_QUARTIC)
    spec = pair_loop(rs, build_basis(rs, 1).pairing[0], avoid=(0.0,))
    twin = ContourSpec(spec.vertices, spec.clearance, spec.origin_gap)
    spec.nodes(12)  # builds spec's arrays; twin has none yet
    assert "_edges" in vars(spec) and "_edges" not in vars(twin)
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    a, b, half, mid = spec._edges
    assert a.tolist() == list(spec.vertices)
    assert b.tolist() == list(spec.vertices[1:] + spec.vertices[:1])
    for arr in spec._edges:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert spec._edges is spec._edges
    assert ContourSpec(spec.vertices[::-1]) != spec


def test_pair_loop_rejects_bad_input():
    rs = roots(UNIT_QUARTIC)
    with pytest.raises(ValidationError):
        pair_loop(rs, (0, 0))
    with pytest.raises(ValidationError):
        pair_loop(rs, (0, 9))


@pytest.mark.parametrize(
    "build",
    [
        lambda: pair_loop([0, 1, math.inf, 2j], (0, 1)),
        lambda: pair_loop([0, 1, 3, math.nan], (0, 1)),
        lambda: pair_loop([0, 1, 3], (0, 1), avoid=(complex(0.0, math.inf),)),
        lambda: pair_loop([0, 1, 3], (0, 1), avoid=(0.0, math.nan)),
        lambda: big_loop([0, 1, math.nan]),
        lambda: big_loop([0, 1, math.inf]),
        lambda: big_loop([0, 1, complex(-math.inf, 1.0)]),
    ],
    ids=["pair-inf", "pair-nan", "avoid-inf", "avoid-nan", "big-nan", "big-inf", "big-neg-inf"],
)
def test_contour_builders_refuse_points_that_are_not_finite(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="must be finite"):
            build()


# a clearance of 0.0 is a case of test_batched_ladder_fails_like_the_per_level_ladder
@pytest.mark.parametrize("clearance", [-1.0, math.nan])
def test_a_contour_without_positive_clearance_is_refused(clearance):
    spec = ContourSpec(vertices=(1.0, 1.0j, -1.0), clearance=clearance)
    with pytest.raises(ValidationError, match="nonpositive clearance"):
        cycle_integral(UNIT_QUARTIC, spec, "dx/y")
    with pytest.raises(ValidationError, match="nonpositive clearance"):
        periods._anchored_values(
            UNIT_QUARTIC, spec, ("y dx/x^2",), 1e-10,
            periods._real_axis_anchor(UNIT_QUARTIC, spec),
        )


def test_big_loop_contains_all_roots():
    rs = roots(UNIT_QUARTIC)
    for o in (1, -1):
        assert windings(big_loop(rs, orientation=o), list(rs) + [0.0]) == [o] * 5


@pytest.mark.parametrize("seed", [5, 23, 71])
def test_clearance_is_the_distance_to_the_edges(seed):
    rng = np.random.default_rng(seed)
    _, _, rs = quartic_in_C(rng)
    cfg = build_basis(rs, 1)
    avoid = (0.0, complex(rng.normal(), rng.normal()))
    fitted = 0
    for o in (1, -1):
        big = big_loop(rs, orientation=o)
        want = clearance_ref(big.vertices, list(rs) + [0.0])
        assert big.clearance == pytest.approx(want, rel=1e-12)
        for pair in cfg.pairing:
            try:
                spec = pair_loop(rs, pair, orientation=o, avoid=avoid)
            except DegenerateInputError:
                continue
            others = [r for k, r in enumerate(rs) if k not in pair] + list(avoid)
            want = clearance_ref(spec.vertices, others)
            assert spec.clearance == pytest.approx(want, rel=1e-12)
            fitted += 1
    assert fitted


def test_quartic_pair_periods_purely_imaginary():
    # x^4+x^2+1 has conjugate root pairs; the dx/y pair periods are
    # purely imaginary and opposite in sign between the two pairs.
    rs = roots(UNIT_QUARTIC)
    cfg = build_basis(rs, 1)
    vals = [
        cycle_integral(UNIT_QUARTIC, pair_loop(rs, cfg.pairing[j]), "dx/y")
        for j in range(2)
    ]
    for v in vals:
        assert abs(v.real) < 1e-10
        assert abs(v.imag) > 1.0
    assert abs(vals[0] + vals[1]) < 1e-8
    assert abs(abs(vals[0]) - 4.3130312950) < 1e-6


def test_big_loop_equals_minus_sum_of_pairs_g1():
    rs = roots(UNIT_QUARTIC)
    cfg = build_basis(rs, 1)
    pairs = sum(
        cycle_integral(UNIT_QUARTIC, pair_loop(rs, cfg.pairing[j]), "dx/y")
        for j in range(2)
    )
    big = cycle_integral(UNIT_QUARTIC, big_loop(rs), "dx/y")
    assert abs(big + pairs) < 1e-8


def test_big_loop_equals_minus_sum_of_pairs_g2():
    f = ComplexPoly.of([1.0, 0.3, 2.0, 0.1, 1.0, 0.2, 2.0])
    rs = roots(f)
    cfg = build_basis(rs, 2)
    pairs = sum(
        cycle_integral(f, pair_loop(rs, cfg.pairing[j]), "dx/y") for j in range(3)
    )
    big = cycle_integral(f, big_loop(rs), "dx/y")
    assert abs(big + pairs) < 1e-8


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_big_loop_sum_rule_random_quartics(seed):
    rng = np.random.default_rng(seed)
    _, f, rs = quartic_in_C(rng)
    cfg = build_basis(rs, 1)
    pairs = sum(
        cycle_integral(f, pair_loop(rs, cfg.pairing[j]), "dx/y") for j in range(2)
    )
    big = cycle_integral(f, big_loop(rs), "dx/y")
    assert abs(big + pairs) < 1e-8 * max(1.0, abs(big))


def test_orientation_flip_negates_integral():
    rs = roots(UNIT_QUARTIC)
    cfg = build_basis(rs, 1)
    ccw = pair_loop(rs, cfg.pairing[0])
    cw = pair_loop(rs, cfg.pairing[0], orientation=-1)
    v1 = cycle_integral(UNIT_QUARTIC, ccw, "dx/y")
    v2 = cycle_integral(UNIT_QUARTIC, cw, "dx/y")
    assert abs(v1 + v2) < 1e-12 * max(1.0, abs(v1))


def test_deformation_invariance_ellipse_vs_rectangle():
    f = ComplexPoly.of([1.0, 0.5, 2.0, 0.3, 1.0])
    rs = roots(f)
    cfg = build_basis(rs, 1)
    i, j = cfg.pairing[0]
    ellipse = pair_loop(rs, (i, j))
    m = 0.5 * (rs[i] + rs[j])
    d = rs[j] - rs[i]  # rectangle spans past both cut endpoints
    corners = [m + u * d for u in (0.6 + 0.15j, -0.6 + 0.15j, -0.6 - 0.15j, 0.6 - 0.15j)]
    rect = polyline(corners)
    v1 = cycle_integral(f, ellipse, "dx/y")
    v2 = cycle_integral(f, rect, "dx/y")
    assert abs(v1 - v2) < 1e-10 * max(1.0, abs(v1))


def test_contour_enclosing_no_branch_points_integrates_to_zero():
    f = UNIT_QUARTIC
    rs = roots(f)
    # a small hexagon well away from every root
    center = 2.5 + 2.5j
    corners = [center + 0.3 * np.exp(2j * math.pi * k / 6) for k in range(6)]
    spec = polyline(corners)
    assert min(abs(np.asarray(rs) - center)) > 1.0
    assert abs(cycle_integral(f, spec, "dx/y")) < 1e-10


def test_residue_identity_on_big_loop():
    # clockwise big loop of y dx/x^2 picks up the pole at infinity:
    # the integral equals -i pi a1 exactly.
    for a in [(0.0, 2.0, 0.0), (1.0, 0.3, -0.4), (-0.7, 1.9, 0.3)]:
        assert residue_check(a) < 1e-10


# Points of C: |a1|, |a3| <= 1 with a2 log-uniform in [2.5, 1e4]; and the
# small-reach family (-+4, 6 + delta, -+4) just above the real fourfold root
# (x -+ 1)^4 at delta = 0, whose roots all sit within about delta^(1/4) of
# +-1, so a circle sized to the roots alone passed close to the origin.
LARGE_A2_POINTS = st.tuples(
    st.floats(-1.0, 1.0),
    st.floats(math.log(2.5), math.log(1e4)).map(math.exp),
    st.floats(-1.0, 1.0),
)
POINTS_OF_C = LARGE_A2_POINTS | st.tuples(
    st.sampled_from((-4.0, 4.0)), st.floats(-12.0, -4.0)
).map(lambda t: (t[0], 6.0 + 10.0 ** t[1], t[0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(a=POINTS_OF_C, orientation=st.sampled_from((1, -1)))
def test_big_loop_is_sized_to_its_integrand(a, orientation):
    f = quartic_poly(a)
    assume(real_root_count(f) == 0)
    rs = np.array(roots(f))
    loop = big_loop(rs, orientation=orientation)
    # radius 2 rho + 1, rho the farthest of the roots and the origin from
    # the roots' mean; vertices every third point of the 48-point table
    center = complex(np.mean(rs))
    radius = 2.0 * float(np.max(np.abs(np.append(rs, 0.0) - center))) + 1.0
    verts = center + radius * (periods._LOOP_COS[::3] + 1j * periods._LOOP_SIN[::3])
    if orientation == -1:
        verts = np.concatenate((verts[:1], verts[:0:-1]))
    assert len(loop.vertices) == 16
    assert np.array(loop.vertices).tobytes() == verts.tobytes()
    assert windings(loop, [*rs, 0.0]) == [orientation] * 5
    assert loop.origin_gap >= 0.45 * radius
    assert loop.clearance >= 0.45 * radius
    # the anchor is vertex 0, right of every root and off the real axis by
    # the roots' mean's rounding alone (up to about 2e-8 R next to the
    # fourfold root, whose roots are conditioned like eps^(1/4))
    k, y0 = periods._real_axis_anchor(f, loop)
    assert k == 0
    assert loop.vertices[0].imag == center.imag
    assert abs(center.imag) <= 1e-6 * radius
    assert loop.vertices[0].real > max(rs.real)
    assert y0 == np.sqrt(f(loop.vertices[0]))
    assert residue_check(a) < 1e-12 * max(1.0, abs(a[0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(a=POINTS_OF_C)
def test_the_action_loop_is_anchored_on_the_real_axis(a):
    # the pair loop action_I1 fits around a conjugate pair has a vertical
    # cut, so its rightmost vertex lies on the real axis right of the pair,
    # up to the pair's own rounding asym = |r_i - conj(r_j)| (tilting the
    # cut by up to asym/d) and the rounding of the vertex table
    point = _action_quartic(a)
    rs, (i, j), stratum = _vanishing_pair(a, point)
    try:
        loop = pair_loop(rs, (i, j), orientation=-1, avoid=() if stratum else (0.0,))
    except DegenerateInputError:
        try:
            loop = pair_loop(rs, (i, j), orientation=-1)
        except DegenerateInputError:
            assume(False)  # action_I1 refuses the point: a root is on the cut
    k, y0 = periods._real_axis_anchor(point.quartic, loop)
    verts = np.array(loop.vertices)
    v = verts[k]
    asym, d = abs(rs[i] - rs[j].conjugate()), abs(rs[i] - rs[j])
    size = float(np.max(np.abs(verts - 0.5 * (rs[i] + rs[j]))))
    assert abs(v.imag) <= asym * (1.0 + 2.0 * size / d) + 4.0 * np.finfo(float).eps * size
    assert v.real > max(rs[i].real, rs[j].real)
    assert y0 == np.sqrt(point.quartic(v)) and y0.real > 0.0


# The refusals action_I1 still makes on C at large a2, where the closed form
# returns a value: its ladder runs out before two levels agree, or lifts no
# level unambiguously (as at (0, e^8, 1/32)), and no pair loop is fitted
# when the other pair sits on the vanishing cut (as at (1e-10, e, 0), where
# every root is imaginary to rounding and the outer pair vanishes).
OPEN_ACTION_REFUSALS = {
    (QuadratureError, "quadrature did not reach tol=1e-10"),
    (QuadratureError, "branch tracking stayed ambiguous"),
    (DegenerateInputError, "an excluded point sits on the cut"),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(a=LARGE_A2_POINTS)
def test_the_contour_action_matches_the_closed_form_at_large_a2(a):
    # the sheet anchor is a vertex on the real axis, so no point of C is
    # refused for a loop that misses the axis
    want = action_I1_cubic(a)
    try:
        got = action_I1(a)
    except (QuadratureError, DegenerateInputError) as exc:
        assert (type(exc), str(exc)) in OPEN_ACTION_REFUSALS
        return
    assert abs(got - want) <= 1e-10 * abs(want)


def test_the_big_loop_keeps_clear_of_the_origin_next_to_a_fourfold_root():
    # 6 + 1e-12 is in C by the exact Sturm count; the circle around the
    # roots alone passed about 3e-3 from the origin, with a defect of 3.5e-10
    a = (-4.0, 6.0 + 1e-12, -4.0)
    assert real_root_count(quartic_poly(a)) == 0
    assert residue_check(a) < 1e-12


def test_residue_check_refuses_a_sum_that_rounding_swamps():
    # the big loop's terms grow with its radius: at a2 = 1e40 they are about
    # 1e19 and cancel to exactly 0, which read as a defect of pi, the whole
    # answer; the rounding floor eps * sum |y w / x^2| passes tol from 1e10
    for a in ((1.0, 1e10, 0.0), (1.0, 1e40, 0.0), (1.0, 1e150, 0.0)):
        with pytest.raises(QuadratureError, match="rounding in the loop integral"):
            residue_check(a)
    # floors 2.8e-11 and 8.8e-11
    for a in ((1.0, 1e8, 0.0), (1.0, 1e9, 0.0)):
        assert residue_check(a) < 1e-10


def test_big_loop_y_dx_over_x2_matches_minus_i_pi_a1():
    a1, a2, a3 = 1.3, 2.1, -0.6
    f = ComplexPoly.of([1.0, a3, a2, a1, 1.0])
    rs = roots(f)
    val = cycle_integral(f, big_loop(rs, orientation=-1), "y dx/x^2")
    assert abs(val + 1j * math.pi * a1) < 1e-10


def test_cycle_integral_rejects_unknown_differential():
    rs = roots(UNIT_QUARTIC)
    with pytest.raises(ValidationError):
        cycle_integral(UNIT_QUARTIC, big_loop(rs), "dx/y^3")


def test_origin_pole_requires_origin_free_contour():
    # y dx/x^2 along a contour through the origin must fail loudly
    with pytest.raises(QuadratureError):
        cycle_integral(UNIT_QUARTIC, polyline([0.0, 0.3, 0.3j]), "y dx/x^2")


def test_edge_through_the_origin_pole_fails_before_refining():
    # no quadrature node lands on x = 0 here, only the edge from the first
    # vertex to the second passes through it
    triangle = polyline([-0.3 - 0.3j, 0.3 + 0.3j, 0.3 - 0.3j])
    with pytest.raises(QuadratureError, match="passes through the origin pole"):
        cycle_integral(UNIT_QUARTIC, triangle, "y dx/x^2")


def test_tolerance_is_honored():
    rs = roots(UNIT_QUARTIC)
    cfg = build_basis(rs, 1)
    spec = pair_loop(rs, cfg.pairing[0])
    loose = cycle_integral(UNIT_QUARTIC, spec, "dx/y", tol=1e-6)
    tight = cycle_integral(UNIT_QUARTIC, spec, "dx/y", tol=1e-12)
    assert abs(loose - tight) < 1e-6


def test_contour_through_branch_point_raises():
    # a vertex sitting on a root makes the lift ambiguous at every refinement
    rs = roots(UNIT_QUARTIC)
    bad = polyline([rs[0], rs[0] + 0.3, rs[0] + 0.3j])
    with pytest.raises(QuadratureError):
        cycle_integral(UNIT_QUARTIC, bad, "dx/y")


# ---------------------------------------------------------------------------
# basis contours and realized intersections
# ---------------------------------------------------------------------------


def test_basis_contours_counts():
    for coeffs, g in [([1, 0, 1, 0, 1], 1), ([1.0, 0.3, 2.0, 0.1, 1.0, 0.2, 2.0], 2)]:
        rs = roots(ComplexPoly.of(coeffs))
        cfg = build_basis(rs, g)
        cont = basis_contours(cfg)
        assert len(cont) == 2 * g + 1
        pairs = list(cfg.pairing) + [
            (cfg.pairing[j][1], cfg.pairing[j + 1][0]) for j in range(g)
        ]
        for c, pair in zip(cont, pairs):
            want = [1 if k in pair else 0 for k in range(len(rs))]
            assert windings(c, rs) == want


def test_normalized_basis_realizes_canonical_intersections():
    for coeffs, g in [([1, 0, 1, 0, 1], 1), ([1.0, 0.3, 2.0, 0.1, 1.0, 0.2, 2.0], 2)]:
        f = ComplexPoly.of(coeffs)
        cfg = build_basis(roots(f), g)
        polygons = [np.array(c.vertices) for c in basis_contours(cfg)]
        cont = normalized_basis_contours(
            f, [(p, _vertex_sqrt(f, p[0])) for p in polygons]
        )
        for j in range(g):
            assert realized_intersection(f, cont[j], cont[g + 1 + j]) == 1
            assert realized_intersection(f, cont[j + 1], cont[g + 1 + j]) == -1
        assert realized_intersection(f, cont[0], cont[1]) == 0


# ---------------------------------------------------------------------------
# action integral
# ---------------------------------------------------------------------------


def test_action_matches_cubic_reduction():
    pts = [
        (0.9, 2.8, -0.4),
        (-1.1, 3.2, 0.6),
        (0.3, 2.1, 0.2),
        (1.4, 4.0, 1.0),
        (-0.5, 2.4, -1.3),
    ]
    for a in pts:
        assert abs(action_I1(a) - action_I1_cubic(a)) < 1e-8


def test_action_matches_cubic_on_palindromic_stratum():
    for a in [(0.1, 2.4, 0.1), (-0.2, 2.6, -0.2), (0.0, 2.2, 0.0)]:
        assert abs(action_I1(a) - action_I1_cubic(a)) < 1e-8


def test_action_scales_linearly_in_A():
    a = (0.9, 2.8, -0.4)
    assert action_I1(a, A=2.5) == pytest.approx(2.5 * action_I1(a), rel=1e-12)


def test_action_monotone_along_symmetric_line():
    vals = [action_I1((0.0, a2, 0.0)) for a2 in (2.2, 2.6, 3.0, 4.5)]
    assert vals[0] == pytest.approx(1.3805430020, abs=1e-6)
    assert vals[1] == pytest.approx(1.5412360815, abs=1e-6)
    assert vals[2] == pytest.approx(1.6776099719, abs=1e-6)
    assert vals[3] == pytest.approx(2.0938007123, abs=1e-6)
    assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


def test_action_vanishes_toward_discriminant():
    # a = (0, -2 + eps, 0) approaches the double-root boundary where the
    # distinguished pair collides; the action must shrink to zero with it.
    seq = [action_I1((0.0, -2.0 + eps, 0.0)) for eps in (0.5, 0.1, 0.02, 0.004)]
    assert all(v1 > v2 > 0 for v1, v2 in zip(seq, seq[1:]))
    assert seq[0] == pytest.approx(0.127051137, abs=1e-6)
    assert action_I1((0.0, -2.0 + 2e-4, 0.0)) < 1e-4


def test_action_rejects_real_root_parameters():
    with pytest.raises(ValidationError):
        action_I1((0.0, -3.0, 0.0))


# (0, -3, 0) and (0, -2.5, 0) are outside C with a cubic form of three real
# roots; the huge ones have real roots that Aberth does not reach
@pytest.mark.parametrize(
    "a", [(0.0, -3.0, 0.0), (0.0, -2.5, 0.0), (1e200, 1.0, 0.0), (-1e300, 1.0, 0.0)]
)
def test_cubic_action_refuses_a_point_outside_C(a):
    message = r"^parameters are outside component C \(real roots\)$"
    with pytest.raises(ValidationError, match=message):
        action_I1_cubic(a)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    st.floats(-6.0, 6.0),
    st.floats(-8.0, 10.0),
    st.floats(-6.0, 6.0),
)
def test_both_action_routes_refuse_exactly_the_points_outside_C(a1, a2, a3):
    a = (a1, a2, a3)
    outside = real_root_count(quartic_poly(a)) > 0
    for action in (action_I1, action_I1_cubic):
        try:
            action(a)
        except ValidationError:
            assert outside
            continue
        except (DegenerateInputError, NearDiscriminantError, QuadratureError):
            pass
        assert not outside


@pytest.mark.parametrize("action", [action_I1, action_I1_cubic])
@pytest.mark.parametrize(
    "a", [(math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (0.1, 1.2, -math.inf)]
)
def test_action_rejects_a_point_that_is_not_finite(action, a):
    with pytest.raises(ValidationError, match="must be finite"):
        action(a)


@pytest.mark.parametrize("action", [action_I1, action_I1_cubic])
@pytest.mark.parametrize("A", [math.nan, math.inf, -math.inf])
def test_action_rejects_an_area_that_is_not_finite(action, A, monkeypatch):
    # refused before any work: the point's record is never asked for
    monkeypatch.setattr(periods, "_point", None)
    with pytest.raises(ValidationError, match=r"^area A must be finite"):
        action((0.1, 1.2, 0.05), A=A)


def test_action_near_discriminant_guard():
    with pytest.raises(NearDiscriminantError):
        action_I1((0.0, -2.0 + 1e-13, 0.0))
    with pytest.raises(NearDiscriminantError):
        action_I1((0.0, 2.02, 0.0))


def cubic_form_action(a):
    """Independent oracle: mpmath tanh-sinh quadrature of the cubic form.

    I1 = (1/pi) * int_{u1}^{u2} sqrt(g(u)) / (1 - u^2) du with
    g(u) = 2u^3 - a2 u^2 + (a1 a3/2 - 2) u + a2 - (a1^2 + a3^2)/4 and
    u1 <= u2 its two smallest real roots.
    """
    import mpmath

    with mpmath.workdps(30):
        a1, a2, a3 = (mpmath.mpf(v) for v in a)
        cs = [2, -a2, a1 * a3 / 2 - 2, a2 - (a1 * a1 + a3 * a3) / 4]
        u1, u2, _ = sorted(mpmath.re(r) for r in mpmath.polyroots(cs, extraprec=60))

        def integrand(u):
            g = ((2 * u - a2) * u + cs[2]) * u + cs[3]
            return mpmath.sqrt(max(g, 0)) / (1 - u * u)

        return float(mpmath.quad(integrand, [u1, u2]) / mpmath.pi)


@pytest.mark.parametrize("gap", [1e-3, 1.2e-3, -1e-3, 1e-6])
def test_action_matches_cubic_form_near_the_plane_a1_eq_minus_a3(gap):
    # Both pairs nearly collide at the end of the a2 deformation here; the
    # vanishing pair is the one at the real touch point, which the nearest
    # pair at the stop value is not when a1 * (a1 + a3) > 0.
    a = (0.5, 1.4, -0.5 + gap)
    assert abs(action_I1(a) - cubic_form_action(a)) < 1e-8


def test_cubic_action_converges_next_to_the_plane_a1_eq_minus_a3():
    # u = -1 is within 1e-6 of the endpoint u1 here; the cubic form raised
    # QuadratureError before its pole at u = -1 was subtracted
    a = (0.18236762335248613, 1.1613698622237552, -0.18356589046478888)
    cubic = action_I1_cubic(a)
    assert abs(cubic - cubic_form_action(a)) < 1e-10
    assert abs(cubic - action_I1(a)) < 1e-10


# Above the double-pair stratum a2 = 2 + a3^2/4 and next to the plane
# a1 = a3, the real a2 segment passes within about |a1 - a3| of the complex
# double pair without meeting it, and u = +1 nears the cubic form's endpoint
# u2, since g(1) = -(a1 - a3)^2/4.  Only the plane itself (to 1e-8 of the
# root scale: the last two points) is the stratum.  A root continuation
# along that segment stalled for 1e-8 < |a1 - a3| <~ 3e-7.
NEAR_PALINDROMIC = [
    (0.3, 2.4225, 0.3001),
    (0.3, 2.4225, 0.30001),
    (-0.2, 2.5, -0.20001),
    (0.3, 2.4225, 0.3 + 1e-8),
    (0.3, 2.4225, 0.3),
    (0.3, 2.4225, 0.3 + 3e-7),
    (0.3, 2.4225, 0.3 - 3e-7),
    (0.3, 2.4225, 0.3 + 3e-8),
    (-0.2, 2.5, -0.2 + 3e-7),
]


@pytest.mark.parametrize("a", NEAR_PALINDROMIC)
def test_action_routes_match_the_oracle_next_to_the_plane_a1_eq_a3(a):
    ref = cubic_form_action(a)
    assert abs(action_I1(a) - ref) < 1e-8
    assert abs(action_I1_cubic(a) - ref) < 1e-8


def _pair_off_the_roots(a, monkeypatch):
    """The vanishing pair's first root and the stratum flag at a, checked
    with every root continuation made to fail."""

    def no_march(*args, **kwargs):
        raise AssertionError("the action needs no root continuation")

    monkeypatch.setattr(tracking, "_March", no_march)
    rs, (i, j), stratum = _vanishing_pair(a, _action_quartic(a))
    assert rs[i].imag * rs[j].imag < 0.0
    assert abs(rs[j] - rs[i].conjugate()) <= 1e-12
    assert abs(action_I1(a) - cubic_form_action(a)) < 1e-12
    return rs[i], stratum


@pytest.mark.parametrize("a", [(0.3, 2.4225, 0.3), (-0.2, 2.6, -0.2), (0.0, 2.2, 0.0)])
def test_action_on_the_palindromic_stratum_reads_the_pair_off_the_roots(
    a, monkeypatch
):
    r, stratum = _pair_off_the_roots(a, monkeypatch)
    assert stratum and r.imag > 0.0 and abs(r) < 1.0


# Off the stratum: a general point, a point 1e-7 off the plane a1 = a3 above
# the double pair, and a point of the plane below it (every root on the unit
# circle).
@pytest.mark.parametrize(
    "a", [(0.9, 2.8, -0.4), (0.3, 2.4225, 0.3 + 1e-7), (0.3, 1.5, 0.3)]
)
def test_action_reads_the_vanishing_pair_off_the_base_roots(a, monkeypatch):
    assert not _pair_off_the_roots(a, monkeypatch)[1]


# Next to the plane a1 = a3 above the double pair, 1 - u2 is below the
# rounding of the root u2, so the pole gap must come from the coefficients.
@pytest.mark.parametrize(
    "a",
    [(0.3, 2.4225, 0.3 + 1e-8), (0.3, 2.4225, 0.3 + 3e-8), (-0.2, 2.5, -0.2 + 3e-8)],
)
def test_cubic_action_takes_the_pole_gap_from_the_exact_coefficients(a):
    assert abs(action_I1_cubic(a) - cubic_form_action(a)) < 1e-13


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    a3=st.floats(-3.5, 3.5),
    gap=st.floats(0.05, 2.0),
    side=st.sampled_from((-1.0, 1.0)),
)
def test_action_routes_match_the_oracle_on_the_plane_a1_eq_a3(a3, gap, side):
    # a2 on both sides of the complex double pair at a2 = 2 + a3^2/4, a
    # point of the discriminant, and kept clear of it
    _assert_routes_match_the_oracle((a3, 2.0 + a3 * a3 / 4.0 + side * gap, a3), 1e-11)


def _assert_routes_match_the_oracle(a, tol):
    """Both action routes within tol of the mpmath oracle, for a in C."""
    try:
        inside = in_component_C(quartic_poly(a))
        i1 = action_I1(a) if inside else None
    except NearDiscriminantError:
        inside = False  # on or next to the discriminant: refused by design
    assume(inside)
    ref = cubic_form_action(a)
    assert abs(i1 - ref) < tol
    assert abs(action_I1_cubic(a) - ref) < tol


def _near_plane_point(a3, gap, offset):
    """(a3 + gap, a2, a3) with a2 = offset + the double pair's 2 + a3^2/4."""
    return a3 + gap, 2.0 + a3 * a3 / 4.0 + offset, a3


# Next to the plane a1 = a3 (on either side, |a1 - a3| from 1e-16 to 1e-2)
# with a2 on either side of the double pair, and on the plane for
# 4 < |a3| <= 6, where the double pair is real and component C lies above
# it: the roots sit off the unit circle, and the touch point x* is one of
# the two real double roots x, 1/x.  An open defect, pinned below, is left
# out: |a3| stays above 0.05, since for a1, a3 near 0 the origin sits on the
# vanishing cut.
_SIGN = st.sampled_from((-1.0, 1.0))
NEXT_TO_THE_PLANE = st.builds(
    _near_plane_point,
    st.builds(lambda m, s: s * m, st.floats(0.05, 3.5), _SIGN),
    st.builds(lambda e, s: s * 10.0**e, st.floats(-16.0, -2.0), _SIGN),
    st.builds(lambda g, s: s * g, st.floats(0.05, 1.0), _SIGN),
)
WIDE_PLANE = st.builds(
    _near_plane_point,
    st.builds(lambda m, s: s * m, st.floats(4.0, 6.0, exclude_min=True), _SIGN),
    st.just(0.0),
    st.floats(0.05, 1.0),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(a=NEXT_TO_THE_PLANE)
# inside the band where a root continuation along real a2 stalled
@example(a=_near_plane_point(1.5, 1e-7, 0.3))
@example(a=_near_plane_point(-2.5, -2e-7, 0.6))
@example(a=_near_plane_point(0.8, -5e-8, 0.1))
# below the double pair, where the side test rounds the wrong way
@example(a=_near_plane_point(0.7593290959965839, -3.5631207764165166e-14, -0.2313))
def test_action_matches_the_oracle_next_to_the_plane_a1_eq_a3(a):
    _assert_routes_match_the_oracle(a, 1e-10)


@settings(derandomize=True, deadline=None, database=None, max_examples=10)
@given(a=WIDE_PLANE)
def test_action_matches_the_oracle_on_the_plane_a1_eq_a3_for_large_a3(a):
    _assert_routes_match_the_oracle(a, 1e-10)


def _known_failure(a, error, reason):
    return pytest.param(
        a, marks=pytest.mark.xfail(raises=error, strict=True, reason=reason)
    )


# Points on and next to the plane a1 = a3, each point's action well defined
# there (the cubic form agrees with the oracle).  All but the last are open
# defects.  The fourth lies off the double pair: its vanishing pair is
# -1.7e-4 +- 0.707i and the pair loop that avoids the origin is too thin to
# integrate.  The last lies 1e-8 off the plane, above the double pair; it
# must read the off-plane pair, not the stratum pair, whose action is off by
# |a1 - a3|/2 on this side.
@pytest.mark.parametrize(
    "a",
    [
        _known_failure(
            (0.6224867020115319, 2.1104594774699157, 0.6224867020115319),
            NearDiscriminantError,
            "the double-pair guard refuses a2 0.014 above the pair",
        ),
        _known_failure(
            (0.5919404470764031, 2.114679316105728, 0.5919404470764031),
            NearDiscriminantError,
            "the double-pair guard refuses a2 0.027 above the pair",
        ),
        _known_failure(
            (0.0, 2.0 - 6.103515625e-05, 0.0),
            QuadratureError,
            "quadrature fails 6e-5 below the double pair",
        ),
        _known_failure(
            (-0.001, 2.5, 0.0), QuadratureError, "the origin sits on the vanishing cut"
        ),
        (-1.00000001, 3.25, -1.0),
    ],
)
def test_action_next_to_the_double_pair_on_the_plane_a1_eq_a3(a):
    assert abs(action_I1(a) - cubic_form_action(a)) < 1e-11


@settings(derandomize=True, deadline=None, database=None, max_examples=24)
@given(
    a1=st.floats(-0.6, 0.6),
    a2=st.floats(0.4, 1.9),
    exponent=st.floats(-6.0, -1.0),
    sign=st.sampled_from((-1.0, 1.0)),
)
def test_action_routes_agree_near_the_plane_a1_eq_minus_a3(a1, a2, exponent, sign):
    a = (a1, a2, -a1 + sign * 10.0**exponent)
    try:
        inside = in_component_C(quartic_poly(a))
    except NearDiscriminantError:
        inside = False
    assume(inside)
    assert abs(action_I1(a) - action_I1_cubic(a)) < 1e-8


def deformation_stop(a1, a2, a3):
    """The former march's stop value: 1e-3 of the way from a2_low up to a2."""
    a2_low, _ = _a2_deformation_path(a1, a2, a3)
    return a2_low + 1e-3 * (a2 - a2_low)


def fixed_grid_vanishing_pair(a):
    """Reference: the former a2-deformation tracker of periods.py.

    A fixed grid of samples along real a2 from a2 down to deformation_stop,
    doubled from 40 up to 5,120 until every greedy nearest-root match moves
    each root less than a third of the smallest separation; the pair
    returned is the closest one at the end of the deformation.
    """
    a1, a2, a3 = a
    rs = roots(ComplexPoly.of((1.0, a3, a2, a1, 1.0)))
    waypoints = [complex(a2), complex(deformation_stop(a1, a2, a3))]
    per_seg = 40
    while per_seg <= 5120:
        samples = []
        for k in range(len(waypoints) - 1):
            seg = np.linspace(waypoints[k], waypoints[k + 1], per_seg)
            samples.extend(seg[1:] if k else seg)
        cur = list(rs)
        for s in samples[1:]:
            sep = min(abs(cur[i] - cur[j]) for i in range(4) for j in range(i + 1, 4))
            new = warm_roots(ComplexPoly.of((1.0, a3, s, a1, 1.0)), cur)
            free = list(range(4))
            matched = []
            for c0 in cur:
                j = min(free, key=lambda k: abs(new[k] - c0))
                free.remove(j)
                matched.append(new[j])
            if max(abs(m - c) for m, c in zip(matched, cur)) > sep / 3.0:
                break
            cur = matched
        else:
            pairs = sorted(
                (abs(cur[i] - cur[j]), (i, j)) for i in range(4) for j in range(i + 1, 4)
            )
            return rs, pairs[0][1]
        per_seg *= 2
    raise AssertionError("reference tracker failed")


def seeded_component_points(seed, count, palindromic, detour):
    """Points of C away from a1 + a3 = 0; detour asks for points of the
    palindromic stratum, where lowering a2 to the stop value would pass the
    complex double pair at a2 = 2 + a3^2/4 (palindromic only)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1, a3 = (float(v) for v in rng.uniform(-0.8, 0.8, size=2))
        a2 = float(rng.uniform(0.4, 4.0))
        if palindromic:
            a3 = a1
        if abs(a1 + a3) < 0.01:
            continue
        f = ComplexPoly.of((1.0, a3, a2, a1, 1.0))
        try:
            if not in_component_C(f):
                continue
            stop = deformation_stop(a1, a2, a3)
        except NearDiscriminantError:
            continue
        double = 2.0 + a3 * a3 / 4.0
        stratum = a1 == a3 and abs(a3) < 4.0 and stop < double < a2
        if stratum and a2 - double < 0.01 * (a2 - stop):
            continue  # refused as too close to the double pair
        if stratum == detour:
            out.append((a1, a2, a3))
    return out


def seeded_near_plane_points(seed, count):
    """Points of C off the plane a1 = a3 by |a1 - a3| log-uniform in
    [1e-6, 1e-2], either sign, with a1 + a3 kept 0.01 away from 0.

    Above the double pair a2 = 2 + a3^2/4 only |a1 - a3| >= 1e-3 is kept:
    nearer the plane the real a2 path passes within about |a1 - a3| of the
    complex double pair, closer than the reference's 5,120 samples resolve.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a3 = float(rng.uniform(-0.8, 0.8))
        a2 = float(rng.uniform(0.4, 4.0))
        gap = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -2.0))
        a1 = a3 + gap
        if abs(a1 + a3) < 0.01 or (a2 > 2.0 + a3 * a3 / 4.0 and abs(gap) < 1e-3):
            continue
        try:
            if not in_component_C(ComplexPoly.of((1.0, a3, a2, a1, 1.0))):
                continue
            deformation_stop(a1, a2, a3)
        except NearDiscriminantError:
            continue
        out.append((a1, a2, a3))
    return out


@pytest.mark.parametrize(
    "palindromic, detour", [(False, False), (True, False), (True, True)]
)
def test_vanishing_pair_matches_fixed_grid_reference(palindromic, detour):
    points = seeded_component_points(2718, 5, palindromic, detour)
    if not palindromic:
        points += seeded_near_plane_points(2718, 8)
    for a in points:
        rs, pair, stratum = _vanishing_pair(a, _action_quartic(a))
        assert stratum == detour
        if detour:
            # the stratum reads the conjugate pair inside the unit circle,
            # upper root first, off the base roots
            ref_rs = roots(ComplexPoly.of((1.0, a[2], a[1], a[0], 1.0)))
            i, j = pair
            assert rs[i].imag > 0.0 and abs(rs[i]) < 1.0
            assert abs(rs[j] - rs[i].conjugate()) <= 1e-12
        else:
            ref_rs, ref_pair = fixed_grid_vanishing_pair(a)
            assert pair == ref_pair
        assert [(r.real.hex(), r.imag.hex()) for r in rs] == [
            (r.real.hex(), r.imag.hex()) for r in ref_rs
        ]


def lift_closed_ref(fvals):
    """The former periods._lift_closed, kept verbatim."""
    y, q = _lift_steps(fvals)
    worst = float(np.sqrt(np.max(q, initial=0.0)))
    d_keep = abs(y[0] - y[-1])
    d_flip = abs(y[0] + y[-1])
    hi = max(d_keep, d_flip)
    if hi > 0.0:
        worst = max(worst, min(d_keep, d_flip) / hi)
    return y, worst, d_keep < d_flip


def ellipse_values_ref(fpoly, ellipse, orientation, tol, sign):
    """The former ellipse quadrature of y dx/x^2: a trapezoid rule in the
    ellipse parameter, 256 nodes doubling up to 65,536 until two agree to
    tol, with sign(x, fv, y) -> +-1 choosing the sheet.  Returns the value,
    with the orientation applied, and the anchored nodes and lift."""
    n = 256
    prev = None
    while n <= 1 << 16:
        t = np.arange(n) * (2.0 * math.pi / n)
        x = on_ellipse(ellipse, t)
        w = ellipse.axis * (
            -ellipse.semi_major * np.sin(t) + 1j * ellipse.semi_minor * np.cos(t)
        ) * (2.0 * math.pi / n)
        fv = fpoly(x)
        y, worst, closes = lift_closed_ref(fv)
        if worst < _AMBIGUITY_LIMIT and closes:
            y = y * sign(x, fv, y)
            val = complex(np.sum(y / x**2 * w))
            if prev is not None and abs(val - prev) < tol:
                return orientation * val, x, y
            prev = val
        else:
            prev = None
        n *= 2
    raise AssertionError("the ellipse reference did not converge")


def real_axis_sign_ref(x, fv, y):
    """The former real-axis anchor: +sqrt(f) at the rightmost crossing."""
    right = np.nonzero(x.real >= float(np.median(x.real)))[0]
    j = int(right[np.argmin(np.abs(x.imag[right]))])
    ref = np.sqrt(fv[j])
    return 1 if abs(y[j] - ref) <= abs(y[j] + ref) else -1


def action_ellipse_ref(a):
    """The former action_I1 (A = 1), on ellipses: off the palindromic stratum
    the pair loop avoiding the origin where it fits, else the plain pair
    loop with the origin residue stripped when the origin lies inside the
    ellipse."""
    a3 = a[2]
    rs, (i, j), stratum = _vanishing_pair(a, _action_quartic(a))
    fpoly = SpectralCoeffs.of(1, (a[0], a[1], a[2], 1.0)).poly()
    if not stratum:
        try:
            e = ellipse_fit_ref(rs, (i, j), avoid=(0.0,))
        except DegenerateInputError:
            e = None
        if e is not None:
            val, _, _ = ellipse_values_ref(fpoly, e, -1, 1e-10, real_axis_sign_ref)
            return ((1j / (2.0 * math.pi)) * val).real
    e = ellipse_fit_ref(rs, (i, j))
    val, x, y = ellipse_values_ref(fpoly, e, -1, 1e-10, real_axis_sign_ref)
    out = (1j / (2.0 * math.pi)) * val
    z = -e.center / e.axis
    if (z.real / e.semi_major) ** 2 + (z.imag / e.semi_minor) ** 2 < 1.0:
        if abs(a3) > 1e-13:
            out -= _sheet_sign_at_origin(fpoly, x, y) * 0.5 * a3
    return out.real


def residue_ellipse_ref(a):
    """The former residue_check: the clockwise circle around every branch
    point, on the cut-plane branch at the node where |f| is largest."""
    fpoly = SpectralCoeffs.of(1, (a[0], a[1], a[2], 1.0)).poly()
    pts = np.asarray(roots(fpoly))
    center = complex(np.mean(pts))
    radius = 2.0 * float(np.max(np.abs(pts - center))) + 1.0

    def branch_sign(x, fv, y):
        j = int(np.argmax(np.abs(fv)))
        ref = reference_branch(fpoly, x[j])
        return 1 if abs(y[j] - ref) <= abs(y[j] + ref) else -1

    circle = Ellipse(center, 1.0 + 0.0j, radius, radius)
    val, _, _ = ellipse_values_ref(fpoly, circle, -1, 1e-10, branch_sign)
    return abs(val + 1j * math.pi * a[0])


ORIGIN_BLOCKED = [(0.0, 2.2, 0.0), (0.0, 3.7, 0.0)]  # cut through the origin


@pytest.mark.parametrize(
    "kind", ["general", "palindromic", "detour", "origin-blocked"]
)
def test_polygon_action_and_residue_match_the_former_ellipse_quadrature(kind):
    if kind == "origin-blocked":
        points = ORIGIN_BLOCKED
    else:
        points = seeded_component_points(
            977, 4, kind != "general", kind == "detour"
        )
    for a in points:
        assert abs(action_I1(a) - action_ellipse_ref(a)) < 1e-13
        assert abs(residue_check(a) - residue_ellipse_ref(a)) < 1e-13


def anchored_values_from_24_ref(fpoly, contour, differentials, tol, anchor):
    """The former ladder of _anchored_values, which started at 24 nodes per
    edge, kept verbatim but for the module prefixes."""
    if contour.clearance <= 0.0:
        raise ValidationError("contour has nonpositive clearance")
    if any(d == "y dx/x^2" for d in differentials):
        a = np.array(contour.vertices, dtype=complex)
        if np.min(periods._segment_distances(a, np.roll(a, -1), np.zeros(1))) < 1e-12:
            raise QuadratureError("contour passes through the origin pole", location=0.0)
    n = 24
    prev = None
    worst_x = None
    k, ref = anchor
    while n <= periods._MAX_EDGE_NODES:
        x, w = contour.nodes(n)
        fv = fpoly(x)
        y, worst, closes = lift_closed_ref(fv)
        if worst < _AMBIGUITY_LIMIT and closes:
            j = k * n
            y = y * (1 if abs(y[j] - ref) <= abs(y[j] + ref) else -1)
            vals = np.array(
                [np.sum(periods._integrand_values(d, x, y) * w) for d in differentials]
            )
            if prev is not None and np.max(np.abs(vals - prev)) < tol:
                return vals, x, y
            prev = vals
        else:
            prev = None
            worst_x = complex(x[int(np.argmin(np.abs(fv)))])
        n *= 2
    if prev is not None:
        raise QuadratureError(f"quadrature did not reach tol={tol}")
    raise QuadratureError("branch tracking stayed ambiguous", location=worst_x)


def action_box_points(seed, count, palindromic):
    """Points of C in the box a1, a3 in [-0.6, 0.6], a2 in [0.4, 1.9]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a1, a3 = (float(v) for v in rng.uniform(-0.6, 0.6, size=2))
        a2 = float(rng.uniform(0.4, 1.9))
        if palindromic:
            a3 = a1
        if abs(a1 + a3) < 0.01:
            continue
        try:
            if in_component_C(ComplexPoly.of((1.0, a3, a2, a1, 1.0))):
                out.append((a1, a2, a3))
        except NearDiscriminantError:
            continue
    return out


@pytest.mark.parametrize("palindromic", [False, True])
def test_action_and_residue_quadrature_stop_at_the_first_comparison(
    palindromic, monkeypatch
):
    # Gauss-Legendre converges geometrically on each edge, so 12 against 24
    # nodes per edge already agree to 1e-10 and the 24-node value is kept:
    # the one the former ladder compared against 48 and bettered by ~1e-16
    asked = []
    nodes = ContourSpec.nodes

    def recording(spec, n):
        asked.append(n)
        return nodes(spec, n)

    monkeypatch.setattr(ContourSpec, "nodes", recording)
    for a in action_box_points(2500, 6, palindromic):
        for fn in (action_I1, residue_check):
            asked.clear()
            got = fn(a)
            assert asked == [12, 24]
            with monkeypatch.context() as m:
                m.setattr(periods, "_anchored_values", anchored_values_from_24_ref)
                want = fn(a)
            assert abs(got - want) < 1e-14


def lift_open_ref(fvals, y_start=None):
    """The former _lift_open, from the two distances |b - a| and |b + a| of
    each step, kept verbatim."""
    if np.any(fvals == 0.0):
        raise QuadratureError("contour passes through a branch point")
    cand = np.sqrt(fvals)
    a, b = cand[..., :-1], cand[..., 1:]
    d_keep = np.abs(b - a)
    d_flip = np.abs(b + a)
    lo = np.minimum(d_keep, d_flip)
    hi = np.maximum(d_keep, d_flip)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(hi > 0.0, lo / hi, 1.0)
    worst = np.max(ratio, axis=-1, initial=0.0)
    flips = np.cumprod(np.where(d_flip < d_keep, -1.0, 1.0), axis=-1)
    y = cand * np.concatenate((np.ones(cand.shape[:-1] + (1,)), flips), axis=-1)
    if y_start is not None:
        y0 = y[..., 0]
        flip = np.abs(y0 - y_start) > np.abs(y0 + y_start)
        y = np.where(flip[..., None], -y, y)
    return y, (float(worst) if y.ndim == 1 else worst)


def sampled_path_values(rng, rows, n):
    """f on rows straight paths of n samples; each passes a root of a
    random quartic at a distance log-uniform in [1e-6, 1], some of them
    closer than their sample spacing."""
    rs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    out = []
    for _ in range(rows):
        gap = 10.0 ** rng.uniform(-6.0, 0.0)
        turn = np.exp(2j * math.pi * rng.uniform())
        t = np.linspace(-1.0, 1.0, n) * rng.uniform(0.05, 2.0) + rng.uniform(-0.2, 0.2)
        x = rs[int(rng.integers(4))] + turn * (1j * gap + t)
        out.append(np.prod(x[:, None] - rs, axis=1))
    return np.array(out)


@pytest.mark.parametrize("rows", [None])
@pytest.mark.parametrize("pinned", [False, True])
def test_lift_from_one_product_matches_the_former_lift(rows, pinned):
    # the sign choice and the ambiguity ratio only differ at ties, where the
    # ratio is about 1 and the lift is rejected, so every accepted lift is
    # bit-identical; the seeded paths cover accepted and ambiguous lifts
    rng = np.random.default_rng(25 + 2 * (rows or 0) + pinned)
    accepted = rejected = 0
    for _ in range(150):
        fv = sampled_path_values(rng, rows or 1, int(rng.integers(2, 200)))
        fv = fv if rows else fv[0]
        y_start = None
        if pinned:
            y_start = rng.standard_normal(fv.shape[:-1]) + 1j * rng.standard_normal(
                fv.shape[:-1]
            )
        y, q = _lift_steps(fv, y_start)
        worst = np.sqrt(np.max(q, axis=-1, initial=0.0))
        y_ref, worst_ref = lift_open_ref(fv, y_start)
        for k in range(rows or 1):
            w, w_ref = np.ravel(worst)[k], np.ravel(worst_ref)[k]
            clear = max(abs(w - _AMBIGUITY_LIMIT), abs(w_ref - _AMBIGUITY_LIMIT))
            if clear > 1e-12:
                assert (w < _AMBIGUITY_LIMIT) == (w_ref < _AMBIGUITY_LIMIT)
            if w < _AMBIGUITY_LIMIT and w_ref < _AMBIGUITY_LIMIT:
                accepted += 1
                row = (slice(None),) if rows is None else (k,)
                assert y[row].tobytes() == y_ref[row].tobytes()
            else:
                rejected += 1
    assert accepted > 40 and rejected > 40


def test_residue_check_matches_the_former_quadrature_with_real_roots():
    # the big loop crosses the real axis right of every branch point, so
    # its real-axis anchor holds with real branch points too
    rng = np.random.default_rng(41)
    real = 0
    for _ in range(12):
        a = tuple(float(v) for v in rng.uniform([-2, -3, -2], [2, 5, 2]))
        real += real_root_count(quartic_poly(a)) > 0
        assert abs(residue_check(a) - residue_ellipse_ref(a)) < 1e-13
    assert real >= 3


def test_march_to_complex_a2_matches_roots_of_that_quartic():
    a1, a2, a3 = 0.3, 2.9, -0.2
    target = (a1, a2 - 0.6 + 0.4j, a3)
    state = tracking._March(1, (a1, a2, a3))
    state.traverse(target)
    assert state.point == target
    want = roots(quartic_poly(target))
    perm, worst = tracking._match_roots(state.rs, want)
    assert sorted(perm) == [0, 1, 2, 3]
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# one array pass per batch of ladder levels
# ---------------------------------------------------------------------------


def anchored_values_per_level_ref(fpoly, contour, differentials, tol, anchor):
    """The former _anchored_values, which built, evaluated, lifted and
    anchored every level of the ladder on its own; kept verbatim but for
    the module prefixes and lift_closed_ref."""
    if contour.clearance <= 0.0:
        raise ValidationError("contour has nonpositive clearance")
    if any(d == "y dx/x^2" for d in differentials):
        a = np.array(contour.vertices, dtype=complex)
        b = np.concatenate((a[1:], a[:1]))
        if np.min(periods._segment_distances(a, b, np.zeros(1))) < 1e-12:
            raise QuadratureError("contour passes through the origin pole", location=0.0)
    n = 12
    prev = None
    worst_x = None
    k, ref = anchor
    while n <= periods._MAX_EDGE_NODES:
        x, w = contour.nodes(n)
        fv = fpoly(x)
        y, worst, closes = lift_closed_ref(fv)
        if worst < _AMBIGUITY_LIMIT and closes:
            j = k * n
            y = y * (1 if abs(y[j] - ref) <= abs(y[j] + ref) else -1)
            vals = np.array(
                [np.sum(periods._integrand_values(d, x, y) * w) for d in differentials]
            )
            if prev is not None and np.max(np.abs(vals - prev)) < tol:
                return vals, x, y
            prev = vals
        else:
            prev = None
            worst_x = complex(x[int(np.argmin(np.abs(fv)))])
        n *= 2
    if prev is not None:
        raise QuadratureError(f"quadrature did not reach tol={tol}")
    raise QuadratureError("branch tracking stayed ambiguous", location=worst_x)


def _quadrature_outcome(fn, args):
    """The bits of (values, x, y), or the error's type, message and location."""
    try:
        vals, x, y = fn(*args)
    except (QuadratureError, ValidationError) as exc:
        return type(exc), str(exc), exc.location if isinstance(exc, QuadratureError) else None
    return vals.tobytes(), x.tobytes(), y.tobytes()


def assert_ladder_matches_the_per_level_ref(fpoly, contour, differentials, tol, anchor):
    """Assert the batched ladder's outcome is the per-level one; return the
    nodes per edge of the level returned (0 for an error)."""
    args = (fpoly, contour, tuple(differentials), tol, anchor)
    got = _quadrature_outcome(periods._anchored_values, args)
    assert got == _quadrature_outcome(anchored_values_per_level_ref, args)
    if isinstance(got[0], type):
        return 0
    return len(got[1]) // 16 // len(contour.vertices)


def _pinned(y0):
    return (0, y0)


def _split_basis_polygons(g, point):
    """(fiber polynomial, [(polyline, y_ref)]) of a base point's oriented
    basis polygons, with their edges split near the roots, as the base
    record integrates them."""
    fpoly = tracking.fiber_polynomial(g, point)
    rs = tuple(roots(fpoly))
    polygons = tracking._oriented_basis(fpoly, rs, g)
    return fpoly, [(polyline(tracking._split_edges(v, rs)), y) for v, y in polygons]


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_ladder_is_bit_identical_on_pair_and_big_loops(seed):
    rng = np.random.default_rng(seed)
    _, f, rs = quartic_in_C(rng)
    cfg = build_basis(rs, 1)
    loops = [big_loop(rs, orientation=o) for o in (1, -1)]
    for pair in cfg.pairing:
        for avoid in ((), (0.0,)):
            try:
                loops.append(pair_loop(rs, pair, orientation=-1, avoid=avoid))
            except DegenerateInputError:
                pass
    for loop in loops:
        anchors = [(("dx/y", "x dx/y", "y dx/x^2"), periods._branch_anchor(f, loop))]
        try:  # a pair loop's rightmost vertex can be off the real axis
            anchors.append((("y dx/x^2",), periods._real_axis_anchor(f, loop)))
        except QuadratureError:
            pass
        for diffs, anchor in anchors:
            assert_ladder_matches_the_per_level_ref(f, loop, diffs, 1e-10, anchor)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(
    g=st.sampled_from((1, 2)),
    point=st.tuples(st.floats(-0.5, 0.5), st.floats(0.3, 2.5), st.floats(-0.5, 0.5)),
)
def test_batched_ladder_is_bit_identical_on_basis_polygons(g, point):
    try:
        fpoly, polygons = _split_basis_polygons(g, point)
    except (QuadratureError, DegenerateInputError, NearDiscriminantError):
        assume(False)
    diffs = tracking._differentials(2 * g)
    for spec, y0 in polygons:
        assert_ladder_matches_the_per_level_ref(fpoly, spec, diffs, 1e-9, _pinned(y0))


def test_batched_ladder_is_bit_identical_past_the_first_batch():
    # the thin base's delta polygon needs 48 nodes per edge
    fpoly, polygons = _split_basis_polygons(1, THIN_BASE)
    levels = [
        assert_ladder_matches_the_per_level_ref(
            fpoly, spec, tracking._differentials(2), 1e-9, _pinned(y0)
        )
        for spec, y0 in polygons
    ]
    assert max(levels) == 48
    # here 12 and 24 nodes per edge both lift cleanly but differ by 1.6e-4;
    # a tolerance under rounding walks the ladder to its end
    f = ComplexPoly.of(
        [-0.6482017644651017, -0.16601777558658837, 1.7400274033992509,
         1.7873027829875685, 1.0]
    )
    rs = roots(f)
    loop = pair_loop(rs, build_basis(rs, 1).pairing[0])
    anchor = periods._branch_anchor(f, loop)
    assert assert_ladder_matches_the_per_level_ref(f, loop, ("dx/y",), 1e-10, anchor) > 24
    assert assert_ladder_matches_the_per_level_ref(f, loop, ("dx/y",), 1e-30, anchor) == 0


def test_batched_ladder_fails_like_the_per_level_ladder():
    rs = roots(UNIT_QUARTIC)
    triangle = polyline([1.0, 1.0j, -1.0])
    x24, _ = triangle.nodes(24)
    cases = [
        # a vertex on a root: every level lifts, none agree
        (UNIT_QUARTIC, polyline([rs[0], rs[0] + 0.3, rs[0] + 0.3j]), ("dx/y",), 1e-10),
        # an edge through a root: no level lifts
        (UNIT_QUARTIC, polyline([rs[0] - 0.2, rs[0] + 0.2, rs[0] + 0.2j]), ("dx/y",),
         1e-10),
        (UNIT_QUARTIC, polyline([-0.3 - 0.3j, 0.3 + 0.3j, 0.3 - 0.3j]), ("y dx/x^2",),
         1e-10),
        (UNIT_QUARTIC, ContourSpec(vertices=triangle.vertices, clearance=0.0), ("dx/y",),
         1e-10),
        # f vanishes at a node of the 24-node level alone
        (ComplexPoly.of([-x24[5], 1.0]), triangle, ("dx/y",), 1e-10),
        # a big loop's ladder exhausted: no two levels can agree to 0
        (UNIT_QUARTIC, big_loop(rs, orientation=-1), ("y dx/x^2",), 0.0),
    ]
    errors = []
    for f, spec, diffs, tol in cases:
        args = (f, spec, diffs, tol, _pinned(1.0))
        got = _quadrature_outcome(periods._anchored_values, args)
        assert got == _quadrature_outcome(anchored_values_per_level_ref, args)
        errors.append(got[1:])
    assert errors == [
        ("quadrature did not reach tol=1e-10", None),
        ("branch tracking stayed ambiguous", errors[1][1]),
        ("contour passes through the origin pole", 0.0),
        ("contour has nonpositive clearance", None),
        ("contour passes through a branch point", None),
        ("quadrature did not reach tol=0.0", None),
    ]
    assert abs(errors[1][1] - rs[0]) < 1e-3


NEAR_MINUS_PLANE = [(0.5, 1.4, -0.5 + gap) for gap in (1e-3, 1.2e-3, -1e-3, 1e-6)] + [
    (0.18236762335248613, 1.1613698622237552, -0.18356589046478888)
]


@pytest.mark.parametrize("a", NEAR_PALINDROMIC + NEAR_MINUS_PLANE)
def test_cubic_action_in_closed_form_matches_the_oracle(a):
    ref = cubic_form_action(a)
    for area in (1.0, 2.5):
        assert abs(action_I1_cubic(a, area) - area * ref) < 1e-13


# (y, z, ps): generic arguments, y << z, y = z, and q -> 0 and q -> inf as
# next to a pole of the cubic form
CARLSON_CASES = [
    (0.3, 1.7, [1e-8, 0.3, 0.5, 1.7, 2.0, 1e8]),
    (1e-9, 2.0, [1e-12, 1e-9, 1.0, 1e12]),
    (1e-6, 10.0, [1e-8, 1e8]),
    (1.0, 1.0, [1.0, 1e-3]),
    (0.7, 3.1, [1e-16, 1e16]),
    (0.7, 3.1, [1e-300, 1e250]),
]


def _assert_carlson_matches_mpmath(y, z, ps, rel):
    import mpmath

    rf, (ry, rz, *rjs) = periods._carlson(y, z, ps)
    with mpmath.workdps(30):
        assert abs(rf / float(mpmath.elliprf(0, y, z)) - 1.0) < rel
        assert abs(ry / float(mpmath.elliprd(0, z, y)) - 1.0) < rel
        assert abs(rz / float(mpmath.elliprd(0, y, z)) - 1.0) < rel
        assert len(rjs) == len(ps)
        for p, rj in zip(ps, rjs):
            assert abs(rj / float(mpmath.elliprj(0, y, z, p)) - 1.0) < rel


@pytest.mark.parametrize("y, z, ps", CARLSON_CASES)
def test_carlson_matches_mpmath_at_extreme_ratios(y, z, ps):
    _assert_carlson_matches_mpmath(y, z, ps, 4e-15)


def test_carlson_matches_mpmath_at_random_arguments():
    rng = np.random.default_rng(29)
    for _ in range(60):
        y, z = 10.0 ** rng.uniform(-6.0, 1.0, size=2)
        ps = list(10.0 ** rng.uniform(-8.0, 8.0, size=3))
        _assert_carlson_matches_mpmath(y, z, ps, 4e-15)


# One of a1, a3 is e and the other 0, so c_s = e^2/8 at both poles.  With
# a2 = 2.4 the pole at u = +1 has q = 1.3e120 at e = 1e-60, whose cube
# overflows, and q = inf at e = 1e-160, where it drops out; the pole at
# u = -1 has q down to 3e-323.  With a2 = 1.5 the pole at u = +1 is next to
# u3 instead.  Every pole's term is below 1e-59.
@pytest.mark.parametrize(
    "a", [(1e-60, 2.4, 0.0), (1e-160, 2.4, 0.0), (0.0, 1.5, 1e-160)]
)
def test_cubic_action_next_to_both_planes_at_once(a):
    assert abs(action_I1_cubic(a) - cubic_form_action(a)) < 1e-13


def test_cubic_action_refuses_degenerate_cubic_forms(monkeypatch):
    # a = (3, 0, 0): g = 2u^3 - 2u - 9/4 has one real root, but the quartic
    # has real roots too, and the point is refused as outside C first
    with pytest.raises(ValidationError, match="outside component C"):
        action_I1_cubic((3.0, 0.0, 0.0))
    # a = (0, 2, 0): g = 2(u - 1)^2 (u + 1).  The root finder returns the
    # double root as a complex pair about 1e-7 apart, which the exact test
    # of gcd(g, g') names; a double root returned real meets the second guard.
    with pytest.raises(DegenerateInputError, match="repeated root"):
        action_I1_cubic((0.0, 2.0, 0.0))
    monkeypatch.setattr(periods, "poly_roots", lambda p, tol: [1 + 0j, -1 + 0j, 1 + 0j])
    with pytest.raises(DegenerateInputError, match="repeated root"):
        action_I1_cubic((0.0, 2.0, 0.0))


# g of each point, ascending, its number of distinct real roots, and what
# action_I1_cubic raises: 2(u - 1)^2 (u + 1) at the complex double pair of
# C's boundary, then 2u^2 (u - 1) and 2(u - 1)^3, whose quartics
# (x + 1)^2 (x^2 + 1) and (x + 1)^4 have real roots, so outside C
REPEATED_CUBICS = {
    (0.0, 2.0, 0.0): (
        (2.0, -2.0, -2.0, 2.0), 2, (DegenerateInputError, "cubic form has a repeated root")
    ),
    (2.0, 2.0, 2.0): ((0.0, 0.0, -2.0, 2.0), 2, (ValidationError, "outside component C")),
    (4.0, 6.0, 4.0): ((-2.0, 6.0, -6.0, 2.0), 1, (ValidationError, "outside component C")),
}


@pytest.mark.parametrize("a", sorted(REPEATED_CUBICS))
def test_a_cubic_form_with_a_repeated_root_is_named_so(a):
    coeffs, distinct, (error, message) = REPEATED_CUBICS[a]
    g = ComplexPoly.of(coeffs)
    assert has_repeated_root(g)
    assert real_root_count(g) == distinct
    real = [r for r in roots(g, tol=1e-13) if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
    assert len(real) < 3  # the roots alone do not show the repeat
    assert (error is ValidationError) == (real_root_count(quartic_poly(a)) > 0)
    with pytest.raises(error, match=message):
        action_I1_cubic(a)


def test_a_cubic_form_with_one_simple_real_root_keeps_its_message(monkeypatch):
    # a = (3, 0, 0): g = 2u^3 - 2u - 9/4, square-free with one real root;
    # the quartic has real roots as well, so the point is outside C
    g = ComplexPoly.of((-2.25, -2.0, 0.0, 2.0))
    assert not has_repeated_root(g)
    assert real_root_count(g) == 1
    with pytest.raises(ValidationError, match="outside component C"):
        action_I1_cubic((3.0, 0.0, 0.0))
    # inside C every cubic form seen has three real roots, so a root finder
    # that returns one real root reaches the guard
    a = (0.9, 2.8, -0.4)
    assert real_root_count(quartic_poly(a)) == 0
    monkeypatch.setattr(periods, "poly_roots", lambda p, tol: [1 + 0j, 0.5 + 1j, 0.5 - 1j])
    with pytest.raises(DegenerateInputError, match="does not have three real roots"):
        action_I1_cubic(a)


# ---------------------------------------------------------------------------
# the origin pole's distance, measured with the clearance
# ---------------------------------------------------------------------------


def ellipse_gaps_ref(spec, excluded):
    """The former measurements: the clearance over the excluded points, and
    the edges' distance from the origin, each from its own call."""
    a = np.array(spec.vertices, dtype=complex)
    b = np.concatenate((a[1:], a[:1]))
    gaps = periods._segment_distances(a, b, np.array(excluded, complex))
    origin = periods._segment_distances(a, b, np.zeros(1))
    return float(np.min(gaps, initial=math.inf)), float(np.min(origin))


@pytest.mark.parametrize("seed", [5, 23, 71])
def test_clearance_and_origin_gap_are_the_former_measurements(seed):
    rng = np.random.default_rng(seed)
    _, _, rs = quartic_in_C(rng)
    cfg = build_basis(rs, 1)
    checked = 0
    for o in (1, -1):
        big = big_loop(rs, orientation=o)
        got = (big.clearance.hex(), big.origin_gap.hex())
        assert got == tuple(v.hex() for v in ellipse_gaps_ref(big, list(rs) + [0.0]))
        for pair in cfg.pairing:
            for avoid in ((), (0.0,), (complex(rng.normal(), rng.normal()),)):
                try:
                    spec = pair_loop(rs, pair, orientation=o, avoid=avoid)
                except DegenerateInputError:
                    continue
                others = [r for k, r in enumerate(rs) if k not in pair] + list(avoid)
                want = ellipse_gaps_ref(spec, others)
                assert (spec.clearance.hex(), spec.origin_gap.hex()) == tuple(
                    v.hex() for v in want
                )
                checked += 1
    assert checked >= 6


def segment_distances_ref(a, b, rs):
    """The former _segment_distances, with its errstate context, kept
    verbatim."""
    rx, ry = rs.real, rs.imag
    ax, ay = a.real[:, None], a.imag[:, None]
    dx, dy = (b.real - a.real)[:, None], (b.imag - a.imag)[:, None]
    l2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((rx - ax) * dx + (ry - ay) * dy) / l2
    t = np.where(l2 == 0.0, 0.0, np.clip(t, 0.0, 1.0))
    return np.hypot(rx - (ax + t * dx), ry - (ay + t * dy))


NON_FINITE = [complex(math.nan, 0.0), complex(0.5, math.nan), complex(math.inf, 0.0),
              complex(-math.inf, 1.0), complex(0.0, math.inf), complex(math.inf, -math.inf),
              complex(math.nan, math.inf)]


@pytest.mark.parametrize("seed", range(6))
def test_segment_distances_are_the_former_errstate_ones(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 40))
    a = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 10.0 ** rng.uniform(-3, 3)
    a.real[1::3] = a.real[0]  # edges parallel to an axis
    k = rng.integers(0, m - 1, size=3)
    a[k + 1] = a[k]  # zero-length edges
    b = np.concatenate((a[1:], a[:1]))
    finite = np.concatenate((a[:3], rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    nan = np.array([p for p in NON_FINITE if not np.isinf(p)])
    inf = np.array([p for p in NON_FINITE if np.isinf(p)])
    assert np.any(a == b)
    for rs in (finite, nan, inf, np.concatenate((finite, nan, inf))):
        want = segment_distances_ref(a, b, rs)
        if np.isinf(rs).any():
            # an infinite point gives inf * 0 on an edge parallel to an
            # axis or of zero length, which the former errstate hid
            with pytest.warns(RuntimeWarning, match="invalid value"):
                got = periods._segment_distances(a, b, rs)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = periods._segment_distances(a, b, rs)
        assert got.tobytes() == want.tobytes()


def test_an_ellipse_edge_at_the_origin_fails_at_the_origin():
    # the roots are moved so that vertex 5 of a pair loop built without
    # avoid lands on x = 0, up to rounding
    rs0 = roots(UNIT_QUARTIC)
    pair = build_basis(rs0, 1).pairing[0]
    shift = pair_loop(rs0, pair).vertices[5]
    rs = [r - shift for r in rs0]
    f = ComplexPoly.of(np.poly(rs)[::-1])
    loop = pair_loop(rs, pair)
    assert loop.origin_gap < 1e-12
    with pytest.raises(QuadratureError, match="passes through the origin pole") as err:
        cycle_integral(f, loop, "y dx/x^2")
    assert err.value.location == 0.0


def test_pair_and_big_loops_measure_the_origin_once(monkeypatch):
    calls = []
    distances = periods._segment_distances

    def counting(a, b, rs):
        calls.append(len(rs))
        return distances(a, b, rs)

    monkeypatch.setattr(periods, "_segment_distances", counting)
    a = (0.9, 2.8, -0.4)
    action_I1(a)
    residue_check(a)
    # one measurement per loop: the pair loop's two other roots and the
    # origin it avoids, then the origin once more; the big loop's four
    # roots and the origin, then the origin once more
    assert calls == [4, 6]


# ---------------------------------------------------------------------------
# spectral-coefficient plumbing
# ---------------------------------------------------------------------------


def test_spectral_coeffs_feed_periods_directly():
    sc = SpectralCoeffs.of(1, (1.0, 0.3, -0.4, 1.0))
    rs = roots(sc.poly())
    assert all(abs(r.imag) > 1e-6 for r in rs)
    val = cycle_integral(sc, big_loop(rs, orientation=-1), "y dx/x^2")
    assert abs(val + 1j * math.pi * 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the point record that the action routes and the residue check share
# ---------------------------------------------------------------------------

# .hex() of action_I1, action_I1_cubic and residue_check at two general
# points; the plane a1 = a3 below the double pair, on it and 1e-9 off it;
# 1e-7 off the plane above the double pair; and a stratum point.  The action
# values were recorded before the three shared a record, the residue defects
# on the 16-vertex big loop whose circle covers the origin.
RECORD_PINS = {
    (0.9, 2.8, -0.4): ("0x1.3633ce1ad7a79p+0", "0x1.3633ce1ad7a7ap+0", "0x0.0p+0"),
    (0.3, 1.2, -0.2): ("0x1.c5fc5b3a3e222p-1", "0x1.c5fc5b3a3e244p-1", "0x1.0000000000000p-51"),
    (0.4, 1.5, 0.4): ("0x1.a831c367aecc2p-1", "0x1.a831c367aecc1p-1", "0x0.0p+0"),
    (0.4 + 1e-9, 1.5, 0.4): (
        "0x1.a831c36554237p-1", "0x1.a831c3655423bp-1", "0x1.1e3779b97f4a8p-50"
    ),
    (0.3, 2.4225, 0.3 + 1e-7): (
        "0x1.51a92dfd5adb8p+0", "0x1.51a92dfd5ac9bp+0", "0x1.1e3779b97f4a8p-50"
    ),
    (0.3, 2.4225, 0.3): ("0x1.51a92edb8fb66p+0", "0x1.51a92edb8fb64p+0", "0x0.0p+0"),
}
RECORD_FNS = {"I1": action_I1, "cubic": action_I1_cubic, "residue": residue_check}
RECORD_ORDER = ("I1", "cubic", "residue")


class _Counted:
    """Counts the Sturm counts and the rootings of the point's quartic that
    periods makes, through its module names."""

    def __init__(self, monkeypatch):
        self.sturm = self.quartic_roots = 0
        count, find = periods.real_root_count, periods.poly_roots

        def counting_count(p):
            self.sturm += 1
            return count(p)

        def counting_roots(p, *args, **kwargs):
            # the deformation path's quartic h has constant term -2, the
            # cubic form degree 3; only the point's quartic has 1
            self.quartic_roots += p.degree == 4 and p.coeffs[0] == 1
            return find(p, *args, **kwargs)

        monkeypatch.setattr(periods, "real_root_count", counting_count)
        monkeypatch.setattr(periods, "poly_roots", counting_roots)
        periods._point_record.cache_clear()

    @property
    def counts(self):
        return self.sturm, self.quartic_roots


@pytest.mark.parametrize(
    "order",
    [RECORD_ORDER, ("residue", "I1", "cubic"), ("I1",), ("cubic",), ("residue",)],
    ids="-".join,
)
def test_the_record_keeps_every_value_in_any_call_order(order):
    for a, pins in RECORD_PINS.items():
        if len(order) == 1:
            periods._point_record.cache_clear()
        for name in order:
            assert RECORD_FNS[name](a).hex() == pins[RECORD_ORDER.index(name)]


def test_the_calls_at_one_point_count_and_root_its_quartic_once(monkeypatch):
    counted = _Counted(monkeypatch)
    seen = []
    for a in [(0.9, 2.8, -0.4), (0.3, 1.2, -0.2), (0.9, 2.8, -0.4)]:
        for name in RECORD_ORDER:
            RECORD_FNS[name](a)
        seen.append(counted.counts)
    # only the last point's record is kept, so the third point rebuilds it
    assert seen == [(1, 1), (2, 2), (3, 3)]


def test_the_residue_check_never_runs_the_sturm_count(monkeypatch):
    def no_count(p):
        raise AssertionError("the residue check needs no Sturm count")

    monkeypatch.setattr(periods, "real_root_count", no_count)
    periods._point_record.cache_clear()
    for a, pins in RECORD_PINS.items():
        assert residue_check(a).hex() == pins[2]


def test_a_signed_zero_rebuilds_the_record(monkeypatch):
    counted = _Counted(monkeypatch)
    values = [action_I1(a).hex() for a in [(0.0, 1.5, 0.3), (-0.0, 1.5, 0.3)]]
    assert values == ["0x1.e894b2281a57ep-1"] * 2
    assert counted.counts == (2, 2)


def test_a_list_a_tuple_and_an_ndarray_share_the_record(monkeypatch):
    counted = _Counted(monkeypatch)
    for a, pins in RECORD_PINS.items():
        for form in (tuple, list, np.array):
            assert tuple(RECORD_FNS[n](form(a)).hex() for n in RECORD_ORDER) == pins
    assert counted.counts == (len(RECORD_PINS), len(RECORD_PINS))


def test_a_refused_point_raises_on_every_call(monkeypatch):
    counted = _Counted(monkeypatch)
    outside = (0.0, -3.0, 0.0)
    for action in (action_I1, action_I1, action_I1_cubic):
        with pytest.raises(ValidationError, match="outside component C"):
            action(outside)
    a = (0.9, 2.8, -0.4)
    assert tuple(RECORD_FNS[n](a).hex() for n in RECORD_ORDER) == RECORD_PINS[a]
    assert counted.counts == (2, 1)


def test_a_root_finder_failure_is_not_kept(monkeypatch):
    find = periods.poly_roots
    calls = []

    def failing_once(p, *args, **kwargs):
        calls.append(p)
        if len(calls) == 1:
            raise RootFindingError("no roots this time")
        return find(p, *args, **kwargs)

    monkeypatch.setattr(periods, "poly_roots", failing_once)
    periods._point_record.cache_clear()
    a = (0.9, 2.8, -0.4)
    with pytest.raises(RootFindingError):
        residue_check(a)
    assert residue_check(a).hex() == RECORD_PINS[a][2]


# The complex double pair (x^2 + (a3/2) x + 1)^2 passes the Sturm gate (no
# real roots) but has a repeated root; action_I1 ran into QuadratureError at
# (0, 2, 0) and returned about 1e-16 at the other three
@pytest.mark.parametrize(
    "a", [(0.0, 2.0, 0.0), (0.5, 2.0625, 0.5), (-1.0, 2.25, -1.0), (0.25, 2.015625, 0.25)]
)
def test_both_action_routes_refuse_the_complex_double_pair(a):
    f = quartic_poly(a)
    assert real_root_count(f) == 0 and has_repeated_root(f)
    message = r"^parameters are on the complex double pair \(repeated root\)$"
    with pytest.raises(DegenerateInputError, match=message):
        action_I1(a)
    with pytest.raises(DegenerateInputError, match="^cubic form has a repeated root$"):
        action_I1_cubic(a)
    assert residue_check(a) < 1e-10


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(
    st.one_of(st.floats(-3.9, 3.9), st.integers(-62, 62).map(lambda k: k / 16.0)),
    st.integers(-2, 2),
    st.sampled_from([0.0, 1e-12, -3e-9]),
)
@example(0.5, 0, 0.0)
@example(0.5, 1, 0.0)
@example(0.1, 0, 0.0)
def test_the_double_pair_test_agrees_with_the_exact_gcd_test(a3, ulps, off):
    a2 = 2.0 + a3 * a3 / 4.0
    for _ in range(abs(ulps)):
        a2 = math.nextafter(a2, math.copysign(math.inf, ulps))
    a = (a3 + off, a2, a3)
    f = quartic_poly(a)
    assume(real_root_count(f) == 0)
    assert periods._on_double_pair(*a) == has_repeated_root(f)
