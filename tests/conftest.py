"""Shared helpers and independent oracles for the test suite.

The oracle functions below are written as explicit scalar formulas on
purpose: they must not share code paths with the library, so that an
algebra bug in one place cannot cancel in both.
"""

from itertools import combinations
from typing import NamedTuple

import numpy as np

from topmonodromy import poly, tracking
from topmonodromy.errors import DegenerateInputError, RootFindingError, ValidationError
from topmonodromy.homology import _min_separation
from topmonodromy.periods import _PAIR_PAD
from topmonodromy.poly import discriminant
from topmonodromy.topsys import TopState
from topmonodromy.tracking import ParameterLoop, fiber_polynomial


def random_top_state(rng, g, m=None, scale=1.0):
    """Random state with entries in [-scale, scale] and a safe mass parameter."""
    if m is None:
        m = float(rng.uniform(0.2, 2.0))
    omega = rng.uniform(-scale, scale, size=3)
    gamma = rng.uniform(-scale, scale, size=(g, 3))
    return TopState.of(m, omega, gamma)


def closed_form_integrals(s):
    """Hand-written conserved quantities for g <= 2, term by term.

    Returns the tuple (h_minus1, h, h_1, ..., h_{2g}).
    """
    big = 1.0 + s.m
    w1, w2, w3 = s.omega
    hm1 = big * w3
    h0 = 0.5 * (w1 * w1 + w2 * w2 + big * big * w3 * w3)
    if s.g >= 1:
        h0 -= s.gamma[0][2]
    h = h0 - 0.5 * s.m * big * w3 * w3
    if s.g == 0:
        return (hm1, h)
    g1, g2, g3 = s.gamma[0]
    h1 = -(w1 * g1 + w2 * g2 + big * w3 * g3)
    h2 = 0.5 * (g1 * g1 + g2 * g2 + g3 * g3)
    if s.g == 1:
        return (hm1, h, h1, h2)
    if s.g == 2:
        t1, t2, t3 = s.gamma[1]
        h1 -= t3
        h2 -= w1 * t1 + w2 * t2 + big * w3 * t3
        h3 = g1 * t1 + g2 * t2 + g3 * t3
        h4 = 0.5 * (t1 * t1 + t2 * t2 + t3 * t3)
        return (hm1, h, h1, h2, h3, h4)
    raise ValueError("closed forms are written out for g <= 2 only")


def hand_expanded_rhs_g2(s):
    """The nine scalar equations of motion for g = 2, written out termwise."""
    assert s.g == 2
    w1, w2, w3 = s.omega
    g1, g2, g3 = s.gamma[0]
    t1, t2, t3 = s.gamma[1]
    m = s.m
    domega = (-m * w2 * w3 - g2, m * w1 * w3 + g1, 0.0)
    dgamma1 = (
        g2 * w3 - g3 * w2 + t2,
        g3 * w1 - g1 * w3 - t1,
        g1 * w2 - g2 * w1,
    )
    dgamma2 = (
        t2 * w3 - t3 * w2,
        t3 * w1 - t1 * w3,
        t1 * w2 - t2 * w1,
    )
    return domega, (dgamma1, dgamma2)


class Ellipse(NamedTuple):
    center: complex
    axis: complex
    semi_major: float
    semi_minor: float


def ellipse_fit_ref(roots, pair, avoid=()):
    """The former ellipse fit of pair_loop, verbatim.

    pair_loop now returns the 48-gon on this ellipse; the references that
    integrate or cross the former elliptical contours start from here.
    """
    pts = tuple(complex(r) for r in roots)
    i, j = pair
    if not (0 <= i < len(pts) and 0 <= j < len(pts)) or i == j:
        raise ValidationError("pair must name two distinct root indices")
    r1, r2 = pts[i], pts[j]
    d = abs(r2 - r1)
    if d == 0.0:
        raise DegenerateInputError("cut endpoints coincide")
    axis = (r2 - r1) / d
    center = 0.5 * (r1 + r2)
    excluded = [p for k, p in enumerate(pts) if k not in (i, j)]
    excluded += [complex(p) for p in avoid]

    def seg_dist(p):
        t = ((p - center) / axis).real
        t = min(d / 2.0, max(-d / 2.0, t))
        return abs(p - (center + axis * t))

    base = min((seg_dist(p) for p in excluded), default=1.0 + d)
    if base <= 1e-9 * d:
        raise DegenerateInputError("an excluded point sits on the cut")
    pad = _PAIR_PAD * base
    for _ in range(10):
        a, b = 0.5 * d + pad, pad
        ok = True
        for p in excluded:
            z = (p - center) / axis
            if (z.real / a) ** 2 + (z.imag / b) ** 2 < 1.44:
                ok = False
                break
        if ok:
            return Ellipse(center, axis, a, b)
        pad *= 0.6
    raise DegenerateInputError("cannot fit a pair loop between branch points")


def basis_ellipses_ref(config):
    """The former basis_contours: one fitted ellipse per basis pair."""
    g = config.g
    pairs = [config.pairing[j] for j in range(g + 1)]
    pairs += [(config.pairing[j][1], config.pairing[j + 1][0]) for j in range(g)]
    return [ellipse_fit_ref(config.roots, pair) for pair in pairs]


def on_ellipse(e, t):
    """Point of the ellipse at parameter t (the former parametrisation)."""
    return e.center + e.axis * (e.semi_major * np.cos(t) + 1j * e.semi_minor * np.sin(t))


# (fixed coordinates) -> chart point of a complex line, and its real base
LINE_BASE = {1: 3.0, 2: 0.0}


def line_point(g, fixed, w):
    """Point w of the complex line: a2 = w at (a1, a3) = fixed in genus 1,
    c = w at (a, b) = fixed in genus 2."""
    return (fixed[0], w, fixed[1]) if g == 1 else (fixed[0], fixed[1], w)


def critical_values(g, fixed):
    """Where the line meets the discriminant, sorted: the roots of the
    discriminant along it (degree 2g + 2), fitted on a radius-4 circle."""
    deg = 2 * g + 2
    ws = 4.0 * np.exp(2j * np.pi * np.arange(32) / 32)
    disc = [discriminant(fiber_polynomial(g, line_point(g, fixed, w))) for w in ws]
    coeffs = np.fft.fft(disc)[: deg + 1] / (32 * 4.0 ** np.arange(deg + 1))
    return np.sort_complex(np.roots(coeffs[::-1]))


def _star_circle(g, fixed, crit, k):
    """96-waypoint circle, run counter-clockwise from its top, round the
    critical value crit[k], of 0.2 times the distance to the next one."""
    centre = complex(crit[k])
    radius = 0.2 * float(np.min(np.abs(np.delete(crit, k) - centre)))
    turns = np.exp(1j * (np.pi / 2 + 2 * np.pi * np.arange(97) / 96))
    return [line_point(g, fixed, complex(centre + radius * z)) for z in turns]


def star_loop(g, fixed, near):
    """Loop from the line's real base round the critical value nearest
    `near`: a straight tail to the top of a 96-waypoint circle of 0.2 times
    the distance to the next critical value, run counter-clockwise."""
    crit = critical_values(g, fixed)
    k = int(np.argmin(np.abs(crit - near)))
    base = line_point(g, fixed, LINE_BASE[g])
    stratum = line_point(g, fixed, complex(crit[k]))
    circle = _star_circle(g, fixed, crit, k)
    return ParameterLoop(g=g, waypoints=(base, *circle, base), stratum=stratum)


def complex_a2_loop(orientation=1):
    """Loop of complex chart points: on the complex line (a1, a3) = (0.3,
    -0.2) the discriminant is a quartic in a2; circle its root near
    2.0006 + 0.5i counter-clockwise, on 96 waypoints of 0.2 times the
    distance to the next root, with a tail from the real base a2 = 3 to the
    circle's top point."""
    a1, a3 = 0.3, -0.2
    ws = 4.0 * np.exp(2j * np.pi * np.arange(32) / 32)
    disc = [complex(discriminant(fiber_polynomial(1, (a1, w, a3)))) for w in ws]
    coeffs = np.fft.fft(disc)[:5] / (32 * 4.0 ** np.arange(5))
    crit = np.roots(coeffs[::-1])
    k = int(np.argmin(np.abs(crit - (2.0 + 0.5j))))
    centre = complex(crit[k])
    radius = 0.2 * float(np.min(np.abs(np.delete(crit, k) - centre)))
    circle = [
        (a1, centre + radius * np.exp(1j * (np.pi / 2 + 2 * np.pi * j / 96)), a3)
        for j in range(97)
    ]
    base = (a1, 3.0, a3)
    return ParameterLoop(
        g=1,
        waypoints=(base, *circle, base),
        orientation=orientation,
        stratum=(a1, centre, a3),
    )


def chained_star_loop(g, fixed):
    """Every star loop of the line in turn, taken counter-clockwise from
    the downward ray at the base: the product of the stars' twists."""
    crit = critical_values(g, fixed)
    base = line_point(g, fixed, LINE_BASE[g])
    turn = (np.angle(crit - LINE_BASE[g]) + 0.5 * np.pi) % (2.0 * np.pi)
    waypoints = [base]
    for k in np.argsort(turn):
        waypoints += [*_star_circle(g, fixed, crit, k), base]
    return ParameterLoop(g=g, waypoints=tuple(waypoints))


def projection_swaps(fa, fb, rot):
    """(t, i, j) for each pair i < j whose projections swap between the
    fibers fa and fb, t the linearly interpolated time of the swap: the
    former tracking._swaps, which the march's step kernel unrolls."""
    pa = [(r * rot).real for r in fa]
    pb = [(r * rot).real for r in fb]
    events = []
    for i, j in combinations(range(len(fa)), 2):
        da, db = pa[i] - pa[j], pb[i] - pb[j]
        if (da < 0.0) != (db < 0.0):
            events.append((da / (da - db), i, j))
    return events


def warm_roots(p, guesses, tol=1e-12):
    """The roots of p by poly's Aberth sweep started at the distinct guesses,
    root i the continuation of guesses[i]: the former roots(p,
    initial=guesses), with the same arguments to the same kernel.  Raises
    RootFindingError as roots() does."""
    z = [complex(v) for v in guesses]
    assert len(z) == p.degree and len(set(z)) == len(z), "distinct guesses, one per root"
    desc = p.coeffs[::-1]
    deriv = [k * c for k, c in zip(range(p.degree, 0, -1), desc)]
    z, best = poly._aberth_kernel(p.degree)(tol * p.coeff_scale(), z, *desc, *deriv)
    if z is None:
        raise RootFindingError("the warm-started sweep did not converge", best_residual=best)
    return z


class _MatchingMarch(tracking._March):
    """The root march as it was before warm-started roots kept their labels.

    _try_advance is the former one: it sorts the warm-started roots, matches
    them to the last fiber with the greedy nearest-distance matcher, and
    tests the separation and the largest move of the matched roots.
    """

    def _try_advance(self, target):
        try:
            rs_new = warm_roots(fiber_polynomial(self.g, target), self.rs)
        except RootFindingError:
            return False
        rs_new = sorted(rs_new, key=lambda v: (v.real, v.imag))
        perm, disp = tracking._match_roots(self.rs, rs_new)
        matched = [rs_new[j] for j in perm]
        sep_new = _min_separation(matched)
        scale = max(1.0, max(abs(r) for r in matched))
        if sep_new < tracking._SEP_FLOOR * scale:
            return False
        margin = tracking._MARGIN_FRAC * min(self.min_sep, sep_new)
        if disp >= tracking._STEP_FRAC * margin:
            return False
        swaps = projection_swaps(self.rs, matched, self.rot)
        labels = [r for _, i, j in swaps for r in (i, j)]
        if len(set(labels)) != len(labels):
            return False
        self.point = tuple(target)
        self.rs = matched
        self.min_sep = sep_new
        self.fibers.append(tuple(matched))
        self.points.append(self.point)
        self.steps_used += 1
        return True


def matching_march(loop):
    """Reference march of the routes round the loop, with the former
    re-matching step test (one traverse per hop, as the routes do)."""
    path = loop.path_points()
    state = _MatchingMarch(loop.g, path[0])
    for b in path[1:]:
        state.traverse(b)
    return state


def hex_rows(rows):
    """Each row's complex entries as (real, imag) float.hex pairs."""
    return [[(complex(z).real.hex(), complex(z).imag.hex()) for z in row]
            for row in rows]


def assert_same_march(got, ref):
    """Same fibers and points, bit for bit, and the same step count; the
    march recorded the sorted swaps the reference's fibers make."""
    assert got.steps_used == ref.steps_used
    assert hex_rows(got.fibers) == hex_rows(ref.fibers)
    assert hex_rows(got.points) == hex_rows(ref.points)
    assert [list(s) for s in got.swaps] == [
        sorted(projection_swaps(a, b, ref.rot))
        for a, b in zip(ref.fibers, ref.fibers[1:])
    ]
