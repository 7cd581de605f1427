"""Property tests of both monodromy routes over random small loops.

Examples are derandomized, so every run checks the same loops.
"""

import math

import numpy as np
from conftest import assert_same_march, critical_values, matching_march, star_loop
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from topmonodromy.tracking import (
    _loop_march,
    compose_loops,
    monodromy_periods,
    named_loop,
    parameter_loop,
    picard_lefschetz_route,
)

# The ball of this radius about each genus's base point holds no point of the
# discriminant, so every loop inside it is contractible.
BALL_RADIUS = 0.15
BASES = {1: named_loop("cushman").base, 2: named_loop("kappa1").base}
MERIDIAN_RADIUS = {"cushman": (0.3, 0.7), "kappa1": (0.05, 0.15)}
# The meridians the composition and route properties draw from; kappa1 and
# kappa3 share a base and their matrices do not commute.
MERIDIANS = {1: ("cushman",), 2: ("kappa1", "kappa3")}
RADIUS = {**MERIDIAN_RADIUS, "kappa2": (0.05, 0.15), "kappa3": (0.05, 0.15)}

PROPERTY = settings(derandomize=True, deadline=None, database=None)

# (height, azimuth, distance): a point of the ball about the base
waypoint = st.tuples(
    st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.05, BALL_RADIUS)
)


def _identity(n):
    return np.eye(n, dtype=int).tolist()


def _ball_loop(g, hops):
    """Loop from the base through the given points of the ball about it."""
    pts = []
    for z, phi, rho in hops:
        s = math.sqrt(1.0 - z * z)
        d = (s * math.cos(phi), s * math.sin(phi), z)
        pts.append(tuple(b + rho * c for b, c in zip(BASES[g], d)))
    return parameter_loop(g, [BASES[g], *pts, BASES[g]])


@settings(PROPERTY, max_examples=16)
@given(g=st.sampled_from((1, 2)), hops=st.lists(waypoint, min_size=3, max_size=4))
def test_contractible_loops_are_the_identity(g, hops):
    loop = _ball_loop(g, hops)
    for res in (monodromy_periods(loop), picard_lefschetz_route(loop)):
        assert res.as_array().tolist() == _identity(2 * g + 1)
        assert res.permutation == tuple(range(2 * g + 2))


def _meridian(name, radius, count, orientation, phase=0.0):
    """Circle about the named loop's stratum point in the plane of its
    circle, starting `phase` rad past the named loop's start and joined to
    the same base."""
    named = named_loop(name)
    wp = np.array(named.waypoints)
    centre = np.array(named.stratum)
    u1 = wp[1] - centre
    u1 = u1 / np.linalg.norm(u1)
    v = wp[2] - centre
    u2 = v - (v @ u1) * u1
    u2 = u2 / np.linalg.norm(u2)
    pts = [named.base]
    for k in range(count + 1):
        ph = phase + 2.0 * math.pi * k / count
        p = centre + radius * (math.cos(ph) * u1 + math.sin(ph) * u2)
        pts.append(tuple(float(c) for c in p))
    pts.append(named.base)
    return parameter_loop(
        named.g, pts, orientation=orientation, stratum=named.stratum
    )


@settings(PROPERTY, max_examples=8)
@given(
    name=st.sampled_from(sorted(MERIDIAN_RADIUS)),
    u=st.floats(0.0, 1.0),
    count=st.integers(32, 96),
)
def test_a_meridian_and_its_reverse_are_inverse(name, u, count):
    lo, hi = MERIDIAN_RADIUS[name]
    radius = lo + (hi - lo) * u
    fwd = monodromy_periods(_meridian(name, radius, count, 1))
    rev = monodromy_periods(_meridian(name, radius, count, -1))
    n = fwd.as_array().shape[0]
    assert (fwd.as_array() @ rev.as_array()).tolist() == _identity(n)
    assert (rev.as_array() @ fwd.as_array()).tolist() == _identity(n)
    assert fwd.as_array().tolist() != _identity(n)


@st.composite
def based_loops(draw, g):
    """A random meridian of genus g's strata, or a contractible loop, from
    the common base of genus g."""
    name = draw(st.sampled_from(MERIDIANS[g] + ("contractible",)))
    if name == "contractible":
        return _ball_loop(g, draw(st.lists(waypoint, min_size=3, max_size=3)))
    lo, hi = RADIUS[name]
    radius = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    count = draw(st.integers(32, 64))
    return _meridian(name, radius, count, draw(st.sampled_from((1, -1))))


@settings(PROPERTY, max_examples=8)
@given(data=st.data(), g=st.sampled_from((1, 2)))
def test_a_composed_loop_multiplies_the_matrices(data, g):
    first = data.draw(based_loops(g))
    second = data.draw(based_loops(g))
    m1 = monodromy_periods(first).as_array()
    m2 = monodromy_periods(second).as_array()
    both = monodromy_periods(compose_loops(first, second)).as_array()
    # columns are images of basis cycles, so the second loop acts last
    assert both.tolist() == (m2 @ m1).tolist()


@settings(PROPERTY, max_examples=8)
@given(
    name=st.sampled_from(sorted(RADIUS)),
    u=st.floats(0.0, 1.0),
    count=st.integers(32, 96),
    orientation=st.sampled_from((1, -1)),
)
def test_the_two_routes_agree_on_a_meridian(name, u, count, orientation):
    lo, hi = RADIUS[name]
    loop = _meridian(name, lo + (hi - lo) * u, count, orientation)
    lattice = monodromy_periods(loop)
    local = picard_lefschetz_route(loop)
    assert local.matrix == lattice.matrix
    assert local.permutation == lattice.permutation


@settings(PROPERTY, max_examples=6)
@given(
    name=st.sampled_from(sorted(RADIUS)),
    u=st.floats(0.0, 1.0),
    count=st.integers(32, 64),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_the_two_routes_agree_on_a_meridian_entered_at_any_phase(name, u, count, phase):
    lo, hi = RADIUS[name]
    loop = _meridian(name, lo + (hi - lo) * u, count, 1, phase)
    lattice = monodromy_periods(loop)
    local = picard_lefschetz_route(loop)
    assert local.matrix == lattice.matrix
    assert local.permutation == lattice.permutation


@settings(PROPERTY, max_examples=8)
@given(
    name=st.sampled_from(sorted(RADIUS)),
    u=st.floats(0.0, 1.0),
    count=st.integers(32, 96),
    orientation=st.sampled_from((1, -1)),
    phase=st.floats(0.0, 2.0 * math.pi),
)
def test_the_march_matches_the_former_re_matching_march_on_a_meridian(
    name, u, count, orientation, phase
):
    lo, hi = RADIUS[name]
    loop = _meridian(name, lo + (hi - lo) * u, count, orientation, phase)
    assert_same_march(_loop_march(loop), matching_march(loop))


@settings(PROPERTY, max_examples=6)
@given(
    g=st.just(1),
    line=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)),
    pick=st.integers(0, 5),
)
@example(g=2, line=(0.1, 0.5), pick=2)
def test_the_two_routes_agree_on_a_complex_star_loop(g, line, pick):
    # A loop of complex chart points round one simple critical value of a
    # complex line through a real base; a1 = a3 lines have double ones.
    crit = critical_values(g, line)
    assume(min(abs(a - b) for i, a in enumerate(crit) for b in crit[i + 1 :]) > 0.05)
    loop = star_loop(g, line, crit[pick % len(crit)])
    lattice = monodromy_periods(loop)
    local = picard_lefschetz_route(loop)
    assert local.matrix == lattice.matrix
    assert local.permutation == lattice.permutation
