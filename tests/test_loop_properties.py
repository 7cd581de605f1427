"""Property tests of the periods route over random small loops.

Examples are derandomized, so every run checks the same loops.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from topmonodromy.tracking import monodromy_periods, named_loop, parameter_loop

# The ball of this radius about each genus's base point holds no point of the
# discriminant, so every loop inside it is contractible.
BALL_RADIUS = 0.15
BASES = {1: named_loop("cushman").base, 2: named_loop("kappa1").base}
MERIDIAN_RADIUS = {"cushman": (0.3, 0.7), "kappa1": (0.05, 0.15)}

PROPERTY = settings(derandomize=True, deadline=None, database=None)

# (height, azimuth, distance): a point of the ball about the base
waypoint = st.tuples(
    st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.05, BALL_RADIUS)
)


def _identity(n):
    return np.eye(n, dtype=int).tolist()


@settings(PROPERTY, max_examples=16)
@given(g=st.sampled_from((1, 2)), hops=st.lists(waypoint, min_size=3, max_size=4))
def test_contractible_loops_are_the_identity(g, hops):
    pts = []
    for z, phi, rho in hops:
        s = math.sqrt(1.0 - z * z)
        d = (s * math.cos(phi), s * math.sin(phi), z)
        pts.append(tuple(b + rho * c for b, c in zip(BASES[g], d)))
    res = monodromy_periods(parameter_loop(g, [BASES[g], *pts, BASES[g]]))
    assert res.as_array().tolist() == _identity(2 * g + 1)
    assert res.permutation == tuple(range(2 * g + 2))


def _meridian(name, radius, count, orientation):
    """Circle about the named loop's stratum point in the plane of its
    circle, starting at the same phase and joined to the same base."""
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
        ph = 2.0 * math.pi * k / count
        p = centre + radius * (math.cos(ph) * u1 + math.sin(ph) * u2)
        pts.append(tuple(float(c) for c in p))
    pts.append(named.base)
    return parameter_loop(named.g, pts, orientation=orientation)


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
