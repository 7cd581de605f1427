"""Numerical monodromy of the period lattice along loops in parameter space.

A loop in the reduced coefficient chart is traversed once by continuing the
branch points (adaptive-bisection root tracking), and the periods ride
along on the Gauss-Manin connection: no contour leaves the base fiber.
Each step warm-starts the root finder from the last fiber, which returns
every root as the continuation of its own start, so the roots keep their
labels with no matching: a step is accepted when each root moves less
than a third of a margin (a quarter of the smallest root separation) from
where it started, and bisected otherwise.
At the base the canonical basis polygons, each with a square root pinned
at its first vertex, are oriented against the intersection form
(periods.normalized_basis_contours) and integrated once, on edges
bisected where they pass close to a root, giving Pi0[k, c], the period
of x^k dx/y over cycle c for k = 0..2g.  Those forms span the first
cohomology of the affine curve, so Pi is a fundamental solution of a
linear ODE in the chart.  The chart is affine,
with df/da_j = x^{e_j} (e = (3, 2, 1) for g = 1 and (5, 4, 3) for g = 2),
so d/da_j of the period of x^k dx/y is -1/2 that of x^{k+e_j} dx/y^3.
Writing x^m = A f + B f' (a Sylvester system of size 4g + 3, singular
only on the discriminant) gives x^m dx/y^3 = (A + 2B') dx/y - 2 d(B/y),
with A + 2B' of degree at most 2g.  Along a march step p -> q, then,
dPi/ds = Omega(s) Pi with Omega = -1/2 sum_j (q - p)_j R_j, where row k
of R_j holds the coefficients of A + 2B' for m = k + e_j (Griffiths,
Ann. of Math. 90, 1969).  Each accepted step is one step of 6-stage
Gauss-Legendre collocation (order 12), solved for blocks of 8 steps at
once.  The march's own steps suffice, with no error control: an accepted
step moves every root by less than min_sep / 12, and Omega is singular
only where two roots collide, so its nearest singularity lies several
step lengths away.  The chart is real, so a loop of real points is
transported in real arithmetic.

The transported periods of x^k dx/y, k = 0..g (a rank 2g+1 real frame,
since x^g dx/y keeps a residue at the two punctures over infinity), are
expressed over the base frame by a least-squares fit whose entries must
round to integers.  The reported residual is the distance of that fit
from the integer lattice.  Every loop from a base point is read over the
same lattice, so the base fiber's periods and frame are built once per
(genus, base point, tol) and kept, read-only, for both routes.  A loop is
marched once (_loop_march), from the cold roots of its base fiber, into a
read-only record of its points, fibers, swaps and closing permutation;
both routes and track_roots read that record, and the march reads no
period record.

The second route (picard_lefschetz_route) carries no periods.  It reads
the braid the branch points make off the same march: ordered by a
projection p(z) = Re(exp(-i theta) z), with theta taken from the base roots,
each swap of p-neighbours k, k + 1 is one letter sigma_k^(+-1).  The march
rejects, and so bisects, a step in which two swaps share a root, since
those do not commute; it records each accepted step's swaps in order of
time, and the word is read from that record.  A half-twist of two branch
points acts on H1 as the Picard-Lefschetz twist about the cycle of a loop
round the segment joining them, so the matrix is the product of one twist
per letter, about cycles that depend only on the base point and so are
fitted once per base point and kept beside its record.

Both routes raise QuadratureError rather than report a matrix when a fit
residual exceeds 1e3 * tol or when the matrix does not preserve the
intersection form.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .discriminant import g2_branch, quartic_poly, sextic_poly
from .errors import (
    NearDiscriminantError,
    QuadratureError,
    RootFindingError,
    TrackingError,
    ValidationError,
)
from .homology import (
    CycleClass,
    _intersection_matrix,
    build_basis,
    cycle_labels,
    picard_lefschetz,
)
from .periods import (
    _AMBIGUITY_LIMIT,
    _HOLOMORPHIC,
    _lift_open,
    _next_index,
    _segment_distances,
    _vertex_sqrt,
    basis_contours,
    normalized_basis_contours,
    pair_loop,
    polygon_periods,
)
from .poly import normalized_discriminant, real_root_count, roots

_MARGIN_FRAC = 0.25  # margin = this fraction of the minimal root separation
_STEP_FRAC = 1.0 / 3.0  # accept a step when roots move less than margin * this
_MAX_DEPTH = 24  # dyadic subdivision limit per marched segment
_SEP_FLOOR = 1e-6  # relative root-separation floor before giving up
_WAYPOINT_DISC_FLOOR = 1e-8
_COND_LIMIT = 1e8
_FIT_LIMIT = 1e3  # reject an integer fit whose residual exceeds this * tol
_EDGE_RATIO = 4.0  # integrated edges are at most this * their root distance long
_PUSH_TARGET = 1.15  # _maintain_bundle pushes vertices to this * margin
_EDGE_CLEAR = 0.95  # _maintain_bundle refines edges below this * margin
_GL_STAGES = 6  # Gauss-Legendre collocation stages per march step (order 12)
_GL_BLOCK = 8  # march steps whose transfer matrices are solved at once
_CHARTS = {1: quartic_poly, 2: sextic_poly}  # the reduced chart of each genus


def fiber_polynomial(g, point):
    """Spectral polynomial of a point in the reduced parameter chart.

    Genus 1 uses (a1, a2, a3) -> x^4 + a1 x^3 + a2 x^2 + a3 x + 1 and genus 2
    uses (a, b, c) -> (x^2+1)^3 + x^3 (a x^2 + b x + c); both charts are
    affine in the parameters, so fibers blend linearly along segments.
    """
    if g not in _CHARTS:
        raise ValidationError("parameter loops are supported for genus 1 and 2")
    return _CHARTS[g](point)


@dataclass(frozen=True)
class ParameterLoop:
    """Closed polygonal path in the reduced parameter chart."""

    g: int
    waypoints: tuple
    orientation: int = 1
    name: str = ""
    stratum: tuple = None

    def path_points(self):
        """Waypoints in traversal order (orientation -1 walks them backwards)."""
        if self.orientation == 1:
            return self.waypoints
        return tuple(reversed(self.waypoints))

    @property
    def base(self):
        return self.waypoints[0]


def parameter_loop(g, waypoints, orientation=1, name="", stratum=None):
    """Validated closed loop through the given chart waypoints.

    The path must return to its first waypoint, every waypoint must keep a
    normalized discriminant above a fixed floor, and the base fiber must have
    no real branch points (the canonical cut system needs a free real axis).
    """
    if g not in (1, 2):
        raise ValidationError("parameter loops are supported for genus 1 and 2")
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    pts = []
    for w in waypoints:
        t = tuple(float(v) for v in w)
        if len(t) != 3 or not all(math.isfinite(v) for v in t):
            raise ValidationError("each waypoint needs 3 finite coordinates")
        pts.append(t)
    if len(pts) < 2:
        raise ValidationError("a loop needs at least 2 waypoints")
    if pts[0] != pts[-1]:
        raise ValidationError("a loop must end at its base waypoint")
    for t in pts:
        if normalized_discriminant(fiber_polynomial(g, t)) < _WAYPOINT_DISC_FLOOR:
            raise NearDiscriminantError(f"waypoint {t} sits on the discriminant")
    if real_root_count(fiber_polynomial(g, pts[0])) > 0:
        raise ValidationError("the base fiber must have no real branch points")
    st = None if stratum is None else tuple(float(v) for v in stratum)
    return ParameterLoop(
        g=g, waypoints=tuple(pts), orientation=orientation, name=name, stratum=st
    )


def compose_loops(first: ParameterLoop, second: ParameterLoop) -> ParameterLoop:
    """Loop that traverses `first` and then `second` (common base required)."""
    if first.g != second.g:
        raise ValidationError("loops live over different genera")
    p1, p2 = first.path_points(), second.path_points()
    if p1[0] != p2[0]:
        raise ValidationError("composition needs a common base waypoint")
    name = f"{first.name}*{second.name}" if first.name and second.name else ""
    return parameter_loop(first.g, p1 + p2[1:], name=name)


_CUSHMAN_BASE = (0.0, 1.0, 0.0)
_CUSHMAN_CENTER = (0.0, 2.0, 0.0)
_CUSHMAN_RADIUS = 0.5
_KAPPA_BASE = (0.0, 0.5, 0.0)
# Must stay below 0.18: the double-pair branch curve re-enters the transverse
# plane of its c2 = 1.3 point at in-plane radius about 0.18 (and the plane of
# the c2 = 0.75 point at about 0.25), and a meridian may enclose only the
# central stratum point.
_KAPPA_RADIUS = 0.08
# (branch parameter c2, branch sign, circle direction); the side and
# direction assignments are frozen against the loops' documented lattice maps.
_KAPPA_GEOMETRY = {
    "kappa1": (1.3, 1, 1),
    "kappa2": (1.3, -1, 1),
    "kappa3": (0.75, 1, 1),
}
_CIRCLE_POINTS = 64


def _cushman_waypoints():
    pts = [_CUSHMAN_BASE]
    for k in range(_CIRCLE_POINTS + 1):
        th = -0.5 * math.pi - 2.0 * math.pi * k / _CIRCLE_POINTS
        pts.append(
            (
                _CUSHMAN_CENTER[0] + _CUSHMAN_RADIUS * math.cos(th),
                _CUSHMAN_CENTER[1] + _CUSHMAN_RADIUS * math.sin(th),
                0.0,
            )
        )
    pts.append(_CUSHMAN_BASE)
    return pts


def _g2_branch_frame(c2, sign):
    """Branch point with an orthonormal frame of its normal plane."""
    h = 1e-5
    b0 = np.array(g2_branch(c2, sign).abc)
    bp = np.array(g2_branch(c2 + h, sign).abc)
    bm = np.array(g2_branch(c2 - h, sign).abc)
    t = (bp - bm) / (2.0 * h)
    t = t / np.linalg.norm(t)
    u = np.array([0.0, 1.0, 0.0])
    if abs(float(u @ t)) > 0.9:
        u = np.array([1.0, 0.0, 0.0])
    n1 = u - float(u @ t) * t
    n1 = n1 / np.linalg.norm(n1)
    n2 = np.cross(t, n1)
    return b0, n1, n2


def _kappa_waypoints(c2, sign, direction):
    b0, n1, n2 = _g2_branch_frame(c2, sign)
    pts = [_KAPPA_BASE]
    for k in range(_CIRCLE_POINTS + 1):
        ph = direction * 2.0 * math.pi * k / _CIRCLE_POINTS
        p = b0 + _KAPPA_RADIUS * (math.cos(ph) * n1 + math.sin(ph) * n2)
        pts.append(tuple(float(v) for v in p))
    pts.append(_KAPPA_BASE)
    return pts, tuple(float(v) for v in b0)


def named_loop(name: str, orientation: int = 1) -> ParameterLoop:
    """A documented loop: "cushman" (genus 1) or "kappa1"/"kappa2"/"kappa3".

    "cushman" circles the isolated complex-double-pair point (0, 2) of the
    quartic chart clockwise in the a3 = 0 plane from the base (0, 1, 0).
    The kappa loops ring the sextic's double-root branch in a transverse
    plane from a common base; their side and direction are frozen so that
    each reproduces its documented lattice map.
    """
    if name == "cushman":
        return parameter_loop(
            1,
            _cushman_waypoints(),
            orientation=orientation,
            name=name,
            stratum=_CUSHMAN_CENTER,
        )
    if name in _KAPPA_GEOMETRY:
        c2, sign, direction = _KAPPA_GEOMETRY[name]
        pts, stratum = _kappa_waypoints(c2, sign, direction)
        return parameter_loop(
            2, pts, orientation=orientation, name=name, stratum=stratum
        )
    raise ValidationError(f"unknown named loop {name!r}")


@dataclass(frozen=True)
class MonodromyResult:
    """Integer lattice map around a loop; columns are images of basis cycles."""

    name: str
    basis: tuple
    matrix: tuple
    residual: float
    permutation: tuple
    orientation: int
    steps_used: int = 0
    condition: float = 0.0

    def as_array(self):
        return np.array(self.matrix, dtype=int)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "basis": list(self.basis),
                "matrix": [list(row) for row in self.matrix],
                "residual": self.residual,
                "permutation": list(self.permutation),
                "orientation": self.orientation,
            },
            sort_keys=True,
        )


def _differentials(top):
    """Names of x^k dx/y for k = 0..top, in order of k."""
    diffs = [d for d, k in _HOLOMORPHIC.items() if k <= top]
    diffs.sort(key=lambda d: _HOLOMORPHIC[d])
    return tuple(diffs)


def _pairwise_min_sep(rs):
    n = len(rs)
    return min(abs(rs[i] - rs[j]) for i in range(n) for j in range(i + 1, n))


def _match_roots(old, new):
    """Greedy nearest-distance bijection; returns (perm, max move).

    perm[i] is the index of the entry of new matched to old[i].
    """
    n = len(old)
    order = sorted(
        (abs(o - w), i, j) for i, o in enumerate(old) for j, w in enumerate(new)
    )
    perm = [None] * n
    used = set()
    worst = 0.0
    filled = 0
    for d, i, j in order:
        if perm[i] is not None or j in used:
            continue
        perm[i] = j
        used.add(j)
        worst = max(worst, d)
        filled += 1
        if filled == n:
            break
    return perm, worst


def _chart_point(point):
    """Chart coordinates as Python floats, complex only where not real."""
    return tuple(
        c.real if c.imag == 0.0 else c for c in (complex(v) for v in point)
    )


@functools.lru_cache(maxsize=None)
def _gauss_legendre(s):
    """Nodes c, weights b and matrix a of s-stage Gauss-Legendre collocation
    on [0, 1].

    The nodes and weights come from the eigenpairs of the Legendre Jacobi
    matrix (Golub and Welsch, Math. Comp. 23, 1969); a[i, j] integrates node
    j's Lagrange polynomial over [0, c_i] with the s-point rule itself,
    which is exact for its degree s - 1.  The arrays are shared by every
    caller, so they are made read-only.
    """
    m = np.arange(1.0, s)
    x, v = np.linalg.eigh(np.diag(m / np.sqrt(4.0 * m * m - 1.0), -1))
    c, b = 0.5 * (1.0 + x), v[0] ** 2
    t = c[:, None] * c  # [i, m]: node m of [0, c_i]
    lagrange = np.ones((s, s, s))  # [i, m, j]: node j's polynomial at t[i, m]
    for j in range(s):
        for k in range(s):
            if k != j:
                lagrange[:, :, j] *= (t - c[k]) / (c[j] - c[k])
    out = c, b, c[:, None] * np.einsum("m,imj->ij", b, lagrange)
    for arr in out:
        arr.flags.writeable = False
    return out


def _sylvester(c):
    """Matrix of (A, B) -> A f + B f' in ascending powers, f of ascending
    coefficients c and degree n, deg A <= n - 2 and deg B <= n - 1; linear
    in c, and of c's dtype."""
    c = np.asarray(c)
    n = len(c) - 1
    dc = c[1:] * np.arange(1, n + 1)
    s = np.zeros((2 * n - 1, 2 * n - 1), dtype=dc.dtype)
    for i in range(n - 1):
        s[i : i + n + 1, i] = c
    for i in range(n):
        s[i : i + n, n - 1 + i] = dc
    return s


@functools.lru_cache(maxsize=None)
def _connection_pieces(g):
    """(S0, S, read, idx) of genus g's chart.

    The Sylvester matrix at chart point a is S0 + sum_j a_j S[j], since f
    is affine in a; read maps a solution (A, B) to the coefficients of
    A + 2B'; idx[j, k] = k + e_j, with x^{e_j} = df/da_j.  The arrays are
    real, as the chart is, and shared by every caller, so made read-only.
    """
    chart = _CHARTS[g]
    c0 = np.array(chart((0.0, 0.0, 0.0)).coeffs).real
    dc = [np.array(chart(tuple(u)).coeffs).real - c0 for u in np.eye(3)]
    e = np.array([int(np.flatnonzero(c)[0]) for c in dc])
    n = 2 * g + 2
    read = np.zeros((n - 1, 2 * n - 1))
    read[:, : n - 1] = np.eye(n - 1)
    read[np.arange(n - 1), np.arange(n, 2 * n - 1)] = 2.0 * np.arange(1, n)
    idx = e[:, None] + np.arange(n - 1)
    out = _sylvester(c0), np.array([_sylvester(c) for c in dc]), read, idx
    for arr in out:
        arr.flags.writeable = False
    return out


def _connection(g, points, directions):
    """Omega = -1/2 sum_j da_j R_j at each chart point, da the matching row
    of directions; row k of R_j holds A + 2B' for A f + B f' = x^{k+e_j}."""
    s0, s, read, idx = _connection_pieces(g)
    sylv = s0 + np.einsum("pj,jrc->prc", points, s)
    # w[p, m, l]: coefficient of x^l in A + 2B' for x^m at point p
    w = np.linalg.solve(np.swapaxes(sylv, 1, 2), read.T)
    return -0.5 * np.einsum("pj,pjkl->pkl", directions, w[:, idx])


def _step_transfers(g, p, q):
    """Collocation transfer matrix T of each chart step p[i] -> q[i], with
    Pi(q) = T Pi(p), by one Gauss-Legendre step in s in [0, 1]."""
    d = q - p
    n, s = 2 * g + 1, _GL_STAGES
    c, b, a = _gauss_legendre(s)
    stages = p[:, None, :] + c[:, None] * d[:, None, :]
    omega = _connection(g, stages.reshape(-1, 3), np.repeat(d, s, axis=0))
    omega = omega.reshape(len(p), s, n, n)
    # stage values Z_i = I + sum_j a_ij Omega_j Z_j, one block row per stage
    blocks = a[:, :, None, None] * omega[:, None]  # [step, i, j, k, l]
    blocks = blocks.transpose(0, 1, 3, 2, 4).reshape(len(p), s * n, s * n)
    lhs = np.eye(s * n) - blocks
    z = np.linalg.solve(lhs, np.tile(np.eye(n), (s, 1))).reshape(omega.shape)
    return np.eye(n) + np.einsum("j,ijkl->ikl", b, omega @ z)


def _transport(g, points):
    """Transfer matrix U of the periods along the chart polygon through
    points, Pi(last) = U Pi(first), with one collocation step per edge."""
    pts = np.array(points)
    u = np.eye(2 * g + 1)
    for start in range(0, len(pts) - 1, _GL_BLOCK):
        block = pts[start : start + _GL_BLOCK + 1]
        for t in _step_transfers(g, block[:-1], block[1:]):
            u = t @ u
    return u


class _BaseFrame(NamedTuple):
    """A base fiber with its basis periods and the fit frame read off them."""

    fpoly: object
    rs: tuple
    periods: np.ndarray
    frame: np.ndarray
    condition: float


def _oriented_basis(fpoly, rs, g):
    """The basis polygons, each as (vertices, y_ref) with the square root
    pinned at its first vertex, oriented against the intersection form."""
    polygons = [spec.vertices for spec in basis_contours(build_basis(rs, g))]
    return normalized_basis_contours(
        fpoly, [(p, _vertex_sqrt(fpoly, p[0])) for p in polygons]
    )


def _split_edges(verts, rs):
    """The polygon with each edge bisected until it is at most _EDGE_RATIO
    times as long as its distance from the nearest root.

    No vertex moves and vertex 0 stays first, so the cycle and its pinned
    sheet are unchanged; an edge that passes close to a branch point (at
    the tips of a thin pair loop, say) is integrated on short pieces.
    """
    v = np.asarray(verts, dtype=complex)
    r = np.asarray(rs, dtype=complex)
    for _ in range(64):  # an edge through a root never clears; quadrature fails
        w = np.roll(v, -1)
        k = np.flatnonzero(
            np.abs(w - v) > _EDGE_RATIO * _segment_distances(v, w, r).min(axis=1)
        )
        if not len(k):
            break
        v = np.insert(v, k + 1, 0.5 * (v[k] + w[k]))
    return v


def _periods(fpoly, rs, polygons, top, tol):
    """Periods of x^k dx/y, k = 0..top, over each pinned (vertices, y_ref)
    polygon, one column per polygon, with its edges split near the roots."""
    diffs = _differentials(top)
    return np.array(
        [polygon_periods(fpoly, _split_edges(v, rs), y, diffs, tol)
         for v, y in polygons]
    ).T


@functools.lru_cache(maxsize=16)
def _base_frame(g, base, tol):
    """The base record of a chart point, built once per (g, base, tol).

    periods[k, c] is the period of x^k dx/y, k = 0..2g, over basis cycle c,
    integrated on the oriented basis polygons; the frame holds the fit rows
    of k = 0..g.  The record's arrays are read-only, since every caller
    shares them.  A base that cannot be realized raises, and raises again on
    every call, since exceptions are not cached.
    """
    point = _chart_point(base)
    fpoly = fiber_polynomial(g, point)
    rs = tuple(roots(fpoly))
    periods = _periods(fpoly, rs, _oriented_basis(fpoly, rs, g), 2 * g, tol)
    frame = _fit_rows(periods, g)
    condition = _frame_condition(frame)
    periods.flags.writeable = False
    frame.flags.writeable = False
    return _BaseFrame(fpoly, rs, periods, frame, condition)


# Bundle upkeep: polygons pushed out of the roots' margin disks, with their
# pinned square roots carried along.  No route calls it since the periods
# ride on the Gauss-Manin connection; it stays, with its bit-identity tests
# against the scalar reference, until both are removed together (ROADMAP
# item 8).


class _Bundle:
    """Polygons in one complex vertex array.

    Polygon c owns verts[starts[c]:starts[c + 1]] (the last one runs to the
    end of the array); y_ref[c] is the square root pinned at its first
    vertex and windings[c] its turn count around each branch point.
    """

    __slots__ = ("verts", "starts", "y_ref", "windings")

    def __init__(self, verts, starts, y_ref, windings=None):
        self.verts = verts
        self.starts = starts
        self.y_ref = y_ref
        self.windings = windings

    @classmethod
    def of(cls, polygons, y_ref, windings=None):
        """Bundle of the given vertex sequences, in order."""
        lengths = [len(p) for p in polygons]
        starts = np.concatenate(([0], np.cumsum(lengths[:-1]))).astype(np.intp)
        verts = np.concatenate([np.asarray(p, dtype=complex) for p in polygons])
        return cls(verts, starts, np.array(y_ref, dtype=complex), windings)


def _continue_sqrt(values, y_start):
    """End value of the square root continued along sampled f-values.

    A 2-D input holds one path per row (and y_start one start per row) and
    gives one end value per row.  None when any path meets a zero or lifts
    ambiguously.
    """
    vals = np.asarray(values, dtype=complex)
    if np.any(vals == 0.0):
        return None
    y, worst = _lift_open(vals, y_start=y_start)
    if np.any(worst >= _AMBIGUITY_LIMIT):
        return None
    return complex(y[-1]) if y.ndim == 1 else y[:, -1]


def _maintain_bundle(bundle, rs, margin, fpoly):
    """Restore the margin invariant of the bundle's polygons.

    Vertices inside a root's margin disk move radially outward (the disks are
    disjoint, so each vertex sits in at most one disk and the move cannot
    cross any root); edges with less clearance than the margin gain midpoints
    until every edge clears.  A pushed first vertex carries its polygon's
    y_ref along.  Every polygon goes through the same rounds: one that is
    already clean does not change in a further round, so each ends exactly
    as it would alone.  Returns None when any polygon cannot be restored.

    Only the first round tests every vertex and edge; a later round tests
    the midpoints the round before inserted and the two edges at each.  That
    needs margin <= min_sep / (1 + _PUSH_TARGET): a pushed vertex then lands
    _PUSH_TARGET margins from its root and at least min_sep - _PUSH_TARGET
    margins >= one margin from any other, outside every disk.
    """
    verts = np.array(bundle.verts, dtype=complex)
    starts = bundle.starts
    y_ref = np.array(bundle.y_ref, dtype=complex)
    r = np.asarray(rs, dtype=complex)
    fresh = edges = np.arange(len(verts))  # vertices and edges to test
    for k in range(8):
        dx = verts.real[fresh, None] - r.real
        dy = verts.imag[fresh, None] - r.imag
        d = np.hypot(dx, dy)
        inside = d < margin
        rows = np.flatnonzero(inside.any(axis=1))
        if len(rows):
            j = np.argmax(inside[rows], axis=1)
            dist = d[rows, j]
            if np.any(dist == 0.0):
                return None
            scale = _PUSH_TARGET * margin / dist
            tx = r.real[j] + dx[rows, j] * scale
            ty = r.imag[j] + dy[rows, j] * scale
            hit = fresh[rows]
            # the polygons whose vertex 0 is pushed; hit[h[c]] is that vertex
            h = np.searchsorted(hit, starts)
            for c in np.flatnonzero(hit[np.minimum(h, len(hit) - 1)] == starts):
                x0, x1 = complex(verts[starts[c]]), complex(tx[h[c]], ty[h[c]])
                xs = np.linspace(x0, x1, 17)
                y = _continue_sqrt(fpoly(xs), complex(y_ref[c]))
                if y is None:
                    return None
                y_ref[c] = y
            verts.real[hit] = tx
            verts.imag[hit] = ty
        a = verts[edges]
        b = verts[_next_index(starts, len(verts))[edges]]
        near = np.any(_segment_distances(a, b, r) < _EDGE_CLEAR * margin, axis=1)
        split = edges[near]
        if not len(split) and (k < 7 or not len(rows)):
            # Nothing is left to test, so a further round would change
            # nothing; a push in the last round still fails the call.
            return _Bundle(verts, starts, y_ref, bundle.windings)
        mids = np.empty(len(split), dtype=complex)
        mids.real = 0.5 * (a.real[near] + b.real[near])
        mids.imag = 0.5 * (a.imag[near] + b.imag[near])
        starts = starts + np.searchsorted(split, starts)
        verts = np.insert(verts, split + 1, mids)
        fresh = split + np.arange(1, len(split) + 1)
        edges = np.stack([fresh - 1, fresh], axis=1).ravel()
    return None


class _March:
    """Root transport along chart segments.

    Coordinates may be complex in both genera.  fibers[s] holds the roots
    and points[s] the chart point after s accepted steps; roots keep their
    labels, since a warm-started roots() returns each root as the
    continuation of its start.  A step is accepted when the new roots keep
    the separation floor and each moves less than _STEP_FRAC margins from
    its own start; such a move is under min_sep / 12, so the labels are
    also the nearest-distance matching of the two fibers.  A march starts
    from the cold roots of its first fiber, the roots _base_frame finds
    there.  It fixes the projection rot of the base roots, keeps the sorted
    swaps of projection neighbours of each accepted step in swaps, and also
    rejects a step in which two swaps share a root, so traverse bisects it
    like any other step.
    """

    def __init__(self, g, point):
        self.g = g
        self.point = _chart_point(point)
        self.steps_used = 0
        self.rs = list(roots(fiber_polynomial(g, self.point)))
        self.min_sep = _pairwise_min_sep(self.rs)
        self.rot = _projection(self.rs)
        self.fibers = [tuple(self.rs)]
        self.points = [self.point]
        self.swaps = []

    def _try_advance(self, target):
        try:
            rs_new = roots(fiber_polynomial(self.g, target), initial=self.rs)
        except RootFindingError:
            return False
        sep_new = _pairwise_min_sep(rs_new)
        scale = max(1.0, max(abs(r) for r in rs_new))
        if sep_new < _SEP_FLOOR * scale:
            return False
        margin = _MARGIN_FRAC * min(self.min_sep, sep_new)
        if max(abs(a - b) for a, b in zip(self.rs, rs_new)) >= _STEP_FRAC * margin:
            return False
        # crossings that share a root do not commute, so their order must
        # come from a shorter step
        swaps = sorted(_swaps(self.rs, rs_new, self.rot))
        labels = [r for _, i, j in swaps for r in (i, j)]
        if len(set(labels)) != len(labels):
            return False
        self.swaps.append(swaps)
        self.point = tuple(target)
        self.rs = rs_new
        self.min_sep = sep_new
        self.fibers.append(tuple(rs_new))
        self.points.append(self.point)
        self.steps_used += 1
        return True

    def traverse(self, target):
        """March to target, bisecting any step that is not accepted."""
        start = self.point
        end = _chart_point(target)
        if end == start:
            return
        stack = [(0.0, 1.0)]
        while stack:
            t0, t1 = stack.pop()
            q = tuple((1.0 - t1) * a + t1 * b for a, b in zip(start, end))
            if self._try_advance(q):
                continue
            if (t1 - t0) <= 2.0**-_MAX_DEPTH:
                raise TrackingError(
                    f"root tracking stalled between {start} and {end} "
                    f"at t = {t0!r}",
                    arc=(start, end),
                    parameter=t0,
                )
            tm = 0.5 * (t0 + t1)
            stack.append((tm, t1))
            stack.append((t0, tm))


class _LoopMarch(NamedTuple):
    """A finished _March round a loop, read-only; permutation[i] names the
    base root where the root that starts at base root i ends."""

    points: tuple
    fibers: tuple
    swaps: tuple
    rot: complex
    permutation: tuple
    steps_used: int


@functools.lru_cache(maxsize=1)  # serves a loop's two routes run back to back
def _loop_march(loop):
    """The march round the loop from the cold roots of its base fiber.

    Those are the roots of the loop's _base_frame record, bit for bit, but
    the march reads no record.  A stall, or a loop that does not close on
    its base fiber, raises on every call, since exceptions are not cached.
    """
    m = _March(loop.g, loop.base)
    for b in loop.path_points()[1:]:
        m.traverse(b)
    rs0 = m.fibers[0]
    perm, worst = _match_roots(m.rs, rs0)
    if worst > 1e-6 * max(1.0, max(abs(r) for r in rs0)):
        raise QuadratureError("the loop failed to close on its starting fiber")
    swaps = tuple(map(tuple, m.swaps))
    return _LoopMarch(tuple(m.points), tuple(m.fibers), swaps, m.rot, tuple(perm), m.steps_used)


def _fit_rows(periods, g):
    """One real row [Re | Im] of the periods of x^k dx/y, k = 0..g, per
    cycle, from a matrix with one column per cycle."""
    p = periods[: g + 1].T
    return np.hstack([p.real, p.imag])


def _frame_condition(frame):
    sv = np.linalg.svd(frame, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > _COND_LIMIT:
        raise QuadratureError("the period frame is ill-conditioned")
    return float(sv[0] / sv[-1])


def _integer_fit(frame, rows, tol):
    """Express rows over the frame; returns (ints, residual) of the fit.

    A residual above _FIT_LIMIT * tol means the rows are not integer
    combinations of the frame, so no matrix is reported.
    """
    sol, *_ = np.linalg.lstsq(frame.T, rows.T, rcond=None)
    flo = sol.T
    ints = np.rint(flo).astype(int)
    residual = float(np.max(np.abs(flo - ints)))
    scale = max(1.0, float(np.max(np.abs(frame))))
    residual = max(residual, float(np.max(np.abs(ints @ frame - rows))) / scale)
    if residual > _FIT_LIMIT * tol:
        raise QuadratureError(
            f"the integer fit residual {residual:.3g} exceeds {_FIT_LIMIT:g} * tol"
        )
    return ints, residual


def _check_form(matrix, g):
    """Raise unless the lattice map preserves the intersection form."""
    m = np.array(matrix)
    omega = _intersection_matrix(g)
    if not np.array_equal(m.T @ omega @ m, omega):
        raise QuadratureError(
            "the lattice map does not preserve the intersection form"
        )


def _result(loop, base, march, m, residual):
    """The loop's MonodromyResult for the lattice map m, whose columns are
    the images of the basis cycles; raises unless m preserves the form."""
    matrix = tuple(tuple(int(v) for v in row) for row in m)
    _check_form(matrix, loop.g)
    return MonodromyResult(
        name=loop.name,
        basis=tuple(cycle_labels(loop.g)),
        matrix=matrix,
        residual=residual,
        permutation=march.permutation,
        orientation=loop.orientation,
        steps_used=march.steps_used,
        condition=base.condition,
    )


def monodromy_periods(loop: ParameterLoop, tol: float = 1e-9):
    """Integer monodromy of the period lattice around the loop.

    The roots are marched around the loop and the base periods are carried
    along the march's steps by the Gauss-Manin connection; the transported
    periods are expressed over the starting period frame by a fit that must
    round to a unimodular integer matrix.  Columns of the returned matrix
    are the images of (gamma_1..gamma_{g+1}, delta_1..delta_g).
    """
    g = loop.g
    base = _base_frame(g, loop.base, tol)
    march = _loop_march(loop)
    periods = _transport(g, march.points) @ base.periods
    m_row, residual = _integer_fit(base.frame, _fit_rows(periods, g), tol)
    if abs(int(round(float(np.linalg.det(m_row))))) != 1:
        raise QuadratureError("the transported lattice map is not unimodular")
    return _result(loop, base, march, m_row.T, residual)


def track_roots(loop: ParameterLoop):
    """Branch-point trajectories along the loop: the march both routes read.

    Returns (paths, permutation): paths[t, i] follows the root that starts
    at sorted position i of the base fiber, with the base row and one row
    per accepted step, and permutation[i] names the sorted base root where
    trajectory i ends.
    """
    march = _loop_march(loop)
    return np.asarray(march.fibers, dtype=complex), march.permutation


def _projection(rs):
    """exp(-i theta) for the theta at which the roots' projections
    p(z) = Re(exp(-i theta) z) are most distinct.

    Two roots share a projection when theta is arg(r_i - r_j) + pi/2 mod pi.
    At a real chart point, conjugate roots share their real part and real
    roots their imaginary part, so 0 and pi/2 are degenerate there too.
    theta is the midpoint of the widest gap between those directions.
    """
    dirs = [0.0, 0.5 * math.pi] + [
        (cmath.phase(a - b) + 0.5 * math.pi) % math.pi for a, b in combinations(rs, 2)
    ]
    dirs.sort()
    width, start = max(
        (b - a, a) for a, b in zip(dirs, dirs[1:] + [dirs[0] + math.pi])
    )
    return cmath.exp(-1j * (start + 0.5 * width))


def _swaps(fa, fb, rot):
    """(t, i, j) for each pair i < j whose projections swap between the
    fibers fa and fb, t the linearly interpolated time of the swap."""
    pa = [(r * rot).real for r in fa]
    pb = [(r * rot).real for r in fb]
    events = []
    for i, j in combinations(range(len(fa)), 2):
        da, db = pa[i] - pa[j], pb[i] - pb[j]
        if (da < 0.0) != (db < 0.0):
            events.append((da / (da - db), i, j))
    return events


def _braid_word(fibers, swaps, rot):
    """Braid letters (k, e) of a march's fibers in path order.

    The roots are labelled by their index in each fiber and kept in order of
    projection.  swaps[s] holds the pairs whose projections swap between
    fibers s and s + 1, in order of time, as the march recorded them; each
    pair crosses once (a root moves less than min_sep / 12 per step).  It
    is the letter sigma_k^e at its current positions k, k + 1, with e = +1
    when the left root passes at the larger Im(exp(-i theta) z) at the
    linearly interpolated crossing.  The march bisects every step in which
    two crossings share a root, so the crossings of one step commute.
    """
    order = sorted(range(len(fibers[0])), key=lambda i: (fibers[0][i] * rot).real)
    word = []
    for fa, fb, step in zip(fibers, fibers[1:], swaps):
        for t, i, j in step:
            k = min(order.index(i), order.index(j))
            left, right = order[k], order[k + 1]
            ql = ((1.0 - t) * (fa[left] * rot) + t * (fb[left] * rot)).imag
            qr = ((1.0 - t) * (fa[right] * rot) + t * (fb[right] * rot)).imag
            order[k], order[k + 1] = right, left
            word.append((k, 1 if ql > qr else -1))
    return word


@functools.lru_cache(maxsize=80)  # 2g + 1 <= 5 cycles per _base_frame record
def _vanishing_cycle(g, base, tol, k):
    """(cycle, residual) of the pair loop round the base roots at
    projection positions k, k + 1, fitted over the base frame.

    The projection is the march's, taken from the base roots, so
    the cycle depends only on the base point and is kept with its record.
    A fit that collapses to zero raises, and raises again on every call.
    """
    record = _base_frame(g, base, tol)
    rs = record.rs
    rot = _projection(rs)
    order = sorted(range(len(rs)), key=lambda i: (rs[i] * rot).real)
    verts = pair_loop(rs, order[k : k + 2]).vertices
    y0 = _vertex_sqrt(record.fpoly, verts[0])
    q = _periods(record.fpoly, rs, [(verts, y0)], g, tol)
    coords, residual = _integer_fit(record.frame, _fit_rows(q, g), tol)
    cycle = CycleClass.of(g, coords[0])
    if cycle.is_zero():
        raise QuadratureError("a vanishing-cycle fit collapsed to zero")
    return cycle, residual


def picard_lefschetz_route(loop: ParameterLoop, tol: float = 1e-9):
    """Lattice monodromy as a product of Picard-Lefschetz twists, one per
    crossing of the braid the branch points make around the loop.

    At the base the roots are ordered by a projection p; the cycle c_k of
    the pair of p-neighbours k, k + 1 is a pair loop expressed over the base
    frame by an integer fit, kept per base point.  The roots are marched
    around the loop, and each swap of p-neighbours is a letter
    sigma_k^e of the braid word.  A half-twist of two branch points acts on
    H1 as the twist about their cycle, so every column starts as a unit
    class and takes the twist about c_k with orientation -e for each letter
    in path order.
    """
    g = loop.g
    base = _base_frame(g, loop.base, tol)
    march = _loop_march(loop)
    word = _braid_word(march.fibers, march.swaps, march.rot)
    cycles = {}
    residual = 0.0
    for k in sorted({k for k, _ in word}):
        cycles[k], fit_res = _vanishing_cycle(g, loop.base, tol, k)
        residual = max(residual, fit_res)

    columns = []
    for unit in np.eye(2 * g + 1, dtype=int):
        c = CycleClass.of(g, unit)
        for k, e in word:
            c = picard_lefschetz(c, cycles[k], orientation=-e)
        columns.append(c.coeffs)
    return _result(loop, base, march, np.array(columns).T, residual)


_TORUS_BASIS = ("gamma1", "gamma3", "gamma_inf")
# Columns express (gamma_1, gamma_3, gamma_inf, delta_1, delta_2) over the
# canonical five-cycle basis.  The curve has two points over infinity; the
# torus basis uses the puncture class gamma_inf = gamma_1+gamma_2+gamma_3,
# the loop around the puncture opposite to the one the genus-1 action
# normalization singles out.
_TORUS_CHANGE = np.array(
    [
        [1, 0, 1, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
)


def torus_block(result: MonodromyResult) -> MonodromyResult:
    """Genus-2 lattice map rewritten over (gamma_1, gamma_3, gamma_infinity).

    Those three cycles span the invariant lattice of the torus fibration;
    the map must carry no components onto the delta cycles from them.
    """
    if len(result.basis) != 5:
        raise ValidationError("the torus block is defined for genus-2 results")
    b = _TORUS_CHANGE
    b_inv = np.rint(np.linalg.inv(b)).astype(int)
    m_new = b_inv @ result.as_array() @ b
    if np.any(m_new[3:, :3] != 0):
        raise ValidationError("the lattice map does not preserve the torus cycles")
    block = m_new[:3, :3]
    return replace(
        result,
        basis=_TORUS_BASIS,
        matrix=tuple(tuple(int(v) for v in row) for row in block),
    )


_ACTION_BASIS = ("I1", "I2", "I3")


def monodromy_actions_g1(result: MonodromyResult) -> MonodromyResult:
    """Action-variable monodromy implied by a genus-1 lattice map.

    Valid when the map fixes the puncture class gamma_infinity and shifts
    gamma_1 by a multiple of it; then the first action gains that multiple
    of the puncture action I2 while I2 and the fiber-wise constant I3 stay
    fixed.  Columns are the images of (I1, I2, I3).
    """
    if len(result.basis) != 3:
        raise ValidationError("action extraction is defined for genus-1 results")
    m = result.as_array()
    image_inf = -(m[:, 0] + m[:, 1])
    if list(image_inf) != [-1, -1, 0]:
        raise ValidationError("the lattice map does not fix the puncture class")
    n1, n2, nd = int(m[0, 0]), int(m[1, 0]), int(m[2, 0])
    if nd != 0 or n1 - n2 != 1:
        raise ValidationError(
            "gamma_1 is not shifted by a multiple of the puncture class"
        )
    k = -n2
    return replace(
        result, basis=_ACTION_BASIS, matrix=((1, 0, 0), (k, 1, 0), (0, 0, 1))
    )
