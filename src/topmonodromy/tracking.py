"""Numerical monodromy of the period lattice along loops in parameter space.

A loop in the reduced coefficient chart is traversed by continuing the
branch points (adaptive-bisection root tracking) while the canonical basis
contours are carried along as polygons.  Each polygon keeps a guaranteed
margin from every branch point: vertices inside a margin disk are pushed
radially outward, crowded edges gain midpoints, and straight stretches are
re-simplified, so the transported polygon never changes homology class.  A
reference square root pinned at each polygon's first vertex is continued in
both the fiber and the position, which fixes the transported cycle's sheet.
At the base the basis polygons are maintained first and then oriented
against the intersection form (periods.normalized_basis_contours), so the
orientation is measured on the polygons that are carried.

The 2g+1 polygons ("cables") travel as one bundle: a single complex vertex
array with a start offset, a pinned square root and a row of winding numbers
per cable.  Every accepted step continues each pinned square root along
the step at its cable's first vertex, but the cables themselves are kept up
on demand, as the skin of a Verlet neighbour list is.  The march adds each
step's largest root move to a drift total; a step is an upkeep step when
that total, this step included, reaches a third of the smaller of the last
upkeep's margin m and this step's margin, and every step onto the base is
one, so the loop's last step leaves the cables maintained where they are
integrated.  Skipping is safe: after an upkeep every vertex lies at least
m and every edge at least 0.95 m from every root, so roots that have
drifted less than m/3 in all stay 0.62 m from every edge, and no root can
reach a cable between upkeeps.  An upkeep makes one pass of each kind
(push, clearance test, midpoint insertion, winding count) over all vertices
at once and re-checks only what moved: its first round tests every vertex
and edge, each later round only the midpoints the round before inserted
and the edges at them.  That makes the decisions a full re-test would: the
margin disks are disjoint, so a pushed vertex lands outside every disk; a
vertex that was not pushed was outside already; and an edge found clear
stays clear while its endpoints stay put.  An attempt is rejected, and the
step bisected, when any cable cannot be lifted or maintained; a stalled
bisection, or a winding number that changed by the next upkeep, raises
TrackingError with the stretch of the loop where it happened.

No integration happens at intermediate fibers.  The periods of the carried
differentials x^k dx/y, k = 0..g (a rank 2g+1 real frame, since x^g dx/y
keeps a residue at the two punctures over infinity) are computed only at the
base fiber, before and after the circuit; the transported cycles are then
expressed over the starting frame by a least-squares fit whose entries must
round to integers.  The reported residual is the distance of that fit from
the integer lattice, so it reflects quadrature noise only.

The second route (picard_lefschetz_route) carries no contour.  It marches
the branch points alone and reads off the braid they make: ordered by a
projection p(z) = Re(exp(-i theta) z), with theta taken from the base roots,
each swap of p-neighbours k, k + 1 is one letter sigma_k^(+-1).  Its march
also rejects, and so bisects, a step in which two swaps share a root, since
those do not commute; each step's swaps are then read in order of time.  A
half-twist of two branch points acts on H1 as the Picard-Lefschetz twist
about the cycle of a loop round the segment joining them, so the matrix is
the product of one twist per letter, about cycles fitted once at the base.

Both routes raise QuadratureError rather than report a matrix when a fit
residual exceeds 1e3 * tol or when the matrix does not preserve the
intersection form.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .discriminant import g2_branch, quartic_poly, sextic_poly
from .errors import (
    DegenerateInputError,
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
    _winding_numbers,
    basis_contours,
    normalized_basis_contours,
    pair_loop,
    polygon_periods,
)
from .poly import normalized_discriminant, real_root_count, roots

_MARGIN_FRAC = 0.25  # margin = this fraction of the minimal root separation
_STEP_FRAC = 1.0 / 3.0  # accept a step when roots move less than margin * this
_PUSH_TARGET = 1.15  # vertices inside a margin disk are pushed to this * margin
_EDGE_CLEAR = 0.95  # edges are refined below this * margin of clearance
_SIMPLIFY_AT = 170  # polygons above this vertex count get re-simplified
_MAX_DEPTH = 24  # dyadic subdivision limit per marched segment
_SEP_FLOOR = 1e-6  # relative root-separation floor before giving up
_WAYPOINT_DISC_FLOOR = 1e-8
_COND_LIMIT = 1e8
_FIT_LIMIT = 1e3  # reject an integer fit whose residual exceeds this * tol
_BLEND = np.linspace(0.0, 1.0, 9)  # sqrt continuation samples along a step


def fiber_polynomial(g, point):
    """Spectral polynomial of a point in the reduced parameter chart.

    Genus 1 uses (a1, a2, a3) -> x^4 + a1 x^3 + a2 x^2 + a3 x + 1 and genus 2
    uses (a, b, c) -> (x^2+1)^3 + x^3 (a x^2 + b x + c); both charts are
    affine in the parameters, so fibers blend linearly along segments.
    """
    if g == 1:
        return quartic_poly(point)
    if g == 2:
        return sextic_poly(point)
    raise ValidationError("parameter loops are supported for genus 1 and 2")


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


def _differentials(g):
    diffs = [d for d, k in _HOLOMORPHIC.items() if k <= g]
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


class _Bundle:
    """All transported polygons in one complex vertex array.

    Cable c owns verts[starts[c]:starts[c + 1]] (the last cable runs to the
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

    def cables(self):
        """(vertex slice, y_ref) for each cable."""
        ends = np.append(self.starts[1:], len(self.verts))
        return [
            (self.verts[a:b], complex(y))
            for a, b, y in zip(self.starts, ends, self.y_ref)
        ]


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
    """Restore the margin invariant after the branch points moved.

    Vertices inside a root's margin disk move radially outward (the disks are
    disjoint, so each vertex sits in at most one disk and the move cannot
    cross any root); edges with less clearance than the margin gain midpoints
    until every edge clears.  A pushed first vertex carries its cable's y_ref
    along.  Every cable goes through the same rounds: a cable that is already
    clean does not change in a further round, so each ends exactly as it would
    alone.  Returns None when any cable cannot be restored, which makes the
    caller bisect the parameter step.

    Only the first round tests every vertex and edge; a later round tests
    the midpoints the round before inserted and the two edges at each.  That
    needs margin <= min_sep / 4: a pushed vertex then lands 1.15 margins from
    its root and at least 2.85 from any other, outside every disk.
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
            # the cables whose vertex 0 is pushed; hit[h[c]] is that vertex
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


def _cross(ux, uy, vx, vy):
    return ux * vy - uy * vx


def _simplify_cable(verts, rs, margin):
    """Drop vertices whose removal keeps clearance and crosses no root.

    A vertex is safe to drop when the chord between its original neighbours
    keeps clearance and the triangle it cuts off holds no root; the scan
    drops safe vertices greedily, never two in a row and never vertex 0.
    """
    r = np.asarray(rs, dtype=complex)
    px, py = r.real, r.imag
    while len(verts) > _SIMPLIFY_AT:
        a, v, b = verts[:-1], verts[1:], np.concatenate((verts[2:], verts[:1]))
        ax, ay = a.real[:, None], a.imag[:, None]
        vx, vy = v.real[:, None], v.imag[:, None]
        bx, by = b.real[:, None], b.imag[:, None]
        s1 = _cross(vx - ax, vy - ay, px - ax, py - ay)
        s2 = _cross(bx - vx, by - vy, px - vx, py - vy)
        s3 = _cross(ax - bx, ay - by, px - bx, py - by)
        has_neg = (s1 < 0.0) | (s2 < 0.0) | (s3 < 0.0)
        has_pos = (s1 > 0.0) | (s2 > 0.0) | (s3 > 0.0)
        clear = _segment_distances(a, b, r) >= 1.05 * margin
        safe = np.all(clear & has_neg & has_pos, axis=1).tolist()
        keep = np.ones(len(verts), dtype=bool)
        i = 1
        while i < len(verts):
            if safe[i - 1]:
                keep[i] = False
                i += 2
            else:
                i += 1
        if keep.all():
            break
        verts = verts[keep]
    return verts


def _simplify_bundle(bundle, rs, margin):
    """The bundle with every cable above _SIMPLIFY_AT vertices simplified."""
    if np.diff(bundle.starts, append=len(bundle.verts)).max() <= _SIMPLIFY_AT:
        return bundle
    polygons = [_simplify_cable(v, rs, margin) for v, _ in bundle.cables()]
    return _Bundle.of(polygons, bundle.y_ref, bundle.windings)


def _chart_point(point):
    """Chart coordinates as Python floats, complex only where not real."""
    return tuple(
        c.real if c.imag == 0.0 else c for c in (complex(v) for v in point)
    )


class _March:
    """Root (and optionally cable) transport along chart segments.

    Coordinates may be complex in both genera.  fibers[s] holds the roots
    after s accepted steps.  With cables, drift is the root travel since
    the last upkeep (the sum of each step's largest root move),
    upkeep_margin that upkeep's margin and upkeeps the number of upkeeps
    made, the one at the base included.  A step runs the upkeep only when
    drift, this step included, reaches _STEP_FRAC of the smaller of
    upkeep_margin and its own margin, or when it lands on the base point;
    other steps only continue each cable's y_ref.  A braided march fixes
    the projection rot of the base roots and also rejects a step in which
    two swaps of projection neighbours share a root, so traverse bisects it
    like any other step.
    """

    def __init__(self, g, point, with_cables, braided=False):
        self.g = g
        self.point = _chart_point(point)
        self.fpoly = fiber_polynomial(g, self.point)
        self.rs = roots(self.fpoly)
        self.min_sep = _pairwise_min_sep(self.rs)
        self.rot = _projection(self.rs) if braided else None
        self.fibers = [tuple(self.rs)]
        self.steps_used = 0
        self.base = self.point
        self.bundle = None
        self.drift = 0.0
        self.upkeeps = 0
        if with_cables:
            config = build_basis(tuple(self.rs), g)
            polygons = [spec.vertices for spec in basis_contours(config)]
            y0 = [_vertex_sqrt(self.fpoly, p[0]) for p in polygons]
            margin = _MARGIN_FRAC * self.min_sep
            bundle = _maintain_bundle(
                _Bundle.of(polygons, y0), self.rs, margin, self.fpoly
            )
            if bundle is None:
                raise DegenerateInputError(
                    "cannot realize a basis contour with a safety margin"
                )
            # orient the maintained polygons: the raw polygon of a thin
            # pair loop can pass too close to a branch point to lift
            polygons, y0 = zip(
                *normalized_basis_contours(self.fpoly, bundle.cables())
            )
            bundle = _Bundle.of(polygons, y0)
            bundle.windings = _winding_numbers(bundle.verts, bundle.starts, self.rs)
            self.bundle = bundle
            self.upkeep_margin = margin
            self.upkeeps = 1

    def _try_advance(self, target):
        fp_new = fiber_polynomial(self.g, target)
        try:
            rs_new = roots(fp_new, initial=self.rs)
        except RootFindingError:
            return False
        perm, disp = _match_roots(self.rs, rs_new)
        matched = [rs_new[j] for j in perm]
        sep_new = _pairwise_min_sep(matched)
        scale = max(1.0, max(abs(r) for r in matched))
        if sep_new < _SEP_FLOOR * scale:
            return False
        margin = _MARGIN_FRAC * min(self.min_sep, sep_new)
        if disp >= _STEP_FRAC * margin:
            return False
        if self.rot is not None:
            # crossings that share a root do not commute, so their order
            # must come from a shorter step
            swaps = _swaps(self.rs, matched, self.rot)
            labels = [r for _, i, j in swaps for r in (i, j)]
            if len(set(labels)) != len(labels):
                return False
        bundle = self.bundle
        drift = self.drift + disp
        if bundle is not None:
            # Any cable that cannot be lifted or maintained rejects the
            # attempt; windings are compared only once every cable is.
            x0 = bundle.verts[bundle.starts].tolist()
            f0 = np.array([complex(self.fpoly(x)) for x in x0])
            f1 = np.array([complex(fp_new(x)) for x in x0])
            y_new = _continue_sqrt(
                (1.0 - _BLEND) * f0[:, None] + _BLEND * f1[:, None], bundle.y_ref
            )
            if y_new is None:
                return False
            bundle = _Bundle(bundle.verts, bundle.starts, y_new, bundle.windings)
            # Upkeep on demand (see the module docstring); a step onto the
            # base is always one, so the cables integrated there are kept up.
            due = _STEP_FRAC * min(self.upkeep_margin, margin)
            if drift >= due or tuple(target) == self.base:
                moved = _maintain_bundle(bundle, matched, margin, fp_new)
                if moved is None:
                    return False
                moved = _simplify_bundle(moved, matched, margin)
                windings = _winding_numbers(moved.verts, moved.starts, matched)
                crossed = np.flatnonzero(np.any(windings != bundle.windings, axis=1))
                if len(crossed):
                    raise TrackingError(
                        "a branch point crossed a transported contour: cable "
                        f"{crossed[0]} on the step to {tuple(target)}",
                        arc=(self.point, tuple(target)),
                    )
                bundle = moved
                drift = 0.0
                self.upkeep_margin = margin
                self.upkeeps += 1
        self.point = tuple(target)
        self.fpoly = fp_new
        self.rs = matched
        self.min_sep = sep_new
        self.fibers.append(tuple(matched))
        self.steps_used += 1
        self.bundle = bundle
        self.drift = drift
        return True

    def traverse(self, target, presplit=1):
        """March to target, bisecting any step that is not accepted."""
        start = self.point
        end = _chart_point(target)
        if end == start:
            return
        k = max(1, int(presplit))
        stack = [(i / k, (i + 1) / k) for i in reversed(range(k))]
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


def _run_march(loop, steps=0, braided=False):
    """Roots marched around the loop, each hop presplit by its share of steps."""
    path = loop.path_points()
    state = _March(loop.g, path[0], with_cables=False, braided=braided)
    hops = list(zip(path, path[1:]))
    # abs() of each coordinate difference, so complex chart points work too
    lengths = [math.hypot(*(abs(x - y) for x, y in zip(a, b))) for a, b in hops]
    total = sum(lengths) or 1.0
    for (_, b), length in zip(hops, lengths):
        state.traverse(b, presplit=max(1, round(steps * length / total)))
    return state


def _period_rows(fpoly, cables, diffs, tol):
    """One real row [Re | Im] of the differentials' periods per cable."""
    p = np.array([polygon_periods(fpoly, v, y, diffs, tol) for v, y in cables])
    return np.hstack([p.real, p.imag])


def _closure_permutation(state, rs0):
    perm, worst = _match_roots(state.rs, rs0)
    if worst > 1e-6 * max(1.0, max(abs(r) for r in rs0)):
        raise QuadratureError("the loop failed to close on its starting fiber")
    return tuple(perm)


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


def monodromy_periods(loop: ParameterLoop, tol: float = 1e-9):
    """Integer monodromy of the period lattice around the loop.

    The canonical basis contours are carried around the loop as polygons and
    integrated only at the base fiber, before and after the circuit; the
    transported cycles are expressed over the starting period frame by a fit
    that must round to a unimodular integer matrix.  Columns of the returned
    matrix are the images of (gamma_1..gamma_{g+1}, delta_1..delta_g).
    """
    g = loop.g
    diffs = _differentials(g)
    path = loop.path_points()
    state = _March(g, path[0], with_cables=True)
    rs0 = tuple(state.rs)
    base_poly = state.fpoly
    frame = _period_rows(base_poly, state.bundle.cables(), diffs, tol)
    condition = _frame_condition(frame)
    for b in path[1:]:
        state.traverse(b)
    rows = _period_rows(base_poly, state.bundle.cables(), diffs, tol)
    m_row, residual = _integer_fit(frame, rows, tol)
    if abs(int(round(float(np.linalg.det(m_row))))) != 1:
        raise QuadratureError("the transported lattice map is not unimodular")
    perm = _closure_permutation(state, rs0)
    matrix = tuple(tuple(int(v) for v in row) for row in m_row.T)
    _check_form(matrix, g)
    return MonodromyResult(
        name=loop.name,
        basis=tuple(cycle_labels(g)),
        matrix=matrix,
        residual=residual,
        permutation=perm,
        orientation=loop.orientation,
        steps_used=state.steps_used,
        condition=condition,
    )


def track_roots(loop: ParameterLoop, steps: int = 64):
    """Branch-point trajectories along the loop.

    Returns (paths, permutation): paths[t, i] follows the root that starts
    at sorted position i of the base fiber, one row per accepted step, and
    permutation[i] names the sorted base root where trajectory i ends.
    """
    state = _run_march(loop, steps=steps)
    perm = _closure_permutation(state, state.fibers[0])
    return np.asarray(state.fibers, dtype=complex), perm


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


def _braid_word(fibers, rot):
    """Braid letters (k, e) of a braided march's fibers in path order.

    The roots are labelled by their index in each fiber and kept in order of
    projection.  A pair whose projections swap between two fibers crosses
    once (a root moves less than min_sep / 12 per step); it is the letter
    sigma_k^e at its current positions k, k + 1, with e = +1 when the left
    root passes at the larger Im(exp(-i theta) z) at the linearly
    interpolated crossing.  The braided march bisects every step in which
    two crossings share a root, so the crossings of one step commute and
    are read in order of time.
    """
    order = sorted(range(len(fibers[0])), key=lambda i: (fibers[0][i] * rot).real)
    word = []
    for fa, fb in zip(fibers, fibers[1:]):
        for t, i, j in sorted(_swaps(fa, fb, rot)):
            k = min(order.index(i), order.index(j))
            left, right = order[k], order[k + 1]
            ql = ((1.0 - t) * (fa[left] * rot) + t * (fb[left] * rot)).imag
            qr = ((1.0 - t) * (fa[right] * rot) + t * (fb[right] * rot)).imag
            order[k], order[k + 1] = right, left
            word.append((k, 1 if ql > qr else -1))
    return word


def picard_lefschetz_route(loop: ParameterLoop, tol: float = 1e-9):
    """Lattice monodromy as a product of Picard-Lefschetz twists, one per
    crossing of the braid the branch points make around the loop.

    At the base the roots are ordered by a projection p; the cycle c_k of
    the pair of p-neighbours k, k + 1 is a pair loop expressed over the base
    frame by an integer fit.  The roots alone are marched around the loop,
    and each swap of p-neighbours is a letter sigma_k^e of the braid word.
    A half-twist of two branch points acts on H1 as the twist about their
    cycle, so every column starts as a unit class and takes the twist about
    c_k with orientation -e for each letter in path order.
    """
    g = loop.g
    diffs = _differentials(g)
    march = _run_march(loop, braided=True)
    perm = _closure_permutation(march, march.fibers[0])
    rs0 = march.fibers[0]
    word = _braid_word(march.fibers, march.rot)
    base_order = sorted(range(len(rs0)), key=lambda i: (rs0[i] * march.rot).real)

    state = _March(g, loop.base, with_cables=True)
    frame = _period_rows(state.fpoly, state.bundle.cables(), diffs, tol)
    condition = _frame_condition(frame)
    cycles = {}
    residual = 0.0
    for k in sorted({k for k, _ in word}):
        verts = pair_loop(rs0, base_order[k : k + 2]).vertices
        y0 = _vertex_sqrt(state.fpoly, verts[0])
        q = _period_rows(state.fpoly, [(verts, y0)], diffs, tol)
        coords, fit_res = _integer_fit(frame, q, tol)
        residual = max(residual, fit_res)
        cycles[k] = CycleClass.of(g, coords[0])
        if cycles[k].is_zero():
            raise QuadratureError("a vanishing-cycle fit collapsed to zero")

    columns = []
    for unit in np.eye(2 * g + 1, dtype=int):
        c = CycleClass.of(g, unit)
        for k, e in word:
            c = picard_lefschetz(c, cycles[k], orientation=-e)
        columns.append(c.coeffs)
    matrix = tuple(tuple(int(v) for v in row) for row in np.array(columns).T)
    _check_form(matrix, g)
    return MonodromyResult(
        name=loop.name,
        basis=tuple(cycle_labels(g)),
        matrix=matrix,
        residual=residual,
        permutation=perm,
        orientation=loop.orientation,
        steps_used=march.steps_used,
        condition=condition,
    )


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
