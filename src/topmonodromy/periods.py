"""Contour integration of x^k dx/y and y dx/x^2 on y^2 = f(x).

Every contour is a closed polygon (ContourSpec) whose vertex order carries
the orientation; pair_loop puts 48 vertices on an ellipse around one cut,
and big_loop 16 on a circle around every branch point and the origin.
Each integral runs Gauss-Legendre rules on every edge, with 12, 24, 48,
... up to 1536 nodes per edge, until two consecutive levels agree; the
finer one is returned.  The rule on an edge converges geometrically, at a
rate set by how far the edge keeps from the branch points and the origin,
so the finer of two agreeing levels is accurate far beyond their
agreement: on the action's pair and big loops 12 and 24 nodes usually
agree, and the 24-node value is accurate to rounding.  The square root
is continued node by node, with the sign of each step read off one
product; a lift is accepted only when every step has an unambiguous sign
choice and the lift closes up after a full circuit.  One rule then fixes
the sheet: an
anchor names a node j and a square root y_j there, and the lift takes the
sign that lands nearer y_j.  cycle_integral anchors to a single-valued
branch of sqrt(f) whose cuts are the segments of the canonical pairing and
which behaves like +x^{g+1} at large positive real x; because the branch is
evaluated pointwise, homotopic contours always integrate on the same sheet.
The action and the residue check anchor y = +sqrt(f) where the contour
crosses the real axis right of the branch points it encloses (f > 0 there),
which normalizes the vanishing cycle the same way at every cut.  The
monodromy tracker's basis polygons integrate on the sheet of a square root
pinned at their first vertex, and are oriented on those same polygons:
normalized_basis_contours counts their signed same-sheet crossings and
reverses each polygon whose sign is -1.  The
action's vanishing cycle is read off the base roots, with no root
continuation: the conjugate pair on the real touch point's side of the
unit circle, or on the plane a1 = a3 (where roots sit on that circle) the
pair inside it above the complex double pair and the pair nearest the
touch point below it.  action_I1, action_I1_cubic and residue_check,
called one after another at one point in any order, share one record of
that point (_point): its quartic, the quartic's cold roots and the exact
Sturm count of its real roots, each computed on first use; only the last
point's record is kept.  Each contour builds its vertex array and its edges'
ends, half-steps and midpoints once, read-only, for every level of its
ladder; and action_I1 takes no winding count of the origin on a pair loop
fitted to avoid it, which keeps the origin outside the polygon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .discriminant import _as_poly, complex_double_pair_a2, delta_c_section, quartic_poly
from .errors import (
    DegenerateInputError,
    NearDiscriminantError,
    QuadratureError,
    ValidationError,
    _finite,
)
from .homology import (
    _GAMMA_DELTA_NEXT,
    _GAMMA_DELTA_SAME,
    BranchConfig,
    _intersection_matrix,
    build_basis,
    cycle_labels,
)
from .poly import ComplexPoly, has_repeated_root, real_root_count, roots as poly_roots

_AMBIGUITY_LIMIT = 0.7
_MAX_EDGE_NODES = 1 << 11
_PAIR_PAD = 0.45  # pair_loop's first pad, as a fraction of the nearest gap
_BIG_LOOP_FACTOR = 2.0  # big_loop radius = factor * reach + pad
_BIG_LOOP_PAD = 1.0
_LOOP_VERTS = 48  # vertices of a pair loop; the big loop keeps every third
_LOOP_T = np.arange(_LOOP_VERTS) * (2.0 * math.pi / _LOOP_VERTS)
_LOOP_COS, _LOOP_SIN = np.cos(_LOOP_T), np.sin(_LOOP_T)
# The ladder's node counts per edge, doubling from 12 within _MAX_EDGE_NODES.
# Every ladder compares the first two levels, so they make one batch, which
# one array pass evaluates and lifts.
_BATCHES = ((12, 24), (48,), (96,), (192,), (384,), (768,), (1536,))


@functools.lru_cache(maxsize=32)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The engine asks for the eight n of the polygon ladder, 12 to 1536.
    The bound only caps callers of ContourSpec.nodes that pick n freely.
    The arrays are shared by every caller, so they are made read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class ContourSpec:
    """Closed polygonal contour in the x-plane.

    The vertex order carries the orientation; clearance is the minimum
    distance the edges keep from the points the contour must avoid.
    origin_gap is the edges' distance from x = 0, the pole of y dx/x^2,
    when it was measured with the clearance; None leaves it to the
    quadrature to measure.
    """

    vertices: tuple
    clearance: float = math.inf
    origin_gap: float | None = None

    @functools.cached_property
    def _edges(self):
        """(a, b, half, mid): the vertices and each edge's end, half-step and
        midpoint, as read-only complex arrays built on first use.  They are
        no field, so equality and hashing read the vertices alone."""
        a = np.array(self.vertices, dtype=complex)
        b = np.concatenate((a[1:], a[:1]))
        edges = (a, b, (0.5 * (b - a))[:, None], (0.5 * (a + b))[:, None])
        for arr in edges:
            arr.flags.writeable = False
        return edges

    def nodes(self, n):
        """Quadrature points and weights, n Gauss-Legendre nodes per edge."""
        # one row of nodes per edge; x is summed in place, so no (edges, n)
        # temporary is made beside the two outputs
        glx, glw = _leggauss(n)
        _, _, half, mid = self._edges
        x = half * glx
        x += mid
        return x.ravel(), (half * glw).ravel()


def _segment_distances(a, b, rs):
    """Distance from each point of rs to each segment a[k]-b[k], shape (k, m).

    Written as split real arithmetic: it rounds exactly like the scalar
    complex formula, where complex NumPy products and absolute values can
    differ in the last bit.  A zero-length edge projects onto its vertex.
    The points are finite branch points and the origin, as the contour
    builders check: an infinite one meets inf * 0 on an edge parallel to an
    axis, with a RuntimeWarning.
    """
    rx, ry = rs.real, rs.imag
    ax, ay = a.real[:, None], a.imag[:, None]
    dx, dy = (b.real - a.real)[:, None], (b.imag - a.imag)[:, None]
    l2 = dx * dx + dy * dy
    num = (rx - ax) * dx + (ry - ay) * dy
    t = np.clip(np.divide(num, l2, out=np.zeros_like(num), where=l2 != 0.0), 0.0, 1.0)
    return np.hypot(rx - (ax + t * dx), ry - (ay + t * dy))


def _winding_numbers(verts, rs):
    """Turn count of the closed polygon verts around each point of rs.

    Straight edges subtend less than a half turn, so the principal-angle
    sum per edge is exact.
    """
    w = np.asarray(verts, dtype=complex) - np.asarray(rs, dtype=complex)[:, None]
    turns = np.angle(np.roll(w, -1, axis=1) / w)
    return np.rint(turns.sum(axis=1) / (2.0 * math.pi)).astype(int)


def _closed_polygon(verts, orientation, excluded):
    """Contour through verts, with its exact clearance and origin gap.

    Orientation -1 keeps vertex 0 and reverses the others.  The clearance is
    the least distance from the excluded points to the edges; the origin's
    distance is measured in the same call, as one more column.
    """
    if orientation not in (1, -1):
        raise ValidationError("orientation must be +1 or -1")
    if orientation == -1:
        verts = np.concatenate((verts[:1], verts[:0:-1]))
    ends = np.concatenate((verts[1:], verts[:1]))
    gaps = _segment_distances(verts, ends, np.array([*excluded, 0.0], complex))
    return ContourSpec(
        vertices=tuple(verts.tolist()),
        clearance=float(np.min(gaps[:, :-1], initial=math.inf)),
        origin_gap=float(np.min(gaps[:, -1])),
    )


def pair_loop(roots, pair, orientation=1, avoid=()):
    """Polygon on an ellipse around the cut joining roots[pair[0]], roots[pair[1]].

    Every other root, plus the points in avoid, stays outside with margin.
    The ellipse has semi-axis a along the cut and b across it, and its
    _LOOP_VERTS vertices sit at parameters t = 2 pi k / _LOOP_VERTS from
    t = 0.  The roots and the points in avoid must be finite.
    """
    pts = _finite("pair loop roots", *map(complex, roots))
    avoid = _finite("pair loop avoid points", *map(complex, avoid))
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
    excluded += avoid

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
            verts = center + axis * (a * _LOOP_COS + 1j * b * _LOOP_SIN)
            return _closed_polygon(verts, orientation, excluded)
        pad *= 0.6
    raise DegenerateInputError("cannot fit a pair loop between branch points")


def big_loop(roots, orientation=1):
    """Polygon on a circle around every branch point and the origin.

    The circle is centred at the roots' mean c and has radius R = 2 rho + 1,
    with rho the farthest of the roots and the origin from c, so that every
    singularity of x^k dx/y and y dx/x^2 lies within R/2 of c.  Its 16
    vertices are every third point of the pair loops' 48-point table, at
    t = 2 pi k / 16.  Then each edge, of half-length R sin(pi/16) = 0.195 R,
    keeps R cos(pi/16) - R/2 >= 0.481 R from every singularity: Bernstein
    parameter 5.12, so the 12-node rule is good to about 1e-17.  And vertex
    0 lies on the real axis at x = c + R >= (R + 1)/2, as |c| <= rho; the
    level-12 node next to it sits 0.0035 R off the axis, well inside
    _real_axis_anchor's threshold 1e-2 (1 + x), about 0.005 R + 0.015 or
    more; a 12-gon would keep 8 % of margin there.  The roots must be finite.
    """
    pts = np.array(_finite("big loop roots", *map(complex, roots)))
    singular = np.append(pts, 0.0)
    center = complex(np.mean(pts))
    radius = _BIG_LOOP_FACTOR * float(np.max(np.abs(singular - center))) + _BIG_LOOP_PAD
    verts = center + radius * (_LOOP_COS[::3] + 1j * _LOOP_SIN[::3])
    return _closed_polygon(verts, orientation, singular)


def polyline(vertices):
    """Closed polygonal contour through the given vertices."""
    verts = tuple(complex(v) for v in vertices)
    if len(verts) >= 2 and verts[0] == verts[-1]:
        verts = verts[:-1]
    if len(verts) < 3:
        raise ValidationError("polyline needs at least 3 distinct vertices")
    return ContourSpec(vertices=verts)


def _step_signs(fvals):
    """Principal square roots of fvals and, for every step along the last
    axis, its sign (-1 where the lift flips) and squared ambiguity
    (rounding can leave it a little below 0 where a step barely moves)."""
    if np.any(fvals == 0.0):
        raise QuadratureError("contour passes through a branch point")
    cand = np.sqrt(fvals)
    re, im = cand.real, cand.imag
    d = re[..., :-1] * re[..., 1:] + im[..., :-1] * im[..., 1:]
    m = re * re + im * im
    s = m[..., :-1] + m[..., 1:]
    t = 2.0 * np.abs(d)
    hi = s + t
    q = np.divide(s - t, hi, out=np.ones_like(hi), where=hi > 0.0)
    return cand, np.where(d < 0.0, -1.0, 1.0), q


def _signed(cand, signs):
    """The roots cand with the signs of the steps up to each one applied."""
    y = cand.copy()
    y[..., 1:] *= np.cumprod(signs, axis=-1)
    return y


def _lift_steps(fvals, y_start=None):
    """The lift of _lift_open, with the squared ambiguity of every step."""
    cand, signs, q = _step_signs(fvals)
    y = _signed(cand, signs)
    if y_start is not None:
        y0 = y[..., 0]
        flip = np.abs(y0 - y_start) > np.abs(y0 + y_start)
        y = np.where(flip[..., None], -y, y)
    return y, q


def _lift_open(fvals, y_start=None):
    """Continuous square root along a sampled path; returns (y, ambiguity).

    Each step is read off one product: for consecutive principal roots a, b
    with d = Re(a conj(b)) and s = |a|^2 + |b|^2, keeping and flipping the
    sign land |b - a|^2 = s - 2d and |b + a|^2 = s + 2d away.  So the step
    flips where d < 0, and its ratio of the nearer to the farther distance
    is sqrt((s - 2|d|) / (s + 2|d|)); the ambiguity is the worst step's
    ratio.
    """
    y, q = _lift_steps(fvals, y_start)
    return y, float(np.sqrt(np.max(q, initial=0.0)))


def _closure(y, q):
    """Ambiguity of a closed circuit's lift y, whose steps have the squared
    ambiguities q, counting the step that closes it; and whether the sheet
    closes up."""
    worst = float(np.sqrt(np.max(q, initial=0.0)))
    d_keep = abs(y[0] - y[-1])
    d_flip = abs(y[0] + y[-1])
    hi = max(d_keep, d_flip)
    if hi > 0.0:
        worst = max(worst, min(d_keep, d_flip) / hi)
    return worst, d_keep < d_flip


def _pair_product(lead, cut_pairs, x):
    """Value of the cut-plane branch of sqrt(f) at x (array or scalar).

    Each cut (r1, r2) contributes d*sqrt(w - 1)*sqrt(w + 1) with
    w = (x - m)/d, m the midpoint and d the half-chord, which has its branch
    cut exactly on the segment and behaves like x - m far away.
    """
    val = np.full_like(np.asarray(x, dtype=complex), np.sqrt(complex(lead)))
    for r1, r2 in cut_pairs:
        m, d = 0.5 * (r1 + r2), 0.5 * (r2 - r1)
        w = (np.asarray(x, dtype=complex) - m) / d
        val = val * (d * np.sqrt(w - 1.0) * np.sqrt(w + 1.0))
    return val


def _cut_pairs(fpoly):
    """Endpoints of the canonical pairing's cuts."""
    rs = poly_roots(fpoly)
    config = build_basis(rs, len(rs) // 2 - 1)
    return [(rs[i], rs[j]) for i, j in config.pairing]


def reference_branch(f, x):
    """Single-valued sqrt of f away from the canonical pairing's cuts.

    Evaluated pointwise, so the same x always lands on the same sheet; the
    branch behaves like +x^{g+1} (times sqrt of the leading coefficient) at
    large positive real x.
    """
    fpoly = _as_poly(f)
    out = _pair_product(fpoly.coeffs[-1], _cut_pairs(fpoly), x)
    return out if np.ndim(x) else complex(out)


def _branch_anchor(fpoly):
    """Anchor on the cut-plane branch, at the node where |f| is largest."""
    lead, pairs = fpoly.coeffs[-1], _cut_pairs(fpoly)

    def anchor(x, fv):
        j = int(np.argmax(np.abs(fv)))
        return j, complex(_pair_product(lead, pairs, x[j]))

    return anchor


def _real_axis_anchor(x, fv):
    """Anchor y = +sqrt(f) at the contour's rightmost real-axis crossing.

    The crossing is the node nearest the real axis among those right of the
    nodes' mean.  Valid when f > 0 on the real axis from that crossing out to +infinity:
    continuing +sqrt(f) inward from far on the positive real axis stays real
    positive up to the crossing, so it sits on the reference sheet.  That
    holds for a loop around a cut of a curve with no real branch points,
    and for the big loop, which crosses right of every branch point.
    """
    xr = x.real
    j = int(np.argmin(np.where(xr >= xr.sum() / len(xr), np.abs(x.imag), np.inf)))
    if abs(x[j].imag) > 1e-2 * (1.0 + abs(x[j].real)):
        raise QuadratureError("loop does not cross the real axis", location=x[j])
    return j, np.sqrt(fv[j])


_HOLOMORPHIC = {"dx/y": 0, "x dx/y": 1, "x^2 dx/y": 2, "x^3 dx/y": 3, "x^4 dx/y": 4}


def _integrand_values(differential, x, y):
    if differential in _HOLOMORPHIC:
        k = _HOLOMORPHIC[differential]
        return x**k / y
    if differential == "y dx/x^2":
        return y / x**2
    raise ValidationError(f"unknown differential {differential!r}")


def _anchored_values(fpoly, contour, differentials, tol, anchor):
    """Adaptive integrals of several differentials on the anchored sheet.

    Node counts per edge double from 12 until two consecutive levels agree
    to tol; the lift must be unambiguous at every step and close up after a
    circuit.  anchor(x, fv) names a node j and a square root there, and the
    lift takes the sign that lands nearer it.  Returns (values, x, y) from
    the finer of the two levels that agree.  The levels run in the batches
    of _BATCHES: a batch's nodes are evaluated, square-rooted and stepped
    as one array, and each level then lifts its own slice from its first
    node, leaving out the step that joins it to the level before, so every
    level rounds as it would alone.  y dx/x^2 needs the edges clear of the
    origin, by the contour's origin_gap, or measured here when it has none.
    """
    if not contour.clearance > 0.0:  # a nan clearance is refused too
        raise ValidationError("contour has nonpositive clearance")
    if any(d == "y dx/x^2" for d in differentials):
        gap = contour.origin_gap
        if gap is None:
            a, b, _, _ = contour._edges
            gap = np.min(_segment_distances(a, b, np.zeros(1)))
        if gap < 1e-12:
            raise QuadratureError("contour passes through the origin pole", location=0.0)
    prev = None
    worst_x = None
    for batch in _BATCHES:
        levels = [contour.nodes(n) for n in batch]
        fvals = fpoly(np.concatenate([x for x, _ in levels]))
        cand, signs, q = _step_signs(fvals)
        lo = 0
        for x, w in levels:
            hi = lo + len(x)
            fv = fvals[lo:hi]
            y = _signed(cand[lo:hi], signs[lo : hi - 1])
            worst, closes = _closure(y, q[lo : hi - 1])
            if worst < _AMBIGUITY_LIMIT and closes:
                j, ref = anchor(x, fv)
                y = y * (1 if abs(y[j] - ref) <= abs(y[j] + ref) else -1)
                vals = np.array(
                    [np.sum(_integrand_values(d, x, y) * w) for d in differentials]
                )
                if prev is not None and np.max(np.abs(vals - prev)) < tol:
                    return vals, x, y
                prev = vals
            else:
                prev = None
                worst_x = complex(x[int(np.argmin(np.abs(fv)))])
            lo = hi
    if prev is not None:
        raise QuadratureError(f"quadrature did not reach tol={tol}")
    raise QuadratureError("branch tracking stayed ambiguous", location=worst_x)


def cycle_integral(f, contour: ContourSpec, differential: str, tol: float = 1e-10):
    """Integral of the differential over the contour on the cut-plane branch.

    The lift is pinned to the single-valued branch of reference_branch, so
    homotopic contours give equal values and loop classes add up literally.
    """
    fpoly = _as_poly(f)
    vals, _, _ = _anchored_values(
        fpoly, contour, (differential,), tol, _branch_anchor(fpoly)
    )
    return complex(vals[0])


def polygon_periods(f, vertices, y_ref, differentials, tol: float = 1e-9):
    """Integrals over a closed polygon with the sheet pinned near vertex 0.

    The lift's sign is chosen so that its value at the first quadrature node
    (adjacent to vertices[0]) matches y_ref; a caller that transports y_ref
    continuously between nearby fibers therefore integrates homologous cycles
    on matching sheets.  The traversal order of the vertices carries the
    orientation.
    """
    fpoly = _as_poly(f)
    spec = polyline(vertices)
    y0 = complex(y_ref)
    if y0 == 0.0:
        raise ValidationError("y_ref must be a nonzero square root of f")
    vals, _, _ = _anchored_values(
        fpoly, spec, tuple(differentials), tol, lambda x, fv: (0, y0)
    )
    return vals


def basis_contours(config: BranchConfig):
    """Realized contours for (gamma_1..gamma_{g+1}, delta_1..delta_g)."""
    g = config.g
    specs = [config.pairing[j] for j in range(g + 1)]
    specs += [
        (config.pairing[j][1], config.pairing[j + 1][0]) for j in range(g)
    ]
    return [pair_loop(config.roots, pair) for pair in specs]


def _vertex_sqrt(fpoly, x):
    """Square root of f pinned at a polygon's first vertex x.

    The principal root, except where f(x) lies on the negative real axis up
    to rounding (as at conjugate-symmetric fibers): there the principal
    root's sign follows a last-bit imaginary part, so the root with Im y > 0
    is taken.
    """
    fv = complex(fpoly(complex(x)))
    y = complex(np.sqrt(fv))
    if fv.real < 0.0 and abs(fv.imag) <= 1e-12 * abs(fv) and y.imag < 0.0:
        y = -y
    return y


def _sides(p, q):
    """(q[j+1] - q[j]) x (p[i] - q[j]) over points p and closed polygon q."""
    d = np.roll(q, -1) - q
    return d.real * (p.imag[:, None] - q.imag) - d.imag * (p.real[:, None] - q.real)


def _lift_at(fpoly, verts, y_ref, u):
    """Square root at path parameters u (edge index + fraction) of a polygon.

    The root is continued from y_ref at verts[0] along the polygon's own
    edges, 8 samples on each to start; an edge doubles its samples while
    a step on it is ambiguous, so only the edges that pass close to a
    branch point are sampled finely.
    """
    d = np.concatenate((verts[1:], verts[:1])) - verts
    counts = np.full(int(np.max(u)) + 1, 8)
    while True:
        edge = np.repeat(np.arange(len(counts)), counts)
        step = np.arange(len(edge)) - np.repeat(np.cumsum(counts) - counts, counts)
        path = np.concatenate((edge + step / counts[edge], u))
        order = np.argsort(path, kind="stable")
        k = path.astype(int)
        x = verts[k] + (path - k) * d[k]
        y, q = _lift_steps(fpoly(x[order]), y_start=y_ref)
        bad = k[order[:-1]][q >= _AMBIGUITY_LIMIT**2]  # edges of ambiguous steps
        if not len(bad):
            return y[np.argsort(order)][-len(u) :]
        counts[np.bincount(bad, minlength=len(counts)) > 0] *= 2
        if np.max(counts) > _MAX_EDGE_NODES:
            raise QuadratureError("ambiguous lift while locating a crossing")


def realized_intersection(f, poly_a, poly_b) -> int:
    """Signed same-sheet crossing count of two closed polygons.

    A pinned polygon is (vertices, y_ref): the vertex order carries the
    orientation and y_ref is the square root at vertices[0].  Two edges
    cross when each one's endpoints lie strictly on opposite sides of the
    other's line; a vertex on the other polygon, or an overlap of collinear
    edges, raises QuadratureError.  A crossing counts, with sign +1 when
    (edge of a, edge of b) is a positive frame, when the lifts of both
    polygons, each continued from its own y_ref along its own edges, land
    on the same sheet there.
    """
    fpoly = _as_poly(f)
    a, b = (np.asarray(c[0], dtype=complex) for c in (poly_a, poly_b))
    sa = _sides(a, b)  # [i, j]: vertex i of a against edge j of b
    sb = _sides(b, a).T  # [i, j]: vertex j of b against edge i of a
    ca = np.sign(sa) * np.sign(np.roll(sa, -1, axis=0))
    cb = np.sign(sb) * np.sign(np.roll(sb, -1, axis=1))
    for i, j in zip(*np.nonzero((ca <= 0) & (cb <= 0) & (ca * cb == 0))):
        i1 = (i + 1) % len(a)
        if sa[i, j] == sa[i1, j] == 0.0:
            # collinear edges meet only where their spans overlap
            d = a[i1] - a[i]
            t = [((p - a[i]) * d.conjugate()).real for p in b[[j, (j + 1) % len(b)]]]
            if max(t) < 0.0 or min(t) > abs(d) ** 2:
                continue
        raise QuadratureError("contours touch at a vertex or along an edge")
    ei, ej = np.nonzero((ca < 0) & (cb < 0))
    if not len(ei):
        return 0
    s = sa[ei, ej] / (sa[ei, ej] - sa[(ei + 1) % len(a), ej])
    t = sb[ei, ej] / (sb[ei, ej] - sb[ei, (ej + 1) % len(b)])
    ya = _lift_at(fpoly, a, complex(poly_a[1]), ei + s)
    yb = _lift_at(fpoly, b, complex(poly_b[1]), ej + t)
    da, db = (np.roll(a, -1) - a)[ei], (np.roll(b, -1) - b)[ej]
    turn = np.where(da.real * db.imag - da.imag * db.real > 0.0, 1, -1)
    return int(np.sum(turn[np.abs(ya - yb) < np.abs(ya + yb)]))


def normalized_basis_contours(f, polygons):
    """Basis polygons with orientations fixed against the intersection form.

    polygons are the pinned (vertices, y_ref) polygons of
    (gamma_1..gamma_{g+1}, delta_1..delta_g).  Crossing numbers measured
    along the chain gamma_1, delta_1, ..., delta_g, gamma_{g+1} give each
    polygon the sign that makes <gamma_j, delta_j> and <gamma_{j+1},
    delta_j> canonical; a polygon whose sign is -1 comes back with every
    vertex but vertex 0 reversed, so its y_ref still holds.  The global sign
    cannot affect a monodromy matrix.  Every other pair of the oriented
    polygons must then have crossing number 0, as in the canonical form (a
    pairing whose chords cross breaks it); QuadratureError names the first
    pair that does not.
    """
    fpoly = _as_poly(f)
    polygons = [(np.asarray(v, dtype=complex), complex(y)) for v, y in polygons]
    g = (len(polygons) - 1) // 2
    eps = [0] * (2 * g + 1)
    eps[0] = 1
    for j in range(1, g + 1):
        gi, di = j - 1, g + j
        s = realized_intersection(fpoly, polygons[gi], polygons[di])
        s2 = realized_intersection(fpoly, polygons[j], polygons[di])
        if abs(s) != 1 or abs(s2) != 1:
            raise QuadratureError(
                f"unexpected crossing counts {s}, {s2} between basis contours"
            )
        eps[di] = _GAMMA_DELTA_SAME * eps[gi] * s
        eps[j] = _GAMMA_DELTA_NEXT * eps[di] * s2
    oriented = [
        (v if e == 1 else np.concatenate((v[:1], v[:0:-1])), y)
        for (v, y), e in zip(polygons, eps)
    ]
    # the form's nonzero entries are the chain pairs, canonical by now
    omega, labels = _intersection_matrix(g), cycle_labels(g)
    for a, b in combinations(range(2 * g + 1), 2):
        if omega[a, b] == 0:
            s = realized_intersection(fpoly, oriented[a], oriented[b])
            if s != 0:
                raise QuadratureError(
                    f"basis contours {labels[a]} and {labels[b]} cross {s} "
                    "times, where the intersection form has 0"
                )
    return oriented


class _PointRecord:
    """The quartic of one chart point, with its cold roots (which
    _vanishing_pair and residue_check read) and the exact Sturm verdict
    (which both action routes check), each computed on first use.  A fact
    that raises is not kept, so it raises again on the next read."""

    def __init__(self, quartic):
        self.quartic = quartic

    @functools.cached_property
    def roots(self):
        return tuple(poly_roots(self.quartic))

    @functools.cached_property
    def has_real_roots(self):
        return real_root_count(self.quartic) > 0


@functools.lru_cache(maxsize=1)  # serves the calls made at one point back to back
def _point_record(bits):
    return _PointRecord(
        quartic_poly([complex(float.fromhex(re), float.fromhex(im)) for re, im in bits])
    )


def _point(a):
    """The record of the chart point a, the last point's record kept.

    It is keyed by the bits of each coordinate's real and imaginary parts,
    which is what quartic_poly reads: tuple equality would take -0.0 for
    0.0, and an ndarray is not hashable.
    """
    return _point_record(tuple((z.real.hex(), z.imag.hex()) for z in map(complex, a)))


def residue_check(a, tol: float = 1e-10) -> float:
    """Defect |I + i*pi*a1| of the loop-at-infinity integral of y dx/x^2.

    The class at infinity is realized as a negatively oriented big loop
    around every branch point, lifted to the reference sheet (anchored where
    it crosses the real axis right of every branch point), where the
    integral must equal -i*pi*a1 exactly.  The loop's radius is 2 rho + 1,
    rho the farthest of the roots and the origin from the roots' mean, so
    its 16 edges keep 0.481 R from every singularity at half-length 0.195 R
    (Bernstein parameter 5.12: 12 nodes per edge reach about 1e-17), and the
    anchor node sits 0.0035 R off the real axis, inside the anchor's
    threshold of at least 0.005 R + 0.015.  The quartic and its roots come
    from the point's record, which the action routes share; the check never
    runs the Sturm count.
    """
    point = _point(a)
    loop = big_loop(point.roots, orientation=-1)
    vals, _, _ = _anchored_values(
        point.quartic, loop, ("y dx/x^2",), tol, _real_axis_anchor
    )
    return abs(complex(vals[0]) + 1j * math.pi * a[0])


# Below the double pair the roots and x* lie within about |a1 - a3| of the
# unit circle, so next to the plane the side test rounds either way; within
# this band of the plane the pair nearest x* is read instead.
_PLANE_BAND = 1e-8


def _palindromic(a1, a3):
    """a1 = a3, exactly: above the double pair a point off the plane, however
    close, must not read the stratum pair.

    On the plane the quartic is palindromic, its roots come as r, conj(r),
    1/r, 1/conj(r), and real a2 = 2 + a3^2/4 gives the complex double pair
    (x^2 + (a3/2) x + 1)^2 when |a3| < 4: the one place where lowering a2
    can bring two branch points together off the real axis.
    """
    return a1 == a3


def _a2_deformation_path(a1, a2, a3):
    """(a2_low, x*) of the downward a2 deformation at fixed (a1, a3).

    a2_low is the a2 value where the quartic first touches the real axis,
    with a real double root at the touch point x*.
    """
    # a real double root x sits at the critical points of
    # -(x^4 + a1 x^3 + a3 x + 1)/x^2, which are the points of the section
    # Delta_{a3} with this a1; the first touch has the largest a2 among them
    h = ComplexPoly.of((-2.0, -a3, 0.0, a1, 2.0))
    crit = [r.real for r in poly_roots(h) if abs(r.imag) < 1e-9 and abs(r.real) > 1e-9]
    if not crit:
        raise DegenerateInputError("no real touch point for the a2 deformation")
    x_star = max(crit, key=lambda x: delta_c_section(a3, x)[1])
    a2_low = delta_c_section(a3, x_star)[1]
    if a2 - a2_low < 1e-7 * max(1.0, abs(a2)):
        raise NearDiscriminantError("parameters lie on or near the discriminant")
    return a2_low, x_star


def _action_quartic(a):
    """The record of an action point that is finite and in component C,
    which both action routes check here before any root finding; the finite
    check runs on every call, as its message shows the caller's values."""
    _finite("action point", *a)
    point = _point(a)
    if point.has_real_roots:
        raise ValidationError("parameters are outside component C (real roots)")
    return point


def _on_double_pair(a1, a2, a3):
    """Whether a point of C is the complex double pair, exactly.

    A quartic with f(0) = 1, no real root and a repeated root is
    (x^2 + p x + 1)^2, so a1 = a3 = 2p and a2 = 2 + p^2.  So the test is
    4 a2 = 8 + a3^2, in integers from the coordinates' exact ratios, which
    has_repeated_root would decide the same way.
    """
    if not _palindromic(a1, a3):
        return False
    (n2, d2), (n3, d3) = (float(v).as_integer_ratio() for v in (a2, a3))
    return 4 * n2 * d3 * d3 == d2 * (8 * d3 * d3 + n3 * n3)


def _vanishing_pair(a, point=None):
    """Roots of the action quartic, the cycle-defining pair, and whether a
    lies on the palindromic stratum.

    The cycle vanishes when a2 is lowered at fixed (a1, a3) to a2_low, where
    a conjugate pair meets at the real touch point x*.  The roots are r,
    conj(r), s, conj(s) with |r| |s| = 1 (f is monic with f(0) = 1), and
    Im e^{-2it} f(e^{it}) = (a1 - a3) sin t, so off the plane a1 = a3 no
    root crosses the unit circle as a2 falls and x* is off it: the pair is
    the conjugate pair on x*'s side.  On the plane below the double pair at
    a2 = 2 + a3^2/4, every root and x* = +-1 lie on the circle, and the
    pair is the one nearest x*; so it is within _PLANE_BAND of the plane,
    where the side test is decided by rounding.  On the stratum (the plane,
    with a2_low < 2 + a3^2/4 < a2) the deformation passes the double pair
    through complex a2 and ends on a mixed pair either way round; the
    cycle's value is the average of the two images, the loop around the
    conjugate pair inside the unit circle (upper root first).  At the
    complex double pair itself the branch points meet in two pairs, so no
    pair loop exists, and the point is refused as degenerate.  A caller that
    holds the record of _action_quartic(a) passes it as point.
    """
    point = point or _action_quartic(a)
    a1, a2, a3 = a
    if _on_double_pair(a1, a2, a3):
        raise DegenerateInputError("parameters are on the complex double pair (repeated root)")
    rs = point.roots
    a2_low, x_star = _a2_deformation_path(a1, a2, a3)
    double = complex_double_pair_a2(a3)
    stratum = _palindromic(a1, a3) and double is not None and a2_low < double < a2
    upper = [k for k in range(len(rs)) if rs[k].imag > 0.0]
    if stratum:
        if a2 - double < 0.01 * (a2 - a2_low):
            raise NearDiscriminantError("parameters are too close to the discriminant")
        i = min(upper, key=lambda k: abs(rs[k]))
    elif double is not None and a2 < double and abs(a1 - a3) <= _PLANE_BAND:
        i = min(upper, key=lambda k: abs(rs[k] - x_star))
    else:
        side = [k for k in upper if (abs(rs[k]) < 1.0) == (abs(x_star) < 1.0)]
        if len(side) != 1:
            raise DegenerateInputError("no single pair on the touch point's side")
        i = side[0]
    j = min(
        (k for k in range(len(rs)) if rs[k].imag < 0.0),
        key=lambda k: abs(rs[k] - rs[i].conjugate()),
    )
    return rs, ((i, j) if stratum else tuple(sorted((i, j)))), stratum


def _sheet_sign_at_origin(fpoly, x, y):
    """Continue an anchored lift from its node nearest the origin to x = 0.

    Returns the sign s with y(0) = s * sqrt(f(0)) for positive sqrt; the
    constant coefficient of fpoly must be 1 (so y(0) = +-1).
    """
    j = int(np.argmin(np.abs(x)))
    y0 = _lift_at(fpoly, np.array([x[j], 0j]), y[j], np.array([1.0]))[0]
    return 1 if y0.real > 0.0 else -1


def action_I1(a, A: float = 1.0) -> float:
    """Action integral I1 = (A i/2pi) * integral of y dx/x^2 over gamma_1.

    gamma_1 is realized as a negatively oriented loop around the conjugate
    pair that _vanishing_pair reads off the base roots (|r| |s| = 1 sorts
    them by the unit circle), with the lift positive where the loop crosses
    the real axis.  The loop keeps clear of the origin pole when it fits,
    except on the palindromic stratum, where the plain loop is kept (loops
    that avoid the origin there move the value by up to about 1e-10 and
    can fail quadrature).  A loop that winds the origin loses the pole's
    residue, with the sheet sign measured by continuing the lift to x = 0;
    a loop fitted to avoid the origin keeps it outside the 1.2-times scaled
    ellipse, so its winding count is 0 and is not taken.  The point's
    record, shared with action_I1_cubic and residue_check at the same point,
    holds the Sturm count, the quartic and its roots; it is fetched once.
    A must be finite.
    """
    _finite("area A", A)
    point = _action_quartic(a)
    rs, pair, stratum = _vanishing_pair(a, point)
    fpoly = point.quartic
    avoid = () if stratum else (0.0,)
    try:
        loop = pair_loop(rs, pair, orientation=-1, avoid=avoid)
    except DegenerateInputError:
        loop, avoid = pair_loop(rs, pair, orientation=-1), ()
    vals, x, y = _anchored_values(
        fpoly, loop, ("y dx/x^2",), 1e-10, _real_axis_anchor
    )
    out = (A * 1j / (2.0 * math.pi)) * complex(vals[0])
    if not avoid and _winding_numbers(loop._edges[0], (0.0,))[0] != 0 and abs(a[2]) > 1e-13:
        out -= A * _sheet_sign_at_origin(fpoly, x, y) * 0.5 * a[2]
    if abs(out.imag) > 1e-9 * max(1.0, abs(out)):
        raise QuadratureError("action integral has a nonreal value")
    return out.real


def _carlson(y, z, ps):
    """R_F(0, y, z) and R_J(0, y, z, p) for p = y, z and each p in ps (> 0).

    Carlson's duplication (Numer. Algorithms 10, 1995; DLMF 19.36(i)) moves
    0, y, z and the p together until they agree to 1e-3, each R_J summing
    4^-m R_C(1, 1 + e_m)/d_m on the way; 3 R_F = y R_J(y) + z R_J(z).
    """
    vs, tails, scale = [0.0, y, z, y, z, *ps], [0.0] * (len(ps) + 2), 1.0
    while max(vs) - min(vs) > 1e-3 * min(vs):
        sx, sv, sw, *sp = map(math.sqrt, vs)
        for i, s in enumerate(sp):
            d = (s + sx) * (s + sv) * (s + sw)
            # e = (p - x)(p - y)(p - z)/d^2, one factor at a time: p^3 overflows
            e = (s - sx) / (s + sx) * (s - sv) / (s + sv) * (s - sw) / (s + sw)
            t = math.sqrt(abs(e))  # R_C(1, 1 + e) is atan(t)/t or atanh(t)/t
            rc = (math.atan(t) if e > 0.0 else math.atanh(t)) / t if t else 1.0
            tails[i] += scale * rc / d
        lam = sx * sv + sx * sw + sv * sw
        vs, scale = [0.25 * (u + lam) for u in vs], 0.25 * scale
    (x, v, w, *pp), rjs = vs, []
    for p, tail in zip(pp, tails):
        mean = (x + v + w + 2.0 * p) / 5.0
        X, Y, Z, P = [1.0 - u / mean for u in (x, v, w, p)]
        xyz, e2 = X * Y * Z, X * Y + X * Z + Y * Z - 3.0 * P * P
        e3, e4 = xyz + 2.0 * e2 * P + 4.0 * P**3, (2.0 * xyz + e2 * P + 3.0 * P**3) * P
        series = 1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
        series -= 3.0 * e4 / 22.0 + 9.0 * e2 * e3 / 52.0 - 3.0 * xyz * P * P / 26.0
        rjs.append(scale * series / (mean * math.sqrt(mean)) + 6.0 * tail)
    return (y * rjs[0] + z * rjs[1]) / 3.0, rjs


def action_I1_cubic(a, A: float = 1.0) -> float:
    """Action integral through the real cubic form, in closed form.

    I1 = (A/pi) * integral over [u1, u2] of sqrt(g(u))/(1-u^2) du, where
    g(u) = 2u^3 - a2 u^2 + (a1 a3/2 - 2) u + a2 - (a1^2+a3^2)/4 = 2G with
    G = (u - u1)(u2 - u)(u3 - u), and g/(1-u^2) = a2 - 2u - c+/(1-u) -
    c-/(1+u) with c_s = (a1 - s a3)^2/8.  With y = u3 - u2, z = u3 - u1 and
    R_J(p) = R_J(0, y, z, p), int du/sqrt(G) = 2 R_F(0, y, z), int (u3 - u)
    du/sqrt(G) = (2/3) y z (R_J(y) + R_J(z)) and int du/(|s - u| sqrt(G)) =
    (2 R_F + (2/3)(y - q) R_J(q))/|s - u2|, q = y |s - u1|/|s - u2| (DLMF
    19.29).  c_s = -g(s)/2 is the product of the pole's three root gaps;
    the smallest, which can be below the roots' rounding, is taken from c_s
    and the other two.  A pole whose q is 0 or overflows (c_s below about
    1e-300) drops out, as its term is at most about pi sqrt(c_s).  Points
    outside component C are refused as in action_I1, by the Sturm count of
    the point's record, which action_I1 and residue_check share.  A must be
    finite.
    """
    _finite("area A", A)
    _action_quartic(a)
    a1, a2, a3 = a
    g = ComplexPoly.of((a2 - 0.25 * (a1 * a1 + a3 * a3), 0.5 * a1 * a3 - 2.0, -a2, 2.0))
    rs = poly_roots(g, tol=1e-13)
    scale = max(1.0, max(abs(r) for r in rs))
    real = sorted(r.real for r in rs if abs(r.imag) < 1e-9 * scale)
    if len(real) != 3:
        # a double root can come back as a complex pair about 1e-7 apart
        if has_repeated_root(g):
            raise DegenerateInputError("cubic form has a repeated root")
        raise DegenerateInputError("cubic form does not have three real roots")
    u1, u2, u3 = real
    if not (u2 - u1 > 1e-12 and u3 - u2 > 1e-12):
        raise DegenerateInputError("cubic form has a repeated root")
    y, z = u3 - u2, u3 - u1
    poles = []  # (q, |s - u1| |s - u3|) of each pole kept
    for s in (1.0, -1.0):
        d = [abs(s - u) for u in real]  # the root gaps |s - u_k|
        k = d.index(min(d))
        d[k] = (a1 - s * a3) ** 2 / 8.0 / (d[k - 1] * d[k - 2])
        q = y * d[0] / d[1] if d[1] > 0.0 else math.inf
        if 0.0 < q < math.inf:
            poles.append((q, d[0] * d[2]))
    rf, (ry, rz, *rjs) = _carlson(y, z, [q for q, _ in poles])
    total = 2.0 * (a2 - 2.0 * u3) * rf + (4.0 / 3.0) * y * z * (ry + rz)
    for (q, gaps), rj in zip(poles, rjs):
        total -= gaps * (2.0 * rf + (2.0 / 3.0) * (y - q) * rj)
    return A / (math.pi * math.sqrt(2.0)) * total
