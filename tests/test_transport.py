"""The array cable transport against the scalar per-vertex reference.

The reference functions below are the original loop implementations of the
cable upkeep in tracking.py, kept verbatim; they work on one cable at a time.
The library carries all cables as one bundle, so each cable's segment of the
bundle must agree with the reference run on that cable alone, bit for bit
(vertices compared through float.hex), because the transported polygons feed
the period fit whose residuals are reported.
"""

import math

import numpy as np
import pytest

from topmonodromy.periods import _leggauss, polyline
from topmonodromy.poly import ComplexPoly
from topmonodromy.tracking import (
    _BLEND,
    _EDGE_CLEAR,
    _PUSH_TARGET,
    _SIMPLIFY_AT,
    _Bundle,
    _continue_sqrt,
    _maintain_bundle,
    _segment_distances,
    _simplify_bundle,
    _simplify_cable,
    _winding_numbers,
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


def _in_triangle(a, b, c, p):
    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    s1 = cross(b - a, p - a)
    s2 = cross(c - b, p - b)
    s3 = cross(a - c, p - c)
    has_neg = s1 < 0.0 or s2 < 0.0 or s3 < 0.0
    has_pos = s1 > 0.0 or s2 > 0.0 or s3 > 0.0
    return not (has_neg and has_pos)


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


def _simplify_cable_ref(verts, rs, margin):
    changed = True
    while len(verts) > _SIMPLIFY_AT and changed:
        changed = False
        keep = [True] * len(verts)
        i = 1
        while i < len(verts):
            a = verts[i - 1]
            v = verts[i]
            b = verts[(i + 1) % len(verts)]
            safe = all(
                _segment_point_distance(a, b, r) >= 1.05 * margin
                and not _in_triangle(a, v, b, r)
                for r in rs
            )
            if safe:
                keep[i] = False
                changed = True
                i += 2
            else:
                i += 1
        verts = [v for v, k in zip(verts, keep) if k]
    return verts


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


@pytest.mark.parametrize("seed", range(24))
def test_maintain_cable_is_bit_identical(seed):
    rs, margin, verts, y_ref, fpoly = _scene(seed, 40)
    ref = _maintain_cable_ref(_Cable(verts, y_ref, (1,)), rs, margin, fpoly)
    got = _maintain_bundle(_one(np.array(verts), y_ref, [(1,)]), rs, margin, fpoly)
    assert (ref is None) == (got is None)
    if ref is None:
        return
    assert _hex(got.verts) == _hex(ref.verts)
    assert got.starts.tolist() == [0]
    assert got.y_ref[0] == ref.y_ref
    assert got.y_ref[0] != y_ref
    assert got.windings == [(1,)]


def _upkeep_cases(verts, rs, margin):
    """The cases a full re-scan of one cable meets, round by round.

    Replays _maintain_cable_ref's rounds on the vertices alone and returns
    the set of cases seen: "vertex 0 pushed" (in round 1), "midpoint pushed"
    (in the round after its insertion), "4+ rounds" (rounds run, counting
    the one that finds nothing to do), "8 rounds" (a call that ends clean in
    its last round) and "push in round 8" (a last round that only pushes,
    which fails the call).  The incremental upkeep tests only the midpoints
    of the round before and their edges, so these are the cases where it
    could part from the full re-scan.
    """
    verts = list(verts)
    born = [0] * len(verts)  # the round that inserted each vertex
    cases = set()
    for k in range(1, 9):
        pushed = split = False
        for i, v in enumerate(verts):
            for r in rs:
                d = abs(v - r)
                if d < margin:
                    if d == 0.0:
                        return cases
                    verts[i] = r + (v - r) * (_PUSH_TARGET * margin / d)
                    if i == 0 and k == 1:
                        cases.add("vertex 0 pushed")
                    if k > 1 and born[i] == k - 1:
                        cases.add("midpoint pushed")
                    pushed = True
                    break
        refined, refined_born = [], []
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            refined.append(a)
            refined_born.append(born[i])
            if any(
                _segment_point_distance(a, b, r) < _EDGE_CLEAR * margin for r in rs
            ):
                refined.append(0.5 * (a + b))
                refined_born.append(k)
                split = True
        verts, born = refined, refined_born
        if k >= 4:
            cases.add("4+ rounds")
        if not (pushed or split):
            if k == 8:
                cases.add("8 rounds")
            return cases
    if pushed and not split:
        cases.add("push in round 8")
    return cases


# _scene seeds that between them reach every case of _upkeep_cases; seed 0
# is among test_maintain_cable_is_bit_identical's, the others are checked
# against the reference below
UPKEEP_SEEDS = (0, 80, 136)


def test_upkeep_seeds_reach_every_case():
    seen = set()
    for seed in UPKEEP_SEEDS:
        rs, margin, verts, _, _ = _scene(seed, 40)
        seen |= _upkeep_cases(verts, rs, margin)
    assert seen == {
        "vertex 0 pushed",
        "midpoint pushed",
        "4+ rounds",
        "8 rounds",
        "push in round 8",
    }


@pytest.mark.parametrize("seed", UPKEEP_SEEDS[1:])
def test_incremental_upkeep_matches_the_full_rescan(seed):
    rs, margin, verts, y_ref, fpoly = _scene(seed, 40)
    ref = _maintain_cable_ref(_Cable(verts, y_ref), rs, margin, fpoly)
    got = _maintain_bundle(_one(np.array(verts), y_ref), rs, margin, fpoly)
    assert (ref is None) == (got is None)
    if ref is not None:
        assert _hex(got.verts) == _hex(ref.verts)
        assert got.y_ref[0] == ref.y_ref


def test_maintain_cable_scenes_mostly_succeed():
    ok = 0
    for seed in range(24):
        rs, margin, verts, y_ref, fpoly = _scene(seed, 40)
        ok += _maintain_bundle(_one(verts, y_ref), rs, margin, fpoly) is not None
    assert ok >= 16


def test_maintain_cable_keeps_its_input():
    rs, margin, verts, y_ref, fpoly = _scene(0, 40)
    before = np.array(verts)
    bundle = _one(before.copy(), y_ref)
    _maintain_bundle(bundle, rs, margin, fpoly)
    assert _hex(bundle.verts) == _hex(before)
    assert bundle.y_ref.tolist() == [y_ref]


@pytest.mark.parametrize("seed", range(12))
def test_simplify_cable_is_bit_identical(seed):
    rs, margin, verts, _, _ = _scene(seed, 3 * _SIMPLIFY_AT)
    verts = verts[1:]
    ref = _simplify_cable_ref(list(verts), rs, margin)
    got = _simplify_cable(np.array(verts), rs, margin)
    assert _hex(got) == _hex(ref)
    assert len(ref) < len(verts)


def test_simplify_bundle_simplifies_each_long_cable():
    rs, margin, verts, _, _ = _scene(5, 3 * _SIMPLIFY_AT)
    polygons = [verts[1:], verts[1:40], verts[2:]]
    windings = np.array([[1], [0], [-1]])
    bundle = _Bundle.of(polygons, [1j, 2j, 3j], windings)
    got = _simplify_bundle(bundle, rs, margin)
    ends = list(got.starts[1:]) + [len(got.verts)]
    refs = [_simplify_cable_ref(list(p), rs, margin) for p in polygons]
    assert [len(r) < len(p) for r, p in zip(refs, polygons)] == [True, False, True]
    for a, b, ref in zip(got.starts, ends, refs):
        assert _hex(got.verts[a:b]) == _hex(ref)
    assert got.y_ref.tolist() == [1j, 2j, 3j]
    assert got.windings is windings


def test_simplify_leaves_small_cables_alone():
    rs, margin, verts, _, _ = _scene(3, _SIMPLIFY_AT)
    got = _simplify_cable(np.array(verts), rs, margin)
    assert _hex(got) == _hex(verts)


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
@pytest.mark.parametrize("seed", range(8))
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


@pytest.mark.parametrize("n", [24 << k for k in range(7)] + [2048])
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
