"""The array cable transport against the scalar per-vertex reference.

The reference functions below are the original loop implementations of the
cable upkeep in tracking.py, kept verbatim.  The array versions must agree
with them bit for bit (vertices compared through float.hex), because the
transported polygons feed the period fit whose residuals are reported.
"""

import math

import numpy as np
import pytest

from topmonodromy.poly import ComplexPoly
from topmonodromy.tracking import (
    _EDGE_CLEAR,
    _PUSH_TARGET,
    _SIMPLIFY_AT,
    _Cable,
    _continue_sqrt,
    _maintain_cable,
    _segment_distances,
    _simplify_cable,
    _winding_numbers,
)


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
    got = _maintain_cable(_Cable(np.array(verts), y_ref, (1,)), rs, margin, fpoly)
    assert (ref is None) == (got is None)
    if ref is None:
        return
    assert _hex(got.verts) == _hex(ref.verts)
    assert got.y_ref == ref.y_ref
    assert got.y_ref != y_ref
    assert got.windings == (1,)


def test_maintain_cable_scenes_mostly_succeed():
    ok = 0
    for seed in range(24):
        rs, margin, verts, y_ref, fpoly = _scene(seed, 40)
        cable = _Cable(np.array(verts), y_ref)
        ok += _maintain_cable(cable, rs, margin, fpoly) is not None
    assert ok >= 16


def test_maintain_cable_keeps_its_input():
    rs, margin, verts, y_ref, fpoly = _scene(0, 40)
    before = np.array(verts)
    cable = _Cable(before.copy(), y_ref)
    _maintain_cable(cable, rs, margin, fpoly)
    assert _hex(cable.verts) == _hex(before)


@pytest.mark.parametrize("seed", range(12))
def test_simplify_cable_is_bit_identical(seed):
    rs, margin, verts, _, _ = _scene(seed, 3 * _SIMPLIFY_AT)
    verts = verts[1:]
    ref = _simplify_cable_ref(list(verts), rs, margin)
    got = _simplify_cable(np.array(verts), rs, margin)
    assert _hex(got) == _hex(ref)
    assert len(ref) < len(verts)


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
    assert _winding_numbers(np.array(verts), probes) == want
    assert _winding_numbers(np.array(verts[::-1]), probes) == tuple(-w for w in want)
