"""Integer homology bookkeeping on the affine hyperelliptic curve y^2 = f(x).

Basis convention: the 2g+2 branch points are paired into g+1 disjoint cuts;
gamma_j is a positively oriented loop around cut j (cuts ordered by real part
of their midpoint), and delta_j is a loop around the gap pair {second point
of cut j, first point of cut j+1}.  The class gamma_inf of a large loop
around every branch point satisfies gamma_inf = -(gamma_1 + ... +
gamma_{g+1}).  The reference sheet is fixed by y ~ +x^{g+1} as x -> +infinity.

The sign constants of the intersection form below were frozen by computing
signed crossing numbers of the realized contours on explicit curves; see the
intersection tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DegenerateInputError, ValidationError

# <gamma_j, delta_j> and <gamma_{j+1}, delta_j>; all other basis pairs are 0
_GAMMA_DELTA_SAME = 1
_GAMMA_DELTA_NEXT = -1
# c -> c + PL_SIGN * orientation * <c, v> * v for a positively oriented loop
_PL_SIGN = -1


def _segment_distance(a1, a2, b1, b2):
    """Distance between two closed segments in the complex plane."""

    def point_seg(p, s1, s2):
        d = s2 - s1
        den = abs(d) ** 2
        if den == 0.0:
            return abs(p - s1)
        t = ((p - s1) * d.conjugate()).real / den
        t = min(1.0, max(0.0, t))
        return abs(p - (s1 + t * d))

    def orient(p, q, r):
        return ((q - p) * (r - p).conjugate()).imag

    # proper crossing test
    d1, d2 = orient(b1, b2, a1), orient(b1, b2, a2)
    d3, d4 = orient(a1, a2, b1), orient(a1, a2, b2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return 0.0
    return min(
        point_seg(a1, b1, b2),
        point_seg(a2, b1, b2),
        point_seg(b1, a1, a2),
        point_seg(b2, a1, a2),
    )


@dataclass(frozen=True)
class BranchConfig:
    """Labeled branch points with a canonical disjoint-cut pairing."""

    roots: tuple
    pairing: tuple
    conjugate: bool
    fallback: bool

    @property
    def g(self):
        return len(self.pairing) - 1

    def pair_points(self, j):
        i, k = self.pairing[j]
        return self.roots[i], self.roots[k]

    def gap_points(self, j):
        """The gap pair encircled by delta_j: second of cut j, first of cut j+1."""
        return self.roots[self.pairing[j][1]], self.roots[self.pairing[j + 1][0]]


def _pair_sort_key(roots, pair):
    mid = 0.5 * (roots[pair[0]] + roots[pair[1]])
    return (mid.real, mid.imag)


def _order_pairing(roots, pairs):
    ordered = []
    for i, k in pairs:
        a, b = roots[i], roots[k]
        if (a.imag, a.real) <= (b.imag, b.real):
            ordered.append((i, k))
        else:
            ordered.append((k, i))
    ordered.sort(key=lambda pr: _pair_sort_key(roots, pr))
    return tuple(ordered)


def _all_matchings(indices):
    if not indices:
        yield ()
        return
    first = indices[0]
    for pos in range(1, len(indices)):
        partner = indices[pos]
        rest = indices[1:pos] + indices[pos + 1 :]
        for tail in _all_matchings(rest):
            yield ((first, partner),) + tail


def _min_separation(pts):
    """The least distance between two of the points."""
    return min(abs(a - b) for a, b in combinations(pts, 2))


def _clear(roots, segments, margin):
    """Whether every two segments (pairs of root indices) that share no end
    keep more than margin apart.  A branch point k enters as (k, k)."""
    return all(
        _segment_distance(roots[a], roots[b], roots[c], roots[d]) > margin
        for (a, b), (c, d) in combinations(segments, 2)
        if not {a, b} & {c, d}
    )


def build_basis(roots, g, tol=1e-9) -> BranchConfig:
    """Canonical disjoint-cut pairing of 2g+2 labeled branch points.

    Conjugate pairs ordered by real part when they exist and give disjoint
    vertical cuts; otherwise the shortest disjoint-cut matching, preferring
    those whose gamma and delta chords all keep a margin from the other
    branch points and from each other (a chord that another one crosses
    breaks the canonical intersection form).  Real roots force a
    lexicographic consecutive pairing with the fallback flag set.
    """
    pts = tuple(complex(r) for r in roots)
    if len(pts) != 2 * g + 2:
        raise ValidationError(f"need {2 * g + 2} branch points, got {len(pts)}")
    scale = max(1.0, max(abs(p) for p in pts))
    min_sep = _min_separation(pts)
    if min_sep <= tol * scale:
        raise DegenerateInputError(
            f"branch points collide: min separation {min_sep:.3e}"
        )
    real_tol = max(tol * scale, 1e-12)
    if any(abs(p.imag) <= real_tol for p in pts):
        order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
        pairs = tuple((order[2 * j], order[2 * j + 1]) for j in range(g + 1))
        return BranchConfig(
            roots=pts, pairing=_order_pairing(pts, pairs), conjugate=False, fallback=True
        )
    upper = [i for i in range(len(pts)) if pts[i].imag > 0.0]
    lower = [i for i in range(len(pts)) if pts[i].imag < 0.0]
    margin = 0.25 * min_sep
    if len(upper) == len(lower):
        used = set()
        conj_pairs = []
        good = True
        for i in sorted(upper, key=lambda i: (pts[i].real, pts[i].imag)):
            best, best_d = None, math.inf
            for j in lower:
                if j in used:
                    continue
                d = abs(pts[j] - pts[i].conjugate())
                if d < best_d:
                    best, best_d = j, d
            if best is None or best_d > 0.25 * min_sep:
                good = False
                break
            used.add(best)
            conj_pairs.append((i, best))
        if good and _clear(pts, conj_pairs, margin):
            return BranchConfig(
                roots=pts,
                pairing=_order_pairing(pts, conj_pairs),
                conjugate=True,
                fallback=False,
            )
    # nested or skew configurations: shortest disjoint-cut matching, among
    # those whose chords, the delta ones included, keep clear of the other
    # branch points and chords when there are any
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
    disjoint = [m for m in _all_matchings(tuple(order)) if _clear(pts, m, margin)]
    dots = [(k, k) for k in range(len(pts))]
    clear = []
    for m in disjoint:
        p = _order_pairing(pts, m)  # the gamma chords, then the delta chords
        if _clear(pts, [*p, *((p[j][1], p[j + 1][0]) for j in range(g)), *dots], margin):
            clear.append(m)
    best_pairs, best_len = None, math.inf
    for matching in clear or disjoint:
        total = sum(abs(pts[i] - pts[k]) for i, k in matching)
        if total < best_len - 1e-12 * scale:
            best_pairs, best_len = matching, total
    if best_pairs is None:
        raise DegenerateInputError("no disjoint cut system at this tolerance")
    return BranchConfig(
        roots=pts,
        pairing=_order_pairing(pts, best_pairs),
        conjugate=False,
        fallback=False,
    )


def cycle_labels(g):
    return [f"gamma{j}" for j in range(1, g + 2)] + [
        f"delta{j}" for j in range(1, g + 1)
    ]


@dataclass(frozen=True)
class CycleClass:
    """Integer class over the basis (gamma_1..gamma_{g+1}, delta_1..delta_g)."""

    g: int
    coeffs: tuple

    @classmethod
    def of(cls, g, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != 2 * g + 1:
            raise ValidationError(f"need 2g+1 = {2 * g + 1} coefficients, got {len(cs)}")
        return cls(g=g, coeffs=cs)

    def __add__(self, other):
        self._check(other)
        return CycleClass(self.g, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CycleClass(self.g, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycleClass(self.g, tuple(-a for a in self.coeffs))

    def __rmul__(self, n):
        return CycleClass(self.g, tuple(int(n) * a for a in self.coeffs))

    def _check(self, other):
        if not isinstance(other, CycleClass) or other.g != self.g:
            raise ValidationError("cycle classes live over different bases")

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


def gamma_class(j, g):
    if not 1 <= j <= g + 1:
        raise ValidationError(f"gamma index must be 1..{g + 1}, got {j}")
    coeffs = [0] * (2 * g + 1)
    coeffs[j - 1] = 1
    return CycleClass.of(g, coeffs)


def delta_class(j, g):
    if not 1 <= j <= g:
        raise ValidationError(f"delta index must be 1..{g}, got {j}")
    coeffs = [0] * (2 * g + 1)
    coeffs[g + j] = 1
    return CycleClass.of(g, coeffs)


def gamma_infinity(g):
    """Class of a large positively oriented loop around all branch points."""
    coeffs = [-1] * (g + 1) + [0] * g
    return CycleClass.of(g, coeffs)


@lru_cache(maxsize=None)
def _intersection_matrix(g):
    n = 2 * g + 1
    omega = np.zeros((n, n), dtype=int)
    for j in range(1, g + 1):
        gi, di = j - 1, g + j
        omega[gi, di] = _GAMMA_DELTA_SAME
        omega[di, gi] = -_GAMMA_DELTA_SAME
        omega[gi + 1, di] = _GAMMA_DELTA_NEXT
        omega[di, gi + 1] = -_GAMMA_DELTA_NEXT
    return omega


def intersection(c1: CycleClass, c2: CycleClass) -> int:
    """Antisymmetric intersection pairing in the fixed basis."""
    c1._check(c2)
    omega = _intersection_matrix(c1.g)
    v1 = np.asarray(c1.coeffs)
    v2 = np.asarray(c2.coeffs)
    return int(v1 @ omega @ v2)


def picard_lefschetz(c: CycleClass, vanishing: CycleClass, orientation: int = 1) -> CycleClass:
    """Monodromy of a small loop around a stratum with the given vanishing cycle.

    c maps to c + orientation * s * <c, v> * v where s is the frozen sign for
    a positively oriented loop; traversing the loop backwards inverts the map.
    """
    if orientation not in (1, -1):
        raise ValidationError(f"orientation must be +1 or -1, got {orientation}")
    n = _PL_SIGN * orientation * intersection(c, vanishing)
    return c + n * vanishing
