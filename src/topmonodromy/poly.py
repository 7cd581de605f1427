"""Dense complex polynomial arithmetic.

Coefficients are stored in ascending degree order (coeffs[k] multiplies x^k).
The zero polynomial is the empty coefficient list and has degree -1.

Root finding is a simultaneous Aberth-Ehrlich iteration, the sweep of
`_aberth_kernel`, which has two callers: `roots` starts it cold on a circle
of radius given by the Fujiwara bound and returns the roots sorted, and the
march's step kernel (`tracking._step_kernel`) warm-starts it from the
previous fiber's roots.  Each iterate moves from its own start, so a warm
start returns root i as the continuation of guess i.  The package's
polynomials have degree 3 to 6, so the iteration runs on Python complex
scalars in a kernel generated once per degree, not on NumPy arrays, whose
per-call overhead dominated at these sizes.
Measured per call (Python 3.11, NumPy 2.4, minimum of 7 runs), a
warm-started quartic takes 20 us against 165 us for the former NumPy sweep
loop and 29 us for plain Python loops; a warm-started sextic takes 40 us
against 221 us and 68 us.  Roots agree with the NumPy loop to about 1e-16
relative but not bit for bit: NumPy's complex multiply may fuse into FMA
and its complex abs is not libm hypot, while the kernel rounds the same on
every CPU.

Discriminants go through the Sylvester matrix with the normalization

    disc(p) = (-1)^(n(n-1)/2) * Res(p, p') / lead(p)

so that disc(x^2 + b x + c) = b^2 - 4c.  Real-root counting uses an exact
Sturm sequence in Python integers.  Float coefficients are dyadic
rationals, so their common power-of-two denominator scales them to
integers; each member of the chain is a sign-preserving pseudo-remainder
(the remainder times a power of |lc|, never of a negative number) with its
content divided out.  Measured per call (Python 3.11, minimum of 7 runs),
a quartic takes 29 us against 168 us for the same chain in Fractions, and
a sextic 97 us against 557 us.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RootFindingError, ValidationError

_ABERTH_BUDGET = 400
_ROOT_TOL = 1e-12  # roots()' default residual tolerance


@dataclass(frozen=True)
class ComplexPoly:
    """Immutable dense polynomial over the complex numbers."""

    coeffs: tuple

    @staticmethod
    def of(coeffs) -> "ComplexPoly":
        """Build a polynomial, stripping exact trailing zeros."""
        cs = [complex(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return ComplexPoly(tuple(cs))

    @staticmethod
    def from_roots(roots, lead=1.0) -> "ComplexPoly":
        p = ComplexPoly.of([lead])
        for r in roots:
            p = p * ComplexPoly.of([-r, 1.0])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> complex:
        if not self.coeffs:
            raise ValidationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if not self.coeffs:
            return np.zeros_like(x) if isinstance(x, np.ndarray) else 0j
        if isinstance(x, np.ndarray):
            acc = np.full_like(x, self.coeffs[-1], dtype=complex)
            for c in self.coeffs[-2::-1]:
                acc = acc * x + c
            return acc
        acc = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def derivative(self) -> "ComplexPoly":
        return ComplexPoly.of([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0j] * (n - len(other.coeffs))
        return ComplexPoly.of([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ComplexPoly.of([c * other for c in self.coeffs])
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ComplexPoly.of(out)

    __rmul__ = __mul__

    def coeff_scale(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def is_real(self, tol: float = 1e-12) -> bool:
        scale = self.coeff_scale()
        return all(abs(c.imag) <= tol * max(scale, 1.0) for c in self.coeffs)


def _fujiwara_radius(coeffs) -> float:
    """Upper bound on root magnitudes: 2 * max_k |a_{n-k}/a_n|^(1/k)."""
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    best = 0.0
    for k in range(1, n + 1):
        c = abs(coeffs[n - k]) / lead
        if k == n:
            c = c / 2.0
        if c > 0.0:
            best = max(best, c ** (1.0 / k))
    return 2.0 * best if best > 0.0 else 1.0


_SWEEP_TEMPLATE = """
def sweep(tol_scale, z, {coeffs}):
    {zs}, = z
    best = inf
    for _ in range({budget}):
        try:
            worst = 0.0
            converged = True
{check}
            if worst < best:
                best = worst
            if converged:
                return [{zs}], best
{step}
            {zs} = {moved}
        except OverflowError:
            break
    return None, best
"""


def _horner(coeffs, x):
    """Source of Horner's rule over descending coefficient names at x."""
    expr = coeffs[0]
    for c in coeffs[1:]:
        expr = f"({expr}) * {x} + {c}"
    return expr


@functools.lru_cache(maxsize=16)
def _aberth_kernel(n):
    """The Aberth-Ehrlich loop for degree n, compiled from straight-line source.

    sweep(tol_scale, z, a0..an, b0..b{n-1}) takes the descending
    coefficients of p and p' and returns (roots, best) when every root meets
    the residual contract, or (None, best) after _ABERTH_BUDGET sweeps or a
    float overflow, where best is the smallest worst-root ratio of residual
    to bound seen.  The roots live in scalar locals z0..z{n-1} and move
    together, each by its step from the previous sweep's roots.
    1/(z_j - z_i) is taken as -1/(z_i - z_j), which is exact, so each pair
    costs one division.  Guards: a NaN residual neither converges nor counts
    toward best, and coincident iterates get a NaN pair term, so both take
    the Newton step.
    """
    z = [f"z{i}" for i in range(n)]
    a = [f"a{k}" for k in range(n + 1)]
    b = [f"b{k}" for k in range(n)]
    check, step = [], []
    for i, x in enumerate(z):
        check += [
            f"p{i} = {_horner(a, x)}",
            f"r = abs({x})",
            f"bound = tol_scale * (r if r > 1.0 else 1.0) ** {n}",
            f"r = abs(p{i})",
            "if not r <= bound:",
            "    converged = False",
            "r = r / (bound if bound > 1e-300 else 1e-300)",
            "if r > worst or r != r:",
            "    worst = r",
        ]
        step += [
            f"v{i}_{j} = 1.0 / (({x} - z{j}) or nan)" for j in range(i + 1, n)
        ]
    for i, x in enumerate(z):
        pair_sum = "0j" + "".join(
            f" - v{j}_{i}" if j < i else f" + v{i}_{j}" for j in range(n) if j != i
        )
        step += [
            f"w = {_horner(b, x)}",
            "if abs(w) < 1e-300:",
            "    w = 1e-300",
            f"w = p{i} / w",
            f"q = 1.0 - w * ({pair_sum})",
            "if abs(q) < 1e-300:",
            "    q = 1e-300",
            "q = w / q",
            f"m{i} = {x} - (q if isfinite(q) else w)",
        ]
    source = _SWEEP_TEMPLATE.format(
        coeffs=", ".join(a + b),
        zs=", ".join(z),
        budget=_ABERTH_BUDGET,
        check="\n".join("            " + line for line in check),
        step="\n".join("            " + line for line in step),
        moved=", ".join(f"m{i}" for i in range(n)),
    )
    namespace = {
        "inf": math.inf,
        "nan": complex(math.nan, math.nan),
        "isfinite": cmath.isfinite,
    }
    exec(compile(source, f"<poly aberth kernel n={n}>", "exec"), namespace)
    return namespace["sweep"]


def roots(p: ComplexPoly, tol: float = _ROOT_TOL):
    """All roots of p by simultaneous Aberth-Ehrlich iteration, sorted
    lexicographically by (real, imag).

    Returns exactly p.degree values.  The iteration starts cold, on the
    Fujiwara circle; the march warm-starts the same sweep in its own step
    kernel (tracking._step_kernel).  Residual contract:
    |p(r)| <= tol * max|coeff| * max(1,|r|)^degree.  Raises
    RootFindingError when the contract is not met within _ABERTH_BUDGET
    sweeps or the iteration overflows.
    """
    n = p.degree
    if n < 1:
        raise ValidationError("roots requires degree >= 1")
    radius = _fujiwara_radius(p.coeffs)
    z = [cmath.rect(radius, 2.0 * math.pi * (k + 0.5) / n + 0.41) for k in range(n)]
    desc = p.coeffs[::-1]
    deriv = [k * c for k, c in zip(range(n, 0, -1), desc)]
    z, best = _aberth_kernel(n)(tol * p.coeff_scale(), z, *desc, *deriv)
    if z is None:
        raise RootFindingError(
            "Aberth iteration did not converge within %d sweeps" % _ABERTH_BUDGET,
            best_residual=best,
        )
    return sorted(z, key=lambda v: (v.real, v.imag))


def _sylvester(p: ComplexPoly, q: ComplexPoly) -> np.ndarray:
    """Sylvester matrix of p (degree n) and q (degree m), descending rows."""
    n, m = p.degree, q.degree
    pd = list(p.coeffs[::-1])
    qd = list(q.coeffs[::-1])
    size = n + m
    S = np.zeros((size, size), dtype=complex)
    for r in range(m):
        S[r, r : r + n + 1] = pd
    for r in range(n):
        S[m + r, r : r + m + 1] = qd
    return S


def resultant(p: ComplexPoly, q: ComplexPoly) -> complex:
    if p.degree < 1 or q.degree < 1:
        raise ValidationError("resultant requires both degrees >= 1")
    return complex(np.linalg.det(_sylvester(p, q)))


def discriminant(p: ComplexPoly) -> complex:
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lead(p)."""
    n = p.degree
    if n < 2:
        raise ValidationError("discriminant requires degree >= 2")
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * resultant(p, p.derivative()) / p.lead


def normalized_discriminant(p: ComplexPoly) -> float:
    """|disc(p / max|coeff|)|: scale-invariant, as disc has degree 2n - 2.

    Where a pivot of the Sylvester elimination underflows, LAPACK's
    determinant reads NaN and raises divide and invalid flags.  For finite
    coefficients the discriminant is then below the float range (at most
    4e-308 in exact arithmetic on grids of extreme quartics and sextics),
    so it reads 0.0, which in_component_C decides exactly.
    """
    scale = p.coeff_scale()
    with np.errstate(divide="ignore", invalid="ignore"):
        d = abs(discriminant(ComplexPoly.of([c / scale for c in p.coeffs])))
    if math.isnan(d) and all(map(cmath.isfinite, p.coeffs)):
        return 0.0
    return d


def _integer_coeffs(p: ComplexPoly):
    """p's coefficients times their common power-of-two denominator."""
    if not p.is_real():
        raise ValidationError("real_root_count requires real coefficients")
    ratios = [c.real.as_integer_ratio() for c in p.coeffs]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios]


def _primitive(cs):
    """Integer coefficients without trailing zeros, divided by their content."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _pseudo_rem(a, b):
    """Remainder of a by b (ascending integer lists) times |lc(b)|^k, with
    k <= deg a - deg b + 1: a positive multiple, so its signs are the
    remainder's."""
    a = list(a)
    m, s = abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        top, shift = s * a[-1], len(a) - len(b)
        a = [m * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= top * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _sturm_chain(p: ComplexPoly):
    """p's Sturm sequence in integers: p, p' and the negated
    pseudo-remainders, each primitive; the last member is gcd(p, p') up to
    a constant factor."""
    if p.degree < 1:
        raise ValidationError("real_root_count requires degree >= 1")
    chain = [_primitive(_integer_coeffs(p))]
    d = _primitive([k * c for k, c in enumerate(chain[0])][1:])
    while d:
        chain.append(d)
        d = _primitive([-c for c in _pseudo_rem(chain[-2], d)])
    return chain


def has_repeated_root(p: ComplexPoly) -> bool:
    """Whether the real-coefficient p has a repeated root, exactly: whether
    gcd(p, p') is not constant."""
    return len(_sturm_chain(p)[-1]) > 1


def real_root_count(p: ComplexPoly) -> int:
    """Number of distinct real roots of p over all of R, exactly, via a
    Sturm sequence."""
    chain = _sturm_chain(p)
    # signs at -infinity: the leading coefficients, flipped for odd degree
    lo = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return _sign_changes(lo) - _sign_changes([c[-1] for c in chain])


def real_roots(p: ComplexPoly, tol: float = 1e-9):
    """Real roots of a real-coefficient polynomial, via the complex solver."""
    out = [r.real for r in roots(p) if abs(r.imag) <= tol * max(1.0, abs(r))]
    out.sort()
    return out
