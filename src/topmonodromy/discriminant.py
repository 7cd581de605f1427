"""Real discriminant-locus analysis for the spectral quartic and sextic.

The quartic family x^4 + a1 x^3 + a2 x^2 + a3 x + 1 is studied on sections
a3 = c: the double-root locus Delta_c is a curve parameterized by the double
root u, whose special points (cusps, crossings, the isolated complex-double
point) are classified in closed form.  The sextic family
(x^2+1)^3 + x^3(a x^2 + b x + c) carries a parameterized double-root branch
used to aim monodromy loops.  Membership in the component C (no real roots,
off the discriminant) is decided by exact real-root counting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NearDiscriminantError, ValidationError
from .poly import ComplexPoly, normalized_discriminant, real_root_count, real_roots
from .spectral import SpectralCoeffs

_DISC_TOL = 1e-9


def quartic_poly(a) -> ComplexPoly:
    """x^4 + a1 x^3 + a2 x^2 + a3 x + 1 from the reduced chart (a1, a2, a3).

    Coordinates may be complex, as on the a2 deformation of the action.
    """
    a1, a2, a3 = (complex(v) for v in a)
    return ComplexPoly.of((1.0, a3, a2, a1, 1.0))


def sextic_poly(abc) -> ComplexPoly:
    """(x^2+1)^3 + x^3 (a x^2 + b x + c) from the reduced chart (a, b, c)."""
    a, b, c = (float(v) for v in abc)
    return ComplexPoly.of((1.0, 0.0, 3.0, c, 3.0 + b, a, 1.0))


@dataclass(frozen=True)
class StratumPoint:
    """A special point of the discriminant locus with its repeated root(s)."""

    location: tuple
    kind: str
    witness: tuple

    KINDS = (
        "double-root-branch",
        "triple-root",
        "two-real-double-roots-crossing",
        "isolated-complex-double-pair",
        "quadruple-root",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown stratum kind {self.kind!r}")


def delta_c_section(c: float, u: float):
    """Point (a1, a2) of the section Delta_c where u is a double root.

    The curve a1 = (c + 2/u)/u^2 - 2u, a2 = -3/u^2 - 2c/u + u^2 sweeps the
    parameters for which x^4 + a1 x^3 + a2 x^2 + c x + 1 vanishes doubly
    at x = u.
    """
    c = float(c)
    u = float(u)
    if u == 0.0:
        raise ValidationError("the double-root parameter u must be nonzero")
    a1 = (c + 2.0 / u) / u**2 - 2.0 * u
    a2 = -3.0 / u**2 - 2.0 * c / u + u**2
    return a1, a2


def classify_special_points(c: float):
    """Special points of Delta_c, per the closed-form case analysis.

    Always present: the two-real-double-roots crossing at (-c, -2 + c^2/4)
    and the complex-double-pair point at (c, 2 + c^2/4), which is isolated
    for |c| < 4 and a crossing for |c| > 4.  Cusps (triple roots) sit at the
    real zeros of u^4 + c u + 3, which exist exactly for |c| >= 4, merging
    into the quadruple-root point (+-4, 6) at |c| = 4.
    """
    c = float(c)
    points = []

    # (x^2 - (c/2) x - 1)^2: two real double roots for every c
    disc_real = c * c / 4.0 + 4.0
    u_hi = (c / 2.0 + math.sqrt(disc_real)) / 2.0
    u_lo = (c / 2.0 - math.sqrt(disc_real)) / 2.0
    points.append(
        StratumPoint(
            location=(-c, -2.0 + c * c / 4.0),
            kind="two-real-double-roots-crossing",
            witness=(u_lo, u_hi),
        )
    )

    # (x^2 + (c/2) x + 1)^2: complex pair for |c| < 4, real pair beyond
    half_disc = c * c / 16.0 - 1.0
    if abs(c) < 4.0:
        im = math.sqrt(-half_disc)
        points.append(
            StratumPoint(
                location=(c, 2.0 + c * c / 4.0),
                kind="isolated-complex-double-pair",
                witness=(complex(-c / 4.0, -im), complex(-c / 4.0, im)),
            )
        )
    elif abs(c) > 4.0:
        rt = math.sqrt(half_disc)
        points.append(
            StratumPoint(
                location=(c, 2.0 + c * c / 4.0),
                kind="two-real-double-roots-crossing",
                witness=(-c / 4.0 - rt, -c / 4.0 + rt),
            )
        )

    if abs(c) == 4.0:
        u = -c / 4.0  # (x -+ 1)^4
        points.append(
            StratumPoint(
                location=delta_c_section(c, u), kind="quadruple-root", witness=(u,)
            )
        )
    elif abs(c) > 4.0:
        cusp_param = ComplexPoly.of((3.0, c, 0.0, 0.0, 1.0))
        for u in real_roots(cusp_param):
            points.append(
                StratumPoint(
                    location=delta_c_section(c, u),
                    kind="triple-root",
                    witness=(u,),
                )
            )

    return points


@dataclass(frozen=True)
class IsolationReport:
    """Result of a grid scan around an isolated discriminant point."""

    radius: float
    grid: int
    samples: int
    min_disc: float
    origin_disc: float

    @property
    def isolated(self) -> bool:
        return self.min_disc > 0.0 and self.origin_disc < _DISC_TOL


def a3_isolated_check(r: float, grid: int = 100, variant: str = "cubic-term"):
    """Scan a punctured disk around the isolated double-pair point.

    For `variant="cubic-term"` the family is (x^2+1)^2 + (a x + b) x^2, for
    `variant="linear-term"` it is (x^2+1)^2 + a x + b; in both, (a, b) = (0, 0)
    is the only real-discriminant point near the origin, so the normalized
    discriminant must stay above a positive floor everywhere off it.
    """
    r = float(r)
    if not 0.0 < r <= 0.2:
        raise ValidationError("the scan radius must lie in (0, 0.2]")
    if variant not in ("cubic-term", "linear-term"):
        raise ValidationError(f"unknown family variant {variant!r}")

    def family(a, b):
        if variant == "cubic-term":
            return ComplexPoly.of((1.0, 0.0, 2.0 + b, a, 1.0))
        return ComplexPoly.of((1.0 + b, a, 2.0, 0.0, 1.0))

    ticks = np.linspace(-r, r, grid)
    lo, samples = math.inf, 0
    for a in ticks:
        for b in ticks:
            rho = math.hypot(a, b)
            if rho == 0.0 or rho > r:
                continue
            samples += 1
            lo = min(lo, normalized_discriminant(family(a, b)))
    return IsolationReport(
        radius=r,
        grid=grid,
        samples=samples,
        min_disc=lo,
        origin_disc=normalized_discriminant(family(0.0, 0.0)),
    )


@dataclass(frozen=True)
class G2BranchPoint:
    """A point on the sextic's parameterized double-root branch."""

    c2: float
    sign: int
    abc: tuple
    delta1: float
    delta2: float
    c1: float
    d1: float
    d2: float

    def double_quadratic(self) -> ComplexPoly:
        """x^2 + c1 x + c2, whose roots are the double roots."""
        return ComplexPoly.of((self.c2, self.c1, 1.0))

    def simple_quadratic(self) -> ComplexPoly:
        """x^2 + d1 x + d2, carrying the simple roots."""
        return ComplexPoly.of((self.d2, self.d1, 1.0))


def g2_branch(c2: float, sign: int = 1) -> G2BranchPoint:
    """The double-root branch point of (x^2+1)^3 + x^3(a x^2 + b x + c).

    On the branch the sextic factors as (x^2 + c1 x + c2)^2 (x^2 + d1 x + d2)
    with c1 = alpha (c2 - 1), d1 = -2 alpha (c2 - 1)/c2^3, d2 = c2^{-2} and
    3 alpha^2 = c2 (c2 + 2); the two signs of alpha give the two local
    branches through the origin (reached at c2 = 1).
    """
    c2 = float(c2)
    if c2 <= 0.0:
        raise ValidationError("the branch parameter c2 must be positive")
    if sign not in (1, -1):
        raise ValidationError("sign selects a branch and must be +-1")
    alpha = sign * math.sqrt(c2 * (c2 + 2.0) / 3.0)
    a = 2.0 * alpha * (c2 - 1.0) * (c2**3 - 1.0) / c2**3
    b = (c2 - 1.0) ** 3 * (c2**3 + 3.0 * c2**2 + 3.0 * c2 + 5.0) / (3.0 * c2**2)
    c = 2.0 * alpha * (c2 - 1.0) * (2.0 * c2**3 + 3.0 * c2 - 5.0) / (3.0 * c2**2)
    c1 = alpha * (c2 - 1.0)
    d1 = -2.0 * alpha * (c2 - 1.0) / c2**3
    d2 = c2**-2.0
    delta1 = c2 * (-10.0 + c2**3 - 3.0 * c2) / 3.0
    delta2 = -4.0 * (2.0 * c2**3 + 3.0 * c2 - 2.0) / (3.0 * c2**5)
    return G2BranchPoint(
        c2=c2,
        sign=sign,
        abc=(a, b, c),
        delta1=delta1,
        delta2=delta2,
        c1=c1,
        d1=d1,
        d2=d2,
    )


def in_component_C(f) -> bool:
    """True iff f is real, has no real roots, and sits clearly off Delta."""
    if isinstance(f, SpectralCoeffs):
        p = f.poly()
    elif isinstance(f, ComplexPoly):
        p = f
    else:
        p = ComplexPoly.of(f)
    if any(abs(complex(v).imag) > 1e-12 * max(1.0, abs(v)) for v in p.coeffs):
        raise ValidationError("component membership is defined for real coefficients")
    d = normalized_discriminant(p)
    if d <= _DISC_TOL:
        if d == 0.0 or real_root_count(p) == 0:
            raise NearDiscriminantError(
                f"normalized discriminant {d:.3e} is too small to classify"
            )
        return False
    return real_root_count(p) == 0


def delta_c_csv(file, c: float, u_values) -> int:
    """Write the sampled section Delta_c as CSV rows (u, a1, a2)."""
    writer = csv.writer(file)
    writer.writerow(["u", "a1", "a2"])
    n = 0
    for u in u_values:
        a1, a2 = delta_c_section(c, u)
        writer.writerow([f"{float(u):.12g}", f"{a1:.12g}", f"{a2:.12g}"])
        n += 1
    return n


def g2_branch_csv(file, c2_values, sign: int = 1) -> int:
    """Write the sampled sextic branch as CSV rows (c2, a, b, c)."""
    writer = csv.writer(file)
    writer.writerow(["c2", "a", "b", "c"])
    n = 0
    for c2 in c2_values:
        a, b, c = g2_branch(c2, sign).abc
        writer.writerow([f"{float(c2):.12g}", f"{a:.12g}", f"{b:.12g}", f"{c:.12g}"])
        n += 1
    return n
