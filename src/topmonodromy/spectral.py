"""Spectral data of the top: the polynomials U, V, W and the curve y^2 = f(x).

U, V, W encode a state as complex polynomials in the spectral variable; the
monic degree 2g+2 polynomial f = V^2 + U*W depends on the state only through
its first integrals, which is what makes the flow isospectral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _finite
from .poly import ComplexPoly
from .topsys import LevelVector, TopState


@dataclass(frozen=True)
class SpectralCoeffs:
    """Coefficients a_1 .. a_{2g+2} of f(x) = x^{2g+2} + a_1 x^{2g+1} + ... + a_{2g+2}."""

    g: int
    a: tuple

    @classmethod
    def of(cls, g, a):
        vals = tuple(float(v) for v in a)
        if len(vals) != 2 * g + 2:
            raise ValidationError(f"need 2g+2 = {2 * g + 2} coefficients, got {len(vals)}")
        return cls(g=g, a=_finite("coefficients", *vals))

    def poly(self) -> ComplexPoly:
        """The monic spectral polynomial, ascending coefficient order."""
        return ComplexPoly.of(tuple(reversed(self.a)) + (1.0,))


def jacobi_uvw(s: TopState):
    """The polynomial triple (U, V, W) attached to a state.

    U(x) = x^{g+1} + (gamma_{0,3} - i gamma_{0,2}) x^g
         - sum_{i>=1} (gamma_{i,3} - i gamma_{i,2}) x^{g-i},
    V collects the first components the same way with real coefficients, and
    W carries the conjugate coefficients of U.
    """
    rows = (s.gamma0,) + s.gamma
    u_desc = [1.0 + 0.0j]
    w_desc = [1.0 + 0.0j]
    v_desc = []
    for i, row in enumerate(rows):
        sign = 1.0 if i == 0 else -1.0
        u_desc.append(sign * (row[2] - 1j * row[1]))
        w_desc.append(sign * (row[2] + 1j * row[1]))
        v_desc.append(sign * row[0])
    u = ComplexPoly.of(u_desc[::-1])
    v = ComplexPoly.of(v_desc[::-1])
    w = ComplexPoly.of(w_desc[::-1])
    return u, v, w


def spectral_from_state(s: TopState) -> SpectralCoeffs:
    """Coefficients of f = V^2 + U*W at a state."""
    u, v, w = jacobi_uvw(s)
    f = v * v + u * w
    coeffs = list(f.coeffs)
    coeffs += [0.0] * (2 * s.g + 3 - len(coeffs))
    scale = max(abs(c) for c in coeffs)
    worst = max(abs(c.imag) for c in coeffs)
    if worst > 1e-12 * max(1.0, scale):
        raise ValidationError(f"spectral coefficients not real: residue {worst}")
    if abs(coeffs[-1] - 1.0) > 1e-12 * max(1.0, scale):
        raise ValidationError("spectral polynomial is not monic")
    a_desc = [c.real for c in reversed(coeffs[:-1])]
    return SpectralCoeffs.of(s.g, a_desc)


def spectral_from_levels(levels: LevelVector) -> SpectralCoeffs:
    """Coefficients read off the first-integral values.

    a_1 = 2 h_minus1, a_2 = 2h + (m/(1+m)) h_minus1^2, a_{k+2} = 2 h_k.
    """
    m = levels.m
    hm1 = levels.h_minus1
    a = [2.0 * hm1, 2.0 * levels.h + (m / (1.0 + m)) * hm1 * hm1]
    a += [2.0 * v for v in levels.values[2:]]
    return SpectralCoeffs.of(levels.g, a)


def spectral_coefficient_drift(trajectory) -> float:
    """Max absolute drift of any spectral coefficient along a trajectory."""
    table = trajectory.first_integral_table()
    m = trajectory.m
    a2 = 2.0 * table[:, 1] + (m / (1.0 + m)) * table[:, 0] ** 2
    coeffs = np.column_stack([2.0 * table[:, 0], a2, 2.0 * table[:, 2:]])
    return float(np.max(np.abs(coeffs - coeffs[0][None, :])))
