"""References the benchmark checks the program's outputs against.

Nothing here calls topmonodromy.  The matrices are the documented ones
(README and acceptance tests); the action reference is an mpmath quadrature
of the cubic form; the first integrals are closed-form scalar expressions.
"""

from __future__ import annotations

# Action-variable monodromy of the cushman loop, columns = images of I1..I3.
CUSHMAN_ACTIONS = ((1, 0, 0), (1, 1, 0), (0, 0, 1))

# Torus blocks over (gamma1, gamma3, gamma_inf) of the genus-2 meridians.
KAPPA_BLOCKS = {
    "kappa1": ((1, 0, 0), (-1, 1, 0), (1, 0, 1)),
    "kappa2": ((1, -1, 0), (0, 1, 0), (0, 1, 1)),
    "kappa3": ((0, -1, 0), (1, 2, 0), (0, 0, 1)),
}

# Largest integer-fit residual the acceptance tests accept, by genus.
RESIDUAL_BOUND = {1: 1e-6, 2: 1e-4}

ACTION_TOL = 1e-8
DRIFT_TOL = 1e-8


def reduced_reference(name):
    """Documented reduced matrix of a named loop."""
    return CUSHMAN_ACTIONS if name == "cushman" else KAPPA_BLOCKS[name]


def int_det(m):
    """Exact determinant of a square integer matrix (cofactor expansion)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * int_det(minor)
    return total


def int_inverse3(m):
    """Inverse of a unimodular 3x3 integer matrix, by the adjugate."""
    det = int_det(m)
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")

    def cof(i, j):
        rows = [r for k, r in enumerate(m) if k != i]
        minor = [[v for k, v in enumerate(r) if k != j] for r in rows]
        return (-1) ** (i + j) * int_det(minor)

    return tuple(tuple(cof(j, i) * det for j in range(3)) for i in range(3))


def action_reference(point, dps=30):
    """I1 = (1/pi) * int_{u1}^{u2} sqrt(g(u)) / (1 - u^2) du in mpmath.

    g(u) = 2u^3 - a2 u^2 + (a1 a3 / 2 - 2) u + a2 - (a1^2 + a3^2) / 4, and
    u1 <= u2 are its two smallest real roots; tanh-sinh quadrature copes
    with the square-root endpoints.
    """
    import mpmath

    with mpmath.workdps(dps):
        a1, a2, a3 = (mpmath.mpf(v) for v in point)
        coeffs = [2, -a2, a1 * a3 / 2 - 2, a2 - (a1 * a1 + a3 * a3) / 4]
        rs = mpmath.polyroots(coeffs, maxsteps=200, extraprec=2 * dps)
        real = sorted(mpmath.re(r) for r in rs)
        u1, u2 = real[0], real[1]

        def integrand(u):
            g = ((2 * u - a2) * u + coeffs[2]) * u + coeffs[3]
            return mpmath.sqrt(max(g, 0)) / (1 - u * u)

        return float(mpmath.quad(integrand, [u1, u2]) / mpmath.pi)


def closed_form_integrals(m, omega, gammas):
    """(h_minus1, h, h1, .., h_2g) of a state with g <= 2, term by term."""
    big = 1.0 + m
    w1, w2, w3 = omega
    g = len(gammas)
    hm1 = big * w3
    h = 0.5 * (w1 * w1 + w2 * w2 + big * big * w3 * w3) - gammas[0][2]
    h -= 0.5 * m * big * w3 * w3
    g1, g2, g3 = gammas[0]
    h1 = -(w1 * g1 + w2 * g2 + big * w3 * g3)
    h2 = 0.5 * (g1 * g1 + g2 * g2 + g3 * g3)
    if g == 1:
        return (hm1, h, h1, h2)
    if g != 2:
        raise ValueError("closed forms are written out for g <= 2 only")
    t1, t2, t3 = gammas[1]
    h1 -= t3
    h2 -= w1 * t1 + w2 * t2 + big * w3 * t3
    h3 = g1 * t1 + g2 * t2 + g3 * t3
    h4 = 0.5 * (t1 * t1 + t2 * t2 + t3 * t3)
    return (hm1, h, h1, h2, h3, h4)
