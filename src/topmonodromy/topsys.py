"""Generalized top: state, Lax vector field, first integrals, Poisson structure.

The phase space is coordinatized by the angular velocity ``omega`` together
with ``g`` extra vector rows ``gamma[0] .. gamma[g-1]`` (one-indexed as
gamma_1 .. gamma_g in formulas).  The derived row
gamma_0 = (omega_1, omega_2, (1+m)*omega_3) is computed on demand, never
stored.  The vector field is the Lax flow

    d(gamma_0)/dt = gamma_0 x omega - gamma_1 x e3
    d(gamma_i)/dt = gamma_i x omega + gamma_{i+1} x e3     (gamma_{g+1} = 0)

whose conserved quantities are read off the Laurent expansion in the
spectral parameter of the squared spectral vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, ValidationError

_E3 = (0.0, 0.0, 1.0)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _vec3(values, what):
    vec = tuple(float(v) for v in values)
    if len(vec) != 3:
        raise ValidationError(f"{what} must have 3 components, got {len(vec)}")
    if not all(math.isfinite(v) for v in vec):
        raise ValidationError(f"{what} must be finite, got {vec}")
    return vec


@dataclass(frozen=True)
class TopState:
    """Phase-space point: mass parameter m, angular velocity, gamma rows."""

    m: float
    omega: tuple
    gamma: tuple

    @classmethod
    def of(cls, m, omega, gamma=()):
        m = float(m)
        if not math.isfinite(m) or 1.0 + m == 0.0:
            raise ValidationError(f"mass parameter needs 1+m != 0, got m={m}")
        om = _vec3(omega, "omega")
        rows = tuple(_vec3(row, f"gamma[{i}]") for i, row in enumerate(gamma))
        return cls(m=m, omega=om, gamma=rows)

    @property
    def g(self):
        return len(self.gamma)

    @property
    def gamma0(self):
        """Derived row (omega_1, omega_2, (1+m)*omega_3)."""
        return (self.omega[0], self.omega[1], (1.0 + self.m) * self.omega[2])


@dataclass(frozen=True)
class LevelVector:
    """First-integral values (h_minus1, h, h_1, ..., h_{2g})."""

    m: float
    values: tuple

    @classmethod
    def of(cls, m, values):
        vals = tuple(float(v) for v in values)
        if len(vals) < 2 or len(vals) % 2 != 0:
            raise ValidationError(f"level vector needs 2g+2 entries, got {len(vals)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"level values must be finite, got {vals}")
        return cls(m=float(m), values=vals)

    @property
    def g(self):
        return len(self.values) // 2 - 1

    @property
    def h_minus1(self):
        return self.values[0]

    @property
    def h(self):
        return self.values[1]

    def as_array(self):
        return np.asarray(self.values)


def level_labels(g):
    """Column labels matching LevelVector.values."""
    return ["h_minus1", "h"] + [f"h{k}" for k in range(1, 2 * g + 1)]


def lax_rhs(s: TopState) -> TopState:
    """Time derivative of every stored coordinate; the omega_3 slot is 0 exactly."""
    rows = (s.gamma0,) + s.gamma + ((0.0, 0.0, 0.0),)
    derived = []
    for i in range(len(rows) - 1):
        drift = _cross(rows[i], s.omega)
        kick = _cross(rows[i + 1], _E3)
        sign = -1.0 if i == 0 else 1.0
        derived.append(tuple(drift[c] + sign * kick[c] for c in range(3)))
    domega = (derived[0][0], derived[0][1], 0.0)
    return TopState(m=s.m, omega=domega, gamma=tuple(derived[1:]))


def first_integrals(s: TopState) -> LevelVector:
    """Conserved values h_minus1, h, h_1 .. h_{2g} at a state.

    h_k is half the lambda**(-k) coefficient of the squared spectral vector
    e3*lambda + gamma_0 - sum_i gamma_i * lambda**(-i); h is the reduced
    Hamiltonian h_0 - (m / (2(1+m))) h_minus1**2.
    """
    coeffs = [_E3, s.gamma0] + [tuple(-c for c in row) for row in s.gamma]
    # coeffs[p] multiplies lambda**(1-p), so lambda**(-k) pairs have p+q = k+2
    g = s.g
    hs = []
    for k in range(-1, 2 * g + 1):
        total = 0.0
        for p in range(len(coeffs)):
            q = k + 2 - p
            if 0 <= q < len(coeffs):
                total += _dot(coeffs[p], coeffs[q])
        hs.append(0.5 * total)
    h = hs[1] - (s.m / (2.0 * (1.0 + s.m))) * hs[0] ** 2
    return LevelVector(m=s.m, values=(hs[0], h, *hs[2:]))


def _integral_table(m, omegas, gammas):
    """Vectorized first integrals for sampled states, one row per sample."""
    n, g = omegas.shape[0], gammas.shape[1]
    coeffs = np.empty((n, g + 2, 3))
    coeffs[:, 0, :] = _E3
    coeffs[:, 1, :2] = omegas[:, :2]
    coeffs[:, 1, 2] = (1.0 + m) * omegas[:, 2]
    if g:
        coeffs[:, 2:, :] = -gammas
    hs = []
    for k in range(-1, 2 * g + 1):
        total = np.zeros(n)
        for p in range(g + 2):
            q = k + 2 - p
            if 0 <= q < g + 2:
                total += np.einsum("nc,nc->n", coeffs[:, p, :], coeffs[:, q, :])
        hs.append(0.5 * total)
    out = np.empty((n, 2 * g + 2))
    out[:, 0] = hs[0]
    out[:, 1] = hs[1] - (m / (2.0 * (1.0 + m))) * hs[0] ** 2
    for j in range(2, 2 * g + 2):
        out[:, j] = hs[j]
    return out


class Observable:
    """Polynomial in the stored coordinates, held as a sparse monomial map.

    Monomial keys are sorted tuples of coordinate labels; a label is
    ("omega", k) with k in 1..3 or ("gamma", i, k) with i >= 1, k in 1..3.
    The empty key is the constant monomial.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged = {}
        for key, coeff in (terms or {}).items():
            key = tuple(sorted(key))
            merged[key] = merged.get(key, 0.0) + coeff
        self.terms = {k: v for k, v in merged.items() if v != 0.0}

    @classmethod
    def constant(cls, value):
        return cls({(): float(value)})

    @classmethod
    def coordinate(cls, label):
        return cls({(tuple(label),): 1.0})

    @classmethod
    def monomial(cls, labels, coeff=1.0):
        return cls({tuple(labels): float(coeff)})

    def __add__(self, other):
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0.0) + coeff
        return Observable(merged)

    def __neg__(self):
        return Observable({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Observable):
            out = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    key = tuple(sorted(ka + kb))
                    out[key] = out.get(key, 0.0) + ca * cb
            return Observable(out)
        return Observable({k: other * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def evaluate(self, s: TopState) -> float:
        total = 0.0
        for key, coeff in self.terms.items():
            value = coeff
            for label in key:
                if label[0] == "omega":
                    value *= s.omega[label[1] - 1]
                else:
                    value *= s.gamma[label[1] - 1][label[2] - 1]
            total += value
        return total


def omega_coord(k):
    if k not in (1, 2, 3):
        raise ValidationError(f"omega component must be 1..3, got {k}")
    return Observable.coordinate(("omega", k))


def gamma_coord(i, k):
    if i < 1 or k not in (1, 2, 3):
        raise ValidationError(f"gamma row must have i >= 1, k in 1..3, got ({i},{k})")
    return Observable.coordinate(("gamma", i, k))


# skew constants: {x_k, x_l} pairs with the coefficient vector over the
# output component c
_LAMBDA = {
    (1, 2): (0.0, 0.0, -1.0),
    (1, 3): (0.0, 1.0, 0.0),
    (2, 3): (-1.0, 0.0, 0.0),
}


def _lambda_const(k, l):
    if k == l:
        return (0.0, 0.0, 0.0)
    if (k, l) in _LAMBDA:
        return _LAMBDA[(k, l)]
    return tuple(-v for v in _LAMBDA[(l, k)])


def _as_row_coord(label, m):
    """Map a coordinate label to (row index, component, conversion factor)."""
    if label[0] == "omega":
        k = label[1]
        if k == 3:
            return 0, 3, 1.0 / (1.0 + m)
        return 0, k, 1.0
    return label[1], label[2], 1.0


def _row_observable(i, k, m):
    """The coordinate gamma_{i,k} written back in stored coordinates."""
    if i == 0:
        if k == 3:
            return (1.0 + m) * Observable.coordinate(("omega", 3))
        return Observable.coordinate(("omega", k))
    return Observable.coordinate(("gamma", i, k))


def _coordinate_bracket(a, b, g, m):
    """Bracket of two coordinate labels as an Observable.

    Rows bracket as {gamma_{i,k}, gamma_{j,l}} = s(i,j) Lambda^c_{kl}
    gamma_{i+j,c} with s(i,j) = +1 when either row index is 0 and -1
    otherwise, and gamma_{i+j} = 0 whenever i+j > g.
    """
    i, k, fa = _as_row_coord(a, m)
    j, l, fb = _as_row_coord(b, m)
    target = i + j
    if target > g:
        return Observable()
    sign = 1.0 if (i == 0 or j == 0) else -1.0
    lam = _lambda_const(k, l)
    out = Observable()
    for c in (1, 2, 3):
        if lam[c - 1] != 0.0:
            out = out + (fa * fb * sign * lam[c - 1]) * _row_observable(target, c, m)
    return out


def observable_bracket(F: Observable, G: Observable, g: int, m: float) -> Observable:
    """Leibniz expansion of the Poisson bracket of polynomial observables."""
    out = Observable()
    for key_f, cf in F.terms.items():
        for key_g, cg in G.terms.items():
            for ia in range(len(key_f)):
                rest_f = key_f[:ia] + key_f[ia + 1 :]
                for ib in range(len(key_g)):
                    base = _coordinate_bracket(key_f[ia], key_g[ib], g, m)
                    if not base.terms:
                        continue
                    rest = rest_f + key_g[:ib] + key_g[ib + 1 :]
                    out = out + (cf * cg) * base * Observable.monomial(rest)
    return out


def poisson_bracket(F: Observable, G: Observable, s: TopState) -> float:
    """Value of {F, G} at a state."""
    return observable_bracket(F, G, s.g, s.m).evaluate(s)


def first_integral_observables(g, m):
    """The integrals (h_minus1, h, h_1 .. h_{2g}) as symbolic observables."""
    zero = Observable()
    one = Observable.constant(1.0)
    e3 = (zero, zero, one)
    gamma0 = (omega_coord(1), omega_coord(2), (1.0 + m) * omega_coord(3))
    rows = [e3, gamma0]
    for i in range(1, g + 1):
        rows.append(tuple(-1.0 * gamma_coord(i, c) for c in (1, 2, 3)))
    hs = []
    for k in range(-1, 2 * g + 1):
        acc = Observable()
        for p in range(len(rows)):
            q = k + 2 - p
            if 0 <= q < len(rows):
                for c in range(3):
                    acc = acc + rows[p][c] * rows[q][c]
        hs.append(0.5 * acc)
    h = hs[1] + (-m / (2.0 * (1.0 + m))) * (hs[0] * hs[0])
    return [hs[0], h] + hs[2:]


def _flat_rhs(y, m, g):
    """Equations of motion on the flat layout [w1, w2, w3, g_11, .., g_g3]."""
    w1, w2, w3 = y[0], y[1], y[2]
    rows = [(w1, w2, (1.0 + m) * w3)]
    for i in range(g):
        base = 3 + 3 * i
        rows.append((y[base], y[base + 1], y[base + 2]))
    rows.append((0.0, 0.0, 0.0))
    a, b = rows[0], rows[1]
    out = [
        a[1] * w3 - a[2] * w2 - b[1],
        a[2] * w1 - a[0] * w3 + b[0],
        0.0,
    ]
    for i in range(1, g + 1):
        a, b = rows[i], rows[i + 1]
        out.append(a[1] * w3 - a[2] * w2 + b[1])
        out.append(a[2] * w1 - a[0] * w3 - b[0])
        out.append(a[0] * w2 - a[1] * w1)
    return out


def integrate(s0: TopState, t_end: float, dt: float, sample_every: int = 1) -> "Trajectory":
    """Classical fourth-order fixed-step integration of the Lax flow.

    The returned trajectory always contains the t=0 and t=t_end samples;
    intermediate samples are kept every ``sample_every`` steps.  Raises
    IntegrationBlowupError when the state stops being finite.
    """
    if dt <= 0.0 or t_end <= 0.0:
        raise ValidationError(f"need dt > 0 and t_end > 0, got dt={dt}, t_end={t_end}")
    if sample_every < 1:
        raise ValidationError(f"need sample_every >= 1, got {sample_every}")
    g, m = s0.g, s0.m
    y = list(s0.omega) + [c for row in s0.gamma for c in row]
    times = [0.0]
    samples = [list(y)]
    t = 0.0
    step = 0
    tiny = 1e-12 * max(1.0, t_end)
    while t < t_end - tiny:
        h = dt if t + dt <= t_end + tiny else t_end - t
        k1 = _flat_rhs(y, m, g)
        y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
        k2 = _flat_rhs(y2, m, g)
        y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
        k3 = _flat_rhs(y3, m, g)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4 = _flat_rhs(y4, m, g)
        w = h / 6.0
        y = [
            a + w * (b + 2.0 * (c + d) + e)
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        ]
        t += h
        step += 1
        if not all(map(math.isfinite, y)):
            raise IntegrationBlowupError(f"state became non-finite at t={t}", time=t)
        if step % sample_every == 0 or t >= t_end - tiny:
            times.append(min(t, t_end))
            samples.append(list(y))
    times[-1] = t_end
    arr = np.asarray(samples)
    return Trajectory(
        m=m,
        times=np.asarray(times),
        omegas=arr[:, :3],
        gammas=arr[:, 3:].reshape(len(times), g, 3),
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution curve with first-integral bookkeeping."""

    m: float
    times: np.ndarray
    omegas: np.ndarray
    gammas: np.ndarray

    @property
    def g(self):
        return self.gammas.shape[1]

    def __len__(self):
        return self.times.shape[0]

    def state_at(self, index) -> TopState:
        return TopState.of(self.m, self.omegas[index], self.gammas[index])

    def first_integral_table(self):
        """One row of (h_minus1, h, h_1, ..) per sample."""
        return _integral_table(self.m, self.omegas, self.gammas)

    def max_relative_drift(self):
        """Per integral: max |value - initial| / max(1, |initial|)."""
        table = self.first_integral_table()
        ref = table[0]
        return np.max(np.abs(table - ref[None, :]), axis=0) / np.maximum(1.0, np.abs(ref))

    def to_csv(self, path):
        g = self.g
        header = ["t", "omega1", "omega2", "omega3"]
        header += [f"gamma_{i}_{k}" for i in range(1, g + 1) for k in (1, 2, 3)]
        header += level_labels(g)
        table = self.first_integral_table()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for idx in range(len(self)):
                row = [self.times[idx], *self.omegas[idx]]
                row += list(self.gammas[idx].reshape(-1))
                row += list(table[idx])
                writer.writerow([f"{v:.17g}" for v in row])
