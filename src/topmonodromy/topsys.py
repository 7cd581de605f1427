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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowupError, ValidationError, _finite

_E3 = (0.0, 0.0, 1.0)
# rows that Trajectory.to_csv formats and writes at a time
_CSV_CHUNK_ROWS = 128


def _vec3(values, what):
    vec = tuple(float(v) for v in values)
    if len(vec) != 3:
        raise ValidationError(f"{what} must have 3 components, got {len(vec)}")
    return _finite(what, *vec)


def _mass(m):
    m = float(m)
    if not math.isfinite(m) or 1.0 + m == 0.0:
        raise ValidationError(f"mass parameter needs 1+m != 0, got m={m}")
    return m


@dataclass(frozen=True)
class TopState:
    """Phase-space point: mass parameter m, angular velocity, gamma rows."""

    m: float
    omega: tuple
    gamma: tuple

    @classmethod
    def of(cls, m, omega, gamma=()):
        m = _mass(m)
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
        return cls(m=_mass(m), values=_finite("level values", *vals))

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
    flat = (*s.omega, *(c for row in s.gamma for c in row))
    rhs, _ = _kernel(s.g)
    d = rhs(s.m, *flat)
    rows = tuple(d[3 + 3 * i : 6 + 3 * i] for i in range(s.g))
    return TopState(m=s.m, omega=d[:3], gamma=rows)


def first_integrals(s: TopState) -> LevelVector:
    """Conserved values h_minus1, h, h_1 .. h_{2g} at a state.

    h_k is half the lambda**(-k) coefficient of the squared spectral vector
    e3*lambda + gamma_0 - sum_i gamma_i * lambda**(-i); h is the reduced
    Hamiltonian h_0 - (m / (2(1+m))) h_minus1**2.  The values are row 0
    of _integral_table for the one state.  A state whose values overflow
    is a ValidationError.
    """
    table = _integral_table(
        s.m, np.array([s.omega]), np.array(s.gamma, dtype=float).reshape(1, s.g, 3)
    )
    values = tuple(float(v) for v in table[0])
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"first integrals of the state are not finite: {values}")
    return LevelVector(m=s.m, values=values)


@np.errstate(over="ignore", invalid="ignore")
def _integral_table(m, omegas, gammas):
    """First integrals for sampled states, one row per sample.

    The one implementation behind first_integrals (a single row) and the
    trajectory's drift report and CSV.  Values that overflow come out as
    inf or NaN, without a warning; first_integrals and integrate
    reject them.
    """
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


def _rhs_lines(g, src, dst, z=None):
    """Source lines computing the equations of motion from names src to dst.

    The state is flat, [w1, w2, w3, g_11, .., g_g3]; the omega_3 slot of the
    derivative is the literal 0.0 and gets no name.  ``mp`` must hold 1 + m;
    ``z`` names a local that already holds mp * w3, and without it the first
    line computes one.  Each expression keeps the operand order of the cross
    products gamma_i x omega -/+ gamma_{i+1} x e3, including the "+ 0.0" of
    the last row's zero neighbour, which turns -0.0 into +0.0, so every
    derivative rounds the same wherever the lines are pasted.  Its "- 0.0"
    is left out: x - 0.0 is x, bit for bit, for every float.
    """
    w1, w2, w3 = src[:3]
    lines = [] if z else [f"z = mp * {w3}"]
    rows = [(w1, w2, z or "z")]
    rows += [tuple(src[3 + 3 * i : 6 + 3 * i]) for i in range(g)]
    rows.append(("0.0", "0.0", "0.0"))

    def kick(sign, name):
        return "" if (sign, name) == ("-", "0.0") else f" {sign} {name}"

    for i in range(g + 1):
        a, b = rows[i], rows[i + 1]
        d = dst[3 * i : 3 * i + 3]
        kick1, kick0 = ("-", "+") if i == 0 else ("+", "-")
        lines.append(f"{d[0]} = {a[1]} * {w3} - {a[2]} * {w2}" + kick(kick1, b[1]))
        lines.append(f"{d[1]} = {a[2]} * {w1} - {a[0]} * {w3}" + kick(kick0, b[0]))
        if i:  # row 0's third component is not stored: omega_3 is constant
            lines.append(f"{d[2]} = {a[0]} * {w2} - {a[1]} * {w1}")
    return lines


_KERNEL_TEMPLATE = """
def rhs(m, {ys}):
    mp = 1.0 + m
{rhs}
    return ({ks},)


def run(y, m, t_end, dt, sample_every, t=0.0):
    {ys}, = y
    mp = 1.0 + m
    z1 = mp * y2
    u = y2 + 0.0
    zu = mp * u
    times = [t]
    samples = [({ys},)]
    # at most half of t_end, so that a span shorter than 2e-12 takes its step
    tiny = min(1e-12 * max(1.0, t_end), 0.5 * t_end)
    t_hi = t_end + tiny
    t_lo = t_end - tiny
    h = dt
    hh = 0.5 * h
    w = h / 6.0
    while t < t_lo:
        for _ in range(sample_every):
            if t + dt > t_hi:
                h = t_end - t
                hh = 0.5 * h
                w = h / 6.0
{stages}
{update}
            t += h
            if t >= t_lo:
                break
        if not ({finite}):
            if sample_every == 1:
                raise IntegrationBlowupError(f"state became non-finite at t={{t}}", time=t)
            run(samples[-1], m, t_end, dt, 1, times[-1])
        times.append(min(t, t_end))
        samples.append(({ys},))
    return times, samples
"""


@functools.lru_cache(maxsize=16)
def _kernel(g):
    """(rhs, run): the equations of motion and the whole RK4 loop for genus
    g, compiled from straight-line source.

    The state lives in scalar locals y0..y{3+3g-1} instead of lists; every
    float operation is the one, in the same order, that the list form
    ``a + 0.5 * h * b`` / ``a + w * (b + 2.0 * (c + d) + e)`` over the
    equations of motion performs, so trajectories are bit-identical to it.
    Two kinds of operation are left out because their result is known:

    * The omega_3 slot's derivative is exactly 0.0 and h > 0, so every
      stage input ``y2 + hh * 0.0`` and every update of ``y2`` equal
      ``u = y2 + 0.0``, and every stage's ``z = mp * omega_3`` after the
      first step's first equals ``zu = mp * u``: both are computed once per
      call.  The "+ 0.0" is kept, because it turns an initial -0.0 into
      +0.0; the first step's first stage still reads the raw ``y2``.
    * ``x - 0.0`` (see ``_rhs_lines``).

    ``run`` makes the steps of one sample block in a ``for`` loop whose body
    ends in an unconditional backward jump.  CPython 3.11 counts only that
    jump (and calls) toward specializing a function's bytecode to float
    instructions; a ``while`` test at the bottom compiles to a conditional
    backward jump that does not count, and left the kernel unspecialized
    for its first seven calls.  ``hh`` and ``w`` are set once, and again
    only for the shortened last step.

    Finiteness is checked once per sample block, after its ``for`` loop.
    A NaN or inf component stays non-finite through ``y + w * (...)``, so a
    block that ends finite was finite after every step.  A block that ends
    non-finite is run again from its first sample, (times[-1],
    samples[-1]), with one step per block: that replay makes the same float
    operations, checks after every step and raises at the same step, with
    the same time and message, as a check after every step would.  A
    one-step block raises directly, so the replay does not recurse.
    """
    n = 3 + 3 * g
    y = [f"y{i}" for i in range(n)]
    rest = [i for i in range(n) if i != 2]

    def slot(prefix):
        # the omega_3 derivative is exactly 0.0 and is written as a literal
        return [f"{prefix}{i}" if i != 2 else "0.0" for i in range(n)]

    k = [slot(f"k{s}_") for s in (1, 2, 3, 4)]
    stages = _rhs_lines(g, y, k[0], z="z1")
    for s, step in ((2, "hh"), (3, "hh"), (4, "h")):
        x = [f"x{s}_{i}" if i != 2 else "u" for i in range(n)]
        stages += [f"{x[i]} = {y[i]} + {step} * {k[s - 2][i]}" for i in rest]
        stages += _rhs_lines(g, x, k[s - 1], z="zu")
    update = [
        f"{y[i]} = {y[i]} + w * ({k[0][i]} + 2.0 * ({k[1][i]} + {k[2][i]}) + {k[3][i]})"
        for i in rest
    ] + ["y2 = u", "z1 = zu"]
    source = _KERNEL_TEMPLATE.format(
        ys=", ".join(y),
        rhs="\n".join("    " + line for line in _rhs_lines(g, y, k[0])),
        ks=", ".join(k[0]),
        stages="\n".join("            " + line for line in stages),
        update="\n".join("            " + line for line in update),
        finite=" and ".join(f"isfinite({v})" for v in y),
    )
    namespace = {
        "isfinite": math.isfinite,
        "IntegrationBlowupError": IntegrationBlowupError,
    }
    exec(compile(source, f"<topsys rk4 kernel g={g}>", "exec"), namespace)
    return namespace["rhs"], namespace["run"]


def check_span(t_end, dt):
    """Reject a time span or step that is not a finite positive number, and
    a span of 2**53 steps or more, past which t + dt no longer moves t."""
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf):
        raise ValidationError(
            f"need finite dt > 0 and t_end > 0, got dt={dt}, t_end={t_end}"
        )
    if t_end / dt >= 2.0**53:
        raise ValidationError(
            f"need t_end / dt < 2**53, got dt={dt}, t_end={t_end}"
        )


def integrate(s0: TopState, t_end: float, dt: float, sample_every: int = 1) -> "Trajectory":
    """Classical fourth-order fixed-step integration of the Lax flow.

    The returned trajectory always contains the t=0 and t=t_end samples;
    intermediate samples are kept every ``sample_every`` steps, a Python or
    NumPy integer >= 1 (anything else is a ValidationError).  Raises
    IntegrationBlowupError when the state stops being finite, or when a
    sample's first integrals do (a finite state's overflow once it passes
    about 1e154).  The loop runs in a kernel generated once per genus (see
    ``_kernel``).
    """
    check_span(t_end, dt)
    try:
        every = operator.index(sample_every)
    except TypeError:
        every = 0
    if every < 1:
        raise ValidationError(f"need an integer sample_every >= 1, got {sample_every!r}")
    g, m = s0.g, s0.m
    y = list(s0.omega) + [c for row in s0.gamma for c in row]
    _, run = _kernel(g)
    times, samples = run(y, m, t_end, dt, every)
    times[-1] = t_end
    arr = np.asarray(samples)
    trajectory = Trajectory(
        m=m,
        times=np.asarray(times),
        omegas=arr[:, :3],
        gammas=arr[:, 3:].reshape(len(times), g, 3),
    )
    finite = np.isfinite(trajectory.first_integral_table()).all(axis=1)
    if not finite.all():
        t = times[int(np.argmin(finite))]
        raise IntegrationBlowupError(f"first integrals became non-finite at t={t}", time=t)
    return trajectory


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
        """Write a header and one row of t, the state and its first integrals
        per sample, each value as "%.17g", comma-separated, CRLF-terminated.

        Rows are formatted and written _CSV_CHUNK_ROWS at a time: for the
        1,001 rows of a g = 2 run, formatting the whole file as one string
        raised peak memory by 1.3 MB, and 128-row chunks by nothing seen.
        """
        g, n = self.g, len(self)
        header = ["t", "omega1", "omega2", "omega3"]
        header += [f"gamma_{i}_{k}" for i in range(1, g + 1) for k in (1, 2, 3)]
        header += level_labels(g)
        table = np.column_stack(
            (self.times, self.omegas, self.gammas.reshape(n, 3 * g), self.first_integral_table())
        )
        row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, n, _CSV_CHUNK_ROWS):
                chunk = table[start : start + _CSV_CHUNK_ROWS].tolist()
                fh.write("".join([row % tuple(values) for values in chunk]))
