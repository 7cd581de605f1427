"""The generated RK4 kernel against the list-based stepper it replaced.

``_flat_rhs_ref`` and ``_integrate_ref`` are the former equations of motion
and RK4 loop of ``topsys``, kept verbatim as the reference: the generated
kernel must round every float operation the same way, so trajectories,
blow-up times, the Lax vector field and the CLI's CSV are required to be
bit-identical, not merely close.
"""

import itertools
import math

import numpy as np
import pytest

from topmonodromy import cli
from topmonodromy.errors import IntegrationBlowupError
from topmonodromy.topsys import TopState, Trajectory, integrate, lax_rhs

from conftest import random_top_state


def _flat_rhs_ref(y, m, g):
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


def _integrate_ref(s0, t_end, dt, sample_every=1):
    """The list-based RK4 loop, returning a Trajectory."""
    g, m = s0.g, s0.m
    y = list(s0.omega) + [c for row in s0.gamma for c in row]
    times = [0.0]
    samples = [list(y)]
    t = 0.0
    step = 0
    tiny = 1e-12 * max(1.0, t_end)
    while t < t_end - tiny:
        h = dt if t + dt <= t_end + tiny else t_end - t
        k1 = _flat_rhs_ref(y, m, g)
        y2 = [a + 0.5 * h * b for a, b in zip(y, k1)]
        k2 = _flat_rhs_ref(y2, m, g)
        y3 = [a + 0.5 * h * b for a, b in zip(y, k2)]
        k3 = _flat_rhs_ref(y3, m, g)
        y4 = [a + h * b for a, b in zip(y, k3)]
        k4 = _flat_rhs_ref(y4, m, g)
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


def _signed_zero_state(g):
    """A state whose -0.0 entries meet the "+ 0.0" and "+ hh * 0.0" terms.

    With the last gamma row (-0.0, 0.0, 0.0), dropping the "+ 0.0" of that
    row's first derivative component changes the sign of a sampled zero.
    """
    rows = [(0.1 * (i + 1), -0.0, 0.2) for i in range(g - 1)] + [(-0.0, 0.0, 0.0)]
    return TopState.of(0.7, (0.0, 0.25, -0.3), rows[:g])


def _same_trajectory(a, b):
    assert a.times.tobytes() == b.times.tobytes()
    assert a.omegas.tobytes() == b.omegas.tobytes()
    assert a.gammas.tobytes() == b.gammas.tobytes()


@pytest.mark.parametrize("sample_every", [1, 7, 100])
@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_trajectory_matches_list_stepper(g, sample_every):
    rng = np.random.default_rng(100 + g)
    # 2.345 / 0.01 is not a whole number of steps: the last step is short
    all_negative_zero = TopState.of(0.5, (-0.0,) * 3, [(-0.0,) * 3] * g)
    for s0 in (random_top_state(rng, g), _signed_zero_state(g), all_negative_zero):
        traj = integrate(s0, 2.345, 0.01, sample_every=sample_every)
        _same_trajectory(traj, _integrate_ref(s0, 2.345, 0.01, sample_every))
        assert traj.times[-1] == 2.345


@pytest.mark.parametrize(
    "s0, t_end, dt",
    [
        (TopState.of(1.0, (1e80, 1e80, 1e80), [(1e80, 0.0, 0.0)]), 10.0, 1.0),
        (TopState.of(0.5, (3.0, -2.0, 1.0), [(1e100, -1e100, 5.0)] * 2), 50.0, 0.5),
    ],
)
def test_blowup_time_matches_list_stepper(s0, t_end, dt):
    with pytest.raises(IntegrationBlowupError) as ref:
        _integrate_ref(s0, t_end, dt)
    with pytest.raises(IntegrationBlowupError) as got:
        integrate(s0, t_end, dt)
    assert got.value.time == ref.value.time
    assert str(got.value) == str(ref.value)


def _zero_sign_states():
    """Every g = 0 and g = 1 state with entries in {-0.0, 0.0, 0.25}."""
    for n in (3, 6):
        for flat in itertools.product((-0.0, 0.0, 0.25), repeat=n):
            yield TopState.of(0.7, flat[:3], [flat[3:]] if n == 6 else ())


def _random_states():
    rng = np.random.default_rng(43)
    for n in range(2000):
        yield random_top_state(rng, n % 5, scale=10.0 ** rng.uniform(-3.0, 3.0))


@pytest.mark.parametrize("states", [_random_states, _zero_sign_states])
def test_lax_rhs_matches_flat_rhs_bitwise(states):
    for s in states():
        g = s.g
        flat = list(s.omega) + [c for row in s.gamma for c in row]
        ds = lax_rhs(s)
        got = list(ds.omega) + [c for row in ds.gamma for c in row]
        want = _flat_rhs_ref(flat, s.m, g)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert ds.m == s.m and ds.g == g


def test_simulate_csv_matches_list_stepper(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main(
        [
            "simulate", "--m", "0.5", "--state", "0.3,-0.2,0.5;0.1,0.2,0.9;-0.4,0.0,0.3",
            "--t", "3.21", "--dt", "0.001", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    s0 = TopState.of(0.5, (0.3, -0.2, 0.5), [(0.1, 0.2, 0.9), (-0.4, 0.0, 0.3)])
    ref = tmp_path / "ref.csv"
    _integrate_ref(s0, 3.21, 0.001, sample_every=3).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()
