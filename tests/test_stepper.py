"""The generated RK4 kernel against the list-based stepper it replaced.

``_flat_rhs_ref`` and ``_integrate_ref`` are the former equations of motion
and RK4 loop of ``topsys``, kept verbatim as the reference: the generated
kernel must round every float operation the same way, so trajectories,
blow-up times, the Lax vector field and the CLI's CSV are required to be
bit-identical, not merely close.
"""

import dis
import itertools
import math
import sys

import numpy as np
import pytest

from topmonodromy import cli
from topmonodromy.errors import IntegrationBlowupError
from topmonodromy.topsys import TopState, Trajectory, _kernel, integrate, lax_rhs

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


@pytest.mark.parametrize("sample_every", [7, 100])
@pytest.mark.parametrize("g", [0, 2])
def test_blowup_inside_a_later_sample_block(g, sample_every):
    # h * m * omega_3 = 3 lies outside RK4's stability interval (2 sqrt 2)
    # for the rotation of (omega_1, omega_2): the amplitude grows about 1.5
    # times a step and first overflows at step 1166, mid-block for both
    # sample_every values (1166 % 7 == 4, 1166 % 100 == 66)
    s0 = TopState.of(1.0, (1e100, 0.0, 3.0), [(0.0, 0.0, 0.0)] * g)
    with pytest.raises(IntegrationBlowupError) as ref:
        _integrate_ref(s0, 5000.0, 1.0, sample_every)
    with pytest.raises(IntegrationBlowupError) as got:
        integrate(s0, 5000.0, 1.0, sample_every=sample_every)
    assert ref.value.time == 1166.0
    assert got.value.time == ref.value.time
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize(
    "t_end, dt, sample_every, samples",
    [
        (0.5, 0.01, 1000, 2),  # one block longer than the whole run
        (0.003, 0.01, 1, 2),  # one short step
        (0.003, 0.01, 7, 2),
        (2.0, 0.0625, 4, 9),  # t_end an exact multiple of dt * sample_every
        (1.0, 0.01, 10, 11),  # the same in decimal steps, with rounded times
        (1.0, 0.01, 100, 2),  # one block exactly as long as the run
    ],
)
@pytest.mark.parametrize("g", [1, 2])
def test_block_edges_match_list_stepper(g, t_end, dt, sample_every, samples):
    s0 = random_top_state(np.random.default_rng(200 + g), g)
    traj = integrate(s0, t_end, dt, sample_every=sample_every)
    _same_trajectory(traj, _integrate_ref(s0, t_end, dt, sample_every))
    assert len(traj) == samples


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="no specializing bytecode interpreter"
)
@pytest.mark.parametrize("g", [1, 2])
def test_kernel_is_specialized_after_its_first_call(g):
    # a freshly compiled kernel, not the cached one other tests have run
    _, run = _kernel.__wrapped__(g)
    run([0.3, -0.2, 0.5] + [0.1] * (3 * g), 0.5, 0.04, 0.001, 7)
    ops = {ins.opname for ins in dis.get_instructions(run, adaptive=True)}
    assert any(op.endswith("_FLOAT") for op in ops), sorted(ops)


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


@pytest.mark.parametrize(
    "m, state",
    [
        (1.3, "0.4,0.1,-0.6;0.2,-0.5,0.3"),
        (0.5, "0.3,-0.2,0.5;0.1,0.2,0.9;-0.4,0.0,0.3"),
    ],
)
def test_simulate_csv_matches_list_stepper_at_the_default_every(
    tmp_path, capsys, m, state
):
    out = tmp_path / "traj.csv"
    code = cli.main(
        [
            "simulate", "--m", str(m), "--state=" + state,
            "--t", "20", "--dt", "0.001", "--out", str(out),
        ]
    )
    assert code == 0
    assert '"sample_every": 20' in capsys.readouterr().out
    rows = [[float(v) for v in row.split(",")] for row in state.split(";")]
    s0 = TopState.of(m, rows[0], rows[1:])
    ref = tmp_path / "ref.csv"
    _integrate_ref(s0, 20.0, 0.001, sample_every=20).to_csv(ref)
    assert out.read_bytes() == ref.read_bytes()
