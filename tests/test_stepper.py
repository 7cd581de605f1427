"""The generated RK4 kernel against the list-based stepper it replaced.

``_flat_rhs_ref`` and ``_integrate_ref`` are the former equations of motion
and RK4 loop of ``topsys``, kept verbatim as the reference: the generated
kernel must round every float operation the same way, so trajectories,
blow-up times, the Lax vector field and the CLI's CSV are required to be
bit-identical, not merely close.  ``_to_csv_ref`` is the former
``csv.writer`` body of ``Trajectory.to_csv``, the reference for its bytes.
"""

import csv
import dis
import itertools
import math
import sys

import numpy as np
import pytest

from topmonodromy import cli
from topmonodromy.errors import IntegrationBlowupError
from topmonodromy.topsys import (
    _CSV_CHUNK_ROWS,
    TopState,
    Trajectory,
    _kernel,
    integrate,
    lax_rhs,
    level_labels,
)

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


def _to_csv_ref(self, path):
    """The former body of Trajectory.to_csv, one csv.writer row per sample."""
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


def test_first_stage_reads_a_negative_zero_omega_3_as_it_is():
    # only the first step's first stage reads omega_3 = -0.0 itself; every
    # later stage reads -0.0 + 0.0 = +0.0.  With 1 + m < 0 the sign of
    # (1 + m) * omega_3 reaches the trajectory for some zero patterns
    for flat in itertools.product((-0.0, 0.0, 0.25, -0.5), repeat=5):
        s0 = TopState.of(-1.5, (*flat[:2], -0.0), [flat[2:]])
        _same_trajectory(integrate(s0, 0.02, 0.01), _integrate_ref(s0, 0.02, 0.01))


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


def _blowup_state(g, t_end, step):
    """The largest start 2**e * (1, 0) of (omega_1, omega_2) whose dt = 1
    run to t_end stays finite for step - 1 steps; the gamma rows are 0.

    h * m * omega_3 = 8 lies far outside RK4's stability interval: each step
    multiplies the (omega_1, omega_2) rotation by about 160.  The stages are
    linear in it, so doubling the start doubles every value exactly until
    one overflows, and the first non-finite step moves monotonically in e.
    """

    def state(e):
        return TopState.of(1.0, (2.0**e, 0.0, 8.0), [(0.0, 0.0, 0.0)] * g)

    def survives(e):
        try:
            _integrate_ref(state(e), t_end, 1.0)
        except IntegrationBlowupError as err:
            return err.time > step - 1
        return True

    lo, hi = -1022, 1023  # survives(lo) and not survives(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if survives(mid) else (lo, mid)
    return state(lo)


@pytest.mark.parametrize("where", ["first", "last", "short"])
@pytest.mark.parametrize("sample_every", [1, 7, 100])
@pytest.mark.parametrize("g", [1, 2])
def test_blowup_replay_matches_list_stepper(g, sample_every, where):
    # the first non-finite state comes on the first step of the third
    # sample block, on the last step of the second, or on the shortened
    # final step, which sits mid-block unless sample_every is 1
    step = {
        "first": 2 * sample_every + 1,
        "last": 2 * sample_every,
        "short": 2 * sample_every + sample_every // 2 + 1,
    }[where]
    t_end = step - 0.1 if where == "short" else step + 10.0
    s0 = _blowup_state(g, t_end, step)
    with pytest.raises(IntegrationBlowupError) as ref:
        _integrate_ref(s0, t_end, 1.0, sample_every)
    with pytest.raises(IntegrationBlowupError) as got:
        integrate(s0, t_end, 1.0, sample_every=sample_every)
    assert ref.value.time == (t_end if where == "short" else step)
    assert got.value.time == ref.value.time
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("g", [0, 1, 2])
def test_kernel_checks_finiteness_once_per_sample_block(monkeypatch, g):
    calls = []
    isfinite = math.isfinite

    def counting_isfinite(x):
        calls.append(x)
        return isfinite(x)

    # a freshly compiled kernel, not the cached one, reads the counting
    # isfinite; the cache keeps the plain one
    monkeypatch.setattr(math, "isfinite", counting_isfinite)
    _, run = _kernel.__wrapped__(g)
    n = 3 + 3 * g
    dt = 2.0**-10  # 1000 steps of an exact binary dt, in 10 blocks
    times, _ = run([0.3, -0.2, 0.5] + [0.1] * (3 * g), 0.5, 1000 * dt, dt, 100)
    assert times == [100 * dt * b for b in range(11)]
    assert 0 < len(calls) <= 10 * n


def _csv_trajectory(g, rows):
    """A trajectory whose first row alternates -0.0 and 0.0, whose second
    row holds +-5e-324 and +-1e300, and whose other rows mix random values
    of every magnitude with those special values."""
    rng = np.random.default_rng(300 + g + rows)
    shape = (rows, 4 + 3 * g)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300])
    flat = rng.normal(size=shape) * 10.0 ** rng.uniform(-40.0, 40.0, size=shape)
    mask = rng.random(shape) < 0.3
    flat[mask] = rng.choice(special, size=int(mask.sum()))
    flat[0] = np.resize(special[[1, 0]], shape[1])
    flat[1] = np.resize(special[2:], shape[1])
    return Trajectory(
        m=0.7, times=flat[:, 0], omegas=flat[:, 1:4], gammas=flat[:, 4:].reshape(rows, g, 3)
    )


@pytest.mark.parametrize("rows", [2, _CSV_CHUNK_ROWS, 2 * _CSV_CHUNK_ROWS + 3])
@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_csv_matches_the_csv_writer(tmp_path, g, rows):
    traj = _csv_trajectory(g, rows)
    # 1e300 squared overflows in the integral columns of both writers
    with np.errstate(over="ignore", invalid="ignore"):
        traj.to_csv(tmp_path / "got.csv")
        _to_csv_ref(traj, tmp_path / "ref.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == rows + 1
    for token in (b"-0,", b"4.9406564584124654e-324", b"1e+300"):
        assert token in got


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
