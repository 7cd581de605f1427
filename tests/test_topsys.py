"""Tests for the generalized top: vector field, integrals, brackets, flow."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topmonodromy.errors import IntegrationBlowupError, ValidationError
from topmonodromy.topsys import (
    LevelVector,
    Observable,
    TopState,
    first_integral_observables,
    first_integrals,
    gamma_coord,
    integrate,
    lax_rhs,
    level_labels,
    observable_bracket,
    omega_coord,
    poisson_bracket,
)

from conftest import closed_form_integrals, hand_expanded_rhs_g2, random_top_state


def test_lax_rhs_g0_example():
    s = TopState.of(1.0, (1.0, 0.0, 1.0))
    ds = lax_rhs(s)
    assert ds.omega == (0.0, 1.0, 0.0)


def test_lax_rhs_g1_equilibrium():
    s = TopState.of(0.7, (0.0, 0.0, 0.0), [(0.0, 0.0, 5.0)])
    ds = lax_rhs(s)
    assert ds.omega == (0.0, 0.0, 0.0)
    assert ds.gamma == ((0.0, 0.0, 0.0),)


def test_lax_rhs_g2_matches_hand_expansion():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = random_top_state(rng, 2)
        ds = lax_rhs(s)
        domega, dgamma = hand_expanded_rhs_g2(s)
        assert np.allclose(ds.omega, domega, rtol=0.0, atol=1e-14)
        assert np.allclose(ds.gamma, dgamma, rtol=0.0, atol=1e-14)


def test_lax_rhs_omega3_identically_zero():
    rng = np.random.default_rng(11)
    for g in range(4):
        for _ in range(25):
            s = random_top_state(rng, g, scale=3.0)
            assert lax_rhs(s).omega[2] == 0.0


def test_h_minus1_any_state():
    rng = np.random.default_rng(3)
    for g in range(4):
        s = random_top_state(rng, g)
        levels = first_integrals(s)
        assert levels.h_minus1 == pytest.approx((1.0 + s.m) * s.omega[2], abs=1e-15)


def test_first_integrals_g1_example():
    s = TopState.of(0.3, (0.0, 0.0, 0.0), [(0.0, 0.0, 1.0)])
    levels = first_integrals(s)
    assert levels.g == 1
    assert levels.h == pytest.approx(-1.0, abs=1e-15)
    assert levels.values[2] == pytest.approx(0.0, abs=1e-15)
    assert levels.values[3] == pytest.approx(0.5, abs=1e-15)


def test_first_integrals_match_closed_forms():
    rng = np.random.default_rng(5)
    for g in range(3):
        for _ in range(100):
            s = random_top_state(rng, g, scale=2.0)
            got = first_integrals(s).as_array()
            want = np.asarray(closed_form_integrals(s))
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def first_integrals_loop_ref(s):
    """The former scalar first_integrals: the Laurent coefficients summed
    pair by pair in Python floats."""
    coeffs = [(0.0, 0.0, 1.0), s.gamma0] + [tuple(-c for c in row) for row in s.gamma]
    hs = []
    for k in range(-1, 2 * s.g + 1):
        total = 0.0
        for p in range(len(coeffs)):
            q = k + 2 - p
            if 0 <= q < len(coeffs):
                a, b = coeffs[p], coeffs[q]
                total += a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
        hs.append(0.5 * total)
    h = hs[1] - (s.m / (2.0 * (1.0 + s.m))) * hs[0] ** 2
    return (hs[0], h, *hs[2:])


def test_first_integrals_match_the_former_scalar_loop():
    # the array kernel sums each dot product in another order, so the two
    # may differ in the last bits; entries up to 2 keep every term below 20
    rng = np.random.default_rng(8)
    for g in range(4):
        for _ in range(200):
            s = random_top_state(rng, g, scale=2.0)
            got = first_integrals(s).as_array()
            want = np.asarray(first_integrals_loop_ref(s))
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def test_first_integrals_are_row_zero_of_the_trajectory_table():
    rng = np.random.default_rng(9)
    for g in range(3):
        s = random_top_state(rng, g)
        table = integrate(s, 0.01, 1e-3).first_integral_table()
        assert first_integrals(s).values == tuple(table[0])


def test_first_integrals_conserved_along_flow():
    # the integrals are quadratic, so the centered difference along the flow
    # direction equals the exact directional derivative up to roundoff
    rng = np.random.default_rng(13)
    eps = 1e-3
    for g in range(4):
        for _ in range(250):
            s = random_top_state(rng, g)
            v = lax_rhs(s)
            plus = TopState.of(
                s.m,
                [a + eps * b for a, b in zip(s.omega, v.omega)],
                [
                    [a + eps * b for a, b in zip(row, vrow)]
                    for row, vrow in zip(s.gamma, v.gamma)
                ],
            )
            minus = TopState.of(
                s.m,
                [a - eps * b for a, b in zip(s.omega, v.omega)],
                [
                    [a - eps * b for a, b in zip(row, vrow)]
                    for row, vrow in zip(s.gamma, v.gamma)
                ],
            )
            fd = (first_integrals(plus).as_array() - first_integrals(minus).as_array()) / (2 * eps)
            assert np.max(np.abs(fd)) < 1e-9


def test_level_vector_validation():
    with pytest.raises(ValidationError):
        LevelVector.of(0.0, (1.0, 2.0, 3.0))
    lv = LevelVector.of(0.5, (1.0, 2.0, 3.0, 4.0))
    assert lv.g == 1
    assert lv.h_minus1 == 1.0 and lv.h == 2.0
    assert level_labels(1) == ["h_minus1", "h", "h1", "h2"]


def test_bracket_coordinate_table():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_top_state(rng, 2)
        big = 1.0 + s.m
        w1, w2, _ = s.omega
        assert poisson_bracket(omega_coord(1), omega_coord(2), s) == pytest.approx(
            -big * s.omega[2], abs=1e-13
        )
        assert poisson_bracket(omega_coord(2), omega_coord(1), s) == pytest.approx(
            big * s.omega[2], abs=1e-13
        )
        assert poisson_bracket(omega_coord(1), omega_coord(3), s) == pytest.approx(
            w2 / big, abs=1e-13
        )
        assert poisson_bracket(omega_coord(2), omega_coord(3), s) == pytest.approx(
            -w1 / big, abs=1e-13
        )
        # rows overflow to zero: row indices 1 and 2 add past g = 2
        assert poisson_bracket(gamma_coord(1, 3), gamma_coord(2, 3), s) == 0.0
        assert poisson_bracket(gamma_coord(1, 1), gamma_coord(2, 2), s) == 0.0
        # antisymmetric resolution of the gamma/omega corner: no mass factor
        assert poisson_bracket(gamma_coord(1, 3), omega_coord(2), s) == pytest.approx(
            s.gamma[0][0], abs=1e-13
        )


def test_bracket_reproduces_equations_of_motion():
    rng = np.random.default_rng(19)
    for g in (1, 2):
        for _ in range(20):
            s = random_top_state(rng, g)
            h_obs = first_integral_observables(g, s.m)[1]
            ds = lax_rhs(s)
            for k in (1, 2, 3):
                got = poisson_bracket(omega_coord(k), h_obs, s)
                assert got == pytest.approx(ds.omega[k - 1], abs=1e-12)
            for i in range(1, g + 1):
                for k in (1, 2, 3):
                    got = poisson_bracket(gamma_coord(i, k), h_obs, s)
                    assert got == pytest.approx(ds.gamma[i - 1][k - 1], abs=1e-12)


def _coordinate_pool(g):
    labels = [("omega", k) for k in (1, 2, 3)]
    labels += [("gamma", i, k) for i in range(1, g + 1) for k in (1, 2, 3)]
    return labels


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(23)
    for g in (1, 2):
        pool = _coordinate_pool(g)
        for _ in range(50):
            s = random_top_state(rng, g)
            picks = rng.choice(len(pool), size=3)
            a, b, c = (Observable.coordinate(pool[p]) for p in picks)
            ab = observable_bracket(a, b, g, s.m)
            bc = observable_bracket(b, c, g, s.m)
            ca = observable_bracket(c, a, g, s.m)
            total = (
                poisson_bracket(ab, c, s)
                + poisson_bracket(bc, a, s)
                + poisson_bracket(ca, b, s)
            )
            assert abs(total) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=8),
            st.floats(min_value=-2.0, max_value=2.0),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_bracket_antisymmetry_random_observables(data):
    g = 2
    pool = _coordinate_pool(g)
    s = TopState.of(0.4, (0.3, -0.7, 0.9), [(0.2, 0.5, -0.1), (-0.4, 0.8, 0.6)])
    f_obs = Observable()
    g_obs = Observable()
    for ia, ib, coeff in data:
        f_obs = f_obs + Observable.monomial((pool[ia], pool[ib]), coeff)
        g_obs = g_obs + Observable.monomial((pool[ib], pool[ia]), 1.0 - coeff)
    forward = poisson_bracket(f_obs, g_obs, s)
    backward = poisson_bracket(g_obs, f_obs, s)
    assert abs(forward + backward) < 1e-10


def test_integrals_in_involution():
    rng = np.random.default_rng(29)
    for g, reps, tol in ((1, 100, 1e-12), (2, 25, 1e-10)):
        for _ in range(reps):
            s = random_top_state(rng, g)
            obs = first_integral_observables(g, s.m)
            for i in range(len(obs)):
                for j in range(i, len(obs)):
                    assert abs(poisson_bracket(obs[i], obs[j], s)) < tol


def test_first_integral_observables_match_values():
    rng = np.random.default_rng(31)
    for g in range(3):
        s = random_top_state(rng, g, scale=2.0)
        values = first_integrals(s).as_array()
        obs = first_integral_observables(g, s.m)
        sym = np.array([o.evaluate(s) for o in obs])
        assert np.allclose(sym, values, rtol=0.0, atol=1e-12)


def test_integrate_g0_rotation():
    s0 = TopState.of(1.0, (1.0, 0.0, 1.0))
    traj = integrate(s0, 2.0 * math.pi, 1e-3, sample_every=10)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0 * math.pi
    assert np.allclose(traj.omegas[-1], (1.0, 0.0, 1.0), atol=1e-9)
    radius = traj.omegas[:, 0] ** 2 + traj.omegas[:, 1] ** 2
    assert np.max(np.abs(radius - 1.0)) < 1e-10
    assert np.all(traj.omegas[:, 2] == 1.0)


def test_integrate_equilibrium_constant():
    s0 = TopState.of(0.7, (0.0, 0.0, 0.0), [(0.0, 0.0, 5.0)])
    traj = integrate(s0, 1.0, 0.01)
    assert np.all(traj.omegas == 0.0)
    assert np.all(traj.gammas[:, 0, 2] == 5.0)


def test_integrate_blowup_reports_time():
    s0 = TopState.of(1.0, (1e80, 1e80, 1e80), [(1e80, 0.0, 0.0)])
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s0, 10.0, 1.0)
    assert err.value.time <= 2.0


def test_integrals_that_overflow_on_a_finite_state_are_a_blowup():
    # after two dt = 1 steps the state is finite (gamma about 2.3e215), but
    # h2 is not
    s0 = TopState.of(0.5, (1e5, 0.0, 0.0), [(0.0, 0.0, 1e5)])
    with pytest.raises(IntegrationBlowupError) as err:
        integrate(s0, 2.0, 1.0)
    assert err.value.time == 2.0
    assert str(err.value) == "first integrals became non-finite at t=2.0"


def test_first_integrals_that_overflow_are_rejected():
    with pytest.raises(ValidationError, match="not finite"):
        first_integrals(TopState.of(0.5, (1e200, 0.0, 0.0), [(0.0, 0.0, 0.0)]))


def test_integrate_rejects_bad_steps():
    s0 = TopState.of(1.0, (1.0, 0.0, 1.0))
    with pytest.raises(ValidationError):
        integrate(s0, -1.0, 0.1)
    with pytest.raises(ValidationError):
        integrate(s0, 1.0, 0.0)


@pytest.mark.parametrize(
    "t_end, dt",
    [(10.0, math.nan), (10.0, math.inf), (math.nan, 0.01), (math.inf, 0.01)],
)
def test_integrate_rejects_non_finite_span(t_end, dt):
    s0 = TopState.of(1.0, (1.0, 0.0, 1.0), [(0.1, 0.2, 0.3)])
    with pytest.raises(ValidationError, match="finite"):
        integrate(s0, t_end, dt)


def test_integrate_rejects_a_span_of_2_to_the_53_steps():
    # from 2**53 steps on, t + dt can no longer advance t; 1e300 / 1e-10
    # overflows to inf
    s0 = TopState.of(0.5, (0.3, -0.2, 0.5), [(0.1, 0.2, 0.9)])
    for t_end, dt in ((1e300, 1e-10), (2.0**53, 1.0)):
        with pytest.raises(ValidationError, match=r"t_end / dt < 2\*\*53"):
            integrate(s0, t_end, dt)


@pytest.mark.parametrize("every", [0, -3, 2.5, 2.0, np.float64(3.0), "3", None])
def test_integrate_rejects_a_sample_every_that_is_not_a_positive_integer(every):
    s0 = TopState.of(1.0, (1.0, 0.0, 1.0), [(0.1, 0.2, 0.3)])
    with pytest.raises(ValidationError, match="sample_every"):
        integrate(s0, 1.0, 0.1, sample_every=every)


def test_integrate_takes_a_numpy_integer_sample_every():
    s0 = TopState.of(1.0, (1.0, 0.0, 1.0), [(0.1, 0.2, 0.3)])
    ref = integrate(s0, 1.0, 0.1, sample_every=3)
    for every in (np.int64(3), np.int32(3), np.uint8(3)):
        traj = integrate(s0, 1.0, 0.1, sample_every=every)
        assert traj.times.tobytes() == ref.times.tobytes()
        assert traj.gammas.tobytes() == ref.gammas.tobytes()


def test_a_span_shorter_than_2e_12_takes_one_shortened_step():
    s0 = TopState.of(0.5, (0.3, -0.2, 0.5), [(0.1, 0.2, 0.9)])
    traj = integrate(s0, 1e-13, 1e-3)
    assert traj.times.tolist() == [0.0, 1e-13]
    # the same step of h = 1e-13 as a span of exactly one dt
    whole = integrate(s0, 1e-13, 1e-13)
    assert traj.omegas.tobytes() == whole.omegas.tobytes()
    assert traj.gammas.tobytes() == whole.gammas.tobytes()
    d = lax_rhs(s0)
    assert np.allclose(
        (traj.gammas[1] - traj.gammas[0]) / 1e-13, d.gamma, rtol=0.0, atol=1e-2
    )
    assert np.any(traj.gammas[1] != traj.gammas[0])


def test_trajectory_endpoints_and_drift():
    rng = np.random.default_rng(37)
    s0 = random_top_state(rng, 2)
    traj = integrate(s0, 1.0, 1e-3, sample_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    drift = traj.max_relative_drift()
    assert drift.shape == (6,)
    assert np.max(drift) < 1e-8


def test_trajectory_csv_export(tmp_path):
    s0 = TopState.of(0.5, (0.4, -0.2, 0.8), [(0.1, 0.2, 0.3)])
    traj = integrate(s0, 0.1, 0.01)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["t", "omega1", "omega2", "omega3"]
    header += ["gamma_1_1", "gamma_1_2", "gamma_1_3"]
    header += ["h_minus1", "h", "h1", "h2"]
    assert rows[0] == header
    assert len(rows) == len(traj) + 1
    first = [float(v) for v in rows[1]]
    assert first[0] == 0.0
    assert first[1:4] == pytest.approx([0.4, -0.2, 0.8])
    assert first[7:] == pytest.approx(list(first_integrals(s0).values))
