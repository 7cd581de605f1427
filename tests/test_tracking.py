"""Tests for parameter-space loops and period-lattice monodromy."""

import cmath
import json
import math

import numpy as np
import pytest
from conftest import (
    _MatchingMarch,
    assert_same_march,
    chained_star_loop,
    complex_a2_loop,
    hex_rows,
    matching_march,
    projection_swaps,
    star_loop,
    warm_roots,
)

from topmonodromy.discriminant import quartic_poly, sextic_poly
from topmonodromy import tracking
from topmonodromy.errors import (
    DegenerateInputError,
    NearDiscriminantError,
    QuadratureError,
    RootFindingError,
    TrackingError,
    ValidationError,
)
from topmonodromy.homology import BranchConfig, _intersection_matrix, _min_separation
from topmonodromy.poly import roots
from topmonodromy.tracking import (
    _KAPPA_BASE,
    _KAPPA_GEOMETRY,
    MonodromyResult,
    ParameterLoop,
    _base_frame,
    _check_form,
    _March,
    _braid_word,
    _match_roots,
    _g2_branch_frame,
    _integer_fit,
    _loop_march,
    _transport,
    _vanishing_cycle,
    compose_loops,
    fiber_polynomial,
    monodromy_actions_g1,
    monodromy_periods,
    named_loop,
    parameter_loop,
    picard_lefschetz_route,
    torus_block,
    track_roots,
)

CUSHMAN_MATRIX = ((0, 1, -1), (-1, 2, -1), (0, 0, 1))
CUSHMAN_PERM = (2, 3, 0, 1)
KAPPA1_BLOCK = ((1, 0, 0), (-1, 1, 0), (1, 0, 1))
KAPPA2_BLOCK = ((1, -1, 0), (0, 1, 0), (0, 1, 1))
KAPPA3_BLOCK = ((0, -1, 0), (1, 2, 0), (0, 0, 1))
NAMED = ("cushman", "kappa1", "kappa2", "kappa3")
# Accepted march steps, the same for both routes since they read one march;
# a change to the step control that moves these changes the work done per
# loop and must say why.
STEPS = {"cushman": 72, "kappa1": 90, "kappa2": 90, "kappa3": 120}
# Braid words (k, e) the local route reads on the named loops, by orientation.
BRAID_WORDS = {
    ("cushman", 1): [(2, -1), (0, 1)],
    ("cushman", -1): [(0, -1), (2, 1)],
    ("kappa1", 1): [(4, 1), (1, -1), (0, -1), (1, 1)],
    ("kappa1", -1): [(1, -1), (0, 1), (1, 1), (4, -1)],
    ("kappa2", 1): [(0, 1), (3, -1), (4, -1), (3, 1)],
    ("kappa2", -1): [(3, -1), (4, 1), (3, 1), (0, -1)],
    ("kappa3", 1): [
        (0, 1), (3, -1), (1, 1), (1, -1), (0, -1), (1, 1), (0, 1), (0, -1)
    ],
    ("kappa3", -1): [
        (0, 1), (0, -1), (1, -1), (0, 1), (1, 1), (1, -1), (3, 1), (0, -1)
    ],
}
# Unimodular (det 1) genus-1 map that sends <gamma_2, delta_1> = -1 to 0.
SHEAR = ((1, 1, 0), (0, 1, 0), (0, 0, 1))


@pytest.fixture(scope="module")
def cushman_result():
    return monodromy_periods(named_loop("cushman"))


@pytest.fixture(scope="module")
def kappa_results():
    return {
        name: monodromy_periods(named_loop(name))
        for name in ("kappa1", "kappa2", "kappa3")
    }


@pytest.fixture(scope="module")
def local_results():
    return {name: picard_lefschetz_route(named_loop(name)) for name in NAMED}


class TestParameterLoop:
    def test_requires_supported_genus(self):
        with pytest.raises(ValidationError):
            parameter_loop(3, [(0, 1, 0), (0, 1, 0)])

    def test_requires_closed_path(self):
        with pytest.raises(ValidationError):
            parameter_loop(1, [(0, 1, 0), (0, 1.5, 0)])

    def test_requires_enough_waypoints(self):
        with pytest.raises(ValidationError):
            parameter_loop(1, [(0, 1, 0)])

    def test_requires_finite_coordinates(self):
        with pytest.raises(ValidationError):
            parameter_loop(1, [(0, 1, 0), (0, float("nan"), 0), (0, 1, 0)])

    # each raised TypeError, ValueError or OverflowError from float() before
    @pytest.mark.parametrize(
        "bad", [(0, 1j, 0), 1.5, ("a", 1, 0), (10**400, 1, 0)],
        ids=["complex", "scalar", "text", "huge-int"],
    )
    def test_malformed_waypoints_are_refused_typed(self, bad):
        with pytest.raises(ValidationError, match="3 finite coordinates"):
            parameter_loop(1, [(0, 1, 0), bad, (0, 1, 0)])

    def test_rejects_waypoint_on_discriminant(self):
        with pytest.raises(NearDiscriminantError):
            parameter_loop(1, [(0, 1, 0), (0, 2, 0), (0, 1, 0)])

    def test_rejects_base_with_real_branch_points(self):
        with pytest.raises(ValidationError):
            parameter_loop(1, [(0, -3, 0), (0, -3.5, 0), (0, -3, 0)])

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValidationError):
            parameter_loop(1, [(0, 1, 0), (0, 1.5, 0), (0, 1, 0)], orientation=2)

    def test_reversal_walks_waypoints_backwards(self):
        loop = parameter_loop(
            1, [(0, 1, 0), (0.2, 1.2, 0), (0, 1.5, 0), (0, 1, 0)], orientation=-1
        )
        assert loop.path_points() == tuple(reversed(loop.waypoints))
        assert loop.base == (0, 1, 0)

    def test_fiber_polynomial_rejects_other_genus(self):
        with pytest.raises(ValidationError):
            fiber_polynomial(4, (0, 1, 0))

    def test_named_loop_unknown(self):
        with pytest.raises(ValidationError):
            named_loop("figure-eight")

    def test_compose_requires_same_genus(self):
        with pytest.raises(ValidationError):
            compose_loops(named_loop("cushman"), named_loop("kappa1"))

    def test_compose_requires_same_base(self):
        a = parameter_loop(1, [(0, 1, 0), (0, 1.5, 0), (0, 1, 0)])
        b = parameter_loop(1, [(0, 1.2, 0), (0, 1.5, 0), (0, 1.2, 0)])
        with pytest.raises(ValidationError):
            compose_loops(a, b)


class TestTrivialLoops:
    @pytest.mark.parametrize(
        "waypoints",
        [
            [(0, 1, 0), (0.1, 1.1, 0), (-0.1, 1.1, 0), (0, 1, 0)],
            [(0, 1, 0), (0, 1.3, 0.2), (0.1, 1.4, 0), (0, 1.2, -0.2), (0, 1, 0)],
            [(0, 0.5, 0), (0.1, 0.6, 0), (-0.1, 0.6, -0.1), (0, 0.5, 0)],
        ],
    )
    def test_contractible_loop_is_identity(self, waypoints):
        g = 1 if waypoints[0][1] > 0.9 else 2
        res = monodromy_periods(parameter_loop(g, waypoints))
        assert res.as_array().tolist() == np.eye(2 * g + 1, dtype=int).tolist()
        assert res.residual < 1e-10
        assert res.permutation == tuple(range(2 * g + 2))

    def test_backtracking_spur_cancels(self):
        loop = parameter_loop(
            1, [(0, 1, 0), (0.3, 1.5, 0.1), (0, 1, 0)], name="spur"
        )
        res = monodromy_periods(loop)
        assert res.as_array().tolist() == np.eye(3, dtype=int).tolist()


class TestCushmanLoop:
    def test_matrix(self, cushman_result):
        assert cushman_result.matrix == CUSHMAN_MATRIX
        assert cushman_result.basis == ("gamma1", "gamma2", "delta1")

    def test_residual_tiny(self, cushman_result):
        assert cushman_result.residual < 1e-6

    def test_permutation_swaps_the_pairs(self, cushman_result):
        assert cushman_result.permutation == CUSHMAN_PERM

    def test_unimodular(self, cushman_result):
        det = round(float(np.linalg.det(cushman_result.as_array())))
        assert abs(det) == 1

    def test_puncture_class_fixed(self, cushman_result):
        m = cushman_result.as_array()
        assert list(-(m[:, 0] + m[:, 1])) == [-1, -1, 0]

    def test_action_monodromy(self, cushman_result):
        act = monodromy_actions_g1(cushman_result)
        assert act.basis == ("I1", "I2", "I3")
        assert act.matrix == ((1, 0, 0), (1, 1, 0), (0, 0, 1))
        assert act.residual == cushman_result.residual

    def test_reversed_loop_inverts(self, cushman_result):
        rev = monodromy_periods(named_loop("cushman", orientation=-1))
        prod = cushman_result.as_array() @ rev.as_array()
        assert prod.tolist() == np.eye(3, dtype=int).tolist()


class TestKappaLoops:
    def test_kappa1_block(self, kappa_results):
        assert torus_block(kappa_results["kappa1"]).matrix == KAPPA1_BLOCK

    def test_kappa2_block(self, kappa_results):
        assert torus_block(kappa_results["kappa2"]).matrix == KAPPA2_BLOCK

    def test_kappa3_block(self, kappa_results):
        assert torus_block(kappa_results["kappa3"]).matrix == KAPPA3_BLOCK

    def test_residuals(self, kappa_results):
        for res in kappa_results.values():
            assert res.residual < 1e-4

    def test_permutations_swap_two_pairs(self, kappa_results):
        assert kappa_results["kappa1"].permutation == (2, 3, 0, 1, 4, 5)
        assert kappa_results["kappa2"].permutation == (0, 1, 4, 5, 2, 3)
        assert kappa_results["kappa3"].permutation == (4, 5, 2, 3, 0, 1)

    def test_unimodular(self, kappa_results):
        for res in kappa_results.values():
            assert abs(round(float(np.linalg.det(res.as_array())))) == 1

    def test_block_basis_labels(self, kappa_results):
        blk = torus_block(kappa_results["kappa1"])
        assert blk.basis == ("gamma1", "gamma3", "gamma_inf")


class TestRoutesAgree:
    def test_cushman(self, cushman_result):
        pl = picard_lefschetz_route(named_loop("cushman"))
        assert pl.matrix == cushman_result.matrix
        assert pl.permutation == cushman_result.permutation

    def test_kappa1(self, kappa_results):
        pl = picard_lefschetz_route(named_loop("kappa1"))
        assert pl.matrix == kappa_results["kappa1"].matrix
        assert pl.permutation == kappa_results["kappa1"].permutation

    def test_a_loop_without_a_stratum_gets_the_periods_matrix(self):
        # the braid route reads everything off the roots: no stratum needed
        loop = parameter_loop(
            1, [(0, 1, 0), (0.2, 1.4, 0.1), (-0.2, 1.3, 0), (0, 1, 0)]
        )
        assert loop.stratum is None
        local, periods = picard_lefschetz_route(loop), monodromy_periods(loop)
        assert local.matrix == periods.matrix
        assert local.permutation == periods.permutation

    def test_phase_shifted_meridian(self):
        # a kappa3 meridian entered at phase 4.73 rad, which a straight tail
        # from the base to the stratum would take past the wrong pair
        c2, sign, direction = _KAPPA_GEOMETRY["kappa3"]
        b0, n1, n2 = _g2_branch_frame(c2, sign)
        pts = [_KAPPA_BASE]
        for k in range(65):
            ph = 4.73 + direction * 2.0 * np.pi * k / 64
            p = b0 + 0.15 * (np.cos(ph) * n1 + np.sin(ph) * n2)
            pts.append(tuple(float(v) for v in p))
        pts.append(_KAPPA_BASE)
        loop = parameter_loop(2, pts, stratum=tuple(float(v) for v in b0))
        local, periods = picard_lefschetz_route(loop), monodromy_periods(loop)
        assert local.matrix == periods.matrix
        assert local.permutation == periods.permutation
        m = np.array(local.matrix)
        assert np.trace(m) == 5
        assert np.linalg.matrix_rank(m - np.eye(5, dtype=int)) == 2


class TestNamedLoopInvariants:
    def test_steps_used_are_pinned(self, cushman_result, kappa_results, local_results):
        periods = {"cushman": cushman_result, **kappa_results}
        assert {n: r.steps_used for n, r in periods.items()} == STEPS
        assert {n: r.steps_used for n, r in local_results.items()} == STEPS

    def test_intersection_form_preserved(
        self, cushman_result, kappa_results, local_results
    ):
        results = [cushman_result, *kappa_results.values(), *local_results.values()]
        for res in results:
            m = res.as_array()
            omega = _intersection_matrix((len(res.basis) - 1) // 2)
            assert (m.T @ omega @ m).tolist() == omega.tolist(), res.name


class TestCertification:
    def test_form_check_rejects_unimodular_map(self):
        assert round(np.linalg.det(np.array(SHEAR))) == 1
        with pytest.raises(QuadratureError, match="intersection form"):
            _check_form(SHEAR, 1)

    def test_periods_route_checks_the_form(self, monkeypatch):
        monkeypatch.setattr(
            "topmonodromy.tracking._integer_fit",
            lambda frame, rows, tol: (np.array(SHEAR).T, 0.0),
        )
        with pytest.raises(QuadratureError, match="intersection form"):
            monodromy_periods(named_loop("cushman"))

    def test_local_route_checks_the_form(self, monkeypatch):
        # a broken twist that doubles every class
        monkeypatch.setattr(
            "topmonodromy.tracking.picard_lefschetz", lambda c, v, orientation: c + c
        )
        with pytest.raises(QuadratureError, match="intersection form"):
            picard_lefschetz_route(named_loop("cushman"))

    @pytest.mark.parametrize("offset", [1e-8, 1e-5, 0.5])
    def test_integer_fit_gate(self, offset):
        # synthetic genus-1 frame; row 0 sits offset off the lattice
        frame = np.random.default_rng(7).normal(size=(3, 4))
        ints = np.array([[0, 1, -1], [-1, 2, -1], [0, 0, 1]])
        rows = ints @ frame
        rows[0] += offset * frame[1]
        if offset < 1e3 * 1e-9:
            got, residual = _integer_fit(frame, rows, 1e-9)
            assert got.tolist() == ints.tolist()
            assert residual == pytest.approx(offset, rel=1e-3)
        else:
            with pytest.raises(QuadratureError, match="integer fit residual"):
                _integer_fit(frame, rows, 1e-9)


class TestTypedFailures:
    # a2 = 2 (the double pair +-i) lies half way along the first leg
    THROUGH_STRATUM = [(0, 1, 0), (0, 3, 0), (0, 1, 0)]
    BASE = (0.0, 1.0, 0.0)
    TARGET = (0.0, 1.01, 0.0)

    @pytest.mark.parametrize("route", [monodromy_periods, track_roots])
    def test_stall_is_a_tracking_error_with_its_arc(self, route):
        with pytest.raises(TrackingError, match="root tracking stalled") as err:
            route(parameter_loop(1, self.THROUGH_STRATUM))
        assert err.value.arc == (self.BASE, (0.0, 3.0, 0.0))
        assert 0.5 - 1e-5 < err.value.parameter < 0.5
        assert repr(err.value.parameter) in str(err.value)

    def test_a_clean_step_advances(self):
        state = _March(1, self.BASE)
        assert state._try_advance(self.TARGET) is True
        assert state.steps_used == 1
        assert state.points == [self.BASE, self.TARGET]

    def test_tampering_with_a_march_leaves_the_base_record_intact(self):
        # a march finds its own base roots, the record's bit for bit, so the
        # two share no list at all; the routes still read the pinned matrix
        loop = named_loop("cushman")
        base = _base_frame(1, self.BASE, 1e-9)
        _loop_march.cache_clear()
        march = _loop_march(loop)
        assert hex_rows([march.fibers[0]]) == hex_rows([base.rs])
        assert all(f is not base.rs for f in march.fibers)
        state = _March(1, self.BASE)
        state.rs[0] = state.rs[1]
        state.fibers[0] = ()
        assert base.rs[0] != base.rs[1]
        assert hex_rows([march.fibers[0]]) == hex_rows([base.rs])
        for route in (monodromy_periods, picard_lefschetz_route):
            assert route(loop).matrix == CUSHMAN_MATRIX

    @staticmethod
    def _assert_both_reject(point, target):
        # the step kernel and the reference step both reject, and neither
        # march moves
        for cls in (_March, _MatchingMarch):
            state = cls(1, point)
            rs = list(state.rs)
            assert state._try_advance(target) is False, cls.__name__
            assert (state.point, state.rs, state.steps_used) == (point, rs, 0)
            assert state.fibers == [tuple(rs)]
            assert state.swaps == []

    def test_a_step_whose_sweep_does_not_converge_is_rejected(self):
        target = (0.0, 1e300, 0.0)
        with pytest.raises(RootFindingError):
            warm_roots(fiber_polynomial(1, target), _March(1, self.BASE).rs)
        self._assert_both_reject(self.BASE, target)

    def test_a_step_below_the_separation_floor_is_rejected(self):
        # a2 = 2 is the double pair +-i; 1e-12 short of it the warm start
        # already meets the residual contract, so no root moves and only
        # the separation floor rejects the step
        point, target = (0.0, 2.0 - 1.1e-12, 0.0), (0.0, 2.0 - 0.9e-12, 0.0)
        state = _March(1, point)
        new = warm_roots(fiber_polynomial(1, target), state.rs)
        sep = _min_separation(new)
        assert sep < tracking._SEP_FLOOR * max(1.0, max(abs(r) for r in new))
        margin = tracking._MARGIN_FRAC * min(state.min_sep, sep)
        moves = [abs(a - b) for a, b in zip(state.rs, new)]
        assert max(moves) < tracking._STEP_FRAC * margin
        self._assert_both_reject(point, target)

    def test_a_step_that_moves_a_root_too_far_is_rejected(self):
        target = (0.0, 1.5, 0.0)
        state = _March(1, self.BASE)
        new = warm_roots(fiber_polynomial(1, target), state.rs)
        sep = _min_separation(new)
        assert sep > tracking._SEP_FLOOR * max(1.0, max(abs(r) for r in new))
        margin = tracking._MARGIN_FRAC * min(state.min_sep, sep)
        moves = [abs(a - b) for a, b in zip(state.rs, new)]
        assert max(moves) >= tracking._STEP_FRAC * margin
        self._assert_both_reject(self.BASE, target)

    def test_braided_step_whose_swaps_share_a_root_is_rejected(self):
        # Four real roots and a projection just off p = Im z: on a step into
        # complex a2 root 2 passes both roots 0 and 1, so the march rejects
        # the step (and traverse bisects it).
        point, target = (0.3, -2.1246, -0.2), (0.3, -2.1246 - 1e-4j, -0.2)
        state = _March(1, point)
        state.rot = cmath.exp(-1j * (0.5 * math.pi - 1e-6))
        rs = list(state.rs)
        new = warm_roots(fiber_polynomial(1, target), rs)
        perm, _ = _match_roots(rs, new)
        swaps = projection_swaps(rs, [new[j] for j in perm], state.rot)
        assert [(i, j) for _, i, j in swaps] == [(0, 2), (1, 2)]
        ref = _MatchingMarch(1, point)
        ref.rot = state.rot
        assert ref._try_advance(target) is False
        assert state._try_advance(target) is False
        assert state.point == point
        assert state.rs == rs
        assert state.steps_used == 0


    def test_a_step_with_two_crossings_records_them_in_order_of_time(self):
        # the step into complex a2 swaps roots 0, 1 and roots 2, 3, the
        # second pair first; both marches accept it, and the kernel keeps
        # the reference's crossings sorted by time
        point, target = (0.3, -2.1246, -0.2), (0.3, -2.1246 + 1e-5j, -0.2)
        rot = cmath.exp(-1j * (0.5 * math.pi - 1e-5))
        state, ref = _March(1, point), _MatchingMarch(1, point)
        state.rot = ref.rot = rot
        rs = list(state.rs)
        assert state._try_advance(target) is True
        assert ref._try_advance(target) is True
        assert hex_rows(state.fibers) == hex_rows(ref.fibers)
        swaps = projection_swaps(rs, ref.rs, rot)
        assert [(i, j) for _, i, j in swaps] == [(0, 1), (2, 3)]
        assert state.swaps == [sorted(swaps)]
        assert [(i, j) for _, i, j in state.swaps[0]] == [(2, 3), (0, 1)]

def _bits(res):
    return (res.matrix, res.permutation, res.residual.hex(), res.steps_used,
            res.condition.hex())


class TestBaseRecord:
    def test_cold_and_warm_records_give_identical_results(self):
        for name in NAMED:
            loop = named_loop(name)
            for route in (monodromy_periods, picard_lefschetz_route):
                _base_frame.cache_clear()
                _loop_march.cache_clear()
                cold = route(loop)
                assert _base_frame.cache_info().misses == 1
                warm = route(loop)
                assert _base_frame.cache_info().hits >= 1
                assert _bits(cold) == _bits(warm), (name, route.__name__)

    def test_the_record_is_read_only(self):
        base = _base_frame(2, _KAPPA_BASE, 1e-9)
        for arr in (base.frame, base.periods):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        assert base.periods.shape == (5, 5)
        assert base.frame.tolist() == np.hstack(
            [base.periods[:3].T.real, base.periods[:3].T.imag]
        ).tolist()

    def test_both_routes_orient_the_base_cables_once(self, monkeypatch):
        calls = []
        orient = tracking.normalized_basis_contours

        def counted(f, cables):
            calls.append(1)
            return orient(f, cables)

        monkeypatch.setattr(tracking, "normalized_basis_contours", counted)
        _base_frame.cache_clear()
        loop = named_loop("kappa1")
        monodromy_periods(loop)
        picard_lefschetz_route(loop)
        assert len(calls) == 1

    def test_a_warm_local_route_integrates_no_vanishing_cycle(self, monkeypatch):
        loop = named_loop("kappa3")
        cold = picard_lefschetz_route(loop)
        calls = []
        integrate = tracking.polygon_periods

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(tracking, "polygon_periods", counted)
        assert _bits(picard_lefschetz_route(loop)) == _bits(cold)
        assert calls == []
        kept = _vanishing_cycle(2, loop.base, 1e-9, 0)
        assert _vanishing_cycle(2, loop.base, 1e-9, 0) is kept

    def test_a_vanishing_cycle_fitted_to_zero_raises_every_time(self, monkeypatch):
        monkeypatch.setattr(
            tracking, "_integer_fit", lambda frame, rows, tol: (np.zeros((1, 3)), 0.0)
        )
        _vanishing_cycle.cache_clear()
        for _ in range(2):
            with pytest.raises(QuadratureError, match="collapsed to zero"):
                picard_lefschetz_route(named_loop("cushman"))

    def test_a_basis_whose_chords_cross_raises_every_time(self, monkeypatch):
        # Chords that cross break the canonical form away from the chain
        # pairs that fix the orientations: gamma1 meets delta2 here.  Only
        # the chained star of this line used to show it.
        def crossing(rs, g):
            return BranchConfig(rs, ((3, 0), (5, 1), (2, 4)), False, False)

        monkeypatch.setattr(tracking, "build_basis", crossing)
        _base_frame.cache_clear()
        for _ in range(2):
            with pytest.raises(QuadratureError, match="gamma1 and delta2 cross"):
                _base_frame(2, (-0.2, 0.3, 0.0), 1e-9)

    def test_a_base_that_cannot_be_realized_raises_every_time(self, monkeypatch):
        def unrealizable(config):
            raise DegenerateInputError("cannot fit a pair loop between branch points")

        monkeypatch.setattr(tracking, "basis_contours", unrealizable)
        _base_frame.cache_clear()
        for _ in range(2):
            with pytest.raises(DegenerateInputError, match="cannot fit a pair loop"):
                monodromy_periods(named_loop("cushman"))
        assert _base_frame.cache_info().currsize == 0


class TestSharedMarch:
    STALLS = [(0, 1, 0), (0, 3, 0), (0, 1, 0)]

    @staticmethod
    def _count_fibers(monkeypatch):
        # every march attempt builds its target fiber; step attempts solve
        # no roots() call, so the fibers are what counts them
        calls = []
        fiber = tracking.fiber_polynomial

        def counted(*args, **kwargs):
            calls.append(1)
            return fiber(*args, **kwargs)

        monkeypatch.setattr(tracking, "fiber_polynomial", counted)
        return calls

    def test_both_routes_read_one_march(self, monkeypatch):
        loop = named_loop("kappa3")
        _base_frame(2, loop.base, 1e-9)  # its fiber is no attempt
        _loop_march.cache_clear()
        calls = self._count_fibers(monkeypatch)
        march = _loop_march(loop)
        attempts = len(calls)
        assert attempts > march.steps_used
        _loop_march.cache_clear()
        calls.clear()
        periods = monodromy_periods(loop)
        local = picard_lefschetz_route(loop)
        assert len(calls) == attempts
        assert periods.steps_used == local.steps_used == march.steps_used

    def test_a_loop_in_between_marches_again(self, monkeypatch):
        first, second = named_loop("cushman"), named_loop("cushman", -1)
        _base_frame(1, first.base, 1e-9)
        _loop_march.cache_clear()
        calls = self._count_fibers(monkeypatch)
        monodromy_periods(first)
        once = len(calls)
        monodromy_periods(second)
        between = len(calls)
        picard_lefschetz_route(first)
        assert len(calls) == between + once
        assert _loop_march.cache_info().currsize == 1
        picard_lefschetz_route(first)
        assert _loop_march.cache_info().hits == 1

    def test_the_record_is_read_only(self):
        record = _loop_march(named_loop("kappa3"))
        for seq in (record.points, record.fibers, record.swaps, record.permutation):
            assert type(seq) is tuple
        assert all(type(step) is tuple for step in record.swaps)
        assert all(type(fiber) is tuple for fiber in record.fibers)
        with pytest.raises(AttributeError):
            record.steps_used = 0
        with pytest.raises(TypeError):
            record.swaps[0] = ()

    def test_a_stalled_march_raises_from_both_routes_every_time(self):
        loop = parameter_loop(1, self.STALLS)
        _loop_march.cache_clear()
        for _ in range(2):
            for route in (monodromy_periods, picard_lefschetz_route):
                with pytest.raises(TrackingError, match="root tracking stalled"):
                    route(loop)
        assert _loop_march.cache_info().currsize == 0


def test_real_chart_points_stay_python_floats():
    # complex chart coordinates are accepted, but a real point builds the
    # same float polynomial as before and is kept (and printed) as floats
    point = (np.float64(0.3), 2, -0.2)
    assert quartic_poly(point).coeffs == (1 + 0j, -0.2 + 0j, 2 + 0j, 0.3 + 0j, 1 + 0j)
    state = _March(1, point)
    assert state.point == (0.3, 2.0, -0.2)
    state.traverse((0.3, 2.5, -0.2))
    assert state.point == (0.3, 2.5, -0.2)
    assert all(type(v) is float for v in state.point)


def test_real_sextic_coefficients_are_unchanged_bits():
    # sextic_poly takes complex coordinates, but at the real waypoints of the
    # named loops it builds the float coefficients bit for bit
    for name in ("kappa1", "kappa2", "kappa3"):
        for a, b, c in named_loop(name).waypoints:
            got = sextic_poly((a, b, c)).coeffs
            want = (1.0, 0.0, 3.0, c, 3.0 + b, a, 1.0)
            assert [(z.real.hex(), z.imag.hex()) for z in got] == [
                (float(w).hex(), (0.0).hex()) for w in want
            ]


def test_simultaneous_crossings_raise_with_their_arc():
    # With the projection p = Im z every real root of a real fiber shares
    # p = 0, so crossings stay simultaneous however finely the step is
    # split; the route's projection keeps clear of that direction.
    path = star_loop(1, (0.3, -0.2), -2.0846).path_points()
    march = _March(1, path[0])
    march.rot = -1j
    with pytest.raises(TrackingError, match="root tracking stalled") as err:
        for b in path[1:]:
            march.traverse(b)
    pa, pb = err.value.arc
    assert pa[1].imag * pb[1].imag <= 0.0  # the stretch crosses the real line
    assert 0.0 <= err.value.parameter <= 1.0


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("name", NAMED)
def test_braid_words_are_pinned(name, orientation):
    march = _loop_march(named_loop(name, orientation))
    word = _braid_word(march.fibers, march.swaps, march.rot)
    assert word == BRAID_WORDS[name, orientation]


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("name", NAMED)
def test_the_march_matches_the_former_re_matching_march(name, orientation):
    # each accepted step moves every root less than min_sep / 12, so the
    # labels the warm start keeps are the greedy matching's
    loop = named_loop(name, orientation)
    assert_same_march(_loop_march(loop), matching_march(loop))


def test_both_routes_march_a_loop_of_complex_chart_points():
    loop = complex_a2_loop()
    periods, local = monodromy_periods(loop), picard_lefschetz_route(loop)
    assert periods.matrix == local.matrix == ((2, -1, 1), (0, 1, 0), (-1, 1, 0))
    assert periods.permutation == local.permutation


def test_routes_agree_round_a_real_critical_value_past_another():
    # The straight segment from the base to this loop's centre a2 = -2.0846
    # meets the critical value -1.884 first; the braid of the roots does not
    # depend on that segment.
    loop = star_loop(1, (0.3, -0.2), -2.0846)
    periods, local = monodromy_periods(loop), picard_lefschetz_route(loop)
    assert periods.matrix == local.matrix == ((1, 0, 0), (0, 1, -1), (0, 0, 1))
    assert periods.permutation == local.permutation


def test_routes_agree_round_chained_stars():
    # Every star of a line in turn.  On the genus-2 line the tail into the
    # fifth star, after four twists, passes a close pair of branch points
    # that a carried contour would have to squeeze between.
    for g, fixed in ((2, (0.1, 0.5)), (1, (0.7, 0.1))):
        loop = chained_star_loop(g, fixed)
        periods, local = monodromy_periods(loop), picard_lefschetz_route(loop)
        # complex waypoints: the periods ride in complex arithmetic
        assert _transport(g, _loop_march(loop).points).dtype == np.complex128
        assert periods.matrix == local.matrix, (g, fixed)
        assert periods.permutation == local.permutation
        assert periods.residual < 1e-12


# No conjugate pairing has disjoint cuts here, and the shortest disjoint
# matching, ((4, 0), (1, 5), (2, 3)), has a delta chord 3.7e-4 from a third
# branch point, too close to realize a basis contour round it.
UNCLEAR_BASE = (-0.2083501014287662, 1.0600318763097865, 0.4560335572521116)


def test_a_loop_from_a_base_whose_shortest_matching_is_unclear_is_the_identity():
    a, b, c = UNCLEAR_BASE
    loop = parameter_loop(2, [UNCLEAR_BASE, (a + 0.02, b, c), (a, b + 0.02, c),
                              UNCLEAR_BASE])
    for route in (monodromy_periods, picard_lefschetz_route):
        res = route(loop)
        assert res.as_array().tolist() == np.eye(5, dtype=int).tolist()
        assert res.residual < 1e-13


class TestGroupStructure:
    def test_doubled_loop_squares(self, cushman_result):
        cush = named_loop("cushman")
        doubled = monodromy_periods(compose_loops(cush, cush))
        m = cushman_result.as_array()
        assert doubled.as_array().tolist() == (m @ m).tolist()
        assert doubled.permutation == (0, 1, 2, 3)

    def test_composition_homomorphism(self, kappa_results):
        k1, k2 = named_loop("kappa1"), named_loop("kappa2")
        m12 = monodromy_periods(compose_loops(k1, k2)).as_array()
        m1 = kappa_results["kappa1"].as_array()
        m2 = kappa_results["kappa2"].as_array()
        assert m12.tolist() == (m2 @ m1).tolist()
        assert m12.tolist() != (m1 @ m2).tolist()


class TestTrackRoots:
    def test_cushman_trajectories(self):
        paths, perm = track_roots(named_loop("cushman"))
        assert perm == CUSHMAN_PERM
        base = np.asarray(roots(fiber_polynomial(1, (0.0, 1.0, 0.0))))
        assert np.allclose(paths[0], base, atol=1e-9)
        hops = np.abs(np.diff(paths, axis=0)).max()
        assert hops < 0.35
        closing = np.abs(np.sort_complex(paths[-1]) - np.sort_complex(base)).max()
        assert closing < 1e-6

    @pytest.mark.parametrize("orientation", [1, -1])
    @pytest.mark.parametrize("name", NAMED)
    def test_track_roots_returns_the_routes_march(self, name, orientation):
        loop = named_loop(name, orientation)
        _base_frame.cache_clear()
        _loop_march.cache_clear()
        paths, perm = track_roots(loop)
        assert _base_frame.cache_info().currsize == 0  # no period record
        _loop_march.cache_clear()  # the routes march again, after the record
        for route in (monodromy_periods, picard_lefschetz_route):
            res = route(loop)
            assert len(paths) == res.steps_used + 1 == STEPS[name] + 1
            assert perm == res.permutation
        assert hex_rows(paths.tolist()) == hex_rows(_loop_march(loop).fibers)


class TestBasisReductions:
    def test_torus_block_rejects_genus_one(self, cushman_result):
        with pytest.raises(ValidationError):
            torus_block(cushman_result)

    def test_torus_block_rejects_non_preserving_map(self):
        fake = MonodromyResult(
            name="fake",
            basis=("gamma1", "gamma2", "gamma3", "delta1", "delta2"),
            matrix=(
                (1, 0, 0, 0, 0),
                (0, 1, 0, 0, 0),
                (0, 0, 1, 0, 0),
                (1, 0, 0, 1, 0),
                (0, 0, 0, 0, 1),
            ),
            residual=0.0,
            permutation=(0, 1, 2, 3, 4, 5),
            orientation=1,
        )
        with pytest.raises(ValidationError):
            torus_block(fake)

    def test_actions_reject_genus_two(self, kappa_results):
        with pytest.raises(ValidationError):
            monodromy_actions_g1(kappa_results["kappa1"])

    def test_actions_reject_moving_puncture(self):
        fake = MonodromyResult(
            name="fake",
            basis=("gamma1", "gamma2", "delta1"),
            matrix=((1, 0, 0), (1, 1, 0), (0, 0, 1)),
            residual=0.0,
            permutation=(0, 1, 2, 3),
            orientation=1,
        )
        with pytest.raises(ValidationError):
            monodromy_actions_g1(fake)


class TestResultSerialization:
    def test_json_keys_and_roundtrip(self, cushman_result):
        data = json.loads(cushman_result.to_json())
        assert set(data) == {
            "name",
            "basis",
            "matrix",
            "residual",
            "permutation",
            "orientation",
        }
        assert data["name"] == "cushman"
        assert tuple(tuple(r) for r in data["matrix"]) == CUSHMAN_MATRIX
        assert tuple(data["permutation"]) == CUSHMAN_PERM
        assert data["orientation"] == 1
