"""Tests for parameter-space loops and period-lattice monodromy."""

import json

import numpy as np
import pytest

from topmonodromy.errors import NearDiscriminantError, ValidationError
from topmonodromy.homology import _intersection_matrix
from topmonodromy.poly import roots
from topmonodromy.tracking import (
    MonodromyResult,
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
# Accepted march steps; a change to the step control or the cable upkeep that
# moves these changes the work done per loop and must say why.
PERIODS_STEPS = {"cushman": 72, "kappa1": 90, "kappa2": 90, "kappa3": 118}
LOCAL_STEPS = {"cushman": 99, "kappa1": 119, "kappa2": 119, "kappa3": 158}


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

    def test_route_needs_a_stratum(self):
        loop = parameter_loop(1, [(0, 1, 0), (0, 1.5, 0), (0, 1, 0)])
        with pytest.raises(ValidationError):
            picard_lefschetz_route(loop)


class TestNamedLoopInvariants:
    def test_steps_used_are_pinned(self, cushman_result, kappa_results, local_results):
        periods = {"cushman": cushman_result, **kappa_results}
        assert {n: r.steps_used for n, r in periods.items()} == PERIODS_STEPS
        assert {n: r.steps_used for n, r in local_results.items()} == LOCAL_STEPS

    def test_intersection_form_preserved(
        self, cushman_result, kappa_results, local_results
    ):
        results = [cushman_result, *kappa_results.values(), *local_results.values()]
        for res in results:
            m = res.as_array()
            omega = _intersection_matrix((len(res.basis) - 1) // 2)
            assert (m.T @ omega @ m).tolist() == omega.tolist(), res.name


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
        paths, perm = track_roots(named_loop("cushman"), steps=64)
        assert perm == CUSHMAN_PERM
        base = np.asarray(roots(fiber_polynomial(1, (0.0, 1.0, 0.0))))
        assert np.allclose(paths[0], base, atol=1e-9)
        hops = np.abs(np.diff(paths, axis=0)).max()
        assert hops < 0.35
        closing = np.abs(np.sort_complex(paths[-1]) - np.sort_complex(base)).max()
        assert closing < 1e-6


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
