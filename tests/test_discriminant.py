"""Tests for the discriminant-locus analysis."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topmonodromy.discriminant import (
    G2BranchPoint,
    StratumPoint,
    a3_isolated_check,
    classify_special_points,
    delta_c_csv,
    delta_c_section,
    g2_branch,
    g2_branch_csv,
    in_component_C,
    quartic_poly,
    sextic_poly,
)
from topmonodromy.errors import NearDiscriminantError, ValidationError
from topmonodromy.poly import ComplexPoly, normalized_discriminant
from topmonodromy.spectral import SpectralCoeffs


def _eval_all(p, x):
    coef = np.array([complex(v) for v in p.coeffs][::-1])
    return (
        np.polyval(coef, x),
        np.polyval(np.polyder(coef), x),
        np.polyval(np.polyder(coef, 2), x),
    )


class TestDeltaCSection:
    def test_known_point_c0(self):
        assert delta_c_section(0.0, 1.0) == pytest.approx((0.0, -2.0))

    def test_known_point_c4(self):
        assert delta_c_section(4.0, -1.0) == pytest.approx((4.0, 6.0))

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValidationError):
            delta_c_section(1.0, 0.0)

    @given(
        c=st.floats(-6.0, 6.0),
        u=st.floats(-3.0, 3.0).filter(lambda u: abs(u) > 0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_section_point_has_double_root(self, c, u):
        a1, a2 = delta_c_section(c, u)
        f, fp, _ = _eval_all(quartic_poly((a1, a2, c)), u)
        scale = max(1.0, abs(a1), abs(a2), abs(c))
        assert abs(f) < 1e-9 * scale
        assert abs(fp) < 1e-9 * scale


class TestClassifySpecialPoints:
    def test_c0_inventory(self):
        pts = classify_special_points(0.0)
        kinds = {p.kind for p in pts}
        assert kinds == {
            "two-real-double-roots-crossing",
            "isolated-complex-double-pair",
        }
        crossing = next(p for p in pts if p.kind.startswith("two-real"))
        isolated = next(p for p in pts if p.kind.startswith("isolated"))
        assert crossing.location == pytest.approx((0.0, -2.0))
        assert sorted(crossing.witness) == pytest.approx([-1.0, 1.0])
        assert isolated.location == pytest.approx((0.0, 2.0))
        assert sorted(isolated.witness, key=lambda z: z.imag) == pytest.approx(
            [-1j, 1j]
        )

    def test_c5_has_two_crossings_and_two_cusps(self):
        pts = classify_special_points(5.0)
        kinds = sorted(p.kind for p in pts)
        assert kinds == [
            "triple-root",
            "triple-root",
            "two-real-double-roots-crossing",
            "two-real-double-roots-crossing",
        ]
        for p in pts:
            if p.kind == "triple-root":
                (u,) = p.witness
                a1, a2 = p.location
                f, fp, fpp = _eval_all(quartic_poly((a1, a2, 5.0)), u)
                scale = max(1.0, abs(a1), abs(a2))
                assert max(abs(f), abs(fp), abs(fpp)) < 1e-8 * scale

    @pytest.mark.parametrize("c", [4.0, -4.0])
    def test_quadruple_point(self, c):
        pts = classify_special_points(c)
        quad = [p for p in pts if p.kind == "quadruple-root"]
        assert len(quad) == 1
        assert quad[0].location == pytest.approx((c, 6.0))
        (u,) = quad[0].witness
        assert u == pytest.approx(-c / 4.0)
        # (x - u)^4 exactly
        coef = np.array([complex(v) for v in quartic_poly((c, 6.0, c)).coeffs][::-1])
        binom = np.array([1.0, -4.0 * u, 6.0 * u**2, -4.0 * u**3, u**4])
        assert np.allclose(coef, binom, atol=1e-12)

    def test_no_cusps_inside_the_window(self):
        for c in (0.0, 1.5, -3.0, 3.9):
            assert all(
                p.kind not in ("triple-root", "quadruple-root")
                for p in classify_special_points(c)
            )

    @pytest.mark.parametrize("c", [0.0, 2.0, 5.0, -5.0, 4.0])
    def test_every_point_sits_on_the_discriminant(self, c):
        for p in classify_special_points(c):
            a1, a2 = p.location
            assert normalized_discriminant(quartic_poly((a1, a2, c))) < 1e-9
            for u in p.witness:
                f, fp, _ = _eval_all(quartic_poly((a1, a2, c)), u)
                scale = max(1.0, abs(a1), abs(a2), abs(c))
                assert max(abs(f), abs(fp)) < 1e-8 * scale

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            StratumPoint((0.0, 0.0), "quintuple-root", (0.0,))


class TestIsolationScan:
    def test_cubic_term_family_floor(self):
        rep = a3_isolated_check(0.1, grid=40)
        assert rep.origin_disc < 1e-12
        assert rep.min_disc > 1e-6
        assert rep.isolated
        assert rep.samples > 1000

    def test_linear_term_family_floor(self):
        rep = a3_isolated_check(0.1, grid=40, variant="linear-term")
        assert rep.origin_disc < 1e-12
        assert rep.min_disc > 1e-6
        assert rep.isolated

    def test_radius_validation(self):
        with pytest.raises(ValidationError):
            a3_isolated_check(0.5)
        with pytest.raises(ValidationError):
            a3_isolated_check(0.0)

    def test_variant_validation(self):
        with pytest.raises(ValidationError):
            a3_isolated_check(0.1, variant="quartic-term")


class TestG2Branch:
    def test_branch_passes_through_origin(self):
        bp = g2_branch(1.0)
        assert bp.abc == pytest.approx((0.0, 0.0, 0.0))
        assert bp.delta1 == pytest.approx(-4.0)
        assert bp.delta2 == pytest.approx(-4.0)

    @pytest.mark.parametrize("c2", [0.5, 0.8, 1.3, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_factorization(self, c2, sign):
        bp = g2_branch(c2, sign)
        dq = np.array([bp.c2, bp.c1, 1.0])
        sq = np.array([bp.d2, bp.d1, 1.0])
        prod = np.convolve(np.convolve(dq, dq), sq)
        direct = np.array([complex(v).real for v in sextic_poly(bp.abc).coeffs])
        assert np.max(np.abs(prod - direct)) < 1e-9

    def test_discriminant_identities(self):
        for c2 in (0.5, 1.0, 1.7):
            bp = g2_branch(c2)
            assert bp.delta1 == pytest.approx(bp.c1**2 - 4.0 * bp.c2, abs=1e-12)
            assert bp.delta2 == pytest.approx(bp.d1**2 - 4.0 * bp.d2, abs=1e-12)

    def test_sign_flip_negates_odd_coefficients(self):
        plus, minus = g2_branch(1.6, 1), g2_branch(1.6, -1)
        assert plus.abc[0] == pytest.approx(-minus.abc[0])
        assert plus.abc[1] == pytest.approx(minus.abc[1])
        assert plus.abc[2] == pytest.approx(-minus.abc[2])

    def test_branch_lies_on_sextic_discriminant(self):
        for c2 in np.linspace(0.5, 2.0, 7):
            bp = g2_branch(float(c2))
            assert normalized_discriminant(sextic_poly(bp.abc)) < 1e-9

    def test_quadratics_expose_the_roots(self):
        bp = g2_branch(1.3)
        assert isinstance(bp, G2BranchPoint)
        sext = np.array([complex(v) for v in sextic_poly(bp.abc).coeffs][::-1])
        for quad in (bp.double_quadratic(), bp.simple_quadratic()):
            qc = np.array([complex(v) for v in quad.coeffs][::-1])
            for r in np.roots(qc):
                assert abs(np.polyval(sext, r)) < 1e-8

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            g2_branch(0.0)
        with pytest.raises(ValidationError):
            g2_branch(-1.0)
        with pytest.raises(ValidationError):
            g2_branch(1.0, sign=2)


class TestComponentMembership:
    def test_accepts_rootless_quartic(self):
        assert in_component_C([1.0, 0.0, 1.0, 0.0, 1.0])

    def test_rejects_real_roots(self):
        assert not in_component_C([1.0, 0.0, 0.0, 0.0, -1.0])

    def test_accepts_spectral_coeffs(self):
        f = SpectralCoeffs.of(1, (0.0, 1.0, 0.0, 1.0))
        assert in_component_C(f)

    def test_double_pair_is_ambiguous(self):
        with pytest.raises(NearDiscriminantError):
            in_component_C([1.0, 0.0, 2.0, 0.0, 1.0])

    # normalized discriminants that underflow to 0: x^4 + 1e300 x^2 + 1e300
    # has no real root, x^4 - 1e300 x^2 + 1e300 has four, and neither has a
    # repeated root, so the exact tests decide them.  For x^4 +- 1e-323 an
    # elimination pivot underflows and LAPACK's determinant read NaN, with a
    # divide warning
    @pytest.mark.parametrize(
        "f, inside",
        [
            ([1e300, 0.0, 1e300, 0.0, 1.0], True),
            ([1e300, 0.0, -1e300, 0.0, 1.0], False),
            ([1e-323, 0.0, 0.0, 0.0, 1.0], True),
            ([-1e-323, 0.0, 0.0, 0.0, 1.0], False),
        ],
    )
    def test_an_underflowed_discriminant_is_decided_exactly(self, f, inside):
        assert normalized_discriminant(ComplexPoly.of(f)) == 0.0
        assert in_component_C(f) is inside

    # an exact repeated root still raises, with or without real roots
    @pytest.mark.parametrize("f", [[1.0, 0.0, 2.0, 0.0, 1.0], [1.0, 2.0, 1.0]])
    def test_an_exact_repeated_root_stays_ambiguous(self, f):
        assert normalized_discriminant(ComplexPoly.of(f)) == 0.0
        with pytest.raises(NearDiscriminantError, match="too small to classify"):
            in_component_C(f)

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            in_component_C([1.0, 0.5j, 1.0, 0.0, 1.0])


class TestCsvEmission:
    def test_delta_c_rows_round_trip(self):
        buf = io.StringIO()
        us = [0.5, 1.0, 2.0]
        assert delta_c_csv(buf, 0.0, us) == 3
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "u,a1,a2"
        u, a1, a2 = (float(v) for v in lines[2].split(","))
        assert (a1, a2) == pytest.approx(delta_c_section(0.0, u))

    def test_g2_branch_rows_round_trip(self):
        buf = io.StringIO()
        c2s = np.linspace(0.5, 2.0, 4)
        assert g2_branch_csv(buf, c2s) == 4
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "c2,a,b,c"
        c2, a, b, c = (float(v) for v in lines[1].split(","))
        assert (a, b, c) == pytest.approx(g2_branch(c2).abc, rel=1e-9)

    @pytest.mark.parametrize(
        "write, xs",
        [
            (lambda f, xs: delta_c_csv(f, 0.7, xs), [-2.0, -0.5, 0.25, 1.0, 3.0]),
            (lambda f, xs: g2_branch_csv(f, xs, -1), [0.5, 1.0, 1.5, 4.0]),
        ],
    )
    def test_a_generator_writes_what_a_list_writes(self, write, xs):
        from_list, from_gen = io.StringIO(), io.StringIO()
        assert write(from_list, xs) == len(xs)
        assert write(from_gen, (x for x in xs)) == len(xs)
        assert from_gen.getvalue() == from_list.getvalue()
        assert from_list.getvalue().count("\n") == len(xs) + 1
