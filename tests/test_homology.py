import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topmonodromy.errors import DegenerateInputError, ValidationError
from topmonodromy.homology import (
    CycleClass,
    build_basis,
    cycle_labels,
    delta_class,
    gamma_class,
    gamma_infinity,
    intersection,
    picard_lefschetz,
)
from topmonodromy.poly import ComplexPoly, roots
from topmonodromy.tracking import fiber_polynomial


def quartic_unit_roots():
    # x^4+x^2+1: conjugate pairs e^{+-2i pi/3} and e^{+-i pi/3}
    return roots(ComplexPoly.of([1, 0, 1, 0, 1]))


def test_build_basis_quartic_conjugate_pairs_ordered_by_real_part():
    rs = quartic_unit_roots()
    cfg = build_basis(rs, 1)
    assert cfg.conjugate and not cfg.fallback
    assert len(cfg.pairing) == 2
    mids = []
    for j in range(2):
        p, q = cfg.pair_points(j)
        assert abs(p - q.conjugate()) < 1e-10
        mids.append(0.5 * (p + q))
    assert mids[0].real < mids[1].real
    assert abs(mids[0] - (-0.5)) < 1e-10  # e^{+-2i pi/3} pair
    assert abs(mids[1] - 0.5) < 1e-10  # e^{+-i pi/3} pair


def test_build_basis_perturbed_triple_conjugate_pairs():
    # (x^2+1)^3 + x^3(a x^2 + b x + c), small coefficients
    a, b, c = 2e-3, 1e-3, 1.5e-3
    rs = roots(ComplexPoly.of([1.0, 0.0, 3.0, c, 3.0 + b, a, 1.0]))
    cfg = build_basis(rs, 2)
    assert cfg.conjugate and not cfg.fallback
    for j in range(3):
        p, q = cfg.pair_points(j)
        assert abs(p - q.conjugate()) < 1e-8
        up = p if p.imag > 0 else q
        assert abs(up - 1j) < 0.4


def test_build_basis_real_roots_fall_back_with_flag():
    rs = roots(ComplexPoly.of([-1, 0, 0, 0, 1]))  # x^4-1: roots +-1, +-i
    cfg = build_basis(rs, 1)
    assert cfg.fallback and not cfg.conjugate
    flat = sorted(i for pr in cfg.pairing for i in pr)
    assert flat == [0, 1, 2, 3]


def test_build_basis_rejects_colliding_roots():
    with pytest.raises(DegenerateInputError):
        build_basis([1j, 1j + 1e-12, -1j, -1j - 1e-12], 1)


def test_build_basis_rejects_wrong_count():
    with pytest.raises(ValidationError):
        build_basis([1j, -1j], 1)


def test_build_basis_stable_under_small_perturbation():
    rng = np.random.default_rng(5)
    rs = quartic_unit_roots()
    min_gap = min(abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1 :])
    cfg = build_basis(rs, 1)
    for _ in range(20):
        # keep the perturbation conjugate-symmetric so pairs survive
        d = rng.uniform(-0.2, 0.2) + 1j * rng.uniform(-0.2, 0.2)
        eps = 0.3 * min_gap
        moved = [rs[0] + eps * d, rs[1] + eps * d.conjugate()] + list(rs[2:])
        cfg2 = build_basis(moved, 1)
        assert cfg2.pairing == cfg.pairing


# The base points of the named loops, of the thin-ellipse tests and of a
# chained-star line, with their pairings.  The last two take the
# shortest-matching fallback, and no matching there keeps every chord a
# margin clear of the branch points and the other chords.
PINNED_PAIRINGS = {
    (1, (0.0, 1.0, 0.0)): ((0, 1), (2, 3)),
    (2, (0.0, 0.5, 0.0)): ((0, 1), (2, 3), (4, 5)),
    (1, (0.1357207135624321, 2.360726848175201, 0.15881514855275736)): (
        (2, 0), (1, 3)
    ),
    (2, (-0.2, 0.3, 0.0)): ((1, 0), (2, 4), (5, 3)),
}
UNCLEAR_BASE = (-0.2083501014287662, 1.0600318763097865, 0.4560335572521116)


def _chord_clearance(cfg):
    """Least distance from a gamma or delta chord to a branch point off it."""
    chords = [cfg.pair_points(j) for j in range(cfg.g + 1)]
    chords += [cfg.gap_points(j) for j in range(cfg.g)]
    out = np.inf
    for a, b in chords:
        for p in cfg.roots:
            if p not in (a, b):
                d = b - a
                t = ((p - a) * d.conjugate()).real / abs(d) ** 2
                out = min(out, abs(p - (a + min(1.0, max(0.0, t)) * d)))
    return out


def test_pairings_at_the_pinned_bases_are_unchanged():
    for (g, point), pairing in PINNED_PAIRINGS.items():
        cfg = build_basis(roots(fiber_polynomial(g, point)), g)
        assert cfg.pairing == pairing, point


def test_the_fallback_prefers_a_matching_whose_chords_clear_the_roots():
    # The shortest disjoint matching here, ((4, 0), (1, 5), (2, 3)), has a
    # delta chord 3.7e-4 from a third branch point; the next, 0.4 % longer,
    # keeps every chord 0.248 clear, past the margin of 0.139.
    rs = roots(fiber_polynomial(2, UNCLEAR_BASE))
    cfg = build_basis(rs, 2)
    assert not cfg.conjugate and not cfg.fallback
    assert cfg.pairing == ((0, 1), (4, 2), (3, 5))
    margin = 0.25 * min(abs(a - b) for i, a in enumerate(rs) for b in rs[i + 1 :])
    assert _chord_clearance(cfg) > margin
    g, thin = list(PINNED_PAIRINGS)[2]
    assert _chord_clearance(build_basis(roots(fiber_polynomial(g, thin)), g)) < 1e-3


def test_gap_points_join_consecutive_cuts():
    rs = quartic_unit_roots()
    cfg = build_basis(rs, 1)
    second_of_first, first_of_second = cfg.gap_points(0)
    assert second_of_first == rs[cfg.pairing[0][1]]
    assert first_of_second == rs[cfg.pairing[1][0]]


def test_cycle_labels():
    assert cycle_labels(1) == ["gamma1", "gamma2", "delta1"]
    assert cycle_labels(2) == ["gamma1", "gamma2", "gamma3", "delta1", "delta2"]


def test_cycle_class_arithmetic():
    c1 = CycleClass.of(1, (1, 0, 2))
    c2 = CycleClass.of(1, (0, 1, -1))
    assert (c1 + c2).coeffs == (1, 1, 1)
    assert (c1 - c2).coeffs == (1, -1, 3)
    assert (-c1).coeffs == (-1, 0, -2)
    assert (3 * c2).coeffs == (0, 3, -3)
    assert CycleClass.of(1, (0, 0, 0)).is_zero()
    with pytest.raises(ValidationError):
        CycleClass.of(1, (1, 2))
    with pytest.raises(ValidationError):
        c1 + CycleClass.of(2, (0,) * 5)


def test_class_index_bounds():
    with pytest.raises(ValidationError):
        gamma_class(0, 1)
    with pytest.raises(ValidationError):
        gamma_class(3, 1)
    with pytest.raises(ValidationError):
        delta_class(2, 1)


def test_gamma_infinity_is_minus_sum_of_gammas():
    for g in (1, 2, 3):
        total = gamma_infinity(g)
        for j in range(1, g + 2):
            total = total + gamma_class(j, g)
        assert total.is_zero()


def test_intersection_self_and_disjoint_pairs_vanish():
    for g in (1, 2):
        for j in range(1, g + 2):
            assert intersection(gamma_class(j, g), gamma_class(j, g)) == 0
        assert intersection(gamma_class(1, g), gamma_class(2, g)) == 0
        if g == 2:
            assert intersection(delta_class(1, g), delta_class(2, g)) == 0


def test_intersection_incidence_values():
    for g in (1, 2, 3):
        for j in range(1, g + 1):
            assert intersection(gamma_class(j, g), delta_class(j, g)) == 1
            assert intersection(gamma_class(j + 1, g), delta_class(j, g)) == -1
        # non-adjacent pairs do not meet
        if g >= 2:
            assert intersection(gamma_class(1, g), delta_class(2, g)) == 0
            assert intersection(gamma_class(3, g), delta_class(1, g)) == 0


def test_intersection_antisymmetric_bilinear():
    rng = np.random.default_rng(17)
    for g in (1, 2):
        n = 2 * g + 1
        for _ in range(30):
            c1 = CycleClass.of(g, rng.integers(-4, 5, size=n))
            c2 = CycleClass.of(g, rng.integers(-4, 5, size=n))
            c3 = CycleClass.of(g, rng.integers(-4, 5, size=n))
            assert intersection(c1, c2) == -intersection(c2, c1)
            assert intersection(c1 + c3, c2) == intersection(c1, c2) + intersection(
                c3, c2
            )
            assert intersection(c1, c1) == 0


def test_symplectic_block_is_unimodular():
    for g in (1, 2, 3):
        basis = [gamma_class(j, g) for j in range(1, g + 1)] + [
            delta_class(j, g) for j in range(1, g + 1)
        ]
        m = np.array([[intersection(a, b) for b in basis] for a in basis])
        assert abs(round(float(np.linalg.det(m)))) == 1


def test_picard_lefschetz_fixes_orthogonal_classes():
    v = delta_class(1, 2)
    c = gamma_class(1, 2) + gamma_class(2, 2)  # <c, delta1> = 1 - 1 = 0
    assert intersection(c, v) == 0
    assert picard_lefschetz(c, v) == c


def test_picard_lefschetz_inverse_orientation():
    rng = np.random.default_rng(23)
    for g in (1, 2):
        n = 2 * g + 1
        for _ in range(20):
            c = CycleClass.of(g, rng.integers(-3, 4, size=n))
            v = delta_class(int(rng.integers(1, g + 1)), g)
            back = picard_lefschetz(picard_lefschetz(c, v), v, orientation=-1)
            assert back == c


def test_picard_lefschetz_sign_invariant_under_vanishing_flip():
    c = gamma_class(1, 1)
    v = delta_class(1, 1)
    assert picard_lefschetz(c, v) == picard_lefschetz(c, -1 * v)


def test_picard_lefschetz_preserves_intersection_form():
    rng = np.random.default_rng(31)
    for g in (1, 2):
        n = 2 * g + 1
        for _ in range(25):
            c1 = CycleClass.of(g, rng.integers(-3, 4, size=n))
            c2 = CycleClass.of(g, rng.integers(-3, 4, size=n))
            v = CycleClass.of(g, rng.integers(-2, 3, size=n))
            s1 = picard_lefschetz(c1, v)
            s2 = picard_lefschetz(c2, v)
            assert intersection(s1, s2) == intersection(c1, c2)


@given(
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=7, max_size=7),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=7, max_size=7),
)
@settings(max_examples=60, deadline=None)
def test_intersection_antisymmetry_property(g, v1, v2):
    n = 2 * g + 1
    c1 = CycleClass.of(g, v1[:n])
    c2 = CycleClass.of(g, v2[:n])
    assert intersection(c1, c2) == -intersection(c2, c1)
