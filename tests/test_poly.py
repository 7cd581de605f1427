import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import warm_roots

from topmonodromy.errors import RootFindingError, ValidationError
from topmonodromy.poly import (
    ComplexPoly,
    _aberth_kernel,
    _fujiwara_radius,
    discriminant,
    has_repeated_root,
    normalized_discriminant,
    real_root_count,
    real_roots,
    resultant,
    roots,
)


def companion_eigenvalues(p):
    """Independent oracle: eigenvalues of the companion matrix."""
    cs = np.asarray(p.coeffs, dtype=complex)
    cs = cs / cs[-1]
    n = len(cs) - 1
    C = np.zeros((n, n), dtype=complex)
    C[1:, :-1] = np.eye(n - 1)
    C[:, -1] = -cs[:-1]
    vals = np.linalg.eigvals(C)
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def numpy_roots(p, tol=1e-12, initial=None):
    """Reference: the former NumPy sweep loop of poly.roots.

    The same Aberth-Ehrlich iteration as the library's scalar kernel, as
    whole-array NumPy passes.  NumPy's complex multiply may fuse into FMA and
    its complex abs is not libm hypot, so the two agree to rounding, not bit
    for bit.  The roots come back in the order of distinct starting guesses,
    as conftest.warm_roots returns them, and sorted otherwise, as roots()
    returns them.
    """
    n = p.degree
    a = np.asarray(p.coeffs, dtype=complex)
    dp = p.derivative()
    scale = p.coeff_scale()
    if initial is not None:
        z = np.asarray(initial, dtype=complex).copy()
    else:
        radius = _fujiwara_radius(a)
        angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n + 0.41
        z = radius * np.exp(1j * angles)
    for _ in range(400):
        pv = p(z)
        bound = tol * scale * np.maximum(1.0, np.abs(z)) ** n
        if np.all(np.abs(pv) <= bound):
            break
        dpv = dp(z)
        dpv = np.where(np.abs(dpv) < 1e-300, 1e-300, dpv)
        newton = pv / dpv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        step = np.where(np.isfinite(step), step, newton)
        z = z - step
    else:
        raise AssertionError("reference iteration did not converge")
    if initial is not None and len(set(complex(v) for v in initial)) == n:
        return [complex(v) for v in z]
    order = np.lexsort((z.imag, z.real))
    return [complex(v) for v in z[order]]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("degree", range(1, 11))
def test_roots_match_numpy_reference(degree, warm):
    # complex coefficients, so no two roots tie in the (real, imag) sort key
    rng = np.random.default_rng(1000 + degree)
    tol = 1e-12
    for _ in range(20):
        cs = np.array([1.0, 1j]) @ rng.uniform(-2.0, 2.0, (2, degree + 1))
        p = ComplexPoly.of(cs)
        initial = None
        if warm:
            # a continuation step: last fiber's roots, slightly off
            exact = numpy_roots(p, tol=tol)
            initial = [r + 1e-3 * complex(*rng.normal(size=2)) for r in exact]
        want = numpy_roots(p, tol=tol, initial=initial)
        got = warm_roots(p, initial, tol=tol) if warm else roots(p, tol=tol)
        assert len(got) == degree
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * max(1.0, abs(w))
        scale = p.coeff_scale()
        for r in got:
            assert abs(p(r)) <= tol * scale * max(1.0, abs(r)) ** degree


def test_roots_budget_exhaustion_reports_best_residual():
    # tol = 0 asks for |p(r)| == 0 exactly, which no float sqrt(2) meets
    with pytest.raises(RootFindingError) as err:
        roots(ComplexPoly.of([-2.0, 0.0, 1.0]), tol=0.0)
    assert math.isfinite(err.value.best_residual)
    assert err.value.best_residual > 0.0


@pytest.mark.parametrize(
    "coeffs, initial",
    [
        # p'(0) = 0: the floored derivative still gives a finite Aberth step
        ([-1.0, 0.0, 0.0, 1.0], [0.0, 1.5, -1.0 + 1.0j]),
    ],
    ids=["critical-point"],
)
def test_roots_degenerate_starts_match_reference(coeffs, initial):
    p = ComplexPoly.of(coeffs)
    with np.errstate(all="ignore"):
        want = numpy_roots(p, initial=initial)
    got = warm_roots(p, initial)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_aberth_kernel_coincident_start_matches_reference():
    # coincident iterates: the pair term is undefined, both move by Newton.
    # warm_roots refuses such guesses, so this calls the kernel directly.
    p = ComplexPoly.of([1.0, -2.0, 1.0])
    initial = [1.1 + 0j, 1.1 + 0j]
    with np.errstate(all="ignore"):
        want = numpy_roots(p, initial=initial)
    desc = p.coeffs[::-1]
    deriv = [2.0 * desc[0], desc[1]]
    got, _ = _aberth_kernel(2)(1e-12 * p.coeff_scale(), initial, *desc, *deriv)
    got = sorted(got, key=lambda v: (v.real, v.imag))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(1.0, abs(w))


def test_a_warm_start_returns_each_root_at_the_place_of_its_guess():
    # root i continues guess i, whatever the order of the guesses; a cold
    # start returns the same roots sorted
    want = [1.0 + 2.0j, -0.5 + 0.1j, 0.3 - 1.2j, -1.4 - 0.7j, 2.0 + 0.3j]
    p = ComplexPoly.from_roots(want)
    cold = roots(p)
    assert cold == sorted(cold, key=lambda v: (v.real, v.imag))
    assert max(min(abs(c - w) for w in want) for c in cold) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(6):
        order = rng.permutation(len(want))
        initial = [want[k] + 0.05 * complex(*rng.normal(size=2)) for k in order]
        got = warm_roots(p, initial)
        assert max(abs(got[i] - want[k]) for i, k in enumerate(order)) < 1e-12


@pytest.mark.parametrize(
    "coeffs, initial",
    [
        # |z|^4 overflows; the NumPy loop took the inf bound as converged
        ([1.0, 0.0, 0.0, 0.0, 1.0], [1e80, 2e80, 3e80, 4e80]),
        # the Fujiwara radius is inf, so every residual is NaN
        ([1e200, 0.0, 1e-200], None),
    ],
    ids=["overflow", "nan"],
)
def test_roots_non_finite_iteration_fails(coeffs, initial):
    p = ComplexPoly.of(coeffs)
    with pytest.raises(RootFindingError) as err:
        roots(p) if initial is None else warm_roots(p, initial)
    # no sweep had a finite residual ratio for every root
    assert err.value.best_residual == math.inf


def test_roots_quadratic_pure_imaginary():
    p = ComplexPoly.of([1, 0, 1])
    rs = roots(p)
    assert len(rs) == 2
    assert abs(rs[0] - (-1j)) < 1e-12
    assert abs(rs[1] - 1j) < 1e-12


def test_roots_quartic_unit_circle():
    # x^4+x^2+1 = (x^2+x+1)(x^2-x+1), roots e^{+-i pi/3}, e^{+-2i pi/3}
    p = ComplexPoly.of([1, 0, 1, 0, 1])
    rs = roots(p)
    expected = sorted(
        [cmath.exp(1j * t) for t in (math.pi / 3, -math.pi / 3, 2 * math.pi / 3, -2 * math.pi / 3)],
        key=lambda z: (z.real, z.imag),
    )
    for got, want in zip(rs, expected):
        assert abs(got - want) < 1e-10


def test_roots_sextic_matches_companion_oracle():
    p = ComplexPoly.of([1, 0, 0, 0, 1, 2, 1])  # x^6+2x^5+x^4+1
    got = roots(p)
    want = companion_eigenvalues(p)
    # compare as multisets: ties in the sort key can pair conjugates
    # differently between the two computations
    remaining = list(want)
    for g in got:
        nearest = min(remaining, key=lambda w: abs(g - w))
        assert abs(g - nearest) < 1e-10
        remaining.remove(nearest)


def test_roots_residual_contract():
    p = ComplexPoly.of([3 - 2j, 0.5j, -1.0, 2.0, 1e-3])
    tol = 1e-12
    scale = p.coeff_scale()
    for r in roots(p, tol=tol):
        assert abs(p(r)) <= tol * scale * max(1.0, abs(r)) ** p.degree * 1.01


def test_roots_degree_precondition():
    with pytest.raises(ValidationError):
        roots(ComplexPoly.of([1.0]))


def test_roots_ordering_deterministic():
    p = ComplexPoly.of([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    rs = roots(p)
    assert [round(r.real) for r in rs] == [1, 2, 3]


@given(
    st.lists(
        st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_roots_rebuild_property(root_list):
    # well-separated roots only, rebuild product must match to relative 1e-8
    for i, a in enumerate(root_list):
        for b in root_list[i + 1 :]:
            if abs(a - b) < 0.05:
                return
    p = ComplexPoly.from_roots(root_list, lead=1.0)
    rs = roots(p)
    rebuilt = ComplexPoly.from_roots(rs, lead=1.0)
    scale = p.coeff_scale()
    for a, b in zip(p.coeffs, rebuilt.coeffs):
        assert abs(a - b) <= 1e-8 * scale


def test_discriminant_quadratic():
    assert abs(discriminant(ComplexPoly.of([1, 0, 1])) - (-4.0)) < 1e-12
    # disc(x^2+bx+c) = b^2-4c
    p = ComplexPoly.of([2.5, -1.75, 1.0])
    assert abs(discriminant(p) - ((-1.75) ** 2 - 4 * 2.5)) < 1e-12


def test_discriminant_double_root_vanishes():
    # (x^2+(c/2)x+1)^2 with c=1 has double roots, discriminant 0
    q = ComplexPoly.of([1.0, 0.5, 1.0])
    p = q * q
    assert normalized_discriminant(p) < 1e-12


@pytest.mark.parametrize("factor", [1e-150, 1e150, 1e300])
def test_normalized_discriminant_is_scale_invariant(factor):
    # factor^6 under- or overflows a float for the quartic
    p = ComplexPoly.of([1.0, 0.5, 3.0, -0.25, 2.0])
    scaled = ComplexPoly.of([factor * c for c in p.coeffs])
    assert normalized_discriminant(scaled) == pytest.approx(
        normalized_discriminant(p), rel=1e-12
    )


def test_discriminant_product_formula():
    p = ComplexPoly.of([1, 0, 1, 0, 1])
    rs = roots(p)
    prod = 1.0 + 0j
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            prod *= (rs[i] - rs[j]) ** 2
    assert abs(discriminant(p) - prod) < 1e-8 * abs(prod)


def exact_discriminant(coeffs):
    """Independent oracle: disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lead(p),
    with the Sylvester determinant eliminated in exact rationals.

    The coefficients (ascending) are binary floats, so Fraction holds them
    exactly and the result is the true discriminant of the float polynomial.
    """
    cs = [Fraction(c) for c in coeffs]
    n = len(cs) - 1
    p = cs[::-1]
    dp = [k * c for k, c in enumerate(cs)][1:][::-1]
    size = 2 * n - 1
    zero = Fraction(0)
    m = [[zero] * i + p + [zero] * (n - 2 - i) for i in range(n - 1)]
    m += [[zero] * i + dp + [zero] * (n - 1 - i) for i in range(n)]
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c] != 0), None)
        if piv is None:
            return zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * det / cs[-1]


@given(
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=3,
        max_size=7,
    )
)
# x^3 + 0.375 x^2 + 1.19e-7: two roots near 0 about 1e-3 apart, where a
# product of squared root differences is only good to about 2e-8
@example([1.192092896e-07, 0.0, 0.375])
@settings(max_examples=60, deadline=None)
def test_discriminant_matches_root_product(coeffs):
    coeffs = coeffs + [1.0]
    p = ComplexPoly.of(coeffs)
    n = p.degree
    if n < 2:
        return
    rs = roots(p, tol=1e-12)
    sep = min(
        abs(rs[i] - rs[j]) for i in range(n) for j in range(i + 1, n)
    )
    if sep < 1e-3:
        return
    want = float(exact_discriminant(coeffs))
    got = discriminant(p)
    assert abs(got - want) <= 1e-8 * max(abs(want), 1e-6)


def test_real_root_count_positive_quartic():
    assert real_root_count(ComplexPoly.of([1, 0, 1, 0, 1])) == 0


def test_real_root_count_distinct_semantics():
    # (x-1)^2 (x^2+1): one distinct real root
    p = ComplexPoly.from_roots([1.0, 1.0, 1j, -1j])
    assert real_root_count(p) == 1


@pytest.mark.parametrize(
    "rs, repeated",
    [
        ([1.0, 1.0, 1j, -1j], True),  # a real double root
        ([1j, 1j, -1j, -1j], True),  # (x^2 + 1)^2: complex double roots only
        ([0.0, 0.0, 0.0], True),
        ([1.0, 2.0, 1j, -1j], False),
        ([0.5, -0.5, 3.0], False),
    ],
)
def test_has_repeated_root_decides_gcd_with_the_derivative(rs, repeated):
    assert has_repeated_root(ComplexPoly.from_roots(rs)) is repeated


def test_real_root_count_rejects_complex():
    with pytest.raises(ValidationError):
        real_root_count(ComplexPoly.of([1j, 0, 1]))


def _exact_divmod(num, den):
    """Quotient and remainder of exact polynomials, coefficients ascending."""
    num, quo = list(num), []
    while len(num) >= len(den):
        f = num[-1] / den[-1]
        quo.append(f)
        shift = len(num) - len(den)
        for k, c in enumerate(den):
            num[shift + k] -= f * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return quo[::-1], num


def square_free_part(coeffs):
    """p / gcd(p, p') of the float polynomial p (ascending), in exact
    rationals, converted back to floats: p's distinct roots, each simple."""
    p = [Fraction(c) for c in coeffs]
    a, b = p, [k * c for k, c in enumerate(p)][1:]
    while b:
        a, b = b, _exact_divmod(a, b)[1]
    # a monic gcd keeps the quotient monic, like p
    quo, _ = _exact_divmod(p, [c / a[-1] for c in a])
    return [float(c) for c in quo]


def inclusion_radii(coeffs, rs):
    """Weierstrass inclusion radii n |p(z_i)| / prod_{j != i} |z_i - z_j| of
    the approximations rs to the roots of the monic float polynomial p
    (ascending), with |p(z_i)| raised by Horner's rounding bound. Where the
    disks about rs are pairwise disjoint, each holds exactly one root of p."""
    n = len(rs)
    radii = []
    for i, z in enumerate(rs):
        value, size = 0j, 0.0
        for c in reversed(coeffs):
            value = value * z + c
            size = size * abs(z) + abs(c)
        gap = math.prod(abs(z - w) for j, w in enumerate(rs) if j != i)
        radii.append(n * (abs(value) + 2 * n * 2.0**-53 * size) / gap)
    return radii


@given(
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=2,
        max_size=7,
    )
)
# x^7 - x^6: a solver splits the six-fold root 0 into a ring about 5e-3
# wide, so the roots of p itself would count one real root, not two
@example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
# x^7 - x^6 + 5e-324 x is square-free, with three real roots within 1e-64
# of 0; the solver returns that cluster as a ring 5e-3 wide, whose spacing
# passes the separation check but whose inclusion disks overlap
@example([0.0, 5e-324, 0.0, 0.0, 0.0, 0.0, -1.0])
@settings(max_examples=150, deadline=None)
def test_real_root_count_matches_numeric_roots(coeffs):
    coeffs = coeffs + [1.0]
    p = ComplexPoly.of(coeffs)
    if p.degree < 1:
        return
    # real_root_count counts distinct roots, so the oracle reads them off
    # the square-free part, whose roots are simple
    sf = square_free_part(coeffs)
    rs = roots(ComplexPoly.of(sf), tol=1e-13)
    # demand well-separated roots so the near-real classification is stable
    n = len(rs)
    if n > 1:
        sep = min(abs(rs[i] - rs[j]) for i in range(n) for j in range(i + 1, n))
        if sep < 1e-3:
            return
    if any(1e-9 <= abs(r.imag) < 1e-3 for r in rs):
        return
    # and certified ones: disjoint inclusion disks, each off the real axis
    # for a non-real root, and each mirrored disk meeting no other disk for
    # a near-real one (so that root is its own conjugate)
    radii = inclusion_radii(sf, rs)
    for i, z in enumerate(rs):
        near_real = abs(z.imag) < 1e-9
        if not near_real and radii[i] >= abs(z.imag):
            return
        for centre in (z, z.conjugate()) if near_real else (z,):
            if any(
                abs(centre - w) <= radii[i] + radii[j]
                for j, w in enumerate(rs)
                if j != i
            ):
                return
    numeric = sum(1 for r in rs if abs(r.imag) < 1e-9)
    assert real_root_count(p) == numeric


def fraction_sturm_count(coeffs):
    """Independent oracle: distinct real roots of the float polynomial
    (ascending coefficients), from a Sturm chain of exact rational
    remainders."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    chain = [cs, [k * c for k, c in enumerate(cs)][1:]]
    while True:
        _, r = _exact_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_minus_inf = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return changes(at_minus_inf) - changes([c[-1] for c in chain])


def _with_repeats(roots_, times, quad, exp):
    """Coefficients of 2^exp (x^2 + quad) prod (x - r), the first root
    repeated `times` times (no quadratic factor when quad is None)."""
    p = ComplexPoly.from_roots(roots_ + roots_[:1] * (times - 1))
    if quad is not None:
        p = p * ComplexPoly.of([quad, 0.0, 1.0])
    return [c.real * 2.0**exp for c in p.coeffs]


# wide: m * 10^e from 1e-300 to 1e300; subnormal: multiples of 2^-1074
_WIDE = st.builds(
    lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)
)
_SUBNORMAL = st.integers(-(2**52) + 1, 2**52 - 1).map(lambda k: k * 5e-324)
_MIXED = st.lists(
    st.one_of(_WIDE, _SUBNORMAL, st.sampled_from([0.0, 1.0, -1.0])),
    min_size=2,
    max_size=7,
)
_REPEATED = st.builds(
    _with_repeats,
    st.lists(st.integers(-12, 12).map(lambda k: k / 4), min_size=1, max_size=4),
    st.integers(2, 3),
    st.sampled_from([None, 0.25, 1.0, 3.0]),
    st.integers(-1000, 900),
)


@given(st.one_of(_MIXED, _REPEATED))
@example([1.0, 0.0, 1.0, 0.0, 1.0])
@example([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0])
@example([5e-324, -1e300, 1e-300, 1.0])
@example([-5e-324, 0.0, 5e-324])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_real_root_count_matches_the_fraction_chain(coeffs):
    p = ComplexPoly.of(coeffs)
    if p.degree < 1:
        return
    assert real_root_count(p) == fraction_sturm_count(coeffs)


def test_resultant_shared_root():
    p = ComplexPoly.from_roots([1.0, 2.0])
    q = ComplexPoly.from_roots([2.0, 5.0])
    assert abs(resultant(p, q)) < 1e-9


def test_real_roots_helper():
    p = ComplexPoly.from_roots([-1.5, 0.25, 1j, -1j])
    got = real_roots(p)
    assert len(got) == 2
    assert abs(got[0] + 1.5) < 1e-9 and abs(got[1] - 0.25) < 1e-9


def test_zero_poly_degree_sentinel():
    assert ComplexPoly.of([]).degree == -1
    assert ComplexPoly.of([0.0, 0.0]).degree == -1
