import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mckeanflow as mk
from mckeanflow import MeanFieldError, Potential, SelfConsistency1D
import oracle_values as ov

# (x^8/8 - 7x^6/3 + 49x^4/4 - 18x^2)/36: minima at +-1 and +-3
FOUR_WELL = Potential(
    np.array([0.0, 0.0, -18.0, 0.0, 49 / 4, 0.0, -7 / 3, 0.0, 1 / 8]) / 36.0)
POTENTIALS = {
    "double well": Potential.double_well(),
    "four-well": FOUR_WELL,
    "quadratic": Potential.quadratic(),
    "multi-well": Potential.multi_well([(1.0, -1.0, 0.6), (0.7, 1.2, 0.5)]),
}


def fixed_rule_moments(model, m):
    """(log Z, mean, variance) of rho_m by the fixed rule: 40
    Gauss-Legendre nodes on each panel of length 0.1 on [-R, R], with R the
    first of 6, 12, 24, ..., 768 above |m| + 1 at which the integrand at
    both ends is below 1e-14 of its peak."""
    z, w = np.polynomial.legendre.leggauss(40)
    for radius in 6.0 * 2.0 ** np.arange(8):
        if abs(m) + 1.0 >= radius:
            continue
        lefts = -radius + 0.1 * np.arange(int(np.ceil(2.0 * radius / 0.1)))
        x = (lefts[:, None] + 0.05 * (z + 1.0)).ravel()
        logu = -(model.potential.value(x)
                 + model.theta * (x - m) ** 2) / model.sigma2
        peak = logu.max()
        if max(logu[0], logu[-1]) - peak < np.log(1e-14):
            u = np.tile(0.05 * w, len(lefts)) * np.exp(logu - peak)
            mass = u.sum()
            mean = np.dot(x, u) / mass
            return (peak + np.log(mass), mean,
                    np.dot((x - mean) ** 2, u) / mass)
    raise AssertionError("tails beyond the widest radius")


# ---- self-consistent density family -------------------------------------------


def test_density_even_at_zero_mean(dw03):
    rho = mk.equilibrium_for_mean(dw03, 0.0, -4, 4, 512)
    assert np.max(np.abs(rho.values - rho.values[::-1])) <= 1e-12


def test_density_gaussian_case_quadratic_potential():
    model = mk.standard_model(0.8, 0.5, potential=Potential.quadratic())
    m = 0.6
    rho = mk.equilibrium_for_mean(model, m, -6, 6, 2048)
    # completing the square: mean 2*theta*m/(1+2*theta), var sigma2/(1+2*theta)
    assert rho.mean() == pytest.approx(2 * 0.8 * m / (1 + 1.6), abs=1e-3)
    assert rho.variance() == pytest.approx(0.5 / (1 + 1.6), abs=1e-3)


def test_density_matches_local_equilibrium(dw03):
    m = 0.37
    rho = mk.equilibrium_for_mean(dw03, m, -4, 4, 512)
    bump = mk.DensityGrid1D.gaussian(-4, 4, 512, m, 0.5)
    gam = mk.local_equilibrium(dw03, bump)
    # not identical (bump mean has truncation bias ~1e-12) but L1-close
    l1 = np.sum(np.abs(gam.values - rho.values)) * rho.dx
    assert l1 <= 1e-9


# ---- mean map ------------------------------------------------------------------


def test_mean_map_odd(sc03):
    assert sc03.mean_map(0.0) == pytest.approx(0.0, abs=1e-13)
    for m in (0.2, 0.7, 1.4):
        assert sc03.mean_map(-m) == pytest.approx(-sc03.mean_map(m), abs=1e-12)


def test_mean_map_increasing_and_bounded(sc03):
    ms = np.linspace(-2, 2, 41)
    vals = np.array([sc03.mean_map(m) for m in ms])
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(vals)) < 2.0  # bounded by the effective support


def test_mean_map_is_history_free(dw03):
    # a contraction_factor call queries means far out in the tails; the
    # values at other means must not depend on it, nor on the other means
    # of one call: 241 means span five chunks of rows, and the last three
    # take the radii 12, 24 and 192
    sc = SelfConsistency1D(dw03)
    ms = np.concatenate((np.linspace(-3.0, 3.0, 241), [-7.5, 20.0, 100.0]))

    def values():
        return [(sc.mean_map(m), sc.mean_map_derivative(m),
                 sc.effective_potential(m)) for m in ms]

    before = values()
    mk.contraction_factor(sc, 0.05)
    assert values() == before
    one_by_one = np.array([sc.moments(m) for m in ms]).T
    assert np.array_equal(np.array(sc.moments(ms)), one_by_one)
    fresh = SelfConsistency1D(dw03)
    fresh.moments(500.0)
    shuffled = np.random.default_rng(5).permutation(ms.size)
    for order in (shuffled, np.arange(ms.size)[::-1]):
        batch = np.empty_like(one_by_one)
        batch[:, order] = fresh.moments(ms[order])
        assert np.array_equal(batch, one_by_one)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(POTENTIALS)), theta=st.floats(-0.5, 3.0),
       sigma2=st.floats(0.01, 5.0), m=st.floats(-5.0, 5.0))
@example(name="four-well", theta=3.0, sigma2=0.01, m=5.0)
@example(name="multi-well", theta=3.0, sigma2=0.01, m=-5.0)
@example(name="quadratic", theta=-0.45, sigma2=5.0, m=5.0)
def test_moments_match_the_fixed_rule(name, theta, sigma2, m):
    # the quadratic potential needs theta > -0.5 to confine; the margin keeps
    # its tails within the radius 96
    assume(name != "quadratic" or theta >= -0.45)
    model = mk.standard_model(theta, sigma2, potential=POTENTIALS[name])
    logz, mean, var = SelfConsistency1D(model).moments(m)
    ref_logz, ref_mean, ref_var = fixed_rule_moments(model, m)
    assert abs(logz - ref_logz) <= 1e-12 * (1.0 + abs(ref_logz))
    assert abs(mean - ref_mean) <= 1e-12 * (1.0 + abs(m))
    assert abs(var - ref_var) <= 1e-11 * ref_var


def test_moments_refuse_non_finite_means(dw03):
    # refused before any node set is built: the widest holds 614 400 nodes
    sc = SelfConsistency1D(dw03)
    tracemalloc.start()
    try:
        for m in (np.nan, np.inf, -np.inf, [0.0, np.nan]):
            with pytest.raises(MeanFieldError, match="m must be finite"):
                sc.moments(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_far_mean_node_set_stays_bounded():
    # the Gibbs width at m = 700 asks for 19 million nodes on [-768, 768];
    # the node set stops at 614 400, as many as panels of width 0.1 take
    sc = SelfConsistency1D(mk.standard_model(3.0, 0.001, potential=FOUR_WELL))
    tracemalloc.start()
    try:
        _, mean, _ = sc.moments(700.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 5.0 < mean < 6.0
    assert peak < 64e6


def test_find_fixed_points_scans_in_one_call(dw03, monkeypatch):
    # the 2048-point scan is one array call; brentq refines one mean a call
    sizes = []
    moments = SelfConsistency1D.moments

    def counted(self, m):
        sizes.append(np.size(m))
        return moments(self, m)

    monkeypatch.setattr(SelfConsistency1D, "moments", counted)
    assert len(mk.find_fixed_points(SelfConsistency1D(dw03)).points) == 3
    assert len(sizes) < 100
    assert max(sizes) == 2048


def test_mean_map_refuses_unbounded_tails():
    for theta in (-0.5, -0.6):
        with pytest.raises(MeanFieldError, match="not confining"):
            SelfConsistency1D(mk.standard_model(
                theta, 1.0, potential=Potential.quadratic()))
    sc = SelfConsistency1D(mk.standard_model(1.0, 1e30))
    with pytest.raises(MeanFieldError, match="tails"):
        sc.mean_map(0.0)
    # a mean beyond the widest domain is refused as well
    with pytest.raises(MeanFieldError, match="tails"):
        SelfConsistency1D(mk.standard_model(1.0, 0.3)).mean_map(800.0)


def test_mean_map_derivative_positive_and_matches_fd(sc03):
    h = 1e-5
    for m in (-1.3, -0.4, 0.0, 0.5, 1.1):
        d = sc03.mean_map_derivative(m)
        assert d > 0
        fd = (sc03.mean_map(m + h) - sc03.mean_map(m - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-5)


def test_mean_map_slopes_frozen_values(sc03):
    assert sc03.mean_map_derivative(0.0) == pytest.approx(
        ov.FPRIME_ZERO, rel=1e-9)
    assert sc03.mean_map_derivative(ov.M_PLUS) == pytest.approx(
        ov.FPRIME_MPLUS, rel=1e-9)


def test_effective_potential_slope_identity(sc03):
    # d/dm of the effective potential equals 2*theta*(m - f(m))
    h = 1e-5
    theta = sc03.model.theta
    for m in (-1.1, -0.3, 0.2, 0.8, 1.6):
        fd = (sc03.effective_potential(m + h)
              - sc03.effective_potential(m - h)) / (2 * h)
        target = 2 * theta * (m - sc03.mean_map(m))
        assert fd == pytest.approx(target, abs=1e-5 * (1 + abs(target)))


def test_effective_potential_even_and_double_welled(sc03, m_plus):
    for m in (0.3, 0.9):
        assert sc03.effective_potential(m) == pytest.approx(
            sc03.effective_potential(-m), abs=1e-12)
    g0 = sc03.effective_potential(0.0)
    g_star = sc03.effective_potential(m_plus)
    g_mid = sc03.effective_potential(0.5 * m_plus)
    assert g_star < g_mid < g0


# ---- fixed points --------------------------------------------------------------


def test_three_fixed_points_subcritical(fixed_points_03, m_plus):
    means = fixed_points_03.means
    assert len(means) == 3
    assert means == pytest.approx([-m_plus, 0.0, m_plus], abs=1e-10)
    assert m_plus == pytest.approx(ov.M_PLUS, abs=1e-9)
    center = fixed_points_03.points[1]
    assert not center.stable and center.fprime > 1
    outer = fixed_points_03.positive_root()
    assert outer.stable and 0 < outer.fprime < 1


def test_single_fixed_point_supercritical():
    sc = SelfConsistency1D(mk.standard_model(1.0, 1.0))
    fps = mk.find_fixed_points(sc)
    assert fps.means == pytest.approx([0.0], abs=1e-10)
    assert fps.points[0].stable


def test_fixed_point_residuals_and_symmetry(sc03, fixed_points_03):
    for p in fixed_points_03.points:
        assert abs(sc03.mean_map(p.m) - p.m) < 1e-10


def test_repulsive_interaction_unstable_iteration():
    sc = SelfConsistency1D(mk.standard_model(-1.0, 0.5))
    fps = mk.find_fixed_points(sc)
    assert any(abs(p.m) < 1e-10 for p in fps.points)
    center = min(fps.points, key=lambda p: abs(p.m))
    assert center.fprime < -1
    assert not center.iteration_stable


def test_fixed_points_match_effective_potential_critical_points(sc03,
                                                                fixed_points_03):
    theta = sc03.model.theta
    for p in fixed_points_03.points:
        gprime = 2 * theta * (p.m - sc03.mean_map(p.m))
        assert abs(gprime) < 1e-8


# ---- critical temperature ------------------------------------------------------


def test_critical_sigma2_frozen_value(dw03):
    sc2 = mk.critical_sigma2(dw03.potential, dw03.theta)
    assert 0.3 < sc2 < 1.0
    assert sc2 == pytest.approx(ov.SIGMA_C2, abs=1e-7)
    sc = SelfConsistency1D(mk.standard_model(1.0, sc2))
    assert sc.mean_map_derivative(0.0) == pytest.approx(1.0, abs=1e-6)


def test_pitchfork_count_flips_at_critical(dw03):
    sc2 = mk.critical_sigma2(dw03.potential, dw03.theta)
    below = mk.find_fixed_points(
        SelfConsistency1D(mk.standard_model(1.0, 0.99 * sc2)))
    above = mk.find_fixed_points(
        SelfConsistency1D(mk.standard_model(1.0, 1.01 * sc2)))
    assert len(below.means) == 3
    assert len(above.means) == 1


def test_slope_at_zero_decreasing_in_temperature():
    slopes = [SelfConsistency1D(mk.standard_model(1.0, s))
              .mean_map_derivative(0.0) for s in (0.4, 0.6, 0.8, 1.0)]
    assert np.all(np.diff(slopes) < 0)


def test_critical_sigma2_rejects_bad_bracket(dw03):
    with pytest.raises(MeanFieldError):
        mk.critical_sigma2(dw03.potential, dw03.theta,
                           bracket=(1.5, 3.0))


def test_supercritical_global_contraction():
    sc = SelfConsistency1D(mk.standard_model(1.0, 1.0))
    ms = np.concatenate([np.linspace(-2.5, -0.05, 30),
                         np.linspace(0.05, 2.5, 30)])
    ratios = [abs(sc.mean_map(m)) / abs(m) for m in ms]
    assert max(ratios) < 1.0


# ---- contraction and degeneracy ------------------------------------------------


def test_contraction_factor_subcritical(sc03, m_plus):
    alpha = mk.contraction_factor(sc03, 0.05)
    assert alpha < 1.0
    assert alpha >= sc03.mean_map_derivative(m_plus) - 1e-12
    # sup over a smaller set cannot be larger
    assert mk.contraction_factor(sc03, 0.2) <= alpha + 1e-12


def test_contraction_factor_rejects_supercritical():
    sc = SelfConsistency1D(mk.standard_model(1.0, 1.0))
    with pytest.raises(MeanFieldError):
        mk.contraction_factor(sc, 0.05)


def test_degeneracy_bound_at_critical(dw03):
    sc2 = mk.critical_sigma2(dw03.potential, dw03.theta)
    sc = SelfConsistency1D(mk.standard_model(1.0, sc2))
    fit = mk.degeneracy_bound(sc)
    assert fit.cubic_coefficient == pytest.approx(ov.CUBIC_S, rel=1e-2)
    assert fit.beta > 0
    assert np.isfinite(fit.fit_residual)
    # near 0 the cubic controls the defect: |m|^3 <= (2/s) |f(m) - m|
    s = fit.cubic_coefficient
    for m in (0.02, 0.05, 0.1):
        defect = abs(sc.mean_map(m) - m)
        assert m ** 3 <= 2.0 * defect / s + 1e-12


def test_degeneracy_bound_rejects_off_critical(sc03):
    with pytest.raises(MeanFieldError):
        mk.degeneracy_bound(sc03)


# ---- localization --------------------------------------------------------------


def test_localization_jacobian_frozen_values():
    for s2, expect in ov.LOC_JAC.items():
        val = mk.localization_jacobian(mk.standard_model(1.0, s2), 1.0)
        assert val == pytest.approx(expect, abs=1e-6)


def test_localization_jacobian_approaches_low_temperature_limit():
    vals = [mk.localization_jacobian(mk.standard_model(1.0, s2), 1.0)
            for s2 in (0.2, 0.1, 0.05)]
    assert np.all(np.diff(vals) < 0)
    assert all(v < 1 for v in vals)
    assert abs(vals[-1] - ov.LOC_LIMIT) < 0.1


def test_localization_rejects_when_no_local_fixed_point():
    from mckeanflow.meanfield import LocalizationError
    # high temperature: no fixed point near the well at a=1
    with pytest.raises(LocalizationError):
        mk.localization_jacobian(mk.standard_model(1.0, 1.5), 1.0)


def test_localization_two_wells_give_two_fixed_points():
    pot = Potential.multi_well([(1.0, 0.0, 1.3)])
    model = mk.standard_model(1.0, 0.05, potential=pot)
    left = mk.localization_jacobian(model, -1.3)
    right = mk.localization_jacobian(model, 1.3)
    assert left == pytest.approx(right, rel=1e-6)
    assert 0 < left < 1


def test_discrete_fixed_mean_close_to_continuum(dw03, m_plus):
    from mckeanflow.meanfield import discrete_fixed_mean
    m_d = discrete_fixed_mean(dw03, -4.0, 4.0, 512, m_plus)
    assert m_d == pytest.approx(m_plus, abs=1e-4)
    rho = mk.equilibrium_for_mean(dw03, m_d, -4.0, 4.0, 512)
    assert rho.mean() == pytest.approx(m_d, abs=1e-12)


# theta > 0 on the double well, up to sigma2 = 0.81 just below sigma2_c =
# 0.8158, where f' = 0.9955 at the root; theta < 0 on a tilted well, whose
# one root is not 0 by symmetry, and at theta = -1 f' = -19 there, so plain
# iteration oscillates
@pytest.mark.parametrize("theta, sigma2, m0", [
    (1.0, 0.3, 0.5), (1.0, 0.7, -0.5), (1.0, 0.8, 0.5), (1.0, 0.81, -0.5),
    (-1.0, 0.3, 0.5), (-0.5, 0.8, -0.5)])
def test_discrete_fixed_mean_model_space(theta, sigma2, m0):
    from mckeanflow.meanfield import discrete_fixed_mean
    pot = (Potential.double_well() if theta > 0
           else Potential((0.0, 0.2, -0.5, 0.0, 0.25)))
    model = mk.standard_model(theta, sigma2, potential=pot)
    n = 256
    m_d = discrete_fixed_mean(model, -4.0, 4.0, n, m0)
    f_d = mk.equilibrium_for_mean(model, m_d, -4.0, 4.0, n).mean()
    assert abs(f_d - m_d) <= 1e-13
    roots = mk.find_fixed_points(SelfConsistency1D(model)).means
    nearest = min(roots, key=lambda r: abs(r - m0))
    assert abs(m_d - nearest) <= (8.0 / n) ** 2


def test_discrete_fixed_mean_is_the_iteration_root():
    # four wells at theta = 1, sigma2 = 0.3: plain iteration from 0.5
    # climbs to the stable root near 0.93, where an uncut Newton step from
    # a point with f' near 1 overshoots the unstable root near 1.9 and
    # ends at the one near 2.96
    from mckeanflow.meanfield import discrete_fixed_mean
    model = mk.standard_model(1.0, 0.3, potential=FOUR_WELL)
    m = 0.5
    for _ in range(2000):
        m_new = mk.equilibrium_for_mean(model, m, -5.0, 5.0, 256).mean()
        if abs(m_new - m) < 1e-15:
            break
        m = m_new
    assert 0.9 < m < 1.0
    assert discrete_fixed_mean(model, -5.0, 5.0, 256, 0.5) == pytest.approx(
        m, abs=1e-12)
