import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import MeanFieldError, Potential, SelfConsistency1D
import oracle_values as ov


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
    # values at other means must not depend on it
    sc = SelfConsistency1D(dw03)
    ms = np.linspace(-3.0, 3.0, 41)

    def values():
        return [(sc.mean_map(m), sc.mean_map_derivative(m),
                 sc.effective_potential(m)) for m in ms]

    before = values()
    mk.contraction_factor(sc, 0.05)
    assert values() == before


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
    sc2 = mk.critical_sigma2(dw03)
    assert 0.3 < sc2 < 1.0
    assert sc2 == pytest.approx(ov.SIGMA_C2, abs=1e-7)
    sc = SelfConsistency1D(dw03.with_sigma2(sc2))
    assert sc.mean_map_derivative(0.0) == pytest.approx(1.0, abs=1e-6)


def test_pitchfork_count_flips_at_critical(dw03):
    sc2 = mk.critical_sigma2(dw03)
    below = mk.find_fixed_points(
        SelfConsistency1D(dw03.with_sigma2(0.99 * sc2)))
    above = mk.find_fixed_points(
        SelfConsistency1D(dw03.with_sigma2(1.01 * sc2)))
    assert len(below.means) == 3
    assert len(above.means) == 1


def test_slope_at_zero_decreasing_in_temperature(dw03):
    slopes = [SelfConsistency1D(dw03.with_sigma2(s)).mean_map_derivative(0.0)
              for s in (0.4, 0.6, 0.8, 1.0)]
    assert np.all(np.diff(slopes) < 0)


def test_critical_sigma2_rejects_bad_bracket(dw03):
    with pytest.raises(MeanFieldError):
        mk.critical_sigma2(dw03, bracket=(1.5, 3.0))


def test_supercritical_global_contraction(dw03):
    sc = SelfConsistency1D(dw03.with_sigma2(1.0))
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


def test_contraction_factor_rejects_supercritical(dw03):
    sc = SelfConsistency1D(dw03.with_sigma2(1.0))
    with pytest.raises(MeanFieldError):
        mk.contraction_factor(sc, 0.05)


def test_degeneracy_bound_at_critical(dw03):
    sc2 = mk.critical_sigma2(dw03)
    sc = SelfConsistency1D(dw03.with_sigma2(sc2))
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


def test_localization_jacobian_frozen_values(dw03):
    for s2, expect in ov.LOC_JAC.items():
        val = mk.localization_jacobian(dw03.with_sigma2(s2), 1.0)
        assert val == pytest.approx(expect, abs=1e-6)


def test_localization_jacobian_approaches_low_temperature_limit(dw03):
    vals = [mk.localization_jacobian(dw03.with_sigma2(s2), 1.0)
            for s2 in (0.2, 0.1, 0.05)]
    assert np.all(np.diff(vals) < 0)
    assert all(v < 1 for v in vals)
    assert abs(vals[-1] - ov.LOC_LIMIT) < 0.1


def test_localization_rejects_when_no_local_fixed_point(dw03):
    from mckeanflow.meanfield import LocalizationError
    # high temperature: no fixed point near the well at a=1
    with pytest.raises(LocalizationError):
        mk.localization_jacobian(dw03.with_sigma2(1.5), 1.0)


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
