import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import DensityGrid1D, GridError, PhaseGrid2D
from conftest import random_mixture
import oracle_values as ov


def gaussian(mean, std, n=2048, lo=-8.0, hi=8.0):
    return DensityGrid1D.gaussian(lo, hi, n, mean, std)


# ---- construction ------------------------------------------------------------


def test_grid_rejects_negative_cells():
    vals = np.ones(64)
    vals[3] = -1e-3
    with pytest.raises(GridError):
        DensityGrid1D(0.0, 1.0, 64, vals)


def test_grid_rejects_bad_bounds_and_small_n():
    with pytest.raises(GridError):
        DensityGrid1D(1.0, 0.0, 64, np.ones(64))
    with pytest.raises(GridError):
        DensityGrid1D(0.0, 1.0, 8, np.ones(8))


def test_normalize_idempotent():
    rho = DensityGrid1D(0.0, 2.0, 64, np.random.default_rng(0).random(64))
    r1 = rho.normalize()
    r2 = r1.normalize()
    assert abs(r1.mass() - 1.0) <= 1e-10
    assert np.array_equal(r1.values, r2.values)


def test_moments_match_direct_sums():
    rho = gaussian(0.3, 0.7)
    x = rho.centers
    assert rho.mean() == pytest.approx(np.sum(x * rho.values) * rho.dx)
    assert rho.variance() == pytest.approx(0.49, abs=1e-3)


# ---- entropy -----------------------------------------------------------------


def test_entropy_uniform_is_zero():
    rho = DensityGrid1D(0.0, 1.0, 64, np.ones(64)).normalize()
    assert mk.entropy(rho) == pytest.approx(0.0, abs=1e-12)


def test_entropy_gaussian_values():
    assert mk.entropy(gaussian(0.0, 1.0)) == pytest.approx(
        ov.GAUSS_ENTROPY_STD, abs=1e-3)
    for s in (0.5, 2.0):
        expect = -0.5 * np.log(2 * np.pi * np.e * s * s)
        assert mk.entropy(gaussian(0.0, s)) == pytest.approx(expect, abs=1e-3)


def test_entropy_zero_cells_contribute_nothing():
    vals = np.zeros(128)
    vals[30:60] = 1.0
    rho = DensityGrid1D(-2, 2, 128, vals).normalize()
    assert np.isfinite(mk.entropy(rho))


# ---- local equilibrium -------------------------------------------------------


def test_local_equilibrium_linear_case():
    model = mk.standard_model(0.0, 0.5, potential=mk.Potential.quadratic())
    rho = gaussian(1.0, 0.6, n=1024, lo=-6, hi=6)
    gam = mk.local_equilibrium(model, rho)
    target = gaussian(0.0, np.sqrt(0.5), n=1024, lo=-6, hi=6)
    assert mk.wasserstein2(gam, target) <= rho.dx


def test_local_equilibrium_fixed_point(dw03, m_plus):
    rho = mk.equilibrium_for_mean(dw03, m_plus, -4, 4, 1024)
    gam = mk.local_equilibrium(dw03, rho)
    l1 = np.sum(np.abs(gam.values - rho.values)) * rho.dx
    assert l1 <= 1e-6


def test_local_equilibrium_depends_only_on_mean(dw03):
    # exact: the map factors through the mean
    a = gaussian(0.4, 0.5, n=512, lo=-4, hi=4)
    ga = mk.local_equilibrium(dw03, a)
    direct = mk.equilibrium_for_mean(dw03, a.mean(), -4, 4, 512)
    assert np.array_equal(ga.values, direct.values)
    # two different shapes with (numerically) equal means map to nearly
    # identical outputs; the 1e-12 mean gap from grid truncation is the
    # only source of difference
    b = DensityGrid1D.gaussian_mixture(
        -4, 4, 512, [(0.5, 0.4 - 0.3, 0.4), (0.5, 0.4 + 0.3, 0.4)])
    assert a.mean() == pytest.approx(b.mean(), abs=1e-11)
    gb = mk.local_equilibrium(dw03, b)
    assert np.max(np.abs(ga.values - gb.values)) <= 1e-9


def test_local_equilibrium_underflow_guard():
    model = mk.standard_model(1.0, 1e-8)
    rho = gaussian(0.0, 0.5, n=128, lo=-4, hi=4)
    with pytest.raises(mk.UnderflowError):
        mk.local_equilibrium(model, rho)


# ---- divergences -------------------------------------------------------------


def test_relative_entropy_basics():
    rho = gaussian(0.0, 1.0)
    assert mk.relative_entropy(rho, rho) == 0.0
    m = 0.7
    kl = mk.relative_entropy(gaussian(m, 1.0), gaussian(0.0, 1.0))
    assert kl == pytest.approx(m * m / 2.0, abs=1e-3)
    assert kl >= 0.0


def test_relative_entropy_singular_sentinel():
    a = np.zeros(128)
    a[:40] = 1.0
    b = np.zeros(128)
    b[60:] = 1.0
    nu = DensityGrid1D(0, 1, 128, a).normalize()
    mu = DensityGrid1D(0, 1, 128, b).normalize()
    assert mk.relative_entropy(nu, mu) == np.inf


def test_relative_entropy_grid_mismatch():
    with pytest.raises(GridError):
        mk.relative_entropy(gaussian(0, 1, n=128), gaussian(0, 1, n=256))


def test_fisher_information_gaussian_shift():
    m = 0.5
    fi = mk.fisher_information(gaussian(m, 1.0), gaussian(0.0, 1.0))
    assert fi == pytest.approx(m * m, rel=1e-2)
    assert mk.fisher_information(gaussian(0, 1), gaussian(0, 1)) == \
        pytest.approx(0.0, abs=1e-12)


def test_fisher_zero_iff_proportional():
    base = gaussian(0.0, 0.8)
    assert mk.fisher_information(base, base) <= 1e-14
    other = gaussian(0.05, 0.8)
    assert mk.fisher_information(other, base) > 1e-4


def test_pinsker_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nu = random_mixture(rng)
        mu = random_mixture(rng)
        kl = mk.relative_entropy(nu, mu)
        if not np.isfinite(kl):
            continue
        assert mk.total_variation(nu, mu) ** 2 <= kl / 2.0 + 1e-9


# ---- transport distances -----------------------------------------------------


def test_w2_translation():
    a, b = -0.4, 0.9
    d = mk.wasserstein2(gaussian(a, 0.7), gaussian(b, 0.7))
    assert d == pytest.approx(abs(a - b), abs=1e-3)
    assert mk.wasserstein2(gaussian(a, 0.7), gaussian(a, 0.7)) == 0.0


def test_w2_two_bumps_vs_center():
    two = DensityGrid1D.gaussian_mixture(
        -4, 4, 8192, [(0.5, -1.0, 0.01), (0.5, 1.0, 0.01)])
    one = gaussian(0.0, 0.01, n=8192, lo=-4, hi=4)
    assert mk.wasserstein2(two, one) == pytest.approx(1.0, abs=2e-2)


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b, c = (random_mixture(rng) for _ in range(3))
        dab = mk.wasserstein2(a, b)
        assert dab == pytest.approx(mk.wasserstein2(b, a), rel=1e-9)
        assert dab <= mk.wasserstein2(a, c) + mk.wasserstein2(c, b) + 1e-6


def test_tv_basics():
    rho = gaussian(0.0, 1.0)
    assert mk.total_variation(rho, rho) == 0.0
    a = np.zeros(128)
    a[:40] = 1.0
    b = np.zeros(128)
    b[60:] = 1.0
    nu = DensityGrid1D(0, 1, 128, a).normalize()
    mu = DensityGrid1D(0, 1, 128, b).normalize()
    assert mk.total_variation(nu, mu) == pytest.approx(1.0, abs=1e-12)
    assert mk.total_variation(gaussian(0, 1), gaussian(1, 1)) == pytest.approx(
        ov.TV_N01_N11, abs=1e-3)


# ---- free energy -------------------------------------------------------------


def test_free_energy_gaussian_minimizer():
    model = mk.standard_model(0.0, 1.0, potential=mk.Potential.quadratic())
    f_min = mk.free_energy(model, gaussian(0.0, 1.0))
    f_off = mk.free_energy(model, gaussian(0.3, 1.0))
    assert f_min == pytest.approx(ov.F_GAUSS_QUADRATIC, abs=1e-3)
    assert f_min < f_off


def test_free_energy_decomposition_residual_constant(dw03):
    # F(rho) - sigma2*KL(rho|Gamma(rho)) is a function of the mean alone;
    # subtracting the effective potential of the mean, -sigma2 * log of the
    # discrete Gibbs mass by the same midpoint sum, leaves a constant
    def effective_potential(rho):
        xs = rho.centers
        logu = -(dw03.potential.value(xs)
                 + dw03.theta * (xs - rho.mean()) ** 2) / dw03.sigma2
        peak = logu.max()
        return -dw03.sigma2 * (peak + np.log(np.sum(np.exp(logu - peak))
                                             * rho.dx))

    rng = np.random.default_rng(23)
    residuals = []
    for _ in range(12):
        rho = random_mixture(rng)
        gam = mk.local_equilibrium(dw03, rho)
        r = (mk.free_energy(dw03, rho)
             - dw03.sigma2 * mk.relative_entropy(rho, gam)
             - effective_potential(rho))
        residuals.append(r)
    assert np.max(np.abs(residuals)) <= 1e-6


def test_free_energy_orders_fixed_points(dw03, m_plus):
    f_star = mk.free_energy(
        dw03, mk.equilibrium_for_mean(dw03, m_plus, -4, 4, 2048))
    f_zero = mk.free_energy(
        dw03, mk.equilibrium_for_mean(dw03, 0.0, -4, 4, 2048))
    assert f_star == pytest.approx(ov.F_STAR, abs=1e-4)
    assert f_zero == pytest.approx(ov.F_SYMMETRIC, abs=1e-4)
    assert f_star < f_zero


# ---- inequalities ------------------------------------------------------------


def test_gaussian_talagrand():
    s2 = 0.5
    mu = gaussian(0.0, np.sqrt(s2))
    rng = np.random.default_rng(7)
    for _ in range(20):
        nu = gaussian(float(rng.uniform(-1, 1)),
                      float(rng.uniform(0.4, 1.2)))
        w2 = mk.wasserstein2(nu, mu)
        kl = mk.relative_entropy(nu, mu)
        assert w2 * w2 <= 4 * (s2 / 2) * kl * 1.05 + 1e-9


def test_entropy_sandwich_on_mixtures(dw03, m_plus):
    lam = dw03.theta
    s2 = dw03.sigma2
    rho_star = mk.equilibrium_for_mean(dw03, m_plus, -4, 4, 512)
    f_star = mk.free_energy(dw03, rho_star)
    rng = np.random.default_rng(41)
    for _ in range(15):
        mu0 = random_mixture(rng)
        mu1 = random_mixture(rng)
        f0 = mk.free_energy(dw03, mu0)
        f1 = mk.free_energy(dw03, mu1)
        h00 = mk.relative_entropy(mu0, mk.local_equilibrium(dw03, mu0))
        assert f0 <= f1 + s2 * h00 + lam * mk.wasserstein2(mu0, mu1) ** 2 + 1e-6
        h_star = mk.relative_entropy(mu0, rho_star)
        if np.isfinite(h_star):
            assert (f_star + s2 * h_star
                    <= f0 + lam * mk.wasserstein2(mu0, rho_star) ** 2 + 1e-6)


# ---- phase grid --------------------------------------------------------------


def maxwellian_product(model, n_x=64, n_v=64, x_bounds=(-3.5, 3.5),
                       v_bounds=(-4.0, 4.0), mean=0.0):
    x = np.linspace(*x_bounds, n_x + 1)
    xc = 0.5 * (x[:-1] + x[1:])
    v = np.linspace(*v_bounds, n_v + 1)
    vc = 0.5 * (v[:-1] + v[1:])
    e = model.potential.value(xc) + model.theta * (xc - mean) ** 2
    px = np.exp(-(e - e.min()) / model.sigma2)
    pv = np.exp(-vc ** 2 / (2 * model.sigma2))
    vals = np.outer(px, pv)
    return PhaseGrid2D(x_bounds[0], x_bounds[1], n_x,
                       v_bounds[0], v_bounds[1], n_v, vals).normalize()


def test_phase_grid_marginals_consistent(dw03):
    rho = maxwellian_product(dw03)
    assert abs(rho.mass() - 1.0) <= 1e-10
    xm = rho.x_marginal()
    vm = rho.v_marginal()
    assert abs(xm.mass() - 1.0) <= 1e-10
    assert abs(vm.mass() - 1.0) <= 1e-10
    assert np.sum(xm.values) * xm.dx == pytest.approx(
        np.sum(rho.values) * rho.da, rel=1e-12)


def test_kinetic_free_energy_product_additivity(dw03, m_plus):
    rho_x = mk.equilibrium_for_mean(dw03, m_plus, -3.5, 3.5, 64)
    s2 = dw03.sigma2
    rho = maxwellian_product(dw03, mean=m_plus)
    # replace x-profile with the self-consistent density to get the product
    vals = np.outer(rho_x.values, rho.v_marginal().values)
    prod = PhaseGrid2D(-3.5, 3.5, 64, -4, 4, 64, vals).normalize()
    fk = mk.kinetic_free_energy(dw03, prod)
    f_x = mk.free_energy(dw03, rho_x)
    v_entropy = mk.entropy(prod.v_marginal())
    expect = f_x + s2 * v_entropy + 0.5 * float(
        np.sum(prod.v_marginal().centers ** 2 * prod.v_marginal().values)
        * prod.v_marginal().dx)
    assert fk == pytest.approx(expect, abs=1e-3)


def test_kinetic_energy_of_maxwellian_marginal(dw03):
    rho = maxwellian_product(dw03)
    vm = rho.v_marginal()
    kinetic = 0.5 * float(np.sum(vm.centers ** 2 * vm.values) * vm.dx)
    assert kinetic == pytest.approx(dw03.sigma2 / 2, abs=1e-3)


def test_local_equilibrium_kinetic_structure(dw03):
    from mckeanflow.grid import local_equilibrium_kinetic
    rng = np.random.default_rng(9)
    vals = rng.random((64, 64)) + 0.1
    rho = PhaseGrid2D(-3.5, 3.5, 64, -4, 4, 64, vals).normalize()
    gam = local_equilibrium_kinetic(dw03, rho)
    # x-marginal equals the overdamped local equilibrium of the x-marginal
    gx = mk.local_equilibrium(dw03, rho.x_marginal())
    assert np.max(np.abs(gam.x_marginal().values - gx.values)) <= 1e-10
    # v-marginal is the centered Maxwellian
    vm = gam.v_marginal()
    assert vm.mean() == pytest.approx(0.0, abs=1e-12)
    assert vm.variance() == pytest.approx(dw03.sigma2, abs=2e-3)
    # v-slices at different x are proportional (product structure)
    a = gam.values[10] / gam.values[10].sum()
    b = gam.values[40] / gam.values[40].sum()
    assert np.max(np.abs(a - b)) <= 1e-14


def _product_with_gaussian_v(n, s2_v):
    """A Gaussian x-profile (mean 0.4, std 0.6) times N(0, s2_v) in v on
    [-3.5, 3.5] x [-10, 10]; the v range holds 8 standard deviations."""
    gx = DensityGrid1D.gaussian(-3.5, 3.5, n, 0.4, 0.6)
    v = DensityGrid1D(-10.0, 10.0, n, np.ones(n)).centers
    vals = np.outer(gx.values, np.exp(-0.5 * v * v / s2_v))
    return PhaseGrid2D(-3.5, 3.5, n, -10.0, 10.0, n, vals).normalize()


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("r", [0.5, 1.5])
@pytest.mark.parametrize("sigma2", [0.3, 1.0])
def test_kinetic_diagnostics_on_gaussian_product(sigma2, r, n):
    # rho = gx (x) N(0, s2) against Gamma = Gamma_x (x) N(0, sigma2), with
    # s2 = r*sigma2: d/dv log(rho/Gamma) = v*(1/sigma2 - 1/s2), so the
    # Fisher information along v is (1/sigma2 - 1/s2)**2 * s2, and the
    # relative entropy splits into the x part and the Gaussian KL
    from mckeanflow.grid import local_equilibrium_kinetic
    model = mk.standard_model(1.0, sigma2)
    s2 = r * sigma2
    rho = _product_with_gaussian_v(n, s2)
    gam = local_equilibrium_kinetic(model, rho)
    assert mk.fisher_information(rho, gam) == pytest.approx(
        (1.0 / sigma2 - 1.0 / s2) ** 2 * s2, rel=1e-9)
    xm = rho.x_marginal()
    h_x = mk.relative_entropy(xm, mk.local_equilibrium(model, xm))
    assert mk.relative_entropy(rho, gam) == pytest.approx(
        h_x + 0.5 * (r - 1.0 - np.log(r)), rel=1e-6)
    assert mk.fisher_information(gam, gam) == 0.0
    assert mk.relative_entropy(gam, gam) == 0.0


def test_phase_space_diagnostics_need_a_shared_grid():
    rho = _product_with_gaussian_v(64, 0.3)
    others = (PhaseGrid2D(-3.5, 3.5, 64, -9.0, 10.0, 64, rho.values),
              PhaseGrid2D(-3.5, 3.0, 64, -10.0, 10.0, 64, rho.values),
              rho.x_marginal())
    for other in others:
        for fn in (mk.relative_entropy, mk.fisher_information,
                   mk.total_variation):
            with pytest.raises(GridError, match="shared grid"):
                fn(rho, other)


# ---- serialization -----------------------------------------------------------


def test_density_csv_roundtrip(tmp_path):
    # the written text read back through the CLI's csv init path; %.17g
    # round-trips exactly, and renormalizing can move a value by one ulp
    from mckeanflow.grid import density_csv_text, density_from_csv
    rho = gaussian(0.2, 0.6, n=128, lo=-4, hi=4)
    path = tmp_path / "rho.csv"
    path.write_text(density_csv_text(rho))
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(rows, np.column_stack([rho.centers, rho.values]))
    back = density_from_csv(path, -4, 4, 128)
    assert np.allclose(back.values, rho.values, rtol=1e-15, atol=0.0)
