import numpy as np
import pytest

import mckeanflow as mk
from mckeanflow import (CflError, DensityGrid1D, GranularSolver, PdeError,
                        PhaseGrid2D, Potential, VfpSolver)
from mckeanflow.grid import maxwellian
from mckeanflow.meanfield import discrete_fixed_mean, equilibrium_for_mean


def gaussian_grid(x_lo, x_hi, n, mean, std):
    g = DensityGrid1D(x_lo, x_hi, n, np.ones(n))
    vals = np.exp(-0.5 * ((g.centers - mean) / std) ** 2)
    return DensityGrid1D(x_lo, x_hi, n, vals).normalize()


# ---- overdamped solver ---------------------------------------------------------


def test_granular_default_dt_is_half_worst_case():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    s = GranularSolver(model, rho)
    assert s.dt == pytest.approx(0.5 * s.admissible_dt(worst_case=True))
    assert s.admissible_dt(worst_case=True) <= rho.dx ** 2 / (2 * model.sigma2)


def test_granular_rejects_bad_input():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    with pytest.raises(PdeError):
        GranularSolver(model, rho, scheme="spectral")
    with pytest.raises(PdeError):
        GranularSolver(model, rho, dt=-1e-4)
    unnorm = DensityGrid1D(-4, 4, 128, 2.0 * rho.values)
    with pytest.raises(PdeError):
        GranularSolver(model, unnorm)
    for T in (0.0, -1.0):
        with pytest.raises(PdeError):
            mk.granular_run(GranularSolver(model, rho), T)


def test_granular_cfl_violation_names_admissible_dt():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    s = GranularSolver(model, rho, dt=1.0)
    with pytest.raises(CflError, match="admissible"):
        s.step()


def test_granular_ou_mean_decay():
    # no interaction, quadratic well: the mean obeys dm/dt = -m exactly
    model = mk.standard_model(0.0, 0.5, potential=Potential.quadratic())
    rho = gaussian_grid(-5, 5, 256, 0.8, 0.5)
    s = GranularSolver(model, rho)
    while s.time < 1.0:
        s.step()
    assert s.mean() == pytest.approx(0.8 * np.exp(-s.time), rel=1e-2)


def test_granular_mean_ode(dw03):
    # interaction force is mean-zero, so dm/dt = -E[V'(X)]
    rho = gaussian_grid(-4, 4, 256, 0.6, 0.35)
    s = GranularSolver(model=dw03, state=rho)
    m0 = s.mean()
    vprime = dw03.potential.grad(rho.centers)
    expected = -float(np.sum(vprime * s.state.values) * rho.dx)
    n_sub = 10
    for _ in range(n_sub):
        s.step()
    observed = (s.mean() - m0) / (n_sub * s.dt)
    assert observed == pytest.approx(expected, rel=1e-3)


def test_granular_fixed_point_is_stationary(dw03):
    m = discrete_fixed_mean(dw03, -4, 4, 256, m0=0.8)
    rho = equilibrium_for_mean(dw03, m, -4, 4, 256)
    s = GranularSolver(dw03, rho)
    while s.time < 5.0:
        s.step()
    assert mk.wasserstein2(s.state, rho) <= 5 * rho.dx
    assert s.mean() == pytest.approx(m, abs=1e-6)


def test_granular_preserves_symmetry():
    model = mk.standard_model(1.0, 0.5)
    n = 256
    g = DensityGrid1D(-4, 4, n, np.ones(n))
    vals = (np.exp(-0.5 * ((g.centers - 1.2) / 0.4) ** 2)
            + np.exp(-0.5 * ((g.centers + 1.2) / 0.4) ** 2))
    rho = DensityGrid1D(-4, 4, n, vals).normalize()
    s = GranularSolver(model, rho)
    for _ in range(200):
        s.step()
    v = s.state.values
    assert np.max(np.abs(v - v[::-1])) <= 1e-10 * v.max()
    assert abs(s.mean()) <= 1e-10


def test_granular_mass_and_positivity(dw03):
    rho = gaussian_grid(-4, 4, 128, 0.9, 0.3)
    s = GranularSolver(dw03, rho)
    for _ in range(500):
        s.step()
        st = s.state
        assert st.mass() == pytest.approx(1.0, abs=1e-12)
        assert st.values.min() >= 0.0


def test_granular_refinement_convergence(dw03):
    # smooth data, fixed horizon: W2 error against a fine solution should
    # drop by roughly 4x per halving of dx (dt follows dx^2 automatically)
    def solve(n):
        rho = gaussian_grid(-4, 4, n, 0.5, 0.4)
        s = GranularSolver(dw03, rho)
        while s.time < 0.3:
            s.step()
        return s.state

    fine = solve(1024)
    err = {n: mk.wasserstein2(solve(n), fine) for n in (128, 256)}
    assert err[256] < err[128] / 2.0


def test_granular_upwind_cross_check(dw03):
    rho = gaussian_grid(-4, 4, 256, 0.5, 0.4)
    out = {}
    for scheme in ("chang-cooper", "upwind"):
        s = GranularSolver(dw03, rho, scheme=scheme)
        while s.time < 0.5:
            s.step()
        out[scheme] = s.state
    assert mk.wasserstein2(out["chang-cooper"], out["upwind"]) <= 5 * rho.dx


def test_granular_run_log(dw03):
    m = discrete_fixed_mean(dw03, -4, 4, 256, m0=0.8)
    ref = equilibrium_for_mean(dw03, m, -4, 4, 256)
    rho = gaussian_grid(-4, 4, 256, 0.9, 0.31)
    s = GranularSolver(dw03, rho)
    log = mk.granular_run(s, T=0.5, record_every=200, reference=ref)
    t = log.column("t")
    assert t[0] == 0.0 and t[-1] == pytest.approx(0.5, abs=2 * s.dt)
    f = log.column("F")
    assert np.all(np.diff(f) <= 1e-8 * (1.0 + np.abs(f[:-1])))
    for name in ("mean", "var", "F", "H_loc", "Fisher", "W2_ref", "TV_ref"):
        assert np.all(np.isfinite(log.column(name)))
    assert log.column("W2_ref")[-1] < log.column("W2_ref")[0]


# ---- kinetic solver ------------------------------------------------------------


def product_state(x_lo, x_hi, n_x, v_lo, v_hi, n_v, rho_x_vals, v_mean, v_std):
    xg = DensityGrid1D(x_lo, x_hi, n_x, rho_x_vals).normalize()
    vg = DensityGrid1D(v_lo, v_hi, n_v, np.ones(n_v))
    mv = np.exp(-0.5 * ((vg.centers - v_mean) / v_std) ** 2)
    mv /= mv.sum() * vg.dx
    return PhaseGrid2D(x_lo, x_hi, n_x, v_lo, v_hi, n_v,
                       np.outer(xg.values, mv))


def test_vfp_free_streaming():
    # transport only: rho(x,v,t) = rho0(x - vt, v); the x-marginal moments
    # follow exactly from the initial discrete marginals, and the spectral
    # shift realizes this to roundoff
    model = mk.standard_model(0.0, 0.3, potential=Potential.quadratic())
    vals = np.exp(-0.5 * (np.linspace(-6, 6, 128) / 0.3) ** 2)
    state = product_state(-6, 6, 128, -2, 2, 32, vals, 0.5, 0.3)
    x0, vx0 = state.x_marginal().mean(), state.x_marginal().variance()
    v0, vv0 = state.v_marginal().mean(), state.v_marginal().variance()
    s = VfpSolver(model, state, dt=0.01,
                  enable_force=False, enable_diffusion=False)
    while s.time < 1.0 - 1e-12:
        s.step()
    t = s.time
    xm = s.state.x_marginal()
    assert xm.mean() == pytest.approx(x0 + v0 * t, abs=1e-6)
    assert xm.variance() == pytest.approx(vx0 + vv0 * t ** 2, abs=1e-6)


@pytest.mark.filterwarnings("ignore:x-boundary")
def test_vfp_velocity_relaxation():
    # friction + diffusion only: each column relaxes to the Maxwellian
    model = mk.standard_model(0.0, 0.3, potential=Potential.quadratic())
    state = product_state(-1, 1, 16, -3, 3, 64, np.ones(16), 1.5, 0.2)
    s = VfpSolver(model, state, dt=0.04,
                  enable_transport=False, enable_force=False)
    while s.time < 10.0:
        s.step()
    vm = s.state.v_marginal()
    ref = maxwellian(0.3, -3, 3, 64)
    assert mk.wasserstein2(vm, ref) <= 2 * s.grid.dv


def test_vfp_product_fixed_point_stationary(dw03):
    m = discrete_fixed_mean(dw03, -2.5, 2.5, 64, m0=0.8)
    rho_x = equilibrium_for_mean(dw03, m, -2.5, 2.5, 64)
    state = product_state(-2.5, 2.5, 64, -3, 3, 48, rho_x.values,
                          0.0, np.sqrt(0.3))
    s = VfpSolver(dw03, state)
    while s.time < 5.0:
        s.step()
    drift = mk.wasserstein2(s.state.x_marginal(), rho_x)
    assert drift <= 5 * max(s.grid.dx, s.grid.dv)
    assert s.x_mean() == pytest.approx(m, abs=1e-2)


def test_vfp_stationary_flux_residual(dw03):
    m = discrete_fixed_mean(dw03, -2.5, 2.5, 64, m0=0.8)
    rho_x = equilibrium_for_mean(dw03, m, -2.5, 2.5, 64)
    state = product_state(-2.5, 2.5, 64, -3, 3, 48, rho_x.values,
                          0.0, np.sqrt(0.3))
    s = VfpSolver(dw03, state)
    assert s.stationary_flux_residual() <= 1e-8


def test_vfp_free_energy_monotone(dw03):
    vals = np.exp(-0.5 * ((np.linspace(-3, 3, 64) - 0.4) / 0.4) ** 2)
    state = product_state(-3, 3, 64, -3, 3, 48, vals,
                          0.0, np.sqrt(0.3))
    s = VfpSolver(dw03, state)
    log = mk.vfp_run(s, T=2.0, record_every=max(1, int(2.0 / s.dt / 20)))
    f = log.column("F")
    assert len(f) >= 10
    assert np.all(np.diff(f) <= 1e-6 * (1.0 + np.abs(f[:-1])))


def test_vfp_velocity_variance_relaxes(dw03):
    # start with the wrong temperature; kinetic energy must settle at sigma2
    m = discrete_fixed_mean(dw03, -2.5, 2.5, 64, m0=0.8)
    rho_x = equilibrium_for_mean(dw03, m, -2.5, 2.5, 64)
    state = product_state(-2.5, 2.5, 64, -3, 3, 64, rho_x.values,
                          0.0, np.sqrt(0.1))
    s = VfpSolver(dw03, state)
    while s.time < 5.0:
        s.step()
    st = s.state
    v = st.v_centers
    vvar = float(np.sum(st.values * v[None, :] ** 2) * st.da
                 - (np.sum(st.values * v[None, :]) * st.da) ** 2)
    assert vvar == pytest.approx(0.3, abs=2e-2)


def test_kinetic_and_overdamped_rates_comparable():
    # supercritical temperature: both flows relax to the symmetric state;
    # their exponential rates should agree within a small constant factor
    model = mk.standard_model(1.0, 1.0)

    rho = gaussian_grid(-4, 4, 256, 0.3, 0.5)
    s1 = GranularSolver(model, rho)
    over_t, over_m = [], []
    while s1.time < 8.0:
        s1.step()
        if s1.steps % 200 == 0:
            over_t.append(s1.time)
            over_m.append(abs(s1.mean()))

    xv = np.exp(-0.5 * ((np.linspace(-3.5, 3.5, 48) - 0.3) / 0.5) ** 2)
    state = product_state(-3.5, 3.5, 48, -4, 4, 48, xv, 0.0, 1.0)
    s2 = VfpSolver(model, state)
    kin_t, kin_m = [], []
    while s2.time < 8.0:
        s2.step()
        if s2.steps % 50 == 0:
            kin_t.append(s2.time)
            kin_m.append(abs(s2.x_mean()))

    def rate(ts, ms):
        ts, ms = np.asarray(ts), np.asarray(ms)
        sel = (ts >= 2.0) & (ms > 0)
        return mk.fit_exponential(ts[sel], ms[sel]).rate

    r_over = rate(over_t, over_m)
    r_kin = rate(kin_t, kin_m)
    assert 1.0 / 3.0 <= r_kin / r_over <= 3.0


@pytest.mark.filterwarnings("ignore:x-boundary")
def test_vfp_preconditions(dw03):
    state = product_state(-2.5, 2.5, 48, -2.2, 2.2, 48, np.ones(48),
                          0.0, np.sqrt(0.3))
    with pytest.raises(PdeError):
        VfpSolver(dw03, state, dt=0.0)
    with pytest.raises(PdeError):
        VfpSolver(dw03, state, enable_diffusion=False)
    for T in (0.0, -1.0):
        with pytest.raises(PdeError):
            mk.vfp_run(VfpSolver(dw03, state), T)
    s = VfpSolver(dw03, state, dt=10.0)
    with pytest.raises(CflError):
        s.step()


def test_vfp_warns_on_boundary_mass(dw03):
    # wide uniform slab touches the x edges; the wrap-around caveat fires
    state = product_state(-2.5, 2.5, 48, -2.2, 2.2, 48, np.ones(48),
                          0.0, np.sqrt(0.3))
    with pytest.warns(UserWarning, match="wrap"):
        VfpSolver(dw03, state)
