import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mckeanflow as mk
from mckeanflow import (CflError, DensityGrid1D, GranularSolver, PdeError,
                        PhaseGrid2D, Potential, VfpSolver)
from mckeanflow.analysis import step_count
from mckeanflow.grid import maxwellian
from mckeanflow.meanfield import discrete_fixed_mean, equilibrium_for_mean
from mckeanflow.pde import _cc_fluxes


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



# ---- stacked granular runs -----------------------------------------------------


def _stack_states(n=256):
    return [gaussian_grid(-4, 4, n, mean, std)
            for mean, std in ((0.9, 0.3), (-0.5, 0.5), (0.1, 0.25))]


@pytest.mark.parametrize("scheme", ["chang-cooper", "upwind"])
def test_granular_stack_rows_match_single_runs(dw03, scheme):
    states = _stack_states()
    stack = GranularSolver(dw03, states, scheme=scheme)
    singles = [GranularSolver(dw03, rho, scheme=scheme) for rho in states]
    assert all(s.dt == stack.dt for s in singles)
    for _ in range(2000):
        stack.step()
        for s in singles:
            s.step()
    assert stack.time == singles[0].time and stack.steps == 2000
    for row, s in zip(stack.states, singles):
        ref = s.state
        assert abs(row.mass() - ref.mass()) <= 1e-13
        assert np.max(np.abs(row.values - ref.values)) <= 1e-13 * ref.values.max()


def test_granular_one_row_stack_is_bit_identical(dw03):
    m = discrete_fixed_mean(dw03, -4, 4, 256, m0=0.8)
    ref = equilibrium_for_mean(dw03, m, -4, 4, 256)
    rho = _stack_states()[0]
    single = GranularSolver(dw03, rho)
    stack = GranularSolver(dw03, [rho])
    # a one-element stack steps on the single-run layout
    assert stack._rho.ndim == 1
    log = mk.granular_run(single, T=500 * single.dt, record_every=100,
                          reference=ref)
    logs = mk.granular_run(stack, T=500 * stack.dt, record_every=100,
                           reference=ref)
    assert single.steps == stack.steps == 500
    assert np.array_equal(stack.states[0].values, single.state.values)
    assert stack.dt == single.dt and stack.covering_dt == single.covering_dt
    assert isinstance(logs, list) and len(logs) == 1
    assert logs[0].to_csv_text() == log.to_csv_text()


def test_granular_stack_rejects_bad_input(dw03):
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    for other in (gaussian_grid(-4, 4, 256, 0.5, 0.4),
                  gaussian_grid(-5, 4, 128, 0.5, 0.4),
                  DensityGrid1D(-4, 4, 128, 2.0 * rho.values)):
        with pytest.raises(PdeError):
            GranularSolver(dw03, [rho, other])
    with pytest.raises(PdeError):
        GranularSolver(dw03, [])
    # the one-run views refuse a stack; granular_run gives one log per row
    stack = GranularSolver(dw03, [rho, rho])
    with pytest.raises(PdeError):
        stack.state
    with pytest.raises(PdeError):
        stack.mean()
    logs = mk.granular_run(stack, 0.1)
    assert len(logs) == 2 and logs[0].rows == logs[1].rows


@pytest.mark.parametrize("row", [0, 2])
def test_granular_stack_checks_each_row(dw03, row):
    stack = GranularSolver(dw03, _stack_states(128))
    stack.step()
    stack._rho[row, 60] += 1e-6
    with pytest.raises(PdeError, match="mass drifted"):
        stack.step()
    stack = GranularSolver(dw03, _stack_states(128))
    stack._rho[row, 1] = -1e-3
    with pytest.raises(PdeError, match="positivity lost"):
        stack.step()


def test_granular_stack_run_matches_granular_run(dw03):
    # record_every past the step count samples the two ends only
    states = _stack_states(128)
    logs = mk.granular_run(GranularSolver(dw03, states), T=0.2,
                           record_every=10 ** 9)
    assert len(logs) == len(states)
    for rho, log in zip(states, logs):
        single = mk.granular_run(GranularSolver(dw03, rho), T=0.2,
                                 record_every=10 ** 9)
        assert len(log.rows) == 2
        assert log.column("F")[-1] == pytest.approx(single.column("F")[-1],
                                                    rel=1e-12)
    with pytest.raises(PdeError):
        mk.granular_run(GranularSolver(dw03, states), T=0.0)


# relative tolerance per column of a stacked row against its single run; a
# stack forms its means in another summation order, and log-ratios amplify
# that rounding in H_loc and Fisher (measured here: at most 6e-16 for mean
# and var, 2e-15 for F, 7e-15 for W2_ref and TV_ref, 2e-14 for Fisher and
# 3e-13 for H_loc)
_STACK_LOG_RTOL = {"t": 0.0, "mean": 1e-12, "var": 1e-12, "F": 1e-12,
                   "H_loc": 1e-10, "Fisher": 1e-10, "W2_ref": 1e-12,
                   "TV_ref": 1e-12}


def test_granular_run_stack_logs_match_single_runs(dw03):
    m = discrete_fixed_mean(dw03, -4, 4, 256, m0=0.8)
    ref = equilibrium_for_mean(dw03, m, -4, 4, 256)
    states = _stack_states()
    logs = mk.granular_run(GranularSolver(dw03, states), T=0.5,
                           record_every=300, reference=ref)
    assert len(logs) == len(states)
    for rho, log in zip(states, logs):
        single = mk.granular_run(GranularSolver(dw03, rho), T=0.5,
                                 record_every=300, reference=ref)
        assert log.columns == single.columns
        assert len(log.rows) == len(single.rows) >= 5
        for name, rtol in _STACK_LOG_RTOL.items():
            got, want = log.column(name), single.column(name)
            assert np.all(np.isfinite(got)), name
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0,
                                       err_msg=name)


def test_granular_stack_run_checks_free_energy(dw03, monkeypatch):
    # a free energy that rises between two samples of any one row aborts
    # the run; rows are sampled in order, so call k is row k % R
    states = _stack_states(128)
    n_rows = len(states)
    for row in (None, *range(n_rows)):
        calls = iter(range(10 ** 6))

        def fake(model, rho, calls=calls, row=row):
            sample, r = divmod(next(calls), n_rows)
            return float(sample if r == row else -sample)

        monkeypatch.setattr("mckeanflow.pde.free_energy", fake)
        run = lambda: mk.granular_run(GranularSolver(dw03, states), T=1e-3)
        if row is None:
            assert len(run()) == n_rows
        else:
            with pytest.raises(PdeError, match="free energy increased"):
                run()


def _count_cfl_checks(monkeypatch):
    calls = []
    check = GranularSolver._admissible_for_w

    def counted(self, w):
        calls.append(w.shape)
        return check(self, w)

    monkeypatch.setattr(GranularSolver, "_admissible_for_w", counted)
    return calls


def test_granular_cfl_check_only_where_unproven(dw03, monkeypatch):
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    calls = _count_cfl_checks(monkeypatch)
    s = GranularSolver(dw03, rho)
    assert s.cfl_proven and s.dt <= s.covering_dt
    calls.clear()
    for _ in range(20):
        s.step()
    assert calls == []
    # a mean outside [x_lo, x_hi] (faked through the reference mass) falls
    # back to the full check
    s._mass0 = 0.1 * s._mass0
    assert s._means() > s.x_hi
    s.step()
    assert len(calls) == 1


def test_granular_user_dt_above_covering_bound_steps(dw03, monkeypatch):
    # dt between the covering bound and the admissible dt at the present
    # means is checked on every step, and steps
    states = _stack_states(128)
    probe = GranularSolver(dw03, states)
    assert probe.covering_dt < probe.admissible_dt()
    dt = 0.5 * (probe.covering_dt + probe.admissible_dt())
    calls = _count_cfl_checks(monkeypatch)
    for state in (states[0], states):
        s = GranularSolver(dw03, state, dt=dt)
        assert not s.cfl_proven
        calls.clear()
        for _ in range(50):
            s.step()
        assert len(calls) == 50
        assert all(abs(r.mass() - 1.0) <= 1e-12 for r in s.states)

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
    s = VfpSolver(model, state, dt=0.01)
    t = 0.0
    while t < 1.0 - 1e-12:
        s._transport_x_half()
        s._transport_x_half()
        t += s.dt
    xm = s.state.x_marginal()
    assert xm.mean() == pytest.approx(x0 + v0 * t, abs=1e-6)
    assert xm.variance() == pytest.approx(vx0 + vv0 * t ** 2, abs=1e-6)


@pytest.mark.filterwarnings("ignore:x-boundary")
def test_vfp_velocity_relaxation():
    # friction + diffusion only: each column relaxes to the Maxwellian
    model = mk.standard_model(0.0, 0.3, potential=Potential.quadratic())
    state = product_state(-1, 1, 16, -3, 3, 64, np.ones(16), 1.5, 0.2)
    s = VfpSolver(model, state, dt=0.04)
    t = 0.0
    while t < 10.0:
        s._cc_v_solve(np.zeros(s.grid.n_x))
        t += s.dt
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
    for T in (0.0, -1.0):
        with pytest.raises(PdeError):
            mk.vfp_run(VfpSolver(dw03, state), T)
    s = VfpSolver(dw03, state, dt=10.0)
    with pytest.raises(CflError):
        s.step()
    heavy = PhaseGrid2D(-2.5, 2.5, 48, -2.2, 2.2, 48, 2.0 * state.values)
    with pytest.raises(PdeError, match="normalized"):
        VfpSolver(dw03, heavy)


def test_vfp_warns_on_boundary_mass(dw03):
    # wide uniform slab touches the x edges; the wrap-around caveat fires
    state = product_state(-2.5, 2.5, 48, -2.2, 2.2, 48, np.ones(48),
                          0.0, np.sqrt(0.3))
    with pytest.warns(UserWarning, match="wrap"):
        VfpSolver(dw03, state)


@pytest.mark.parametrize("dt", [5e-3, 1e-2, 2.7e-2])
def test_vfp_steps_above_force_bound(dt):
    # c09's grid: dv/max|force| at the initial mean is about 2.8e-3 and the
    # transport bound dx/max|v| is 2.78e-2, so each dt lies between them;
    # the implicit velocity solve keeps mass and positivity
    model = mk.standard_model(1.0, 1.0)
    shifted = equilibrium_for_mean(model, 0.0, -3.5, 3.5, 64, shift=0.3)
    state = product_state(-3.5, 3.5, 64, -4.0, 4.0, 64, shifted.values,
                          0.0, 1.0)
    s = VfpSolver(model, state, dt=dt)
    force = s._vp + 2.0 * model.theta * (s._x - s.x_mean())
    assert s.grid.dv / np.max(np.abs(force)) < dt
    assert dt <= s.grid.dx / np.max(np.abs(s._v))
    if dt < 2e-2:
        log = mk.vfp_run(s, T=4.0, record_every=max(1, round(0.1 / dt)))
        f = log.column("F")
        assert len(f) >= 20
        assert np.all(np.diff(f) <= 1e-6 * (1.0 + np.abs(f[:-1])))
    else:
        # here the splitting error lifts F by 1.1e-5 in the first step,
        # past vfp_run's 1e-6 tolerance, so step without the F check
        for _ in range(step_count(4.0, dt)):
            s.step()
    assert s.steps == step_count(4.0, dt)
    assert abs(s._rho.sum() * s.grid.da - 1.0) <= 1e-11
    assert s._rho.min() >= -1e-8 * s._rho.max()


# ---- the shared Chang-Cooper operator ------------------------------------------


_POTENTIALS = (
    Potential.double_well(),
    Potential.quadratic(),
    Potential.polynomial([0.0, 0.3, -1.0, 0.0, 0.0, 0.0, 0.1]),
    Potential.multi_well([(0.5, -1.0, 0.5), (0.3, 1.0, 0.8)]),
)


def _velocity_gibbs_setup(model, n_v, dt, n_x=16):
    """A solver whose state is the discrete Gibbs density of the velocity
    operator in every column (g_{j+1}/g_j = e^{w_j}) at frozen mean 0.3,
    and the force behind it."""
    m = 0.3
    x = -2.0 + (np.arange(n_x) + 0.5) * (4.0 / n_x)
    dv = 8.0 / n_v
    v_if = -4.0 + dv * np.arange(1, n_v)
    force = model.potential.grad(x) + 2.0 * model.theta * (x - m)
    w = -(v_if[None, :] + force[:, None]) * dv / model.sigma2
    log_g = np.concatenate([np.zeros((n_x, 1)), np.cumsum(w, axis=1)], axis=1)
    cols = np.exp(log_g - log_g.max(axis=1, keepdims=True))
    cols /= cols.sum(axis=1, keepdims=True) * dv
    vals = np.exp(-2.0 * x ** 2)[:, None] * cols
    state = PhaseGrid2D(-2.0, 2.0, n_x, -4.0, 4.0, n_v, vals).normalize()
    return VfpSolver(model, state, dt=dt), force


@pytest.mark.filterwarnings("ignore:x-boundary")
@settings(max_examples=400, deadline=None)
@given(pot=st.integers(0, len(_POTENTIALS) - 1),
       theta=st.floats(-1.0, 3.0),
       sigma2=st.floats(0.1, 2.0),
       n_v=st.integers(16, 64),
       log_dt=st.floats(-3.0, 0.0))
def test_velocity_solve_keeps_column_gibbs_state(pot, theta, sigma2, n_v,
                                                 log_dt):
    model = mk.standard_model(theta, sigma2, potential=_POTENTIALS[pot])
    s, force = _velocity_gibbs_setup(model, n_v, 10.0 ** log_dt)
    g = s._rho.copy()
    for _ in range(10):
        s._cc_v_solve(force)
    assert np.max(np.abs(s._rho - g)) <= 1e-11 * np.max(g)
    assert abs(s._rho.sum() - g.sum()) <= 1e-13 * g.sum()
    assert s._rho.min() >= 0.0


@pytest.mark.filterwarnings("ignore:x-boundary")
def test_velocity_band_matches_dense_solve(dw03):
    n_x = n_v = 16
    s, force = _velocity_gibbs_setup(dw03, n_v, 0.5, n_x=n_x)
    rng = np.random.default_rng(7)
    s._rho = rng.uniform(0.1, 1.0, (n_x, n_v))
    rho0 = s._rho.ravel().copy()
    v_if = 0.5 * (s._v[:-1] + s._v[1:])
    w = -(v_if[None, :] + force[:, None]) * s.grid.dv / dw03.sigma2
    a, b, _ = _cc_fluxes(w)
    kk = dw03.sigma2 * s.dt / s.grid.dv ** 2
    # I + kk * (outflow - inflow), one interface at a time
    dense = np.eye(n_x * n_v)
    for i in range(n_x):
        for j in range(n_v - 1):
            lo, hi = i * n_v + j, i * n_v + j + 1
            dense[lo, lo] += kk * a[i, j]
            dense[lo, hi] -= kk * b[i, j]
            dense[hi, lo] -= kk * a[i, j]
            dense[hi, hi] += kk * b[i, j]
    s._cc_v_solve(force)
    ref = np.linalg.solve(dense, rho0)
    assert np.max(np.abs(s._rho.ravel() - ref)) <= 1e-12 * np.max(ref)


@settings(max_examples=100, deadline=None)
@given(w=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
def test_cc_flux_vanishes_on_exponential_ratio(w):
    # rho_i = 1, rho_{i+1} = e^{w_i}: the flux a_i - b_i e^{w_i} vanishes up
    # to rounding of the larger density times the weight
    w = np.array([w, [-x for x in w]])
    a, b, out = _cc_fluxes(w)
    upper = np.exp(w)
    flux = a - b * upper
    scale = (1.0 + np.abs(w)) * np.maximum(1.0, upper)
    assert np.all(np.abs(flux) <= 1e-14 * scale)
    assert np.all(a >= 0.0) and np.all(b >= 0.0)
    # out_i = a_i + b_{i-1}, with no inflow weight past either end
    assert np.array_equal(out, np.concatenate(
        [a[:, :1], a[:, 1:] + b[:, :-1], b[:, -1:]], axis=1))



# ---- the covering CFL bound ----------------------------------------------------


@pytest.mark.filterwarnings("ignore:boundary cells")
@settings(max_examples=200, deadline=None)
@given(pot=st.integers(0, len(_POTENTIALS) - 1),
       theta=st.floats(-1.0, 3.0),
       sigma2=st.floats(0.05, 2.0),
       x_lo=st.floats(-8.0, -1.0),
       x_hi=st.floats(1.0, 8.0),
       n=st.integers(64, 2048))
@example(pot=0, theta=0.5, sigma2=0.25, x_lo=-6.0, x_hi=41.0, n=2048)
def test_covering_dt_covers_every_mean(pot, theta, sigma2, x_lo, x_hi, n):
    model = mk.standard_model(theta, sigma2, potential=_POTENTIALS[pot])
    s = GranularSolver(model, DensityGrid1D(x_lo, x_hi, n,
                                            np.ones(n)).normalize())
    assert s.dt <= s.covering_dt and s.cfl_proven
    # each row of w is one mean; on a block of rows the admissible dt is
    # the smallest over them
    means = np.linspace(x_lo, x_hi, 1001)[:, None]
    for block in np.array_split(means, 11):
        adm = s._admissible_for_w(s._interface_w(block))[0]
        assert s.covering_dt <= adm
    # the bound is sharp over weights |w_i| <= W_i: signs alternating so
    # that w_i = W_i and w_{i-1} = -W_{i-1} reach P(-W_i) + P(-W_{i-1})
    big_w = np.abs(s._w_pot) + abs(s._c_mean) * (x_hi - x_lo)
    signs = (-1.0) ** np.arange(n - 1)
    sharp = min(s._admissible_for_w(sg * big_w)[0] for sg in (signs, -signs))
    assert s.covering_dt == pytest.approx(sharp, rel=1e-12)


# ---- the granular step across the model space ------------------------------------


@pytest.mark.filterwarnings("ignore:boundary cells")
@settings(max_examples=200, deadline=None)
@given(pot=st.integers(0, len(_POTENTIALS) - 1),
       theta=st.floats(-1.0, 3.0),
       sigma2=st.floats(0.1, 2.0),
       n=st.integers(64, 512),
       scheme=st.sampled_from(["chang-cooper", "upwind"]),
       mean=st.floats(-1.5, 1.5))
def test_granular_step_structure_across_models(pot, theta, sigma2, n, scheme,
                                               mean):
    model = mk.standard_model(theta, sigma2, potential=_POTENTIALS[pot])
    # 200 steps from a Gaussian: mass and positivity for both schemes; the
    # free energy is a Lyapunov function of the Chang-Cooper step only
    # (upwind relaxes to its own steady state, off the discrete Gibbs one)
    s = GranularSolver(model, gaussian_grid(-4.0, 4.0, n, mean, 0.6),
                       scheme=scheme)
    f = [mk.free_energy(model, s.state)]
    for k in range(1, 201):
        s.step()
        if k % 20 == 0:
            f.append(mk.free_energy(model, s.state))
    assert abs(s.state.mass() - 1.0) <= 1e-12
    assert s._rho.min() >= 0.0
    if scheme != "chang-cooper":
        return
    f = np.array(f)
    assert np.all(np.diff(f) <= 1e-8 * (1.0 + np.abs(f[:-1])))
    # the discrete self-consistent density, where the discrete mean map
    # iteration finds it, is an exact steady state of the step
    try:
        m_d = discrete_fixed_mean(model, -4.0, 4.0, n, mean)
    except mk.MeanFieldError:
        m_d = None
    assume(m_d is not None)
    rho_d = equilibrium_for_mean(model, m_d, -4.0, 4.0, n)
    s = GranularSolver(model, rho_d)
    for _ in range(100):
        s.step()
    assert np.max(np.abs(s._rho - rho_d.values)) <= 1e-12 * np.max(
        rho_d.values)
