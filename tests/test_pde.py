import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mckeanflow as mk
from mckeanflow import (CflError, DensityGrid1D, GranularSolver, PdeError,
                        PhaseGrid2D, Potential, VfpSolver)
from mckeanflow.analysis import step_count
from mckeanflow.grid import maxwellian
from mckeanflow.meanfield import discrete_fixed_mean, equilibrium_for_mean
from mckeanflow.pde import _cc_fluxes, _cc_solve


def gaussian_grid(x_lo, x_hi, n, mean, std):
    g = DensityGrid1D(x_lo, x_hi, n, np.ones(n))
    vals = np.exp(-0.5 * ((g.centers - mean) / std) ** 2)
    return DensityGrid1D(x_lo, x_hi, n, vals).normalize()


# ---- overdamped solver ---------------------------------------------------------


def test_granular_default_dt_is_max_dt():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    s = GranularSolver(model, rho)
    assert s.dt == s.max_dt
    assert s.max_dt <= 8 * rho.dx ** 2 / (2 * model.sigma2)


def test_granular_rejects_bad_input():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    with pytest.raises(PdeError):
        GranularSolver(model, rho, dt=-1e-4)
    unnorm = DensityGrid1D(-4, 4, 128, 2.0 * rho.values)
    with pytest.raises(PdeError):
        GranularSolver(model, unnorm)
    for T in (0.0, -1.0, np.nan):
        with pytest.raises(PdeError, match="T must be positive"):
            mk.granular_run(GranularSolver(model, rho), T)


def test_granular_cfl_violation_names_admissible_dt():
    model = mk.standard_model(1.0, 0.3)
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    with pytest.raises(CflError, match="admissible"):
        GranularSolver(model, rho, dt=1.0)


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


def _upwind_run(model, rho, dt, n_steps):
    """Reference: explicit upwind drift plus central diffusion with no-flux
    ends and the mean frozen per step; stable for dt <= dx^2/(2*sigma2 +
    2*dx*max|drift|)."""
    x, dx, s2 = rho.centers, rho.dx, model.sigma2
    x_if = 0.5 * (x[:-1] + x[1:])
    pot_drift = -np.diff(model.potential.value(x)) / dx
    vals = rho.values.copy()
    for _ in range(n_steps):
        m = np.sum(x * vals) / np.sum(vals)
        drift = pot_drift + 2.0 * model.theta * (m - x_if)
        flux = np.zeros(len(vals) + 1)
        flux[1:-1] = (np.maximum(drift, 0.0) * vals[:-1]
                      + np.minimum(drift, 0.0) * vals[1:]
                      + (s2 / dx) * (vals[:-1] - vals[1:]))
        vals += (dt / dx) * (flux[:-1] - flux[1:])
    return DensityGrid1D(rho.x_lo, rho.x_hi, rho.n, vals)


def test_granular_upwind_cross_check(dw03):
    rho = gaussian_grid(-4, 4, 256, 0.5, 0.4)
    s = GranularSolver(dw03, rho)
    while s.time < 0.5:
        s.step()
    # the upwind run takes its own stable dt, bounding the drift over every
    # mean in the domain, and ends at the same time
    drift = (np.max(np.abs(np.diff(dw03.potential.value(rho.centers))))
             / rho.dx + 2.0 * abs(dw03.theta) * (rho.x_hi - rho.x_lo))
    dt_up = rho.dx ** 2 / (2.0 * dw03.sigma2 + 2.0 * rho.dx * drift)
    n_up = int(np.ceil(s.time / dt_up))
    upwind = _upwind_run(dw03, rho, s.time / n_up, n_up)
    assert mk.wasserstein2(s.state, upwind) <= 5 * rho.dx


def test_granular_run_log(dw03):
    m = discrete_fixed_mean(dw03, -4, 4, 256, m0=0.8)
    ref = equilibrium_for_mean(dw03, m, -4, 4, 256)
    rho = gaussian_grid(-4, 4, 256, 0.9, 0.31)
    s = GranularSolver(dw03, rho)
    log = mk.granular_run(s, T=0.5, record_every=max(1, round(0.0423 / s.dt)),
                          reference=ref)
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


def test_granular_stack_rows_match_single_runs(dw03):
    states = _stack_states()
    stack = GranularSolver(dw03, states)
    singles = [GranularSolver(dw03, rho) for rho in states]
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
    # a single density is a one-row stack
    assert single._rho.shape == stack._rho.shape == (1, 256)
    log = mk.granular_run(single, T=500 * single.dt, record_every=100,
                          reference=ref)
    logs = mk.granular_run(stack, T=500 * stack.dt, record_every=100,
                           reference=ref)
    assert single.steps == stack.steps == 500
    assert np.array_equal(stack.states[0].values, single.state.values)
    assert stack.dt == single.dt and stack.max_dt == single.max_dt
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
    stack = GranularSolver(dw03, states)
    every = max(1, round(0.0635 / stack.dt))
    logs = mk.granular_run(stack, T=0.5, record_every=every, reference=ref)
    assert len(logs) == len(states)
    for rho, log in zip(states, logs):
        single = mk.granular_run(GranularSolver(dw03, rho), T=0.5,
                                 record_every=every, reference=ref)
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


def test_granular_cfl_check_only_where_unproven(dw03):
    rho = gaussian_grid(-4, 4, 128, 0.5, 0.4)
    s = GranularSolver(dw03, rho)
    for _ in range(20):
        s.step()
    # a mean outside [x_lo, x_hi] (faked through the reference mass) still
    # steps: the implicit step keeps mass and positivity for every mean
    s._mass0 = 0.1 * s._mass0
    assert s._means() > s.x_hi
    s.step()
    assert s.steps == 21
    assert abs(s._rho.sum() * s.dx - 1.0) <= 1e-12
    assert s._rho.min() >= 0.0


def test_granular_user_dt_above_max_dt_refused(dw03):
    # a dt above max_dt is refused at construction, for a single run and
    # for a stack; max_dt itself is accepted
    states = _stack_states(128)
    probe = GranularSolver(dw03, states)
    for state in (states[0], states):
        with pytest.raises(CflError, match="admissible"):
            GranularSolver(dw03, state, dt=probe.max_dt * (1 + 1e-8))
        s = GranularSolver(dw03, state, dt=probe.max_dt)
        for _ in range(50):
            s.step()
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
    for dt in (0.0, np.nan):
        with pytest.raises(PdeError, match="dt must be positive"):
            VfpSolver(dw03, state, dt=dt)
    for T in (0.0, -1.0, np.nan):
        with pytest.raises(PdeError, match="T must be positive"):
            mk.vfp_run(VfpSolver(dw03, state), T)
    with pytest.raises(CflError, match="transport CFL"):
        VfpSolver(dw03, state, dt=10.0)
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


def _vfp_inner_state(model):
    # an x-density well inside the domain, so no boundary warning fires
    rho_x = equilibrium_for_mean(model, 0.8, -2.5, 2.5, 64)
    return product_state(-2.5, 2.5, 64, -3.0, 3.0, 48, rho_x.values, 0.0,
                         np.sqrt(model.sigma2))


def test_vfp_step_checks_mass_and_positivity(dw03):
    s = VfpSolver(dw03, _vfp_inner_state(dw03))
    s.step()
    s._rho[40, 24] += 1e-6 * s._rho.max()
    with pytest.raises(PdeError, match="mass drifted"):
        s.step()
    # a tail cell, where neither sub-step can lift it back above the floor
    s = VfpSolver(dw03, _vfp_inner_state(dw03))
    s._rho[1, 1] = -1e-3 * s._rho.max()
    with pytest.raises(PdeError, match="positivity lost"):
        s.step()


def test_vfp_run_checks_free_energy(dw03, monkeypatch):
    # a kinetic free energy that rises between two samples aborts the run;
    # one that falls does not
    for sign in (-1.0, 1.0):
        calls = iter(range(10 ** 6))

        def fake(model, rho, calls=calls, sign=sign):
            return sign * next(calls)

        monkeypatch.setattr("mckeanflow.pde.kinetic_free_energy", fake)
        run = lambda: mk.vfp_run(VfpSolver(dw03, _vfp_inner_state(dw03)),
                                 T=0.02)
        if sign < 0:
            assert len(run().rows) >= 3
        else:
            with pytest.raises(PdeError, match="free energy increased"):
                run()


# ---- the shared Chang-Cooper operator ------------------------------------------


_POTENTIALS = (
    Potential.double_well(),
    Potential.quadratic(),
    Potential([0.0, 0.3, -1.0, 0.0, 0.0, 0.0, 0.1]),
    Potential.multi_well([(0.5, -1.0, 0.5), (0.3, 1.0, 0.8)]),
)


def _velocity_gibbs_setup(model, n_v, dt, n_x=16):
    """A solver whose state is the discrete Gibbs density of the velocity
    operator in every column (g_{j+1}/g_j = e^{w_j}) at frozen mean 0.3,
    and the force behind it.

    The solver's dt is set after construction: the constructor refuses a
    dt above the transport bound dx/max|v| (about 0.065 here) for the step,
    but the implicit velocity solve alone is tested up to dt = 1."""
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
    solver = VfpSolver(model, state)
    solver.dt = dt
    return solver, force


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



# ---- the implicit granular step ------------------------------------------------


@pytest.mark.filterwarnings("ignore:boundary cells")
@settings(max_examples=200, deadline=None)
@given(pot=st.integers(0, len(_POTENTIALS) - 1),
       theta=st.floats(-1.0, 3.0),
       sigma2=st.floats(0.05, 2.0),
       n=st.integers(64, 512),
       mean=st.floats(-4.0, 4.0),
       factor=st.sampled_from([1.0, 100.0]))
def test_granular_step_keeps_structure_at_any_dt(pot, theta, sigma2, n, mean,
                                                 factor):
    # at max_dt and far above it, for means across the domain: each step
    # keeps mass and every cell nonnegative, and the discrete Gibbs density
    # at a frozen mean (cell ratios e^{w_i}) is a fixed point of the solve
    model = mk.standard_model(theta, sigma2, potential=_POTENTIALS[pot])
    s = GranularSolver(model, gaussian_grid(-4.0, 4.0, n, mean, 0.3))
    s.dt = factor * s.max_dt
    for _ in range(5):
        s.step()
        assert abs(s._rho.sum() * s.dx - 1.0) <= 1e-12
        assert s._rho.min() >= 0.0
    w = s._interface_w(mean)
    log_g = np.concatenate([[0.0], np.cumsum(w)])
    g = np.exp(log_g - log_g.max())
    g /= g.sum() * s.dx
    kk = sigma2 * s.dt / s.dx ** 2
    assert np.max(np.abs(_cc_solve(g, w, kk) - g)) <= 1e-12 * g.max()


def test_cc_solve_matches_dense_solve_on_a_stack():
    # rows of an (R, n) stack are independent systems: the dense matrix is
    # block diagonal, I + kk * (outflow - inflow) one interface at a time
    n_rows, n = 3, 12
    rng = np.random.default_rng(11)
    w = rng.uniform(-5.0, 5.0, (n_rows, n - 1))
    rho = rng.uniform(0.1, 1.0, (n_rows, n))
    kk = 0.7
    a, b, _ = _cc_fluxes(w)
    dense = np.eye(n_rows * n)
    for r in range(n_rows):
        for j in range(n - 1):
            lo, hi = r * n + j, r * n + j + 1
            dense[lo, lo] += kk * a[r, j]
            dense[lo, hi] -= kk * b[r, j]
            dense[hi, lo] -= kk * a[r, j]
            dense[hi, hi] += kk * b[r, j]
    ref = np.linalg.solve(dense, rho.ravel()).reshape(rho.shape)
    got = _cc_solve(rho, w, kk)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
    for r in range(n_rows):
        assert np.array_equal(_cc_solve(rho[r], w[r], kk), got[r])


# ---- the granular step across the model space ------------------------------------


@pytest.mark.filterwarnings("ignore:boundary cells")
@settings(max_examples=200, deadline=None)
@given(pot=st.integers(0, len(_POTENTIALS) - 1),
       theta=st.floats(-1.0, 3.0),
       sigma2=st.floats(0.1, 2.0),
       n=st.integers(64, 512),
       mean=st.floats(-1.5, 1.5))
def test_granular_step_structure_across_models(pot, theta, sigma2, n, mean):
    model = mk.standard_model(theta, sigma2, potential=_POTENTIALS[pot])
    # 200 steps from a Gaussian: mass, positivity and a nonincreasing free
    # energy
    s = GranularSolver(model, gaussian_grid(-4.0, 4.0, n, mean, 0.6))
    f = [mk.free_energy(model, s.state)]
    for k in range(1, 201):
        s.step()
        if k % 20 == 0:
            f.append(mk.free_energy(model, s.state))
    assert abs(s.state.mass() - 1.0) <= 1e-12
    assert s._rho.min() >= 0.0
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
