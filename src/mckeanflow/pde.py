"""Structure-preserving finite-volume solvers.

Overdamped equation on the line:

    d/dt rho = d/dx ( sigma2 * d/dx rho + (V'(x) + 2*theta*(x - m(rho))) rho )

and its kinetic counterpart on (x, v):

    d/dt rho + v d/dx rho = d/dv ( sigma2 * d/dv rho + (v + E'(x)) rho ).

Both solvers share one exponential-fitting flux (Chang-Cooper weights):
with frozen mean the discretized Gibbs density is exactly stationary,
every cell stays nonnegative (under the CFL bound for the explicit
overdamped step), and no-flux boundaries conserve mass to machine
precision.  A plain upwind scheme is kept as a cross-check option for the
overdamped solver.  The kinetic solver is a Strang splitting: half
x-transport, then force, friction and diffusion in v as one implicit
solve, then the other half x-transport; each sub-step is conservative.
Its default dt is an accuracy choice; the only bound it enforces is the
transport bound dt <= dx/max|v|.

The mean-field coupling is explicit: every step freezes m(rho) at its
pre-step value, so each step is linear.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
from scipy.linalg import solve_banded

from .analysis import TrajectoryLog, sampled_run
from .grid import (DensityGrid1D, PhaseGrid2D, _FLOOR, fisher_information,
                   free_energy, kinetic_free_energy, local_equilibrium,
                   local_equilibrium_kinetic, relative_entropy,
                   total_variation, wasserstein2)
from .model import ModelConfig


class PdeError(ArithmeticError):
    """Numerical failure inside a solver (stability, mass, positivity)."""


class CflError(PdeError):
    """Time step exceeds the stability bound."""


def _cc_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chang-Cooper weights a = P(-w) and b = P(w) for interface weights w,
    with P(w) = w / (e^w - 1) and P(0) = 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = w / np.expm1(w)
    small = np.abs(w) < 1e-8
    if small.any():
        b[small] = 1.0 - 0.5 * w[small]
    return b + w, b


def _outflow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out_i = a_i + b_{i-1}: each cell's total outflow weight under no-flux
    ends."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-1] += a
    out[..., 1:] += b
    return out


def _cc_fluxes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chang-Cooper weights for interface weights w along the last axis.

    b = P(w) = w / (e^w - 1) with P(0) = 1, and a = P(w) + w = P(-w).  The
    flux through interface i+1/2 is a_i*rho_i - b_i*rho_{i+1} in units of
    sigma2/h; it vanishes identically on cell ratios rho_{i+1}/rho_i =
    e^{w_i}.  out_i = a_i + b_{i-1} is cell i's total outflow weight under
    no-flux ends.
    """
    a, b = _cc_weights(w)
    return a, b, _outflow(a, b)


class GranularSolver:
    """Explicit finite-volume integrator for the overdamped equation.

    Parameters
    ----------
    model : ModelConfig
    state : DensityGrid1D, or a sequence of them
        Normalized initial density.  A sequence is a stack of independent
        runs on one grid and one dt: the step advances all rows at once,
        each with its own mean, mass and positivity checks, and
        `granular_run` gives one log per row.  A one-element sequence
        steps on the single-run layout, bit for bit.  `state` and `mean()`
        serve single runs; `states` serves both.
    dt : float or None
        Time step.  None picks `0.5 * admissible_dt(worst_case=True)`.
    scheme : "chang-cooper" or "upwind"

    A mean m in [x_lo, x_hi] gives interface weights |w_i| <= W_i =
    |w_pot,i| + |c_mean|*(x_hi - x_lo).  `covering_dt` is a dt admissible
    for every such mean: the diffusion-drift bound is monotone in max|w|,
    and since P(w) = w/(e^w - 1) is decreasing, every outflow weight
    P(-w_i) + P(w_{i-1}) is at most P(-W_i) + P(-W_{i-1}).  The default
    dt stays within it.  While dt <= covering_dt (`cfl_proven`) the step
    checks only that each mean lies in [x_lo, x_hi] (a mean divides by
    the initial mass, which may drift within its tolerance); a larger
    user dt, or a mean outside that interval, gets the admissible-dt
    check at the present means on every step, with `CflError` if it
    fails.
    """

    def __init__(self, model: ModelConfig,
                 state: DensityGrid1D | Sequence[DensityGrid1D],
                 dt: float | None = None, scheme: str = "chang-cooper"):
        if scheme not in ("chang-cooper", "upwind"):
            raise PdeError("unknown scheme %r" % (scheme,))
        self._stacked = not isinstance(state, DensityGrid1D)
        states = list(state) if self._stacked else [state]
        if not states:
            raise PdeError("need at least one initial density")
        first = states[0]
        if not all(s.same_grid(first) for s in states):
            raise PdeError("stacked densities must share one grid")
        if not all(s.is_normalized() for s in states):
            raise PdeError("initial density must be normalized")
        self.model = model
        self.scheme = scheme
        self.x_lo, self.x_hi, self.n = first.x_lo, first.x_hi, first.n
        self.dx = first.dx
        x = first.centers
        self._x = x
        rho = np.array([s.values for s in states])
        self._rho = rho if len(states) > 1 else rho[0]
        # per-row quantities are scalars for one row and (R, 1) columns for
        # more, so one step body broadcasts over both
        wide = self._rho.ndim == 2
        self._xm = x[:, None] if wide else x
        self._all = np.all if wide else bool
        boundary = float(np.max(self._rho[..., [0, -1]])) * self.dx
        if boundary > 1e-10:
            warnings.warn("boundary cells carry mass %.2e; domain may be "
                          "too small" % boundary)
        # interface quantities: w = -(E(x_{i+1}) - E(x_i)) / sigma2 splits
        # into a potential part and a mean-dependent part
        v = model.potential.value(x)
        s2 = model.sigma2
        self._w_pot = -np.diff(v) / s2
        self._x_if = 0.5 * (x[:-1] + x[1:])
        self._c_mean = 2.0 * model.theta * self.dx / s2
        # W_i, the bound on |w_i| over all means in [x_lo, x_hi]
        self._w_bound = (np.abs(self._w_pot)
                         + abs(self._c_mean) * (self.x_hi - self.x_lo))
        self._mass0 = self._rho.sum(axis=-1, keepdims=wide) * self.dx
        self._mass_prev = self._mass0
        self._mass_tol = 1e-12 * np.maximum(1.0, self._mass0)
        self.time = 0.0
        self.steps = 0
        self.dt = float(dt) if dt is not None else 0.5 * self.admissible_dt(
            worst_case=True)
        if self.dt <= 0:
            raise PdeError("dt must be positive")
        self.covering_dt = self._covering_dt()
        self.cfl_proven = self.dt <= self.covering_dt

    @property
    def state(self) -> DensityGrid1D:
        if self._stacked:
            raise PdeError("a stacked solver holds one state per row; "
                           "use states")
        return DensityGrid1D(self.x_lo, self.x_hi, self.n, self._rho.copy())

    @property
    def states(self) -> list[DensityGrid1D]:
        rows = self._rho if self._rho.ndim == 2 else self._rho[None]
        return [DensityGrid1D(self.x_lo, self.x_hi, self.n, r) for r in rows]

    def _means(self):
        return self._rho @ self._xm * self.dx / self._mass0

    def mean(self) -> float:
        if self._stacked:
            raise PdeError("a stacked solver has one mean per row")
        return float(self._means())

    def _interface_w(self, m) -> np.ndarray:
        return self._w_pot + self._c_mean * (m - self._x_if)

    def _admissible_for_w(self, w: np.ndarray
                          ) -> tuple[float, np.ndarray, np.ndarray]:
        """Admissible dt for interface weights w (the smallest over the
        rows of a stack), and the Chang-Cooper weights (a, b) behind it."""
        s2 = self.model.sigma2
        # dx * max|drift| equals s2 * max|w|, so the diffusion-drift CFL
        # bound dx^2/(2*s2 + dx*max|drift|) reads s2*(2 + max|w|) below
        wmax = float(np.max(np.abs(w)))
        formula = self.dx ** 2 / (s2 * (2.0 + wmax))
        # sharp positivity bound: per-cell sum of outflow weights
        a, b, out = _cc_fluxes(w)
        coeff = float(np.max(out))
        return min(formula, self.dx ** 2 / (s2 * coeff)), a, b

    def _covering_dt(self) -> float:
        """Admissible dt for every mean in [x_lo, x_hi], from the bounds
        |w_i| <= W_i, P(-w_i) <= P(-W_i) and P(w_i) <= P(-W_i)."""
        s2 = self.model.sigma2
        formula = self.dx ** 2 / (s2 * (2.0 + float(np.max(self._w_bound))))
        p = _cc_weights(-self._w_bound)[1]
        coeff = float(np.max(_outflow(p, p)))
        return min(formula, self.dx ** 2 / (s2 * coeff))

    def admissible_dt(self, worst_case: bool = False) -> float:
        """Largest stable dt at the present means (the smallest over the
        rows of a stack): min of the diffusion-drift CFL bound
        dx^2/(2*sigma2 + dx*max|drift|) and the positivity bound.

        worst_case=True evaluates the same rule at the weights W_i >= 0
        (see the class docstring).  Its diffusion-drift term covers every
        mean in [x_lo, x_hi]; its positivity term does not, since it takes
        b_{i-1} = P(W_{i-1}) where the cover needs P(-W_{i-1}) = P(W_{i-1})
        + W_{i-1}.  Each P(-W_j) is already one term of this rule's
        outflow weights, so the covering coefficient is at most twice this
        one, and half of this dt, the default, stays within `covering_dt`.
        """
        if worst_case:
            return self._admissible_for_w(self._w_bound)[0]
        return self._admissible_for_w(self._interface_w(self._means()))[0]

    def step(self) -> None:
        rho = self._rho
        s2 = self.model.sigma2
        m = self._means()
        w = self._interface_w(m)
        if self.cfl_proven and self._all((m >= self.x_lo)
                                         & (m <= self.x_hi)):
            a, b = _cc_weights(w)
        else:
            adm, a, b = self._admissible_for_w(w)
            if self.dt > adm * (1.0 + 1e-9):
                raise CflError("dt=%.6g unstable; admissible dt <= %.6g"
                               % (self.dt, adm))
        # fluxes through all n + 1 faces; the two boundary faces carry none
        flux = np.zeros(rho.shape[:-1] + (self.n + 1,))
        if self.scheme == "chang-cooper":
            flux[..., 1:-1] = (s2 / self.dx) * (a * rho[..., :-1]
                                                - b * rho[..., 1:])
        else:
            drift = s2 * w / self.dx
            flux[..., 1:-1] = (np.maximum(drift, 0.0) * rho[..., :-1]
                               + np.minimum(drift, 0.0) * rho[..., 1:]
                               + (s2 / self.dx) * (rho[..., :-1]
                                                   - rho[..., 1:]))
        rho += (self.dt / self.dx) * (flux[..., :-1] - flux[..., 1:])
        if rho.min() < 0.0:
            if np.any(rho.min(axis=-1) < -1e-13 * rho.max(axis=-1)):
                raise PdeError("positivity lost at t=%.6g" % self.time)
            np.maximum(rho, 0.0, out=rho)
        mass = rho.sum(axis=-1, keepdims=rho.ndim == 2) * self.dx
        moved = abs(mass - self._mass_prev)
        if not self._all(moved <= self._mass_tol):
            worst = np.ravel(mass)[np.argmax(np.ravel(moved))]
            raise PdeError("mass drifted to %.17g at t=%.6g"
                           % (worst, self.time))
        self._mass_prev = mass
        self.time += self.dt
        self.steps += 1


# Sampled diagnostics of both solvers: F is the free energy (kinetic free
# energy for the phase-space solver), H_loc = H(rho | Gamma(rho)), Fisher =
# I(rho | Gamma(rho)) (velocity direction only in the kinetic case), W2_ref
# and TV_ref compare against an optional fixed reference (nan if absent).
_COLUMNS = ("t", "mean", "var", "F", "H_loc", "Fisher", "W2_ref", "TV_ref")


def _check_monotone(f_new: float, f_prev: float, tol_scale: float,
                    t: float) -> None:
    if f_new > f_prev + tol_scale * (1.0 + abs(f_new)):
        raise PdeError("free energy increased from %.12g to %.12g at "
                       "t=%.6g" % (f_prev, f_new, t))


def granular_run(solver: GranularSolver, T: float,
                 record_every: int | None = None,
                 reference: DensityGrid1D | None = None
                 ) -> TrajectoryLog | list[TrajectoryLog]:
    """Advance to time T, sampling diagnostics every `record_every` steps.

    A solver built from one density gives one log; a solver built from a
    sequence gives one log per row, in order, all against `reference`.
    Each log's free-energy column must be nonincreasing within
    1e-8 * (1 + |F|) per sample, otherwise the run aborts.
    """
    if T <= 0:
        raise PdeError("T must be positive")
    logs = [TrajectoryLog(_COLUMNS) for _ in solver.states]

    def sample() -> None:
        for log, rho in zip(logs, solver.states):
            gamma = local_equilibrium(solver.model, rho)
            f_val = free_energy(solver.model, rho)
            if log.rows:
                _check_monotone(f_val, log.rows[-1][3], 1e-8, solver.time)
            w2 = tv = np.nan
            if reference is not None:
                w2 = wasserstein2(rho, reference)
                tv = total_variation(rho, reference)
            log.append(solver.time, rho.mean(), rho.variance(), f_val,
                       relative_entropy(rho, gamma),
                       fisher_information(rho, gamma), w2, tv)

    sampled_run(solver.step, sample, solver.dt, T, record_every)
    return logs if solver._stacked else logs[0]


# ---- kinetic solver ----------------------------------------------------------


class VfpSolver:
    """Strang-split integrator for the kinetic equation.

    Position advection is done in Fourier space (an exact phase shift per
    velocity row, so the sub-step is non-dissipative and the domain wraps
    around in x; keep the support away from the x boundary).  The whole
    velocity operator -- force, friction and diffusion together -- is one
    implicit exponential-fitting solve per column, which is unconditionally
    stable, keeps the density nonnegative, and leaves the discretized
    Gaussian in v exactly stationary.  On top of that only the splitting
    error remains, so the kinetic free energy decays cleanly.

    dt=None picks half the smaller of dx/max|v| and dv/max|force| over all
    means in the domain, an accuracy choice; `step` enforces only the
    transport bound dt <= dx/max|v|, with `CflError`.
    """

    def __init__(self, model: ModelConfig, state: PhaseGrid2D,
                 dt: float | None = None):
        if not abs(state.mass() - 1.0) <= 1e-8:
            raise PdeError("initial density must be normalized")
        self.model = model
        self.grid = state
        self._rho = state.values.copy()
        self._rho.setflags(write=True)
        self._x = state.x_centers
        self._v = state.v_centers
        self._vp = self.model.potential.grad(self._x)
        # the x advection wraps around, so mass touching the x boundary
        # reenters on the other side; the v boundary is a hard wall
        edge = max(float(self._rho[0].max()), float(self._rho[-1].max()))
        if edge * state.da > 1e-10:
            warnings.warn("x-boundary cells carry density %.2e; spectral "
                          "transport wraps around, enlarge the domain"
                          % edge)
        self._mass0 = float(self._rho.sum() * state.da)
        self._mass_prev = self._mass0
        self.time = 0.0
        self.steps = 0
        vmax = float(np.max(np.abs(self._v)))
        self._dt_transport = state.dx / vmax if vmax > 0 else np.inf
        if dt is None:
            fmax = float(np.max(np.abs(self._vp))) + 2.0 * abs(
                model.theta) * (state.x_hi - state.x_lo)
            dt = 0.5 * min(self._dt_transport,
                           state.dv / fmax if fmax > 0 else np.inf)
        self.dt = float(dt)
        if self.dt <= 0:
            raise PdeError("dt must be positive")
        # phase factors advecting each v row by v * dt/2 in x
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.grid.n_x, d=self.grid.dx)
        self._shift_half = np.exp(-1j * np.outer(kx, self._v)
                                  * (0.5 * self.dt))

    def _cc_v_solve(self, force: np.ndarray) -> None:
        # implicit Euler for d/dt rho = d/dv ((v + force) rho + sigma2 d/dv rho)
        # with Chang-Cooper fluxes.  The x columns do not couple, so the
        # whole grid is one tridiagonal system in row-major order whose
        # couplings across column ends are zero.
        s2 = self.model.sigma2
        dv = self.grid.dv
        v_if = 0.5 * (self._v[:-1] + self._v[1:])
        w = -(v_if[None, :] + force[:, None]) * dv / s2     # (n_x, n_v-1)
        a, b, out = _cc_fluxes(w)
        kk = s2 * self.dt / dv ** 2
        band = np.zeros((3,) + self._rho.shape)
        band[0, :, 1:] = -kk * b         # gain from above
        band[1] = 1.0 + kk * out
        band[2, :, :-1] = -kk * a        # gain from below
        self._rho = solve_banded((1, 1), band.reshape(3, -1),
                                 self._rho.ravel()).reshape(self._rho.shape)

    @property
    def state(self) -> PhaseGrid2D:
        g = self.grid
        return PhaseGrid2D(g.x_lo, g.x_hi, g.n_x, g.v_lo, g.v_hi, g.n_v,
                           np.maximum(self._rho, 0.0))

    def x_mean(self) -> float:
        weights = self._rho.sum(axis=1) * self.grid.da
        return float(np.dot(self._x, weights) / weights.sum())

    def _transport_x_half(self) -> None:
        spec = np.fft.rfft(self._rho, axis=0)
        spec *= self._shift_half
        rho = np.fft.irfft(spec, n=self.grid.n_x, axis=0)
        # zero the sign-symmetric roundoff carpet so far tails stay clean;
        # the cut is far below any physically meaningful density
        rho[np.abs(rho) < 1e-13 * rho.max()] = 0.0
        self._rho = rho

    def step(self) -> None:
        if self.dt > self._dt_transport * (1.0 + 1e-9):
            raise CflError("dt=%.6g violates transport CFL; admissible "
                           "dt <= %.6g" % (self.dt, self._dt_transport))
        force = self._vp + 2.0 * self.model.theta * (self._x - self.x_mean())
        self._transport_x_half()
        self._cc_v_solve(force)
        self._transport_x_half()
        rho = self._rho
        # The spectral round trips leave sign-symmetric roundoff noise in
        # the tails; it stays bounded because nothing rectifies it, so the
        # raw array is kept as is and only `state` copies are clipped.
        # Anything past the guard below signals an actual instability.
        low = float(rho.min())
        if low < -1e-8 * float(rho.max()):
            raise PdeError("positivity lost at t=%.6g" % self.time)
        mass = float(rho.sum() * self.grid.da)
        if not abs(mass - self._mass_prev) <= 1e-12 * max(1.0, self._mass0):
            raise PdeError("mass drifted to %.17g at t=%.6g"
                           % (mass, self.time))
        self._mass_prev = mass
        self.time += self.dt
        self.steps += 1

    def stationary_flux_residual(self) -> float:
        """Max friction-diffusion flux across v interfaces on the frozen
        local equilibrium, relative to its peak.  The exponential-fitting
        weights make this vanish to roundoff on the discretized Gaussian."""
        gamma = local_equilibrium_kinetic(self.model, self.state)
        g = gamma.values
        v_if = 0.5 * (self._v[:-1] + self._v[1:])
        a, b, _ = _cc_fluxes(-v_if * self.grid.dv / self.model.sigma2)
        flux = a * g[:, :-1] - b * g[:, 1:]
        return float(np.max(np.abs(flux)) / np.max(g))


def _relative_entropy_2d(mu: PhaseGrid2D, nu: PhaseGrid2D) -> float:
    a = mu.values
    b = nu.values
    pos = a > _FLOOR
    if np.any(pos & (b < _FLOOR)):
        return np.inf
    am = a[pos]
    return float(np.sum(am * (np.log(am) - np.log(b[pos]))) * mu.da)


def _fisher_v(mu: PhaseGrid2D, nu: PhaseGrid2D) -> float:
    """Velocity-direction Fisher information of mu relative to nu.

    Central differences of log(mu/nu) along v; cells whose stencil dips
    below the density floor are excluded (they sit in negligible tails).
    The two edge columns are excluded for the same reason.
    """
    a = mu.values
    b = nu.values
    ok = (a > _FLOOR) & (b > _FLOOR)
    h = np.zeros_like(a)
    h[ok] = np.log(a[ok]) - np.log(b[ok])
    valid = ok[:, 1:-1] & ok[:, :-2] & ok[:, 2:]
    dh = (h[:, 2:] - h[:, :-2]) / (2.0 * mu.dv)
    core = a[:, 1:-1]
    return float(np.sum(np.where(valid, core * dh ** 2, 0.0)) * mu.da)


def vfp_run(solver: VfpSolver, T: float, record_every: int | None = None,
            reference: DensityGrid1D | None = None) -> TrajectoryLog:
    """Advance the kinetic solver to T with periodic sampling.

    Logged F is the kinetic free energy; H_loc and Fisher are taken
    relative to the frozen local equilibrium in phase space; W2/TV compare
    the x-marginal against `reference`.  F must be nonincreasing within
    1e-6 * (1 + |F|) per sample (splitting-error tolerance).
    """
    if T <= 0:
        raise PdeError("T must be positive")
    log = TrajectoryLog(_COLUMNS)

    def sample() -> None:
        state = solver.state
        gamma = local_equilibrium_kinetic(solver.model, state)
        f_val = kinetic_free_energy(solver.model, state)
        if log.rows:
            _check_monotone(f_val, log.rows[-1][3], 1e-6, solver.time)
        xm = state.x_marginal()
        w2 = tv = np.nan
        if reference is not None:
            w2 = wasserstein2(xm, reference)
            tv = total_variation(xm, reference)
        log.append(solver.time, xm.mean(), xm.variance(), f_val,
                   _relative_entropy_2d(state, gamma),
                   _fisher_v(state, gamma), w2, tv)

    sampled_run(solver.step, sample, solver.dt, T, record_every)
    return log
