"""Structure-preserving finite-volume solvers.

Overdamped equation on the line:

    d/dt rho = d/dx ( sigma2 * d/dx rho + (V'(x) + 2*theta*(x - m(rho))) rho )

and its kinetic counterpart on (x, v):

    d/dt rho + v d/dx rho = d/dv ( sigma2 * d/dv rho + (v + E'(x)) rho ).

Both solvers share one exponential-fitting flux (Chang-Cooper weights)
and one backward-Euler solve of it (`_cc_solve`): with frozen mean the
discretized Gibbs density is exactly stationary, every cell stays
nonnegative for any dt, and no-flux boundaries conserve mass to machine
precision.  The overdamped step is that solve along x; its one dt rule is
an accuracy bound, checked when the solver is built.  The kinetic solver
is a Strang splitting: half x-transport, then force, friction and
diffusion in v as the same solve along v, then the other half
x-transport; each sub-step is conservative.  Its default dt is an
accuracy choice; the only bound it enforces is the transport bound
dt <= dx/max|v|.

The mean-field coupling is explicit: every step freezes m(rho) at its
pre-step value, so each step is linear.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .analysis import TrajectoryLog, sampled_run
from .grid import (DensityGrid1D, PhaseGrid2D, fisher_information,
                   free_energy, kinetic_free_energy, local_equilibrium,
                   local_equilibrium_kinetic, relative_entropy,
                   total_variation, wasserstein2)
from .model import ModelConfig


class PdeError(ArithmeticError):
    """Numerical failure inside a solver (stability, mass, positivity)."""


class CflError(PdeError):
    """Time step exceeds the solver's bound."""


# boundary-cell mass past which the domain cuts off part of the density
EDGE_MASS_TOL = 1e-10


def _cc_fluxes(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chang-Cooper weights for interface weights w along the last axis.

    b = P(w) = w / (e^w - 1) with P(0) = 1, and a = P(w) + w = P(-w).  The
    flux through interface i+1/2 is a_i*rho_i - b_i*rho_{i+1} in units of
    sigma2/h; it vanishes identically on cell ratios rho_{i+1}/rho_i =
    e^{w_i}.  out_i = a_i + b_{i-1} is cell i's total outflow weight under
    no-flux ends.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b = w / np.expm1(w)
    small = np.abs(w) < 1e-8
    if small.any():
        b[small] = 1.0 - 0.5 * w[small]
    a = b + w
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-1] += a
    out[..., 1:] += b
    return a, b, out


def _cc_solve(rho: np.ndarray, w: np.ndarray, kk: float) -> np.ndarray:
    """One backward-Euler step of the Chang-Cooper operator along the last
    axis: solve (1 + kk*out_i) r_i - kk*a_{i-1} r_{i-1} - kk*b_i r_{i+1} =
    rho_i for r, with interface weights w (one entry fewer than rho along
    that axis) and kk = sigma2*dt/h^2.

    All rows form one tridiagonal system whose entries across row ends are
    zero, solved by one LAPACK dgtsv call.  Each column of the matrix sums
    to 1 and is diagonally dominant, so elimination never pivots: rows stay
    independent bit for bit, and for every kk the step keeps mass, keeps
    every cell nonnegative and leaves the densities with cell ratios
    e^{w_i} fixed.
    """
    a, b, out = _cc_fluxes(w)
    upper = np.zeros(rho.shape)
    upper[..., 1:] = -kk * b         # gain from the cell above
    lower = np.zeros(rho.shape)
    lower[..., :-1] = -kk * a        # gain from the cell below
    *_, new, info = dgtsv(lower.ravel()[:-1], (1.0 + kk * out).ravel(),
                          upper.ravel()[1:], rho.ravel())
    if info:
        raise PdeError("singular Chang-Cooper system (info=%d)" % info)
    return new.reshape(rho.shape)


class GranularSolver:
    """Linearly implicit finite-volume integrator for the overdamped
    equation: each step freezes the mean and takes one backward-Euler step
    of the Chang-Cooper operator (`_cc_solve`).

    Parameters
    ----------
    model : ModelConfig
    state : DensityGrid1D, or a sequence of them
        Normalized initial density.  A sequence is a stack of independent
        runs on one grid and one dt: the step advances all rows at once,
        each with its own mean, mass and positivity checks, and
        `granular_run` gives one log per row.  Every run is a row of one
        (R, n) array; a single density is a one-row stack.  `state` and
        `mean()` serve single runs; `states` serves both.
    dt : float or None
        Time step.  None picks `max_dt`; a larger dt raises `CflError`.

    The step keeps mass and positivity for every dt and every mean, so dt
    is bounded for accuracy only: `max_dt` = 8*dx^2/(sigma2*(2 + max W_i)),
    eight times the explicit diffusion-drift bound at the interface weight
    bounds |w_i| <= W_i = |w_pot,i| + |c_mean|*(x_hi - x_lo) that hold for
    every mean in [x_lo, x_hi].  Eight is the largest power of two at which
    the mean-decay, mean-ODE and refinement tests keep their tolerances.
    """

    def __init__(self, model: ModelConfig,
                 state: DensityGrid1D | Sequence[DensityGrid1D],
                 dt: float | None = None):
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
        self.x_lo, self.x_hi, self.n = first.x_lo, first.x_hi, first.n
        self.dx = first.dx
        x = first.centers
        self._rho = np.array([s.values for s in states])
        self._x_col = x[:, None]
        boundary = float(np.max(self._rho[:, [0, -1]])) * self.dx
        if boundary > EDGE_MASS_TOL:
            warnings.warn("boundary cells carry mass %.2e; domain may be "
                          "too small" % boundary)
        # interface quantities: w = -(E(x_{i+1}) - E(x_i)) / sigma2 splits
        # into a potential part and a mean-dependent part
        v = model.potential.value(x)
        s2 = model.sigma2
        self._w_pot = -np.diff(v) / s2
        self._x_if = 0.5 * (x[:-1] + x[1:])
        self._c_mean = 2.0 * model.theta * self.dx / s2
        # per-row quantities are (R, 1) columns
        self._mass0 = self._rho.sum(axis=1, keepdims=True) * self.dx
        self._mass_prev = self._mass0
        self._mass_tol = 1e-12 * np.maximum(1.0, self._mass0)
        self.time = 0.0
        self.steps = 0
        w_max = (float(np.max(np.abs(self._w_pot)))
                 + abs(self._c_mean) * (self.x_hi - self.x_lo))
        self.max_dt = 8.0 * self.dx ** 2 / (s2 * (2.0 + w_max))
        self.dt = float(dt) if dt is not None else self.max_dt
        if not self.dt > 0:
            raise PdeError("dt must be positive")
        if self.dt > self.max_dt * (1.0 + 1e-9):
            raise CflError("dt=%.6g above the accuracy bound; admissible "
                           "dt <= %.6g" % (self.dt, self.max_dt))

    @property
    def state(self) -> DensityGrid1D:
        if self._stacked:
            raise PdeError("a stacked solver holds one state per row; "
                           "use states")
        return self.states[0]

    @property
    def states(self) -> list[DensityGrid1D]:
        return [DensityGrid1D(self.x_lo, self.x_hi, self.n, r)
                for r in self._rho]

    def _means(self) -> np.ndarray:
        return self._rho @ self._x_col * self.dx / self._mass0

    def mean(self) -> float:
        if self._stacked:
            raise PdeError("a stacked solver has one mean per row")
        return float(self._means()[0, 0])

    def _interface_w(self, m) -> np.ndarray:
        return self._w_pot + self._c_mean * (m - self._x_if)

    def step(self) -> None:
        kk = self.model.sigma2 * self.dt / self.dx ** 2
        rho = _cc_solve(self._rho, self._interface_w(self._means()), kk)
        if rho.min() < 0.0:
            raise PdeError("positivity lost at t=%.6g" % self.time)
        mass = rho.sum(axis=1, keepdims=True) * self.dx
        moved = abs(mass - self._mass_prev)
        if not (moved <= self._mass_tol).all():
            worst = mass.flat[np.argmax(moved)]
            raise PdeError("mass drifted to %.17g at t=%.6g"
                           % (worst, self.time))
        self._rho = rho
        self._mass_prev = mass
        self.time += self.dt
        self.steps += 1


# Sampled diagnostics of both solvers: mean and var are the x-marginal's,
# F is the free energy (kinetic free energy for the phase-space solver),
# H_loc = H(rho | Gamma(rho)), Fisher = I(rho | Gamma(rho)) along the last
# axis (x on a line, v in phase space), W2_ref and TV_ref compare the
# x-marginal against an optional fixed reference (nan if absent).
_COLUMNS = ("t", "mean", "var", "F", "H_loc", "Fisher", "W2_ref", "TV_ref")


def _log_row(log: TrajectoryLog, t: float, rho: DensityGrid1D | PhaseGrid2D,
             gamma: DensityGrid1D | PhaseGrid2D, f_val: float,
             x_marginal: DensityGrid1D, reference: DensityGrid1D | None,
             tol: float) -> None:
    """Append one `_COLUMNS` row for state rho with local equilibrium gamma
    and free energy f_val, after checking that F rose by at most
    tol * (1 + |F|) since the previous row."""
    if log.rows:
        f_prev = log.rows[-1][3]
        if f_val > f_prev + tol * (1.0 + abs(f_val)):
            raise PdeError("free energy increased from %.12g to %.12g at "
                           "t=%.6g" % (f_prev, f_val, t))
    w2 = tv = np.nan
    if reference is not None:
        w2 = wasserstein2(x_marginal, reference)
        tv = total_variation(x_marginal, reference)
    log.append(t, x_marginal.mean(), x_marginal.variance(), f_val,
               relative_entropy(rho, gamma), fisher_information(rho, gamma),
               w2, tv)


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
    if not T > 0:
        raise PdeError("T must be positive")
    logs = [TrajectoryLog(_COLUMNS) for _ in solver.states]

    def sample() -> None:
        for log, rho in zip(logs, solver.states):
            _log_row(log, solver.time, rho,
                     local_equilibrium(solver.model, rho),
                     free_energy(solver.model, rho), rho, reference, 1e-8)

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
    means in the domain, an accuracy choice; the constructor enforces only
    the transport bound dt <= dx/max|v|, with `CflError`.
    """

    def __init__(self, model: ModelConfig, state: PhaseGrid2D,
                 dt: float | None = None):
        if not state.is_normalized():
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
        if edge * state.da > EDGE_MASS_TOL:
            warnings.warn("x-boundary cells carry density %.2e; spectral "
                          "transport wraps around, enlarge the domain"
                          % edge)
        self._mass0 = float(self._rho.sum() * state.da)
        self._mass_prev = self._mass0
        self.time = 0.0
        self.steps = 0
        vmax = float(np.max(np.abs(self._v)))
        dt_transport = state.dx / vmax if vmax > 0 else np.inf
        if dt is None:
            fmax = float(np.max(np.abs(self._vp))) + 2.0 * abs(
                model.theta) * (state.x_hi - state.x_lo)
            dt = 0.5 * min(dt_transport,
                           state.dv / fmax if fmax > 0 else np.inf)
        self.dt = float(dt)
        if not self.dt > 0:
            raise PdeError("dt must be positive")
        if self.dt > dt_transport * (1.0 + 1e-9):
            raise CflError("dt=%.6g violates transport CFL; admissible "
                           "dt <= %.6g" % (self.dt, dt_transport))
        # phase factors advecting each v row by v * dt/2 in x
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.grid.n_x, d=self.grid.dx)
        self._shift_half = np.exp(-1j * np.outer(kx, self._v)
                                  * (0.5 * self.dt))

    def _cc_v_solve(self, force: np.ndarray) -> None:
        # implicit Euler for d/dt rho = d/dv ((v + force) rho + sigma2 d/dv rho)
        # with Chang-Cooper fluxes; the x columns do not couple, so one
        # `_cc_solve` takes them all.
        s2 = self.model.sigma2
        dv = self.grid.dv
        v_if = 0.5 * (self._v[:-1] + self._v[1:])
        w = -(v_if[None, :] + force[:, None]) * dv / s2     # (n_x, n_v-1)
        self._rho = _cc_solve(self._rho, w, s2 * self.dt / dv ** 2)

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


def vfp_run(solver: VfpSolver, T: float, record_every: int | None = None,
            reference: DensityGrid1D | None = None) -> TrajectoryLog:
    """Advance the kinetic solver to T with periodic sampling.

    Logged F is the kinetic free energy; H_loc and Fisher are taken
    relative to the frozen local equilibrium in phase space; W2/TV compare
    the x-marginal against `reference`.  F must be nonincreasing within
    1e-6 * (1 + |F|) per sample (splitting-error tolerance).
    """
    if not T > 0:
        raise PdeError("T must be positive")
    log = TrajectoryLog(_COLUMNS)

    def sample() -> None:
        state = solver.state
        _log_row(log, solver.time, state,
                 local_equilibrium_kinetic(solver.model, state),
                 kinetic_free_energy(solver.model, state),
                 state.x_marginal(), reference, 1e-6)

    sampled_run(solver.step, sample, solver.dt, T, record_every)
    return log
