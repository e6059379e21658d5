"""Structure-preserving finite-volume solvers.

Overdamped equation on the line:

    d/dt rho = d/dx ( sigma2 * d/dx rho + (V'(x) + 2*theta*(x - m(rho))) rho )

and its kinetic counterpart on (x, v):

    d/dt rho + v d/dx rho = d/dv ( sigma2 * d/dv rho + (v + E'(x)) rho ).

The overdamped solver uses an exponential-fitting flux (Chang-Cooper
weights): with frozen mean the discretized Gibbs density is exactly
stationary, every cell stays nonnegative under the CFL bound, and no-flux
boundaries conserve mass to machine precision.  A plain upwind scheme is
kept as a cross-check option.  The kinetic solver is a Strang splitting
(half x-transport, half force transport in v, full implicit
friction-diffusion in v, then the halves in reverse), each sub-step
individually conservative.

The mean-field coupling is explicit: every step freezes m(rho) at its
pre-step value, so each step is linear.
"""

from __future__ import annotations

import warnings

import numpy as np

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


def _p_weights(w: np.ndarray) -> np.ndarray:
    """P(w) = w / (e^w - 1) with P(0) = 1; P(-w) = P(w) + w.

    These are the exponential-fitting flux weights: they make the flux
    vanish identically on cell ratios rho_{i+1}/rho_i = e^w.
    """
    small = np.abs(w) < 1e-8
    with np.errstate(over="ignore"):
        den = np.expm1(w)
    safe = np.where(small, 1.0, den)
    return np.where(small, 1.0 - 0.5 * w, w / safe)


class GranularSolver:
    """Explicit finite-volume integrator for the overdamped equation.

    Parameters
    ----------
    model : ModelConfig
    state : DensityGrid1D, normalized initial density
    dt : float or None
        Time step.  None picks half the worst-case CFL bound (worst case
        over all mean positions inside the domain hull).
    scheme : "chang-cooper" or "upwind"
    """

    def __init__(self, model: ModelConfig, state: DensityGrid1D,
                 dt: float | None = None, scheme: str = "chang-cooper"):
        if scheme not in ("chang-cooper", "upwind"):
            raise PdeError("unknown scheme %r" % (scheme,))
        if not state.is_normalized():
            raise PdeError("initial density must be normalized")
        self.model = model
        self.scheme = scheme
        self.x_lo, self.x_hi, self.n = state.x_lo, state.x_hi, state.n
        self.dx = state.dx
        x = state.centers
        self._x = x
        self._rho = state.values.copy()
        self._rho.setflags(write=True)
        boundary = max(self._rho[0], self._rho[-1]) * self.dx
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
        self._mass0 = float(self._rho.sum() * self.dx)
        self._mass_prev = self._mass0
        self.time = 0.0
        self.steps = 0
        self.dt = float(dt) if dt is not None else 0.5 * self.admissible_dt(
            worst_case=True)
        if self.dt <= 0:
            raise PdeError("dt must be positive")

    @property
    def state(self) -> DensityGrid1D:
        return DensityGrid1D(self.x_lo, self.x_hi, self.n, self._rho.copy())

    def mean(self) -> float:
        return float(np.dot(self._x, self._rho) * self.dx / self._mass0)

    def _interface_w(self, m: float) -> np.ndarray:
        return self._w_pot + self._c_mean * (m - self._x_if)

    def _admissible_for_w(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """Admissible dt for interface weights w, and the P(w) behind it."""
        s2 = self.model.sigma2
        # dx * max|drift| equals s2 * max|w|, so the diffusion-drift CFL
        # bound dx^2/(2*s2 + dx*max|drift|) reads s2*(2 + max|w|) below
        wmax = float(np.max(np.abs(w)))
        formula = self.dx ** 2 / (s2 * (2.0 + wmax))
        # sharp positivity bound: per-cell sum of outflow weights
        p = _p_weights(w)
        pm = p + w
        coeff = max(float(pm[0]), float(p[-1]))
        if len(p) > 1:
            coeff = max(coeff, float(np.max(p[:-1] + pm[1:])))
        return min(formula, self.dx ** 2 / (s2 * coeff)), p

    def admissible_dt(self, worst_case: bool = False) -> float:
        """Largest stable dt: min of the diffusion-drift CFL bound
        dx^2/(2*sigma2 + dx*max|drift|) and the positivity bound."""
        if worst_case:
            span = self.x_hi - self.x_lo
            w = np.abs(self._w_pot) + abs(self._c_mean) * span
            return self._admissible_for_w(w)[0]
        return self._admissible_for_w(self._interface_w(self.mean()))[0]

    def step(self) -> None:
        rho = self._rho
        s2 = self.model.sigma2
        m = self.mean()
        w = self._interface_w(m)
        adm, p = self._admissible_for_w(w)
        if self.dt > adm * (1.0 + 1e-9):
            raise CflError("dt=%.6g unstable; admissible dt <= %.6g"
                           % (self.dt, adm))
        if self.scheme == "chang-cooper":
            flux = (s2 / self.dx) * ((p + w) * rho[:-1] - p * rho[1:])
        else:
            b = s2 * w / self.dx
            flux = (np.maximum(b, 0.0) * rho[:-1] + np.minimum(b, 0.0)
                    * rho[1:] + (s2 / self.dx) * (rho[:-1] - rho[1:]))
        r = self.dt / self.dx
        rho[1:-1] += r * (flux[:-1] - flux[1:])
        rho[0] -= r * flux[0]
        rho[-1] += r * flux[-1]
        low = float(rho.min())
        if low < 0.0:
            if low < -1e-13 * float(rho.max()):
                raise PdeError("positivity lost at t=%.6g" % self.time)
            np.maximum(rho, 0.0, out=rho)
        mass = float(rho.sum() * self.dx)
        if not abs(mass - self._mass_prev) <= 1e-12 * max(1.0, self._mass0):
            raise PdeError("mass drifted to %.17g at t=%.6g"
                           % (mass, self.time))
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
                 reference: DensityGrid1D | None = None) -> TrajectoryLog:
    """Advance to time T, sampling diagnostics every `record_every` steps.

    The log's free-energy column must be nonincreasing within
    1e-8 * (1 + |F|) per sample, otherwise the run aborts.
    """
    if T <= 0:
        raise PdeError("T must be positive")
    f_prev = np.inf

    def sample() -> tuple[float, ...]:
        nonlocal f_prev
        rho = solver.state
        gamma = local_equilibrium(solver.model, rho)
        f_val = free_energy(solver.model, rho)
        _check_monotone(f_val, f_prev, 1e-8, solver.time)
        f_prev = f_val
        w2 = tv = np.nan
        if reference is not None:
            w2 = wasserstein2(rho, reference)
            tv = total_variation(rho, reference)
        return (solver.time, rho.mean(), rho.variance(), f_val,
                relative_entropy(rho, gamma),
                fisher_information(rho, gamma), w2, tv)

    return sampled_run(solver.step, sample, _COLUMNS, solver.dt, T,
                       record_every)


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

    The three enable flags exist for sub-step exactness tests (free
    transport, pure relaxation); production runs keep them all True.  The
    force acts only inside the implicit velocity solve, so it cannot be
    enabled with diffusion off.
    """

    def __init__(self, model: ModelConfig, state: PhaseGrid2D,
                 dt: float | None = None, enable_transport: bool = True,
                 enable_force: bool = True, enable_diffusion: bool = True):
        if enable_force and not enable_diffusion:
            raise PdeError("the force sub-step needs diffusion enabled")
        self.model = model
        self.grid = state
        self._rho = state.values.copy()
        self._rho.setflags(write=True)
        self.enable_transport = enable_transport
        self.enable_force = enable_force
        self.enable_diffusion = enable_diffusion
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
        self.dt = float(dt) if dt is not None else 0.5 * self.admissible_dt(
            worst_case=True)
        if self.dt <= 0:
            raise PdeError("dt must be positive")
        # phase factors advecting each v row by v * dt/2 in x
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.grid.n_x, d=self.grid.dx)
        self._shift_half = np.exp(-1j * np.outer(kx, self._v)
                                  * (0.5 * self.dt))

    def _cc_v_solve(self, force: np.ndarray) -> None:
        # implicit Euler for d/dt rho = d/dv ((v + force) rho + sigma2 d/dv rho)
        # with exponential-fitting interface weights; one tridiagonal system
        # per x column, solved by a Thomas sweep vectorized across columns.
        s2 = self.model.sigma2
        dv = self.grid.dv
        v_if = 0.5 * (self._v[:-1] + self._v[1:])
        drift = v_if[None, :] + force[:, None]          # (n_x, n_v-1)
        w = -drift * dv / s2
        p = _p_weights(w)
        pm = p + w
        kk = s2 * self.dt / dv ** 2
        n_x, n_v = self._rho.shape
        diag = np.ones((n_x, n_v))
        diag[:, :-1] += kk * pm          # outflow through the upper interface
        diag[:, 1:] += kk * p            # outflow through the lower interface
        sup = -kk * p                    # gain from above, row j, j <= n-2
        sub = -kk * pm                   # gain from below, row j+1
        rho = self._rho
        cp = np.empty_like(rho)
        dp = np.empty_like(rho)
        cp[:, 0] = sup[:, 0] / diag[:, 0]
        dp[:, 0] = rho[:, 0] / diag[:, 0]
        for j in range(1, n_v):
            denom = diag[:, j] - sub[:, j - 1] * cp[:, j - 1]
            if j < n_v - 1:
                cp[:, j] = sup[:, j] / denom
            dp[:, j] = (rho[:, j] - sub[:, j - 1] * dp[:, j - 1]) / denom
        rho[:, -1] = dp[:, -1]
        for j in range(n_v - 2, -1, -1):
            rho[:, j] = dp[:, j] - cp[:, j] * rho[:, j + 1]

    @property
    def state(self) -> PhaseGrid2D:
        g = self.grid
        return PhaseGrid2D(g.x_lo, g.x_hi, g.n_x, g.v_lo, g.v_hi, g.n_v,
                           np.maximum(self._rho, 0.0))

    def x_mean(self) -> float:
        weights = self._rho.sum(axis=1) * self.grid.da
        return float(np.dot(self._x, weights) / weights.sum())

    def _force(self, m: float) -> np.ndarray:
        return self._vp + 2.0 * self.model.theta * (self._x - m)

    def admissible_dt(self, worst_case: bool = False) -> float:
        vmax = float(np.max(np.abs(self._v)))
        if worst_case:
            span = self.grid.x_hi - self.grid.x_lo
            fmax = float(np.max(np.abs(self._vp))) + 2.0 * abs(
                self.model.theta) * span
        else:
            fmax = float(np.max(np.abs(self._force(self.x_mean()))))
        dt_x = self.grid.dx / vmax if vmax > 0 else np.inf
        dt_v = self.grid.dv / fmax if fmax > 0 else np.inf
        return min(dt_x, dt_v)

    def _transport_x_half(self) -> None:
        spec = np.fft.rfft(self._rho, axis=0)
        spec *= self._shift_half
        rho = np.fft.irfft(spec, n=self.grid.n_x, axis=0)
        # zero the sign-symmetric roundoff carpet so far tails stay clean;
        # the cut is far below any physically meaningful density
        rho[np.abs(rho) < 1e-13 * rho.max()] = 0.0
        self._rho = rho

    def step(self) -> None:
        m = self.x_mean()
        force = self._force(m)
        vmax = float(np.max(np.abs(self._v)))
        fmax = float(np.max(np.abs(force)))
        if self.dt * vmax > self.grid.dx * (1.0 + 1e-9):
            raise CflError("dt=%.6g violates transport CFL; admissible "
                           "dt <= %.6g" % (self.dt, self.grid.dx / vmax))
        if fmax > 0 and self.dt * fmax > self.grid.dv * (1.0 + 1e-9):
            raise CflError("dt=%.6g violates force CFL; admissible "
                           "dt <= %.6g" % (self.dt, self.grid.dv / fmax))
        if self.enable_transport:
            self._transport_x_half()
        if self.enable_diffusion:
            self._cc_v_solve(force if self.enable_force
                             else np.zeros_like(force))
        if self.enable_transport:
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
        w = -v_if * self.grid.dv / self.model.sigma2
        p = _p_weights(w)
        flux = (p + w) * g[:, :-1] - p * g[:, 1:]
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
    f_prev = np.inf

    def sample() -> tuple[float, ...]:
        nonlocal f_prev
        state = solver.state
        gamma = local_equilibrium_kinetic(solver.model, state)
        f_val = kinetic_free_energy(solver.model, state)
        _check_monotone(f_val, f_prev, 1e-6, solver.time)
        f_prev = f_val
        xm = state.x_marginal()
        w2 = tv = np.nan
        if reference is not None:
            w2 = wasserstein2(xm, reference)
            tv = total_variation(xm, reference)
        return (solver.time, xm.mean(), xm.variance(), f_val,
                _relative_entropy_2d(state, gamma),
                _fisher_v(state, gamma), w2, tv)

    return sampled_run(solver.step, sample, _COLUMNS, solver.dt, T,
                       record_every)
