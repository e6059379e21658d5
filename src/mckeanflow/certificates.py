"""Machine-checkable convergence certificates.

For the quadratic-interaction model this module evaluates explicit
constants controlling the long-time behavior near the outer stationary
density, packages them into a report, and validates every certified
inequality on simulated trajectories before marking the report VALID:

  L           Lipschitz constant of the mean-field force in the measure
              argument (W2 metric)
  lam         curvature defect of the interaction energy
  kappa1      one-sided Lipschitz constant of the frozen force
  eta         uniform log-Sobolev constant of the local equilibria
  alpha_eps   contraction factor of the mean map toward the outer fixed
              point, restricted to means >= epsilon
  eta_bar     constant of the free-energy / dissipation inequality
              F - inf F <= eta_bar * sigma2^2 * I(rho | Gamma(rho))
  q1          regularization constant at unit time
  delta       mean-gap radius where the dissipation inequality is certified
  delta_prime radius of certified exponential stability
  C_rate      prefactor of the certified W2 decay envelope

Certified inequalities are one-sided upper bounds; validation applies
5-10% numerical slack so discretization error cannot flip a true bound.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .analysis import step_count
from .grid import (DensityGrid1D, GridError, equilibrium_for_mean,
                   free_energy, relative_entropy, wasserstein2)
from .meanfield import (SelfConsistency1D, contraction_factor,
                        discrete_fixed_mean, find_fixed_points)
from .model import ModelConfig
from .pde import EDGE_MASS_TOL, GranularSolver, granular_run


class CertificateError(RuntimeError):
    """A certificate constant could not be produced for this model."""


@dataclass(frozen=True)
class CoreConstants:
    L: float
    lam: float
    kappa1: float
    eta: float


def structural_constants(model: ModelConfig) -> tuple[float, float, float]:
    """(L, lam, kappa1) for the quadratic interaction.

    The force differs across measures only through the mean, giving
    L = 2|theta|; the interaction energy's curvature defect is theta; the
    frozen force satisfies a one-sided Lipschitz bound with constant
    kappa1 = 2*max(0, -(inf V'' + 2*theta)).
    """
    th = model.theta
    vpp = model.potential.hess_inf_global()
    return (2.0 * abs(th), th, 2.0 * max(0.0, -(vpp + 2.0 * th)))


def _well_filling(pot, c0: float) -> tuple[float, float]:
    """Split V = U0 + U1 with U0 convex: U0 is V outside [-R, R] and the
    matching parabola with curvature c0 inside, where c0*R = V'(R).

    U1' = V' - c0*x is a polynomial: R is its largest real root >= 0
    (beyond it V' > c0*x), and osc(U1) is read off at 0, at R and at the
    real parts of its roots clipped into [0, R], where U1 takes its
    extremes.  Returns (effective convexity of U0, osc(U1)).
    """
    roots = P.polyroots(P.polysub(P.polyder(pot.coefficients), (0.0, c0)))
    real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
    r = float(np.max(real, initial=0.0))
    xs = np.concatenate(([0.0, r], np.clip(roots.real, 0.0, r)))
    u1 = pot.value(xs) - (pot.value(r) + 0.5 * c0 * (xs ** 2 - r ** 2))
    c_eff = min(c0, pot.hess_inf(r, np.inf))
    return c_eff, float(np.ptp(u1))


def lsi_eta(model: ModelConfig) -> float:
    """Uniform log-Sobolev constant eta of the local-equilibrium family,
    in the form  H(nu | Gamma(rho)) <= eta * I(nu | Gamma(rho)).

    Candidates: the direct convexity bound when inf V'' + 2*theta > 0,
    and bounded perturbations of convexified potentials (well filling
    with curvature c0 swept over a log grid) when V has concave regions.
    The smallest certified eta wins; its Talagrand consequence
    W2^2 <= 4*eta*H is validated in build_certificate.
    """
    pot = model.potential
    th = model.theta
    s2 = model.sigma2
    candidates = []
    vpp = pot.hess_inf_global()
    if vpp + 2.0 * th > 0:
        candidates.append(s2 / (2.0 * (vpp + 2.0 * th)))
    if vpp < 0 and pot.is_even():
        for c0 in np.geomspace(1e-3, 2.0 * (abs(vpp) + 1.0) + 8.0, 25):
            c_eff, osc = _well_filling(pot, float(c0))
            if c_eff + 2.0 * th <= 0:
                continue
            candidates.append(s2 / (2.0 * (c_eff + 2.0 * th))
                              * np.exp(osc / s2))
    if not candidates:
        raise CertificateError("no decomposition with positive convexity "
                               "and bounded oscillation found")
    return float(min(candidates))


def _subcritical(model: ModelConfig) -> SelfConsistency1D:
    sc = SelfConsistency1D(model)
    if sc.mean_map_derivative(0.0) <= 1.0:
        raise CertificateError(
            "supercritical temperature: this certificate needs the "
            "two-well regime; a global variant without the mean "
            "constraint exists but is not implemented")
    return sc


def _eta_bar(model: ModelConfig, eta: float, alpha: float) -> float:
    s2 = model.sigma2
    return float(eta * (s2 + 4.0 * eta * model.theta / (1.0 - alpha) ** 2)
                 / s2 ** 2)


def nonlinear_lsi_eta_bar(model: ModelConfig, epsilon: float) -> float:
    """eta_bar with F - inf F <= eta_bar * sigma2^2 * I normalization.

    Only defined below the critical temperature (the mean map must
    contract toward the outer fixed point on means >= epsilon).
    """
    sc = _subcritical(model)
    return _eta_bar(model, lsi_eta(model), contraction_factor(sc, epsilon))


def q_t(model: ModelConfig, constants: CoreConstants, t: float) -> float:
    """Regularization constant: free-energy gap at time t is at most
    q_t times the squared initial W2 distance to the stationary density.

    q_t = (1 + eta*L + 4*eta*lam/sigma2 + L^2*eta^2/2)
          * (kappa1/(1 - e^{-kappa1*t}) + 2*t*L^2*e^{(2*kappa1+4*L)*t}),

    with the kappa1 -> 0 limit 1/t for the first bracket term.
    """
    if t <= 0:
        raise CertificateError("q_t needs t > 0")
    k1 = constants.kappa1
    big_l = constants.L
    eta = constants.eta
    pref = (1.0 + eta * big_l + 4.0 * eta * constants.lam / model.sigma2
            + 0.5 * (big_l * eta) ** 2)
    if k1 * t < 1e-12:
        head = 1.0 / t
    else:
        head = k1 / -np.expm1(-k1 * t)
    return float(pref * (head + 2.0 * t * big_l ** 2
                         * np.exp((2.0 * k1 + 4.0 * big_l) * t)))


def stability_radius(constants: CoreConstants, eta_bar: float, q1: float,
                     delta: float) -> tuple[float, float]:
    """(delta_prime, C_rate) of the certified decay envelope

        W2^2(rho_t, rho*) <= C_rate * e^{-t/eta_bar} * W2^2(rho_0, rho*)

    valid for initial densities with W2(rho_0, rho*) <= delta_prime.
    """
    root = np.sqrt(eta_bar * q1)
    delta_prime = delta / (2.0 * (2.0 * root
                                  + np.exp(0.5 * constants.kappa1
                                           + constants.L)))
    c_rate = np.exp(1.0 / eta_bar) * max(4.0 * eta_bar * q1,
                                         np.exp(constants.kappa1
                                                + 2.0 * constants.L))
    return float(delta_prime), float(c_rate)


# ---- validated report ---------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    passed: bool
    n_samples: int
    worst_ratio: float       # max of lhs/rhs over all samples; <= 1 passes
    detail: str = ""


# the certified constants, as named in CertificateReport
_CONSTANTS = ("L", "lam", "kappa1", "eta", "alpha_eps", "eta_bar", "q1",
              "delta", "delta_prime", "C_rate")


@dataclass
class CertificateReport:
    theta: float
    sigma2: float
    epsilon: float
    m_plus: float
    L: float
    lam: float
    kappa1: float
    eta: float
    alpha_eps: float
    eta_bar: float
    q1: float
    delta: float
    delta_prime: float
    C_rate: float
    checks: list[CheckRecord] = field(default_factory=list)
    verdict: str = "VALID"
    notes: str = ""

    def constants(self) -> dict[str, float]:
        """The certified constants under their JSON names."""
        return {("lambda" if name == "lam" else name): getattr(self, name)
                for name in _CONSTANTS}

    def to_json(self) -> str:
        payload = {
            "model": {"theta": self.theta, "sigma2": self.sigma2},
            "epsilon": self.epsilon,
            "m_plus": self.m_plus,
            "constants": self.constants(),
            "checks": [asdict(c) for c in self.checks],
            "verdict": self.verdict,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _random_mixture(rng: np.random.Generator, x_lo: float, x_hi: float,
                    n: int) -> DensityGrid1D:
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    means = rng.uniform(-2.0, 2.0, size=k)
    stds = rng.uniform(0.15, 0.8, size=k)
    return DensityGrid1D.gaussian_mixture(
        x_lo, x_hi, n, list(zip(weights, means, stds)))


def _ratio(lhs: float, rhs: float) -> float:
    return lhs / max(rhs, 1e-300)


def build_certificate(model: ModelConfig, epsilon: float | None = None,
                      validate: bool = True, seed: int = 20240,
                      grid_n: int = 512,
                      bounds: tuple[float, float] = (-4.5, 4.5),
                      n_runs: int = 5) -> CertificateReport:
    """Compute all constants and validate the certified inequalities.

    epsilon defaults to 0.2 * m_plus.  Validation runs the overdamped
    solver on `grid_n` cells over `bounds`; any failed check marks the
    report INVALID and records the offending sample.  Bounds on which a
    boundary cell of the discrete stationary density carries more than
    `EDGE_MASS_TOL` of its mass raise `GridError`.  The runs of each
    trajectory check (nonlinear_lsi, q1_regularization, decay_envelope)
    share one grid and dt, so each check advances them as one stack.

    The q1_regularization and decay_envelope checks compare against
    constants far above what the runs reach: at theta=1, sigma2=0.3
    (q1 ~ 8e4, C_rate ~ 6e7) their worst ratios are about 1e-6 and 1e-8.
    They confirm that these bounds hold, but cannot show that they are
    sharp.
    """
    sc = _subcritical(model)
    m_plus = find_fixed_points(sc).positive_root().m
    if epsilon is None:
        epsilon = 0.2 * m_plus
    big_l, lam, kappa1 = structural_constants(model)
    eta = lsi_eta(model)
    core = CoreConstants(big_l, lam, kappa1, eta)
    alpha = contraction_factor(sc, epsilon, m_plus)
    eta_bar = _eta_bar(model, eta, alpha)
    q1 = q_t(model, core, 1.0)
    delta = m_plus - epsilon
    delta_prime, c_rate = stability_radius(core, eta_bar, q1, delta)
    report = CertificateReport(
        theta=model.theta, sigma2=model.sigma2, epsilon=float(epsilon),
        m_plus=float(m_plus), L=big_l, lam=lam, kappa1=kappa1, eta=eta,
        alpha_eps=float(alpha), eta_bar=eta_bar, q1=float(q1),
        delta=float(delta), delta_prime=delta_prime, C_rate=c_rate,
        notes=("alpha_eps is a grid supremum of the contraction ratio, "
               "not an analytic second-derivative bound on the mean map; "
               "it is numerically certified only"))
    if not all(np.isfinite(v) and v >= 0
               for v in report.constants().values()):
        raise CertificateError("certificate constants must be finite and "
                               "nonnegative")
    if not (report.alpha_eps < 1.0 and report.delta_prime < report.delta):
        raise CertificateError("certificate invariants violated")
    if not validate:
        # a report only earns VALID after the empirical checks run
        report.verdict = "NOT_VALIDATED"
        return report

    x_lo, x_hi = bounds
    rng = np.random.default_rng(seed)
    s4 = model.sigma2 * model.sigma2

    def gaussians(count: int, offset: float, lo: float, hi: float,
                  w_hi: float) -> list[DensityGrid1D]:
        """Starts centred at offset + U(lo, hi) with width U(0.2, w_hi),
        at most 1/7 of the distance to the nearer wall: no edge mass."""
        rho0s = []
        for _ in range(count):
            start = offset + float(rng.uniform(lo, hi))
            width = min(float(rng.uniform(0.2, w_hi)),
                        min(start - x_lo, x_hi - start) / 7.0)
            rho0s.append(DensityGrid1D.gaussian(x_lo, x_hi, grid_n, start,
                                                width))
        return rho0s

    def run(rho0s, T: float, every: float | None = None, reference=None):
        """Advance the starts as one stack to T, sampling every `every`
        time units, or at the two ends only; one log per start."""
        solver = GranularSolver(model, rho0s)
        record_every = (step_count(T, solver.dt) if every is None
                        else max(1, int(every / solver.dt)))
        return granular_run(solver, T, record_every, reference)

    def record(name: str, ratios, detail: str) -> None:
        """Append the check over these lhs/rhs sample ratios (floats or
        arrays); it passes if the worst is at most 1."""
        ratios = np.hstack(ratios)
        worst = float(np.max(ratios))
        report.checks.append(CheckRecord(name, worst <= 1.0, ratios.size,
                                         worst, detail))

    # stationary reference: the discrete self-consistent density, which is
    # an exact steady state of the scheme
    m_star = discrete_fixed_mean(model, x_lo, x_hi, grid_n, m_plus)
    rho_star = equilibrium_for_mean(model, m_star, x_lo, x_hi, grid_n)
    edge = float(np.max(rho_star.values[[0, -1]])) * rho_star.dx
    if edge > EDGE_MASS_TOL:
        raise GridError("the stationary density's boundary cells carry "
                        "mass %.2e > %.0e on [%g, %g]; widen the bounds"
                        % (edge, EDGE_MASS_TOL, x_lo, x_hi))
    f_star = free_energy(model, rho_star)

    # 1. Talagrand consequence of the uniform LSI on random pairs
    ratios = []
    for _ in range(50):
        nu = _random_mixture(rng, x_lo, x_hi, grid_n)
        gamma = equilibrium_for_mean(model, float(rng.uniform(-1.5, 1.5)),
                                     x_lo, x_hi, grid_n)
        ratios.append(_ratio(wasserstein2(nu, gamma) ** 2,
                             4.0 * eta * relative_entropy(nu, gamma) * 1.05))
    record("talagrand", ratios, "worst W2^2 vs 4*eta*H at mixture sample")

    # 2. dissipation inequality along solver runs restricted to means
    #    above epsilon
    logs = run(gaussians(n_runs, 0.0, epsilon + 0.3 * delta, m_plus + 0.3,
                         0.5), T=3.0, every=0.05)
    kept = [np.abs(log.column("mean")) >= epsilon for log in logs]
    record("nonlinear_lsi",
           [(log.column("F")[k] - f_star)
            / (eta_bar * s4 * log.column("Fisher")[k] * 1.05 + 1e-12)
            for log, k in zip(logs, kept)],
           "F gap vs eta_bar*sigma2^2*Fisher along %d runs" % n_runs)

    # 3. unit-time regularization: F gap at t=1 vs q1 * initial W2^2,
    #    sampled at the two ends only
    rho0s = gaussians(20, m_star, -0.3, 0.3, 0.6)
    record("q1_regularization",
           [_ratio(log.column("F")[-1] - f_star,
                   q1 * wasserstein2(rho0, rho_star) ** 2 * 1.10 + 1e-12)
            for rho0, log in zip(rho0s, run(rho0s, T=1.0))],
           "free-energy gap at t=1 vs q1*W2^2(rho_0, rho*)")

    # 4. certified decay envelope inside the delta_prime ball
    rho0s = []
    for _ in range(n_runs):
        shift = float(rng.uniform(0.3, 0.9)) * delta_prime
        rho0 = equilibrium_for_mean(model, m_star, x_lo, x_hi, grid_n,
                                    shift=shift)
        if wasserstein2(rho0, rho_star) > delta_prime:
            rho0 = equilibrium_for_mean(model, m_star, x_lo, x_hi, grid_n,
                                        shift=0.25 * delta_prime)
        rho0s.append(rho0)
    logs = run(rho0s, T=5.0, every=0.25, reference=rho_star)
    record("decay_envelope",
           [log.column("W2_ref") ** 2
            / (c_rate * np.exp(-log.t / eta_bar)
               * wasserstein2(rho0, rho_star) ** 2)
            for rho0, log in zip(rho0s, logs)],
           "W2^2(rho_t, rho*) vs C*e^{-t/eta_bar}*W2^2(rho_0, rho*)")

    if not all(c.passed for c in report.checks):
        report.verdict = "INVALID"
    return report
