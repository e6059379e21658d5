"""The benchmark's workloads.

Each workload is a fixed list of CLI invocations whose configs are drawn
from the workload seed, plus the checks of their outputs.  The seed moves
temperatures, initial conditions and particle seeds inside fixed windows;
it never changes the amount of work, which the grid sizes, T, dt and the
invocation list fix.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as P

import checks
import references as ref


@dataclass(frozen=True)
class Invocation:
    name: str           # output subdirectory and config file stem
    experiment: str
    config: dict
    threads: int = 1

    def argv(self, cfg_dir: Path, out_dir: Path) -> list[str]:
        return [self.experiment,
                "--config", str(cfg_dir / (self.name + ".json")),
                "--out", str(out_dir / self.name),
                "--threads", str(self.threads)]


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _uniform(rng: np.random.Generator, lo: float, hi: float,
             n: int | None = None):
    """Uniform draws rounded to 4 decimals, so temperatures name files
    unambiguously."""
    return np.round(rng.uniform(lo, hi, n), 4).tolist()


def _steps(T: float, dt: float) -> int:
    """Steps of a run to time T, counted as the package counts them."""
    return max(1, int(math.ceil(T / dt - 1e-12)))


class Workload:
    """Subclasses set `index` and build their invocations from `rng`."""

    index = 0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([self.index, seed])
        # a second stream picks the sampled check points, so they never
        # move the inputs
        self.check_rng = np.random.default_rng([self.index, seed, 1])
        self.invocations: list[Invocation] = self.build()

    def build(self) -> list[Invocation]:
        raise NotImplementedError

    def check(self, inv: Invocation, out: Path) -> list[str]:
        """Failures of one invocation's outputs, written to `out`."""
        raise NotImplementedError

    def verify(self, out: Path, skip: set[str]) -> list[str]:
        """Checks every invocation of the round in `out` except `skip`,
        whose operations failed and left no outputs."""
        errors = []
        for inv in self.invocations:
            if inv.name not in skip:
                errors += ["%s: %s" % (inv.name, e)
                           for e in self.check(inv, out / inv.name)]
        return errors

    def particle_steps(self) -> int:
        """Particle steps the invocations take; 0 if they run none."""
        return 0


# ---- stationary -------------------------------------------------------------


@dataclass(frozen=True)
class _PotentialCase:
    label: str
    cfg: dict
    coefficients: tuple
    bracket: tuple          # sigma2 bracket of the critical temperature
    below: tuple            # sigma2 window below the critical temperature
    above: tuple            # sigma2 window above it
    fixed_sigma2: tuple     # sigma2 window of the fixed-points run
    scan: tuple             # m range that holds every fixed point


_CASES = {case.label: case for case in (
    _PotentialCase("dw", {"kind": "double-well"}, ref.DOUBLE_WELL,
                   (0.3, 1.0), (0.3, 0.7), (0.95, 1.5), (0.3, 0.3),
                   (-3.0, 3.0)),
    # sigma2_c = 2.847; 7 fixed points below 0.5, 3 up to sigma2_c, 1 above
    _PotentialCase("4w", {"kind": "polynomial",
                          "coefficients": list(ref.FOUR_WELL)},
                   ref.FOUR_WELL, (2.0, 4.0), (0.2, 0.5), (3.3, 4.5),
                   (0.2, 0.5), (-5.0, 5.0)),
)}


class Stationary(Workload):
    """phase-diagram on both sides of the critical temperature, critical,
    fixed-points and localization at the minimum a=1, for the double well
    and a four-well polynomial."""

    index = 1
    theta = 1.0
    a = 1.0

    def build(self) -> list[Invocation]:
        out = []
        for case in _CASES.values():
            pot = case.cfg
            sweep = (sorted(_uniform(self.rng, *case.below, 3))
                     + sorted(_uniform(self.rng, *case.above, 3)))
            local = [_uniform(self.rng, 0.15, 0.25),
                     _uniform(self.rng, 0.08, 0.12),
                     _uniform(self.rng, 0.04, 0.06)]
            fixed = _uniform(self.rng, *case.fixed_sigma2)
            out += [
                Invocation(case.label + "-phase", "phase-diagram", {
                    "theta": self.theta, "sigma2_values": sweep,
                    "potential": pot}),
                Invocation(case.label + "-critical", "critical", {
                    "theta": self.theta, "bracket_lo": case.bracket[0],
                    "bracket_hi": case.bracket[1], "potential": pot}),
                Invocation(case.label + "-fixed", "fixed-points", {
                    "model": {"theta": self.theta, "sigma2": fixed,
                              "potential": pot}}),
                Invocation(case.label + "-local", "localization", {
                    "theta": self.theta, "a": self.a,
                    "sigma2_values": local, "potential": pot}),
            ]
        return out

    def check(self, inv: Invocation, out: Path) -> list[str]:
        case = _CASES[inv.name.split("-")[0]]
        cfg = inv.config
        if inv.experiment == "critical":
            return checks.critical(_load(out / "report.json"),
                                   ref.critical_sigma2(case.coefficients,
                                                       self.theta,
                                                       *case.bracket))
        if inv.experiment == "fixed-points":
            gibbs = ref.Gibbs(case.coefficients, self.theta,
                              cfg["model"]["sigma2"])
            roots = gibbs.fixed_points(*case.scan, 61)
            return checks.fixed_points(_load(out / "report.json"), roots,
                                       [gibbs.slope(r) for r in roots])
        if inv.experiment == "localization":
            jac = []
            for s2 in cfg["sigma2_values"]:
                gibbs = ref.Gibbs(case.coefficients, self.theta, s2)
                jac.append(gibbs.slope(gibbs.fixed_point_in(self.a - 0.5,
                                                            self.a + 0.5)))
            return checks.localization(_load(out / "report.json"), jac)
        return self._check_phase(case, cfg["sigma2_values"], out)

    def _check_phase(self, case: _PotentialCase, sweep: list[float],
                     out: Path) -> list[str]:
        errors = []
        expected = {}
        s2c = ref.critical_sigma2(case.coefficients, self.theta,
                                  *case.bracket)
        for s2 in sweep:
            gibbs = ref.Gibbs(case.coefficients, self.theta, s2)
            if case.label == "dw":
                # the double well's pitchfork: m = 0 and +-m+ below the
                # critical temperature, m = 0 alone above it
                expected[s2] = 3 if s2 < s2c else 1
            else:
                expected[s2] = len(gibbs.fixed_points(*case.scan, 61))
            table = checks.read_csv(out / ("phase_sigma2_%g.csv" % s2))
            samples = {}
            for i in self.check_rng.choice(len(table), 3, replace=False):
                logz, f, var = gibbs.moments(float(table["m"][i]))
                samples[int(i)] = (f, 2.0 * self.theta / s2 * var, -s2 * logz)
            errors += ["sigma2=%g: %s" % (s2, e) for e in checks.phase_csv(
                table, self.theta, True, samples)]
        return errors + checks.sweep_counts(_load(out / "report.json"),
                                            expected)


# ---- certificate --------------------------------------------------------------


def min_curvature(coefficients) -> float:
    """Exact minimum of V'' over the line: V'' has even degree and a
    positive leading coefficient, so it sits at a real root of V'''."""
    d3 = P.polyroots(P.polyder(coefficients, 3))
    crit = d3[np.abs(d3.imag) < 1e-12].real
    return float(np.min(P.polyval(crit, P.polyder(coefficients, 2))))


class Certificate(Workload):
    """The validated certificate at theta=1, sigma2=0.3 on 256 cells with
    one run per trajectory check.

    Its config does not depend on the seed: the experiment currently ends
    in a traceback on every input (see CHANGES.md), and an operation that
    fails must fail on every run for the failure share to be comparable.
    """

    index = 2
    theta, sigma2 = 1.0, 0.3

    def build(self) -> list[Invocation]:
        return [Invocation("certificate", "certificate", {
            "model": {"theta": self.theta, "sigma2": self.sigma2},
            "grid_n": 256, "n_runs": 1})]

    def check(self, inv: Invocation, out: Path) -> list[str]:
        cert = _load(out / "certificate.json")
        gibbs = ref.Gibbs(ref.DOUBLE_WELL, self.theta, self.sigma2)
        m_plus = gibbs.fixed_point_in(0.5, 1.5)
        # the contraction ratio at the lower end of the certificate's window
        # and at sampled means up to its far end
        eps = cert["epsilon"]
        m_far = max(2.0 * m_plus + 2.0, eps + 1.0)
        ms = [eps] + [m for m in self.check_rng.uniform(eps, m_far, 6)
                      if abs(m - m_plus) > 1e-3]
        ratios = [(gibbs.mean(m) - m_plus) / (m - m_plus) for m in ms]
        return checks.certificate(cert, m_plus,
                                  min_curvature(ref.DOUBLE_WELL), ratios)


# ---- granular counterexample ------------------------------------------------------


class Counterexample(Workload):
    """The two-bump counterexample on its default 2048-cell grid."""

    index = 3

    def build(self) -> list[Invocation]:
        return [Invocation("counterexample", "counterexample", {
            "epsilon": _uniform(self.rng, 0.05, 0.065),
            "s0": _uniform(self.rng, 0.05, 0.07),
            "T": 0.0035})]

    def check(self, inv: Invocation, out: Path) -> list[str]:
        # (1-eps)*N(-1, s0^2) + eps*N(2/eps - 1, s0^2) has mean 1
        return checks.counterexample(_load(out / "report.json"),
                                     checks.read_csv(out / "trajectory.csv"),
                                     1.0)


# ---- kinetic -------------------------------------------------------------------------


class Kinetic(Workload):
    """vfp-run on the 64x64 phase grid at sigma2=1 from a shifted
    equilibrium, with the self-consistent reference."""

    index = 4
    sigma2 = 1.0
    grid = {"x_lo": -3.5, "x_hi": 3.5, "n_x": 64,
            "v_lo": -4.0, "v_hi": 4.0, "n_v": 64}
    fit_from = 1.0      # W2 decays exponentially from here on

    def build(self) -> list[Invocation]:
        return [Invocation("kinetic", "vfp-run", {
            "model": {"theta": 1.0, "sigma2": self.sigma2},
            "phase_grid": self.grid,
            "init": {"kind": "equilibrium", "mean": 0.0,
                     "shift": _uniform(self.rng, 0.25, 0.35)},
            "T": 4.0, "record_every": 50, "reference": "self-consistent"})]

    def check(self, inv: Invocation, out: Path) -> list[str]:
        g = self.grid
        da = ((g["x_hi"] - g["x_lo"]) / g["n_x"]
              * (g["v_hi"] - g["v_lo"]) / g["n_v"])
        errors = checks.kinetic_state(
            checks.read_csv(out / "final_state.csv"), da, self.sigma2,
            _load(out / "report.json"))
        traj = checks.read_csv(out / "trajectory.csv")
        late = traj["t"] >= self.fit_from
        return errors + checks.exponential_decay(traj["t"][late],
                                                 traj["W2_ref"][late])


# ---- particles -------------------------------------------------------------------------


class Particles(Workload):
    """particles-run with N=4096 over four seeds, overdamped and kinetic,
    on at most two threads."""

    index = 5
    theta, sigma2 = 1.0, 0.3

    def build(self) -> list[Invocation]:
        threads = min(2, os.cpu_count() or 1)
        out = []
        for mode in ("overdamped", "kinetic"):
            base = int(self.rng.integers(0, 2 ** 31))
            out.append(Invocation(mode, "particles-run", {
                "model": {"theta": self.theta, "sigma2": self.sigma2},
                "mode": mode, "n_particles": 4096,
                "seeds": [base + i for i in range(4)],
                "dt": 1e-3, "T": 2.5, "record_every": 100,
                "init": {"kind": "gaussian",
                         "mean": _uniform(self.rng, 0.9, 1.0),
                         "std": _uniform(self.rng, 0.25, 0.35)}},
                threads))
        return out

    def particle_steps(self) -> int:
        return sum(len(inv.config["seeds"])
                   * _steps(inv.config["T"], inv.config["dt"])
                   for inv in self.invocations)

    def check(self, inv: Invocation, out: Path) -> list[str]:
        cfg = inv.config
        gibbs = ref.Gibbs(ref.DOUBLE_WELL, self.theta, self.sigma2)
        m_plus = gibbs.fixed_point_in(0.5, 1.5)
        trajectories = [checks.read_csv(out / ("trajectory_seed%d.csv" % s))
                        for s in cfg["seeds"]]
        return checks.particles(
            _load(out / "report.json"), trajectories, m_plus,
            gibbs.free_energy_at_fixed_point(m_plus),
            _steps(cfg["T"], cfg["dt"]) * cfg["dt"])


WORKLOADS = {cls.__name__.lower(): cls for cls in
             (Stationary, Certificate, Counterexample, Kinetic, Particles)}
