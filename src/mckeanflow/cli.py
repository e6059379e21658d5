"""Experiment runner.

    mckeanflow <experiment> --config cfg.json --out dir [--verbose]
    mckeanflow list

Experiments are configured by JSON files validated against strict schemas
(unknown keys are rejected).  All outputs are written atomically at the
end of a successful run, plus a manifest.json with the config hash,
package versions and wall-clock time.  Exit codes: 0 success, 2 config
or domain validation failure (a certificate for a supercritical model
among them), 3 numerical failure (dt above the solver's bound, lost
positivity or mass), 4 certificate verdict INVALID.  With
identical configs and seeds, reruns are byte-identical except for the
manifest's wall-clock entry.  Every run uses one thread; --threads is
accepted for old command lines and ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Literal, Optional

import numpy as np
import scipy
import pydantic
from pydantic import BaseModel, ConfigDict, Field, model_validator

from . import __version__
from .analysis import (detect_sign_change, fit_exponential, fit_power,
                       step_count)
from .certificates import build_certificate
from .grid import (DensityGrid1D, PhaseGrid2D, density_csv_text,
                   density_from_csv, equilibrium_for_mean, maxwellian,
                   phase_csv_text)
from .meanfield import (SelfConsistency1D, critical_sigma2,
                        discrete_fixed_mean, find_fixed_points,
                        localization_jacobian)
from .model import Potential, standard_model
from .particles import ParticleEnsemble, run_particles as simulate_particles
from .pde import GranularSolver, VfpSolver, granular_run, vfp_run


@dataclass
class RunContext:
    verbose: bool

    def log(self, msg: str) -> None:
        if self.verbose:
            print("[mckeanflow] " + msg, file=sys.stderr)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---- config schemas ----------------------------------------------------------


class _Base(BaseModel):
    """Strict config: unknown keys are refused, and every `<name>_lo`
    field must lie below its `<name>_hi` unless that one is None."""

    model_config = ConfigDict(extra="forbid")

    @model_validator(mode="after")
    def _bounds_ordered(self):
        for lo in type(self).model_fields:
            hi = lo[:-3] + "_hi"
            if (lo.endswith("_lo") and getattr(self, hi, None) is not None
                    and not getattr(self, lo) < getattr(self, hi)):
                raise ValueError("need %s < %s" % (lo, hi))
        return self


class PotentialCfg(_Base):
    kind: Literal["double-well", "quadratic", "polynomial"] = "double-well"
    coefficients: Optional[list[float]] = None

    @model_validator(mode="after")
    def _consistent(self) -> "PotentialCfg":
        if self.kind == "polynomial" and not self.coefficients:
            raise ValueError("polynomial potential needs coefficients")
        return self

    def build(self) -> Potential:
        if self.kind == "double-well":
            return Potential.double_well()
        if self.kind == "quadratic":
            return Potential.quadratic()
        return Potential(self.coefficients)


class ModelCfg(_Base):
    theta: float
    sigma2: float = Field(gt=0)
    potential: PotentialCfg = Field(default_factory=PotentialCfg)

    def build(self):
        return standard_model(self.theta, self.sigma2,
                              self.potential.build())


class GridCfg(_Base):
    x_lo: float
    x_hi: float
    n: int = Field(ge=16)


class PhaseGridCfg(_Base):
    x_lo: float
    x_hi: float
    n_x: int = Field(ge=16)
    v_lo: float
    v_hi: float
    n_v: int = Field(ge=16)


class InitCfg(_Base):
    """Initial density: a Gaussian, a Gaussian mixture, the local
    equilibrium at a frozen mean (optionally translated), or a CSV."""

    kind: Literal["gaussian", "mixture", "equilibrium", "csv"] = "gaussian"
    mean: float = 0.0
    std: float = Field(default=0.5, gt=0)
    components: Optional[list[tuple[float, float, float]]] = None
    shift: float = 0.0
    path: Optional[str] = None

    @model_validator(mode="after")
    def _consistent(self) -> "InitCfg":
        if self.kind == "mixture" and not self.components:
            raise ValueError("mixture init needs components")
        if any(w < 0 or std <= 0 for w, _, std in self.components or ()):
            raise ValueError("mixture components need weight >= 0 and "
                             "width > 0")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv init needs a path")
        return self

    def build(self, model, grid: GridCfg) -> DensityGrid1D:
        if self.kind == "gaussian":
            return DensityGrid1D.gaussian(grid.x_lo, grid.x_hi, grid.n,
                                          self.mean, self.std)
        if self.kind == "mixture":
            return DensityGrid1D.gaussian_mixture(grid.x_lo, grid.x_hi,
                                                  grid.n, self.components)
        if self.kind == "equilibrium":
            return equilibrium_for_mean(model, self.mean, grid.x_lo,
                                        grid.x_hi, grid.n, shift=self.shift)
        return density_from_csv(self.path, grid.x_lo, grid.x_hi, grid.n)


_Sigma2List = list[Annotated[float, Field(gt=0)]]


class PhaseDiagramCfg(_Base):
    theta: float
    sigma2_values: _Sigma2List = Field(min_length=1)
    potential: PotentialCfg = Field(default_factory=PotentialCfg)
    m_lo: float = -2.0
    m_hi: float = 2.0
    m_points: int = Field(default=201, ge=3)

    @model_validator(mode="after")
    def _distinct_files(self) -> "PhaseDiagramCfg":
        # each value writes phase_sigma2_%g.csv; equal values write the
        # same file, distinct ones must not share it
        names = {}
        for s in self.sigma2_values:
            first = names.setdefault("%g" % s, s)
            if first != s:
                raise ValueError("sigma2 values %r and %r both write "
                                 "phase_sigma2_%g.csv" % (first, s, s))
        return self


class CriticalCfg(_Base):
    theta: float
    bracket_lo: float = Field(default=0.3, gt=0)
    bracket_hi: float = Field(default=1.0, gt=0)
    potential: PotentialCfg = Field(default_factory=PotentialCfg)


class FixedPointsCfg(_Base):
    model: ModelCfg


class _RunCfg(_Base):
    """The fields every solver run shares."""

    model: ModelCfg
    init: InitCfg = Field(default_factory=InitCfg)
    dt: Optional[float] = Field(default=None, gt=0)
    T: float = Field(gt=0)
    record_every: Optional[int] = Field(default=None, ge=1)
    reference: Literal["none", "self-consistent"] = "none"

    def reference_density(self, model, rho0: Optional[DensityGrid1D]
                          ) -> Optional[DensityGrid1D]:
        """The discrete self-consistent density on rho0's grid, started
        from rho0's mean, or None when the run has no reference."""
        if self.reference == "none":
            return None
        m_d = discrete_fixed_mean(model, rho0.x_lo, rho0.x_hi, rho0.n,
                                  rho0.mean())
        return equilibrium_for_mean(model, m_d, rho0.x_lo, rho0.x_hi,
                                    rho0.n)


class PdeRunCfg(_RunCfg):
    grid: GridCfg


class VfpRunCfg(_RunCfg):
    phase_grid: PhaseGridCfg


class ParticlesRunCfg(_RunCfg):
    mode: Literal["overdamped", "kinetic"] = "overdamped"
    n_particles: int = Field(ge=64)
    # Philox keys from seeds >= 2**63 pass through float64 and collide
    seeds: list[Annotated[int, Field(ge=0, lt=2 ** 63)]] = Field(
        min_length=1)
    dt: float = Field(default=1e-3, gt=0)
    record_every: int = Field(default=100, ge=1)
    grid: Optional[GridCfg] = None

    @model_validator(mode="after")
    def _consistent(self) -> "ParticlesRunCfg":
        # each seed writes trajectory_seed<seed>.csv
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.grid is None and (self.reference != "none"
                                  or self.init.kind != "gaussian"):
            raise ValueError("this init/reference combination needs a "
                             "grid block")
        return self


class CertificateCfg(_Base):
    model: ModelCfg
    epsilon: Optional[float] = Field(default=None, gt=0)
    seed: int = 20240
    grid_n: int = Field(default=512, ge=64)
    x_lo: float = -4.5
    x_hi: float = 4.5
    n_runs: int = Field(default=5, ge=1)


class CounterexampleCfg(_Base):
    theta: float = 0.5
    sigma2: float = Field(default=0.25, gt=0)
    potential: PotentialCfg = Field(default_factory=PotentialCfg)
    epsilon: float = Field(default=0.05, gt=0, lt=1)
    s0: float = Field(default=0.05, gt=0)
    grid: GridCfg = Field(default_factory=lambda: GridCfg(
        x_lo=-6.0, x_hi=41.0, n=2048))
    dt: Optional[float] = Field(default=None, gt=0)
    T: float = Field(default=0.02, gt=0)
    record_every: Optional[int] = Field(default=None, ge=1)

    @model_validator(mode="after")
    def _bumps_on_grid(self) -> "CounterexampleCfg":
        # a bump cut off by the grid drops out of the mixture, and the
        # mean then never changes sign
        margin = 5.0 * self.s0
        for center in (-1.0, 2.0 / self.epsilon - 1.0):
            if not (self.grid.x_lo + margin <= center
                    <= self.grid.x_hi - margin):
                raise ValueError(
                    "bump at x=%.6g is not 5*s0=%.3g inside the grid "
                    "[%g, %g]" % (center, margin, self.grid.x_lo,
                                  self.grid.x_hi))
        return self


class LocalizationCfg(_Base):
    theta: float = 1.0
    a: float = 1.0
    sigma2_values: _Sigma2List = Field(
        default_factory=lambda: [0.2, 0.1, 0.05], min_length=1)
    potential: PotentialCfg = Field(default_factory=PotentialCfg)


class FitCfg(_Base):
    column: str
    kind: Literal["exponential", "power"]
    t_lo: float = 0.0
    t_hi: Optional[float] = None
    offset: float = 0.0


class RatesReportCfg(_Base):
    trajectory: str
    fits: list[FitCfg] = Field(min_length=1)
    sign_change_column: Optional[str] = None


# ---- runners -----------------------------------------------------------------


def run_phase_diagram(cfg: PhaseDiagramCfg, ctx: RunContext):
    outputs = {}
    summary = []
    ms = np.linspace(cfg.m_lo, cfg.m_hi, cfg.m_points)
    pot = cfg.potential.build()
    for s2 in cfg.sigma2_values:
        model = standard_model(cfg.theta, s2, pot)
        sc = SelfConsistency1D(model)
        lines = ["m,f,fprime,g"]
        for m in ms:
            logz, mean, var = sc.moments(float(m))
            fprime = 2.0 * model.theta / s2 * var
            lines.append("%.17g,%.17g,%.17g,%.17g"
                         % (m, mean, fprime, -s2 * logz))
        outputs["phase_sigma2_%g.csv" % s2] = "\n".join(lines) + "\n"
        count = len(find_fixed_points(sc).points)
        summary.append({"sigma2": s2, "fixed_point_count": count})
        ctx.log("sigma2=%g: %d fixed points" % (s2, count))
    outputs["report.json"] = _json_text(
        {"theta": cfg.theta, "sweep": summary})
    return outputs, 0


def run_critical(cfg: CriticalCfg, ctx: RunContext):
    model = standard_model(cfg.theta,
                           0.5 * (cfg.bracket_lo + cfg.bracket_hi),
                           cfg.potential.build())
    s2c = critical_sigma2(model, (cfg.bracket_lo, cfg.bracket_hi))
    ctx.log("critical sigma2 = %.10g" % s2c)
    return {"report.json": _json_text(
        {"theta": cfg.theta, "sigma2_critical": s2c})}, 0


def run_fixed_points(cfg: FixedPointsCfg, ctx: RunContext):
    fps = find_fixed_points(SelfConsistency1D(cfg.model.build()))
    rows = [{"m": p.m, "fprime": p.fprime, "stable": p.stable,
             "degenerate": p.degenerate,
             "iteration_stable": p.iteration_stable}
            for p in fps.points]
    return {"report.json": _json_text({"fixed_points": rows})}, 0


def run_pde(cfg: PdeRunCfg, ctx: RunContext):
    model = cfg.model.build()
    rho0 = cfg.init.build(model, cfg.grid)
    ref = cfg.reference_density(model, rho0)
    solver = GranularSolver(model, rho0, dt=cfg.dt)
    ctx.log("dt=%.6g, max_dt=%.6g, %d steps, %d cells"
            % (solver.dt, solver.max_dt, step_count(cfg.T, solver.dt),
               solver.n))
    log = granular_run(solver, cfg.T, cfg.record_every, reference=ref)
    report = {
        "final_time": solver.time,
        "final_mean": solver.state.mean(),
        "final_variance": solver.state.variance(),
        "final_free_energy": log.column("F")[-1],
        "samples": len(log.rows),
    }
    if ref is not None:
        report["final_w2_to_reference"] = log.column("W2_ref")[-1]
        mask = log.t >= 2.0
        w2 = log.column("W2_ref")
        if mask.sum() >= 10 and np.all(w2[mask] > 0):
            fit = fit_exponential(log.t[mask], w2[mask])
            report["w2_exponential_fit"] = {
                "rate": fit.rate, "amplitude": fit.amplitude,
                "r_squared": fit.r_squared}
    outputs = {
        "trajectory.csv": log.to_csv_text(),
        "final_state.csv": density_csv_text(solver.state),
        "report.json": _json_text(report),
    }
    return outputs, 0


def run_vfp(cfg: VfpRunCfg, ctx: RunContext):
    model = cfg.model.build()
    pg = cfg.phase_grid
    xgrid = GridCfg(x_lo=pg.x_lo, x_hi=pg.x_hi, n=pg.n_x)
    rho_x = cfg.init.build(model, xgrid)
    gv = maxwellian(model.sigma2, pg.v_lo, pg.v_hi, pg.n_v)
    state = PhaseGrid2D(pg.x_lo, pg.x_hi, pg.n_x, pg.v_lo, pg.v_hi, pg.n_v,
                        np.outer(rho_x.values, gv.values)).normalize()
    ref = cfg.reference_density(model, rho_x)
    solver = VfpSolver(model, state, dt=cfg.dt)
    ctx.log("dt=%.3g, %dx%d cells" % (solver.dt, pg.n_x, pg.n_v))
    log = vfp_run(solver, cfg.T, cfg.record_every, reference=ref)
    final = solver.state
    report = {
        "final_time": solver.time,
        "final_x_mean": final.x_marginal().mean(),
        "final_velocity_variance": final.v_marginal().variance(),
        "final_kinetic_free_energy": log.column("F")[-1],
        "samples": len(log.rows),
    }
    if ref is not None:
        report["final_w2_to_reference"] = log.column("W2_ref")[-1]
    outputs = {
        "trajectory.csv": log.to_csv_text(),
        "final_state.csv": phase_csv_text(final),
        "report.json": _json_text(report),
    }
    return outputs, 0


def run_particles(cfg: ParticlesRunCfg, ctx: RunContext):
    model = cfg.model.build()
    rho0 = cfg.init.build(model, cfg.grid) if cfg.grid is not None else None
    ref = cfg.reference_density(model, rho0)
    outputs = {}
    finals = {"mean": [], "var": [], "w2_ref": [], "fe_proxy": []}
    for seed in cfg.seeds:
        if cfg.init.kind == "gaussian":
            ens = ParticleEnsemble.gaussian(
                cfg.mode, cfg.n_particles, cfg.init.mean, cfg.init.std,
                seed, sigma2_velocity=model.sigma2)
        else:
            ens = ParticleEnsemble.from_density(
                cfg.mode, cfg.n_particles, rho0, seed,
                sigma2_velocity=model.sigma2)
        log = simulate_particles(ens, model, cfg.dt, cfg.T,
                                 cfg.record_every, reference=ref)
        outputs["trajectory_seed%d.csv" % seed] = log.to_csv_text()
        for key in finals:
            finals[key].append(float(log.column(key)[-1]))
    # the nan w2_ref column of a run without a reference is dropped
    medians = {k: float(np.median(v)) for k, v in finals.items()
               if np.all(np.isfinite(v))}
    report = {
        "seeds": list(cfg.seeds),
        "median_final": medians,
    }
    outputs["report.json"] = _json_text(report)
    return outputs, 0


def run_certificate(cfg: CertificateCfg, ctx: RunContext):
    report = build_certificate(cfg.model.build(), epsilon=cfg.epsilon,
                               seed=cfg.seed, grid_n=cfg.grid_n,
                               bounds=(cfg.x_lo, cfg.x_hi),
                               n_runs=cfg.n_runs)
    ctx.log("verdict: %s" % report.verdict)
    code = 4 if report.verdict == "INVALID" else 0
    return {"certificate.json": report.to_json() + "\n"}, code


def run_counterexample(cfg: CounterexampleCfg, ctx: RunContext):
    model = standard_model(cfg.theta, cfg.sigma2, cfg.potential.build())
    far = 2.0 / cfg.epsilon - 1.0
    rho0 = DensityGrid1D.gaussian_mixture(
        cfg.grid.x_lo, cfg.grid.x_hi, cfg.grid.n,
        [(1.0 - cfg.epsilon, -1.0, cfg.s0), (cfg.epsilon, far, cfg.s0)])
    solver = GranularSolver(model, rho0, dt=cfg.dt)
    ctx.log("dt=%.6g, max_dt=%.6g, %d steps, initial mean %.6g"
            % (solver.dt, solver.max_dt, step_count(cfg.T, solver.dt),
               rho0.mean()))
    log = granular_run(solver, cfg.T, cfg.record_every)
    t_cross = detect_sign_change(log.t, log.column("mean"))
    report = {
        "epsilon": cfg.epsilon,
        "initial_mean": float(log.column("mean")[0]),
        "final_mean": float(log.column("mean")[-1]),
        "t_cross": t_cross,
        "free_energy_drop": float(log.column("F")[0]
                                  - log.column("F")[-1]),
    }
    outputs = {
        "trajectory.csv": log.to_csv_text(),
        "report.json": _json_text(report),
    }
    return outputs, 0


def run_localization(cfg: LocalizationCfg, ctx: RunContext):
    pot = cfg.potential.build()
    values = []
    for s2 in cfg.sigma2_values:
        values.append(localization_jacobian(
            standard_model(cfg.theta, s2, pot), cfg.a))
        ctx.log("sigma2=%g: jacobian %.6g" % (s2, values[-1]))
    limit = 2.0 * cfg.theta / (2.0 * cfg.theta + float(pot.hess(cfg.a)))
    report = {
        "a": cfg.a,
        "sigma2_values": list(cfg.sigma2_values),
        "jacobians": values,
        "low_temperature_limit": limit,
        "monotone_decreasing": bool(np.all(np.diff(values) < 0)),
        "all_below_one": bool(np.all(np.array(values) < 1.0)),
    }
    return {"report.json": _json_text(report)}, 0


def run_rates_report(cfg: RatesReportCfg, ctx: RunContext):
    data = np.genfromtxt(cfg.trajectory, delimiter=",", names=True)
    names = data.dtype.names or ()
    if "t" not in names:
        raise ValueError("trajectory csv has no t column")
    t = np.atleast_1d(data["t"])
    results = []
    for fit in cfg.fits:
        if fit.column not in names:
            raise ValueError("unknown column %r" % fit.column)
        y = np.atleast_1d(data[fit.column]) - fit.offset
        hi = fit.t_hi if fit.t_hi is not None else np.inf
        mask = (t >= fit.t_lo) & (t <= hi)
        fn = fit_exponential if fit.kind == "exponential" else fit_power
        r = fn(t[mask], y[mask])
        results.append({"column": fit.column, "kind": fit.kind,
                        "rate": r.rate, "amplitude": r.amplitude,
                        "r_squared": r.r_squared})
    report = {"trajectory": cfg.trajectory, "fits": results}
    if cfg.sign_change_column:
        if cfg.sign_change_column not in names:
            raise ValueError("unknown column %r" % cfg.sign_change_column)
        report["t_cross"] = detect_sign_change(
            t, np.atleast_1d(data[cfg.sign_change_column]))
    return {"report.json": _json_text(report)}, 0


# ---- dispatch ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentDef:
    config_cls: type
    runner: Callable
    description: str


EXPERIMENTS: dict[str, ExperimentDef] = {
    "phase-diagram": ExperimentDef(
        PhaseDiagramCfg, run_phase_diagram,
        "mean map, its derivative and the effective potential on an "
        "m-grid, one CSV per temperature"),
    "critical": ExperimentDef(
        CriticalCfg, run_critical,
        "critical temperature where the mean map's slope at 0 equals 1"),
    "fixed-points": ExperimentDef(
        FixedPointsCfg, run_fixed_points,
        "all fixed points of the mean map with stability flags"),
    "pde-run": ExperimentDef(
        PdeRunCfg, run_pde,
        "overdamped solver run with free-energy and distance diagnostics"),
    "vfp-run": ExperimentDef(
        VfpRunCfg, run_vfp,
        "kinetic phase-space solver run with marginal diagnostics"),
    "particles-run": ExperimentDef(
        ParticlesRunCfg, run_particles,
        "interacting-particle simulation over one or more seeds"),
    "certificate": ExperimentDef(
        CertificateCfg, run_certificate,
        "explicit convergence constants validated on solver trajectories"),
    "counterexample": ExperimentDef(
        CounterexampleCfg, run_counterexample,
        "two-bump initial density whose mean changes sign while the free "
        "energy decays"),
    "localization": ExperimentDef(
        LocalizationCfg, run_localization,
        "low-temperature fixed-point Jacobian near a potential minimum"),
    "rates-report": ExperimentDef(
        RatesReportCfg, run_rates_report,
        "exponential/power-law fits and sign-change detection on a "
        "trajectory CSV"),
}


def list_experiments() -> str:
    lines = []
    for name, entry in EXPERIMENTS.items():
        required = sorted(k for k, f in entry.config_cls.model_fields.items()
                          if f.is_required())
        req = ", ".join(required) if required else "none"
        lines.append("%-15s %s (required keys: %s)"
                     % (name, entry.description, req))
    return "\n".join(lines) + "\n"


# ---- driver ------------------------------------------------------------------


def _fail(code: int, reason: str) -> int:
    flat = " ".join(str(reason).split())
    if len(flat) > 400:
        flat = flat[:397] + "..."
    print("mckeanflow: status=error code=%d reason=%s" % (code, flat),
          file=sys.stderr)
    return code


def _write_outputs(out_dir: Path, outputs: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(outputs):
        path = out_dir / name
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(outputs[name])
        os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mckeanflow",
        description="experiment runner; `mckeanflow list` shows the "
                    "catalog")
    parser.add_argument("experiment")
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored; runs use one thread")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        print(list_experiments(), end="")
        return 0
    if args.experiment not in EXPERIMENTS:
        return _fail(2, "unknown experiment %r; run `mckeanflow list`"
                     % args.experiment)
    if not args.config or not args.out:
        return _fail(2, "--config and --out are required")
    try:
        raw = Path(args.config).read_bytes()
    except OSError as exc:
        return _fail(2, "config unreadable: %s" % exc)
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        return _fail(2, "config is not valid JSON: %s" % exc)
    entry = EXPERIMENTS[args.experiment]
    try:
        cfg = entry.config_cls.model_validate(payload)
    except pydantic.ValidationError as exc:
        first = exc.errors()[0]
        loc = ".".join(str(p) for p in first["loc"]) or "<root>"
        return _fail(2, "config invalid at %s: %s" % (loc, first["msg"]))

    ctx = RunContext(verbose=args.verbose)
    started = time.perf_counter()
    try:
        outputs, code = entry.runner(cfg, ctx)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail(3, "%s: %s" % (type(exc).__name__, exc))
    except (ValueError, OSError) as exc:
        return _fail(2, "%s: %s" % (type(exc).__name__, exc))
    elapsed = time.perf_counter() - started

    manifest = {
        "experiment": args.experiment,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "versions": {
            "mckeanflow": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "wall_clock_seconds": round(elapsed, 6),
        "outputs": sorted(outputs),
    }
    outputs["manifest.json"] = _json_text(manifest)
    _write_outputs(Path(args.out), outputs)
    ctx.log("wrote %d files to %s in %.2fs"
            % (len(outputs), args.out, elapsed))
    if code == 4:
        return _fail(4, "certificate verdict INVALID; see certificate.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
