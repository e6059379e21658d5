import contextlib
import io
import json
import os
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mckeanflow.cli import main
from mckeanflow.grid import DensityGrid1D, density_csv_text


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_list_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 10
    names = [l.split()[0] for l in lines]
    assert names == ["phase-diagram", "critical", "fixed-points", "pde-run",
                     "vfp-run", "particles-run", "certificate",
                     "counterexample", "localization", "rates-report"]
    assert all("required keys:" in l for l in lines)


def test_unknown_experiment(tmp_path, capsys):
    assert main(["frobnicate", "--config", "x", "--out", str(tmp_path)]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_missing_config_flag(tmp_path, capsys):
    assert main(["fixed-points"]) == 2
    assert "required" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["fixed-points", "--config", missing,
                 "--out", str(tmp_path / "o")]) == 2
    assert "unreadable" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["fixed-points", "--config", str(p),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_negative_sigma2_rejected_no_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": {"theta": 1.0, "sigma2": -0.3}})
    out_dir = tmp_path / "out"
    assert main(["fixed-points", "--config", cfg,
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "sigma2" in err and "code=2" in err
    assert not out_dir.exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": {"theta": 1.0, "sigma2": 0.3},
                               "bogus": 1})
    assert main(["fixed-points", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "bogus" in capsys.readouterr().err


def test_fixed_points_run_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"theta": 1.0, "sigma2": 0.3}})
    out_dir = tmp_path / "out"
    assert main(["fixed-points", "--config", cfg, "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert "manifest.json" in names
    man = json.loads((out_dir / "manifest.json").read_text())
    assert man["experiment"] == "fixed-points"
    assert len(man["config_sha256"]) == 64
    assert set(man["versions"]) >= {"mckeanflow", "numpy", "scipy", "python"}
    assert man["wall_clock_seconds"] >= 0
    assert sorted(man["outputs"]) == [n for n in names
                                      if n != "manifest.json"]
    payload = json.loads((out_dir / "report.json").read_text())
    roots = sorted(fp["m"] for fp in payload["fixed_points"])
    assert len(roots) == 3
    assert roots[1] == pytest.approx(0.0, abs=1e-9)
    assert roots[2] == pytest.approx(0.8544325465, abs=1e-6)
    stable = [fp["stable"] for fp in payload["fixed_points"]]
    assert stable.count(True) == 2 and stable.count(False) == 1


def test_critical_run(tmp_path):
    cfg = write_cfg(tmp_path, {"theta": 1.0})
    out_dir = tmp_path / "crit"
    assert main(["critical", "--config", cfg, "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["sigma2_critical"] == pytest.approx(0.8157865947,
                                                       abs=1e-6)


def test_cfl_failure_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "model": {"theta": 1.0, "sigma2": 0.3},
        "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
        "dt": 0.5,
        "T": 1.0,
    })
    out_dir = tmp_path / "o3"
    assert main(["pde-run", "--config", cfg, "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "code=3" in err and "CflError" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("dt, code", [(None, 0), (6e-4, 3)])
def test_verbose_reports_cfl_cover(tmp_path, capsys, dt, code):
    # the default dt is max_dt 4.1e-4 on this grid, and the verbose line
    # reports it with the step count; 6e-4 is above it, so it is refused
    # before any step
    payload = {"model": {"theta": 1.0, "sigma2": 0.3},
               "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 1024},
               "init": {"mean": 0.5, "std": 0.4}, "T": 0.01}
    if dt is not None:
        payload["dt"] = dt
    cfg = write_cfg(tmp_path, payload)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["pde-run", "--config", cfg, "--out", str(quiet)]) == code
    assert (capsys.readouterr().err == "") == (code == 0)
    assert main(["pde-run", "--config", cfg, "--out", str(loud),
                 "--verbose"]) == code
    err = capsys.readouterr().err
    if code:
        assert "CflError" in err and "admissible dt <= 0.000410015" in err
        assert not quiet.exists() and not loud.exists()
        return
    assert "dt=0.000410015, max_dt=0.000410015, 25 steps, 1024 cells" in err
    for name in ("trajectory.csv", "final_state.csv", "report.json"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_domain_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    # 64 cells written on [-10, 10], read onto a [-4, 4] grid of 64 cells
    wide = tmp_path / "wide.csv"
    wide.write_text(density_csv_text(DensityGrid1D.gaussian(-10.0, 10.0, 64,
                                                            0.0, 1.0)))
    nan_traj = tmp_path / "nan_traj.csv"
    nan_traj.write_text("t,W2_ref\n" + "".join(
        "%g,nan\n" % (0.1 * k) for k in range(20)))
    model = {"theta": 1.0, "sigma2": 0.3}
    cases = [
        # supercritical temperature: no nonzero fixed point to localize on
        ("localization", {"theta": 1.0, "sigma2_values": [1.5]}),
        # the certificate needs the two-well regime below sigma2_c = 0.816
        ("certificate", {"model": {"theta": 1.0, "sigma2": 1.5}},
         "supercritical"),
        # a mixture is sampled from a density, which needs a grid
        ("particles-run", {"model": model, "n_particles": 64, "seeds": [0],
                           "T": 0.1, "init": {"kind": "mixture",
                                              "components": [[1.0, 0.0,
                                                              0.5]]}}),
        ("rates-report", {"trajectory": missing,
                          "fits": [{"column": "w2",
                                    "kind": "exponential"}]}),
        # a pde-run trajectory without a reference logs W2_ref as nan
        ("rates-report", {"trajectory": str(nan_traj),
                          "fits": [{"column": "W2_ref",
                                    "kind": "exponential"}]}),
        ("pde-run", {"model": model,
                     "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
                     "init": {"kind": "csv", "path": missing}, "T": 0.1}),
        # V + theta*x**2 = -0.1*x**2 is not confining
        ("fixed-points", {"model": {"theta": -0.6, "sigma2": 1.0,
                                    "potential": {"kind": "quadratic"}}}),
        # the Gibbs tails reach past the widest quadrature domain
        ("fixed-points", {"model": {"theta": 1.0, "sigma2": 1e30}}),
        # seeds must lie in [0, 2**63): numpy turns a larger Philox key
        # into float64, so 2**63 and 2**63 + 1 would draw the same noise
        ("particles-run", {"model": model, "n_particles": 64,
                           "seeds": [2 ** 70], "T": 0.1}),
        ("particles-run", {"model": model, "n_particles": 64,
                           "seeds": [2 ** 63], "T": 0.1}),
        ("particles-run", {"model": model, "n_particles": 64,
                           "seeds": [-1], "T": 0.1}),
        # the ensemble needs at least 64 particles
        ("particles-run", {"model": model, "n_particles": 63,
                           "seeds": [0], "T": 0.1}),
        ("particles-run", {"model": model, "n_particles": 2,
                           "seeds": [0], "T": 0.1}),
        # mixture components need a positive width and a nonnegative weight
        ("pde-run", {"model": model,
                     "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
                     "init": {"kind": "mixture",
                              "components": [[1.0, 0.0, -0.5]]}, "T": 0.1}),
        ("pde-run", {"model": model,
                     "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
                     "init": {"kind": "mixture",
                              "components": [[1.0, 0.0, 0.0]]}, "T": 0.1}),
        ("pde-run", {"model": model,
                     "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
                     "init": {"kind": "mixture",
                              "components": [[1.5, -1.0, 0.5],
                                             [-0.5, 1.0, 0.5]]}, "T": 0.1}),
        # the far bump at 2/epsilon - 1 = 39 lies off the grid
        ("counterexample", {"grid": {"x_lo": -6.0, "x_hi": 10.0,
                                     "n": 256}}, "bump at x=39 "),
        # the near bump at -1 sits within 5*s0 of the lower edge
        ("counterexample", {"s0": 0.3, "grid": {"x_lo": -2.0, "x_hi": 41.0,
                                                "n": 256}}, "bump at x=-1 "),
        ("pde-run", {"model": model,
                     "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64},
                     "init": {"kind": "csv", "path": str(wide)}, "T": 0.1},
         "x column"),
        # each seed writes trajectory_seed<seed>.csv, so a repeat would
        # overwrite one and count its run twice
        ("particles-run", {"model": model, "n_particles": 64,
                           "seeds": [5, 5], "T": 0.1}, "distinct"),
        # both values would write phase_sigma2_0.3.csv
        ("phase-diagram", {"theta": 1.0, "sigma2_values": [0.3, 0.30000001],
                           "m_points": 3}, "phase_sigma2_0.3.csv"),
        # the stationary density's edge cells carry 2.7e-2 of its mass
        ("certificate", {"model": model, "x_lo": -1.0, "x_hi": 1.0,
                         "grid_n": 64, "n_runs": 1}, "mass 2.69e-02"),
        # every <name>_lo must lie below its <name>_hi
        ("phase-diagram", {"theta": 1.0, "sigma2_values": [0.3],
                           "m_lo": 1.0, "m_hi": -1.0}, "need m_lo < m_hi"),
        ("critical", {"theta": 1.0, "bracket_lo": 0.9, "bracket_hi": 0.4},
         "need bracket_lo < bracket_hi"),
        ("certificate", {"model": model, "x_lo": 4.5, "x_hi": -4.5},
         "need x_lo < x_hi"),
        ("vfp-run", {"model": model, "T": 0.1,
                     "phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 32,
                                    "v_lo": 4.0, "v_hi": -4.0, "n_v": 32}},
         "need v_lo < v_hi"),
        ("rates-report", {"trajectory": str(nan_traj),
                          "fits": [{"column": "W2_ref", "kind": "power",
                                    "t_lo": 1.0, "t_hi": 0.5}]},
         "need t_lo < t_hi"),
        # options that no run set are refused as unknown keys
        ("fixed-points", {"model": {"theta": 1.0, "sigma2": 0.3,
                                    "potential": {
                                        "kind": "polynomial",
                                        "coefficients": [0, 0, -0.5, 0,
                                                         0.25],
                                        "wells": [[1.0, 0.0, 1.0]]}}},
         "wells", "Extra inputs"),
        ("vfp-run", {"model": model, "T": 0.1, "v_std": 0.5,
                     "phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 32,
                                    "v_lo": -4.0, "v_hi": 4.0, "n_v": 32}},
         "v_std", "Extra inputs"),
        ("certificate", {"model": model, "run_checks": False},
         "run_checks", "Extra inputs"),
        ("localization", {"search_radius": 0.5}, "search_radius",
         "Extra inputs"),
        ("particles-run", {"model": model, "n_particles": 64, "seeds": [0],
                           "T": 0.1, "with_proxy": False}, "with_proxy",
         "Extra inputs"),
    ]
    for k, (experiment, payload, *named) in enumerate(cases):
        cfg = write_cfg(tmp_path, payload, name="cfg%d.json" % k)
        out_dir = tmp_path / ("o%d" % k)
        assert main([experiment, "--config", cfg,
                     "--out", str(out_dir)]) == 2, experiment
        err = capsys.readouterr().err
        assert "code=2" in err
        assert all(needle in err for needle in named), err
        assert not out_dir.exists()


@pytest.mark.parametrize("experiment, payload", [
    ("pde-run", {"grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64}, "T": 0.01}),
    ("vfp-run", {"phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 32,
                                "v_lo": -4.0, "v_hi": 4.0, "n_v": 32},
                 "T": 0.05}),
    ("particles-run", {"n_particles": 64, "seeds": [0], "T": 0.1}),
])
def test_step_budget_exit_2(tmp_path, capsys, experiment, payload):
    # 1e-300 would take about 1e298 steps: refused before the first one
    cfg = write_cfg(tmp_path, dict(payload, model={"theta": 1.0,
                                                   "sigma2": 0.3},
                                   dt=1e-300))
    out_dir = tmp_path / "out"
    started = time.perf_counter()
    assert main([experiment, "--config", cfg, "--out", str(out_dir)]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "AnalysisError" in err and "dt=1e-300" in err
    assert "budget of 100000000" in err
    assert not out_dir.exists()


_FLAWS = ("dt <= 0", "dt nan", "reversed bounds", "sigma2 <= 0",
          "unknown key")


@st.composite
def _small_runs(draw):
    """(experiment, config, allowed exit codes) for a small CLI run: a
    16-64 cell grid and at most 2000 steps, sometimes with one bad value,
    which must exit 2."""
    experiment = draw(st.sampled_from(("pde-run", "vfp-run",
                                       "particles-run", "fixed-points")))
    model = {"theta": draw(st.floats(-0.5, 2.0)),
             "sigma2": draw(st.floats(0.05, 2.0))}
    payload = {"model": model}
    n = draw(st.integers(16, 64))
    lo, hi = draw(st.floats(-6.0, -2.0)), draw(st.floats(2.0, 6.0))
    grid = {"x_lo": lo, "x_hi": hi, "n": n}
    dt = draw(st.floats(1e-4, 2e-2))
    run = {"dt": dt, "T": dt * draw(st.integers(1, 2000)),
           "init": {"mean": draw(st.floats(-1.5, 1.5)),
                    "std": draw(st.floats(0.2, 0.8))}}
    if draw(st.booleans()):
        run["reference"] = "self-consistent"
    if experiment == "pde-run":
        payload.update(run, grid=grid)
    elif experiment == "vfp-run":
        payload.update(run, phase_grid={"x_lo": lo, "x_hi": hi, "n_x": n,
                                        "v_lo": -4.0, "v_hi": 4.0,
                                        "n_v": n})
    elif experiment == "particles-run":
        payload.update(run, n_particles=draw(st.integers(64, 256)),
                       seeds=draw(st.lists(st.integers(0, 2 ** 32),
                                           min_size=1, max_size=2)))
        if "reference" in run or draw(st.booleans()):
            payload["grid"] = grid
    flaw = draw(st.one_of(st.none(), st.sampled_from(_FLAWS)))
    if flaw is None:
        return experiment, payload, {0, 2, 3}
    if flaw == "dt <= 0":
        payload["dt"] = draw(st.sampled_from((0.0, -dt)))
    elif flaw == "dt nan":
        payload["dt"] = float("nan")
    elif flaw == "reversed bounds":
        key = "phase_grid" if experiment == "vfp-run" else "grid"
        payload[key] = dict(payload.get(key, grid), x_lo=hi, x_hi=lo)
    elif flaw == "sigma2 <= 0":
        model["sigma2"] = draw(st.sampled_from((0.0, -model["sigma2"])))
    else:
        payload["bogus"] = 1
    return experiment, payload, {2}


# coarse grids and tight domains warn about regularized widths and edge mass
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=30, deadline=timedelta(seconds=10))
@given(case=_small_runs())
# under-resolved x grid: the spectral transport rings and the run stops
@example(case=("vfp-run", {
    "model": {"theta": 1.0, "sigma2": 1.0},
    "phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 32,
                   "v_lo": -4.0, "v_hi": 4.0, "n_v": 32},
    "init": {"mean": 0.3, "std": 0.5}, "T": 0.5,
    "reference": "self-consistent"}, {3}))
def test_small_configs_exit_cleanly(case):
    experiment, payload, codes = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), payload)
        out_dir = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([experiment, "--config", cfg, "--out", str(out_dir)])
        assert code in codes, err.getvalue()
        assert out_dir.exists() == (code == 0)
        failures = [line for line in err.getvalue().splitlines()
                    if line.startswith("mckeanflow: status=error code=")]
        if code == 0:
            assert failures == []
            assert (out_dir / "manifest.json").exists()
        else:
            assert len(failures) == 1
            assert failures[0].startswith(
                "mckeanflow: status=error code=%d " % code)


def test_particles_run_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"theta": 1.0, "sigma2": 0.3},
        "n_particles": 128,
        "seeds": [0, 1],
        "dt": 1e-2,
        "T": 0.2,
        "record_every": 5,
        "init": {"mean": 0.8, "std": 0.3},
    })
    out_dir = tmp_path / "po"
    assert main(["particles-run", "--config", cfg,
                 "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert any(n.startswith("trajectory_seed") and n.endswith(".csv")
               for n in names)
    assert "report.json" in names
    report = json.loads((out_dir / "report.json").read_text())
    assert report["seeds"] == [0, 1]
    assert "mean" in report["median_final"]


def test_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"theta": 1.0, "sigma2": 0.3},
        "n_particles": 64,
        "seeds": [3, 4],
        "dt": 1e-2,
        "T": 0.1,
        "record_every": 5,
    })
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        assert main(["particles-run", "--config", cfg, "--threads", "1",
                     "--out", str(out_dir)]) == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # carries wall-clock time
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_rerun_byte_identical_across_thread_counts(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"theta": 1.0, "sigma2": 0.3},
        "mode": "kinetic",
        "n_particles": 128,
        "seeds": [3, 4, 5],
        "dt": 1e-2,
        "T": 0.1,
        "record_every": 5,
    })
    outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / ("t" + threads)
        assert main(["particles-run", "--config", cfg, "--threads", threads,
                     "--out", str(out_dir)]) == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "manifest.json":
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name).read_bytes()


def test_particle_reference_starts_from_initial_density_mean(tmp_path):
    # the same bump as a mixture and as a gaussian init must relax to the
    # same reference: a mixture leaves init.mean at its default 0.0, so the
    # reference search has to start from the initial density's mean
    base = {"model": {"theta": 1.0, "sigma2": 0.3}, "n_particles": 1024,
            "seeds": [1, 2], "T": 3.0,
            "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 512},
            "reference": "self-consistent"}
    w2 = []
    for tag, init in (("mix", {"kind": "mixture",
                               "components": [[1.0, 1.0, 0.3]]}),
                      ("gauss", {"kind": "gaussian", "mean": 1.0,
                                 "std": 0.3})):
        cfg = write_cfg(tmp_path, dict(base, init=init), name=tag + ".json")
        assert main(["particles-run", "--config", cfg,
                     "--out", str(tmp_path / tag)]) == 0
        report = json.loads((tmp_path / tag / "report.json").read_text())
        w2.append(report["median_final"]["w2_ref"])
    assert w2[1] < 0.05
    assert abs(w2[0] - w2[1]) <= 0.05


def test_rates_report_roundtrip(tmp_path):
    # synthesize a decaying trajectory, then fit it back
    t = np.linspace(0.0, 5.0, 200)
    w2 = 3.0 * np.exp(-0.7 * t)
    csv = "t,w2\n" + "\n".join("%.17g,%.17g" % (a, b)
                                for a, b in zip(t, w2))
    traj = tmp_path / "traj.csv"
    traj.write_text(csv + "\n")
    cfg = write_cfg(tmp_path, {
        "trajectory": str(traj),
        "fits": [{"column": "w2", "kind": "exponential", "t_lo": 0.5}],
    })
    out_dir = tmp_path / "rates"
    assert main(["rates-report", "--config", cfg,
                 "--out", str(out_dir)]) == 0
    payload = json.loads((out_dir / "report.json").read_text())
    fit = payload["fits"][0]
    assert fit["rate"] == pytest.approx(0.7, rel=1e-6)
    assert fit["r_squared"] > 0.999999


def test_vfp_run_smoke(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": {"theta": 1.0, "sigma2": 0.3},
        "phase_grid": {"x_lo": -3.0, "x_hi": 3.0, "n_x": 64,
                       "v_lo": -3.0, "v_hi": 3.0, "n_v": 48},
        "init": {"mean": 0.5, "std": 0.35},
        "T": 0.05,
        "record_every": 4,
    })
    out_dir = tmp_path / "vfp"
    assert main(["vfp-run", "--config", cfg, "--out", str(out_dir)]) == 0
    assert (out_dir / "trajectory.csv").exists()
    header = (out_dir / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_vfp_run_dt_checked_against_transport_bound_only(tmp_path, capsys):
    # c09's grid: transport bound dx/max|v| = 2.78e-2; dt = 5e-3 is above
    # the force scale dv/max|force| (about 2.8e-3) and runs
    payload = {
        "model": {"theta": 1.0, "sigma2": 1.0},
        "phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 64,
                       "v_lo": -4.0, "v_hi": 4.0, "n_v": 64},
        "init": {"kind": "equilibrium", "mean": 0.0, "shift": 0.3},
        "T": 0.1,
    }
    for dt, code in ((0.03, 3), (5e-3, 0)):
        cfg = write_cfg(tmp_path, dict(payload, dt=dt))
        out_dir = tmp_path / ("vfp%g" % dt)
        assert main(["vfp-run", "--config", cfg,
                     "--out", str(out_dir)]) == code
        err = capsys.readouterr().err
        if code:
            assert "CflError" in err and "transport CFL" in err
            assert not out_dir.exists()
        else:
            assert err == ""
            assert (out_dir / "trajectory.csv").exists()


def test_invalid_certificate_exit_4(tmp_path, monkeypatch, capsys):
    # exercise the exit-code plumbing without paying for a full validation
    from mckeanflow import cli as climod
    from mckeanflow.certificates import CertificateReport

    def fake_build(model, **kwargs):
        return CertificateReport(
            theta=model.theta, sigma2=model.sigma2, epsilon=0.17,
            m_plus=0.85, L=2.0, lam=1.0, kappa1=0.0, eta=0.15,
            alpha_eps=0.92, eta_bar=178.0, q1=8.0e4, delta=0.68,
            delta_prime=4.5e-5, C_rate=5.7e7, checks=[],
            verdict="INVALID", notes="stub")

    monkeypatch.setattr(climod, "build_certificate", fake_build)
    cfg = write_cfg(tmp_path, {"model": {"theta": 1.0, "sigma2": 0.3}})
    out_dir = tmp_path / "cert"
    assert main(["certificate", "--config", cfg,
                 "--out", str(out_dir)]) == 4
    assert "code=4" in capsys.readouterr().err
    # the report is still written so the verdict can be inspected
    payload = json.loads((out_dir / "certificate.json").read_text())
    assert payload["verdict"] == "INVALID"


def test_every_experiment_runs(tmp_path):
    # one small config per experiment, so a runner that no other test
    # reaches still runs once; a new experiment needs a case here
    import mckeanflow as mk
    from mckeanflow.cli import EXPERIMENTS

    model = {"theta": 1.0, "sigma2": 0.3}
    traj = tmp_path / "traj.csv"
    t = np.linspace(0.0, 5.0, 50)
    traj.write_text("t,w2\n" + "".join("%.17g,%.17g\n" % (a, np.exp(-a))
                                         for a in t))
    cases = {
        "phase-diagram": {"theta": 1.0, "sigma2_values": [0.3, 1.2],
                          "m_points": 21},
        "critical": {"theta": 1.0, "bracket_lo": 0.7, "bracket_hi": 0.9},
        "fixed-points": {"model": model},
        "pde-run": {"model": model, "T": 0.05,
                    "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 64}},
        "vfp-run": {"model": model, "T": 0.05,
                    "phase_grid": {"x_lo": -3.5, "x_hi": 3.5, "n_x": 32,
                                   "v_lo": -4.0, "v_hi": 4.0, "n_v": 32}},
        "particles-run": {"model": model, "n_particles": 64, "seeds": [0],
                          "dt": 1e-2, "T": 0.1},
        "certificate": {"model": model, "grid_n": 256, "n_runs": 1},
        "counterexample": {"epsilon": 0.06, "s0": 0.06, "T": 0.001},
        "localization": {},
        "rates-report": {"trajectory": str(traj),
                         "fits": [{"column": "w2", "kind": "exponential"}]},
    }
    assert set(cases) == set(EXPERIMENTS)
    for experiment, payload in cases.items():
        cfg = write_cfg(tmp_path, payload, name=experiment + ".json")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / experiment)]) == 0, experiment

    out = tmp_path / "phase-diagram"
    report = json.loads((out / "report.json").read_text())
    assert [(row["sigma2"], row["fixed_point_count"])
            for row in report["sweep"]] == [(0.3, 3), (1.2, 1)]
    for s2 in (0.3, 1.2):
        sc = mk.SelfConsistency1D(mk.standard_model(1.0, s2))
        rows = np.loadtxt(out / ("phase_sigma2_%g.csv" % s2), delimiter=",",
                          skiprows=1)
        assert len(rows) == 21
        for m, f, fprime, g in rows[::5]:
            logz, mean, var = sc.moments(m)
            assert (f, fprime, g) == pytest.approx(
                (mean, 2.0 / s2 * var, -s2 * logz), rel=1e-12, abs=1e-12)

    report = json.loads((tmp_path / "localization" / "report.json")
                        .read_text())
    assert report["jacobians"] == [
        mk.localization_jacobian(mk.standard_model(1.0, s2), 1.0)
        for s2 in report["sigma2_values"]]
    assert report["low_temperature_limit"] == 0.5
