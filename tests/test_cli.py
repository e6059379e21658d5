import json
import os

import numpy as np
import pytest

from mckeanflow.cli import main


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


@pytest.mark.parametrize("dt, verdict", [(None, "proven away"),
                                         (6e-4, "kept")])
def test_verbose_reports_cfl_cover(tmp_path, capsys, dt, verdict):
    # default dt 3.8e-4 and covering dt 4.4e-4 on this grid; 6e-4 is still
    # admissible near the initial mean (8.3e-4), so it runs with the
    # per-step check
    payload = {"model": {"theta": 1.0, "sigma2": 0.3},
               "grid": {"x_lo": -4.0, "x_hi": 4.0, "n": 128},
               "init": {"mean": 0.5, "std": 0.4}, "T": 0.01}
    if dt is not None:
        payload["dt"] = dt
    cfg = write_cfg(tmp_path, payload)
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["pde-run", "--config", cfg, "--out", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["pde-run", "--config", cfg, "--out", str(loud),
                 "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "covering dt=0.000435761" in err
    assert "per-step CFL check " + verdict in err
    for name in ("trajectory.csv", "final_state.csv", "report.json"):
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_domain_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    nan_traj = tmp_path / "nan_traj.csv"
    nan_traj.write_text("t,W2_ref\n" + "".join(
        "%g,nan\n" % (0.1 * k) for k in range(20)))
    model = {"theta": 1.0, "sigma2": 0.3}
    cases = [
        # supercritical temperature: no nonzero fixed point to localize on
        ("localization", {"theta": 1.0, "sigma2_values": [1.5]}),
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
    ]
    for k, (experiment, payload) in enumerate(cases):
        cfg = write_cfg(tmp_path, payload, name="cfg%d.json" % k)
        out_dir = tmp_path / ("o%d" % k)
        assert main([experiment, "--config", cfg,
                     "--out", str(out_dir)]) == 2, experiment
        assert "code=2" in capsys.readouterr().err
        assert not out_dir.exists()


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


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MCKEANFLOW_THREADS", "zombie")
    cfg = write_cfg(tmp_path, {"model": {"theta": 1.0, "sigma2": 0.3}})
    assert main(["fixed-points", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "MCKEANFLOW_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("MCKEANFLOW_THREADS", "2")
    assert main(["fixed-points", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0


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
