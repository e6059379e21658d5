"""Self-tests of the benchmark: every check passes a sound output and
rejects a deliberately corrupted one, and BENCHMARK.json names exactly the
metrics the benchmark prints.

The file name keeps it out of a plain `pytest` run of the repository, so
the package's test suite takes no longer for the benchmark's presence.
Name it to run it:

    PYTHONPATH=src python3 -m pytest perfbench/tests/selftest.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import references as ref  # noqa: E402
import tracing  # noqa: E402
from workloads import min_curvature  # noqa: E402

THETA, SIGMA2 = 1.0, 0.3


@pytest.fixture(scope="module")
def gibbs():
    return ref.Gibbs(ref.DOUBLE_WELL, THETA, SIGMA2)


@pytest.fixture(scope="module")
def m_plus(gibbs):
    return gibbs.fixed_point_in(0.5, 1.5)


def test_critical_rejects_shifted_sigma2c():
    s2c = ref.critical_sigma2(ref.DOUBLE_WELL, THETA, 0.3, 1.0)
    assert checks.critical({"sigma2_critical": s2c + 1e-8}, s2c) == []
    assert checks.critical({"sigma2_critical": s2c + 1e-4}, s2c) != []


def test_fixed_point_count_of_two_is_rejected(gibbs):
    roots = gibbs.fixed_points(-3.0, 3.0, 121)
    slopes = [gibbs.slope(r) for r in roots]
    rows = [{"m": r, "fprime": s, "stable": s < 1.0} for r, s in
            zip(roots, slopes)]
    assert len(roots) == 3
    assert checks.fixed_points({"fixed_points": rows}, roots, slopes) == []
    two = {"fixed_points": [rows[0], rows[2]]}
    assert checks.fixed_points(two, roots, slopes) != []
    sweep = {"sweep": [{"sigma2": SIGMA2, "fixed_point_count": 2}]}
    assert checks.sweep_counts(sweep, {SIGMA2: 3}) != []
    sweep["sweep"][0]["fixed_point_count"] = 3
    assert checks.sweep_counts(sweep, {SIGMA2: 3}) == []


def _phase_state(sigma2_v: float, scale: float = 1.0):
    """A product density on the kinetic workload's grid, as final_state.csv
    rows, plus its cell area and the report the CLI would write."""
    n, (x_lo, x_hi), (v_lo, v_hi) = 64, (-3.5, 3.5), (-4.0, 4.0)
    dx, dv = (x_hi - x_lo) / n, (v_hi - v_lo) / n
    x = x_lo + (np.arange(n) + 0.5) * dx
    v = v_lo + (np.arange(n) + 0.5) * dv
    rho = np.outer(np.exp(-0.5 * (x - 0.1) ** 2 / 0.3),
                   np.exp(-0.5 * v ** 2 / sigma2_v))
    rho *= scale / (rho.sum() * dx * dv)
    table = np.zeros(n * n, dtype=[("x", float), ("v", float),
                                   ("value", float)])
    table["x"] = np.repeat(x, n)
    table["v"] = np.tile(v, n)
    table["value"] = rho.ravel()
    w = rho.ravel() * dx * dv / scale
    vvar = float(np.dot(w, table["v"] ** 2) - np.dot(w, table["v"]) ** 2)
    report = {"final_velocity_variance": vvar,
              "final_x_mean": float(np.dot(w, table["x"]))}
    return table, dx * dv, report


def test_kinetic_state_rejects_excess_mass():
    table, da, report = _phase_state(1.0)
    assert checks.kinetic_state(table, da, 1.0, report) == []
    table, da, report = _phase_state(1.0, scale=1.001)
    assert checks.kinetic_state(table, da, 1.0, report) != []


def test_kinetic_state_rejects_velocity_variance_off_by_5_percent():
    table, da, report = _phase_state(1.05)
    assert checks.kinetic_state(table, da, 1.0, report) != []


def _certificate(m_plus: float, alpha: float) -> dict:
    eps = 0.2 * m_plus
    return {
        "model": {"theta": THETA, "sigma2": SIGMA2},
        "epsilon": eps, "m_plus": m_plus,
        "constants": {"L": 2.0, "lambda": 1.0, "kappa1": 0.0,
                      "eta": 0.15000010728843732, "alpha_eps": alpha,
                      "eta_bar": 10.0, "q1": 5.0, "delta": m_plus - eps,
                      "delta_prime": 0.01, "C_rate": 100.0},
        "checks": [{"name": name, "passed": True, "n_samples": 20,
                    "worst_ratio": 0.5, "detail": ""}
                   for name in sorted(checks.CERTIFICATE_CHECKS)],
        "verdict": "VALID", "notes": "",
    }


def test_certificate_rejects_invalid_verdict(gibbs, m_plus):
    eps = 0.2 * m_plus
    ms = [eps, 0.5, 1.5, 3.0]
    ratios = [(gibbs.mean(m) - m_plus) / (m - m_plus) for m in ms]
    vpp = min_curvature(ref.DOUBLE_WELL)
    assert vpp == pytest.approx(-1.0, abs=1e-12)
    good = _certificate(m_plus, max(ratios) + 1e-3)
    assert checks.certificate(good, m_plus, vpp, ratios) == []
    bad = copy.deepcopy(good)
    bad["verdict"] = "INVALID"
    assert checks.certificate(bad, m_plus, vpp, ratios) != []
    # an alpha_eps below a contraction ratio the reference attains
    low = _certificate(m_plus, max(ratios) - 1e-3)
    assert checks.certificate(low, m_plus, vpp, ratios) != []


def test_self_time_counts_parallel_children_once():
    assert tracing._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)],
                            0.0, 10.0) == pytest.approx(4.0)
    assert tracing._covered([(-1.0, 1.0)], 0.0, 10.0) == pytest.approx(1.0)


def test_tracer_install_patches_every_name_and_restores():
    import mckeanflow.certificates as certs
    import mckeanflow.pde as pde
    originals = (pde.granular_run, pde.free_energy, certs.granular_run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert certs.granular_run is pde.granular_run
        assert pde.granular_run is not originals[0]
        assert pde.free_energy is not originals[1]
    finally:
        tracer.uninstall()
    assert (pde.granular_run, pde.free_energy,
            certs.granular_run) == originals


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    layer = {"%s.%s" % (name, stat) for name, stat, _ in
             tracing.LAYER_METRICS} | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
