"""Traced mode: spans and counts around the package's public functions.

The wrappers are installed from outside the package.  A function is
replaced under every name that refers to it in any loaded mckeanflow
module (for example `certificates.granular_run` and `pde.free_energy`), and
a method is replaced on its class.  Each call records one span (id, name,
start, end, parent) in memory; spans are written as JSON when the run ends.
Calls made from worker threads take as parent the span open on the main
thread, which is waiting for them.

A span's self time is its duration minus the part of its interval that its
child spans cover; children running in parallel threads are counted once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, function or Class.method, span name); several functions may
# share a span name, which then names one layer metric
TARGETS = (
    ("model", "Potential.hess_inf", "model.hess_inf"),
    ("meanfield", "SelfConsistency1D.moments", "meanfield.moments"),
    ("meanfield", "find_fixed_points", "meanfield.find_fixed_points"),
    ("meanfield", "contraction_factor", "meanfield.contraction_factor"),
    ("meanfield", "critical_sigma2", "meanfield.critical_sigma2"),
    ("meanfield", "localization_jacobian", "meanfield.localization_jacobian"),
    ("meanfield", "discrete_fixed_mean", "meanfield.discrete_fixed_mean"),
    ("pde", "GranularSolver.step", "pde.granular_step"),
    ("pde", "granular_run", "pde.granular_run"),
    ("pde", "VfpSolver.step", "pde.vfp_step"),
    ("pde", "vfp_run", "pde.vfp_run"),
    *(("grid", fn, "grid.diagnostics") for fn in (
        "free_energy", "kinetic_free_energy", "entropy", "relative_entropy",
        "fisher_information", "wasserstein2", "total_variation",
        "local_equilibrium", "local_equilibrium_kinetic")),
    ("particles", "step_overdamped", "particles.step"),
    ("particles", "step_kinetic", "particles.step"),
    ("particles", "free_energy_proxy", "particles.free_energy_proxy"),
    ("particles", "run_particles", "particles.run"),
    ("certificates", "lsi_eta", "certificates.lsi_eta"),
    ("certificates", "structural_constants",
     "certificates.structural_constants"),
    ("certificates", "build_certificate", "certificates.build_certificate"),
    ("cli", "main", "cli.main"),
)

# per-layer metrics: (span name, statistic, unit)
LAYER_METRICS = (
    ("model.hess_inf", "calls", "count"),
    ("model.hess_inf", "self_s", "s"),
    ("meanfield.moments", "calls", "count"),
    ("meanfield.moments", "us_per_call", "us"),
    ("meanfield.find_fixed_points", "self_s", "s"),
    ("meanfield.contraction_factor", "self_s", "s"),
    ("meanfield.critical_sigma2", "self_s", "s"),
    ("meanfield.localization_jacobian", "self_s", "s"),
    ("meanfield.discrete_fixed_mean", "self_s", "s"),
    ("pde.granular_step", "calls", "count"),
    ("pde.granular_step", "us_per_call", "us"),
    ("pde.granular_run", "self_s", "s"),
    ("pde.vfp_step", "calls", "count"),
    ("pde.vfp_step", "us_per_call", "us"),
    ("pde.vfp_run", "self_s", "s"),
    ("grid.diagnostics", "calls", "count"),
    ("grid.diagnostics", "self_s", "s"),
    ("particles.step", "calls", "count"),
    ("particles.step", "us_per_call", "us"),
    ("particles.free_energy_proxy", "calls", "count"),
    ("particles.free_energy_proxy", "us_per_call", "us"),
    ("particles.run", "self_s", "s"),
    ("certificates.lsi_eta", "self_s", "s"),
    ("certificates.structural_constants", "self_s", "s"),
    ("certificates.build_certificate", "self_s", "s"),
    ("cli.main", "self_s", "s"),
)


def _covered(children: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of the child intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(children):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Records spans while installed; create it on the main thread."""

    def __init__(self):
        self._names: list[str] = []
        self._spans: list[tuple[int, int, float, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self._names:
            self._names.append(name)
        index = self._names.index(name)
        local, main, ids = self._local, self._main_stack, self._ids
        spans, clock = self._spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent))

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [mod for name, mod in list(sys.modules.items())
                  if name == "mckeanflow" or name.startswith("mckeanflow.")]
        for module, path, name in TARGETS:
            mod = importlib.import_module("mckeanflow." + module)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, attr, self._wrap(cls.__dict__[attr], name))
                continue
            original = getattr(mod, path)
            traced = self._wrap(original, name)
            for owner in loaded:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._replace(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def stats(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        children = defaultdict(list)
        for _, _, start, end, parent in self._spans:
            children[parent].append((start, end))
        out = {name: [0, 0.0] for name in self._names}
        for sid, index, start, end, _ in self._spans:
            entry = out[self._names[index]]
            entry[0] += 1
            entry[1] += (end - start) - _covered(children.get(sid, []),
                                                 start, end)
        return {name: (calls, self_s) for name, (calls, self_s)
                in out.items()}

    def layer_metrics(self) -> dict[str, dict]:
        stats = self.stats()
        metrics = {}
        for name, stat, unit in LAYER_METRICS:
            calls, self_s = stats.get(name, (0, 0.0))
            value = {"calls": calls, "self_s": self_s,
                     "us_per_call": 1e6 * self_s / calls if calls else 0.0}
            metrics["%s.%s" % (name, stat)] = {"value": value[stat],
                                               "unit": unit}
        return metrics

    def write(self, path) -> None:
        spans = sorted(self._spans)
        t0 = spans[0][2] if spans else 0.0
        payload = {
            "names": self._names,
            "columns": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [[sid, index, start - t0, end - t0, parent]
                      for sid, index, start, end, parent in spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
