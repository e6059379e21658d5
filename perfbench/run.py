"""Benchmark of the mckeanflow CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` and
driven in-process through its public entry point `mckeanflow.cli.main`.
One run:

1. set-up: interpreter start, `import mckeanflow`, and writing the
   workload's configs, which are drawn from the seed;
2. timed phase: whole rounds of the workload's invocations, repeated until
   S seconds have passed; each round's wall time is one sample;
3. with --trace 1, one more round with every layer wrapped (tracing.py);
4. verification: the first round's outputs are checked against references
   computed apart from the package (references.py, checks.py), and every
   later round must reproduce them byte for byte.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics, or with
--trace 1 the per-layer ones.  Results and traces go to perfbench/out/.
"""

import time

_MODULE_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def process_age() -> float:
    """Seconds since this process was started.

    The start time comes from /proc (clock ticks since boot, compared with
    the boot-time clock), so it includes interpreter start-up; where that
    is unavailable, the time since this module began executing is used.
    """
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        ticks = int(stat[stat.rindex(")") + 2:].split()[19])
        age = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - ticks / os.sysconf("SC_CLK_TCK"))
        if 0.0 < age < 600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _MODULE_START


def run_round(cli, workload, cfg_dir: Path, out_dir: Path):
    """All invocations once: (wall seconds, {failed invocation: reason})."""
    failures = {}
    start = time.perf_counter()
    for inv in workload.invocations:
        try:
            code = cli.main(inv.argv(cfg_dir, out_dir))
        except Exception as exc:  # a traceback is a failed operation
            code = "%s: %s" % (type(exc).__name__, exc)
        if code != 0:
            failures[inv.name] = "exit %s" % (code,)
    return time.perf_counter() - start, failures


def compare_rounds(first: Path, other: Path) -> list[str]:
    """Every output of `other` equals the one of `first`, manifests aside
    (they carry wall-clock times)."""
    errors = []
    for path in sorted(first.rglob("*")):
        if path.is_dir() or path.name == "manifest.json":
            continue
        twin = other / path.relative_to(first)
        if not twin.is_file() or twin.read_bytes() != path.read_bytes():
            errors.append("%s differs from the first round"
                          % twin.relative_to(other.parent))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import mckeanflow
        from mckeanflow import cli
    except ImportError as exc:
        print("perfbench: cannot import mckeanflow from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    if Path(mckeanflow.__file__).resolve().parent.parent != SRC:
        print("perfbench: mckeanflow was imported from %s, not %s"
              % (mckeanflow.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of %s" % ", ".join(WORKLOADS))

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / ("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cfg_dir = work / "cfg"
    cfg_dir.mkdir(parents=True)
    for inv in workload.invocations:
        (cfg_dir / (inv.name + ".json")).write_text(json.dumps(inv.config))
    setup_s = process_age()

    walls, failures, round_dirs = [], [], []
    started = time.perf_counter()
    while not round_dirs or time.perf_counter() - started < args.seconds:
        round_dirs.append(work / ("round%d" % len(round_dirs)))
        wall, failed = run_round(cli, workload, cfg_dir, round_dirs[-1])
        walls.append(wall)
        failures.append(failed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(walls)

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            round_dirs.append(work / "traced")
            traced_wall, failed = run_round(cli, workload, cfg_dir,
                                            round_dirs[-1])
        finally:
            tracer.uninstall()
        failures.append(failed)
        tracer.write(work / "trace.json")
        metrics = tracer.layer_metrics()
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall_s,
                                       "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    # Correctness speaks of the operations that did not fail; failed ones
    # are counted in `failed` and left no outputs to check.
    for i, failed in enumerate(failures):
        for name, reason in failed.items():
            print("perfbench: %s failed in %s: %s"
                  % (name, round_dirs[i].name, reason), file=sys.stderr)
    errors = []
    try:
        errors += workload.verify(round_dirs[0], set(failures[0]))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        errors.append("outputs unreadable: %s: %s" % (type(exc).__name__, exc))
    for other in round_dirs[1:]:
        errors += compare_rounds(round_dirs[0], other)
    if args.trace and not failures[-1] and workload.particle_steps():
        import checks
        errors += checks.step_counts(
            tracer.stats().get("particles.step", (0, 0.0))[0],
            workload.particle_steps())
    for e in errors:
        print("perfbench: check failed: %s" % e, file=sys.stderr)
    if not errors:
        for d in round_dirs:
            shutil.rmtree(d, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": len(workload.invocations) * len(round_dirs),
        "failed": sum(len(f) for f in failures),
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed,
             rounds=len(round_dirs), round_walls_s=walls), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
