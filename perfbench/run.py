"""chbs benchmark: end-to-end metrics, or the traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (desk-run, obstacle-active or log-sweep, see README.md)
as a closed loop with one caller: each repeat is a fresh process, started
only after the previous one ended, until ``--seconds`` have passed and at
least MIN_REPEATS repeats are done.  Every repeat's outputs are checked.
With ``--trace 0`` the last line reports the medians of the end-to-end
metrics; with ``--trace 1`` one more, traced repeat follows and the last
line reports its per-layer metrics.  Earlier lines record the environment
and each repeat.  Run from the root of a chbs source checkout; nothing is
installed, the program is imported from ``src``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

from workload import RUNS_PER_REPEAT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_REPEATS = 3
# A run must end within 180 s; no repeat may run past this budget.
BUDGET_S = 170

# One BLAS thread per process keeps the log-sweep's two member threads
# within the machine's cores and makes runs repeatable.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, index, "size")) as fh:
                text = fh.read().strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            return int(text.rstrip("KM")) * mult
    except OSError:
        pass
    return None


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "l3_bytes": _l3_bytes(),
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
        "omp_threads": PINNED_ENV["OMP_NUM_THREADS"],
        "machine": platform.machine(),
    }


def run_repeat(args, index, traced, timeout):
    """One workload process; returns its parsed result or a crash record."""
    out = os.path.join(OUT, "%s-seed%d-%d" % (args.workload, args.seed,
                                              index))
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", out]
    if traced:
        cmd.append("--trace")
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    cmd += ["--start", repr(start)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
        error = proc.stderr.strip().splitlines()[-1:] if proc.stderr else []
    except subprocess.TimeoutExpired:
        result, error = None, ["timed out after %.0f s" % timeout]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if result is None:
        n = RUNS_PER_REPEAT[args.workload]
        reason = "workload process failed: %s" % " ".join(error)
        return {"failures": [[reason]] * n, "crashed": True}
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny mesh and a few steps, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "chbs", "stepper.py")):
        print("chbs sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    print(json.dumps({"environment": environment()}), flush=True)

    repeats = []
    began = time.monotonic()
    deadline = began + BUDGET_S
    while (len(repeats) < MIN_REPEATS
           or time.monotonic() - began < args.seconds):
        repeats.append(run_repeat(args, len(repeats), False,
                                  deadline - time.monotonic()))
    traced = None
    if args.trace:
        traced = run_repeat(args, len(repeats), True,
                            deadline - time.monotonic())

    everything = repeats + ([traced] if traced is not None else [])
    attempted = sum(len(r["failures"]) for r in everything)
    failed = sum(1 for r in everything for fails in r["failures"] if fails)
    for r in everything:
        print(json.dumps({k: v for k, v in r.items()
                          if k not in ("layers", "final_probes")}))
        for fails in r["failures"]:
            for msg in fails:
                print("check failed: %s" % msg, file=sys.stderr)
    timed = [r for r in repeats
             if not r.get("crashed") and r["setup_s"] is not None]
    if not timed or (traced is not None and traced.get("crashed")):
        print("no repeat completed; no metrics to report", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in everything if not r.get("crashed")}
    deterministic = len(digests) == 1
    if not deterministic:
        print("outputs differ between repeats of one seed: %d digests"
              % len(digests), file=sys.stderr)

    walls = [r["wall_s"] for r in timed]
    if traced is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in timed),
                        "s"),
            "steps_per_s": (statistics.median(
                r["steps"] / (r["wall_s"] - r["setup_s"]) for r in timed),
                "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in timed), "MB"),
        }
    else:
        metrics = {k: (v["value"], v["unit"])
                   for k, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (
            traced["wall_s"] - statistics.median(walls), "s")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
