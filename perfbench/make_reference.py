"""Regenerate perfbench/reference.json, the stored final states.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs the named workloads (default: all) once for each of the N_IC initial
conditions and stores the final phi at the probe nodes; entries of other
workloads are kept.  Only needed when a change is
meant to alter results beyond the reference tolerance; say so in the
change's notes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, PINNED_ENV  # noqa: E402
from workload import N_IC, WORKLOADS  # noqa: E402


def main():
    path = os.path.join(HERE, "reference.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    env = dict(os.environ, **PINNED_ENV)
    for name in sys.argv[1:] or WORKLOADS:
        table[name] = {}
        for seed in range(N_IC):
            out = os.path.join(OUT, "reference-%s-%d" % (name, seed))
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "workload.py"),
                 "--workload", name, "--seed", str(seed), "--out", out,
                 "--start", repr(time.monotonic()), "--no-reference"],
                env=env, cwd=ROOT, capture_output=True, text=True,
                check=True)
            shutil.rmtree(out, ignore_errors=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if any(result["failures"]):
                raise SystemExit("%s seed %d fails its checks: %s"
                                 % (name, seed, result["failures"]))
            table[name][str(result["ic_seed"])] = result["final_probes"]
            print(name, seed, "ok", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump(table))


def dump(table):
    """JSON text with one line per stored initial condition."""
    parts = []
    for name, entries in table.items():
        rows = ",\n".join('  "%s": %s' % (k, json.dumps(v))
                          for k, v in entries.items())
        parts.append(' "%s": {\n%s\n }' % (name, rows))
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
