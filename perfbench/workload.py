"""One repeat of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --out DIR \
        --start T [--trace] [--smoke]

``--start`` is the ``time.monotonic()`` reading taken by the parent just
before it launched this process, so set-up time includes interpreter
start and imports.  The workload's inputs come from ``--seed`` alone.
After the workload the output checks run (untimed, untraced) and one JSON
line with timings, counts, check failures and an output digest is printed.
With ``--trace`` the spans are written to ``DIR/../spans-*.json`` and the
per-layer split is included.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import threading
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("desk-run", "obstacle-active", "log-sweep")

# Sweep members each count as one run.
RUNS_PER_REPEAT = {"desk-run": 1, "obstacle-active": 1, "log-sweep": 3}

# Stored references exist for this many initial conditions; --seed picks
# one of them, so every repeat can be checked against a reference.
N_IC = 16

# Final-state check: nodal phi may differ from the stored reference by
# REF_FACTOR * n_steps * newton_tol.  Each step is solved to a residual
# below newton_tol and the per-step errors add up at most linearly over
# a dissipative run; a change that only alters roundoff or the Newton
# path (tolerance, LU reuse) moves phi by about 5 * newton_tol over 50
# steps, far inside this bound.
REF_FACTOR = 10.0
N_PROBES = 32

SWEEP_LADDER = (0.2, 0.1, 0.05)


def scale(smoke):
    """Mesh, steps and recording stride of each workload."""
    if smoke:
        return dict(rings=4, sectors=16, steps={"desk-run": 4,
                    "obstacle-active": 4, "log-sweep": 4}, sweep_stride=2)
    return dict(rings=40, sectors=160, steps={"desk-run": 100,
                "obstacle-active": 100, "log-sweep": 50}, sweep_stride=10)


def _quiet(*_args):
    pass


class RunProbe:
    """Pass-through around ``stepper.run``: entry times and results."""

    def __init__(self, run):
        self._run = run
        self.entries = []
        self.trajectories = []

    def __call__(self, *args, **kwargs):
        self.entries.append(time.monotonic())
        traj = self._run(*args, **kwargs)
        self.trajectories.append(traj)
        return traj


def pinned_profile(np, ops, pair):
    """Criterion-7 data: a profile pinned at the obstacle on both caps.

    Returns the profile and the constant loads that hold it in place
    except for a flat reaction the obstacle must supply on the caps.
    """
    from scipy.sparse.linalg import splu
    xy = ops.mesh.vertices
    loop = ops.mesh.boundary_loop
    x, xb = xy[:, 0], xy[loop, 0]
    W = 0.2
    phi_dag = np.where(x >= W, 1.0,
                       np.where(x <= -W, -1.0, np.sin(0.5 * np.pi * x / W)))
    psi_dag = phi_dag[loop]
    xi = np.where(x >= W, 1.0, np.where(x <= -W, -1.0, 0.0))
    xi_g = np.where(xb >= W, 1.0, np.where(xb <= -W, -1.0, 0.0))
    f = xi + pair.bulk_pi(phi_dag) \
        + ops.mass_bulk_solver().solve(ops.K_bulk @ phi_dag)
    g = xi_g + pair.boundary_pi(psi_dag) \
        + splu(ops.M_bdry.tocsc()).solve(ops.K_bdry @ psi_dag)
    return phi_dag, f, g


def desk_run(ctx):
    """The default desk config through ``cli.execute_run``."""
    cli = ctx["cli"]
    cfg = replace(cli.RunConfig(), mesh_rings=ctx["rings"],
                  mesh_sectors=ctx["sectors"],
                  t_final=ctx["steps"] * 1e-3,
                  ic="random(0.1, %d)" % ctx["ic_seed"],
                  out_dir=ctx["out"])
    code, _ = cli.execute_run(cfg, echo=_quiet)
    return {"exit": code}


def obstacle_active(ctx):
    """Criterion 7 at eps = 0.05 from the library, seeded perturbation."""
    np, cli, diskfem, graphs, stepper, diagnostics = (
        ctx[k] for k in ("np", "cli", "diskfem", "graphs", "stepper",
                         "diagnostics"))
    ops = diskfem.assemble(diskfem.gen_disk_mesh(ctx["rings"],
                                                 ctx["sectors"]))
    pair = graphs.preset_pair("obstacle")
    phi_dag, f, g = pinned_profile(np, ops, pair)
    noise = 2.0 * cli.xorshift64_uniform(ctx["ic_seed"], ops.mesh.n_bulk) - 1
    phi0 = np.clip(phi_dag + 0.01 * noise, -1.0, 1.0)
    params = stepper.SchemeParams(h=1e-3, t_final=ctx["steps"] * 1e-3,
                                  tau=0.1, sigma=0.1, eps=0.05)
    data = stepper.problem_data(ops, phi0, pair, f=f, g=g)
    stepper.validate(data, params, ops).raise_if_failed()
    traj = stepper.run(data, params, ops)
    return {"exit": 0 if traj.ok else 3,
            "violation": diagnostics.obstacle_violation(traj).max}


def log_sweep(ctx):
    """A log-potential eps sweep through ``cli.cmd_sweep``, two workers."""
    cli = ctx["cli"]
    cfg = replace(cli.RunConfig(), potential="log",
                  mesh_rings=ctx["rings"], mesh_sectors=ctx["sectors"],
                  t_final=ctx["steps"] * 1e-3, stride=ctx["sweep_stride"],
                  ic="random(0.1, %d)" % ctx["ic_seed"], out_dir=ctx["out"])
    code = cli.cmd_sweep(cfg, "eps", SWEEP_LADDER, workers=2, echo=_quiet)
    return {"exit": code}


RUNNERS = {"desk-run": desk_run, "obstacle-active": obstacle_active,
           "log-sweep": log_sweep}


def _digest(paths, arrays=()):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _read_csv_column(path, column):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        k = header.index(column)
        return [float(line.split(",")[k]) for line in fh if line.strip()]


def check_trajectory(diskfem, ops, traj):
    """Checks every run must pass; returns a list of failure messages."""
    fails = []
    if not traj.ok:
        return ["solver failure at step %s: %s"
                % (traj.failed_step, traj.failure)]
    tol = traj.params.newton_tol
    bad = [r.final_residual for r in traj.reports[1:]
           if not (math.isfinite(r.final_residual)
                   and r.final_residual <= tol)]
    if bad:
        fails.append("%d steps end with a residual above newton_tol or "
                     "not finite (first %r)" % (len(bad), bad[0]))
    h = traj.params.h
    s0 = traj.states[0]
    m0 = diskfem.mean_bulk(ops, s0.phi)
    mg0 = diskfem.mean_bdry(ops, s0.psi)
    drift = max(max(abs(diskfem.mean_bulk(ops, s.phi + h * s.mu) - m0),
                    abs(diskfem.mean_bdry(ops, s.psi + h * s.w) - mg0))
                for s in traj.states)
    if not drift <= 1e-9:
        fails.append("augmented mean drift %.3e above 1e-9" % drift)
    return fails


def probes(np, traj):
    phi = traj.states[-1].phi
    idx = np.linspace(0, phi.size - 1, N_PROBES).round().astype(int)
    return [float(v) for v in phi[idx]]


def check_outputs(ctx, name, outcome, trajs):
    """Per-run failure lists plus the output digest of the repeat."""
    np, diskfem = ctx["np"], ctx["diskfem"]
    out = ctx["out"]
    ops = diskfem.assemble(diskfem.gen_disk_mesh(ctx["rings"],
                                                 ctx["sectors"]))
    expected = RUNS_PER_REPEAT[name]
    common = []
    if outcome["exit"] != 0:
        common.append("exit code %d" % outcome["exit"])
    if len(trajs) != expected:
        common.append("%d stepper runs, expected %d"
                      % (len(trajs), expected))
    per_run = [check_trajectory(diskfem, ops, t) for t in trajs]
    per_run += [[] for _ in range(expected - len(per_run))]

    if name == "desk-run":
        run_csv = os.path.join(out, "run.csv")
        lyap = _read_csv_column(run_csv, "lyapunov")
        worst = max((b - a for a, b in zip(lyap, lyap[1:])), default=0.0)
        if not worst <= 1e-10:
            common.append("Lyapunov increment %.3e above 1e-10" % worst)
        digest = _digest([run_csv])
    elif name == "obstacle-active":
        if not outcome["violation"] > 0.0:
            common.append("obstacle violation %r is not positive: the "
                          "active set is not engaged" % outcome["violation"])
        last = trajs[-1].states[-1] if trajs else None
        digest = _digest([], [] if last is None
                         else [last.phi, last.mu, last.w])
    else:
        table = os.path.join(out, "table.csv")
        with open(table, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        status = [row.split(",")[1] for row in lines[1:]
                  if row and not row.startswith("#")]
        if status != ["0"] * expected:
            common.append("member status %s" % status)
        rate = lines[-1].partition("fitted_rate=")[2]
        try:
            finite = math.isfinite(float(rate))
        except ValueError:
            finite = False
        if not finite:
            common.append("fitted rate %r is not finite" % rate)
        members = [os.path.join(out, "member_%02d" % i, "run.csv")
                   for i in range(expected)]
        digest = _digest([table] + [m for m in members
                                    if os.path.exists(m)])

    ref = ctx["reference"]
    final = [probes(np, t) for t in trajs]
    if ref is not None and not common and len(final) == expected:
        for k, (got, want) in enumerate(zip(final, ref)):
            tol = REF_FACTOR * trajs[k].params.n_steps \
                * trajs[k].params.newton_tol
            gap = max(abs(a - b) for a, b in zip(got, want))
            if not gap <= tol:
                per_run[k].append("final phi differs from the reference "
                                  "by %.3e (tolerance %.1e)" % (gap, tol))
    if common:
        per_run = [fails + common for fails in per_run]
    return per_run, digest, final


def load_reference(name, ic_seed, smoke, skip):
    """Stored final-state probes; none at smoke scale or when regenerating."""
    if smoke or skip:
        return None
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    return table[name][str(ic_seed)]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--start", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the reference check (make_reference.py)")
    args = ap.parse_args(argv)
    start = args.start

    import numpy as np
    from chbs import cli, diagnostics, diskfem, graphs, stepper
    from spans import ROOT_SPAN, Tracer, layer_metrics

    sizes = scale(args.smoke)
    ic_seed = 1 + args.seed % N_IC
    ctx = dict(np=np, cli=cli, diagnostics=diagnostics, diskfem=diskfem,
               graphs=graphs, stepper=stepper, rings=sizes["rings"],
               sectors=sizes["sectors"], steps=sizes["steps"][args.workload],
               sweep_stride=sizes["sweep_stride"], ic_seed=ic_seed,
               out=args.out,
               reference=load_reference(args.workload, ic_seed, args.smoke,
                                        args.no_reference))
    os.makedirs(args.out, exist_ok=True)

    probe = RunProbe(stepper.run)
    stepper.run = probe
    tracer = None
    runner = RUNNERS[args.workload]
    if args.trace:
        tracer = Tracer()
        tracer.install((cli, stepper, graphs, diskfem, diagnostics),
                       stepper)
        runner = tracer.wrap(ROOT_SPAN, runner)

    outcome = runner(ctx)
    done = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    stepper.run = probe._run

    trajs = sorted(probe.trajectories, key=lambda t: -t.params.eps)
    per_run, digest, final = check_outputs(ctx, args.workload, outcome,
                                           trajs)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ic_seed": ic_seed,
        "wall_s": done - start,
        "setup_s": min(probe.entries) - start if probe.entries else None,
        "steps": sum(len(t.states) - 1 for t in trajs),
        "newton_iters": sum(r.newton_iters for t in trajs
                            for r in t.reports[1:]),
        "peak_rss_mb": rss_mb,
        "failures": per_run,
        "digest": digest,
        "final_probes": final,
    }
    if tracer is not None:
        main_thread = threading.get_ident()
        layers = layer_metrics(tracer.spans, tracer.lu_nnz, main_thread,
                               start)
        reports = [r for t in trajs for r in t.reports[1:]]
        steps = max(len(reports), 1)
        iters = result["newton_iters"]
        n_solve = layers["stepper.lu_solve_count"][0]
        n_factor = layers["stepper.lu_factor_count"][0]
        layers.update({
            "stepper.steps": (len(reports), "count"),
            "stepper.newton_iters": (iters, "count"),
            "stepper.linsolves": (sum(r.linsolves for r in reports),
                                  "count"),
            "stepper.direction_accept_ratio": (
                iters / n_solve if n_solve else 0.0, "ratio"),
            "stepper.max_final_residual": (
                max((r.final_residual for r in reports), default=0.0),
                "rms"),
            "stepper.refactors_per_step": (n_factor / steps, "1/step"),
            "stepper.active_nodes_final": (
                sum(int((np.abs(t.states[-1].phi) > 1.0).sum())
                    for t in trajs), "count"),
            "stepper.checkpoint_bytes": (
                sum(os.path.getsize(os.path.join(d, "checkpoints.txt"))
                    for d, _, files in os.walk(args.out)
                    if "checkpoints.txt" in files), "B"),
        })
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.items()}
        spans_path = os.path.join(os.path.dirname(args.out),
                                  "spans-%s-seed%d.json"
                                  % (args.workload, args.seed))
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"start": start, "main_thread": main_thread,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "thread"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = spans_path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
