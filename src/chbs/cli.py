"""Experiment drivers: single runs, parameter sweeps, paired runs, selftest.

Config files are flat ``key = value`` lines with ``#`` comments.  All
outputs are UTF-8 text; floating point values are printed with 17
significant digits so repeated runs with the same config and seed are
bit-identical.
"""

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import splu

from . import checkpoint, diagnostics, diskfem, graphs, reference, stepper
from .errors import (ChbsError, GridMismatch, MeanMismatch, ParseError,
                     UnknownKey)

_MASK64 = (1 << 64) - 1
_SEED_FALLBACK = 0x9E3779B97F4A7C15


def xorshift64_uniform(seed, count):
    """Reproducible uniforms in [0, 1) from the 64-bit xorshift update.

    State update: x ^= x << 13; x ^= x >> 7; x ^= x << 17 (mod 2^64),
    seeded with the given value (0 is replaced by a fixed odd constant).
    The k-th output is the updated state divided by 2^64.
    """
    x = int(seed) & _MASK64
    if x == 0:
        x = _SEED_FALLBACK
    out = np.empty(count)
    for k in range(count):
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        out[k] = x / 2.0 ** 64
    return out


@dataclass
class RunConfig:
    """Fully resolved run configuration with defaults applied."""

    mesh_rings: int = 40
    mesh_sectors: int = 160
    mesh_file: str = ""
    potential: str = "regular"
    c1: float = 2.0
    c2: float = 1.0
    rho: float = 1.0
    c0: float = 0.0
    tau: float = 0.1
    sigma: float = 0.1
    eps: float = 0.1
    h: float = 1e-3
    t_final: float = 0.25
    ic: str = "random(0.1, 1)"
    source_f: str = "zero"
    source_g: str = "zero"
    out_dir: str = "out"
    stride: int = 1
    strict_guard: bool = False
    strong_checks: bool = False
    ratio_cap: float = 1e3
    newton_tol: float = 1e-10
    newton_max: int = 50


_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}

_RANGES = {
    "mesh_rings": (1, math.inf),
    "mesh_sectors": (3, math.inf),
    "tau": (0.0, 1.0),
    "sigma": (0.0, 1.0),
    "eps": (1e-300, 1.0),
    "h": (1e-300, math.inf),
    "t_final": (1e-300, math.inf),
    "c1": (1.0 + 1e-12, math.inf),
    "c2": (1e-300, math.inf),
    "rho": (1e-300, math.inf),
    "c0": (0.0, math.inf),
    "ratio_cap": (0.0, math.inf),
    "newton_tol": (1e-300, math.inf),
    "newton_max": (1, math.inf),
    "stride": (1, math.inf),
}
_POTENTIALS = (graphs.REGULAR, graphs.LOG, graphs.OBSTACLE)


def parse_config(path):
    """Parse a flat key = value config file into a RunConfig.

    Unknown keys, duplicate keys, type mismatches, non-finite floats and
    out-of-range values are errors carrying the offending line number.
    """
    defaults = RunConfig()
    fields = {name: type(getattr(defaults, name))
              for name in defaults.__dict__}
    seen = {}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            key, _, text = line.partition("=")
            key = key.strip().replace("-", "_")
            text = text.strip()
            if key not in fields:
                raise UnknownKey("unknown key %r" % key, line=lineno)
            if key in seen:
                raise ParseError("duplicate key %r (first at line %d)"
                                 % (key, seen[key]), line=lineno)
            seen[key] = lineno
            typ = fields[key]
            try:
                if typ is bool:
                    val = _BOOL_WORDS[text.lower()]
                elif typ is int:
                    val = int(text)
                elif typ is float:
                    val = float(text)
                else:
                    val = text
            except (KeyError, ValueError):
                raise ParseError("bad value %r for key %r" % (text, key),
                                 line=lineno) from None
            if typ is float and not math.isfinite(val):
                raise ParseError("value %s for %r is not finite"
                                 % (text, key), line=lineno)
            if key == "potential" and val not in _POTENTIALS:
                raise ParseError("unknown potential preset %r" % val,
                                 line=lineno)
            if key in _RANGES:
                lo, hi = _RANGES[key]
                if not lo <= val <= hi:
                    raise ParseError(
                        "value %s for %r outside [%g, %g]"
                        % (text, key, lo, hi), line=lineno)
            values[key] = val
    return replace(defaults, **values)


def _parse_preset(text):
    """Split 'name(a, b)' into (name, [a, b]); bare names get no args."""
    text = text.strip()
    if "(" not in text:
        return text, []
    if not text.endswith(")"):
        raise ParseError("malformed preset %r" % text)
    name, _, inner = text[:-1].partition("(")
    args = [a.strip() for a in inner.split(",")] if inner.strip() else []
    try:
        return name.strip(), [float(a) for a in args]
    except ValueError:
        raise ParseError("non-numeric preset argument in %r" % text) from None


def _preset_args(name, args, defaults):
    """``args`` completed from ``defaults``, which also bound their count."""
    if len(args) > len(defaults):
        raise ParseError("preset %s takes at most %d argument(s), got %d"
                         % (name, len(defaults), len(args)))
    return args + list(defaults[len(args):])


def build_mesh(cfg):
    if cfg.mesh_file:
        try:
            return diskfem.load_mesh(cfg.mesh_file)
        except ParseError as exc:
            raise ParseError("mesh file %s: %s"
                             % (cfg.mesh_file, exc)) from None
    return diskfem.gen_disk_mesh(cfg.mesh_rings, cfg.mesh_sectors)


def build_pair(cfg):
    return graphs.preset_pair(cfg.potential, c1=cfg.c1, c2=cfg.c2,
                              rho=cfg.rho, c0=cfg.c0)


def build_initial(cfg, mesh):
    """Evaluate the initial-condition preset on the mesh vertices."""
    name, args = _parse_preset(cfg.ic)
    xy = mesh.vertices
    if name == "constant":
        (a,) = _preset_args(name, args, (0.0,))
        return np.full(mesh.n_bulk, a)
    if name == "radial-bump":
        a, r0 = _preset_args(name, args, (1.0, 0.5))
        if not 0.0 < r0 < math.inf:
            raise ParseError("radial-bump radius must be positive and "
                             "finite, got %r" % r0)
        rsq = (xy ** 2).sum(axis=1)
        out = np.zeros(mesh.n_bulk)
        inside = rsq < r0 ** 2
        out[inside] = a * np.exp(1.0 - r0 ** 2 / (r0 ** 2 - rsq[inside]))
        return out
    if name == "random":
        a, seed = _preset_args(name, args, (0.1, 1.0))
        if not seed.is_integer():
            raise ParseError("random seed must be an integer, got %r" % seed)
        u = xorshift64_uniform(int(seed), mesh.n_bulk)
        return a * (2.0 * u - 1.0)
    raise ParseError("unknown initial-condition preset %r" % name)


def build_source(text, size):
    """Source presets: zero, constant(a), ramp(a) with f(t) = a t."""
    name, args = _parse_preset(text)
    if name == "zero":
        _preset_args(name, args, ())
        return None
    if name == "constant":
        (a,) = _preset_args(name, args, (0.0,))
        return np.full(size, a)
    if name == "ramp":
        (a,) = _preset_args(name, args, (1.0,))
        return lambda t: np.full(size, a * t)
    raise ParseError("unknown source preset %r" % text)


def build_params(cfg):
    return stepper.SchemeParams(h=cfg.h, t_final=cfg.t_final, tau=cfg.tau,
                                sigma=cfg.sigma, eps=cfg.eps,
                                newton_tol=cfg.newton_tol,
                                newton_max=cfg.newton_max)


def build_problem(cfg, ops):
    pair = build_pair(cfg)
    phi0 = build_initial(cfg, ops.mesh)
    f = build_source(cfg.source_f, ops.mesh.n_bulk)
    g = build_source(cfg.source_g, ops.mesh.n_bdry)
    return stepper.problem_data(ops, phi0, pair, f=f, g=g)


def execute_run(cfg, echo=print):
    """Validate, run and write outputs; returns (exit_code, trajectory)."""
    # the checkpoint writer starts first, so that its numpy import
    # overlaps the mesh, the assembly and the first steps
    with checkpoint.Writer() as writer:
        return execute_on(cfg, diskfem.assemble(build_mesh(cfg)),
                          cfg.out_dir, writer, echo)


def _admit(cfg, datas, params, ops, echo):
    """Validate the problems of one command and evaluate its step guard.

    Returns ``(ok, lines, guard)``: whether the command may run them
    (exit 2 otherwise), the lines the checks report, each also echoed,
    and the :class:`stepper.GuardReport`, ``None`` if validation failed.
    Validation is strong when ``cfg.strong_checks`` is set; a violated
    guard refuses the run when ``cfg.strict_guard`` is set and only warns
    otherwise.
    """
    lines = []
    for data in datas:
        report = stepper.validate(data, params, ops,
                                  strong=cfg.strong_checks)
        if report.strong_norms:
            lines.append("strong-check norms: "
                         + " ".join("%.17g" % v for v in report.strong_norms)
                         + " plateau=%s" % report.strong_plateau)
            echo(lines[-1])
        if not report.ok:
            for v in report.violations:
                lines.append("validation: %s" % v)
                echo(lines[-1])
            return False, lines, None
    guard = stepper.step_guard(params, datas[0].pair)
    if not guard.ok:
        msg = ("step guard violated: h=%.3g, h_max=%.3g%s"
               % (params.h, guard.h_max,
                  " (%s)" % guard.reason if guard.reason else ""))
        if cfg.strict_guard:
            echo(msg + " [strict mode: refusing to run]")
            lines.append(msg + " [strict]")
            return False, lines, guard
        echo("warning: " + msg)
        lines.append("warning: " + msg)
    return True, lines, guard


def execute_on(cfg, ops, out, writer, echo=print):
    """:func:`execute_run` on operators already assembled from ``cfg``,
    with the checkpoints sent through the command's
    :class:`checkpoint.Writer` ``writer``.  ``summary.txt`` is written on
    every ending, and its last lines name it; an exception other than an
    interrupt adds ``stopped at step k: <cause>`` and goes on."""
    os.makedirs(out, exist_ok=True)
    params = build_params(cfg)
    data = build_problem(cfg, ops)
    mesh_name = cfg.mesh_file or "%dx%d" % (cfg.mesh_rings,
                                            cfg.mesh_sectors)
    summary = ["config potential=%s mesh=%s h=%.17g t_final=%.17g"
               % (cfg.potential, mesh_name, cfg.h, cfg.t_final)]
    reached = [0]  # the step of the last state the run reached

    def note(state, report):
        reached[0] = state.n

    try:
        ok, lines, guard = _admit(cfg, [data], params, ops, echo)
        summary += lines
        if not ok:
            return 2, None
        # run.csv gets each row as it is made; the checkpoint text is
        # formatted by the writer process while the run goes on, and the
        # stream's exit waits until the writer has flushed its last block
        with open(os.path.join(out, "run.csv"), "w",
                  encoding="utf-8") as fh, \
                checkpoint.Stream(writer,
                                  os.path.join(out, "checkpoints.txt"),
                                  cfg.stride) as stream:
            rows = diagnostics.csv_hook(fh, data.pair, params, ops,
                                        stride=cfg.stride)
            traj = stepper.run(data, params, ops,
                               hooks=(stream, rows, note))
        if not traj.ok:
            summary.append("solver failure at step %d: %s"
                           % (traj.failed_step, traj.failure))
            echo(summary[-1])
            return 3, traj
        reports = traj.reports[1:]
        summary.append("steps=%d newton_iters_total=%d refactors_total=%d "
                       "linsolves_total=%d"
                       % (len(reports), sum(r.newton_iters for r in reports),
                          sum(r.refactors for r in reports),
                          sum(r.linsolves for r in reports)))
        # the step from which the Newton matrix is the exact Jacobian
        summary.append("fallbacks_total=%d exact_lu_from_step=%s"
                       % (sum(r.fallbacks for r in reports),
                          next((n for n, r in enumerate(reports, 1)
                                if r.exact_lu), "none")))
        summary.append("backtracks_total=%d"
                       % sum(r.backtracks for r in reports))
        summary.append("outside_theory=%s" % (not guard.ok))
        return 0, traj
    except KeyboardInterrupt:
        summary.append("interrupted at step %d" % reached[0])
        raise
    except BaseException as exc:
        summary.append("stopped at step %d: %s: %s"
                       % (reached[0], type(exc).__name__, exc))
        raise
    finally:
        with open(os.path.join(out, "summary.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(summary) + "\n")


def cmd_run(cfg, echo=print):
    code, _ = execute_run(cfg, echo=echo)
    return code


# the config fields a sweep sets to each ladder value, per axis
_SWEEP_AXES = {"h": ("h",), "eps": ("eps",), "visc": ("tau", "sigma")}


def cmd_sweep(cfg, axis, ladder, workers=1, echo=print):
    """Run a decreasing ladder along one axis and emit a convergence table.

    The members run one after another; Ctrl-C or an exception in one
    stops the sweep.  ``workers`` is unread: only perfbench/ passes it.
    """
    ladder = list(ladder)
    if axis not in _SWEEP_AXES:
        echo("unknown sweep axis %r (expected one of %s)"
             % (axis, ", ".join(_SWEEP_AXES)))
        return 2
    # "not b < a" rather than "b >= a": NaN compares false
    if (len(ladder) < 3
            or any(not b < a for a, b in zip(ladder, ladder[1:]))):
        echo("ladder must be strictly decreasing with at least 3 values")
        return 2
    members = [replace(cfg, **dict.fromkeys(_SWEEP_AXES[axis], val))
               for val in ladder]
    # every member's scheme parameters are checked before the writer
    # starts; on the h axis this leaves finite positive steps to nest
    for val, member in zip(ladder, members):
        bad = build_params(member).check()
        if bad:
            echo("ladder value %s: %s" % (val, "; ".join(bad)))
            return 2
    if axis == "h":
        for a, b in zip(ladder, ladder[1:]):
            if abs(a / b - round(a / b)) > 1e-9:
                echo("h ladder members must nest (integer ratios)")
                return 2
    out_root = cfg.out_dir
    # every member's checkpoints go through one writer, started before
    # the assembly so that its numpy import overlaps it
    with checkpoint.Writer() as writer:
        # the sweep axes (h, eps, viscosities) never change the mesh, so
        # all members and the post-processing share one set of operators
        ops = diskfem.assemble(build_mesh(cfg))
        results = [execute_on(member, ops,
                              os.path.join(out_root, "member_%02d" % i),
                              writer, echo=lambda *_: None)
                   for i, member in enumerate(members)]
    # exit code 0 is exactly a finished run with every step converged
    trajs = [traj if code == 0 else None for code, traj in results]

    dists = []
    for i, (a, b) in enumerate(zip(trajs, trajs[1:])):
        rep = None
        if a is not None and b is not None:
            try:
                rep = diagnostics.cauchy_distance(a, b, ops)
            except GridMismatch as exc:
                echo("distance %d/%d skipped: %s" % (i, i + 1, exc))
        dists.append(rep)

    c_h = [d.c_h for d in dists if d is not None]
    logs = [(math.log(ladder[i]), math.log(d.c_h))
            for i, d in enumerate(dists) if d is not None and d.c_h > 0]
    if c_h and max(c_h) < 1e-14:
        rate_text = "exact"
    elif len(c_h) < 2:
        rate_text = "n/a"
    elif len(logs) < 2:
        rate_text = "exact"
    else:
        xs, ys = np.array(logs).T
        rate_text = "%.17g" % float(np.polyfit(xs, ys, 1)[0])

    table_path = os.path.join(out_root, "table.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("value,status,mass_gap,violation,apriori_max,c_h,l2v\n")
        for val, member, (code, _), traj, d in zip(ladder, members, results,
                                                   trajs, dists + [None]):
            cells = [None] * 5
            if traj is not None:
                cells[0] = abs(diskfem.mean(ops.bulk, traj.states[-1].phi)
                               - diskfem.mean(ops.bulk, traj.states[0].phi))
                if axis == "eps":
                    cells[1] = diagnostics.obstacle_violation(traj).max
                    cells[2] = diagnostics.apriori_monitor(
                        traj, build_pair(member), build_params(member),
                        ops).max_value()
            if d is not None:
                cells[3:] = d.c_h, d.l2v
            fh.write("%.17g,%d,%s\n" % (val, code, ",".join(
                "" if x is None else "%.17g" % x for x in cells)))
        fh.write("# fitted_rate=%s\n" % rate_text)
    echo("sweep axis=%s rate=%s table=%s" % (axis, rate_text, table_path))
    for i, d in enumerate(dists):
        if d is not None:
            echo("  pair %d-%d: c_h=%.6g l2v=%.6g" % (i, i + 1, d.c_h, d.l2v))
    return 1 if any(t is None for t in trajs) else 0


def cmd_contdep(cfg_a, cfg_b, echo=print):
    """Run a perturbation pair and test the stability ratio."""
    # both runs use cfg_a's mesh, pair and scheme parameters
    for name in (f.name for f in dataclasses.fields(RunConfig)):
        if name in ("ic", "source_f", "source_g", "out_dir"):
            continue
        if getattr(cfg_a, name) != getattr(cfg_b, name):
            echo("configs must differ only in initial data and sources "
                 "(field %r differs)" % name)
            return 2
    mesh = build_mesh(cfg_a)
    ops = diskfem.assemble(mesh)
    params = build_params(cfg_a)
    data_a = build_problem(cfg_a, ops)
    data_b = build_problem(cfg_b, ops)
    if not _admit(cfg_a, [data_a, data_b], params, ops, echo)[0]:
        return 2
    try:
        diagnostics.check_means(data_a, data_b, ops)
    except MeanMismatch as exc:
        echo("mean mismatch: %s" % exc)
        return 2
    traj_a = stepper.run(data_a, params, ops)
    traj_b = stepper.run(data_b, params, ops)
    if not (traj_a.ok and traj_b.ok):
        echo("solver failure during paired runs")
        return 3
    rep = diagnostics.cont_dep(traj_a, traj_b, data_a, data_b, ops)
    ratio = "n/a" if rep.ratio is None else "%.17g" % rep.ratio
    echo("lhs=%.17g rhs=%.17g ratio=%s" % (rep.lhs, rep.rhs, ratio))
    if rep.lhs <= cfg_a.ratio_cap * rep.rhs or rep.lhs == 0.0:
        return 0
    echo("stability ratio exceeded cap %.3g" % cfg_a.ratio_cap)
    return 1


def _selftest_graphs():
    for name in _POTENTIALS:
        pair = graphs.preset_pair(name)
        g = pair.bulk
        pts = np.linspace(-2.5, 2.5, 33)
        for eps in graphs.COMPAT_EPS_GRID:
            for r in pts:
                j = graphs.resolvent(g, eps, float(r))
                jb = reference.resolvent_bisect(g, eps, float(r))
                if abs(j - jb) > 1e-10:
                    return False, "resolvent mismatch %s eps=%g r=%g" \
                        % (name, eps, r)
            if abs(graphs.yosida(g, eps, 0.0)) != 0.0:
                return False, "yosida nonzero at origin"
            rep = graphs.check_compatibility(pair, eps, 401)
            if not rep.ok:
                return False, str(rep)
    return True, "resolvents, origin values, compatibility"


def _selftest_diskfem():
    try:
        mesh = diskfem.gen_disk_mesh(8, 24)
        diskfem.validate_mesh(mesh)
    except ChbsError as exc:
        return False, "mesh: %s" % exc
    ops = diskfem.assemble(mesh)
    rng = np.random.default_rng(3)
    for part in (ops.bulk, ops.bdry):
        if float(np.abs(part.K @ np.ones(part.K.shape[0])).max()) > 1e-12:
            return False, "%s stiffness kernel broken" % part.name
        v = rng.standard_normal(part.K.shape[0])
        v -= diskfem.mean(part, v)
        w = rng.standard_normal(part.K.shape[0])
        w -= diskfem.mean(part, w)
        lhs = float(w @ (part.M @ diskfem.green(part, v)))
        rhs = float(v @ (part.M @ diskfem.green(part, w)))
        if abs(lhs - rhs) > 1e-10 * max(abs(lhs), 1e-6):
            return False, "%s green adjoint identity broken" % part.name
    return True, "kernel, adjoint, topology"


def _tiny_problem(name="regular", eps=0.5, h=1e-3):
    mesh = diskfem.gen_disk_mesh(2, 8)
    ops = diskfem.assemble(mesh)
    pair = graphs.preset_pair(name)
    params = stepper.SchemeParams(h=h, t_final=4 * h, tau=0.1, sigma=0.1,
                                  eps=eps)
    rng = np.random.default_rng(5)
    phi0 = 0.1 * rng.uniform(-1.0, 1.0, mesh.n_bulk)
    data = stepper.problem_data(ops, phi0, pair)
    return mesh, ops, pair, params, data


def _selftest_stepper_oracle():
    _, ops, _, params, data = _tiny_problem()
    state = stepper.initial_state(data, ops)
    new, _ = stepper.solve_step(state, data, params, ops)
    phi_o, mu_o, w_o = reference.fixed_point_step(
        state, data, params, ops, np.zeros(ops.mesh.n_bulk),
        np.zeros(ops.mesh.n_bdry))
    worst = max(float(np.abs(new.phi - phi_o).max()),
                float(np.abs(new.mu - mu_o).max()),
                float(np.abs(new.w - w_o).max()))
    if worst > 1e-8:
        return False, "oracle gap %.3e" % worst
    return True, "dense fixed-point agreement %.3e" % worst


def _selftest_fourier_solve():
    # the rotation-averaged Newton matrix at a random state, solved by the
    # banded Fourier factor and judged by a sparse LU of the matrix itself;
    # with viscosity, and without it, outside the step guard
    ops = diskfem.assemble(diskfem.gen_disk_mesh(4, 16))
    backward, gap = [], []
    for visc in (0.1, 0.0):
        params = stepper.SchemeParams(h=1e-3, t_final=1e-3, eps=0.1,
                                      tau=visc, sigma=visc)
        work = stepper._StepWorkspace(ops, graphs.preset_pair("obstacle"),
                                      params)
        if work.rings is None:
            return False, "4x16 mesh not solved by Fourier modes"
        rng = np.random.default_rng(7)
        # nodes on both sides of +-1, where the graph derivatives jump
        phi = rng.uniform(-1.3, 1.3, ops.mesh.n_bulk)
        A = (work.R @ work.jacobian_matrix(phi, average=True)).tocsc()
        v = rng.uniform(-1.0, 1.0, A.shape[0])
        x = stepper._FourierFactor(A, *work.rings).solve(v)
        want = splu(A).solve(v)
        backward.append(np.linalg.norm(A @ x - v) / np.linalg.norm(v))
        gap.append(np.linalg.norm(x - want) / np.linalg.norm(want))
    # NaN-safe: np.max keeps a NaN, which fails both comparisons
    backward, gap = np.max(backward), np.max(gap)
    return (bool(backward <= 1e-12 and gap <= 1e-10),
            "backward error %.3e, gap to splu %.3e" % (backward, gap))


def _selftest_tool3():
    _, ops, _, params, data = _tiny_problem()
    traj = stepper.run(data, params, ops)
    if not traj.ok:
        return False, "run failed"
    lhs, rhs = diagnostics.interpolant_gap_identity(traj, ops)
    rel = abs(lhs - rhs) / max(rhs, 1e-300)
    if rel > 1e-12:
        return False, "identity deviation %.3e" % rel
    return True, "max deviation %.3e" % rel


def _selftest_conservation():
    _, ops, pair, params, data = _tiny_problem()
    traj = stepper.run(data, params, ops)
    if not traj.ok:
        return False, "run failed"
    drifts = []
    for part, val, pot in diagnostics.sides(ops):
        m0 = diskfem.mean(part, getattr(traj.states[0], val))
        drifts.append(max(abs(diskfem.mean(part, getattr(s, val)
                                           + params.h * getattr(s, pot)) - m0)
                          for s in traj.states))
    if any(d > 1e-9 for d in drifts):
        return False, "mass drift %.3e / %.3e" % tuple(drifts)
    lyap = [diagnostics.lyapunov(s, pair, params.eps, params.h, ops)
            for s in traj.states]
    if any(b > a + 1e-10 for a, b in zip(lyap, lyap[1:])):
        return False, "dissipation violated"
    return True, "mass drift %.3e / %.3e, dissipation ok" % tuple(drifts)


def _selftest_checkpoint():
    # subnormal, normal and largest extremes, the two exact ties of 17
    # digits, and each power of ten in range with both neighbours, which
    # holds the switches to exponent notation below 1e-4 and from 1e17;
    # printed as one block of rows of unequal length, an empty one among
    # them, each other row ending in a non-finite value
    edges = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1234567890123456.25, 1234567890123456.75]
    for p in range(-300, 301):
        v = float("1e%d" % p)
        edges += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    values = np.array(edges)
    values = np.concatenate([values, -values])
    rows = [np.append(row, end) for row, end in zip(
        np.split(values, [1, 1000, 3000]), (np.nan, np.inf, -np.inf, np.nan))]
    rows.insert(2, values[:0])
    got = checkpoint.format_block(0, 0.0, rows)
    want = "state 0 0\n" + "".join(
        " ".join("%.17g" % v for v in row) + "\n" for row in rows)
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        return False, "format_block prints %r where %%.17g gives %r" % (
            got[max(at - 20, 0):at + 20], want[max(at - 20, 0):at + 20])
    return True, "%d edge values printed as %%.17g in %d rows" % (
        values.size, len(rows))


def cmd_selftest(echo=print):
    groups = [
        ("graphs", _selftest_graphs),
        ("diskfem", _selftest_diskfem),
        ("stepper-oracle", _selftest_stepper_oracle),
        ("fourier-solve", _selftest_fourier_solve),
        ("interpolant-identity", _selftest_tool3),
        ("mass-dissipation", _selftest_conservation),
        ("checkpoint-text", _selftest_checkpoint),
    ]
    failed = False
    for name, fn in groups:
        try:
            ok, detail = fn()
        except ChbsError as exc:
            ok, detail = False, str(exc)
        echo("%-22s %s  (%s)" % (name, "pass" if ok else "FAIL", detail))
        failed = failed or not ok
    return 1 if failed else 0


def cmd_mesh_info(cfg, echo=print):
    mesh = build_mesh(cfg)
    areas = mesh.triangle_areas()
    lengths = mesh.boundary_lengths()
    echo("vertices %d (boundary %d), triangles %d" %
         (mesh.n_bulk, mesh.n_bdry, mesh.triangles.shape[0]))
    echo("area %.17g (gap to disk %.3e)" %
         (mesh.area(), abs(mesh.area() - math.pi)))
    echo("boundary length %.17g (gap to circle %.3e)" %
         (mesh.boundary_length(), abs(mesh.boundary_length() - 2 * math.pi)))
    echo("triangle area min %.3e max %.3e" %
         (float(areas.min()), float(areas.max())))
    echo("segment length min %.3e max %.3e" %
         (float(lengths.min()), float(lengths.max())))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chbs",
        description="Bulk-surface Cahn-Hilliard solver and experiment "
                    "drivers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single validated run")
    p_run.add_argument("--config", default=None)
    p_run.add_argument("--out", dest="out_dir")
    p_run.add_argument("--strict-guard", action="store_true")

    p_sweep = sub.add_parser("sweep", help="ladder sweep along one axis")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--axis", choices=tuple(_SWEEP_AXES),
                         required=True)
    p_sweep.add_argument("--ladder", required=True,
                         help="comma-separated decreasing values")
    p_sweep.add_argument("--out", dest="out_dir")

    p_cd = sub.add_parser("contdep", help="paired-run stability test")
    p_cd.add_argument("--config", action="append", required=True,
                      help="give twice: baseline and perturbed")

    sub.add_parser("selftest", help="run the invariant suite")

    p_mi = sub.add_parser("mesh-info", help="mesh statistics")
    p_mi.add_argument("--config", default=None)
    p_mi.add_argument("--mesh-file", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep", "mesh-info"):
            cfg = (RunConfig() if args.config is None
                   else parse_config(args.config))
            # the options given override the config file's fields
            cfg = replace(cfg, **{k: v for k, v in vars(args).items()
                                  if v and k in cfg.__dict__})
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "sweep":
            try:
                ladder = [float(x) for x in args.ladder.split(",")
                          if x.strip()]
            except ValueError:
                raise ParseError("--ladder must be comma-separated numbers, "
                                 "got %r" % args.ladder) from None
            return cmd_sweep(cfg, args.axis, ladder)
        if args.command == "contdep":
            if len(args.config) != 2:
                parser.error("contdep needs exactly two --config arguments")
            return cmd_contdep(parse_config(args.config[0]),
                               parse_config(args.config[1]))
        if args.command == "selftest":
            return cmd_selftest()
        if args.command == "mesh-info":
            return cmd_mesh_info(cfg)
    except ParseError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except ChbsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # a config, mesh or output path given by the user is unusable
        print("file error: %s" % exc, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
