#!/usr/bin/env python3
"""The susyrad benchmark: one closed-loop caller, one process, one thread.

Usage (from the repository root)::

    python3 bench/run.py --workload verify|scan --seed N --seconds S --trace 0|1

The caller drives ``susyrad.cli.main(argv)`` in-process and captures its
stdout in memory; the program only receives generated command lines and
config files.  One pass runs a workload's fixed op list (see workloads.py);
passes repeat until the next one would overrun ``--seconds`` (at least
MIN_PASSES with ``--trace 0``, one untraced and one traced with ``--trace 1``).

``--trace 0`` times untraced passes and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; spans go to
``.bench_out/spans-<workload>-<seed>.json``.  Every run checks the outputs
(checks.py), the sha256 of each op's stdout across passes and between traced
and untraced passes, and on ``scan`` every numeric level against LAPACK.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See README.md for the metrics and the layers they measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: BLAS/OpenMP pools pinned to one thread before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: cold `import susyrad.cli` runs before and after the passes; between
#: passes one more runs after an op once SETUP_EVERY_S seconds have passed
#: since the last, so the samples spread over the whole run.  Load from
#: elsewhere on the machine only adds time, so the minimum is setup_s.
SETUP_BATCH = 4
SETUP_EVERY_S = 2.0
#: fewest untraced passes of a --trace 0 run; pass_s is a median over them
MIN_PASSES = 3
#: LAPACK timing repetitions per operator; the median is used
LAPACK_REPEATS = 3

CHECK_NAMES = ("isospectral", "intertwine", "orthonormal", "ground_residual",
               "analytic_vs_numeric")

#: tiny-grid ops run once before timing so lazy imports and first-call set-up
#: do not land in the first pass
WARMUP = (
    ("spectrum", "--model", "oscillator", "--grid", "0.001,6,201", "--n-max", "1"),
    ("verify", "--model", "oscillator", "--grid", "0.001,8,401"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify", "scan"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    """Interpreter, library versions, CPU and thread pinning of this run."""
    import numpy

    try:
        scipy_version = metadata.version("scipy")  # read without importing it
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(repeats):
    """Seconds for ``import susyrad.cli`` in fresh interpreters, one per repeat."""
    code = ("import time; t = time.perf_counter(); import susyrad.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """Runs passes, checks their outputs and keeps the tallies of one run.

    ``after_op`` is called after every op, outside the op's clock.
    """

    def __init__(self, cli, ops, tracer, after_op=None):
        self.cli, self.ops, self.tracer, self.after_op = cli, ops, tracer, after_op
        self.op_times = {False: [], True: []}     # traced? -> per pass, seconds per op
        self.hashes = [None] * len(ops)
        self.levels = [None] * len(ops)           # numeric levels of spectrum ops
        self.err_ratios = []
        self.problems = []                        # (label, reason) of every failure
        self.attempted = 0
        self.failed = 0
        self.gates_ok = True

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except Exception as exc:  # a traceback is a failed op, not a crash
                code = f"{type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def fail(self, op, reason, gate=True):
        self.failed += 1
        self.problems.append((op.label, reason))
        if gate:
            self.gates_ok = False

    def resolved(self, op):
        """The model and window the CLI resolves for the op's command line."""
        return self.cli.resolve_config(self.cli.build_parser().parse_args(list(op.argv)))

    def run_pass(self, traced):
        from checks import check_output, spectrum_levels

        times = []
        first = self.hashes[0] is None
        for i, op in enumerate(self.ops):
            t0 = time.perf_counter()
            if traced:
                with self.tracer.span("op"):
                    code, text = self.call(op.argv)
            else:
                code, text = self.call(op.argv)
            times.append(time.perf_counter() - t0)
            self.attempted += 1
            if self.after_op:
                self.after_op()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if first:
                self.hashes[i] = digest
                ok, why, ratio = check_output(op, code, text)
                if not ok:
                    self.fail(op, why)
                    continue
                if op.command == "spectrum":
                    grid = self.resolved(op).grid
                    self.levels[i], ratio = spectrum_levels(op, text, (grid.r_min, grid.r_max))
                if ratio is not None:
                    self.err_ratios.append(ratio)
            elif digest != self.hashes[i]:
                self.fail(op, f"stdout differs from the first pass ({'traced' if traced else 'untraced'})")
                continue
            if code != 0:
                # documented outcome (verify exit 1), counted but not a gate miss
                self.fail(op, f"exit code {code}", gate=False)
        self.op_times[traced].append(times)

    def passes(self, traced):
        return len(self.op_times[traced])

    def pass_s(self, traced):
        """Seconds of one pass: each op's median over the run's traced or
        untraced passes, summed over the ops."""
        return sum(statistics.median(t) for t in zip(*self.op_times[traced]))

    def lapack_gate(self):
        """Every scan level against SciPy on the operator the CLI builds."""
        from checks import check_against_lapack
        from susyrad import discretize, partner_potentials, superpotential_from_model

        for op, levels in zip(self.ops, self.levels):
            if levels is None:
                continue
            cfg = self.resolved(op)
            pp = partner_potentials(superpotential_from_model(cfg.model), cfg.grid)
            t = discretize(pp.v_minus, cfg.grid)
            ok, why = check_against_lapack(levels, t.diag, t.off)
            if not ok:
                self.fail(op, why)


def per_layer(tracer, runner):
    """Per-layer metrics of the traced passes, per pass."""
    from tracer import summarize

    n = runner.passes(True)
    sm = summarize(tracer.spans)

    def get(name, key="total_s"):
        return sm.get(name, {}).get(key, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    sturm = sm.get("numsolve.sturm_count", {"calls": 0, "self_s": 0.0, "work": 0})
    eigs_solved = sum(k for _, k, _ in tracer.solves)
    solves_per_pass = len(tracer.solves) / n
    vecs_per_pass = len(tracer.eigvecs) / n
    render_s = sum(v["total_s"] for k, v in sm.items() if k.startswith("cli.render.")) / n
    render_bytes = sum(v["work"] for k, v in sm.items() if k.startswith("cli.render.")) / n

    m = {
        "numsolve.sturm_count.calls": (sturm["calls"] / n, "count"),
        "numsolve.sturm_count.self_s": (sturm["self_s"] / n, "s"),
        "numsolve.sturm_count.ns_per_row": (ratio(sturm["self_s"], sturm["work"]) * 1e9, "ns"),
        "numsolve.sweeps_per_eig": (ratio(sturm["calls"], eigs_solved), "sweeps/eig"),
        "numsolve.lowest_eigenvalues.calls": (get("numsolve.lowest_eigenvalues", "calls"), "count"),
        "numsolve.lowest_eigenvalues.self_s": (get("numsolve.lowest_eigenvalues", "self_s"), "s"),
        "numsolve.lapack_ratio": (lapack_ratio(tracer), "ratio"),
        "numsolve.solve_reuse_ratio": (
            ratio(len({key for key, _, _ in tracer.solves}), solves_per_pass), "ratio"),
        "numsolve.eigenvector.calls": (get("numsolve.eigenvector", "calls"), "count"),
        "numsolve.eigenvector.total_s": (get("numsolve.eigenvector"), "s"),
        "numsolve.eigenvector_reuse_ratio": (ratio(len(set(tracer.eigvecs)), vecs_per_pass), "ratio"),
        "numsolve.quadrature.total_s": (get("numsolve.quadrature"), "s"),
        "numsolve.discretize.total_s": (get("numsolve.discretize"), "s"),
        "superpot.partner_potentials.total_s": (get("superpot.partner_potentials"), "s"),
        "superpot.ground_state_from_w.total_s": (get("superpot.ground_state_from_w"), "s"),
        "superpot.apply_lowering.total_s": (get("superpot.apply_lowering"), "s"),
        "analytic.analytic_wavefunctions.total_s": (get("analytic.analytic_wavefunctions"), "s"),
        "qes.qes_ground_state.total_s": (get("qes.qes_ground_state"), "s"),
        "cli.resolve_config.total_s": (get("cli.resolve_config"), "s"),
    }
    for name in CHECK_NAMES:
        m[f"cli.check.{name}.total_s"] = (get(f"cli.check.{name}"), "s")
    m["cli.render.total_s"] = (render_s, "s")
    m["cli.render.mb_per_s"] = (ratio(render_bytes / 1e6, render_s), "MB/s")
    m["trace.overhead_ratio"] = (runner.pass_s(True) / runner.pass_s(False), "ratio")
    return m


def lapack_ratio(tracer):
    """Our solve time over SciPy ``eigh_tridiagonal(select='i')`` on the same
    operators and k, timed here, outside the passes.  0 without solves."""
    if not tracer.solves:
        return 0.0
    from scipy.linalg import eigh_tridiagonal

    floor = {}
    for key, k, _ in tracer.solves:
        if (key, k) in floor:
            continue
        op = tracer.operators[key]
        times = []
        for _ in range(LAPACK_REPEATS):
            t0 = time.perf_counter()
            eigh_tridiagonal(op.diag, op.off, eigvals_only=True, select="i",
                             select_range=(0, k - 1))
            times.append(time.perf_counter() - t0)
        floor[(key, k)] = statistics.median(times)
    ours = sum(dt for _, _, dt in tracer.solves)
    return ours / sum(floor[(key, k)] for key, k, _ in tracer.solves)


def write_spans(tracer, workload, seed):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.json"
    fields = ("name", "start", "end", "parent", "work")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(fields, s)) for s in tracer.spans], fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "susyrad" / "cli.py").is_file():
        print(f"error: susyrad sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    setup_times = measure_setup(SETUP_BATCH)
    last_setup = [time.perf_counter()]

    def setup_between_ops():
        if time.perf_counter() - last_setup[0] >= SETUP_EVERY_S:
            setup_times.extend(measure_setup(1))
            last_setup[0] = time.perf_counter()

    from susyrad import cli
    from tracer import Tracer
    from workloads import WORKLOADS, draw_models, write_custom_config

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    models = draw_models(args.seed)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as work:
        custom_config = os.path.join(work, "custom.json")
        write_custom_config(models["custom"][0], custom_config)
        ops = WORKLOADS[args.workload](models, custom_config)
        runner = Runner(cli, ops, tracer, after_op=setup_between_ops)
        for argv in WARMUP:
            runner.call(argv)

        # closed loop: the next op starts when the previous one returns
        start = time.perf_counter()
        traced = False
        while True:
            t0 = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    runner.run_pass(traced=True)
                finally:
                    tracer.uninstall()
            else:
                runner.run_pass(traced=False)
            elapsed = time.perf_counter() - start
            if args.trace:
                # untraced and traced passes alternate and a run ends on a
                # traced one, so both kinds have as many passes
                traced = not traced
                enough = runner.passes(True) == runner.passes(False)
                nxt = elapsed / runner.passes(True) if enough else 0.0
            else:
                enough = runner.passes(False) >= MIN_PASSES
                nxt = time.perf_counter() - t0
            if enough and elapsed + nxt > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times += measure_setup(SETUP_BATCH)

        if args.workload == "scan":
            runner.lapack_gate()

        error_rate = runner.failed / runner.attempted
        max_err_ratio = max(runner.err_ratios) if runner.err_ratios else 0.0
        end_to_end = {
            "setup_s": (min(setup_times), "s"),
            "pass_s": (runner.pass_s(False), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        if args.trace:
            metrics = per_layer(tracer, runner)
            metrics["quality.max_err_ratio"] = (max_err_ratio, "ratio")
            metrics["quality.error_rate"] = (error_rate, "ratio")
        else:
            metrics = end_to_end

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{runner.passes(False)} untraced and {runner.passes(True)} traced passes; "
          f"pass_s sums each op's median over the untraced passes")
    for traced in (False, True):
        if runner.op_times[traced]:
            print(f"{'traced' if traced else 'untraced'} pass seconds: "
                  + " ".join(f"{sum(t):.4f}" for t in runner.op_times[traced]))
    print(f"setup seconds ({len(setup_times)} cold imports, setup_s is the least): "
          + " ".join(f"{t:.4f}" for t in setup_times))
    for label, why in runner.problems:
        print(f"failed op {label}: {why}")
    print(f"error_rate {error_rate:.6g} ratio ({runner.failed}/{runner.attempted} ops)")
    print(f"max_err_ratio {max_err_ratio:.6g} ratio (worst error / documented tolerance)")
    if args.trace:
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}")
        # for reading only: the spans raise peak_rss_mb, and the bounded
        # end-to-end figures come from --trace 0 runs
        for name, (value, unit) in end_to_end.items():
            print(f"end-to-end {name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.gates_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
