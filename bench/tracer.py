"""Outside-in span tracing for the susyrad layers.

The benchmark must not edit the program, so spans are recorded by replacing
each traced function in *every* place that binds it: the defining module, the
modules that imported it by name (``cli`` and ``qes`` hold their own reference
to ``lowest_eigenvalues``), the package namespace, and module-level dispatch
tables such as ``cli._CHECK_RUNNERS``.  A function that calls a traced
function through its own module globals (``lowest_eigenvalues`` ->
``sturm_count``) then reaches the wrapper as well.

Spans are records ``[name, start, end, parent_index, work]`` kept in memory;
``work`` is a per-call count (rows swept, bytes rendered, ...) or ``None``.
Everything runs on one thread, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import time

#: (module, function name, work extractor or None); the span name is
#: "<module>.<function>".  The list covers every layer of the package.
TRACED = (
    ("numsolve", "discretize", None),
    ("numsolve", "sturm_count", lambda args, kwargs, result: args[0].size),
    ("numsolve", "lowest_eigenvalues", None),
    ("numsolve", "eigenvector", None),
    ("numsolve", "quadrature", None),
    ("numsolve", "cumulative_quadrature", None),
    ("numsolve", "isospectral_check", None),
    ("superpot", "superpotential_from_model", None),
    ("superpot", "partner_potentials", None),
    ("superpot", "ground_state_from_w", None),
    ("superpot", "apply_lowering", None),
    ("specfun", "laguerre", None),
    ("analytic", "analytic_epsilon_sq", None),
    ("analytic", "analytic_wavefunctions", None),
    ("qes", "qes_ground_state", None),
    ("cli", "resolve_config", None),
    ("cli", "default_grid", None),
    ("cli", "default_checks", None),
    ("cli", "run_verification", None),
    ("cli", "cmd_spectrum", None),
    ("cli", "cmd_wavefunction", None),
    ("cli", "cmd_partner", None),
    ("cli", "render_spectrum", lambda args, kwargs, result: len(result)),
    ("cli", "render_samples", lambda args, kwargs, result: len(result)),
    ("cli", "render_verify", lambda args, kwargs, result: len(result)),
    ("cli", "_check_isospectral", None),
    ("cli", "_check_intertwine", None),
    ("cli", "_check_orthonormal", None),
    ("cli", "_check_ground_residual", None),
    ("cli", "_check_analytic_vs_numeric", None),
)

MODULES = ("core", "specfun", "numsolve", "superpot", "analytic", "qes", "cli")


def operator_key(op) -> str:
    """Content hash of a tridiagonal operator: equal keys mean the same matrix."""
    h = hashlib.sha1(op.diag.tobytes())
    h.update(op.off.tobytes())
    return h.hexdigest()


class Tracer:
    """Span recorder plus the bookkeeping to install and remove its wrappers.

    Besides spans, it records each ``lowest_eigenvalues`` call as
    ``(operator key, k, duration)`` and each ``eigenvector`` call as
    ``(operator key, lambda)``, keeping one copy of every distinct operator
    so the LAPACK yardstick can be timed on it later.
    """

    def __init__(self):
        self.spans = []
        self.solves = []
        self.eigvecs = []
        self.operators = {}
        self._stack = [None]
        self._patches = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, work=None):
        rec = self.spans[idx]
        rec[2] = time.perf_counter()
        rec[4] = work
        self._stack.pop()
        return rec[2] - rec[1]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, span_name, fn, work_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                raise
            work = work_of(args, kwargs, result) if work_of else None
            dt = self._close(idx, work)
            if span_name == "numsolve.lowest_eigenvalues":
                op = args[0]
                key = operator_key(op)
                self.operators.setdefault(key, op)
                k = args[1] if len(args) > 1 else kwargs["k"]
                self.solves.append((key, k, dt))
            elif span_name == "numsolve.eigenvector":
                lam = args[1] if len(args) > 1 else kwargs["lam"]
                self.eigvecs.append((operator_key(args[0]), float(lam)))
            return result

        return wrapper

    def install(self):
        """Replace every binding of every TRACED function; returns the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("susyrad")]
        modules += [importlib.import_module(f"susyrad.{m}") for m in MODULES]
        for mod_name, fn_name, work_of in TRACED:
            original = getattr(importlib.import_module(f"susyrad.{mod_name}"), fn_name)
            name = _span_name(mod_name, fn_name)
            wrapper = self._wrap(name, original, work_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((vars(mod), attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict) and not attr.startswith("__"):
                        for key, item in list(value.items()):
                            if item is original:
                                self._patches.append((value, key, original))
                                value[key] = wrapper
        return len(self._patches)

    def uninstall(self):
        """Put every original function back where it was found."""
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()


def _span_name(mod_name, fn_name):
    if fn_name.startswith("_check_"):
        return f"cli.check.{fn_name[len('_check_'):]}"
    if fn_name.startswith("render_"):
        return f"cli.render.{fn_name[len('render_'):]}"
    return f"{mod_name}.{fn_name}"


def summarize(spans):
    """Per span name: calls, total seconds, self seconds and summed work.

    Self time is a span's duration minus the durations of its direct
    children; on one thread the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, work in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent, work) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - child_time[i]
        if work is not None:
            s["work"] += work
    return out
