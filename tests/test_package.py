"""The package surface: what importing the CLI loads, what __all__ lists,
and the names the benchmark's tracer looks up."""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import susyrad


def test_cli_import_loads_numpy_only():
    """The runtime depends on numpy alone; scipy, sympy, mpmath and
    hypothesis are for tests and benchmarks.  CSV rows are joined by hand, so
    the csv module is not loaded either."""
    code = ("import sys, susyrad.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & "
            "{'scipy', 'sympy', 'mpmath', 'hypothesis', 'csv'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "[]\n"


def test_all_resolves_and_lists_every_public_binding():
    assert all(hasattr(susyrad, name) for name in susyrad.__all__)
    public = {name for name, value in vars(susyrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(susyrad.__all__)


def test_every_name_the_benchmark_tracer_looks_up_resolves():
    """bench/tracer.py wraps each TRACED function, found with getattr, and
    the benchmark reads qes.lowest_eigenvalues and cli._CHECK_RUNNERS, so a
    renamed function would crash every traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"susyrad.{mod}"), name, None))]
    assert missing == []
    from susyrad import cli, qes
    assert callable(qes.lowest_eigenvalues)
    assert cli._CHECK_RUNNERS and all(callable(run) for run in cli._CHECK_RUNNERS.values())
