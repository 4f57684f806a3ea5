"""The package surface: what importing the CLI loads, what __all__ lists,
the names the benchmark's tracer looks up, and the CLI digest battery."""

import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import susyrad


def _load_script(relative_path: str, name: str):
    """Import a repository script that is not part of the package."""
    path = Path(__file__).resolve().parents[1] / relative_path
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_cli_import_does_not_load_qes():
    """The package does not re-export the quasi-exactly-solvable helpers, and
    the CLI reads the closed-form zero mode from analytic, so qes stays
    unloaded until it is imported by name."""
    code = "import sys, susyrad.cli; print('susyrad.qes' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "False\n"
    assert not hasattr(susyrad, "qes_ground_state")


def test_cli_import_builds_no_parser_and_the_first_use_builds_one():
    """setup time is the import: the argparse parser is built on first use,
    once per process."""
    code = ("import argparse, sys; built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import susyrad.cli as cli; counts = [len(built)]; cli.build_parser(); "
            "counts.append(len(built)); cli.main(['spectrum', '--help']); "
            "counts.append(len(built)); print(*counts, file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    err = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stderr
    on_import, first_use, after_a_run = map(int, err.split())
    assert on_import == 0 and first_use > 0 and after_a_run == first_use


def test_all_resolves_and_lists_every_public_binding():
    assert all(hasattr(susyrad, name) for name in susyrad.__all__)
    public = {name for name, value in vars(susyrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(susyrad.__all__)


def test_every_name_the_benchmark_tracer_looks_up_resolves():
    """bench/tracer.py wraps each TRACED function, found with getattr, and
    the benchmark reads qes.lowest_eigenvalues and cli._CHECK_RUNNERS, so a
    renamed function would crash every traced benchmark run."""
    tracer = _load_script("bench/tracer.py", "bench_tracer")
    missing = [f"{mod}.{name}" for mod, name, _ in tracer.TRACED
               if not callable(getattr(importlib.import_module(f"susyrad.{mod}"), name, None))]
    assert missing == []
    from susyrad import cli, qes
    assert callable(qes.lowest_eigenvalues)
    assert cli._CHECK_RUNNERS and all(callable(run) for run in cli._CHECK_RUNNERS.values())


def test_every_digest_invocation_ends_in_a_documented_exit_code(tmp_path):
    """The whole tools/cli_digest.py battery, in process: every invocation
    exits 0-3, with no traceback and no numpy warning in its stderr column.
    Stdout hashes are not compared: numpy's SIMD loops round differently per
    instruction set."""
    digest = _load_script("tools/cli_digest.py", "cli_digest")
    from susyrad import cli
    bad = []
    for argv in digest.battery(digest.write_configs(str(tmp_path))):
        code, _, err = digest.run(cli, argv)
        if code not in (0, 1, 2, 3) or "traceback" in err.lower() or "warning:" in err:
            bad.append(f"{' '.join(argv)} | {code} | {err}")
    assert bad == []
