"""The package surface: what importing the CLI loads, and what __all__ lists."""

import os
import subprocess
import sys
import types

import susyrad


def test_cli_import_loads_numpy_only():
    """The runtime depends on numpy alone; scipy, sympy, mpmath and
    hypothesis are for tests and benchmarks."""
    code = ("import sys, susyrad.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & "
            "{'scipy', 'sympy', 'mpmath', 'hypothesis'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "[]\n"


def test_all_resolves_and_lists_every_public_binding():
    assert all(hasattr(susyrad, name) for name in susyrad.__all__)
    public = {name for name, value in vars(susyrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(susyrad.__all__)
