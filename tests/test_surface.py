"""The package's public surface: what it exports, and what the benchmark's tracer reaches."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uasim

MODULES = sorted(m.name for m in pkgutil.iter_modules(uasim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"uasim.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"uasim.{module}.__all__ names what it does not define: {missing}"


# The benchmark's traced runs wrap library names by attribute lookup, so a
# deleted or renamed name breaks them; install the tracer in a fresh
# interpreter that imports this checkout.  perfbench/ is only read.
TRACER_CHILD = """
import tracing
tracing.Tracer("t").install()
"""


def test_benchmark_tracer_installs():
    src = str(Path(uasim.__file__).resolve().parents[1])
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, perfbench, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", TRACER_CHILD], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
