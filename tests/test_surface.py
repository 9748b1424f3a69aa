"""The package's public surface: what it exports, and what the benchmark's tracer reaches."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uasim
from uasim.gates import FAMILIES

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


def run_with_tracer(child: str) -> subprocess.CompletedProcess:
    src = str(Path(uasim.__file__).resolve().parents[1])
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, perfbench, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-B", "-c", child], env=env, capture_output=True, text=True
    )


def test_benchmark_tracer_installs():
    proc = run_with_tracer(TRACER_CHILD)
    assert proc.returncode == 0, proc.stderr


# The tracer replaces each estimator at the attribute ``uasim mc`` reaches it
# through, so an estimator bound elsewhere at import would run untraced.
TRACED_MC_CHILD = """
import contextlib, io, json
import tracing
import uasim.cli
from uasim.gates import FAMILIES

tracer = tracing.Tracer("t")
tracer.install()
tracer.active = True
codes = []
for family in FAMILIES:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(uasim.cli.main(["mc", "--family", family, "--nu", "0.01",
                                     "--big-n", "1,2", "--samples", "64", "--seed", "1"]))
print(json.dumps({"codes": codes, "spans": [[s[2], s[5]] for s in tracer.spans]}))
"""


def test_benchmark_tracer_sees_every_mc_estimator():
    """Every family of ``gates.FAMILIES`` runs traced: the two-rail one
    through ``estimate_fidelity``, the four-rail ones through ``estimate_fusion``."""
    proc = run_with_tracer(TRACED_MC_CHILD)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(FAMILIES)
    estimators = [
        (name, attrs["N"]) for name, attrs in got["spans"] if name.startswith("montecarlo.estimate_")
    ]
    assert estimators == [
        ("montecarlo.estimate_fidelity" if family.rails == 2 else "montecarlo.estimate_fusion", n)
        for family in FAMILIES.values()
        for n in (1, 2)
    ]
