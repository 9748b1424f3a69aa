"""Benchmark entry point: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mc-single --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout; nothing is installed.  The workload runs in a fresh child
process (``worker.py``) with BLAS and OpenMP threads capped at the number of
usable cores.  Set-up time is measured in further fresh processes, which stop
after the warm-up call, and reported as the median over all of them.  The
gated pass time is scaled to a reference host speed, which the workload
process measures as it goes (``pacing.py``), so the drift of a shared host
divides out; the raw pass time is printed as well.

Every metric is printed on its own line as ``metric <name> = <value> <unit>``.
The last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  A run record with machine facts, versions, the output
table digests and every pass goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra set-up-only processes; the workload process adds one
TIMEOUT_S = 150  # per child; the whole run must end within 180 s
ACCURACY = 1e-5  # target stderr of time_to_accuracy_s

WORKLOADS = ("mc-single", "mc-fusion", "tree-e2e", "cli-sweeps")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args: argparse.Namespace, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", str(OUT), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the ones that are only printed.

    ``ref_wall_s`` is scaled to the reference host speed (``pacing.py``):
    the mean pass time is divided by the mean host slowness of the run.
    Means, not medians: the host switches between a fast and a slow state,
    and a median of such a mixture jumps from one state to the other, while
    a mean follows the share of time spent in each.
    """
    passes = [p for p in res["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    calls = [c for p in passes for c in p["call_s"]]
    slowness = statistics.mean(res["slowness"])
    metrics = {
        "setup_s": statistics.median(setup),
        "ref_wall_s": statistics.mean(walls) / slowness,
        "peak_rss_mib": res["peak_rss_mib"],
    }
    extra = {
        "wall_s": statistics.median(walls),
        "host_slowness": slowness,
        "calls_per_s": len(calls) / sum(walls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p99_ms": 1e3 * percentile(calls, 99),
        "calls": len(calls),
    }
    samples = sum(p["samples"] for p in passes)
    if samples:
        extra["samples_per_s"] = samples / sum(walls)
        extra["time_to_accuracy_s"] = statistics.median(
            p["wall_s"] * max((s / ACCURACY) ** 2 for s in p["stderrs"] if s > 0)
            for p in passes if any(s > 0 for s in p["stderrs"])
        )
    return metrics, extra


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def code_version() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "uasim" / "__init__.py").is_file():
        print("run.py: no src/uasim in this checkout; nothing to measure", file=sys.stderr)
        return 2
    declared = spec()
    OUT.mkdir(exist_ok=True)

    setup = [run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    res = run_worker(args, "--seconds", str(args.seconds), "--trace", str(args.trace))
    setup.append(res["setup_s"])

    attempted = sum(p["attempted"] for p in res["passes"])
    failures = [f for p in res["passes"] for f in p["failures"]]
    for f in failures[:20]:
        print(f"FAILED {f}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    units.update(wall_s="s", host_slowness="1",
                 calls_per_s="1/s", call_p50_ms="ms", call_p99_ms="ms", calls="count",
                 samples_per_s="1/s", time_to_accuracy_s="s", failed_frac="1")
    if args.trace:
        walls = {t: [p["wall_s"] for p in res["passes"] if p["traced"] == t]
                 for t in (False, True)}
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        shown = dict(metrics)
        with open(HERE / "predictions.json") as fh:
            for pred in json.load(fh)["per_layer"]:
                if args.workload in pred.get("zero_on", ()):
                    held = "held" if metrics[pred["metric"]] == 0 else "VIOLATED"
                    print(f"prediction {pred['metric']} = 0 on {args.workload}: {held}")
        shares = res["self_s_by_span"]
        total = sum(shares.values())
        for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"self_share {name} = {100 * value / total:.2f} %")
    else:
        metrics, extra = end_to_end(res, setup)
        shown = {**metrics, **extra}
    shown["failed_frac"] = len(failures) / attempted
    for name, value in shown.items():
        print(f"metric {name} = {value!r} {units[name]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "versions": res["versions"],
        **code_version(), "metrics": shown, "setup_samples_s": setup,
        "slowness_samples": res["slowness"], "calibration_s": res["calibration_s"],
        "attempted": attempted, "failures": failures, "passes": res["passes"],
        "table_sha256": res["digests"], "spans_file": res.get("spans_file"),
        "self_s_by_span": res.get("self_s_by_span"),
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {path.relative_to(ROOT)}")

    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
