"""Run one workload in this fresh process and print its raw results as JSON.

Started by ``run.py``; not meant to be run by hand.  Set-up (importing the
library plus one warm-up call) is timed first.  With ``--setup-only`` the
process stops there.  Otherwise it runs passes for about ``--seconds``,
ending on a whole replay pair, and prints a JSON line.  With ``--trace 1``
untraced and traced units (a pass, or a replay pair) alternate, so the
tracing overhead is measured in the same run.  Untraced passes interleave
host-speed calibration slices with their calls (``pacing.py``); the time
the slices take is left out of the pass times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--outdir", type=Path, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import uasim

    if not Path(uasim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"uasim was imported from {uasim.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    workdir = args.outdir / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pacer = None
    tracer = None
    if not args.trace:
        import pacing

        pacer = pacing.Pacer(workload.calibration_slice)
    else:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}.seed{args.seed}.{time.time_ns()}")
        tracer.install()

    unit = 2 if workload.paired else 1
    min_passes = 2 * unit if args.trace else 2
    passes, digests = [], {}
    first_traced = None  # (span slice, bytes out) of the first traced pass
    begin = time.perf_counter()
    index, unit_start, unit_s = 0, 0.0, 0.0
    while True:
        if index % unit == 0:
            # Start another unit only if it is likely to end nearer to
            # --seconds than stopping now would.
            now = time.perf_counter() - begin
            if index >= min_passes and now + unit_s / 2 >= args.seconds:
                break
            unit_start = now
        traced = tracer is not None and (index // unit) % 2 == 1
        if traced:
            start = len(tracer.spans)
            root = tracer.begin("bench.pass", {"pass": index})
            tracer.active = True
        calibration_s = pacer.calibration_s if pacer is not None else 0.0
        t_pass = time.perf_counter()
        result = workload.execute(index, pacer or (lambda: None))
        wall = time.perf_counter() - t_pass
        if pacer is not None:
            wall -= pacer.calibration_s - calibration_s
        if traced:
            tracer.active = False
            tracer.end(root)
        workload.verify(index, result)
        if traced and first_traced is None:
            first_traced = (tracer.spans[start:], result.bytes_out)
        digests.update((name, hashlib.sha256(data).hexdigest())
                       for name, data in result.tables.items())
        passes.append({
            "wall_s": wall,
            "traced": traced,
            "call_s": result.call_s,
            "samples": result.samples,
            "stderrs": result.stderrs,
            "attempted": result.attempted,
            "failures": result.failures,
        })
        index += 1
        if index % unit == 0:
            unit_s = time.perf_counter() - begin - unit_start

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "passes": passes,
        "slowness": pacer.samples if pacer is not None else [],
        "calibration_s": pacer.calibration_s if pacer is not None else 0.0,
        "digests": digests,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "uasim": uasim.__version__,
        },
    }
    if tracer is not None:
        selfs = tracing.self_times(tracer.spans)
        n_traced = sum(p["traced"] for p in passes)
        out["layers"], out["self_s_by_span"] = tracing.layer_metrics(
            tracer.spans, selfs, first_traced[0], n_traced, first_traced[1])
        out["spans_file"] = write_spans(tracer, args.outdir / f"{args.workload}-seed{args.seed}.spans.csv")
    print(json.dumps(out))
    return 0


def write_spans(tracer, path: Path) -> str:
    """One CSV row per span; times in seconds from the first span's start."""
    t0 = tracer.spans[0][3] if tracer.spans else 0.0
    with open(path, "w") as fh:
        fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
        for sid, parent, name, start, end, _ in tracer.spans:
            fh.write(f"{tracer.run_id},{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
