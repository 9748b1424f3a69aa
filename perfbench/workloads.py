"""The benchmark's workloads: seeded inputs, timed calls and output checks.

Every workload is a single closed-loop client: it issues the next call only
after the previous one returned.  A workload runs in passes.  ``execute``
makes the timed calls of one pass, calling ``between()`` before each (the
worker calibrates the host speed there); ``verify`` then checks their
outputs, untimed.  ``calibration_slice`` names the host-speed calibration
(``pacing.py``) most like the workload's own work.  In a paired workload,
odd passes repeat the even pass before them (``uasim mc`` replays its dumped
config) and must reproduce it byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from uasim import cli, formulas, montecarlo
from uasim.averaging import EncoderNoise, encoder_error_scaling
from uasim.ftregion import load_synthetic_curve, sweep_region
from uasim.gates import named_gate, single_qubit_matrix
from uasim.parity import HeraldPattern, ParityCode, logical_success_prob, success_criteria

Z_BAND = 5.0  # |z| allowed between a Monte Carlo estimate and the exact law
EXACT_TOL = 1e-12  # absolute agreement that passes without a z band


def derive_seed(*key: int) -> int:
    """A 31-bit program seed drawn from the workload seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def exact_law(nu: float, num_copies: int, depth: int, noise: str) -> tuple[float, float]:
    """Exact ensemble success probability and ratio-of-means fidelity.

    Every gate entry is a product of ``depth`` independent noisy factors with
    E[cos delta] = c, so E[U] = c^depth U_ideal and averaging N copies gives
    P_s = 1/N + (1 - 1/N) c^(2 depth) and F = c^(2 depth) / P_s.
    """
    c = math.exp(-nu / 2.0) if noise == "gaussian" else math.cos(math.sqrt(nu))
    k = c ** (2 * depth)
    ps = 1.0 / num_copies + (1.0 - 1.0 / num_copies) * k
    return ps, k / ps


def within_band(estimate: float, stderr: float, exact: float) -> bool:
    diff = abs(estimate - exact)
    return diff <= EXACT_TOL or (stderr > 0.0 and diff <= Z_BAND * stderr)


def run_cli(argv: list[str]) -> tuple[float, int, str, str]:
    """One in-process ``uasim`` call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return elapsed, code, out.getvalue(), err.getvalue()


def read_table(text: str, fmt: str = "csv") -> list[dict]:
    if fmt == "json":
        return json.loads(text)["rows"]
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


@dataclass
class Pass:
    """Outcome of one pass; ``verify`` fills in the checks."""

    call_s: list[float] = field(default_factory=list)
    samples: int = 0  # Monte Carlo samples drawn
    stderrs: list[float] = field(default_factory=list)  # of each point's P_s
    tables: dict[str, bytes] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)  # one entry per failed call
    bytes_out: int = 0  # bytes the CLI wrote: tables and reports
    raw: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.call_s)


# ---------------------------------------------------------------------------
# Monte Carlo campaigns through the CLI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    family: str
    nus: tuple[float, ...]
    copies: tuple[int, ...]
    samples: int
    depth: int
    noise: str


class McWorkload:
    """``uasim mc`` campaigns; each odd pass replays the dumped configs."""

    paired = True
    calibration_slice = "numpy"

    def __init__(self, seed: int, workdir: Path, campaigns: tuple[Campaign, ...]):
        self.seed = seed
        self.workdir = workdir
        self.campaigns = campaigns

    def _paths(self, pair: int, camp: Campaign, replay: bool) -> dict[str, Path]:
        stem = self.workdir / f"pair{pair}.{camp.family}"
        tag = ".replay" if replay else ""
        paths = {"out": Path(f"{stem}{tag}.csv"), "config": Path(f"{stem}.config.json")}
        if camp.family == "single-qubit":
            paths["report"] = Path(f"{stem}{tag}.report.json")
        return paths

    def _argv(self, pair: int, camp: Campaign, replay: bool, seed: int) -> list[str]:
        p = self._paths(pair, camp, replay)
        if replay:
            argv = ["mc", "--config", str(p["config"]), "--out", str(p["out"])]
        else:
            argv = [
                "mc", "--family", camp.family,
                "--nu", ",".join(map(repr, camp.nus)),
                "--big-n", ",".join(map(str, camp.copies)),
                "--samples", str(camp.samples),
                "--seed", str(seed),
                "--out", str(p["out"]), "--dump-config", str(p["config"]),
            ]
        if "report" in p:
            argv += ["--report", str(p["report"])]
        return argv

    def warm_up(self) -> None:
        for camp in self.campaigns:
            small = Campaign(camp.family, (0.005, 0.01, 0.02), (2,), 1024,
                             camp.depth, camp.noise)
            _, code, _, err = run_cli(self._argv(-1, small, False, seed=1))
            if code != 0:
                raise RuntimeError(f"warm-up call failed: {err.strip()}")

    def execute(self, index: int, between) -> Pass:
        pair, replay = divmod(index, 2)
        result = Pass()
        for camp in self.campaigns:
            between()
            argv = self._argv(pair, camp, bool(replay), derive_seed(self.seed, pair))
            elapsed, code, _, err = run_cli(argv)
            result.call_s.append(elapsed)
            result.samples += camp.samples * len(camp.nus) * len(camp.copies)
            result.raw.append((camp, code, err))
        return result

    def verify(self, index: int, result: Pass) -> None:
        pair, replay = divmod(index, 2)
        for camp, code, err in result.raw:
            paths = self._paths(pair, camp, bool(replay))
            if code != 0:
                result.failures.append(f"{camp.family}: exit {code}: {err.strip()}")
                continue
            for key in ("out", "report"):
                if key in paths:
                    result.tables[paths[key].name] = paths[key].read_bytes()
                    result.bytes_out += len(result.tables[paths[key].name])
            problems = (self._check_replay(pair, camp) if replay
                        else self._check_campaign(paths, camp, result))
            if problems:
                result.failures.append(f"{camp.family}: " + "; ".join(problems))

    def _check_replay(self, pair: int, camp: Campaign) -> list[str]:
        first, again = self._paths(pair, camp, False), self._paths(pair, camp, True)
        return [
            f"replayed {key} differs from the original"
            for key in ("out", "report")
            if key in first and first[key].read_bytes() != again[key].read_bytes()
        ]

    def _check_campaign(self, paths, camp: Campaign, result: Pass) -> list[str]:
        problems = []
        rows = read_table(paths["out"].read_text())
        grid = [(nu, n) for nu in camp.nus for n in camp.copies]
        if [(float(r["nu"]), int(r["N"])) for r in rows] != grid:
            return ["output grid does not match the requested grid"]
        for row, (nu, n) in zip(rows, grid):
            if int(row["samples"]) != camp.samples:
                problems.append(f"nu={nu} N={n}: wrong sample count")
            ps, fid = exact_law(nu, n, camp.depth, camp.noise)
            mean, stderr = float(row["mc_mean"]), float(row["mc_stderr"])
            result.stderrs.append(stderr)
            if not within_band(mean, stderr, ps):
                problems.append(f"nu={nu} N={n}: P_s {mean} vs exact {ps} (stderr {stderr})")
            if camp.family == "single-qubit":
                f, fs = float(row["mc_fidelity"]), float(row["mc_fidelity_stderr"])
                if not within_band(f, fs, fid):
                    problems.append(f"nu={nu} N={n}: F {f} vs exact {fid} (stderr {fs})")
            else:
                pair_ps = float(row["mc_pair_mean"])
                if not 0.0 <= pair_ps <= 1.0 + EXACT_TOL:
                    problems.append(f"nu={nu} N={n}: two-photon P_s {pair_ps} outside [0, 1]")
        if "report" in paths:
            report = json.loads(paths["report"].read_text())
            selected = f"# selected_variant: {report['selected']}"
            if selected not in paths["out"].read_text().splitlines():
                problems.append("report and table disagree on the selected variant")
        return problems


def mc_single(seed: int, workdir: Path) -> McWorkload:
    return McWorkload(seed, workdir, (
        Campaign("single-qubit", (0.005, 0.01, 0.02), (2, 4, 8, 16), 65536, 3, "gaussian"),
    ))


def mc_fusion(seed: int, workdir: Path) -> McWorkload:
    return McWorkload(seed, workdir, (
        Campaign("four-mode", (0.005, 0.01), (1, 2, 4, 8), 16384, 6, "gaussian"),
        Campaign("type2", (0.005, 0.01), (1, 2, 4, 8), 16384, 2, "two-point"),
    ))


# ---------------------------------------------------------------------------
# end-to-end estimator through the splitter tree
# ---------------------------------------------------------------------------


class TreeWorkload:
    """``estimate_end_to_end`` with and without correlated splitter jitter."""

    paired = True
    calibration_slice = "python"
    NU = 0.01
    COPIES = (2, 4, 8)
    SAMPLES = 2048
    JITTER = EncoderNoise(1e-4, correlated=True)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _points(self, pair: int):
        for i, (n, jitter) in enumerate(product(self.COPIES, (False, True))):
            yield n, jitter, derive_seed(self.seed, pair, i)

    def warm_up(self) -> None:
        montecarlo.estimate_end_to_end(self.NU, 2, 16, seed=1, encoder_noise=self.JITTER)

    def execute(self, index: int, between) -> Pass:
        pair = index // 2
        result = Pass()
        for n, jitter, seed in self._points(pair):
            between()
            t0 = time.perf_counter()
            run = montecarlo.estimate_end_to_end(
                self.NU, n, self.SAMPLES, seed=seed,
                encoder_noise=self.JITTER if jitter else None,
            )
            result.call_s.append(time.perf_counter() - t0)
            result.raw.append(run)
        return result

    def verify(self, index: int, result: Pass) -> None:
        pair, replay = divmod(index, 2)
        lines = ["N,jitter,ps,ps_stderr,fidelity,fidelity_stderr"]
        for (n, jitter, seed), run in zip(self._points(pair), result.raw):
            ps, fid = run.success_prob, run.fidelity.ratio_of_means
            lines.append(f"{n},{int(jitter)},{ps.mean!r},{ps.stderr!r},{fid.mean!r},{fid.stderr!r}")
            result.samples += ps.samples
            result.stderrs.append(ps.stderr)
            if replay:
                continue
            if jitter:
                problems = [] if math.isfinite(ps.mean) and 0.0 <= ps.mean <= 1.0 else [
                    f"P_s {ps.mean} is not a probability"]
            else:
                problems = self._check_jitter_free(n, seed, ps, fid)
            if problems:
                result.failures.append(f"N={n} jitter={jitter}: " + "; ".join(problems))
        table = ("\n".join(lines) + "\n").encode()
        result.tables[f"pair{pair}{'.replay' if replay else ''}.tree.csv"] = table
        if replay and table != self._last_table:
            result.failures.append("repeated pass is not bit-identical")
        self._last_table = table

    def _check_jitter_free(self, n, seed, ps, fid) -> list[str]:
        ref = montecarlo.estimate_fidelity(self.NU, n, self.SAMPLES, seed=seed, chunk_size=4096)
        problems = []
        if abs(ps.mean - ref.success_prob.mean) > EXACT_TOL:
            problems.append(f"P_s {ps.mean} vs estimate_fidelity {ref.success_prob.mean}")
        if abs(fid.mean - ref.fidelity.ratio_of_means.mean) > EXACT_TOL:
            problems.append(f"F {fid.mean} vs estimate_fidelity {ref.fidelity.ratio_of_means.mean}")
        exact_ps, exact_f = exact_law(self.NU, n, 3, "gaussian")
        if not within_band(ps.mean, ps.stderr, exact_ps):
            problems.append(f"P_s {ps.mean} vs exact {exact_ps} (stderr {ps.stderr})")
        if not within_band(fid.mean, fid.stderr, exact_f):
            problems.append(f"F {fid.mean} vs exact {exact_f} (stderr {fid.stderr})")
        return problems


# ---------------------------------------------------------------------------
# many small CLI calls
# ---------------------------------------------------------------------------

# Formula ids of ``uasim analytic`` and the public functions they evaluate.
ANALYTIC = {
    "ps-single": formulas.success_prob_single,
    "fidelity-single": formulas.fidelity_single,
    "ps-four-mode": formulas.success_prob_four_mode,
    "fidelity-four-mode": formulas.fidelity_four_mode,
    "ps-type2": formulas.success_prob_type2,
    "fidelity-type2": formulas.fidelity_type2,
    "ps-first-order": formulas.success_prob_first_order,
    "fidelity-first-order": formulas.fidelity_first_order,
}


class CliWorkload:
    """A seeded, shuffled mix of small ``uasim`` calls with fixed counts."""

    paired = False
    calibration_slice = "python"
    MIX = {"analytic": 400, "parity": 250, "ft-region": 200, "encode-check": 150}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.curve = load_synthetic_curve()
        self._enumerated: dict[tuple[int, int], list[int]] = {}

    def _calls(self, index: int) -> list[tuple[str, list[str], dict]]:
        rng = np.random.default_rng([self.seed, index])
        calls = []
        for kind, count in self.MIX.items():
            for i in range(count):
                fmt = "json" if i % 2 else "csv"
                argv, spec = getattr(self, "_" + kind.replace("-", "_"))(rng, i)
                calls.append((kind, [kind] + argv + ["--format", fmt], spec))
        order = rng.permutation(len(calls))
        return [calls[i] for i in order]

    # The argument builders take the call's index within its kind, so the
    # costlier choices (formula, tree depths) come in fixed proportions.
    @staticmethod
    def _analytic(rng, i):
        formula = sorted(ANALYTIC)[i % len(ANALYTIC)]
        nus = [float(x) for x in rng.uniform(0.001, 0.05, 3)]
        big_n = [str(x) for x in rng.choice(["1", "2", "4", "8", "16", "inf"], 3, replace=False)]
        argv = ["--formula", formula, "--nu", ",".join(map(repr, nus)), "--big-n", ",".join(big_n)]
        return argv, {"formula": formula, "nus": nus, "big_n": big_n}

    @staticmethod
    def _parity(rng, i):
        n, q = (int(x) for x in rng.integers(1, 4, 2))
        ps = [float(x) for x in rng.uniform(0.0, 0.5, 4)]
        argv = ["--n", str(n), "--q", str(q), "--p", ",".join(map(repr, ps))]
        return argv, {"n": n, "q": q, "ps": ps}

    @staticmethod
    def _ft_region(rng, i):
        eps = [float(x) for x in 10.0 ** rng.uniform(-6.0, -1.7, 3)]
        gam = [float(x) for x in rng.uniform(0.0, 0.12, 3)]
        big_n = sorted(int(x) for x in rng.choice([1, 2, 4, 8, 16], 3, replace=False))
        argv = ["--epsilon", ",".join(map(repr, eps)), "--gamma", ",".join(map(repr, gam)),
                "--big-n", ",".join(map(str, big_n))]
        return argv, {"eps": eps, "gam": gam, "big_n": big_n}

    @staticmethod
    def _encode_check(rng, i):
        levels = [(1, 2), (1, 3), (2, 3)][i % 3]
        big = float(10.0 ** rng.uniform(-3.5, -2.5))
        scales = [big, float(big * 10.0 ** -rng.uniform(0.5, 1.5))]
        gate = str(rng.choice(["I", "X", "Y", "H", "Z"]))
        seed = int(rng.integers(0, 2**31))
        argv = ["--levels", ",".join(map(str, levels)),
                "--delta-theta", ",".join(map(repr, scales)),
                "--seed", str(seed), "--gate", gate]
        alpha = None
        if gate == "Z":
            alpha = float(rng.uniform(0.0, 2.0 * math.pi))
            argv += ["--alpha", repr(alpha)]
        return argv, {"levels": levels, "scales": scales, "gate": gate,
                      "alpha": alpha, "seed": seed}

    def warm_up(self) -> None:
        _, code, _, err = run_cli(["analytic", "--formula", "ps-single",
                                   "--nu", "0.01", "--big-n", "1,4"])
        if code != 0:
            raise RuntimeError(f"warm-up call failed: {err.strip()}")

    def execute(self, index: int, between) -> Pass:
        result = Pass()
        for kind, argv, spec in self._calls(index):
            between()
            elapsed, code, out, err = run_cli(argv)
            result.call_s.append(elapsed)
            result.raw.append((kind, argv, spec, code, out, err))
        return result

    def verify(self, index: int, result: Pass) -> None:
        for i, (kind, argv, spec, code, out, err) in enumerate(result.raw):
            result.tables[f"pass{index}.call{i}.{kind}"] = out.encode()
            result.bytes_out += len(result.tables[f"pass{index}.call{i}.{kind}"])
            if code != 0:
                result.failures.append(f"{' '.join(argv)}: exit {code}: {err.strip()}")
                continue
            rows = read_table(out, argv[-1])
            problems = getattr(self, "_check_" + kind.replace("-", "_"))(spec, rows, out)
            if problems:
                result.failures.append(f"{' '.join(argv)}: " + "; ".join(problems))

    @staticmethod
    def _check_analytic(spec, rows, out):
        func = ANALYTIC[spec["formula"]]
        seen = set()
        for r in rows:
            nu, n = float(r["nu"]), float(r["N"])
            args = (nu, n, r["variant"]) if r["variant"] else (nu, n)
            if float(r["value"]) != func(*args):
                return [f"value at nu={nu} N={n} {r['variant']} differs from the library"]
            seen.add((nu, r["N"]))
        if seen != {(nu, n) for nu in spec["nus"] for n in spec["big_n"]}:
            return ["rows do not cover the requested grid"]
        return []

    def _check_parity(self, spec, rows, out):
        code = ParityCode(spec["n"], spec["q"])
        counts = self._success_counts(code)
        m = code.physical_qubits
        if [float(r["p"]) for r in rows] != spec["ps"]:
            return ["rows do not match the requested p grid"]
        for r in rows:
            p, value = float(r["p"]), float(r["success_prob"])
            if value != logical_success_prob(code, p):
                return [f"p={p}: value differs from the library"]
            brute = math.fsum(c * p**k * (1 - p) ** (m - k) for k, c in enumerate(counts))
            if abs(value - brute) > EXACT_TOL or not 0.0 <= value <= 1.0:
                return [f"p={p}: {value} vs enumeration {brute}"]
        return []

    def _success_counts(self, code: ParityCode) -> list[int]:
        """Recoverable herald patterns by number of heralds, by enumeration."""
        key = (code.n, code.q)
        if key not in self._enumerated:
            counts = [0] * (code.physical_qubits + 1)
            for bits in product((False, True), repeat=code.physical_qubits):
                if success_criteria(HeraldPattern(bits), code):
                    counts[sum(bits)] += 1
            self._enumerated[key] = counts
        return self._enumerated[key]

    def _check_ft_region(self, spec, rows, out):
        expect = sweep_region(spec["eps"], spec["gam"], spec["big_n"], self.curve)
        if len(rows) != len(expect):
            return ["row count differs from the library sweep"]
        for r, p in zip(rows, expect):
            got = (float(r["epsilon"]), float(r["gamma"]), int(r["N"]),
                   float(r["effective_error"]), float(r["effective_loss"]),
                   r["fault_tolerant"] in ("true", True))
            want = (p.epsilon, p.gamma, p.num_copies, p.effective_error,
                    p.effective_loss, p.fault_tolerant)
            if got != want:
                return [f"row {got} differs from the library sweep {want}"]
        if self.curve.code_name not in out:
            return ["curve name missing from the output"]
        return []

    @staticmethod
    def _check_encode_check(spec, rows, out):
        gate = single_qubit_matrix(named_gate(spec["gate"], spec["alpha"]))
        problems = []
        for level in spec["levels"]:
            mine = [r for r in rows if int(r["levels"]) == level]
            devs = encoder_error_scaling([gate] * 2**level, spec["scales"],
                                         pattern_seed=spec["seed"])
            if [float(r["deviation"]) for r in mine] != [float(d) for d in devs]:
                problems.append(f"levels={level}: deviations differ from the library")
            # Splitters sit at a stationary point, so jitter enters at second
            # order (slope 2, or more where that term cancels for the frozen
            # pattern); a first-order leak would give slope 1.  Deviations at
            # rounding level carry no slope.
            if min(devs) > EXACT_TOL and not float(mine[0]["slope"]) >= 1.99:
                problems.append(f"levels={level}: slope {mine[0]['slope']} is below 2")
        return problems


WORKLOADS = {
    "mc-single": mc_single,
    "mc-fusion": mc_fusion,
    "tree-e2e": TreeWorkload,
    "cli-sweeps": CliWorkload,
}
