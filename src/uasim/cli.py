"""Command-line front end.

Five subcommands — ``analytic``, ``mc``, ``encode-check``, ``parity`` and
``ft-region`` — emit small CSV or JSON tables (optionally an SVG line chart)
for the quantities the library computes.  Every run is reproducible: the
stochastic subcommands require ``--seed``, and any run can be replayed from a
JSON config written with ``--dump-config`` and read back with ``--config``.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input data,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import formulas
from .averaging import encoder_error_scaling
from .ftregion import (
    CurveFormatError,
    ThresholdCurve,
    load_synthetic_curve,
    sweep_region,
)
from .gates import named_gate, single_qubit_matrix
from .montecarlo import (
    derive_point_seed,
    discriminate,
    estimate_fusion,
    grid_estimates,
)
from .parity import ParityCode, logical_success_prob
from .svgplot import write_line_chart

__all__ = [
    "RunConfig",
    "main",
    "cmd_analytic",
    "cmd_mc",
    "cmd_encode_check",
    "cmd_parity",
    "cmd_ft_region",
]


class UsageError(Exception):
    """Bad flags or parameter values; maps to exit code 2."""


class InputDataError(Exception):
    """Unreadable or malformed input files; maps to exit code 3."""


@dataclass(frozen=True)
class RunConfig:
    """A fully serialized subcommand invocation."""

    subcommand: str
    params: dict

    def to_json(self) -> str:
        payload = {"subcommand": self.subcommand}
        # The dump destination itself is not part of the run: keeping it would
        # make a replayed config rewrite its own file.
        payload.update(
            (k, v) for k, v in self.params.items() if k != "dump_config"
        )
        return json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"

    @classmethod
    def from_file(cls, path: str, subcommand: str) -> "RunConfig":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise InputDataError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputDataError(f"malformed config {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputDataError(f"config {path} must hold a JSON object")
        stored = payload.pop("subcommand", subcommand)
        if stored != subcommand:
            raise UsageError(
                f"config is for subcommand {stored!r}, invoked with {subcommand!r}"
            )
        return cls(subcommand, payload)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    raise TypeError(f"not serializable: {value!r}")


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _flatten_list(raw) -> list[str]:
    if raw is None:
        return []
    out: list[str] = []
    items = raw if isinstance(raw, (list, tuple)) else [raw]
    for item in items:
        if isinstance(item, str):
            out.extend(p for p in item.split(",") if p != "")
        else:
            out.append(item)
    return out


def _parse_floats(raw, flag: str) -> list[float]:
    vals = []
    for item in _flatten_list(raw):
        try:
            val = float(item)
        except (TypeError, ValueError):
            raise UsageError(f"{flag} expects numbers, got {item!r}") from None
        if isinstance(item, bool) or not math.isfinite(val):
            raise UsageError(f"{flag} expects finite numbers, got {item!r}")
        vals.append(val)
    return vals


def _parse_int(value, flag: str) -> int | None:
    """An integer field; a config may store it as an integral float, never as
    a bool or a number with a fractional part."""
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise UsageError(f"{flag} expects a whole number, got {value!r}")


def _parse_big_n(raw, flag: str = "--big-n") -> list[float]:
    """Copy counts; the token 'inf' gives the fully averaged limit."""
    vals: list[float] = []
    for item in _flatten_list(raw):
        if isinstance(item, str) and item.strip().lower() in ("inf", "infinity"):
            vals.append(math.inf)
            continue
        try:
            num = float(item)
        except (TypeError, ValueError):
            raise UsageError(f"{flag} expects integers or 'inf', got {item!r}") from None
        if math.isinf(num):
            vals.append(math.inf)
        elif num == int(num) and num >= 1:
            vals.append(float(int(num)))
        else:
            raise UsageError(f"{flag} expects integers >= 1 or 'inf', got {item!r}")
    return vals


def _require_power_of_two(vals: Sequence[float], flag: str) -> list[int]:
    out = []
    for v in vals:
        if math.isinf(v) or int(v) & (int(v) - 1):
            raise UsageError(f"{flag} must be a power of two for this subcommand")
        out.append(int(v))
    return out


def _require_seed(params: dict):
    seed = _parse_int(params.get("seed"), "--seed")
    if seed is None:
        raise UsageError("--seed is required for stochastic subcommands")
    if seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    return seed


def _gate_from(params: dict):
    name = params.get("gate", "H") or "H"
    alpha = params.get("alpha")
    if alpha is not None:
        vals = _parse_floats(alpha, "--alpha")
        if len(vals) != 1:
            raise UsageError("--alpha expects one number")
        alpha = vals[0]
    try:
        return named_gate(name, alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".17g")
    return str(value)


def _emit(
    columns: Sequence[str],
    rows: Sequence[dict],
    cfg: RunConfig,
    *,
    extras: dict | None = None,
    comments: Sequence[str] = (),
    svg_series=None,
    svg_kwargs: dict | None = None,
) -> None:
    fmt = cfg.params.get("format", "csv") or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {fmt!r}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        for comment in comments:
            buf.write(f"# {comment}\n")
        text = buf.getvalue()
    else:
        payload = {
            "columns": list(columns),
            "rows": [
                {c: ("inf" if isinstance(r[c], float) and math.isinf(r[c]) else r[c])
                 for c in columns}
                for r in rows
            ],
        }
        if extras:
            payload.update(extras)
        text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"

    out_path = cfg.params.get("out")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    svg_path = cfg.params.get("svg")
    if svg_path:
        if not svg_series:
            raise UsageError("--svg is not available for an empty table")
        with open(svg_path, "w") as fh:
            write_line_chart(fh, svg_series, **(svg_kwargs or {}))

    dump_path = cfg.params.get("dump_config")
    if dump_path:
        with open(dump_path, "w") as fh:
            fh.write(cfg.to_json())


def _label_n(big_n: float) -> str:
    return "inf" if math.isinf(big_n) else str(int(big_n))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FORMULAS = {
    "ps-single": (formulas.success_prob_single, formulas.SINGLE_QUBIT_VARIANTS),
    "fidelity-single": (formulas.fidelity_single, ("main", "fourth-order")),
    "ps-four-mode": (formulas.success_prob_four_mode, None),
    "fidelity-four-mode": (formulas.fidelity_four_mode, None),
    "ps-type2": (formulas.success_prob_type2, formulas.TYPE2_VARIANTS),
    "fidelity-type2": (formulas.fidelity_type2, formulas.TYPE2_VARIANTS),
    "ps-first-order": (formulas.success_prob_first_order, None),
    "fidelity-first-order": (formulas.fidelity_first_order, None),
}


def cmd_analytic(cfg: RunConfig) -> int:
    """Closed-form curves over a (nu, N) grid, one row per variant."""
    formula_id = cfg.params.get("formula")
    if formula_id not in _FORMULAS:
        known = ", ".join(sorted(_FORMULAS))
        raise UsageError(f"unknown formula {formula_id!r}; choose from: {known}")
    func, variants = _FORMULAS[formula_id]
    nus = _parse_floats(cfg.params.get("nu"), "--nu")
    big_ns = _parse_big_n(cfg.params.get("big_n"))
    chosen = cfg.params.get("variant")
    if variants is None:
        if chosen:
            raise UsageError(f"{formula_id} has no variants")
        use_variants = [""]
    elif chosen:
        if chosen not in variants:
            raise UsageError(f"unknown variant {chosen!r} for {formula_id}")
        use_variants = [chosen]
    else:
        use_variants = list(variants)

    rows = []
    for nu in nus:
        for big_n in big_ns:
            for variant in use_variants:
                try:
                    value = func(nu, big_n, variant) if variant else func(nu, big_n)
                except ValueError as exc:
                    raise UsageError(str(exc)) from None
                rows.append(
                    {"nu": nu, "N": _label_n(big_n), "value": value, "variant": variant}
                )
    series = _series_by(rows, key="N", x="nu", y="value") if rows else None
    _emit(
        ("nu", "N", "value", "variant"),
        rows,
        cfg,
        svg_series=series,
        svg_kwargs={"title": formula_id, "x_label": "nu", "y_label": "value"},
    )
    return 0


def _series_by(rows, *, key, x, y):
    order: dict[str, tuple[list, list]] = {}
    for row in rows:
        label = f"{key}={row[key]}"
        xs, ys = order.setdefault(label, ([], []))
        xs.append(float(row[x]))
        ys.append(float(row[y]))
    return [(label, xs, ys) for label, (xs, ys) in order.items()]


_MC_VARIANT_COLS = {
    "single-qubit": ("main", "second_order", "fourth_order"),
    "type2": ("main", "alt"),
    "four-mode": ("analytic",),
}


def cmd_mc(cfg: RunConfig) -> int:
    """Monte Carlo success probabilities beside every analytic variant."""
    family = cfg.params.get("family", "single-qubit") or "single-qubit"
    if family not in _MC_VARIANT_COLS:
        raise UsageError(f"unknown gate family {family!r}")
    seed = _require_seed(cfg.params)
    samples = _parse_int(cfg.params.get("samples"), "--samples")
    if not samples or samples < 2:
        raise UsageError("--samples must be at least 2")
    nus = _parse_floats(cfg.params.get("nu"), "--nu")
    copies = _require_power_of_two(_parse_big_n(cfg.params.get("big_n")), "--big-n")
    if not nus or not copies:
        raise UsageError("mc needs at least one --nu and one --big-n")

    extras: dict = {}
    comments: list[str] = []
    rows = []
    if family == "single-qubit":
        try:
            points = grid_estimates(nus, copies, samples, seed=seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for pt in points:
            nu, big_n = pt["nu"], pt["num_copies"]
            rows.append(
                {
                    "nu": nu,
                    "N": _label_n(big_n),
                    "samples": pt["samples"],
                    "mc_mean": pt["mean"],
                    "mc_stderr": pt["stderr"],
                    "mc_fidelity": pt["fidelity"],
                    "mc_fidelity_stderr": pt["fidelity_stderr"],
                    "main": formulas.success_prob_single(nu, big_n, "main"),
                    "second_order": formulas.success_prob_single(nu, big_n, "second-order"),
                    "fourth_order": formulas.success_prob_single(nu, big_n, "fourth-order"),
                }
            )
        # N = 1 rows carry no information about the variants (all agree there)
        # and their stderr is rounding dust, so they stay out of the fit.
        usable = [
            p for p in points
            if p["nu"] > 0 and p["stderr"] > 0 and p["num_copies"] > 1
        ]
        if len(usable) >= 3:
            report = dict(discriminate(usable))
            report["seed"] = seed
            report["samples_per_point"] = samples
            extras["discrimination"] = report
            comments.append(f"selected_variant: {report['selected']}")
        cols = (
            "nu",
            "N",
            "samples",
            "mc_mean",
            "mc_stderr",
            "mc_fidelity",
            "mc_fidelity_stderr",
        ) + _MC_VARIANT_COLS[family]
    else:
        for i, (nu, big_n) in enumerate(
            (nu, n) for nu in nus for n in copies
        ):
            try:
                res = estimate_fusion(
                    nu, big_n, samples, seed=derive_point_seed(seed, i), layout=family
                )
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            row = {
                "nu": nu,
                "N": _label_n(big_n),
                "samples": samples,
                "mc_mean": res.per_photon.success_prob.mean,
                "mc_stderr": res.per_photon.success_prob.stderr,
                "mc_pair_mean": res.two_photon.success_prob.mean,
                "mc_pair_stderr": res.two_photon.success_prob.stderr,
            }
            if family == "type2":
                row["main"] = formulas.success_prob_type2(nu, big_n, "main")
                row["alt"] = formulas.success_prob_type2(nu, big_n, "alt")
            else:
                row["analytic"] = formulas.success_prob_four_mode(nu, big_n)
            rows.append(row)
        cols = (
            "nu",
            "N",
            "samples",
            "mc_mean",
            "mc_stderr",
            "mc_pair_mean",
            "mc_pair_stderr",
        ) + _MC_VARIANT_COLS[family]

    report_path = cfg.params.get("report")
    if report_path:
        if "discrimination" not in extras:
            raise UsageError(
                "--report needs a single-qubit grid with at least three noisy points"
            )
        with open(report_path, "w") as fh:
            json.dump(extras["discrimination"], fh, sort_keys=True, indent=2)
            fh.write("\n")

    series = _series_by(rows, key="N", x="nu", y="mc_mean") if rows else None
    _emit(
        cols,
        rows,
        cfg,
        extras=extras,
        comments=comments,
        svg_series=series,
        svg_kwargs={
            "title": f"mc {family}",
            "x_label": "nu",
            "y_label": "success probability",
        },
    )
    return 0


def cmd_encode_check(cfg: RunConfig) -> int:
    """Success-branch deviation vs splitter offset, with fitted slopes."""
    seed = _require_seed(cfg.params)
    levels_raw = _parse_floats(cfg.params.get("levels"), "--levels")
    if not levels_raw:
        raise UsageError("encode-check needs at least one --levels value")
    levels = []
    for lv in levels_raw:
        if lv != int(lv) or not 1 <= int(lv) <= 6:
            raise UsageError("--levels expects whole numbers between 1 and 6")
        levels.append(int(lv))
    scales = _parse_floats(cfg.params.get("delta_theta"), "--delta-theta")
    if len(set(scales)) < 2:
        raise UsageError("encode-check needs at least two distinct --delta-theta values")
    if any(s <= 0 for s in scales):
        raise UsageError("--delta-theta values must be positive")
    correlated = not cfg.params.get("independent", False)
    gate = single_qubit_matrix(_gate_from(cfg.params))

    rows = []
    for lv in levels:
        n_copies = 2**lv
        devs = encoder_error_scaling(
            [gate] * n_copies,
            scales,
            pattern_seed=seed,
            correlated=correlated,
        )
        slope = float(
            np.polyfit(np.log(np.asarray(scales)), np.log(devs), 1)[0]
        )
        for s, d in zip(scales, devs):
            rows.append(
                {
                    "levels": lv,
                    "N": str(n_copies),
                    "delta_theta": s,
                    "deviation": float(d),
                    "slope": slope,
                }
            )
    series = _series_by(rows, key="N", x="delta_theta", y="deviation")
    _emit(
        ("levels", "N", "delta_theta", "deviation", "slope"),
        rows,
        cfg,
        svg_series=series,
        svg_kwargs={
            "title": "encoder error scaling",
            "x_label": "delta theta",
            "y_label": "deviation",
            "log_x": True,
            "log_y": True,
        },
    )
    return 0


def cmd_parity(cfg: RunConfig) -> int:
    """Logical recovery probability over a herald-rate grid."""
    n = _parse_int(cfg.params.get("n"), "--n")
    q = _parse_int(cfg.params.get("q"), "--q")
    if not n or not q:
        raise UsageError("parity needs --n and --q")
    try:
        code = ParityCode(n, q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    ps = _parse_floats(cfg.params.get("p"), "--p")
    if not ps:
        raise UsageError("parity needs at least one --p value")
    rows = []
    for p in ps:
        try:
            value = logical_success_prob(code, p)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        rows.append({"n": code.n, "q": code.q, "p": p, "success_prob": float(value)})
    series = [(f"n={code.n}, q={code.q}", [r["p"] for r in rows],
               [r["success_prob"] for r in rows])]
    _emit(
        ("n", "q", "p", "success_prob"),
        rows,
        cfg,
        svg_series=series,
        svg_kwargs={
            "title": "parity-code recovery",
            "x_label": "herald probability",
            "y_label": "logical success",
        },
    )
    return 0


def cmd_ft_region(cfg: RunConfig) -> int:
    """Fault-tolerance verdicts over an (epsilon, gamma, N) grid."""
    curve_path = cfg.params.get("curve")
    try:
        if curve_path:
            curve = ThresholdCurve.from_csv(curve_path)
        else:
            curve = load_synthetic_curve()
    except CurveFormatError as exc:
        raise InputDataError(str(exc)) from None
    eps = _parse_floats(cfg.params.get("epsilon"), "--epsilon")
    gam = _parse_floats(cfg.params.get("gamma"), "--gamma")
    n_list = _require_power_of_two(_parse_big_n(cfg.params.get("big_n")), "--big-n")
    if not eps or not gam or not n_list:
        raise UsageError("ft-region needs --epsilon, --gamma and --big-n grids")
    try:
        points = sweep_region(eps, gam, n_list, curve)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        {
            "epsilon": p.epsilon,
            "gamma": p.gamma,
            "N": str(p.num_copies),
            "effective_error": p.effective_error,
            "effective_loss": p.effective_loss,
            "fault_tolerant": p.fault_tolerant,
        }
        for p in points
    ]
    series = [
        (f"curve {curve.code_name}", list(curve.epsilons), list(curve.gammas))
    ]
    _emit(
        ("epsilon", "gamma", "N", "effective_error", "effective_loss", "fault_tolerant"),
        rows,
        cfg,
        extras={"curve": curve.code_name},
        comments=[f"curve: {curve.code_name}"],
        svg_series=series,
        svg_kwargs={
            "title": "threshold curve",
            "x_label": "epsilon",
            "y_label": "gamma",
            "log_x": True,
            "log_y": True,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_HANDLERS = {
    "analytic": cmd_analytic,
    "mc": cmd_mc,
    "encode-check": cmd_encode_check,
    "parity": cmd_parity,
    "ft-region": cmd_ft_region,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uasim",
        description="Averaged linear-optics gates: formulas, sampling, regions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with flag values")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out", help="write the table here instead of stdout")
        p.add_argument("--svg", help="also write an SVG line chart")
        p.add_argument("--dump-config", dest="dump_config",
                       help="serialize the effective run config to this path")

    p = sub.add_parser("analytic", help="evaluate closed-form laws on a grid")
    p.add_argument("--formula", help="which law to evaluate")
    p.add_argument("--nu", action="append", help="variance grid (repeat or comma-list)")
    p.add_argument("--big-n", dest="big_n", action="append",
                   help="copy counts; 'inf' allowed")
    p.add_argument("--variant", help="restrict to one printed variant")
    common(p)

    p = sub.add_parser("mc", help="Monte Carlo success probabilities")
    p.add_argument("--family", choices=("single-qubit", "type2", "four-mode"))
    p.add_argument("--nu", action="append")
    p.add_argument("--big-n", dest="big_n", action="append")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the discrimination report JSON here")
    common(p)

    p = sub.add_parser("encode-check", help="encoder-jitter scaling experiment")
    p.add_argument("--levels", action="append", help="tree depths n (N = 2^n)")
    p.add_argument("--delta-theta", dest="delta_theta", action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--gate", help="target gate name (I, X, Y, Z, H)")
    p.add_argument("--alpha", type=float, help="phase for the Z gate family")
    p.add_argument("--independent", action="store_true", default=None,
                   help="jitter each rail splitter separately")
    common(p)

    p = sub.add_parser("parity", help="parity-code recovery probabilities")
    p.add_argument("--n", type=int, help="qubits per parity block")
    p.add_argument("--q", type=int, help="redundant copies")
    p.add_argument("--p", action="append", help="herald-probability grid")
    common(p)

    p = sub.add_parser("ft-region", help="fault-tolerance region sweep")
    p.add_argument("--curve", help="threshold curve CSV (default: shipped synthetic)")
    p.add_argument("--epsilon", action="append")
    p.add_argument("--gamma", action="append")
    p.add_argument("--big-n", dest="big_n", action="append")
    common(p)

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    given = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "config") and v is not None
    }
    params: dict = {}
    if args.config:
        params.update(RunConfig.from_file(args.config, sub).params)
    params.update(given)
    return RunConfig(sub, params)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _merge_config(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except UsageError as exc:
        print(f"uasim: {exc}", file=sys.stderr)
        return 2
    except InputDataError as exc:
        print(f"uasim: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        return 0
    except Exception as exc:  # noqa: BLE001 — the contract maps these to 4
        print(f"uasim: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
