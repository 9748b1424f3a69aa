"""Command-line front end.

Five subcommands — ``analytic``, ``mc``, ``encode-check``, ``parity`` and
``ft-region`` — emit small CSV or JSON tables (optionally an SVG line chart)
for the quantities the library computes.  Every run is reproducible: the
stochastic subcommands require ``--seed``, and any run can be replayed from a
JSON config written with ``--dump-config`` and read back with ``--config``.

Each subcommand's fields live in one table (``_SUBCOMMANDS``).  argparse only
collects strings; every value, from a flag or from a config, is parsed once
by its field's kind, so both sources obey the same rules.  A handler returns
its table; ``_render`` turns it into every output before ``main`` writes any,
so a usage error leaves no output.  Every JSON text — table, report and
dumped config — is written by one function, ``_json_text``, which gives the
bytes of ``json.dumps(value, sort_keys=True, indent=2)`` through json's C
encoder.

``mc`` samples its (nu, N) grid through ``montecarlo.grid_estimates`` for
every gate family: one loop, nu-major, one derived seed per point.  A family
is one entry of ``_MC_FAMILIES``: its two Monte Carlo columns and the
``_FORMULAS`` id whose variants give the law columns.  Every law of the grid
is checked before the first point is sampled, and a point whose noise draw
does not fit in memory is named by its own N.

The parser is built on the first ``main`` call, not at import, and reused by
every later call in the process; it keeps no per-call state, so a call gives
the bytes and exit code it gives in a fresh process.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input data,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
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
from .montecarlo import discriminate, estimate_fusion, grid_estimates
from .parity import ParityCode, logical_success_prob
from .svgplot import write_line_chart

__all__ = ["main"]


class UsageError(Exception):
    """Bad flags, parameter values or destinations; maps to exit code 2."""


class InputDataError(Exception):
    """Unreadable or malformed input files; maps to exit code 3."""


# Where a run writes, not what it computes.  A dump leaves them out: holding
# them would tie its bytes to the checkout directory, and a replay without
# flags would overwrite the original files.
_DESTINATIONS = ("out", "svg", "report", "dump_config")


def _dump(subcommand: str, params: dict) -> str:
    """The run as a JSON config: every set field except the destinations."""
    payload = {k: _plain(v) for k, v in params.items()
               if v is not None and k not in _DESTINATIONS}
    payload["subcommand"] = subcommand
    return _json_text(payload) + "\n"


def _read_config(path: str, subcommand: str) -> dict:
    """The raw field values a config file holds for ``subcommand``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
    return payload


@functools.cache
def _flat_encoder(level: int) -> json.JSONEncoder:
    """The C encoder, separating members as ``indent=2`` does at ``level``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": "))


def _json_text(value, level: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent``, json runs its pure-Python encoder (Python 3.12 and
    older), so a container whose members are all scalars takes one call of
    a C encoder whose item separator carries the newline and indent instead;
    only deeper containers recurse here, and write their dict keys as json
    does.
    """
    if not isinstance(value, (dict, list, tuple)):
        return _flat_encoder(level).encode(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    members = value.values() if isinstance(value, dict) else value
    close = "\n" + "  " * level
    inner = close + "  "
    if all(v is None or isinstance(v, (str, int, float)) for v in members):
        text = _flat_encoder(level).encode(value)
        return text[0] + inner + text[1:-1] + close + text[-1]
    if not isinstance(value, dict):
        parts = [_json_text(v, level + 1) for v in value]
        return "[" + inner + ("," + inner).join(parts) + close + "]"
    parts = []
    for key, member in sorted(value.items()):
        if not (key is None or isinstance(key, (str, int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        if not isinstance(key, str):  # json's spelling: 1, 1.5, NaN, true, null
            key = _flat_encoder(level).encode(key)
        parts.append(json.encoder.encode_basestring_ascii(key) + ": "
                     + _json_text(member, level + 1))
    return "{" + inner + ("," + inner).join(parts) + close + "}"


def _plain(value):
    """``value`` with infinite floats spelled 'inf', which strict JSON needs."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return "inf" if isinstance(value, float) and math.isinf(value) else value


# ---------------------------------------------------------------------------
# field kinds: each turns a flag string or a config value into a typed value
# ---------------------------------------------------------------------------


def _flatten_list(raw) -> list:
    out: list = []
    for item in raw if isinstance(raw, list) else [raw]:
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
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"{flag} expects numbers, got {item!r}") from None
        if isinstance(item, bool) or not math.isfinite(val):
            raise UsageError(f"{flag} expects finite numbers, got {item!r}")
        vals.append(val)
    return vals


def _parse_float(value, flag: str) -> float:
    vals = _parse_floats(value, flag)
    if len(vals) != 1:
        raise UsageError(f"{flag} expects one number, got {value!r}")
    return vals[0]


def _parse_big_n(raw, flag: str) -> list[float]:
    """Copy counts; 'inf' gives the fully averaged limit."""
    vals: list[float] = []
    for item in _flatten_list(raw):
        try:
            num = float(item)
        except (TypeError, ValueError, OverflowError):
            num = math.nan
        if isinstance(item, bool) or not (item == "inf" or (num.is_integer() and num >= 1)):
            raise UsageError(f"{flag} expects integers >= 1 or 'inf', got {item!r}")
        vals.append(num)
    return vals


def _parse_copies(raw, flag: str) -> list[int]:
    """Copy counts that a splitter tree can hold: finite powers of two."""
    vals = []
    for num in _parse_big_n(raw, flag):
        if math.isinf(num) or int(num) & (int(num) - 1):
            raise UsageError(f"{flag} must be a power of two for this subcommand")
        vals.append(int(num))
    return vals


def _parse_levels(raw, flag: str) -> list[int]:
    levels = _parse_floats(raw, flag)
    if not all(lv.is_integer() and 1 <= lv <= 6 for lv in levels):
        raise UsageError(f"{flag} expects whole numbers between 1 and 6")
    return [int(lv) for lv in levels]


def _whole(minimum: int):
    """A whole number of at least ``minimum``; a config may store it as an
    integral float, never as a bool or a number with a fractional part."""

    def parse(value, flag: str) -> int:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        elif isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                pass
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError(f"{flag} expects a whole number, got {value!r}")
        if value < minimum:
            raise UsageError(f"{flag} must be at least {minimum}, got {value}")
        return value

    return parse


def _text(value, flag: str) -> str:
    if not isinstance(value, str):
        raise UsageError(f"{flag} expects text, got {value!r}")
    return value


def _choice(*options: str):
    def parse(value, flag: str) -> str:
        if not (isinstance(value, str) and value in options):
            raise UsageError(f"{flag} must be one of {', '.join(options)}, got {value!r}")
        return value

    return parse


def _switch(value, flag: str) -> bool:
    if not isinstance(value, bool):
        raise UsageError(f"{flag} is a switch: true or false, got {value!r}")
    return value


_REPEATED = (_parse_floats, _parse_big_n, _parse_copies, _parse_levels)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".17g")
    return str(value)


@dataclass(frozen=True)
class _Table:
    """What a subcommand computed: its rows, the chart they draw, and what
    JSON adds beside the rows and CSV appends as comments."""

    columns: Sequence[str]
    rows: list[dict]
    series: list  # (label, xs, ys) chart series; empty when nothing can be drawn
    chart: dict  # write_line_chart options
    extras: dict = field(default_factory=dict)
    comments: Sequence[str] = ()


def _render(subcommand: str, params: dict, table: _Table) -> list[tuple]:
    """Every output of a run as (flag, path, text), in write order.

    Nothing is written here, so a usage error leaves no output.  The table's
    path is None when it goes to stdout; it then comes last, so a failed file
    write leaves stdout empty.
    """
    columns = table.columns
    if params["format"] != "json":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in table.rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
        for comment in table.comments:
            buf.write(f"# {comment}\n")
        text = buf.getvalue()
    else:
        payload = {
            "columns": list(columns),
            "rows": [{c: _plain(r[c]) for c in columns} for r in table.rows],
        }
        payload.update(table.extras)
        text = _json_text(payload) + "\n"

    outputs = []
    if params.get("report"):
        if "discrimination" not in table.extras:
            raise UsageError(
                "--report needs a single-qubit grid with at least three noisy points"
            )
        report = _json_text(table.extras["discrimination"])
        outputs.append(("--report", params["report"], report + "\n"))
    outputs.append(("--out", params["out"] or None, text))
    if params["svg"]:
        if not table.series:
            raise UsageError("--svg is not available for an empty table")
        buf = io.StringIO()
        try:
            write_line_chart(buf, table.series, **table.chart)
        except ValueError as exc:  # e.g. a log axis with no positive value
            raise UsageError(f"--svg: {exc}") from None
        outputs.append(("--svg", params["svg"], buf.getvalue()))
    if params["dump_config"]:
        outputs.append(("--dump-config", params["dump_config"], _dump(subcommand, params)))
    return sorted(outputs, key=lambda output: output[1] is None)


def _label_n(big_n: float) -> str:
    return "inf" if math.isinf(big_n) else str(int(big_n))


def _law(func, nu: float, big_n: float, *variant: str) -> float:
    """One closed-form value; out of range, overflowing or non-finite is a
    usage error."""
    try:
        value = func(nu, big_n, *variant)
    except ValueError as exc:
        raise UsageError(f"--nu {nu!r} at N = {_label_n(big_n)}: {exc}") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise UsageError(
            f"--nu {nu!r} at N = {_label_n(big_n)}: {func.__name__} is not finite"
        )
    return value


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


def cmd_analytic(p: dict) -> _Table:
    """Closed-form curves over a (nu, N) grid, one row per variant."""
    formula_id, chosen = p["formula"], p["variant"]
    func, variants = _FORMULAS[formula_id]
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

    rows = [
        {
            "nu": nu,
            "N": _label_n(big_n),
            "value": _law(func, nu, big_n, *([variant] if variant else [])),
            "variant": variant,
        }
        for nu in p["nu"]
        for big_n in p["big_n"]
        for variant in use_variants
    ]
    return _Table(
        ("nu", "N", "value", "variant"),
        rows,
        _series_by(rows, key="N", x="nu", y="value"),
        {"title": formula_id, "x_label": "nu", "y_label": "value"},
    )


def _series_by(rows, *, key, x, y):
    order: dict[str, tuple[list, list]] = {}
    for row in rows:
        label = f"{key}={row[key]}"
        xs, ys = order.setdefault(label, ([], []))
        xs.append(float(row[x]))
        ys.append(float(row[y]))
    return [(label, xs, ys) for label, (xs, ys) in order.items()]


# Per gate family: the two Monte Carlo columns after mc_mean and mc_stderr,
# and the _FORMULAS id whose variants give the law columns.
_MC_FAMILIES = {
    "single-qubit": (("mc_fidelity", "mc_fidelity_stderr"), "ps-single"),
    "type2": (("mc_pair_mean", "mc_pair_stderr"), "ps-type2"),
    "four-mode": (("mc_pair_mean", "mc_pair_stderr"), "ps-four-mode"),
}


def cmd_mc(p: dict) -> _Table:
    """Monte Carlo success probabilities beside every analytic variant."""
    family = p["family"] or "single-qubit"
    seed, samples, nus, copies = p["seed"], p["samples"], p["nu"], p["big_n"]
    pair_columns, formula_id = _MC_FAMILIES[family]
    func, variants = _FORMULAS[formula_id]
    law_columns = ({v.replace("-", "_"): [v] for v in variants} if variants
                   else {"analytic": []})
    # every law of the grid is checked before the first point is sampled
    laws = {
        (nu, big_n): {col: _law(func, nu, big_n, *v) for col, v in law_columns.items()}
        for nu in nus for big_n in copies
    }
    estimator = None  # grid_estimates runs estimate_fidelity
    if family != "single-qubit":
        estimator = functools.partial(estimate_fusion, layout=family)

    rows, usable = [], []
    try:
        for nu, big_n, run in grid_estimates(nus, copies, samples, seed=seed,
                                             estimator=estimator):
            if estimator is None:
                est, pair = run.success_prob, run.fidelity.ratio_of_means
            else:
                est, pair = run.per_photon.success_prob, run.two_photon.success_prob
            rows.append(
                {
                    "nu": nu,
                    "N": _label_n(big_n),
                    "samples": samples,
                    "mc_mean": est.mean,
                    "mc_stderr": est.stderr,
                    pair_columns[0]: pair.mean,
                    pair_columns[1]: pair.stderr,
                    **laws[nu, big_n],
                }
            )
            # N = 1 rows carry no information about the variants (all agree
            # there) and their stderr is rounding dust, so they stay out of the fit.
            if nu > 0 and est.stderr > 0 and big_n > 1:
                usable.append(
                    {"nu": nu, "num_copies": big_n, "mean": est.mean, "stderr": est.stderr}
                )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    except MemoryError:
        # points run nu-major, so the one that failed follows the last row
        big_n = copies[len(rows) % len(copies)]
        raise UsageError(
            f"--big-n {big_n}: the noise draw for that many copies does not fit in memory"
        ) from None

    extras: dict = {}
    comments: list[str] = []
    if estimator is None and len(usable) >= 3:
        report = dict(discriminate(usable))
        report["seed"] = seed
        report["samples_per_point"] = samples
        extras["discrimination"] = report
        comments.append(f"selected_variant: {report['selected']}")
    return _Table(
        ("nu", "N", "samples", "mc_mean", "mc_stderr", *pair_columns, *law_columns),
        rows,
        _series_by(rows, key="N", x="nu", y="mc_mean"),
        {
            "title": f"mc {family}",
            "x_label": "nu",
            "y_label": "success probability",
        },
        extras=extras,
        comments=comments,
    )


def cmd_encode_check(p: dict) -> _Table:
    """Success-branch deviation vs splitter offset, with fitted slopes."""
    scales = p["delta_theta"]
    if len(set(scales)) < 2:
        raise UsageError("encode-check needs at least two distinct --delta-theta values")
    if any(s <= 0 for s in scales):
        raise UsageError("--delta-theta values must be positive")
    if any(math.pi / 4 + s == math.pi / 4 for s in scales):
        raise UsageError("--delta-theta values this small cannot move a splitter")
    try:
        gate = single_qubit_matrix(named_gate(p["gate"] or "H", p["alpha"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    rows = []
    for lv in p["levels"]:
        n_copies = 2**lv
        devs = encoder_error_scaling(
            [gate] * n_copies,
            scales,
            pattern_seed=p["seed"],
            correlated=not p["independent"],
        )
        # log-log fit through the positive deviations: where the branch moves
        # by rounding alone (X, Y, Z at N = 2) a deviation can be exactly 0.
        # Fewer than two such scales leave the slope empty.
        moved = devs > 0
        log_s = np.log(np.asarray(scales)[moved])
        slope = (float(np.polyfit(log_s, np.log(devs[moved]), 1)[0])
                 if len(set(log_s)) > 1 else None)
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
    return _Table(
        ("levels", "N", "delta_theta", "deviation", "slope"),
        rows,
        _series_by(rows, key="N", x="delta_theta", y="deviation"),
        {
            "title": "encoder error scaling",
            "x_label": "delta theta",
            "y_label": "deviation",
            "log_x": True,
            "log_y": True,
        },
    )


def cmd_parity(params: dict) -> _Table:
    """Logical recovery probability over a herald-rate grid."""
    code = ParityCode(params["n"], params["q"])
    rows = []
    for p in params["p"]:
        try:
            value = logical_success_prob(code, p)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        rows.append({"n": code.n, "q": code.q, "p": p, "success_prob": float(value)})
    return _Table(
        ("n", "q", "p", "success_prob"),
        rows,
        [(f"n={code.n}, q={code.q}", [r["p"] for r in rows],
          [r["success_prob"] for r in rows])],
        {
            "title": "parity-code recovery",
            "x_label": "herald probability",
            "y_label": "logical success",
        },
    )


def cmd_ft_region(p: dict) -> _Table:
    """Fault-tolerance verdicts over an (epsilon, gamma, N) grid."""
    try:
        curve = ThresholdCurve.from_csv(p["curve"]) if p["curve"] else load_synthetic_curve()
    except CurveFormatError as exc:
        raise InputDataError(str(exc)) from None
    try:
        points = sweep_region(p["epsilon"], p["gamma"], p["big_n"], curve)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [
        {
            "epsilon": pt.epsilon,
            "gamma": pt.gamma,
            "N": str(pt.num_copies),
            "effective_error": pt.effective_error,
            "effective_loss": pt.effective_loss,
            "fault_tolerant": pt.fault_tolerant,
        }
        for pt in points
    ]
    return _Table(
        ("epsilon", "gamma", "N", "effective_error", "effective_loss", "fault_tolerant"),
        rows,
        [(f"curve {curve.code_name}", list(curve.epsilons), list(curve.gammas))],
        {
            "title": "threshold curve",
            "x_label": "epsilon",
            "y_label": "gamma",
            "log_x": True,
            "log_y": True,
        },
        extras={"curve": curve.code_name},
        comments=[f"curve: {curve.code_name}"],
    )


# ---------------------------------------------------------------------------
# the parameter table and its wiring
# ---------------------------------------------------------------------------

_COMMON = {
    "format": (_choice("csv", "json"), "csv (default) or json"),
    "out": (_text, "write the table here instead of stdout"),
    "svg": (_text, "also write an SVG line chart"),
    "dump_config": (_text, "serialize the effective run config to this path"),
}

# subcommand -> (handler, help, required fields, {dest: (kind, help)}); the
# flag of a field is "--" + dest with "_" spelled "-".
_SUBCOMMANDS = {
    "analytic": (cmd_analytic, "evaluate closed-form laws on a grid", ("formula",), {
        "formula": (_choice(*_FORMULAS), "which law to evaluate"),
        "nu": (_parse_floats, "variance grid (repeat or comma-list)"),
        "big_n": (_parse_big_n, "copy counts; 'inf' allowed"),
        "variant": (_text, "restrict to one printed variant"),
        **_COMMON,
    }),
    "mc": (cmd_mc, "Monte Carlo success probabilities", ("nu", "big_n", "samples", "seed"), {
        "family": (_choice(*_MC_FAMILIES), "single-qubit (default), type2 or four-mode"),
        "nu": (_parse_floats, "variance grid (repeat or comma-list)"),
        "big_n": (_parse_copies, "copy counts, powers of two"),
        "samples": (_whole(2), "samples per grid point"),
        "seed": (_whole(0), "master seed"),
        "report": (_text, "write the discrimination report JSON here"),
        **_COMMON,
    }),
    "encode-check": (cmd_encode_check, "encoder-jitter scaling experiment",
                     ("levels", "delta_theta", "seed"), {
        "levels": (_parse_levels, "tree depths n (N = 2^n)"),
        "delta_theta": (_parse_floats, "splitter offset scales"),
        "seed": (_whole(0), "seed of the frozen offset pattern"),
        "gate": (_text, "target gate name (I, X, Y, Z, H; default H)"),
        "alpha": (_parse_float, "phase for the Z gate family"),
        "independent": (_switch, "jitter each rail splitter separately"),
        **_COMMON,
    }),
    "parity": (cmd_parity, "parity-code recovery probabilities", ("n", "q", "p"), {
        "n": (_whole(1), "qubits per parity block"),
        "q": (_whole(1), "redundant copies"),
        "p": (_parse_floats, "herald-probability grid"),
        **_COMMON,
    }),
    "ft-region": (cmd_ft_region, "fault-tolerance region sweep",
                  ("epsilon", "gamma", "big_n"), {
        "curve": (_text, "threshold curve CSV (default: shipped synthetic)"),
        "epsilon": (_parse_floats, "gate-error grid"),
        "gamma": (_parse_floats, "loss grid"),
        "big_n": (_parse_copies, "copy counts, powers of two"),
        **_COMMON,
    }),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built by the first ``main`` call of a process and
    shared by every later one.  It holds no per-call state: a list field
    appends to a None default, so each parse starts a new list; each parse
    fills a new Namespace; and argparse looks up ``sys.stdout`` and
    ``sys.stderr`` when it prints help or an error."""
    parser = argparse.ArgumentParser(
        prog="uasim",
        description="Averaged linear-optics gates: formulas, sampling, regions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_, _, fields) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for dest, (kind, field_help) in fields.items():
            action = ({"action": "append"} if kind in _REPEATED
                      else {"action": "store_const", "const": True} if kind is _switch
                      else {})
            p.add_argument(_flag(dest), dest=dest, help=field_help, **action)
        p.add_argument("--config", help="JSON file with field values; flags override it")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Config values overridden by flags, each parsed once by its field's kind."""
    sub = args.subcommand
    _, _, required, fields = _SUBCOMMANDS[sub]
    raw = _read_config(args.config, sub) if args.config else {}
    for key in raw:
        if key not in fields:
            raise UsageError(f"{sub} has no field {key!r} (no flag {_flag(key)})")
    raw.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    params = {
        dest: kind(raw[dest], _flag(dest)) if raw.get(dest) is not None
        else [] if kind in _REPEATED else None
        for dest, (kind, _) in fields.items()
    }
    for dest in required:
        if params[dest] in (None, []):
            raise UsageError(f"{sub} needs {_flag(dest)}")
    return params


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        sub = args.subcommand
        params = _merge_config(args)
        outputs = _render(sub, params, _SUBCOMMANDS[sub][0](params))
        for flag, path, text in outputs:
            if path is None:
                sys.stdout.write(text)
                continue
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"{flag} {path}: {exc.strerror or exc}") from None
        return 0
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
