"""End-to-end tests of the command-line interface.

Everything runs through ``main(argv)`` in-process; stdout still goes through
the normal emit path, so byte-level determinism checks are meaningful.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uasim
from uasim import cli
from uasim.cli import main
from uasim.averaging import encoder_error_scaling
from uasim.formulas import effective_rates
from uasim.ftregion import load_synthetic_curve
from uasim.gates import FAMILIES, named_gate, single_qubit_matrix


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


# ---------------------------------------------------------------------------
# analytic
# ---------------------------------------------------------------------------


def test_analytic_golden_row(run):
    code, out, _ = run(
        "analytic", "--formula", "ps-single", "--nu", "0.01", "--big-n", "4",
        "--variant", "main",
    )
    assert code == 0
    assert out == "nu,N,value,variant\n0.01,4,0.97783749999999992,main\n"


def test_analytic_emits_every_variant_by_default(run):
    code, out, _ = run("analytic", "--formula", "ps-type2", "--nu", "0.01", "--big-n", "2")
    assert code == 0
    variants = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert variants == ["main", "alt"]


def test_analytic_empty_grid_is_header_only(run):
    code, out, _ = run("analytic", "--formula", "ps-single")
    assert code == 0
    assert out == "nu,N,value,variant\n"


def test_analytic_handles_infinite_copies(run):
    code, out, _ = run(
        "analytic", "--formula", "fidelity-first-order", "--nu", "0.03", "--big-n", "inf",
    )
    assert code == 0
    assert out.splitlines()[1] == "0.029999999999999999,inf,1,"


def test_big_n_reads_infinity_only_from_the_text_inf(run, tmp_path):
    argv = ("analytic", "--formula", "ps-single", "--nu", "0.01", "--variant", "main")
    # 1e400 overflows to float inf, but it names no copy count
    code, out, err = run(*argv, "--big-n", "1e400")
    assert (code, out) == (2, "")
    assert err.startswith("uasim: --big-n expects integers >= 1 or 'inf'")
    cfg = tmp_path / "cfg.json"
    code, out, _ = run(*argv, "--big-n", "inf", "--dump-config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "0.01,inf,0.97044999999999992,main"
    assert json.loads(cfg.read_text())["big_n"] == ["inf"]
    assert run("analytic", "--config", str(cfg)) == (0, out, "")


def test_analytic_json_format(run):
    code, out, _ = run(
        "analytic", "--formula", "ps-four-mode", "--nu", "0.005", "--big-n", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["nu", "N", "value", "variant"]
    assert payload["rows"][0]["value"] == pytest.approx(0.97419296875)


@pytest.mark.parametrize(
    "argv",
    [
        ("analytic", "--formula", "nope", "--nu", "0.01", "--big-n", "2"),
        ("analytic", "--formula", "ps-single", "--variant", "bogus", "--nu", "0.01", "--big-n", "2"),
        ("analytic", "--formula", "ps-four-mode", "--variant", "main", "--nu", "0.01", "--big-n", "2"),
        ("analytic", "--formula", "ps-single", "--nu", "abc", "--big-n", "2"),
        ("analytic", "--formula", "ps-single", "--nu", "0.01", "--big-n", "0"),
    ],
)
def test_analytic_usage_errors(run, argv):
    code, _, err = run(*argv)
    assert code == 2
    assert err.startswith("uasim:")


def bad(case_id, *argv, message="uasim:"):
    """One usage-error case: its argv and the start of its one-line message."""
    return pytest.param(argv, message, id=case_id)


ENCODE_Z = ("encode-check", "--levels", "1", "--delta-theta", "1e-3,1e-4", "--seed", "1",
            "--gate", "Z", "--alpha", "0.3")

# 2**40 copies: the noise draw is larger than any address space, so the
# allocation fails at once and nothing is committed.  The grid stops at that
# first point and names it, not the largest N of the grid.
UNALLOCATABLE = f"uasim: --big-n {2**40}: the noise draw for that many copies does not fit"
PARITY_OVERFLOW = "uasim: --n and --q are too large for float arithmetic"


@pytest.mark.parametrize(
    "argv, message",
    [
        bad("mc-nu-nan", "mc", "--nu", "nan", "--big-n", "2", "--samples", "100",
            "--seed", "1"),
        bad("mc-nu-inf", "mc", "--nu", "inf", "--big-n", "2", "--samples", "100",
            "--seed", "1"),
        bad("mc-nu-negative", "mc", "--nu", "-0.1", "--big-n", "2", "--samples", "100",
            "--seed", "1"),
        bad("mc-type2-nu-negative", "mc", "--family", "type2", "--nu", "-0.1",
            "--big-n", "2", "--samples", "100", "--seed", "1"),
        bad("analytic-nu-nan", "analytic", "--formula", "ps-single", "--nu", "nan",
            "--big-n", "2"),
        bad("encode-levels-nan", "encode-check", "--levels", "nan",
            "--delta-theta", "1e-3,1e-4", "--seed", "5"),
        bad("encode-delta-inf", "encode-check", "--levels", "1",
            "--delta-theta", "inf,1e-3", "--seed", "5"),
        bad("encode-alpha-nan", "encode-check", "--levels", "1",
            "--delta-theta", "1e-3,1e-4", "--seed", "5", "--gate", "Z", "--alpha", "nan"),
        bad("analytic-big-n-nan", "analytic", "--formula", "ps-single", "--nu", "0.01",
            "--big-n", "nan"),
        bad("analytic-big-n-negative-inf", "analytic", "--formula", "ps-single",
            "--nu", "0.01", "--big-n", "2,-inf"),
        bad("analytic-nu-overflow", "analytic", "--formula", "ps-single", "--nu", "1e200",
            "--big-n", "2"),
        bad("mc-nu-overflow", "mc", "--nu", "1e300", "--big-n", "2", "--samples", "10",
            "--seed", "1"),
        # offsets this small cannot move a splitter off 50:50
        bad("encode-zero-deviation", "encode-check", "--levels", "1",
            "--delta-theta", "1e-300,1e-299", "--seed", "1"),
        # a loss rate is a probability
        bad("ft-region-gamma-above-one", "ft-region", "--epsilon", "1e-3", "--gamma", "1.5",
            "--big-n", "1,4"),
        bad("mc-big-n-unallocatable", "mc", "--nu", "0.01", "--big-n", str(2**40),
            "--samples", "10", "--seed", "1", message=UNALLOCATABLE),
        bad("mc-type2-big-n-unallocatable", "mc", "--family", "type2", "--nu", "0.01",
            "--big-n", str(2**40), "--samples", "10", "--seed", "1", message=UNALLOCATABLE),
        bad("mc-big-n-first-unallocatable", "mc", "--nu", "0.01",
            "--big-n", f"{2**40},{2**41}", "--samples", "10", "--seed", "1",
            message=UNALLOCATABLE),
        # (1 - p)^n and (c + s)^q overflow a float
        bad("parity-n-overflow", "parity", "--n", str(10**400), "--q", "2", "--p", "0.1",
            message=PARITY_OVERFLOW),
        bad("parity-q-overflow", "parity", "--n", "2", "--q", str(10**400), "--p", "0.1",
            message=PARITY_OVERFLOW),
        bad("encode-z-without-alpha", *ENCODE_Z[:-2],
            message="uasim: Z gate needs an alpha phase"),
        bad("encode-alpha-on-h", *ENCODE_Z[:-3], "H", "--alpha", "0.3",
            message="uasim: gate 'H' takes no alpha"),
        bad("encode-unknown-gate", *ENCODE_Z[:-3], "Q", message="uasim: unknown gate 'Q'"),
        bad("encode-alpha-list", *ENCODE_Z[:-1], "0.3,0.4",
            message="uasim: --alpha expects one number"),
        # without the '=' argparse reads -1e-3,1e-4 as an option
        bad("encode-delta-negative", "encode-check", "--levels", "1",
            "--delta-theta=-1e-3,1e-4", "--seed", "1",
            message="uasim: --delta-theta values must be positive"),
        bad("mc-one-sample", "mc", "--nu", "0.01", "--big-n", "2", "--samples", "1",
            "--seed", "1", message="uasim: --samples must be at least 2, got 1"),
        bad("mc-samples-text", "mc", "--nu", "0.01", "--big-n", "2", "--samples", "abc",
            "--seed", "1", message="uasim: --samples expects a whole number"),
        bad("mc-seed-negative", "mc", "--nu", "0.01", "--big-n", "2", "--samples", "100",
            "--seed=-1", message="uasim: --seed must be at least 0, got -1"),
        bad("analytic-normalization", "analytic", "--formula", "fidelity-single",
            "--nu", "0.7", "--big-n", "1",
            message="uasim: --nu 0.7 at N = 1: normalization is non-positive"),
    ],
)
def test_bad_numbers_are_usage_errors(run, argv, message):
    code, out, err = run(*argv)
    assert code == 2
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert "internal error" not in err
    assert out == ""


# name None stands for the family's builder, which its record holds
@pytest.mark.parametrize("family, name", [
    pytest.param("single-qubit", "_batched_single_qubit_out", id="single-qubit"),
    pytest.param("type2", None, id="type2"),
    pytest.param("single-qubit", "sample_deltas", id="sample_deltas"),
])
def test_memory_error_in_a_pool_worker_is_a_usage_error(run, monkeypatch, family, name):
    """A block's draw or gate kernel that runs out of memory on a worker
    thread exits 2 and names the point's N."""
    from uasim import montecarlo

    fn = getattr(montecarlo, name) if name else FAMILIES[family].build

    def out_of_memory_on_noisy_blocks(*args, **kwargs):
        # the noiseless fusion target is built on the calling thread
        if not args and kwargs.get("deltas") is None:
            return fn(*args, **kwargs)
        raise MemoryError

    if name:
        monkeypatch.setattr(montecarlo, name, out_of_memory_on_noisy_blocks)
    else:
        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(
            FAMILIES[family], build=out_of_memory_on_noisy_blocks))
    code, out, err = run(
        "mc", "--family", family, "--nu", "0.01", "--big-n", "2", "--samples", "10000",
        "--seed", "1",
    )
    assert code == 2
    assert err.startswith("uasim: --big-n 2:")
    assert out == ""


@pytest.mark.parametrize("family, law", [
    ("single-qubit", "success_prob_single"), ("type2", "success_prob_type2"),
])
def test_every_law_is_checked_before_the_first_point_is_sampled(run, monkeypatch,
                                                                 family, law):
    """A grid whose last nu has no finite law exits 2 before any sampling,
    through either estimator: the single-qubit grid's own and the fusion
    partial cli builds."""
    from uasim import montecarlo

    calls = []

    def recording(estimator):
        def record(*args, **kwargs):
            calls.append(args)
            return estimator(*args, **kwargs)

        return record

    monkeypatch.setattr(montecarlo, "estimate_fidelity",
                        recording(montecarlo.estimate_fidelity))
    monkeypatch.setattr(cli, "estimate_fusion", recording(cli.estimate_fusion))
    code, out, err = run(
        "mc", "--family", family, "--nu", "0.01,1e300", "--big-n", "2",
        "--samples", "2000", "--seed", "1",
    )
    assert code == 2
    assert err == f"uasim: --nu 1e+300 at N = 2: {law} is not finite\n"
    assert out == ""
    assert calls == []


@pytest.mark.parametrize(
    "config, flag",
    [
        ({"subcommand": "mc", "nu": ["0.01"], "big_n": ["2"], "samples": 100,
          "seed": True}, "--seed"),
        ({"subcommand": "mc", "nu": ["0.01"], "big_n": ["2"], "samples": 100.7,
          "seed": 1}, "--samples"),
        ({"subcommand": "parity", "n": 2.5, "q": 2, "p": ["0.1"]}, "--n"),
    ],
    ids=["seed-bool", "samples-fraction", "parity-n-fraction"],
)
def test_config_integer_fields_reject_bools_and_fractions(run, tmp_path, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(config["subcommand"], "--config", str(cfg))
    assert code == 2
    assert flag in err
    assert out == ""


MC_CONFIG = {"subcommand": "mc", "nu": ["0.01"], "big_n": ["2"], "samples": 100, "seed": 1}


@pytest.mark.parametrize(
    "config, flag",
    [
        (dict(MC_CONFIG, famly="type2"), "--famly"),
        ({"subcommand": "parity", "n": 2, "q": 2, "p": ["0.1"], "samples": 100}, "--samples"),
        ({"subcommand": "encode-check", "levels": ["1"], "delta_theta": ["1e-3,1e-4"],
          "seed": 5, "independent": "false"}, "--independent"),
        ({"subcommand": "analytic", "formula": "ps-single", "nu": ["0.01"], "big_n": ["2"],
          "out": 2}, "--out"),
        ({"subcommand": "analytic", "formula": ["ps-single"], "nu": ["0.01"],
          "big_n": ["2"]}, "--formula"),
        ({"subcommand": "encode-check", "levels": ["1"], "delta_theta": ["1e-3,1e-4"],
          "seed": 5, "gate": ["H"]}, "--gate"),
        (dict(MC_CONFIG, family=["type2"]), "--family"),
        ({"subcommand": "parity", "n": 10**400, "q": 2, "p": ["0.1"]}, "--n"),
    ],
    ids=["unknown-key", "other-subcommand-key", "switch-as-text", "out-as-number",
         "formula-list", "gate-list", "family-list", "parity-n-overflow"],
)
def test_config_fields_are_checked_like_flags(run, tmp_path, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(config["subcommand"], "--config", str(cfg))
    assert code == 2
    assert err.startswith("uasim:")
    assert flag in err
    assert out == ""


def test_config_integer_fields_accept_integral_floats(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "parity", "n": 2.0, "q": 2, "p": ["0.1"]}))
    from_config = run("parity", "--config", str(cfg))
    assert from_config == run("parity", "--n", "2", "--q", "2", "--p", "0.1")


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_requires_seed(run):
    code, _, err = run("mc", "--nu", "0.01", "--big-n", "2", "--samples", "100")
    assert code == 2
    assert "--seed" in err


def test_mc_stdout_is_deterministic(run):
    argv = ("mc", "--nu", "0.01", "--big-n", "2", "--samples", "2000", "--seed", "7")
    _, first, _ = run(*argv)
    _, second, _ = run(*argv)
    assert first == second
    assert first.splitlines()[0] == (
        "nu,N,samples,mc_mean,mc_stderr,mc_fidelity,mc_fidelity_stderr,"
        "main,second_order,fourth_order"
    )


def test_mc_noiseless_run_is_exact(run):
    _, out, _ = run(
        "mc", "--nu", "0", "--big-n", "4", "--samples", "100", "--seed", "1"
    )
    row = out.splitlines()[1].split(",")
    assert [float(v) for v in row[3:6]] == [1.0, 0.0, 1.0]
    # the delta-method fidelity variance leaves sub-1e-100 rounding dust
    assert 0.0 <= float(row[6]) < 1e-100


def test_mc_seed_changes_the_estimate(run):
    argv = ("mc", "--nu", "0.01", "--big-n", "2", "--samples", "2000")
    _, a, _ = run(*argv, "--seed", "7")
    _, b, _ = run(*argv, "--seed", "8")
    assert a != b


def test_mc_discrimination_comment_and_report(run, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        "mc", "--nu", "0.005,0.01,0.02", "--big-n", "2", "--samples", "2000",
        "--seed", "3", "--report", str(report_path),
    )
    assert code == 0
    assert "# selected_variant: " in out
    report = json.loads(report_path.read_text())
    assert set(report["chi_square"]) == {"main", "second-order", "fourth-order"}
    assert report["selected"] in report["chi_square"]
    assert report["seed"] == 3
    assert report["samples_per_point"] == 2000
    assert len(report["points"]) == 3


def test_mc_report_needs_enough_points(run, tmp_path):
    argv = ("mc", "--nu", "0.01", "--big-n", "2", "--samples", "2000",
            "--seed", "3", "--report", str(tmp_path / "r.json"))
    code, out, err = run(*argv)
    assert code == 2
    assert "three" in err
    assert out == ""
    # a usage error writes no file either
    table = tmp_path / "t.csv"
    code, out, _ = run(*argv, "--out", str(table))
    assert (code, out) == (2, "")
    assert not table.exists()


def test_mc_fusion_families(run):
    for family in ("type2", "four-mode"):
        code, out, _ = run(
            "mc", "--family", family, "--nu", "0.01", "--big-n", "1",
            "--samples", "500", "--seed", "5",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert "mc_pair_mean" in header
        # single unitary copy: success is certain up to rounding
        first = out.splitlines()[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)


# One small run per family at a fixed seed, pinned to the printed values so
# that a change to the random stream or to the per-sample arithmetic shows.
# rel 1e-12 leaves room for libm ulps across platforms; a different stream
# moves these numbers by about 1e-3.
MC_GOLDEN = {
    "single-qubit": (
        "nu,N,samples,mc_mean,mc_stderr,mc_fidelity,mc_fidelity_stderr,"
        "main,second_order,fourth_order",
        "0.01,4,4096,0.97782034586825783,0.00020871986810515171,0.99249482448938697,"
        "0.00012130350430060143,0.97783749999999992,0.9778,0.97779740890624978",
    ),
    "type2": (
        "nu,N,samples,mc_mean,mc_stderr,mc_pair_mean,mc_pair_stderr,main,alt",
        "0.01,4,4096,0.98505967163885788,5.8148461268331704e-05,0.97043721725509824,"
        "9.3623416058563817e-05,0.98514999999999997,0.98512499999999992",
    ),
    "four-mode": (
        "nu,N,samples,mc_mean,mc_stderr,mc_pair_mean,mc_pair_stderr,analytic",
        "0.01,4,4096,0.95638246007648076,0.00026163637611850932,0.9148648422329293,"
        "0.00036794691261715293,0.95668750000000002",
    ),
}


@pytest.mark.parametrize("family", sorted(MC_GOLDEN))
def test_mc_golden_row(run, family):
    code, out, _ = run(
        "mc", "--family", family, "--nu", "0.01", "--big-n", "4",
        "--samples", "4096", "--seed", "7",
    )
    assert code == 0
    header, row = MC_GOLDEN[family]
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 2
    got, want = lines[1].split(","), row.split(",")
    assert got[:3] == want[:3]
    assert [float(v) for v in got[3:]] == pytest.approx(
        [float(v) for v in want[3:]], rel=1e-12, abs=0
    )


def test_mc_rejects_non_power_of_two(run):
    code, _, err = run("mc", "--nu", "0.01", "--big-n", "3", "--samples", "100", "--seed", "1")
    assert code == 2
    assert "power of two" in err


def test_mc_has_a_law_and_a_golden_row_for_every_family():
    """``gates.FAMILIES`` defines the families; the CLI's law table lists the
    same ones in the same order, which is the order ``--family`` names them,
    and so does the flag's help."""
    assert list(cli._MC_LAWS) == list(FAMILIES)
    assert sorted(MC_GOLDEN) == sorted(FAMILIES)
    help_text = cli._SUBCOMMANDS["mc"][3]["family"][1]
    assert all(name in help_text for name in FAMILIES)
    assert sorted(FAMILIES, key=help_text.find) == list(FAMILIES)


# nu * nu is 0 at the first three and subnormal at the last, where the
# two-point offsets' expressions divided by zero.
@pytest.mark.parametrize("nu", ["5e-324", "1e-200", "1e-170", "1e-160"])
def test_mc_type2_runs_where_the_variance_squared_underflows(run, nu):
    code, out, err = run(
        "mc", "--family", "type2", "--nu", nu, "--big-n", "2", "--samples", "100",
        "--seed", "1",
    )
    assert code == 0, err
    row = out.splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# encode-check
# ---------------------------------------------------------------------------


def test_encode_check_reports_quadratic_slope(run):
    code, out, _ = run(
        "encode-check", "--levels", "1,2", "--delta-theta", "1e-3,1e-4",
        "--seed", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "levels,N,delta_theta,deviation,slope"
    slopes = {float(line.split(",")[-1]) for line in lines[1:]}
    assert all(abs(s - 2.0) < 0.05 for s in slopes)


def test_encode_check_zero_deviation_leaves_the_slope_empty(run):
    """For Y at N = 2 the success branch moves only by rounding, so the
    smaller offset's deviation is exactly 0: that scale has no logarithm,
    the N = 2 slope is empty, and the command still succeeds."""
    argv = (
        "encode-check", "--levels", "1,2",
        "--delta-theta", "0.001022350757057093,3.6505316737186985e-05",
        "--seed", "301908346", "--gate", "Y",
    )
    code, out, err = run(*argv, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["N"] for r in rows] == ["2", "2", "4", "4"]
    assert 0.0 in [r["deviation"] for r in rows[:2]]
    assert [r["slope"] for r in rows[:2]] == [None, None]
    assert all(abs(r["slope"] - 2.0) < 0.05 for r in rows[2:])
    code, out, _ = run(*argv)
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:3]] == ["", ""]


def test_encode_check_unplottable_svg_is_a_usage_error(run, tmp_path):
    # every deviation is 0, so a log-scaled chart has no point to draw
    argv = ("encode-check", "--levels", "1", "--delta-theta", "1e-12,1e-13",
            "--seed", "3", "--gate", "X", "--svg", str(tmp_path / "chart.svg"))
    code, out, err = run(*argv)
    assert code == 2
    assert err.startswith("uasim: --svg:")
    assert out == ""
    # the table and the dump are rendered but not written
    table, dump = tmp_path / "t.csv", tmp_path / "c.json"
    code, out, err = run(*argv, "--out", str(table), "--dump-config", str(dump))
    assert (code, out) == (2, "")
    assert err.startswith("uasim: --svg:")
    assert not table.exists() and not dump.exists()


def test_encode_check_z_gate_is_the_library_s(run):
    # the CLI's only route to the Z family
    code, out, err = run(*ENCODE_Z, "--format", "json")
    assert code == 0, err
    expected = encoder_error_scaling(
        [single_qubit_matrix(named_gate("Z", 0.3))] * 2, [1e-3, 1e-4], pattern_seed=1
    )
    assert [r["deviation"] for r in json.loads(out)["rows"]] == expected.tolist()


@pytest.mark.parametrize("argv, lines", [
    (("encode-check", "--levels", "1,2", "--delta-theta", "1e-3,1e-4", "--seed", "1"), 2),
    (("parity", "--n", "1", "--q", "1", "--p", "0.2"), 1),
], ids=["log-axes", "one-point-series"])
def test_svg_draws_one_polyline_per_series(run, tmp_path, argv, lines):
    charts = []
    for name in ("a.svg", "b.svg"):
        code, _, err = run(*argv, "--svg", str(tmp_path / name))
        assert code == 0, err
        charts.append((tmp_path / name).read_bytes())
    assert charts[0].count(b"<polyline ") == lines
    assert charts[0] == charts[1]


def test_encode_check_validates_levels(run):
    code, _, err = run(
        "encode-check", "--levels", "9", "--delta-theta", "1e-3,1e-4", "--seed", "5",
    )
    assert code == 2
    assert "between 1 and 6" in err


def test_encode_check_needs_two_offsets(run):
    # a repeated offset gives no second point to fit a slope through
    for offsets in ("1e-3", "1e-3,1e-3"):
        code, out, err = run(
            "encode-check", "--levels", "1", "--delta-theta", offsets, "--seed", "5"
        )
        assert code == 2
        assert "two distinct --delta-theta" in err
        assert out == ""


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def test_parity_golden_rows(run):
    code, out, _ = run("parity", "--n", "2", "--q", "2", "--p", "0,0.1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q,p,success_prob"
    assert lines[1] == "2,2,0,1"
    assert lines[2].startswith("2,2,0.1")
    assert float(lines[2].split(",")[-1]) == pytest.approx(0.9477)


def test_parity_rejects_bad_rate(run):
    code, _, err = run("parity", "--n", "2", "--q", "2", "--p", "1.5")
    assert code == 2
    assert "[0, 1]" in err


# ---------------------------------------------------------------------------
# ft-region
# ---------------------------------------------------------------------------


def test_ft_region_default_curve_and_comment(run):
    code, out, _ = run(
        "ft-region", "--epsilon", "5e-3", "--gamma", "9e-3", "--big-n", "1,2",
    )
    assert code == 0
    assert out.splitlines()[0] == (
        "epsilon,gamma,N,effective_error,effective_loss,fault_tolerant"
    )
    assert "# curve: synthetic-demo" in out


def test_ft_region_single_copy_matches_raw_membership(run):
    curve = load_synthetic_curve()
    points = [(1e-4, 1e-2), (1e-4, 2e-2), (5e-3, 8e-3), (5e-3, 1e-2)]
    # run one gamma at a time so each (eps, gamma) pair appears once
    for eps, gam in points:
        code, out, _ = run(
            "ft-region", "--epsilon", str(eps), "--gamma", str(gam), "--big-n", "1",
        )
        assert code == 0
        verdict = out.splitlines()[1].split(",")[-1] == "true"
        limit = curve.gamma_at(eps)
        assert verdict == (limit is not None and gam <= limit)
        # and N = 1 leaves the rates untouched
        err, loss = effective_rates(eps, gam, 1)
        assert (err, loss) == (eps, gam)


def test_ft_region_rejects_malformed_curve(run, tmp_path):
    bad = tmp_path / "curve.csv"
    bad.write_text("epsilon,gamma\n1e-4,0.01\n")
    code, _, err = run(
        "ft-region", "--curve", str(bad), "--epsilon", "1e-3", "--gamma", "1e-3",
        "--big-n", "1",
    )
    assert code == 3
    assert "# code:" in err


def test_ft_region_missing_curve_file(run):
    code, _, _ = run(
        "ft-region", "--curve", "/nonexistent.csv", "--epsilon", "1e-3",
        "--gamma", "1e-3", "--big-n", "1",
    )
    assert code == 3


# ---------------------------------------------------------------------------
# config round trips and output plumbing
# ---------------------------------------------------------------------------


def test_dump_config_rerun_is_byte_identical(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, _, _ = run(
        "mc", "--nu", "0.01", "--big-n", "2", "--samples", "2000", "--seed", "7",
        "--dump-config", str(cfg), "--out", str(out_a),
    )
    assert code == 0
    # the dump must not contain its own destination
    stored = json.loads(cfg.read_text())
    assert "dump_config" not in stored
    assert stored["subcommand"] == "mc"

    code, _, _ = run("mc", "--config", str(cfg), "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_dump_holds_the_run_not_its_destinations(run, tmp_path):
    cfg, table, report, svg = (tmp_path / name for name in
                               ("cfg.json", "t.csv", "r.json", "p.svg"))
    code, _, _ = run(
        "mc", "--nu", "0.005,0.01,0.02", "--big-n", "2", "--samples", "500",
        "--seed", "7", "--out", str(table), "--report", str(report), "--svg", str(svg),
        "--dump-config", str(cfg),
    )
    assert code == 0
    text = cfg.read_text()
    assert str(tmp_path) not in text
    assert json.loads(text) == {
        "subcommand": "mc", "nu": [0.005, 0.01, 0.02], "big_n": [2], "samples": 500,
        "seed": 7,
    }
    original = table.read_bytes()
    # a replay without --out prints the same table and leaves the original alone
    code, out, _ = run("mc", "--config", str(cfg))
    assert code == 0
    assert out.encode() == original
    assert table.read_bytes() == original


def test_config_with_destinations_still_loads(run, tmp_path):
    table = tmp_path / "t.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "parity", "n": 2, "q": 2, "p": ["0.1"],
                               "out": str(table)}))
    code, out, _ = run("parity", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert table.read_text() == run("parity", "--n", "2", "--q", "2", "--p", "0.1")[1]


def test_cli_flags_override_config(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "subcommand": "analytic", "formula": "ps-single",
        "nu": ["0.01"], "big_n": ["2"], "variant": "main",
    }))
    code, out, _ = run("analytic", "--config", str(cfg), "--nu", "0.02")
    assert code == 0
    assert out.splitlines()[1].startswith("0.02,2,")


def test_config_for_wrong_subcommand(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "parity", "n": 2, "q": 2, "p": ["0.1"]}))
    code, _, err = run("analytic", "--config", str(cfg))
    assert code == 2
    assert "subcommand" in err


def test_undecodable_input_files_are_input_errors(run, tmp_path):
    binary = tmp_path / "bin.dat"
    binary.write_bytes(random.Random(0).randbytes(300))
    for argv in (
        ("parity", "--config", str(binary)),
        ("ft-region", "--epsilon", "1e-3", "--gamma", "0", "--big-n", "1",
         "--curve", str(binary)),
    ):
        code, out, err = run(*argv)
        assert (code, out) == (3, "")
        assert err.startswith("uasim: ")


def test_malformed_config_is_an_input_error(run, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, _ = run("analytic", "--config", str(cfg))
    assert code == 3
    code, _, _ = run("analytic", "--config", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize("name, text, argv, message", [
    ("deep.json", "[" * 100_000 + "]" * 100_000, ("parity", "--config"),
     "malformed config"),
    ("big.json", '{"n": ' + "9" * 5000 + "}", ("parity", "--config"), "malformed config"),
    ("list.json", "[1, 2]", ("parity", "--config"), "must hold a JSON object"),
    ("curve.csv", "# one comment\n# and another\n",
     ("ft-region", "--epsilon", "1e-3", "--gamma", "1e-3", "--big-n", "1", "--curve"),
     "missing 'epsilon,gamma' header"),
], ids=["config-deep-nesting", "config-huge-integer", "config-not-an-object",
        "curve-comments-only"])
def test_malformed_input_files_are_input_errors(run, tmp_path, name, text, argv, message):
    path = tmp_path / name
    path.write_text(text)
    # pin the digit limit json enforces, so no case depends on PYTHONINTMAXSTRDIGITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(*argv, str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (3, "")
    assert err.startswith("uasim: ") and message in err
    assert err.count("\n") == 1


# in the order _render makes the outputs, which the message follows
@pytest.mark.parametrize("first, second", [
    ("--report", "--out"), ("--report", "--svg"), ("--report", "--dump-config"),
    ("--out", "--svg"), ("--out", "--dump-config"), ("--svg", "--dump-config"),
])
def test_two_destinations_naming_one_file_are_a_usage_error(run, tmp_path, monkeypatch,
                                                            first, second):
    monkeypatch.chdir(tmp_path)
    # three noisy points, so --report has a discrimination to write
    code, out, err = run(
        "mc", "--nu", "0.005,0.01,0.02", "--big-n", "2", "--samples", "500", "--seed", "3",
        first, "d.out", second, str(tmp_path / "." / "d.out"),
    )
    assert (code, out) == (2, "")
    assert err == f"uasim: {first} and {second} name the same file d.out\n"
    assert list(tmp_path.iterdir()) == []


def test_out_file_and_svg(run, tmp_path):
    out = tmp_path / "table.csv"
    svg = tmp_path / "plot.svg"
    code, stdout, _ = run(
        "analytic", "--formula", "ps-single", "--nu", "0.005,0.01", "--big-n", "2,4",
        "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    assert stdout == ""  # table went to the file
    assert out.read_text().startswith("nu,N,value,variant\n")
    body = svg.read_text()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")

    # SVG output is deterministic too
    svg2 = tmp_path / "plot2.svg"
    run(
        "analytic", "--formula", "ps-single", "--nu", "0.005,0.01", "--big-n", "2,4",
        "--svg", str(svg2),
    )
    assert svg.read_bytes() == svg2.read_bytes()


@pytest.mark.parametrize("flag", ["--out", "--svg", "--dump-config", "--report"])
def test_unwritable_destination_is_a_usage_error(run, tmp_path, flag):
    # three noisy points, so --report has a discrimination to write
    code, out, err = run(
        "mc", "--nu", "0.005,0.01,0.02", "--big-n", "2", "--samples", "500",
        "--seed", "3", flag, str(tmp_path / "no" / "such" / "dir.out"),
    )
    assert code == 2
    assert err.startswith(f"uasim: {flag} ")
    assert out == ""


# ---------------------------------------------------------------------------
# JSON output: one writer, json.dumps's bytes
# ---------------------------------------------------------------------------


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


json_text_strings = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('\x00\x1f\x7f"\\/\u2028é\ud800'),
    max_size=6,
)
json_text_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | json_text_strings
    | st.sampled_from([-0.0, 5e-324, 2.5e-310, math.inf, -math.inf, math.nan,
                       2**64, -(2**100), 10**300])
)
json_text_values = st.recursive(
    json_text_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(json_text_strings, inner, max_size=4)
    # one key type per dict: json itself cannot sort mixed key types
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=3)
    | st.dictionaries(st.floats(), inner, max_size=3)
    | st.dictionaries(st.none(), inner, max_size=1),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=json_text_values)
def test_json_text_is_json_dumps(value):
    assert cli._json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [{(1, 2): 0}, {"a": {(1, 2): [0]}}, [object()],
                                   {"a": [{"b": {1j}}]}])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        dumps(value)
    with pytest.raises(TypeError) as got:
        cli._json_text(value)
    assert str(got.value) == str(want.value)


JSON_CALLS = [
    ("analytic", "--formula", "ps-single", "--nu", "0.01,0.02", "--big-n", "2,inf"),
    ("mc", "--family", "type2", "--nu", "0.01", "--big-n", "2", "--samples", "64",
     "--seed", "5"),
    ("mc", "--nu", "0.005,0.01,0.02", "--big-n", "2", "--samples", "500", "--seed", "3"),
    ("encode-check", "--levels", "2", "--delta-theta", "1e-2,1e-3", "--seed", "3"),
    ("parity", "--n", "2", "--q", "3", "--p", "0.2"),
    ("ft-region", "--epsilon", "1e-5,1e-3", "--gamma", "0,1e-2", "--big-n", "1,4"),
]


@pytest.mark.parametrize("argv", JSON_CALLS, ids=["analytic", "mc-type2", "mc-single",
                                                 "encode-check", "parity", "ft-region"])
def test_json_stdout_is_json_dumps_bytes(run, argv):
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert out == dumps(json.loads(out)) + "\n"


def test_report_and_dumped_config_are_json_dumps_bytes(run, tmp_path):
    report, cfg = tmp_path / "report.json", tmp_path / "cfg.json"
    code, _, _ = run(*JSON_CALLS[2], "--report", str(report), "--dump-config", str(cfg))
    assert code == 0
    for path in (report, cfg):
        text = path.read_text()
        assert text == dumps(json.loads(text)) + "\n"


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(uasim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "uasim.cli", "parity", "--n", "2", "--q", "2", "--p", "0.1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,q,p,success_prob\n")


# A fresh interpreter: the calls that draw no gaussian offsets never load
# scipy; the first gaussian draw does, and its numbers are the golden row's.
COLD_CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import uasim.cli
loaded = {"import": scipy_modules()}
for argv in (
    ["analytic", "--formula", "ps-single", "--nu", "0.01", "--big-n", "4"],
    ["mc", "--family", "type2", "--nu", "0.01", "--big-n", "4", "--samples", "4096",
     "--seed", "7"],
    ["parity", "--n", "2", "--q", "2", "--p", "0.1"],
    ["ft-region", "--epsilon", "1e-3", "--gamma", "0", "--big-n", "1,4"],
    ["encode-check", "--levels", "1", "--delta-theta", "1e-3,1e-4", "--seed", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert uasim.cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()

from uasim.montecarlo import derive_point_seed, estimate_fidelity

# the single-qubit mc golden row: grid point 0 of seed 7
run = estimate_fidelity(0.01, 4, 4096, seed=derive_point_seed(7, 0))
rom = run.fidelity.ratio_of_means
loaded["gaussian"] = scipy_modules()
row = [run.success_prob.mean, run.success_prob.stderr, rom.mean, rom.stderr]
print(json.dumps({"loaded": loaded, "row": row}))
"""


def test_cold_import_loads_scipy_only_for_a_gaussian_draw():
    proc = subprocess.run(
        [sys.executable, "-c", COLD_CHILD], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    loaded = got.pop("loaded")
    assert "scipy.special" in loaded.pop("gaussian")
    assert loaded == dict.fromkeys(
        ["import", "analytic", "mc", "parity", "ft-region", "encode-check"], []
    )
    want = [float(v) for v in MC_GOLDEN["single-qubit"][1].split(",")[3:7]]
    assert got["row"] == pytest.approx(want, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# one parser per process, with nothing carried from one call to the next
# ---------------------------------------------------------------------------


def call(*argv):
    """main in this process, with new stdout and stderr streams for the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fresh_call(*argv):
    """The same call in a fresh ``python -m uasim.cli`` process."""
    proc = subprocess.run([sys.executable, "-m", "uasim.cli", *argv],
                          env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


ENCODE = ("encode-check", "--levels", "2", "--delta-theta", "1e-2,1e-3", "--seed", "3")
FINAL_CALLS = [
    ("analytic", "--formula", "ps-single", "--nu", "0.03", "--big-n", "2"),
    ("mc", "--family", "type2", "--nu", "0.01", "--big-n", "2", "--samples", "64",
     "--seed", "5"),
    ENCODE,
    ("parity", "--n", "2", "--q", "3", "--p", "0.2"),
    ("ft-region", "--epsilon", "1e-3", "--gamma", "1e-2", "--big-n", "1,4"),
]


def test_reused_parser_leaks_nothing_between_calls(tmp_path):
    code, out, _ = call("analytic", "--formula", "ps-single", "--nu", "0.01",
                        "--nu", "0.02", "--big-n", "2", "--variant", "main")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["0.01", "0.02"]

    code, out, err = call("parity", "--n", "2", "--q", "2", "--p", "0.1", "--bogus")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --bogus" in err

    helps = [call("--help") for _ in range(2)]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and "encode-check" in helps[0][1]

    independent = call(*ENCODE, "--independent")
    assert independent[0] == 0

    cfg = tmp_path / "cfg.json"
    code, dumped, _ = call("parity", "--n", "2", "--q", "2", "--p", "0.1", "--p", "0.3",
                           "--format", "json", "--dump-config", str(cfg))
    assert code == 0
    assert call("parity", "--config", str(cfg)) == (0, dumped, "")

    for argv in FINAL_CALLS:
        assert call(*argv) == fresh_call(*argv), argv
    # the correlated table, not the one the --independent call printed
    assert call(*ENCODE)[1] != independent[1]


def test_one_parser_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # a parser built before the patch would not be counted
    getattr(cli._build_parser, "cache_clear", lambda: None)()
    for _ in range(2):
        for argv in FINAL_CALLS:
            assert call(*argv)[0] == 0, argv
    assert 1 <= len(built) <= 6, built


def parsed(parse, argv):
    """What one parse gives: its namespace, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def routed(argv):
    """The root parser's own parse, routing through argparse's subparsers."""
    return cli._build_parser()[0].parse_args(argv)


VALUES = ["-1e-3", "-0.5", "--", "-h", "--help", "0.1", "2", "1,4", "inf", "json",
          "stray", "--bogus", "-x", "parity"]


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    flags = [cli._flag(dest) for dest in cli._SUBCOMMANDS[sub][3]] + ["--config"]
    flag = st.sampled_from(flags)
    value = st.sampled_from(VALUES)
    token = (
        flag
        | flag.flatmap(lambda f: st.integers(3, max(3, len(f) - 1)).map(lambda k: f[:k]))
        | st.builds("{}={}".format, flag, value)
        | value
    )
    head = draw(st.sampled_from(
        [[sub], [sub], [sub], [], ["-h"], ["--format", "csv", sub], ["bogus"], [sub[:3]]]
    ))
    items = draw(st.lists(st.tuples(flag, value) | st.tuples(token), max_size=6))
    return head + [t for item in items for t in item]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=argvs())
def test_dispatch_parses_as_the_root_parser_routes(argv):
    assert parsed(cli._parse_args, argv) == parsed(routed, argv)


@pytest.mark.parametrize("argv, code, fragment", [
    ([], 2, "error: the following arguments are required: subcommand"),
    (["-h"], 0, "{analytic,mc,encode-check,parity,ft-region}"),
    (["bogus"], 2, "error: argument subcommand: invalid choice: 'bogus'"),
    (["--format", "csv", "parity"], 2, "error: argument subcommand: invalid choice: 'csv'"),
    # the root parser's usage line, as argparse reports a subparser's leftovers
    (["parity", "--n", "2", "--q", "2", "--p", "0.1", "--bogus"], 2,
     "usage: uasim [-h] {"),
    (["ft-region", "--epsilon", "-1e-3", "--gamma", "0", "--big-n", "1"], 2,
     "uasim ft-region: error: argument --epsilon: expected one argument"),
])
def test_dispatch_keeps_argparse_exits_and_messages(argv, code, fragment):
    got = parsed(cli._parse_args, argv)
    assert got == parsed(routed, argv)
    assert got[0] == code and fragment in got[1] + got[2]
    assert call(*argv) == (code, got[1], got[2])


# ---------------------------------------------------------------------------
# any config value: exit 0, 2 or 3, never an internal error
# ---------------------------------------------------------------------------

# A small valid config per subcommand, and the fields a property test may
# replace.  Destinations and --curve name files, so they are never drawn;
# integers stay small so that any drawn run is fast.
VALID_CONFIGS = {
    "analytic": ({"formula": "ps-single", "nu": [0.01], "big_n": [2]},
                 ("formula", "nu", "big_n", "variant", "format")),
    "mc": ({"nu": [0.01], "big_n": [2], "samples": 16, "seed": 1},
           ("family", "nu", "big_n", "samples", "seed", "format")),
    "encode-check": ({"levels": [1], "delta_theta": [1e-3, 1e-4], "seed": 1},
                     ("levels", "delta_theta", "seed", "gate", "alpha", "independent",
                      "format")),
    "parity": ({"n": 2, "q": 2, "p": [0.1]}, ("n", "q", "p", "format")),
    "ft-region": ({"epsilon": [1e-3], "gamma": [0.0], "big_n": [1, 4]},
                  ("epsilon", "gamma", "big_n", "format")),
}
NOT_DRAWN = {"out", "svg", "report", "dump_config", "curve", "subcommand"}

json_scalars = (
    st.none() | st.booleans() | st.integers(-4, 128) | st.floats(-4, 128)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.sampled_from(["", "inf", "nan", "-1", "0", "2", "1e-3", "0.01,0.02", "H", "Z",
                       "type2", "json", "main", "ps-single", "true"])
    | st.text(alphabet="0123456789.,-+eE infaHXYZ", max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_configs(draw):
    sub = draw(st.sampled_from(sorted(VALID_CONFIGS)))
    config, fields = VALID_CONFIGS[sub]
    key = draw(
        st.sampled_from(fields)
        | st.sampled_from(["famly", "samples", "levels", "config", "big-n"])
        | st.text(max_size=4).filter(lambda k: k not in NOT_DRAWN)
    )
    return sub, {"subcommand": sub, **config, key: draw(json_values)}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_configs())
def test_any_config_value_exits_0_2_or_3(tmp_path, case):
    sub, config = case
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([sub, "--config", str(path)])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().startswith("uasim:")
