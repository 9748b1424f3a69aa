"""Threshold-curve handling and fault-tolerance verdicts."""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uasim
from uasim.cli import main as cli_main
from uasim.formulas import effective_rates
from uasim.ftregion import (
    CurveFormatError,
    ThresholdCurve,
    load_synthetic_curve,
    sweep_region,
)

# A flat curve makes verdicts easy to reason about by hand.
FLAT = ThresholdCurve("flat", (1e-4, 1e-2), (0.01, 0.01))


def curve_text(body):
    return "# code: demo\nepsilon,gamma\n" + body


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_from_csv_roundtrip():
    c = ThresholdCurve.from_csv(io.StringIO(curve_text("1e-4,0.02\n1e-3,0.01\n")))
    assert c.code_name == "demo"
    assert c.epsilons == (1e-4, 1e-3)
    assert c.gammas == (0.02, 0.01)


def test_from_csv_accepts_comments_and_blank_lines():
    text = "# a note\n\n# code: demo\nepsilon,gamma\n# midway comment\n1e-4,0.02\n1e-3,0.01\n"
    c = ThresholdCurve.from_csv(io.StringIO(text))
    assert c.code_name == "demo"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("epsilon,gamma\n1e-4,0.02\n1e-3,0.01\n", "# code:"),
        ("# code: demo\neps,gam\n1e-4,0.02\n", ":2: expected header"),
        (curve_text("1e-4,0.02,9\n"), ":3: expected two columns"),
        (curve_text("1e-4,abc\n"), ":3: non-numeric"),
        (curve_text("1e-4,0.02\n"), "at least two"),
        (curve_text("1e-3,0.02\n1e-4,0.01\n"), "increase strictly"),
        (curve_text("1e-4,0.01\n1e-3,0.02\n"), "non-increasing"),
        (curve_text("1e-4,0.02\n2.0,0.01\n"), "outside (0, 1)"),
    ],
)
def test_from_csv_rejects_malformed_input(text, fragment):
    with pytest.raises(CurveFormatError) as err:
        ThresholdCurve.from_csv(io.StringIO(text))
    assert fragment in str(err.value)


def test_from_csv_missing_file():
    with pytest.raises(CurveFormatError, match="cannot read"):
        ThresholdCurve.from_csv("/nonexistent/curve.csv")


def test_shipped_curve_loads():
    c = load_synthetic_curve()
    assert c.code_name == "synthetic-demo"
    assert len(c.epsilons) >= 5


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_gamma_at_hits_the_knots():
    c = ThresholdCurve("demo", (1e-4, 1e-3, 1e-2), (0.02, 0.01, 0.005))
    assert c.gamma_at(1e-4) == pytest.approx(0.02)
    assert c.gamma_at(1e-3) == pytest.approx(0.01)
    assert c.gamma_at(1e-2) == pytest.approx(0.005)


def test_gamma_at_interpolates_log_log():
    c = ThresholdCurve("demo", (1e-4, 1e-2), (0.02, 0.005))
    # halfway in log epsilon lands halfway in log gamma
    assert c.gamma_at(1e-3) == pytest.approx(math.sqrt(0.02 * 0.005))


def test_gamma_at_refuses_extrapolation():
    c = ThresholdCurve("demo", (1e-4, 1e-2), (0.02, 0.005))
    assert c.gamma_at(5e-5) is None
    assert c.gamma_at(2e-2) is None
    assert c.gamma_at(0.0) is None


def test_densified_leaves_the_interpolant_invariant():
    c = load_synthetic_curve()
    d = c.densified().densified()
    assert len(d.epsilons) == 4 * (len(c.epsilons) - 1) + 1
    for eps in (2e-6, 1e-4, 7e-4, 5e-3, 2.9e-2):
        assert d.gamma_at(eps) == pytest.approx(c.gamma_at(eps), rel=1e-12)


@pytest.mark.parametrize("curve", [
    load_synthetic_curve(),
    load_synthetic_curve().densified(),
    ThresholdCurve("demo", (1e-4, 1e-3, 1e-2), (0.02, 0.01, 0.005)),
], ids=["shipped", "densified", "demo"])
def test_gamma_at_matches_the_log_log_interpolant_bit_for_bit(curve):
    lo, hi = math.log(curve.epsilons[0]), math.log(curve.epsilons[-1])
    rng = np.random.default_rng(18)
    for eps in np.exp(rng.uniform(lo - 2, hi + 1, 200)):
        eps = float(eps)
        want = math.exp(np.interp(math.log(eps), np.log(curve.epsilons),
                                  np.log(curve.gammas)))
        inside = curve.epsilons[0] <= eps <= curve.epsilons[-1]
        assert curve.gamma_at(eps) == (want if inside else None)


def test_ft_region_default_curve_calls_are_byte_identical(capsys):
    argv = ["ft-region", "--epsilon", "1e-5,1e-3", "--gamma", "1e-2", "--big-n", "1,4",
            "--format", "json"]
    outputs = []
    for _ in range(2):
        assert cli_main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"curve": "synthetic-demo"' in outputs[0]


def test_curve_file_is_reread_on_every_call(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    argv = ["ft-region", "--curve", str(path), "--epsilon", "1e-3", "--gamma", "1e-2",
            "--big-n", "1"]
    for name, gamma in (("first", "0.005"), ("second", "0.02")):
        path.write_text(f"# code: {name}\nepsilon,gamma\n1e-4,{gamma}\n1e-2,{gamma}\n")
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert f"# curve: {name}" in out
        assert out.splitlines()[1].endswith("true" if name == "second" else "false")


def test_shipped_curve_is_read_once():
    assert load_synthetic_curve() is load_synthetic_curve()


def test_cached_logs_are_read_only():
    curve = load_synthetic_curve()
    curve.gamma_at(1e-3)
    for logs in curve._log_points:
        with pytest.raises(ValueError):
            logs[0] = 0.0


def test_cached_logs_leave_equality_and_hash_alone():
    def fresh():
        return ThresholdCurve("demo", (1e-4, 1e-3, 1e-2), (0.02, 0.01, 0.005))

    curve, before = fresh(), fresh()
    key = hash(curve)
    assert curve.gamma_at(1e-3) == pytest.approx(0.01)
    assert "_log_points" in vars(curve)
    assert curve == before and hash(curve) == key == hash(before)
    assert {curve: 1}[before] == 1


def test_import_reads_no_curve():
    child = ("import uasim.cli, uasim.ftregion as f; "
             "print(f.load_synthetic_curve.cache_info().currsize)")
    src = str(Path(uasim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_query_validation():
    with pytest.raises(ValueError):
        sweep_region([-1e-3], [1e-3], [2], FLAT)
    with pytest.raises(ValueError):
        sweep_region([1e-3], [1e-3], [3], FLAT)


def test_single_copy_verdict_is_raw_curve_membership():
    """N = 1 changes nothing, so the verdict is just gamma <= curve(epsilon)."""
    for eps, gam in [(5e-3, 9e-3), (5e-3, 1.1e-2), (2e-4, 1e-2), (2e-2, 1e-3)]:
        inside = FLAT.gamma_at(eps) is not None and gam <= FLAT.gamma_at(eps)
        assert sweep_region([eps], [gam], [1], FLAT)[0].fault_tolerant == inside


def test_averaging_trades_error_for_loss():
    """A frozen worked example on the flat curve.

    At (5e-3, 9e-3): N = 1 passes (9e-3 <= 0.01).  N = 2 moves the loss to
    9e-3 * 5/3 + 5e-3/2 = 0.0175 > 0.01, so averaging breaks it.
    """
    assert sweep_region([5e-3], [9e-3], [1], FLAT)[0].fault_tolerant
    err, loss = effective_rates(5e-3, 9e-3, 2)
    assert loss == pytest.approx(0.0175)
    assert not sweep_region([5e-3], [9e-3], [2], FLAT)[0].fault_tolerant


def test_averaging_can_rescue_a_high_error_point():
    # error above the curve extent fails raw, but averaging pulls it back in
    steep = ThresholdCurve("steep", (1e-5, 1e-3), (0.05, 0.04))
    # epsilon off the right edge
    assert not sweep_region([5e-3], [1e-3], [1], steep)[0].fault_tolerant
    assert sweep_region([5e-3], [1e-3], [8], steep)[0].fault_tolerant


def test_sweep_region_order_and_content():
    pts = sweep_region([1e-3, 5e-3], [1e-3], [1, 2], FLAT)
    assert [(p.num_copies, p.epsilon) for p in pts] == [
        (1, 1e-3),
        (1, 5e-3),
        (2, 1e-3),
        (2, 5e-3),
    ]
    for p in pts:
        err, loss = effective_rates(p.epsilon, p.gamma, p.num_copies)
        assert (p.effective_error, p.effective_loss) == (err, loss)
        (alone,) = sweep_region([p.epsilon], [p.gamma], [p.num_copies], FLAT)
        assert p.fault_tolerant == alone.fault_tolerant


def test_write_sweep_csv_format(capsys):
    """The sweep table is written by ``uasim ft-region``."""
    assert cli_main(
        ["ft-region", "--epsilon", "1e-3", "--gamma", "2e-3", "--big-n", "2"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epsilon,gamma,N,effective_error,effective_loss,fault_tolerant"
    # floats carry 17 significant digits so a rerun reproduces them bitwise
    (p,) = sweep_region([1e-3], [2e-3], [2], load_synthetic_curve())
    assert lines[1] == (
        f"0.001,0.002,2,{p.effective_error:.17g},{p.effective_loss:.17g},true"
    )
    assert (p.effective_error, p.effective_loss) == effective_rates(1e-3, 2e-3, 2)
    assert all(float(f) == v for f, v in zip(lines[1].split(",")[:2], (1e-3, 2e-3)))
