import math
import os
import subprocess
import sys
from dataclasses import astuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uasim
from uasim.gates import (
    GATE_DEPTHS,
    GateParams,
    NoiseSpec,
    four_mode_matrix,
    fusion_type2_matrix,
    named_gate,
    sample_deltas,
    single_qubit_matrix,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The named gates and their dual-rail matrices, frozen by hand.
NAMED_MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "H": np.array([[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]),
}


@pytest.mark.parametrize("name", sorted(NAMED_MATRICES))
def test_named_gate_matrices(name):
    m = single_qubit_matrix(named_gate(name))
    np.testing.assert_allclose(m, NAMED_MATRICES[name], atol=1e-15)


def test_z_family():
    z0 = single_qubit_matrix(named_gate("Z", alpha=0.0))
    np.testing.assert_allclose(z0, np.diag([1, -1]), atol=1e-15)
    # alpha = pi turns the phase gate into the identity
    z_pi = single_qubit_matrix(named_gate("Z", alpha=math.pi))
    np.testing.assert_allclose(z_pi, np.eye(2), atol=1e-15)
    z = single_qubit_matrix(named_gate("Z", alpha=0.3))
    np.testing.assert_allclose(z, np.diag([1, -np.exp(0.3j)]), atol=1e-15)


def test_named_gate_argument_errors():
    with pytest.raises(ValueError, match="alpha"):
        named_gate("Z")
    with pytest.raises(ValueError, match="no alpha"):
        named_gate("H", alpha=0.1)
    with pytest.raises(ValueError, match="unknown gate"):
        named_gate("T")


@settings(max_examples=50, derandomize=True)
@given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
def test_single_qubit_matrix_is_unitary_for_any_angles(angles):
    m = single_qubit_matrix(GateParams(*angles))
    np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


@settings(max_examples=30, derandomize=True)
@given(st.floats(-10, 10))
def test_splitter_is_orthogonal(theta):
    # with every phase at zero the gate is the bare splitter [[sin, cos], [cos, -sin]]
    b = single_qubit_matrix(GateParams(theta, 0.0, 0.0, 0.0, 0.0))
    assert not b.imag.any()
    np.testing.assert_allclose(b.real.T @ b.real, np.eye(2), atol=1e-12)


def test_splitter_balanced_point_is_hadamard():
    b = single_qubit_matrix(GateParams(math.pi / 4, 0.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(b, NAMED_MATRICES["H"], atol=1e-15)


# ---------------------------------------------------------------------------
# noise sampling
# ---------------------------------------------------------------------------


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, kind="cauchy")
    with pytest.raises(ValueError):
        NoiseSpec(0.1, "four-moment", 0.001)  # m4 below variance^2


def test_zero_variance_gives_zero_deltas():
    rng = np.random.default_rng(0)
    d = sample_deltas(NoiseSpec(0.0, "gaussian"), (100,), rng)
    assert not d.any()


def test_sample_deltas_is_seed_deterministic():
    a = sample_deltas(NoiseSpec(0.01, "gaussian"), (64,), np.random.default_rng(7))
    b = sample_deltas(NoiseSpec(0.01, "gaussian"), (64,), np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "noise, m4_expected",
    [
        (NoiseSpec(0.01, "gaussian"), 3 * 0.01**2),
        (NoiseSpec(0.01, "uniform"), 1.8 * 0.01**2),
        (NoiseSpec(0.01, "four-moment", 3 * 0.01**2), 3 * 0.01**2),
    ],
)
def test_sampled_moments(noise, m4_expected):
    """Mean, variance and fourth moment of 10^6 draws match the spec'd values."""
    n = 10**6
    d = sample_deltas(noise, (n,), np.random.default_rng(1234))
    nu = noise.variance
    assert abs(d.mean()) < 5 * math.sqrt(nu / n)
    assert np.mean(d**2) == pytest.approx(nu, rel=0.01)
    assert np.mean(d**4) == pytest.approx(m4_expected, rel=0.05)


# 0.01 ** 2 == 0.01 * 0.01, but 0.42672114373024106 ** 2 is an ulp above the
# product and 0.029724695889211672 ** 2 an ulp below it.
@pytest.mark.parametrize("nu", [0.01, 0.42672114373024106, 0.029724695889211672])
def test_four_moment_defaults_to_the_two_point_law(nu):
    noise = NoiseSpec(nu, "four-moment")
    assert noise == NoiseSpec(nu, "four-moment", nu * nu)
    d = sample_deltas(noise, (4096,), np.random.default_rng(5))
    assert set(np.unique(d)) == {-math.sqrt(nu), math.sqrt(nu)}
    with pytest.raises(ValueError, match="fourth moment"):
        NoiseSpec(nu, "four-moment", np.nextafter(nu * nu, 0.0))


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_only_four_moment_noise_takes_a_fourth_moment(kind):
    # the continuous kinds fix their own m4, so an explicit one is an error
    with pytest.raises(ValueError, match=f"{kind} noise takes no fourth moment"):
        NoiseSpec(0.01, kind, 5.0)
    assert NoiseSpec(0.01, kind).fourth_moment is None


def test_two_point_distribution_is_pure_sign_flip():
    # m4 = nu^2 collapses the three-point law onto +/- sqrt(nu)
    nu = 0.01
    d = sample_deltas(NoiseSpec(nu, "four-moment", nu**2), (4096,), np.random.default_rng(3))
    np.testing.assert_allclose(np.abs(d), math.sqrt(nu), atol=1e-15)


# ---------------------------------------------------------------------------
# two-qubit networks
# ---------------------------------------------------------------------------


def test_fusion_matrix_product_form_matches_explicit_entries():
    """The layered product agrees with writing each path's entry by hand."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = rng.uniform(0, 2 * math.pi, size=4)
        m = fusion_type2_matrix(t - math.pi / 4)
        t1, t2, t3, t4 = t
        s1, c1 = math.sin(t1), math.cos(t1)
        s2, c2 = math.sin(t2), math.cos(t2)
        s3, c3 = math.sin(t3), math.cos(t3)
        s4, c4 = math.sin(t4), math.cos(t4)
        # route a unit amplitude along each of the two-splitter paths
        expected = np.array(
            [
                [s3 * s1, s3 * c1, c3 * c2, -c3 * s2],
                [c3 * s1, c3 * c1, -s3 * c2, s3 * s2],
                [c4 * c1, -c4 * s1, s4 * s2, s4 * c2],
                [-s4 * c1, s4 * s1, c4 * s2, c4 * c2],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-14)
        # and the layered product: splitters, swap of modes 2 and 4, splitters
        swap = np.eye(4)[[0, 3, 2, 1]]
        np.testing.assert_allclose(
            m, _splitter_layer(t3, t4) @ swap @ _splitter_layer(t1, t2), atol=1e-14
        )


def _splitter_layer(a, b):
    """Real splitters [[sin, cos], [cos, -sin]] on modes (1, 2) and (3, 4)."""
    out = np.zeros((4, 4))
    for block, t in ((slice(0, 2), a), (slice(2, 4), b)):
        out[block, block] = [[math.sin(t), math.cos(t)], [math.cos(t), -math.sin(t)]]
    return out


def test_fusion_at_quarter_pi_is_balanced_and_orthogonal():
    m = fusion_type2_matrix()
    np.testing.assert_allclose(np.abs(m), 0.5, atol=1e-15)
    np.testing.assert_allclose(m.T @ m, np.eye(4), atol=1e-14)


def test_fusion_at_half_pi_reduces_to_the_mode_swap():
    m = fusion_type2_matrix(np.full(4, math.pi / 4))
    np.testing.assert_allclose(m, np.eye(4)[[0, 3, 2, 1]], atol=1e-15)


def test_four_mode_gate_with_balanced_blocks_equals_fusion():
    np.testing.assert_array_equal(four_mode_matrix(), fusion_type2_matrix())


def test_four_mode_gate_is_unitary_for_random_blocks():
    rng = np.random.default_rng(23)
    for _ in range(10):
        blocks = rng.uniform(-3, 3, size=(4, 5))
        # a block setting is its offset from the nominal H block
        m = four_mode_matrix(blocks - np.array(astuple(named_gate("H"))))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(4), atol=1e-12)


def _four_mode_by_layers(deltas):
    """The four-mode gate as the product of its zero-padded block layers."""
    d = deltas if deltas.shape[:-2] else deltas[None]
    blocks = [single_qubit_matrix(named_gate("H"), d[..., i, :]) for i in range(4)]
    pre = np.zeros(d.shape[:-2] + (4, 4), dtype=complex)
    pre[..., (0, 3), 0:2] = blocks[0]  # the 2<->4 swap moves A's second row to mode 4
    pre[..., (2, 1), 2:4] = blocks[1]  # and B's second row to mode 2
    post = np.zeros(d.shape[:-2] + (4, 4), dtype=complex)
    post[..., 0:2, 0:2] = blocks[2]
    post[..., 2:4, 2:4] = blocks[3]
    return (post @ pre).reshape(deltas.shape[:-2] + (4, 4))


def _four_mode_offsets():
    rng = np.random.default_rng(41)
    for lead in ((), (3,), (2, 3)):
        shape = lead + (4, 5)
        yield np.zeros(shape)
        for k in range(20):  # one nonzero offset, in each of the twenty places
            one = np.zeros(shape)
            one[..., k // 5, k % 5] = rng.uniform(-3, 3, lead)
            yield one
        for scale in (1e-8, 1e-4, 1e-2, 1.0, 3.0):
            yield np.where(rng.random(shape) < 0.2, rng.uniform(-scale, scale, shape), 0.0)
        for _ in range(5):
            yield rng.normal(0.0, 0.1, shape)


def test_four_mode_gate_has_the_bits_of_its_layer_product():
    """Each one-path entry has the padded BLAS product's bytes, zero signs too."""
    for deltas in _four_mode_offsets():
        want = _four_mode_by_layers(deltas)
        got = four_mode_matrix(deltas)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_path_parameter_counts():
    assert GATE_DEPTHS == {"single-qubit": 3, "four-mode": 6, "type2": 2}


# ---------------------------------------------------------------------------
# scalar gate = empty batch
# ---------------------------------------------------------------------------


def _single_qubit_builders():
    rng = np.random.default_rng(31)
    named = [named_gate(g) for g in ("I", "X", "Y", "H")] + [named_gate("Z", 0.3)]
    randoms = [GateParams(*rng.uniform(-3, 3, size=5)) for _ in range(50)]
    return [partial(single_qubit_matrix, p) for p in named + randoms]


# family -> (offset shape, builders taking only ``deltas``); a two-qubit
# network has one nominal setting, and any other is an offset.
SCALAR_AND_BATCHED = {
    "single-qubit": ((5,), _single_qubit_builders()),
    "type2": ((4,), [fusion_type2_matrix]),
    "four-mode": ((4, 5), [four_mode_matrix]),
}


@pytest.mark.parametrize("family", sorted(SCALAR_AND_BATCHED))
def test_scalar_builder_is_the_zero_delta_batch_bit_for_bit(family):
    delta_shape, builders = SCALAR_AND_BATCHED[family]
    rng = np.random.default_rng(37)
    for build in builders:
        single = build()
        assert single.shape == ((2, 2) if family == "single-qubit" else (4, 4))
        for lead in ((3,), (2, 3)):
            stack = build(np.zeros(lead + delta_shape))
            assert stack.shape == lead + single.shape
            for idx in np.ndindex(*lead):
                assert np.array_equal(stack[idx], single)
        # each row of a random-offset stack is the one-sample call with its offsets
        for _ in range(10):
            for lead in ((3,), (2, 3)):
                offsets = rng.uniform(-3, 3, lead + delta_shape)
                stack = build(offsets)
                for idx in np.ndindex(*lead):
                    assert np.array_equal(stack[idx], build(offsets[idx]))


def _dispatch_targets() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


# Every child first checks that its dispatch targets are off when asked: it
# fails, never skips, where the targets cannot be listed or switched off.
CHILD_PRELUDE = """
import sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

if sys.argv[1] == "none":
    on = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    assert not on, f"dispatch targets still enabled: {on}"
"""


def _run_child(code: str, dispatch: str) -> subprocess.CompletedProcess:
    """Run ``code`` after ``CHILD_PRELUDE`` in a fresh interpreter on this
    tree's uasim, at numpy's default dispatch or with every target off."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    if dispatch == "none":
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(_dispatch_targets())
    src = str(Path(uasim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_PRELUDE + code, dispatch], env=env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


# ``_expi`` stands in for ``np.exp(1j * x)`` in every gate kernel, so its bytes
# must equal it under numpy's fastest loops and with every dispatched SIMD
# target switched off.
EXPI_CHILD = """
import math
from uasim.gates import _expi

rng = np.random.default_rng(2024)
x = np.concatenate(
    [rng.uniform(-10.0, 10.0, 200_000)]
    + [c + rng.normal(0.0, 0.1, 200_000) for c in (0.0, math.pi / 2, -math.pi / 2, math.pi)]
    + [[0.0, -0.0, 5e-324, -5e-324, 1e300]]
)
assert _expi(x).tobytes() == np.exp(1j * x).tobytes()
"""


@pytest.mark.parametrize("dispatch", ["default", "none"])
def test_expi_equals_complex_exp_on_every_dispatch_target(dispatch):
    _run_child(EXPI_CHILD, dispatch)


# The Type-II builder is real arithmetic only, so its bytes must not depend on
# which SIMD loops numpy dispatches to.  (The single-qubit and four-mode
# builders' complex products do round differently with every target off.)
TYPE2_CHILD = """
from uasim.gates import fusion_type2_matrix

rng = np.random.default_rng(2025)
deltas = np.concatenate([rng.normal(0.0, 0.1, (4096, 3, 4)), rng.uniform(-4.0, 4.0, (4096, 3, 4))])
sys.stdout.buffer.write(fusion_type2_matrix(deltas).tobytes())
"""


def test_type2_bytes_do_not_depend_on_the_dispatch_target():
    default, none = (_run_child(TYPE2_CHILD, d).stdout for d in ("default", "none"))
    assert len(default) == 2 * 4096 * 3 * 16 * 8
    assert default == none
