"""Monte Carlo estimator tests.

Statistical assertions compare against closed-form ensemble averages that can
be computed exactly for the sampled noise models (independent phase offsets
factorize).  For a family of depth d (``gates.FAMILIES``), ``exact_ps`` gives

  P = 1/N + (1 - 1/N) c^(2d),  c = E[cos delta],

with c = exp(-nu/2) for gaussian offsets and cos(sqrt(nu)) for the two-point
ones.  Bands are 5 standard errors around those values with seeds frozen, so
the tests are deterministic.
"""

import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from uasim import averaging, montecarlo
from uasim.averaging import (
    EncoderNoise,
    build_tree,
    evolve_pair,
    num_splitter_deltas,
    pair_state,
)
from uasim.gates import (
    FAMILIES,
    NoiseSpec,
    _expi,
    fusion_type2_matrix,
    named_gate,
    sample_deltas,
    single_qubit_matrix,
)
from uasim.montecarlo import (
    DEFAULT_CHUNK,
    FusionRunResult,
    GateRunResult,
    _STREAM_GATES,
    _STREAM_SPLITTERS,
    _block_rng,
    _finalize,
    _iter_chunks,
    _moments,
    derive_point_seed,
    discriminate,
    estimate_end_to_end,
    estimate_fidelity,
    estimate_fusion,
    grid_estimates,
)
from uasim.formulas import success_prob_single

# The (nu, N) grid of the variant-discrimination campaign.
GRID_NUS = (0.005, 0.01, 0.02)
GRID_COPIES = (2, 4, 8, 16)


def exact_ps(family, nu, big_n):
    """The exact ensemble P_s of ``family`` from its record's depth and noise kind."""
    record = FAMILIES[family]
    c = {"gaussian": math.exp(-nu / 2), "four-moment": math.cos(math.sqrt(nu))}[record.kind]
    return 1 / big_n + (1 - 1 / big_n) * c ** (2 * record.depth)


def replace_build(monkeypatch, family, wrap):
    """Run ``family``'s builder through ``wrap(builder)`` for one test.  The
    estimators read the builder from the record, so patching the builder's
    module attribute would not reach them."""
    record = FAMILIES[family]
    monkeypatch.setitem(FAMILIES, family, dataclasses.replace(record, build=wrap(record.build)))


# ---------------------------------------------------------------------------
# determinism and accumulation
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_bitwise():
    a = estimate_fidelity(0.01, 4, 50_000, seed=101).success_prob
    b = estimate_fidelity(0.01, 4, 50_000, seed=101).success_prob
    assert (a.mean, a.stderr, a.samples) == (b.mean, b.stderr, b.samples)


def test_different_seeds_differ():
    a = estimate_fidelity(0.01, 4, 50_000, seed=101).success_prob
    b = estimate_fidelity(0.01, 4, 50_000, seed=102).success_prob
    assert a.mean != b.mean


def test_chunk_sums_are_order_invariant():
    """fsum reduction: the estimates do not depend on the chunk arrival order."""
    rng = np.random.default_rng(3)
    rows = []
    for count in (5, 7, 3, 11):
        p = rng.uniform(0.5, 1.0, count)
        a = np.sqrt(p) * np.exp(1j * rng.normal(scale=0.1, size=count))
        rows.append(_moments(a, p))
    # rows that cancel exactly; a plain running sum would depend on the order
    noise_rows = [[1e16] * 11, [1e-8] * 11, [-1e16] * 11, [3.5] * 11, [-1e-8] * 11, [-3.5] * 11]
    mixed = [*rows[:2], *noise_rows, *rows[2:]]
    results = [
        _finalize(perm, 26) for perm in (mixed, mixed[::-1], [*mixed[::2], *mixed[1::2]])
    ]
    assert results == [_finalize(rows, 26)] * 3


def test_chunk_size_changes_stream_but_not_statistics():
    # chunk-keyed seeding: a different chunk size draws different numbers,
    # but the two estimates must agree statistically
    a = estimate_fidelity(0.01, 4, 60_000, seed=5, chunk_size=65536).success_prob
    b = estimate_fidelity(0.01, 4, 60_000, seed=5, chunk_size=7000).success_prob
    assert a.mean != b.mean
    assert abs(a.mean - b.mean) < 5 * math.hypot(a.stderr, b.stderr)


def test_iter_chunks_layout():
    assert list(_iter_chunks(10, 4)) == [(0, 4), (1, 4), (2, 2)]
    assert list(_iter_chunks(8, 4)) == [(0, 4), (1, 4)]
    with pytest.raises(ValueError):
        list(_iter_chunks(1, 4))
    with pytest.raises(ValueError):
        list(_iter_chunks(10, 0))


def test_argument_validation():
    with pytest.raises(ValueError):
        estimate_fidelity(0.01, 0, 100, seed=1)
    with pytest.raises(ValueError):
        estimate_fidelity(0.01, 2, 100, seed=1, input_state=(0.0, 0.0))
    with pytest.raises(ValueError):
        estimate_end_to_end(0.01, 3, 100, seed=1)
    # a layout is a four-rail family
    for layout in ("type3", "single-qubit"):
        with pytest.raises(ValueError, match="unknown layout"):
            estimate_fusion(0.01, 2, 100, seed=1, layout=layout)
    for pair in ((0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="mode index out of range"):
            estimate_fusion(0.01, 2, 100, seed=1, photon_pair=pair)
    # a pair is exactly two integer modes, so a third entry is not ignored
    for pair in ((0, 2, 3), (0,), (0.0, 2), (0, True), 2, None):
        with pytest.raises(ValueError, match="two integer mode indices"):
            estimate_fusion(0.01, 2, 100, seed=1, photon_pair=pair)
    # an infinite variance would give a per-photon P_s of 1.0 with stderr 0.0
    with pytest.raises(ValueError, match="finite"):
        estimate_fusion(math.inf, 2, 100, seed=1)
    with pytest.raises(ValueError, match="finite"):
        estimate_fidelity(math.nan, 2, 100, seed=1)


# ---------------------------------------------------------------------------
# zero noise
# ---------------------------------------------------------------------------


def test_zero_noise_is_deterministic_success():
    est = estimate_fidelity(0.0, 4, 1_000, seed=3).success_prob
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0

    run = estimate_fidelity(0.0, 4, 1_000, seed=3)
    assert run.fidelity.ratio_of_means.mean == pytest.approx(1.0, abs=1e-12)
    assert run.fidelity.mean_of_ratios.mean == pytest.approx(1.0, abs=1e-12)
    assert run.success_prob.stderr == 0.0


def test_single_copy_has_unit_success():
    # one unitary copy: nothing to herald, the "average" is the gate itself
    est = estimate_fidelity(0.01, 1, 1_000, seed=3).success_prob
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    fus = estimate_fusion(0.01, 1, 1_000, seed=3)
    assert fus.per_photon.success_prob.mean == pytest.approx(1.0, abs=1e-12)
    assert fus.two_photon.success_prob.mean == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# agreement with the exact ensemble averages (frozen seeds, 5 sigma)
# ---------------------------------------------------------------------------


def test_single_qubit_success_matches_exact_average():
    est = estimate_fidelity(0.01, 4, 200_000, seed=11).success_prob
    assert abs(est.mean - exact_ps("single-qubit", 0.01, 4)) < 5 * est.stderr


def test_success_is_gate_and_input_independent():
    """The ensemble success probability does not depend on gate or input."""
    est = estimate_fidelity(
        0.01, 4, 200_000, seed=12, gate=named_gate("H"), input_state=(0.6, 0.8)
    ).success_prob
    assert abs(est.mean - exact_ps("single-qubit", 0.01, 4)) < 5 * est.stderr


def test_uniform_noise_obeys_the_same_first_order_law():
    nu, big_n = 0.01, 4
    est = estimate_fidelity(nu, big_n, 200_000, seed=13, kind="uniform").success_prob
    first_order = 1 - 3 * nu + 3 * nu / big_n
    assert abs(est.mean - first_order) < 10 * nu**2 + 5 * est.stderr


def test_fusion_success_matches_exact_average():
    run = estimate_fusion(0.01, 2, 100_000, seed=14)
    p1 = run.per_photon.success_prob
    assert abs(p1.mean - exact_ps("type2", 0.01, 2)) < 5 * p1.stderr
    # two independent photons: the pair success is the square per realization,
    # so the means agree up to the per-sample covariance
    p2 = run.two_photon.success_prob
    assert p2.mean == pytest.approx(p1.mean**2, abs=5 * (p2.stderr + 2 * p1.stderr))


def test_four_mode_fusion_matches_exact_average():
    run = estimate_fusion(0.005, 2, 100_000, seed=15, layout="four-mode")
    p1 = run.per_photon.success_prob
    assert abs(p1.mean - exact_ps("four-mode", 0.005, 2)) < 5 * p1.stderr


@pytest.mark.parametrize(
    "family, runner, seed",
    [
        ("single-qubit", lambda nu, s: estimate_fidelity(nu, 2, 200_000, seed=s).success_prob, 16),
        ("type2", lambda nu, s: estimate_fusion(nu, 2, 60_000, seed=s).per_photon.success_prob, 17),
        (
            "four-mode",
            lambda nu, s: estimate_fusion(nu, 2, 60_000, seed=s, layout="four-mode").per_photon.success_prob,
            18,
        ),
    ],
    ids=["single-qubit", "type2", "four-mode"],
)
def test_first_order_deficit_counts_path_parameters(family, runner, seed):
    """1 - P ~ depth * nu * (1 - 1/N): the slope is the record's per-path parameter count."""
    nu = 1e-4
    est = runner(nu, seed)
    deficit = (1 - est.mean) / (nu * 0.5)
    assert deficit == pytest.approx(FAMILIES[family].depth, abs=0.05)


def quadrature_ps_moments(nu):
    """E[P^k], k = 0..4, for the I gate on |0> at N = 2 with gaussian offsets.

    A 6-node Gauss-Hermite rule over each copy's five offsets gives the
    expectations.  With x the real and imaginary parts of one copy's unit
    output, P = (1 + g) / 2 with g = x_1 . x_2, and E[g^k] is the squared
    norm of the tensor E[x^(x)k], since the two copies are independent.
    """
    nodes, w = np.polynomial.hermite_e.hermegauss(6)
    w = w / w.sum()
    grid = np.stack(np.meshgrid(*[nodes] * 5, indexing="ij"), -1).reshape(-1, 5)
    weights = np.prod(np.meshgrid(*[w] * 5, indexing="ij"), axis=0).reshape(-1)
    out = single_qubit_matrix(named_gate("I"), math.sqrt(nu) * grid)[..., 0]
    x = np.concatenate([out.real, out.imag], axis=-1)
    eg, power = [1.0], np.ones((len(x), 1))
    for _ in range(4):
        power = (power[:, :, None] * x[:, None, :]).reshape(len(x), -1)
        tensor = weights @ power
        eg.append(float(tensor @ tensor))
    return [sum(math.comb(k, j) * eg[j] for j in range(k + 1)) / 2**k for k in range(5)]


@pytest.mark.parametrize(
    "nu, seed",
    [(nu, 71 + 3 * i + j) for i, nu in enumerate((0.005, 0.02, 0.05)) for j in range(3)],
)
def test_success_stderr_matches_its_exact_value(nu, seed):
    """stderr * sqrt(n) is the sample standard deviation s of P; it sits
    within 5 of its own standard deviations of the exact sigma_P, with the
    spread of s from the fourth central moment of P."""
    n = 200_000
    ep = quadrature_ps_moments(nu)
    assert ep[1] == pytest.approx(exact_ps("single-qubit", nu, 2), abs=1e-12)
    mu = ep[1]
    var = ep[2] - mu**2
    m4 = ep[4] - 4 * mu * ep[3] + 6 * mu**2 * ep[2] - 3 * mu**4
    # Var(s^2) of n draws, and s = sqrt(s^2) to first order
    sd_s = math.sqrt(m4 / n - var**2 * (n - 3) / (n * (n - 1))) / (2 * math.sqrt(var))
    est = estimate_fidelity(nu, 2, n, seed=seed).success_prob
    assert abs(est.stderr * math.sqrt(n) - math.sqrt(var)) < 5 * sd_s


def test_fidelity_estimators_are_distinct():
    """Mean-of-ratios sits well above ratio-of-means at finite N."""
    run = estimate_fidelity(0.01, 4, 100_000, seed=19)
    rom = run.fidelity.ratio_of_means
    mor = run.fidelity.mean_of_ratios
    assert mor.mean > rom.mean + 20 * (rom.stderr + mor.stderr)
    # and the ensemble-level one tracks the fourth-order closed form
    from uasim.formulas import fidelity_single

    assert abs(rom.mean - fidelity_single(0.01, 4, "fourth-order")) < 5 * rom.stderr + 1e-5


def test_tree_simulation_agrees_with_direct_averaging():
    """The explicit interferometer reproduces the operator-average statistics."""
    tree = estimate_end_to_end(0.01, 2, 20_000, seed=21)
    direct = estimate_fidelity(0.01, 2, 20_000, seed=22)
    for pick in (
        lambda r: r.success_prob,
        lambda r: r.fidelity.ratio_of_means,
    ):
        a, b = pick(tree), pick(direct)
        assert abs(a.mean - b.mean) < 5 * math.hypot(a.stderr, b.stderr)


def test_tree_simulation_with_jittering_splitters_stays_close():
    # encoder offsets act at second order, so a 1e-6 variance moves nothing
    quiet = estimate_end_to_end(0.01, 2, 4_000, seed=23)
    noisy = estimate_end_to_end(0.01, 2, 4_000, seed=23, encoder_noise=EncoderNoise(1e-6))
    assert abs(noisy.success_prob.mean - quiet.success_prob.mean) < 1e-4


# ---------------------------------------------------------------------------
# reference implementations: whole chunks, no blocks, no threads
# ---------------------------------------------------------------------------


def chunk_rng(seed, stream, idx):
    """Chunk ``idx``'s generator on ``stream``, as the sampling layout defines it."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, idx]))


def one_block_sweep(samples, chunk_size, chunk):
    """Each chunk computed whole by ``chunk(idx, count)``, which returns one
    (amplitude, probability) pair per series, and every series finalized."""
    rows = [
        [_moments(a, p) for a, p in chunk(idx, count)]
        for idx, count in _iter_chunks(samples, chunk_size)
    ]
    return [_finalize(series, samples) for series in zip(*rows)]


def end_to_end_one_tree_at_a_time(nu, num_copies, samples, *, seed, encoder_noise, chunk_size):
    """``estimate_end_to_end`` with one ``build_tree`` call per sample, read
    through its whole matrix."""
    psi = np.array([1.0, 0.0], dtype=complex)
    target = single_qubit_matrix(named_gate("I")) @ psi
    n_deltas = (
        num_splitter_deltas(num_copies, 2, encoder_noise.correlated)
        if encoder_noise is not None and num_copies > 1
        else 0
    )

    def chunk(idx, count):
        rng = chunk_rng(seed, _STREAM_GATES, idx)
        noise = NoiseSpec(nu, "gaussian")
        deltas = sample_deltas(noise, (count, num_copies, 5), rng)
        gates_mat = single_qubit_matrix(named_gate("I"), deltas)
        if n_deltas:
            srng = chunk_rng(seed, _STREAM_SPLITTERS, idx)
            enc = encoder_noise.draw((count, n_deltas), srng)
            dec = encoder_noise.draw((count, n_deltas), srng)
        amps = np.empty(count, dtype=complex)
        probs = np.empty(count)
        for b in range(count):
            circ = build_tree(
                gates_mat[b],
                encoder_deltas=enc[b] if n_deltas else None,
                decoder_deltas=dec[b] if n_deltas else None,
            )
            out = circ.matrix[0:2, 0:2] @ psi
            amps[b] = np.conj(target) @ out
            probs[b] = float(np.real(np.conj(out) @ out))
        return [(amps, probs)]

    return one_block_sweep(samples, chunk_size, chunk)[0]


JITTERS = [None, EncoderNoise(1e-4), EncoderNoise(1e-3, correlated=False)]


@pytest.mark.parametrize("encoder_noise", JITTERS, ids=["none", "correlated", "independent"])
@pytest.mark.parametrize("num_copies", [1, 2, 8])
def test_end_to_end_equals_one_tree_per_sample_bit_for_bit(num_copies, encoder_noise):
    # chunks of 140, 140 and 20 samples: both the last chunk and the last
    # slice of trees in every chunk are partial
    kw = dict(seed=31 + num_copies, encoder_noise=encoder_noise, chunk_size=140)
    assert estimate_end_to_end(0.01, num_copies, 300, **kw) == end_to_end_one_tree_at_a_time(
        0.01, num_copies, 300, **kw
    )


@pytest.mark.parametrize("trees_per_slice", [1, 7])
def test_end_to_end_does_not_depend_on_the_slice_size(monkeypatch, trees_per_slice):
    kw = dict(seed=5, encoder_noise=EncoderNoise(1e-4), chunk_size=100)
    default = [estimate_end_to_end(0.01, n, 250, **kw) for n in (2, 4)]
    monkeypatch.setattr(montecarlo, "_TREES_PER_SLICE", trees_per_slice)
    assert [estimate_end_to_end(0.01, n, 250, **kw) for n in (2, 4)] == default


@pytest.mark.parametrize("block", [1, 7, 64])
def test_end_to_end_draws_each_block_at_its_position(monkeypatch, block):
    # The estimator runs one block per chunk; smaller blocks must find their
    # encoder and decoder offsets on the splitter stream by position alone.
    kw = dict(seed=5, chunk_size=100)
    jitters = (EncoderNoise(1e-4), EncoderNoise(1e-3, correlated=False))
    default = [estimate_end_to_end(0.01, 4, 250, encoder_noise=j, **kw) for j in jitters]
    sweep = montecarlo._sweep
    monkeypatch.setattr(
        montecarlo, "_sweep", lambda s, c, b, *a, **k: sweep(s, c, block, *a, **k)
    )
    assert [estimate_end_to_end(0.01, 4, 250, encoder_noise=j, **kw) for j in jitters] == default


# ---------------------------------------------------------------------------
# blocked chunks: the bits of one whole-chunk block, on any schedule
# ---------------------------------------------------------------------------


def two_term_outputs(base, deltas, psi):
    """The single-qubit kernel's outputs by the two-term expression, a term
    for each input amplitude whether it is 0 or not."""
    th = base.theta + deltas[..., 0]
    s, c = np.sin(th), np.cos(th)
    u = _expi(base.phi1 + deltas[..., 1]) * psi[0]
    v = _expi(base.phi2 + deltas[..., 2]) * psi[1]
    out0 = _expi(base.chi1 + deltas[..., 3]) * (s * u + c * v)
    out1 = _expi(base.chi2 + deltas[..., 4]) * (c * u - s * v)
    return out0, out1


def fidelity_one_block(
    nu, num_copies, samples, *, seed, gate=None, input_state=(1.0, 0.0),
    kind="gaussian", chunk_size=DEFAULT_CHUNK,
):
    """``estimate_fidelity`` with each chunk drawn and computed as one block
    by ``two_term_outputs``."""
    base = gate if gate is not None else named_gate("I")
    noise = NoiseSpec(nu, kind)
    psi = montecarlo._unit_vector(input_state, 2)
    target = single_qubit_matrix(base) @ psi

    def chunk(idx, count):
        rng = chunk_rng(seed, _STREAM_GATES, idx)
        deltas = sample_deltas(noise, (count, num_copies, 5), rng)
        out0, out1 = two_term_outputs(base, deltas, psi)
        m0 = out0.mean(axis=1)
        m1 = out1.mean(axis=1)
        a = np.conj(target[0]) * m0 + np.conj(target[1]) * m1
        return [(a, np.abs(m0) ** 2 + np.abs(m1) ** 2)]

    return one_block_sweep(samples, chunk_size, chunk)[0]


def fusion_one_block(
    nu, num_copies, samples, *, seed, layout="type2", photon_pair=(0, 2),
    chunk_size=16384,
):
    """``estimate_fusion`` with each chunk drawn and computed as one block."""
    family = FAMILIES[layout]
    noise = NoiseSpec(nu, family.kind)
    ideal = fusion_type2_matrix()
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    target1 = ideal @ psi
    s_in = pair_state(photon_pair[0], photon_pair[1], 4)
    s_target = evolve_pair(ideal, s_in)

    def chunk(idx, count):
        rng = chunk_rng(seed, _STREAM_GATES, idx)
        deltas = sample_deltas(noise, (count, num_copies, *family.offsets), rng)
        avg = family.build(deltas=deltas).mean(axis=1)
        out1 = avg @ psi
        s_out = evolve_pair(avg, s_in)
        return [
            (out1 @ np.conj(target1), np.sum(np.abs(out1) ** 2, axis=1)),
            (
                2.0 * np.sum(np.conj(s_target) * s_out, axis=(1, 2)),
                2.0 * np.sum(np.abs(s_out) ** 2, axis=(1, 2)),
            ),
        ]

    return FusionRunResult(*one_block_sweep(samples, chunk_size, chunk))


# The nu = 0 ids also cover the kernel's signed zeros: a left-out term of a
# zero amplitude can flip the sign of a zero output component, which the
# estimates must not see.
@pytest.mark.parametrize(
    "kind, nu",
    [(kind, nu) for nu in (0.01, 0.0) for kind in ("gaussian", "uniform", "four-moment")],
    ids=["gaussian", "uniform", "four-moment",
         "gaussian-nu0", "uniform-nu0", "four-moment-nu0"],
)
@pytest.mark.parametrize("num_copies", [1, 3, 16])
def test_fidelity_equals_one_block_bit_for_bit(kind, nu, num_copies):
    # chunks of 4097 and a last one of 3613: every chunk ends in a partial
    # block, and so does the run
    kw = dict(seed=41 + num_copies, kind=kind, chunk_size=4097)
    assert estimate_fidelity(nu, num_copies, 20_001, **kw) == fidelity_one_block(
        nu, num_copies, 20_001, **kw
    )


KERNEL_GATES = {
    "I": named_gate("I"), "X": named_gate("X"), "Y": named_gate("Y"),
    "H": named_gate("H"), "Z0.3": named_gate("Z", 0.3), "Zpi": named_gate("Z", math.pi),
}
KERNEL_INPUTS = [(1.0, 0.0), (0.0, 1.0), (0.0, 1j), (-1.0, 0.0), (0.6, 0.8j)]


@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("kind", ["gaussian", "uniform", "four-moment"])
@pytest.mark.parametrize("num_copies", [1, 3, 16])
def test_single_qubit_kernel_matches_the_two_term_oracle(num_copies, kind, nu):
    # The kernel adds no term for a zero second amplitude.  With nonzero
    # offsets its outputs keep the two-term expression's bytes; at nu = 0 the
    # sign of a zero component may differ, so there the values are compared.
    # The draws are a block of at least a full block's samples whose complex
    # temporaries reach the 256 KiB from which numpy reuses them, and an odd
    # part.
    reused = -(-(256 * 1024 // 16) // num_copies)
    counts = (max(montecarlo._SAMPLES_PER_BLOCK, reused), 37)
    rng = np.random.default_rng(61 + num_copies)
    for (name, gate), state in itertools.product(KERNEL_GATES.items(), KERNEL_INPUTS):
        psi = montecarlo._unit_vector(state, 2)
        for count in counts:
            deltas = sample_deltas(NoiseSpec(nu, kind), (count, num_copies, 5), rng)
            got = montecarlo._batched_single_qubit_out(gate, deltas, psi)
            want = two_term_outputs(gate, deltas, psi)
            case = f"{name} on {state}, {count} samples"
            if nu > 0:
                assert [o.tobytes() for o in got] == [o.tobytes() for o in want], case
            else:
                assert all(map(np.array_equal, got, want)), case


@pytest.mark.parametrize("chunk_size", [4096, 10_000, 65_536])
@pytest.mark.parametrize(
    "gate, input_state, nu",
    [
        (named_gate("H"), (0.6, 0.8j), 0.02),
        (named_gate("Z", 0.3), (1.0, 1.0), 0.02),
        # X and Y on -|0>: at nu = 0 the kernel's outputs differ from the
        # two-term expression's in the sign of zero components
        (named_gate("X"), (-1.0, 0.0), 0.0),
        (named_gate("X"), (-1.0, 0.0), 0.02),
        (named_gate("Y"), (-1.0, 0.0), 0.0),
        (named_gate("Y"), (-1.0, 0.0), 0.02),
        (named_gate("Z", math.pi), (0.0, 1j), 0.0),
        (named_gate("H"), (0.0, 1.0), 0.02),
    ],
    ids=["H", "Z", "X-minus0-nu0", "X-minus0", "Y-minus0-nu0", "Y-minus0",
         "Zpi-i1-nu0", "H-1-nu0.02"],
)
def test_fidelity_gate_and_input_equal_one_block_bit_for_bit(
    gate, input_state, nu, chunk_size
):
    kw = dict(seed=47, gate=gate, input_state=input_state, chunk_size=chunk_size)
    assert estimate_fidelity(nu, 4, 20_001, **kw) == fidelity_one_block(
        nu, 4, 20_001, **kw
    )


@pytest.mark.parametrize("layout", ["type2", "four-mode"])
@pytest.mark.parametrize(
    "num_copies, samples, chunk_size",
    [(1, 9_001, 4097), (3, 9_001, 4097), (2, 9_001, 513), (2, 9_001, 1025),
     (2, 2051, 1025)],
    ids=["1", "3", "2-513", "2-1025", "2-1025-tail1"],
)
# the ids name the pair and the single photon's mode, which is always 0
@pytest.mark.parametrize(
    "pair", [(0, 2), (1, 1), (3, 0), (0, 0)],
    ids=["pair02-mode0", "pair11-mode0", "pair30-mode0", "pair00-mode0"],
)
def test_fusion_equals_one_block_bit_for_bit(layout, num_copies, samples, chunk_size, pair):
    # The overlap is taken in parts of at most 512 rows.  Chunks of 513 and
    # 1025 sit one row past a multiple of 512, where cutting off 512-row
    # parts would leave a one-row tail for BLAS dot.  2051 samples at 1025
    # end in a one-sample chunk, which goes to dot in the reference too.
    # The estimator builds only the columns the photons enter and forms the
    # pair's first product by hand; the reference builds every column and
    # takes both products with BLAS.  (3, 0) reaches column 3 with its modes
    # out of order, and (0, 0) shares the single photon's column.
    kw = dict(
        seed=53 + num_copies, layout=layout, photon_pair=pair, chunk_size=chunk_size
    )
    assert estimate_fusion(0.01, num_copies, samples, **kw) == fusion_one_block(
        0.01, num_copies, samples, **kw
    )


# Helpers of the spin children.  A child that sees a spin exits with its
# case, the settle rounds it ran and each thread's CPU time, so a failure
# shows whether an OpenBLAS helper or the main thread spent the CPU.
SPIN_HELPERS = """
import os
import sys
import threading
import time


def cpu_during_sleep():
    cpu = time.process_time()
    time.sleep(0.05)
    return time.process_time() - cpu


def thread_cpu():
    \"\"\"CPU seconds (user + system) of each thread of this process by thread
    id, from /proc/self/task/*/stat; empty where that path is absent.\"\"\"
    tasks = "/proc/self/task"
    if not os.path.isdir(tasks):
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    times = {}
    for tid in sorted(os.listdir(tasks), key=int):
        try:
            with open(f"{tasks}/{tid}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:  # the thread ended
            continue
        times[int(tid)] = (int(fields[11]) + int(fields[12])) / tick
    return times


def spin_report(case, spent, rounds, before):
    \"\"\"The failure message: ``before`` is ``thread_cpu()`` from before the sleep.\"\"\"
    lines = [f"{case}: {spent * 1e3:.1f} ms of CPU during a 50 ms sleep, "
             f"after {rounds} settle rounds"]
    main = threading.get_native_id()
    for tid, total in thread_cpu().items():
        during = (total - before.get(tid, 0.0)) * 1e3
        lines.append(f"  thread {tid}{' (main)' if tid == main else ''}: "
                     f"{total:.2f} s of CPU, {during:.0f} ms of it in the sleep")
    return "\\n".join(lines)


def check_no_spin(case, rounds):
    before = thread_cpu()
    spent = cpu_during_sleep()
    if spent >= 0.01:
        sys.exit(spin_report(case, spent, rounds, before))
"""

SPIN_SETTLE = SPIN_HELPERS + """

# OpenBLAS's helper threads spin for up to about 0.1 s after numpy is
# imported; wait for them, so that only the estimator's spin is measured.
for settle_rounds in range(1, 41):
    if cpu_during_sleep() < 0.001:
        break
else:
    before = thread_cpu()
    sys.exit(spin_report("the host never settled", cpu_during_sleep(), settle_rounds, before))
"""

SPIN_CHILD = """
from uasim.montecarlo import estimate_fusion
""" + SPIN_SETTLE + """
for layout in ("type2", "four-mode"):
    estimate_fusion(0.01, 2, 16384, seed=1, layout=layout)
    check_no_spin(layout, settle_rounds)
"""


def test_fusion_leaves_no_blas_thread_spinning():
    # A complex gemv of 1024 x 4 or more runs on two OpenBLAS threads, and
    # the helper thread then busy-waits for about 0.135 s after the call.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SPIN_CHILD], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


TREE_SPIN_CHILD = """
from uasim.montecarlo import estimate_end_to_end
""" + SPIN_SETTLE + """
num_copies = int(sys.argv[1])
estimate_end_to_end(0.01, num_copies, 2048, seed=1)
check_no_spin(f"N = {num_copies}", settle_rounds)
"""


def test_a_spin_report_names_its_case_rounds_and_threads():
    helpers = {}
    exec(SPIN_HELPERS, helpers)
    before = helpers["thread_cpu"]()
    report = helpers["spin_report"]("four-mode", 0.0123, 3, before).splitlines()
    assert report[0] == "four-mode: 12.3 ms of CPU during a 50 ms sleep, after 3 settle rounds"
    # one line per thread where /proc/self/task exists, the main one marked
    threads = [line for line in report[1:] if line.startswith("  thread ")]
    assert len(threads) == len(report) - 1
    if os.path.isdir("/proc/self/task"):
        assert [line for line in threads if f" {threading.get_native_id()} (main): " in line]
    else:
        assert threads == []


@pytest.mark.parametrize("num_copies", [8, 16])
def test_tree_leaves_no_blas_thread_spinning(num_copies):
    # 128 trees' decoder rows times their gates, in one product, are
    # 2 x 16 @ 16 x 2048 at N = 8: big enough for two OpenBLAS threads.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TREE_SPIN_CHILD, str(num_copies)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workers, block", [(1, 1), (1, 7), (3, 1), (3, 7)])
def test_blocked_estimates_do_not_depend_on_the_schedule(monkeypatch, workers, block):
    # at the default block sizes each 4500-sample chunk ends in a partial
    # block: 4096 + 404 for fidelity, 4 x 1024 + 404 for fusion
    def runs():
        kw = dict(seed=5, chunk_size=4500)
        return [
            estimate_fidelity(0.01, 3, 5000, **kw),
            estimate_fidelity(0.01, 16, 5000, kind="uniform", **kw),
            estimate_fusion(0.01, 2, 5000, **kw),
            estimate_fusion(0.01, 2, 5000, layout="four-mode", photon_pair=(1, 1), **kw),
        ]

    default = runs()
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: workers)
    monkeypatch.setattr(montecarlo, "_SAMPLES_PER_BLOCK", block)
    monkeypatch.setattr(montecarlo, "_FUSION_SAMPLES_PER_BLOCK", block)
    assert runs() == default


@pytest.mark.parametrize(
    "nu, kind",
    [(0.01, "gaussian"), (0.01, "uniform"), (0.01, "four-moment"),
     (0.0, "gaussian"), (0.0, "uniform"), (0.0, "four-moment")],
)
def test_consecutive_draws_continue_one_stream(nu, kind):
    """Blocks drawn one after another from one generator are the whole draw."""
    noise = NoiseSpec(nu, kind)
    one = np.random.default_rng(8)
    whole = sample_deltas(noise, (4103, 3, 5), one)
    for split in ((1, 4102), (4096, 7), (2000, 2103)):
        rng = np.random.default_rng(8)
        parts = [sample_deltas(noise, (n, 3, 5), rng) for n in split]
        assert np.array_equal(np.concatenate(parts), whole)
        # the generator is left where the whole draw leaves it
        assert rng.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("shape", [(3, 5), (3, 4), (3, 4, 5)], ids=["N5", "N4", "N4x5"])
@pytest.mark.parametrize(
    "nu, kind",
    [(0.01, "gaussian"), (0.01, "uniform"), (0.01, "four-moment"),
     (0.0, "gaussian"), (0.0, "uniform"), (0.0, "four-moment")],
)
def test_a_block_draw_depends_only_on_its_position(nu, kind, shape):
    """Advancing the chunk's generator by lo * k gives rows lo:lo+n of the
    whole-chunk draw, k being the offsets per sample."""
    noise = NoiseSpec(nu, kind)
    count, k = 1000, math.prod(shape)
    whole = sample_deltas(noise, (count, *shape), chunk_rng(8, _STREAM_GATES, 2))
    for lo, n in ((0, 1000), (0, 7), (7, 128), (135, 256), (993, 7), (999, 1)):
        rng = _block_rng(8, _STREAM_GATES, 2, lo * k)
        block = sample_deltas(noise, (n, *shape), rng)
        assert block.shape == (n, *shape)
        assert block.tobytes() == whole[lo : lo + n].tobytes()
        # the generator is left where a whole draw of lo + n samples leaves it
        ref = chunk_rng(8, _STREAM_GATES, 2)
        sample_deltas(noise, (lo + n, *shape), ref)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "name, run, total",
    [
        ("sample_deltas", lambda: estimate_fidelity(0.01, 2, 20_000, seed=1), None),
        ("_batched_single_qubit_out", lambda: estimate_fidelity(0.01, 2, 20_000, seed=1), None),
        # a family's name stands for the builder its record holds
        ("four-mode", lambda: estimate_fusion(0.01, 2, 5000, seed=1, layout="four-mode"), None),
        # slices of 128 and 12 trees in the first of three 140-sample chunks
        ("build_tree", lambda: estimate_end_to_end(0.01, 4, 300, seed=1, chunk_size=140), 2),
    ],
    ids=["draw", "kernel", "fusion", "end-to-end"],
)
def test_kernel_error_reaches_the_caller_and_no_thread_outlives_the_call(
    monkeypatch, name, run, total
):
    """A draw fails on a worker as a kernel does.  On the calling thread,
    where ``total`` is given, nothing is called after the failing call."""
    calls = itertools.count()

    def fails_on_the_second_call(fn):
        def wrapped(*args, **kwargs):
            if next(calls) == 1:
                raise MemoryError("second call")
            return fn(*args, **kwargs)

        return wrapped

    if name in FAMILIES:
        replace_build(monkeypatch, name, fails_on_the_second_call)
    else:
        monkeypatch.setattr(montecarlo, name, fails_on_the_second_call(getattr(montecarlo, name)))
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="second call"):
        run()
    assert threading.active_count() == before
    if total is not None:
        assert next(calls) == total


def test_a_failing_block_cancels_the_blocks_queued_behind_it(monkeypatch):
    """With 2 workers, ``Executor.map`` has queued all 20 blocks when block
    0's error reaches the caller.  Every other draw waits until a queued
    block has been cancelled, so each worker holds at most one block while
    the caller cancels: the other worker's, and the one the failed worker
    may take before the cancel.  No fourth block is drawn."""
    drawn, cancelled = [], threading.Event()
    make_draw = montecarlo._block_draw

    def gated_draw(*spec):
        draw = make_draw(*spec)

        def gated(idx, lo, n):
            drawn.append(lo)
            if lo == 0:
                raise MemoryError("first block")
            cancelled.wait(timeout=5.0)
            return draw(idx, lo, n)

        return gated

    class Pool(ThreadPoolExecutor):
        def submit(self, *args):
            future = super().submit(*args)
            future.add_done_callback(lambda f: f.cancelled() and cancelled.set())
            return future

    monkeypatch.setattr(montecarlo, "_block_draw", gated_draw)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 2)
    samples = 20 * montecarlo._SAMPLES_PER_BLOCK  # one chunk of 20 blocks
    with pytest.raises(MemoryError, match="first block"):
        estimate_fidelity(0.01, 2, samples, seed=1, chunk_size=samples)
    assert cancelled.is_set()
    assert len(drawn) <= 3, drawn


def test_blocks_draw_on_workers_and_trees_on_the_calling_thread(monkeypatch):
    """Each pooled block draws on the worker that runs its kernel.  A run
    whose chunks hold one block each, as every end-to-end run's do, draws and
    runs its kernels on the calling thread and starts no thread."""
    calls = []

    def recording(label):
        def wrap(fn):
            def recorded(*args, **kwargs):
                calls.append((label, threading.get_ident()))
                return fn(*args, **kwargs)

            return recorded

        return wrap

    for owner, name in [
        (montecarlo, "sample_deltas"),
        (averaging, "sample_deltas"),  # through EncoderNoise.draw
        (montecarlo, "build_tree"),
        (montecarlo, "success_branch"),
        (montecarlo, "_batched_single_qubit_out"),
    ]:
        label = f"{owner.__name__.rpartition('.')[2]}.{name}"
        monkeypatch.setattr(owner, name, recording(label)(getattr(owner, name)))
    replace_build(monkeypatch, "four-mode", recording("four-mode.build"))
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    me = threading.get_ident()

    # 5 blocks each: 4 x 4096 + 3616 samples, and 4 x 1024 + 904
    for run, kernel in [
        (lambda: estimate_fidelity(0.01, 3, 20_000, seed=1), "montecarlo._batched_single_qubit_out"),
        (lambda: estimate_fusion(0.01, 2, 5000, seed=1, layout="four-mode"), "four-mode.build"),
    ]:
        calls.clear()
        run()
        assert len(calls) == 10
        assert all(ident != me for _, ident in calls)
        # a task is not interleaved on its thread, so each thread's calls
        # alternate a block's draw and that block's kernel
        for ident in {ident for _, ident in calls}:
            names = [name for name, i in calls if i == ident]
            assert names == ["montecarlo.sample_deltas", kernel] * (len(names) // 2)

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    # one block each: a whole 4096-sample fidelity block, a whole 1024-sample
    # fusion block, and three 140-sample end-to-end chunks of one block each
    for run, names in [
        (lambda: estimate_fidelity(0.01, 3, 4096, seed=1),
         {"montecarlo.sample_deltas", "montecarlo._batched_single_qubit_out"}),
        (lambda: estimate_fusion(0.01, 2, 1024, seed=1, layout="four-mode"),
         {"montecarlo.sample_deltas", "four-mode.build"}),
        (lambda: estimate_end_to_end(
            0.01, 4, 300, seed=1, encoder_noise=EncoderNoise(1e-4), chunk_size=140),
         {"montecarlo.sample_deltas", "averaging.sample_deltas",
          "montecarlo.build_tree", "montecarlo.success_branch"}),
    ]:
        calls.clear()
        run()
        assert {name for name, _ in calls} == names
        assert all(ident == me for _, ident in calls)
    assert started == []


def test_blocks_that_finish_out_of_order_keep_the_bits(monkeypatch):
    """The first block's draw sleeps, so later blocks finish first."""
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    runs = [
        # 3 chunks, each ending in a partial block: 4096 + 404, twice, then 3000
        lambda: estimate_fidelity(0.01, 3, 12_000, seed=2, chunk_size=4500),
        lambda: estimate_fusion(0.01, 2, 5000, seed=2),
    ]
    undelayed = [run() for run in runs]
    draw = montecarlo.sample_deltas
    for run, want in zip(runs, undelayed):
        calls, returned = itertools.count(), []

        def first_draw_sleeps(*args):
            i = next(calls)
            if i == 0:
                time.sleep(0.05)
            out = draw(*args)
            returned.append(i)
            return out

        monkeypatch.setattr(montecarlo, "sample_deltas", first_draw_sleeps)
        assert run() == want
        assert returned[0] != 0


def test_at_most_one_block_of_offsets_per_worker_is_alive(monkeypatch):
    lock = threading.RLock()
    alive = peak = draws = 0
    draw = montecarlo.sample_deltas
    kernel = montecarlo._batched_single_qubit_out

    def released():
        nonlocal alive
        with lock:
            alive -= 1

    def counted(*args):
        nonlocal alive, peak, draws
        out = draw(*args)
        with lock:
            alive += 1
            draws += 1
            peak = max(peak, alive)
        weakref.finalize(out, released)
        return out

    def slow_kernel(*args):
        # blocks would pile up here if anything drew ahead of the kernels
        time.sleep(0.01)
        return kernel(*args)

    monkeypatch.setattr(montecarlo, "sample_deltas", counted)
    monkeypatch.setattr(montecarlo, "_batched_single_qubit_out", slow_kernel)
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
    estimate_fidelity(0.01, 2, 10 * 4096, seed=1)  # one chunk of 10 blocks
    assert draws == 10
    assert 1 <= peak <= 3
    assert alive == 0


# estimate_end_to_end(0.01, 4, 4096, seed=7) as printed by the per-sample
# implementation: (P_s, stderr), ratio of means, mean of ratios
END_TO_END_GOLDEN = {
    "none": (
        (0.9778198131605711, 0.00021027847778285814),
        (0.9925662247115108, 0.00011998947846211303),
        (0.9975272101718601, 5.3346668076984596e-05),
    ),
    "jitter": (
        (0.9774399988412477, 0.0002101684639080712),
        (0.9925593188420058, 0.00012013212436111805),
        (0.997525436100827, 5.340896469314047e-05),
    ),
}


@pytest.mark.parametrize("case", sorted(END_TO_END_GOLDEN))
def test_end_to_end_golden_row(case):
    noise = EncoderNoise(1e-4) if case == "jitter" else None
    run = estimate_end_to_end(0.01, 4, 4096, seed=7, encoder_noise=noise)
    got = [run.success_prob, run.fidelity.ratio_of_means, run.fidelity.mean_of_ratios]
    for est, (mean, stderr) in zip(got, END_TO_END_GOLDEN[case]):
        assert est.samples == 4096
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)


# estimate_fidelity(0.01, 4, 4096, seed=7, kind=kind) as printed before the
# estimators shared one chunk driver: (P_s, stderr), ratio of means, mean of
# ratios, bit for bit.  The gaussian kind is pinned through `uasim mc` rows.
FIDELITY_KIND_GOLDEN = {
    "uniform": (
        (0.9777599369068234, 0.00017970889853089923),
        (0.9924744811882437, 0.00011556769531924471),
        (0.997495658893, 5.074934632047692e-05),
    ),
    "four-moment": (
        (0.9778467864319503, 0.00015261953494455447),
        (0.9923467013466009, 0.00011311810367982622),
        (0.9974931132500169, 4.780256174204544e-05),
    ),
}


@pytest.mark.parametrize("kind", sorted(FIDELITY_KIND_GOLDEN))
def test_fidelity_noise_kind_golden_row(kind):
    run = estimate_fidelity(0.01, 4, 4096, seed=7, kind=kind)
    got = [run.success_prob, run.fidelity.ratio_of_means, run.fidelity.mean_of_ratios]
    assert all(e.samples == 4096 for e in got)
    assert [(e.mean, e.stderr) for e in got] == list(FIDELITY_KIND_GOLDEN[kind])


# estimate_fusion(0.01, 2, 2000, seed=9, layout=layout, photon_pair=pair) as
# printed when the pair state came from the sparse Fock representation; the
# two-photon (P_s, stderr), ratio of means and mean of ratios, bit for bit.
# (1, 1) puts 1/sqrt(2) on the diagonal of S, (3, 0) fills the far corner.
FUSION_PAIR_GOLDEN = {
    ("type2", (1, 1)): (
        (0.9805114885636668, 0.0002732675456394378),
        (0.9798204595742698, 0.0002730749565692448),
        (0.9799726387010427, 0.00027317408753484927),
    ),
    ("type2", (3, 0)): (
        (0.9804499978982022, 0.00021990507302034514),
        (0.9752493001990696, 0.00029716425721436156),
        (0.9753798509455488, 0.0002964471576887613),
    ),
    ("four-mode", (1, 1)): (
        (0.9430875989563695, 0.0008327564450067544),
        (0.9208257989506916, 0.0013889681229257037),
        (0.962837637481737, 0.0005532823773967154),
    ),
    ("four-mode", (3, 0)): (
        (0.943287169381205, 0.0006172372024007809),
        (0.9316342473096967, 0.0009140885847295705),
        (0.9557371967826535, 0.0005070700113453878),
    ),
}


@pytest.mark.parametrize("layout, pair", sorted(FUSION_PAIR_GOLDEN))
def test_fusion_pair_state_golden_row(layout, pair):
    run = estimate_fusion(0.01, 2, 2000, seed=9, layout=layout, photon_pair=pair)
    two = run.two_photon
    got = [two.success_prob, two.fidelity.ratio_of_means, two.fidelity.mean_of_ratios]
    assert [(e.mean, e.stderr) for e in got] == list(FUSION_PAIR_GOLDEN[layout, pair])


# ---------------------------------------------------------------------------
# variant discrimination
# ---------------------------------------------------------------------------


def synthetic_grid(variant, stderr=1e-7):
    pts = []
    for nu in GRID_NUS:
        for big_n in GRID_COPIES:
            pts.append(
                {
                    "nu": nu,
                    "num_copies": big_n,
                    "mean": success_prob_single(nu, big_n, variant),
                    "stderr": stderr,
                }
            )
    return pts


@pytest.mark.parametrize("variant", ["main", "second-order", "fourth-order"])
def test_discriminate_recovers_the_planted_variant(variant):
    report = discriminate(synthetic_grid(variant))
    assert report["selected"] == variant
    assert report["chi_square"][variant] < min(
        v for k, v in report["chi_square"].items() if k != variant
    )


def test_discriminate_fit_recovers_planted_coefficients():
    # "main" has second order 4.5 (1 - 1/N): const 4.5, inv_n -4.5, inv_n_sq 0
    report = discriminate(synthetic_grid("main"))
    coef = report["fitted_coefficients"]
    assert coef["const"] == pytest.approx(4.5, abs=1e-3)
    assert coef["inv_n"] == pytest.approx(-4.5, abs=1e-2)
    assert coef["inv_n_sq"] == pytest.approx(0.0, abs=1e-2)


def test_discriminate_input_validation():
    pts = synthetic_grid("main")
    with pytest.raises(ValueError):
        discriminate(pts[:2])
    bad = [dict(p) for p in pts]
    bad[0]["stderr"] = 0.0
    with pytest.raises(ValueError):
        discriminate(bad)
    bad = [dict(p) for p in pts]
    bad[0]["nu"] = 0.0
    with pytest.raises(ValueError):
        discriminate(bad)


def test_derived_seeds_are_frozen_and_distinct():
    assert derive_point_seed(0, 0) == 3619698374
    assert derive_point_seed(42, 3) == 3281052939
    seeds = [derive_point_seed(7, i) for i in range(20)]
    assert len(set(seeds)) == 20


def test_grid_estimates_reproducible():
    """The grid replays bit for bit, and an estimator with its own settings
    (here a non-default chunk size) runs as given at every point."""
    estimator = functools.partial(estimate_fidelity, chunk_size=8192)
    a = list(grid_estimates([0.01], [2, 4], 10_000, seed=9, estimator=estimator))
    b = list(grid_estimates([0.01], [2, 4], 10_000, seed=9, estimator=estimator))
    assert a == b
    assert [(nu, big_n) for nu, big_n, _ in a] == [(0.01, 2), (0.01, 4)]
    for _, _, run in a:
        assert isinstance(run, GateRunResult)
        assert run.success_prob.samples == 10_000


def test_grid_with_fidelity_leaves_success_prob_bits_alone():
    """Each grid point is one estimate_fidelity run on its derived seed, so
    carrying the fidelity must not move the success-probability numbers by
    even an ulp."""
    [(nu, big_n, rich)] = grid_estimates([0.02], [2], 4_000, seed=9)
    direct = estimate_fidelity(0.02, 2, 4_000, seed=derive_point_seed(9, 0))
    assert (nu, big_n) == (0.02, 2)
    assert rich.success_prob == direct.success_prob
    assert rich.fidelity.ratio_of_means == direct.fidelity.ratio_of_means


def test_grid_runs_nu_major_on_derived_seeds(monkeypatch):
    """Point i is (nu, N) in nu-major order on ``derive_point_seed(seed, i)``;
    without an estimator the grid looks up ``estimate_fidelity`` as it runs,
    which is where the benchmark's tracer replaces it."""
    calls = []

    def recording(nu, big_n, samples, *, seed):
        calls.append((nu, big_n, samples, seed))
        return len(calls)

    monkeypatch.setattr(montecarlo, "estimate_fidelity", recording)
    got = list(grid_estimates([0.02, 0.01], [4, 1, 2], 100, seed=5))
    order = [(0.02, 4), (0.02, 1), (0.02, 2), (0.01, 4), (0.01, 1), (0.01, 2)]
    assert got == [(nu, big_n, i + 1) for i, (nu, big_n) in enumerate(order)]
    assert calls == [
        (nu, big_n, 100, derive_point_seed(5, i)) for i, (nu, big_n) in enumerate(order)
    ]


@pytest.mark.parametrize(
    "estimator",
    [None, estimate_fidelity, functools.partial(estimate_fusion, layout="type2")],
    ids=["default", "fidelity", "type2-fusion"],
)
def test_grid_point_is_a_direct_call_on_its_derived_seed(estimator):
    direct = estimator or estimate_fidelity
    points = list(grid_estimates([0.01, 0.03], [1, 2], 2_000, seed=11, estimator=estimator))
    assert len(points) == 4
    for i, (nu, big_n, run) in enumerate(points):
        assert run == direct(nu, big_n, 2_000, seed=derive_point_seed(11, i))
