"""Tests for the splitter-tree encoder/decoder around parallel gate copies.

The load-bearing identity: with copies U_1 .. U_N between the trees, the block
of the assembled interferometer that maps the input rails to the rails of copy
k is the signed average (1/N) sum_j (-1)^{popcount(k & j)} U_j.  Everything
else (postselection, herald analysis, noise injection) builds on that.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hadamard

import uasim
from uasim import averaging
from uasim.averaging import (
    EncoderNoise,
    build_tree,
    encoder_error_scaling,
    evolve_pair,
    herald_branch,
    herald_weights,
    heralded_operator,
    num_splitter_deltas,
    pair_state,
    success_branch,
)
from uasim.gates import NoiseSpec, named_gate, sample_deltas, single_qubit_matrix

RNG = np.random.default_rng(77)


def is_unitary(m, tol):
    return bool(np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=tol))


def random_unitary(d, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_stack(shape, rng):
    size = shape + (2, 2)
    q, r = np.linalg.qr(rng.normal(size=size) + 1j * rng.normal(size=size))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def gate(name, alpha=None):
    return single_qubit_matrix(named_gate(name, alpha))


def postselect(circ, psi):
    """Success-branch output of a one-photon rails vector and its probability."""
    out = success_branch(circ) @ psi
    return out, float(np.vdot(out, out).real)


def fidelity(out, ps, target):
    """|<target|out>|^2 of the normalized output, for a unit target."""
    return abs(np.vdot(target, out)) ** 2 / ps


def pair_norm_sq(s):
    return 2.0 * float(np.sum(np.abs(s) ** 2))


def occupation_amplitude(s, k, l):
    """Amplitude of the normalized Fock state |1_k 1_l> (or |2_k>) in S."""
    return math.sqrt(2.0) * s[k, k] if k == l else s[k, l] + s[l, k]


# ---------------------------------------------------------------------------
# herald weights
# ---------------------------------------------------------------------------


def test_herald_weights_success_row_is_flat():
    for n in range(4):
        np.testing.assert_array_equal(herald_weights(n, 0), np.ones(1 << n))


def test_herald_weights_frozen_example():
    np.testing.assert_array_equal(herald_weights(2, 3), [1, -1, -1, 1])
    np.testing.assert_array_equal(herald_weights(2, 1), [1, -1, 1, -1])


def test_herald_weights_without_bitwise_count():
    """The signs need no ``np.bitwise_count`` (numpy >= 2 only): every row is
    the Sylvester Hadamard row on numpy 1.x and 2.x alike."""
    for n in range(5):
        for k in range(1 << n):
            np.testing.assert_array_equal(herald_weights(n, k), hadamard(1 << n)[k])


def test_herald_weight_rows_are_orthogonal():
    n = 3
    rows = np.array([herald_weights(n, k) for k in range(1 << n)])
    np.testing.assert_array_equal(rows @ rows.T, (1 << n) * np.eye(1 << n))


def test_averaged_operator_is_plain_mean():
    mats = [random_unitary(2) for _ in range(4)]
    np.testing.assert_allclose(heralded_operator(mats, 0), sum(mats) / 4)


# ---------------------------------------------------------------------------
# tree assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tree_blocks_are_signed_averages(n):
    N = 1 << n
    mats = [random_unitary(2) for _ in range(N)]
    circ = build_tree(mats)
    assert is_unitary(circ.matrix, tol=1e-12)
    for k in range(N):
        np.testing.assert_allclose(
            herald_branch(circ, k), heralded_operator(mats, k), atol=1e-12
        )


def test_branch_norms_sum_to_one():
    """Parseval: the herald branches split every input's probability."""
    mats = [random_unitary(2) for _ in range(8)]
    circ = build_tree(mats)
    psi = np.array([0.6, 0.8j])
    total = sum(np.linalg.norm(herald_branch(circ, k) @ psi) ** 2 for k in range(8))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_single_copy_tree_is_the_gate_itself():
    u = random_unitary(2)
    circ = build_tree([u])
    np.testing.assert_array_equal(circ.matrix, u)


def test_identical_copies_average_to_the_gate():
    """Zero noise: N identical unitaries give back the gate with certainty."""
    u = gate("H")
    for N in (2, 4, 8):
        circ = build_tree([u] * N)
        np.testing.assert_allclose(success_branch(circ), u, atol=1e-12)
        out, ps = postselect(circ, np.array([1.0, 0.0]))
        assert ps == pytest.approx(1.0, abs=1e-12)
        expected = u[:, 0]
        assert fidelity(out, ps, expected) == pytest.approx(1.0, abs=1e-12)


def test_two_distinct_copies_worked_example():
    """[1, X]: the success branch projects onto the X = +1 sector."""
    circ = build_tree([gate("I"), gate("X")])
    np.testing.assert_allclose(success_branch(circ), 0.5 * np.ones((2, 2)), atol=1e-14)

    out, ps = postselect(circ, np.array([1.0, 0.0]))
    assert ps == pytest.approx(0.5)
    plus = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert fidelity(out, ps, plus) == pytest.approx(1.0)

    # the heralded branch carries the orthogonal conditional state
    np.testing.assert_allclose(
        herald_branch(circ, 1), 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-14
    )


def test_phase_pair_worked_example():
    """[1, Z]: averaging keeps only the |0> rail of a |+> input."""
    circ = build_tree([gate("I"), gate("Z", 0.0)])
    plus = np.array([1 / math.sqrt(2), 1 / math.sqrt(2)])
    out, ps = postselect(circ, plus)
    assert ps == pytest.approx(0.5)
    assert abs(out[0]) / math.sqrt(ps) == pytest.approx(1.0)


def test_near_certain_herald_keeps_only_float_residue():
    """|-> through [1, X] heralds almost surely; the success weight is rounding."""
    circ = build_tree([gate("I"), gate("X")])
    minus = np.array([1 / math.sqrt(2), -1 / math.sqrt(2)])
    _, ps = postselect(circ, minus)
    assert ps < 1e-30


def test_total_herald_returns_no_state():
    # a circuit that routes the input rails straight into the herald modes:
    # copy 1 blocks its half, and a decoder splitter at angle 0 (an exact
    # swap) sends copy 0's half to the copy-1 rails
    circ = build_tree([np.eye(2), np.zeros((2, 2))], decoder_deltas=[-math.pi / 4])
    herald = herald_branch(circ, 1) @ np.array([1.0, 0.0])
    assert float(np.vdot(herald, herald).real) == pytest.approx(0.5)
    out, ps = postselect(circ, np.array([1.0, 0.0]))
    assert not out.any()
    assert ps == 0.0


def test_two_photon_transmission_through_the_tree():
    """A photon pair rides the same averaged operator, entry by entry."""
    u = gate("H")
    circ = build_tree([u] * 4)
    out = evolve_pair(success_branch(circ), pair_state(0, 1, 2))
    ps = pair_norm_sq(out)
    assert ps == pytest.approx(1.0, abs=1e-12)
    # H on a†_0 a†_1 gives (a†_0^2 - a†_1^2)/2
    for k in (0, 1):
        amp = occupation_amplitude(out, k, k) / math.sqrt(ps)
        assert abs(amp) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


# ---------------------------------------------------------------------------
# two-photon rule
# ---------------------------------------------------------------------------


def expand_two_photon_brute_force(m, amps):
    """Independent oracle: expand a†_k a†_l term by term instead of by congruence.

    ``amps`` lists (k, l, amplitude) in the normalized Fock basis; returned are
    the output amplitudes keyed by sorted occupied modes.
    """
    d = m.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for k, l, amp in amps:
        # recover the monomial coefficient of a†_k a†_l from the normalized amplitude
        coeff = amp / np.sqrt(2.0) if k == l else amp
        for i in range(d):
            for j in range(d):
                out[i, j] += coeff * m[i, k] * m[j, l]
    result = {}
    for i in range(d):
        a = np.sqrt(2.0) * out[i, i]
        if a != 0:
            result[(i, i)] = a
        for j in range(i + 1, d):
            a = out[i, j] + out[j, i]
            if a != 0:
                result[(i, j)] = a
    return result


def superposition(d, amps):
    return sum(amp * pair_state(k, l, d) for k, l, amp in amps)


def test_hong_ou_mandel_dip():
    """Two photons on a balanced splitter never exit on different ports."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    out = evolve_pair(h, pair_state(0, 1, 2))
    assert abs(occupation_amplitude(out, 0, 1)) < 1e-15
    assert abs(occupation_amplitude(out, 0, 0)) == pytest.approx(1 / np.sqrt(2.0))
    assert abs(occupation_amplitude(out, 1, 1)) == pytest.approx(1 / np.sqrt(2.0))
    assert pair_norm_sq(out) == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_congruence_matches_brute_force_expansion(d):
    rng = np.random.default_rng(402 + d)
    for _ in range(5):
        m = random_unitary(d, rng)
        amps = [(0, 1, 0.5), (1, 1, 0.5j), (0, 0, 0.5), (d - 1, d - 1, -0.5)]
        fast = evolve_pair(m, superposition(d, amps))
        slow = expand_two_photon_brute_force(m, amps)
        for k in range(d):
            for l in range(k, d):
                assert occupation_amplitude(fast, k, l) == pytest.approx(
                    slow.get((k, l), 0.0), abs=1e-12
                )


def test_two_photon_norm_preserved_under_unitary():
    m = random_unitary(4, np.random.default_rng(402))
    state = superposition(4, [(0, 2, 0.6), (1, 1, 0.8j)])
    out = evolve_pair(m, state)
    assert pair_norm_sq(out) == pytest.approx(pair_norm_sq(state), abs=1e-12)


# ---------------------------------------------------------------------------
# splitter noise injection
# ---------------------------------------------------------------------------


def test_delta_count_bookkeeping():
    assert num_splitter_deltas(8, 2, True) == 12
    assert num_splitter_deltas(8, 2, False) == 24
    assert num_splitter_deltas(2, 2, True) == 1
    assert num_splitter_deltas(1, 2, True) == 0


def test_injected_delta_sizes_are_validated():
    mats = [np.eye(2)] * 4
    with pytest.raises(ValueError, match="deltas per side"):
        build_tree(mats, encoder_deltas=np.zeros(3))
    with pytest.raises(ValueError, match="match in size"):
        build_tree(mats, encoder_deltas=np.zeros(4), decoder_deltas=np.zeros(8))


def test_gate_list_validation():
    with pytest.raises(ValueError, match="power-of-two"):
        build_tree([np.eye(2)] * 3)
    with pytest.raises(ValueError, match="square"):
        build_tree([np.eye(2), np.eye(3)])


def test_delta_lead_shape_must_match_the_gates():
    stack = np.broadcast_to(np.eye(2), (3, 4, 2, 2))
    with pytest.raises(ValueError, match="lead shape"):
        build_tree(stack, encoder_deltas=np.zeros((2, 4)))
    with pytest.raises(ValueError, match="lead shape"):
        build_tree(stack, encoder_deltas=np.zeros((3, 4)), decoder_deltas=np.zeros(4))
    with pytest.raises(ValueError, match="lead shape"):
        build_tree([np.eye(2)] * 4, encoder_deltas=np.zeros((1, 4)))


def test_correlated_deltas_equal_duplicated_independent_ones():
    mats = [random_unitary(2) for _ in range(4)]
    corr = RNG.normal(scale=1e-2, size=num_splitter_deltas(4, 2, True))
    indep = np.repeat(corr, 2)  # same offset on both rails of each pair
    a = build_tree(mats, encoder_deltas=corr, decoder_deltas=corr)
    b = build_tree(mats, encoder_deltas=indep, decoder_deltas=indep)
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-15)


def test_noisy_tree_is_still_unitary():
    mats = [random_unitary(2) for _ in range(8)]
    noise, rng = EncoderNoise(1e-4, correlated=False), np.random.default_rng(9)
    count = num_splitter_deltas(8, 2, noise.correlated)
    enc, dec = noise.draw((count,), rng), noise.draw((count,), rng)
    circ = build_tree(mats, encoder_deltas=enc, decoder_deltas=dec)
    assert is_unitary(circ.matrix, tol=1e-10)


def test_sampled_zero_variance_matches_ideal_tree():
    mats = [random_unitary(2) for _ in range(4)]
    noise, rng = EncoderNoise(0.0), np.random.default_rng(1)
    count = num_splitter_deltas(4, 2, noise.correlated)
    noisy = build_tree(
        mats, encoder_deltas=noise.draw((count,), rng), decoder_deltas=noise.draw((count,), rng)
    )
    np.testing.assert_array_equal(noisy.matrix, build_tree(mats).matrix)


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(kind="four-moment"), "gaussian or uniform"),
        (dict(kind="bogus"), "gaussian or uniform"),
        (dict(variance=-1.0), "non-negative"),
        (dict(variance=-1.0, kind="uniform"), "non-negative"),
        (dict(variance=math.nan), "finite and non-negative"),
        (dict(variance=math.inf, kind="uniform"), "finite and non-negative"),
    ],
    ids=["four-moment", "bogus", "negative-variance", "negative-variance-uniform",
         "nan-variance", "inf-variance-uniform"],
)
def test_encoder_noise_rejects_bad_settings(settings, message):
    # checked when built, before any estimator draws from it
    with pytest.raises(ValueError, match=message):
        EncoderNoise(**{"variance": 1e-4, **settings})


def test_encoder_noise_accepts_both_continuous_kinds():
    for kind in ("gaussian", "uniform"):
        for variance in (0.0, 1e-4):
            assert EncoderNoise(variance, kind=kind).kind == kind


@pytest.mark.parametrize("correlated", [True, False])
@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_encoder_noise_draws_the_bytes_of_its_noise_spec(kind, correlated):
    noise = EncoderNoise(1e-3, kind=kind, correlated=correlated)
    assert isinstance(noise, NoiseSpec)
    shape = (3, num_splitter_deltas(8, 2, correlated))
    drawn = noise.draw(shape, np.random.default_rng(4))
    spec = sample_deltas(NoiseSpec(1e-3, kind), shape, np.random.default_rng(4))
    assert drawn.tobytes() == spec.tobytes()


@pytest.mark.parametrize("num_copies", [2, 4])
def test_encoder_offsets_enter_only_at_second_order(num_copies):
    """Success-branch error under a frozen offset pattern scales as the square.

    Identical copies are essential here: the gate layer then commutes with the
    copy-space trees and every splitter sits at a stationary point.  Distinct
    copies break that cancellation and the deviation becomes linear.
    """
    u = random_unitary(2)
    scales = [1e-3, 1e-4, 1e-5]
    devs = encoder_error_scaling([u] * num_copies, scales, pattern_seed=3)
    slopes = np.diff(np.log(devs)) / np.diff(np.log(scales))
    assert np.all(np.abs(slopes - 2.0) < 0.05)

    # and with distinct copies the first order genuinely survives
    mixed = [random_unitary(2) for _ in range(num_copies)]
    devs = encoder_error_scaling(mixed, scales, pattern_seed=3)
    slopes = np.diff(np.log(devs)) / np.diff(np.log(scales))
    assert np.all(np.abs(slopes - 1.0) < 0.05)


# ---------------------------------------------------------------------------
# stacked trees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lead", [(3,), (2, 3)])
@pytest.mark.parametrize("correlated", [True, False])
@pytest.mark.parametrize("num_copies", [1, 2, 4, 8])
def test_stacked_trees_equal_single_trees_bit_for_bit(num_copies, correlated, lead):
    rng = np.random.default_rng(num_copies)
    gates = random_unitary_stack(lead + (num_copies,), rng)
    count = num_splitter_deltas(num_copies, 2, correlated)
    enc = rng.normal(scale=0.1, size=lead + (count,))
    dec = rng.normal(scale=0.1, size=lead + (count,))
    stack = build_tree(gates, encoder_deltas=enc, decoder_deltas=dec)
    bare = build_tree(gates)
    noise = EncoderNoise(1e-3, correlated=correlated)
    draw_rng = np.random.default_rng(5)
    enc_drawn = noise.draw(lead + (count,), draw_rng)
    dec_drawn = noise.draw(lead + (count,), draw_rng)
    sampled = build_tree(gates, encoder_deltas=enc_drawn, decoder_deltas=dec_drawn)
    redraw = np.random.default_rng(5)
    assert np.array_equal(enc_drawn, sample_deltas(NoiseSpec(1e-3), lead + (count,), redraw))
    assert np.array_equal(dec_drawn, sample_deltas(NoiseSpec(1e-3), lead + (count,), redraw))
    assert stack.matrix.shape == lead + (2 * num_copies, 2 * num_copies)
    for idx in np.ndindex(*lead):
        one = build_tree(list(gates[idx]), encoder_deltas=enc[idx], decoder_deltas=dec[idx])
        assert np.array_equal(stack.matrix[idx], one.matrix)
        assert np.array_equal(success_branch(stack)[idx], success_branch(one))
        assert np.array_equal(bare.matrix[idx], build_tree(list(gates[idx])).matrix)
        drawn = build_tree(
            list(gates[idx]), encoder_deltas=enc_drawn[idx], decoder_deltas=dec_drawn[idx]
        )
        assert np.array_equal(sampled.matrix[idx], drawn.matrix)


@pytest.mark.parametrize("correlated", [True, False])
@pytest.mark.parametrize("num_copies", [1, 2, 8])
def test_encoder_error_scaling_equals_one_tree_per_scale(num_copies, correlated):
    mats = [random_unitary(2) for _ in range(num_copies)]
    scales = [1e-2, 1e-3, 1e-4]
    count = num_splitter_deltas(num_copies, 2, correlated)
    rng = np.random.default_rng(4)
    enc, dec = rng.standard_normal(count), rng.standard_normal(count)
    ideal = success_branch(build_tree(mats))
    expected = []
    for s in scales:
        circ = build_tree(mats, encoder_deltas=s * enc, decoder_deltas=s * dec)
        expected.append(np.linalg.norm(success_branch(circ) - ideal))
    got = encoder_error_scaling(mats, scales, pattern_seed=4, correlated=correlated)
    assert got.tolist() == expected


# ---------------------------------------------------------------------------
# contracted blocks
# ---------------------------------------------------------------------------

OFFSETS = ["none", "zeros", "correlated", "independent", "encoder-only", "decoder-only"]


def tree_offsets(kind, num_copies, rails, lead, rng):
    """Keyword offsets for ``build_tree``; the one-sided kinds cover both layouts."""
    corr = num_splitter_deltas(num_copies, rails, True)
    indep = num_splitter_deltas(num_copies, rails, False)
    if kind == "none":
        return {}
    if kind == "zeros":
        zeros = np.zeros(lead + (corr,))
        return dict(encoder_deltas=zeros, decoder_deltas=zeros)
    if kind == "encoder-only":
        return dict(encoder_deltas=rng.normal(scale=0.1, size=lead + (indep,)))
    if kind == "decoder-only":
        return dict(decoder_deltas=rng.normal(scale=0.1, size=lead + (corr,)))
    size = corr if kind == "correlated" else indep
    enc, dec = rng.normal(scale=0.1, size=(2,) + lead + (size,))
    return dict(encoder_deltas=enc, decoder_deltas=dec)


def whole_tree(gates, encoder_deltas=None, decoder_deltas=None):
    """The interferometer as one dense product per tree: a matrix per splitter
    level, each side multiplied out whole, then (dec @ gates) @ enc."""
    N, rails = gates.shape[-3], gates.shape[-1]
    n, total = N.bit_length() - 1, N * rails
    out = np.empty(gates.shape[:-3] + (total, total), dtype=complex)
    for idx in np.ndindex(*gates.shape[:-3]):
        if n == 0:
            out[idx] = gates[idx][0]
            continue
        sides = []
        for deltas in (decoder_deltas, encoder_deltas):
            theta = math.pi / 4 + (np.zeros(n * N // 2) if deltas is None else deltas[idx])
            if theta.size < n * N // 2 * rails:  # one offset per copy pair
                theta = np.repeat(theta, rails)
            s, c = np.sin(theta), np.cos(theta)
            levels, t = [], 0
            for level in range(n):
                m = np.zeros((total, total))
                half = N >> (level + 1)
                pairs = itertools.product(range(0, N, 2 * half), range(half), range(rails))
                for base, off, r in pairs:
                    i, j = (base + off) * rails + r, (base + half + off) * rails + r
                    m[i, i], m[i, j], m[j, i], m[j, j] = s[t], c[t], c[t], -s[t]
                    t += 1
                levels.append(m)
            sides.append(levels)
        dec, enc = sides[0][0], sides[1][0]
        for level in range(1, n):
            dec = dec @ sides[0][level]
            enc = sides[1][level] @ enc
        g = np.zeros((total, total), dtype=complex)
        for j in range(N):
            g[j * rails : (j + 1) * rails, j * rails : (j + 1) * rails] = gates[idx][j]
        out[idx] = dec @ g @ enc
    return out


@pytest.mark.parametrize("num_copies", [1, 2, 4, 8, 16])
def test_every_branch_is_its_matrix_slice_bit_for_bit(num_copies):
    """A branch contracts only its block, with the bits of the whole product.

    ``matrix`` is checked against the tree multiplied out whole.  One rail is
    included: its blocks are padded to two rows and columns.
    """
    rng = np.random.default_rng(num_copies)
    for rails, lead, kind in itertools.product((1, 2, 4), ((), (3,), (2, 3)), OFFSETS):
        size = lead + (num_copies, rails, rails)
        gates = rng.normal(size=size) + 1j * rng.normal(size=size)
        offsets = tree_offsets(kind, num_copies, rails, lead, rng)
        circ = build_tree(gates, **offsets)
        branches = [herald_branch(circ, k) for k in range(num_copies)]
        whole = whole_tree(gates, **offsets)
        assert circ.matrix.tobytes() == whole.tobytes(), (rails, lead, kind)
        for k, branch in enumerate(branches):
            block = circ.matrix[..., k * rails : (k + 1) * rails, 0:rails]
            assert np.array_equal(branch, block), (rails, lead, kind, k)
            assert branch.tobytes() == block.tobytes(), (rails, lead, kind, k)


@pytest.mark.parametrize("correlated", [True, False])
@pytest.mark.parametrize("missing", ["encoder_deltas", "decoder_deltas"])
def test_a_missing_side_is_the_ideal_side_in_either_layout(missing, correlated):
    present = "decoder_deltas" if missing == "encoder_deltas" else "encoder_deltas"
    rng = np.random.default_rng(12)
    for num_copies, lead in itertools.product((2, 4, 8), ((), (3,))):
        gates = random_unitary_stack(lead + (num_copies,), rng)
        count = num_splitter_deltas(num_copies, 2, correlated)
        offsets = {present: rng.normal(scale=0.1, size=lead + (count,))}
        one_sided = build_tree(gates, **offsets)
        explicit = build_tree(gates, **offsets, **{missing: np.zeros(lead + (count,))})
        assert np.array_equal(one_sided.matrix, explicit.matrix)
        assert one_sided.matrix.tobytes() == explicit.matrix.tobytes()
        for k in range(num_copies):
            assert herald_branch(one_sided, k).tobytes() == herald_branch(explicit, k).tobytes()


def test_ideal_sides_and_held_parts_are_read_only():
    circ = build_tree([random_unitary(2)] * 4, encoder_deltas=np.zeros(4))
    success_branch(circ)
    # the decoder rows of the success branch, computed once and then shared
    side = averaging._ideal_side(2, 2, True, 0, 2)
    assert averaging._ideal_side(2, 2, True, 0, 2) is side
    for held in (side, circ.gates, circ.encoder_deltas):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 0.0


def test_only_what_is_read_is_contracted(monkeypatch):
    calls, contract = [], averaging._contract

    def counted(circ, *rows_cols):
        calls.append(rows_cols)
        return contract(circ, *rows_cols)

    monkeypatch.setattr(averaging, "_contract", counted)
    circ = build_tree(random_unitary_stack((3, 4), RNG))
    assert calls == []
    success_branch(circ)
    assert calls == [(0, 2, 2)]  # the success rows and the input columns
    first = circ.matrix
    assert circ.matrix is first
    assert calls == [(0, 2, 2), (0, 8, 8)]


# A restricted product must round like the whole one, the four-mode gate's
# one-path products like the padded layer product, and fusion's hand-built
# product of its averaged columns with the pair state like the zgemm of the
# whole matrix, under every OpenBLAS kernel set, not only the one this host
# picks.  The child reads the core it got through ctypes and fails, never
# skips, when the forced core is not the one in use; OpenBLAS reports its
# Prescott kernels under the name Katmai.
CORE_CHILD = """
import ctypes, sys
import pytest
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

lib = ctypes.CDLL(umath.__file__)
# numpy 2 links scipy-openblas, numpy 1.x plain openblas
names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
getter = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
assert getter is not None, "no OpenBLAS core-name symbol"
getter.restype = ctypes.c_char_p
core = getter().decode()
want = {"default": None, "Haswell": {"Haswell"}, "Prescott": {"Prescott", "Katmai"}}[sys.argv[1]]
assert core and (want is None or core in want), f"asked for {sys.argv[1]}, got {core!r}"
print("OpenBLAS core", core)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


@pytest.mark.parametrize("core", ["default", "Haswell", "Prescott"])
def test_tree_and_four_mode_bits_hold_under_each_openblas_core(core):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core != "default":
        env["OPENBLAS_CORETYPE"] = core
    src = str(Path(uasim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    tests = Path(__file__).resolve().parent
    checks = [
        "test_averaging.py::test_every_branch_is_its_matrix_slice_bit_for_bit",
        "test_montecarlo.py::test_end_to_end_equals_one_tree_per_sample_bit_for_bit",
        "test_gates.py::test_four_mode_gate_has_the_bits_of_its_layer_product",
        "test_montecarlo.py::test_fusion_equals_one_block_bit_for_bit",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", CORE_CHILD, core, *(f"{tests}/{c}" for c in checks)],
        env=env, cwd=tests.parent, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
