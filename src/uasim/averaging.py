"""Encoder/decoder splitter trees that average N = 2**n noisy gate copies.

The encoder spreads the input over the copies, one 50:50 splitter layer per
binary digit; the decoder is the mirror image.  Postselecting the output on
the copy-0 rails applies the uniform average (1/N) sum_j U_j of the embedded
gates; the remaining outcomes apply signed averages whose sign patterns are
the rows of the n-fold Hadamard transform.

Modes are copy-major: mode = copy * rails + rail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import PhotonicState, apply_matrix, vacuum_project
from .gates import NoiseSpec, sample_deltas

__all__ = [
    "EncoderNoise",
    "EncodedCircuit",
    "averaged_operator",
    "heralded_operator",
    "herald_weights",
    "build_tree",
    "num_splitter_deltas",
    "success_branch",
    "herald_branch",
    "run_postselected",
    "fidelity_vs_target",
    "encoder_error_scaling",
]


def averaged_operator(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Uniform average of the gate copies — the success-branch operator."""
    return np.mean([np.asarray(m, dtype=complex) for m in matrices], axis=0)


def herald_weights(n: int, k: int) -> np.ndarray:
    """Signs (-1)**popcount(k & j) applied to copy j in herald branch k.

    These are the entries of row k of the n-fold Hadamard transform (times
    2**(n/2)); branch 0 is the all-plus success branch.
    """
    N = 1 << n
    if not 0 <= k < N:
        raise ValueError(f"branch index {k} out of range for {N} copies")
    j = np.arange(N)
    return np.where(_popcount(j & k) % 2 == 0, 1.0, -1.0)


def _popcount(a: np.ndarray) -> np.ndarray:
    # np.bitwise_count needs numpy >= 2.0; this covers 1.x too.
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(a)
    return np.array([bin(int(x)).count("1") for x in a.ravel()]).reshape(a.shape)


def heralded_operator(matrices: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Signed average (1/N) sum_j f_jk U_j implemented by herald outcome k."""
    mats = np.array([np.asarray(m, dtype=complex) for m in matrices])
    n = len(mats).bit_length() - 1
    if len(mats) != 1 << n:
        raise ValueError("number of copies must be a power of two")
    f = herald_weights(n, k)
    return np.tensordot(f, mats, axes=1) / len(mats)


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncoderNoise:
    """Splitter-angle jitter in the encoder/decoder network.

    ``correlated`` shares one angle offset among the rail splitters that make
    up a copy-pair coupling; otherwise every rail splitter jitters on its own.
    """

    variance: float
    correlated: bool = True
    kind: str = "gaussian"

    def spec(self) -> NoiseSpec:
        return NoiseSpec(self.variance, self.kind)


@dataclass(frozen=True)
class EncodedCircuit:
    """A fully assembled encoder / gates / decoder interferometer."""

    matrix: np.ndarray
    num_copies: int
    rails: int

    @property
    def success_modes(self) -> tuple[int, ...]:
        return tuple(range(self.rails))

    @property
    def error_modes(self) -> tuple[int, ...]:
        return tuple(range(self.rails, self.num_copies * self.rails))

    @property
    def splitter_layers(self) -> int:
        """Total splitter layers crossed (encoder plus decoder)."""
        return 2 * (self.num_copies.bit_length() - 1)


def _tree_levels(n: int) -> list[list[tuple[int, int]]]:
    """Copy pairs coupled at each encoder level, outermost digit first."""
    N = 1 << n
    levels = []
    for level in range(n):
        half = 1 << (n - 1 - level)
        block = half * 2
        pairs = [
            (base + off, base + half + off)
            for base in range(0, N, block)
            for off in range(half)
        ]
        levels.append(pairs)
    return levels


def num_splitter_deltas(num_copies: int, rails: int, correlated: bool) -> int:
    """Angle offsets needed for ONE side (encoder or decoder) of the tree."""
    n = num_copies.bit_length() - 1
    per_pair = 1 if correlated else rails
    return n * (num_copies // 2) * per_pair


def _layer_matrix(pairs, rails: int, total: int, thetas: np.ndarray) -> np.ndarray:
    """One splitter layer; thetas has shape (len(pairs), rails)."""
    m = np.eye(total)
    for (a, b), th in zip(pairs, thetas):
        for r in range(rails):
            s, c = math.sin(th[r]), math.cos(th[r])
            i, j = a * rails + r, b * rails + r
            m[i, i] = s
            m[i, j] = c
            m[j, i] = c
            m[j, j] = -s
    return m


def _side_matrix(n, rails, total, deltas, correlated, mirrored):
    levels = _tree_levels(n)
    mats = []
    pos = 0
    for pairs in levels:
        count = len(pairs) * (1 if correlated else rails)
        block = np.asarray(deltas[pos : pos + count], dtype=float)
        pos += count
        if correlated:
            thetas = math.pi / 4 + np.repeat(block, rails).reshape(len(pairs), rails)
        else:
            thetas = math.pi / 4 + block.reshape(len(pairs), rails)
        mats.append(_layer_matrix(pairs, rails, total, thetas))
    if mirrored:
        # decoder: innermost level (finest pairing) acts first
        out = np.eye(total)
        for m in mats:
            out = out @ m
        return out
    out = np.eye(total)
    for m in mats:
        out = m @ out
    return out


def build_tree(
    gates: Sequence[np.ndarray],
    *,
    encoder_noise: EncoderNoise | None = None,
    rng: np.random.Generator | None = None,
    encoder_deltas: np.ndarray | None = None,
    decoder_deltas: np.ndarray | None = None,
) -> EncodedCircuit:
    """Assemble the full interferometer around the given gate copies.

    Splitter-angle offsets can either be sampled (``encoder_noise`` plus
    ``rng``) or injected directly as flat arrays ordered level-major, then
    pair, then rail; injected arrays are taken as-is (``correlated`` applies
    only to sampling).  With no noise the splitters sit exactly at 50:50.
    """
    mats = [np.asarray(g, dtype=complex) for g in gates]
    N = len(mats)
    if N < 1 or N & (N - 1):
        raise ValueError("need a power-of-two number of gate copies")
    rails = mats[0].shape[0]
    for m in mats:
        if m.shape != (rails, rails):
            raise ValueError("all gate copies must be square and equally sized")
    n = N.bit_length() - 1
    total = N * rails

    if encoder_noise is not None:
        if encoder_deltas is not None or decoder_deltas is not None:
            raise ValueError("pass sampled noise or explicit deltas, not both")
        if rng is None:
            raise ValueError("sampling encoder noise needs an rng")
        count = num_splitter_deltas(N, rails, encoder_noise.correlated)
        spec = encoder_noise.spec()
        encoder_deltas = sample_deltas(spec, count, rng)
        decoder_deltas = sample_deltas(spec, count, rng)
        correlated = encoder_noise.correlated
    else:
        per_side_corr = num_splitter_deltas(N, rails, True)
        if encoder_deltas is None:
            encoder_deltas = np.zeros(per_side_corr)
        if decoder_deltas is None:
            decoder_deltas = np.zeros(per_side_corr)
        encoder_deltas = np.asarray(encoder_deltas, dtype=float)
        decoder_deltas = np.asarray(decoder_deltas, dtype=float)
        per_side_ind = num_splitter_deltas(N, rails, False)
        if encoder_deltas.size == per_side_corr:
            correlated = True
        elif encoder_deltas.size == per_side_ind:
            correlated = False
        else:
            raise ValueError(
                f"expected {per_side_corr} (correlated) or {per_side_ind} "
                f"(independent) deltas per side, got {encoder_deltas.size}"
            )
        if decoder_deltas.size != encoder_deltas.size:
            raise ValueError("encoder and decoder delta arrays must match in size")

    if n == 0:
        return EncodedCircuit(mats[0], 1, rails)

    enc_m = _side_matrix(n, rails, total, encoder_deltas, correlated, mirrored=False)
    dec_m = _side_matrix(n, rails, total, decoder_deltas, correlated, mirrored=True)
    gate_m = np.zeros((total, total), dtype=complex)
    for j, m in enumerate(mats):
        gate_m[j * rails : (j + 1) * rails, j * rails : (j + 1) * rails] = m
    return EncodedCircuit(dec_m @ gate_m @ enc_m, N, rails)


def herald_branch(circuit: EncodedCircuit, k: int) -> np.ndarray:
    """Effective rails-by-rails operator for herald outcome k (0 = success)."""
    r = circuit.rails
    if not 0 <= k < circuit.num_copies:
        raise ValueError(f"branch index {k} out of range")
    return circuit.matrix[k * r : (k + 1) * r, 0:r]


def success_branch(circuit: EncodedCircuit) -> np.ndarray:
    return herald_branch(circuit, 0)


def run_postselected(
    circuit: EncodedCircuit, state: PhotonicState
) -> tuple[PhotonicState | None, float]:
    """Send a state through the interferometer and keep the no-photons-leaked
    outcome.

    Returns the normalized conditional state and the postselection
    probability; the state is None when the success amplitude vanishes.
    """
    out = apply_matrix(circuit.matrix, state)
    kept, ps = vacuum_project(out, circuit.error_modes)
    if ps == 0.0:
        return None, 0.0
    return kept.normalized(), ps


def fidelity_vs_target(state: PhotonicState, target: PhotonicState) -> float:
    """|<target|state>|^2 for normalized states."""
    return abs(target.overlap(state)) ** 2


def encoder_error_scaling(
    gates: Sequence[np.ndarray],
    scales: Sequence[float],
    *,
    pattern_seed: int = 0,
    correlated: bool = True,
) -> np.ndarray:
    """Success-branch deviation under a frozen splitter-offset pattern.

    A unit-variance offset pattern is drawn once from ``pattern_seed``, scaled
    by each entry of ``scales``, and applied to both tree sides; returned is
    the Frobenius norm of the success-branch change at each scale.  Away from
    zero offsets the deviation grows quadratically, since every splitter sits
    at a stationary point of the success branch.
    """
    mats = [np.asarray(g, dtype=complex) for g in gates]
    N = len(mats)
    rails = mats[0].shape[0]
    count = num_splitter_deltas(N, rails, correlated)
    rng = np.random.default_rng(pattern_seed)
    enc_pattern = rng.standard_normal(count)
    dec_pattern = rng.standard_normal(count)
    ideal = success_branch(build_tree(mats))
    out = []
    for s in scales:
        circ = build_tree(
            mats, encoder_deltas=s * enc_pattern, decoder_deltas=s * dec_pattern
        )
        out.append(np.linalg.norm(success_branch(circ) - ideal))
    return np.array(out)
