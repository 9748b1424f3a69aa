"""Encoder/decoder splitter trees that average N = 2**n noisy gate copies.

The encoder spreads the input over the copies, one 50:50 splitter layer per
binary digit; the decoder is the mirror image.  Postselecting the output on
the copy-0 rails applies the uniform average (1/N) sum_j U_j of the embedded
gates; the remaining outcomes apply signed averages whose sign patterns are
the rows of the n-fold Hadamard transform.

Modes are copy-major: mode = copy * rails + rail.

Photon states are dense: one photon is its rails vector ``psi``, postselected
as ``success_branch(circuit) @ psi``; a pair is a monomial matrix S (see
``pair_state``), postselected as ``evolve_pair(success_branch(circuit), S)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gates import NoiseSpec, sample_deltas

__all__ = [
    "EncoderNoise",
    "EncodedCircuit",
    "heralded_operator",
    "herald_weights",
    "build_tree",
    "num_splitter_deltas",
    "success_branch",
    "herald_branch",
    "pair_state",
    "evolve_pair",
    "encoder_error_scaling",
]


def herald_weights(n: int, k: int) -> np.ndarray:
    """Signs (-1)**popcount(k & j) applied to copy j in herald branch k.

    These are the entries of row k of the n-fold Hadamard transform (times
    2**(n/2)); branch 0 is the all-plus success branch.  Public as the
    closed-form oracle for the herald signs of ``build_tree``'s branches.
    """
    N = 1 << n
    if not 0 <= k < N:
        raise ValueError(f"branch index {k} out of range for {N} copies")
    shared = k & np.arange(N)
    signs = np.ones(N)
    for bit in range(n):
        signs[shared >> bit & 1 == 1] *= -1.0
    return signs


def heralded_operator(matrices: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Signed average (1/N) sum_j f_jk U_j implemented by herald outcome k;
    public as the closed-form oracle that ``herald_branch`` is checked against."""
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

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"splitter noise kind must be gaussian or uniform, not {self.kind!r}")
        NoiseSpec(self.variance, self.kind)  # the variance rule of the offsets

    def draw(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Splitter-angle offsets of the given shape for one tree side; the
        last axis holds ``num_splitter_deltas(N, rails, correlated)``."""
        return sample_deltas(NoiseSpec(self.variance, self.kind), shape, rng)


@dataclass(frozen=True, eq=False)
class EncodedCircuit:
    """An encoder / gates / decoder interferometer, held as its parts.

    ``gates`` has shape (..., N, rails, rails); each side's splitter-angle
    offsets have shape (..., count), or are None for a side exactly at 50:50.
    ``herald_branch`` contracts only the block it returns; ``matrix``, the
    whole (..., N * rails, N * rails) product, is contracted on its first read
    and then kept.  ``build_tree`` makes these and copies what it is given.
    Public as ``build_tree``'s return type.
    """

    gates: np.ndarray
    encoder_deltas: np.ndarray | None
    decoder_deltas: np.ndarray | None

    @property
    def num_copies(self) -> int:
        return self.gates.shape[-3]

    @property
    def rails(self) -> int:
        return self.gates.shape[-1]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        total = self.num_copies * self.rails
        return _contract(self, 0, total, total)


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


@functools.cache
def _splitter_slots(n: int, rails: int) -> np.ndarray:
    """Flat slots of one tree side's splitter entries in (n, total, total).

    Laid out [ii | ij | ji | jj] to receive (s, c, c, -s); each part runs
    level-major, then pair, then rail, the order of the angle offsets.  Every
    level pairs up every copy, so the slots cover each level's diagonal.
    """
    total = (1 << n) * rails
    r = np.arange(rails)
    i, j = [], []
    for pairs in _tree_levels(n):
        a, b = np.array(pairs).T
        i.append((a[:, None] * rails + r).ravel())
        j.append((b[:, None] * rails + r).ravel())
    i, j = np.array(i), np.array(j)
    base = (np.arange(n) * total * total)[:, None]
    ii, ij = base + i * total + i, base + i * total + j
    ji, jj = base + j * total + i, base + j * total + j
    return np.concatenate([ii.ravel(), ij.ravel(), ji.ravel(), jj.ravel()])


@functools.cache
def _gate_slots(num_copies: int, rails: int) -> np.ndarray:
    """Flat slots of the block-diagonal gate layer, in (copy, row, col) order."""
    total = num_copies * rails
    j, row, col = np.indices((num_copies, rails, rails)).reshape(3, -1)
    return (j * rails + row) * total + j * rails + col


def _side_matrix(n, rails, deltas, mirrored, lo, hi):
    """Stacked splitter network of one tree side, only its rows lo:hi
    (decoder, ``mirrored``) or columns lo:hi (encoder); deltas has shape
    (..., count), or is None for a side at 50:50.

    The chain starts from those rows or columns of the first level and keeps
    the association order of the whole product, so every kept entry comes
    from the same BLAS dot as there.
    """
    if deltas is None:
        return _ideal_side(n, rails, mirrored, lo, hi)
    total = (1 << n) * rails
    lead = deltas.shape[:-1]
    if deltas.shape[-1] < n * total // 2:  # correlated: one offset per copy pair
        deltas = np.repeat(deltas, rails, axis=-1)
    theta = math.pi / 4 + deltas
    s, c = np.sin(theta), np.cos(theta)
    layers = np.zeros(lead + (n * total * total,))
    layers[..., _splitter_slots(n, rails)] = np.concatenate([s, c, c, -s], axis=-1)
    layers = layers.reshape(lead + (n, total, total))
    out = layers[..., 0, lo:hi, :] if mirrored else layers[..., 0, :, lo:hi]
    for level in range(1, n):
        m = layers[..., level, :, :]
        # decoder: innermost level (finest pairing) acts first
        out = out @ m if mirrored else m @ out
    return out


@functools.cache
def _ideal_side(n, rails, mirrored, lo, hi):
    """``_side_matrix`` with every splitter at 50:50, computed once, read-only."""
    zeros = np.zeros(num_splitter_deltas(1 << n, rails, True))
    out = _side_matrix(n, rails, zeros, mirrored, lo, hi)
    out.setflags(write=False)
    return out


def _matmul(a, b):
    """``a @ b``, as one BLAS call when ``a`` or ``b`` has no stack axes.

    Broadcasting would make one call per stacked matrix.  Here a stacked
    ``a`` has its matrices' rows laid one below another, and a stacked ``b``
    its matrices' columns side by side; each entry is still one dot over the
    same inner axis.
    """
    if a.ndim == 2 and b.ndim > 2:
        cols = np.moveaxis(b, -2, 0).reshape(b.shape[-2], -1)
        out = (a @ cols).reshape(a.shape[:1] + b.shape[:-2] + b.shape[-1:])
        return np.moveaxis(out, 0, -2)
    if b.ndim == 2 and a.ndim > 2:
        rows = a.reshape(-1, a.shape[-1]) @ b
        return rows.reshape(a.shape[:-1] + b.shape[-1:])
    return a @ b


def _contract(circuit, lo, hi, cols):
    """Rows lo:hi and columns 0:cols of decoder · gates · encoder.

    The gate layer keeps the whole product's order, (dec @ gates) @ enc, so
    the block's bits equal the same slice of ``circuit.matrix``.
    """
    g, N, rails = circuit.gates, circuit.num_copies, circuit.rails
    n = N.bit_length() - 1
    if n == 0:
        return g[..., 0, lo:hi, 0:cols]
    lead = g.shape[:-3]
    total = N * rails
    dec_m = _side_matrix(n, rails, circuit.decoder_deltas, True, lo, hi)
    enc_m = _side_matrix(n, rails, circuit.encoder_deltas, False, 0, cols)
    gate_m = np.zeros(lead + (total * total,), dtype=complex)
    gate_m[..., _gate_slots(N, rails)] = g.reshape(lead + (N * rails * rails,))
    gate_m = gate_m.reshape(lead + (total, total))
    return _matmul(_matmul(dec_m, gate_m), enc_m)


def build_tree(
    gates: Sequence[np.ndarray] | np.ndarray,
    *,
    encoder_deltas: np.ndarray | None = None,
    decoder_deltas: np.ndarray | None = None,
) -> EncodedCircuit:
    """The interferometer around the given gate copies, held as its parts.

    ``gates`` is a list of N rails-by-rails matrices or an array of shape
    (..., N, rails, rails); the leading axes stack independent trees, and
    ``matrix`` of the result has shape (..., N * rails, N * rails).  Nothing
    is contracted here: ``herald_branch`` and ``success_branch`` contract
    only the block they return, and ``matrix`` is contracted on its first
    read.  Every tree in a stack, and every branch, is bit-identical to the
    same slice of the tree built from its slice alone.

    Splitter-angle offsets are arrays of shape (..., count), ordered
    level-major, then pair, then rail along the last axis; random ones come
    from ``EncoderNoise.draw``.  The count tells correlated offsets (one per
    copy pair) from independent ones (one per rail splitter).  A missing
    side, in either layout, has its splitters exactly at 50:50.
    """
    try:
        g = np.array(gates, dtype=complex)
    except ValueError:  # a ragged list of copies
        g = None
    N = len(gates) if g is None or g.ndim < 3 else g.shape[-3]
    if N < 1 or N & (N - 1):
        raise ValueError("need a power-of-two number of gate copies")
    if g is None or g.ndim < 3 or g.shape[-1] != g.shape[-2]:
        raise ValueError("all gate copies must be square and equally sized")
    lead = g.shape[:-3]
    rails = g.shape[-1]
    per_side_corr = num_splitter_deltas(N, rails, True)
    per_side_ind = num_splitter_deltas(N, rails, False)
    sides = []
    for d in (encoder_deltas, decoder_deltas):
        if d is not None:
            d = np.array(d, dtype=float)
            if d.ndim == 0 or d.shape[:-1] != lead:
                raise ValueError(
                    f"delta arrays need the gates' lead shape {lead} plus one "
                    f"axis, got shape {d.shape}"
                )
            if d.shape[-1] not in (per_side_corr, per_side_ind):
                raise ValueError(
                    f"expected {per_side_corr} (correlated) or {per_side_ind} "
                    f"(independent) deltas per side, got {d.shape[-1]}"
                )
            d.setflags(write=False)
        sides.append(d)
    if len({d.shape[-1] for d in sides if d is not None}) > 1:
        raise ValueError("encoder and decoder delta arrays must match in size")
    g.setflags(write=False)
    return EncodedCircuit(g, *sides)


def herald_branch(circuit: EncodedCircuit, k: int) -> np.ndarray:
    """Effective rails-by-rails operator for herald outcome k (0 = success).

    Only this block of every tree is contracted; its bits equal the slice
    ``circuit.matrix[..., k * rails:(k + 1) * rails, 0:rails]``.
    """
    N, r = circuit.num_copies, circuit.rails
    if not 0 <= k < N:
        raise ValueError(f"branch index {k} out of range")
    # Keep at least two rows and columns: numpy sends a one-row or one-column
    # product to BLAS gemv, which rounds unlike the gemm of the whole tree.
    w = min(max(r, 2), N * r)
    lo = min(k * r, N * r - w)
    return _contract(circuit, lo, lo + w, w)[..., k * r - lo : (k + 1) * r - lo, 0:r]


def success_branch(circuit: EncodedCircuit) -> np.ndarray:
    return herald_branch(circuit, 0)


def pair_state(mode_a: int, mode_b: int, num_modes: int) -> np.ndarray:
    """Symmetric S with |psi> = sum_kl S_kl a†_k a†_l |0> for one photon each in
    ``mode_a`` and ``mode_b``; the norm squared is 2 sum_kl |S_kl|^2.  A
    coinciding pair, |2_k> = a†_k a†_k |0> / sqrt(2), puts 1/sqrt(2) on the
    diagonal; a split pair puts 1/2 on both off-diagonal entries.
    """
    if not (0 <= mode_a < num_modes and 0 <= mode_b < num_modes):
        raise ValueError(f"mode index out of range in {(mode_a, mode_b)}")
    s = np.zeros((num_modes, num_modes), dtype=complex)
    if mode_a == mode_b:
        s[mode_a, mode_a] = 1.0 / math.sqrt(2.0)
    else:
        s[mode_a, mode_b] = s[mode_b, mode_a] = 0.5
    return s


def evolve_pair(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Two-photon action S -> m S m^T of the mode matrix ``m`` (need not be
    unitary); both may carry leading stack axes."""
    return m @ s @ np.swapaxes(m, -1, -2)


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
    ideal = build_tree(gates)
    count = num_splitter_deltas(ideal.num_copies, ideal.rails, correlated)
    rng = np.random.default_rng(pattern_seed)
    enc_pattern = rng.standard_normal(count)
    dec_pattern = rng.standard_normal(count)
    mats = np.asarray(gates, dtype=complex)
    s = np.asarray(scales, dtype=float)[:, None]
    circ = build_tree(
        np.broadcast_to(mats, s.shape[:1] + mats.shape),
        encoder_deltas=s * enc_pattern,
        decoder_deltas=s * dec_pattern,
    )
    devs = success_branch(circ) - success_branch(ideal)
    # one norm per scale: a norm reduced over the stack rounds differently
    return np.array([np.linalg.norm(d) for d in devs])
