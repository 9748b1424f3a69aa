"""Monte Carlo estimators for averaged-gate success and fidelity.

Sampling layout
---------------
Every estimator runs through ``_sweep``: runs are split into fixed-size
chunks, and chunk i of a run with master seed s draws from
``SeedSequence([s, stream, i])``, so results are reproducible bit-for-bit and
independent of how chunks are scheduled.  ``_sweep`` cuts each chunk into
blocks of samples and keeps each chunk's row of moment sums; ``_finalize``
sums each column exactly (``math.fsum``), so the chunk order does not matter.

A block's draw depends only on where it sits (``_block_draw``): with k
offsets per sample, the block at sample lo draws from the chunk's generator
advanced by lo * k.  PCG64 spends one 64-bit output per double, so these are
the values a whole-chunk draw gives the block's samples.  The splitter stream
of ``estimate_end_to_end`` holds a chunk's encoder offsets, then its decoder
offsets, so a block's decoder offsets are its block at position count + lo.

Each estimator's block function draws a block's offsets, then runs its gate
kernel.  A chunk's blocks are mapped in order with ``Executor.map`` on a
thread pool, or with builtin ``map`` on the calling thread if every chunk
holds one block, as every chunk of ``estimate_end_to_end`` does.
Neither the block size nor the thread count moves a bit: a block's draw
depends only on its position, every kernel step acts on each sample alone,
and the moment sums, whose pairwise summation rounds by array length, see
whole-chunk arrays.  Fusion's per-photon overlap is a matrix-vector product
over the joined chunk, taken in parts of at most ``_OVERLAP_ROWS`` rows: a
one-row product goes to BLAS dot, a longer one to gemv, and a part has one
row only when its chunk does.  Parts that small keep OpenBLAS on one thread;
a larger gemv wakes a helper thread that then spins against the pool
workers.

Estimators
----------
``estimate_fidelity``    success probability and conditional fidelity of the
                         averaged single-qubit gate
``estimate_end_to_end``  the same quantities through the full splitter tree:
                         stacked ``build_tree`` calls over slices of each
                         chunk's samples, each contracting only the trees'
                         success block
``estimate_fusion``      per-photon and two-photon measures of averaged fusion
``grid_estimates``       any of these over a (nu, N) grid, nu-major, one
                         derived seed per point; ``uasim mc``'s one grid loop
``discriminate``         ranks the published second-order laws on grid points

Fidelity is reported two ways and the two are NOT interchangeable:
``ratio_of_means`` (|mean amplitude|^2 over mean success probability, the
ensemble-level quantity the closed forms describe) and ``mean_of_ratios``
(the average per-realization conditional fidelity).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .averaging import (
    EncoderNoise,
    build_tree,
    evolve_pair,
    num_splitter_deltas,
    pair_state,
    success_branch,
)
from .formulas import (
    SINGLE_QUBIT_VARIANTS,
    success_prob_first_order,
    success_prob_single,
)
from .gates import (
    GATE_DEPTHS,
    GateParams,
    NoiseSpec,
    _expi,
    four_mode_matrix,
    fusion_type2_matrix,
    named_gate,
    sample_deltas,
    single_qubit_matrix,
)

__all__ = [
    "McEstimate",
    "FidelityEstimate",
    "GateRunResult",
    "FusionRunResult",
    "estimate_fidelity",
    "estimate_end_to_end",
    "estimate_fusion",
    "discriminate",
    "grid_estimates",
    "derive_point_seed",
]

DEFAULT_CHUNK = 65536

# Trees per stacked ``build_tree`` call in ``estimate_end_to_end``.  Only each
# tree's success block is contracted, so a slice's working set is its splitter
# layers and gate layer: at N = 8, 128 trees hold 0.75 MiB of layers per
# jittered side and 0.5 MiB of gate layer.  Per-slice overhead dominates at
# small N: passes of N = 2, 4, 8 with and without jitter (2048 samples each,
# 2 shared cores) took a median of 0.102 s at 32 trees, 0.086 s at 64 and
# 0.076 s at 128, with the same peak memory.
_TREES_PER_SLICE = 128

# Samples per block of ``estimate_fidelity``.  At N = 16 a block's offsets are
# 2.5 MiB and each complex temporary of the gate kernel 1 MiB, so a few blocks
# in flight per core stay in cache where a whole 65536-sample chunk does not.
_SAMPLES_PER_BLOCK = 4096

# ``estimate_fusion`` blocks hold a stack of 4x4 complex matrices per copy:
# 2 MiB per temporary at N = 8 for 1024 samples, 8 MiB for 4096.
_FUSION_SAMPLES_PER_BLOCK = 1024

# Rows per matrix-vector product of fusion's per-photon overlap.  numpy's
# bundled OpenBLAS threads a complex gemv from m * n >= 4096, and its helper
# thread then busy-waits for about 0.135 s, holding a core the thread pool
# needs: a 16384 x 4 product left 48 ms of CPU spent in a 50 ms sleep after
# each call, against 0.1 ms at 512 x 4, which OpenBLAS runs on one thread.
_OVERLAP_ROWS = 512

# Stream tags keep independent random quantities on disjoint substreams.
_STREAM_GATES = 0
_STREAM_SPLITTERS = 1


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error; public as the field type of every estimator result."""

    mean: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class FidelityEstimate:
    """Both fidelity ratios of one run; public as a field of ``GateRunResult``."""

    ratio_of_means: McEstimate
    mean_of_ratios: McEstimate


@dataclass(frozen=True)
class GateRunResult:
    """Success probability and fidelity; public as the single-gate estimators' return type."""

    success_prob: McEstimate
    fidelity: FidelityEstimate


@dataclass(frozen=True)
class FusionRunResult:
    """Per-photon and two-photon results; public as ``estimate_fusion``'s return type."""

    per_photon: GateRunResult
    two_photon: GateRunResult


# ---------------------------------------------------------------------------
# chunk bookkeeping
# ---------------------------------------------------------------------------


def _block_rng(seed: int, stream: int, chunk: int, skip: int) -> np.random.Generator:
    """The chunk's generator on ``stream``, advanced past its first ``skip`` doubles."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, chunk]))
    rng.bit_generator.advance(skip)
    return rng


def _iter_chunks(samples: int, chunk_size: int) -> Iterator[tuple[int, int]]:
    if samples < 2:
        raise ValueError("need at least two samples")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, rest = divmod(samples, chunk_size)
    for i in range(full):
        yield i, chunk_size
    if rest:
        yield full, rest


def _moments(a: np.ndarray, p: np.ndarray) -> list[float]:
    """One chunk's row of sums of (x, y, q, r) and of their needed products.

    x + iy = a - 1, q = p - 1 and r = |a|^2 / p - 1: the target amplitude,
    success probability and conditional fidelity about the zero-noise point
    (a = 1, p = 1), which keeps the running sums well conditioned.
    """
    x = a.real - 1.0
    y = a.imag
    q = p - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, np.abs(a) ** 2 / np.where(p > 0.0, p, 1.0), 0.0)
    r -= 1.0
    # each product is summed as soon as it is formed; holding all seven costs cache
    products = ((x, x), (y, y), (q, q), (r, r), (x, y), (x, q), (y, q))
    return [float(np.sum(c)) for c in (x, y, q, r)] + [
        float(np.sum(u * v)) for u, v in products
    ]


def _finalize(rows: Sequence[Sequence[float]], n: int) -> GateRunResult:
    """Estimates from the per-chunk moment rows of one (a, p) series.

    Each column is reduced with ``math.fsum``, so the chunk order does not
    matter.  The ratio-of-means stderr comes from first-order error
    propagation through F = (Re^2 + Im^2) / P using the sample covariance of
    (Re a, Im a, P).
    """
    sx, sy, sp, sr, sxx, syy, spp, srr, sxy, sxp, syp = map(math.fsum, zip(*rows))
    mx, my, mp, mr = sx / n, sy / n, sp / n, sr / n

    def cov(total: float, u: float, v: float) -> float:
        return (total - n * u * v) / (n - 1)

    vxx, vyy, vpp, vrr = (
        max(cov(s, m, m), 0.0) for s, m in ((sxx, mx), (syy, my), (spp, mp), (srr, mr))
    )
    cxy, cxp, cyp = cov(sxy, mx, my), cov(sxp, mx, mp), cov(syp, my, mp)
    ax, ay, pbar = 1.0 + mx, my, 1.0 + mp
    if pbar <= 0:
        raise ValueError("mean success probability is not positive")
    fid = (ax * ax + ay * ay) / pbar
    g = np.array([2.0 * ax / pbar, 2.0 * ay / pbar, -fid / pbar])
    cov_m = np.array([[vxx, cxy, cxp], [cxy, vyy, cyp], [cxp, cyp, vpp]])
    var_f = float(g @ cov_m @ g)
    rom = McEstimate(fid, math.sqrt(max(var_f, 0.0) / n), n)
    mor = McEstimate(1.0 + mr, math.sqrt(vrr / n), n)
    ps = McEstimate(1.0 + mp, math.sqrt(vpp / n), n)
    return GateRunResult(ps, FidelityEstimate(rom, mor))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep(
    samples: int, chunk_size: int, block: int, run_block: Callable,
    series: Callable = lambda a, p: [(a, p)],
) -> list[GateRunResult]:
    """Run every chunk as blocks of at most ``block`` samples; finalize each series.

    ``run_block(idx, lo, n, count)`` draws samples lo:lo+n of chunk ``idx``
    (of ``count``) and returns a tuple of per-sample arrays.  A chunk's
    blocks are mapped in order: with ``Executor.map`` on a pool sized to the
    usable cores, or with builtin ``map`` on the calling thread if every
    chunk holds one block, which has nothing to run beside it.  Each block's
    draw lives only inside its call, so at most one block's draw per worker
    is alive at once.  Results come in block order, and ``series`` turns the
    arrays, joined over the chunk, into one (amplitude, probability) pair per
    series.  A block's exception is raised here, after the pool has ended;
    the blocks queued behind it are cancelled, not run.
    """
    threads = min(samples, chunk_size) > block
    with ThreadPoolExecutor(_usable_cores()) if threads else nullcontext() as pool:
        run = pool.map if threads else map
        rows = []
        for idx, count in _iter_chunks(samples, chunk_size):
            starts = range(0, count, block)
            sizes = [min(block, count - lo) for lo in starts]
            blocks = run(partial(run_block, idx, count=count), starts, sizes)
            # the blocks are freed once joined, before the moments are summed
            joined = series(*map(np.concatenate, zip(*blocks)))
            rows.append([_moments(a, p) for a, p in joined])
    return [_finalize(s, samples) for s in zip(*rows)]


def _block_draw(seed: int, stream: int, draw: Callable, shape: tuple[int, ...]) -> Callable:
    """``block(idx, lo, n)`` returns ``draw((n, *shape), rng)`` for samples
    lo:lo+n of chunk ``idx`` on ``stream``, ``rng`` advanced to sample lo."""
    def block(idx: int, lo: int, n: int) -> np.ndarray:
        return draw((n, *shape), _block_rng(seed, stream, idx, lo * math.prod(shape)))

    return block


# ---------------------------------------------------------------------------
# batched gate output
# ---------------------------------------------------------------------------


def _batched_single_qubit_out(
    base: GateParams, deltas: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Output amplitudes of noisy single-qubit gates applied to psi.

    ``deltas`` has shape (..., 5); both returned arrays drop that last axis.
    """
    th = base.theta + deltas[..., 0]
    s, c = np.sin(th), np.cos(th)
    u = _expi(base.phi1 + deltas[..., 1]) * psi[0]
    v = _expi(base.phi2 + deltas[..., 2]) * psi[1]
    out0 = _expi(base.chi1 + deltas[..., 3]) * (s * u + c * v)
    out1 = _expi(base.chi2 + deltas[..., 4]) * (c * u - s * v)
    return out0, out1


def _unit_vector(input_state: Sequence[complex], dim: int) -> np.ndarray:
    psi = np.asarray(input_state, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"input state must have {dim} amplitudes")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("input state must be non-zero")
    return psi / norm


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_fidelity(
    nu: float,
    num_copies: int,
    samples: int,
    *,
    seed: int,
    gate: GateParams | None = None,
    input_state: Sequence[complex] = (1.0, 0.0),
    kind: str = "gaussian",
    chunk_size: int = DEFAULT_CHUNK,
) -> GateRunResult:
    """Success probability and conditional fidelity of the averaged gate.

    Fidelity is measured against the noiseless gate applied to the same
    input; see the module docstring for the two reported estimators.
    """
    if num_copies < 1:
        raise ValueError("num_copies must be at least 1")
    base = gate if gate is not None else named_gate("I")
    noise = NoiseSpec(nu, kind)
    psi = _unit_vector(input_state, 2)
    target = single_qubit_matrix(base) @ psi

    def run_block(idx: int, lo: int, n: int, count: int):
        out0, out1 = _batched_single_qubit_out(base, draw(idx, lo, n), psi)
        m0 = out0.mean(axis=1)
        m1 = out1.mean(axis=1)
        a = np.conj(target[0]) * m0 + np.conj(target[1]) * m1
        return a, np.abs(m0) ** 2 + np.abs(m1) ** 2

    draw = _block_draw(seed, _STREAM_GATES, partial(sample_deltas, noise), (num_copies, 5))
    return _sweep(samples, chunk_size, _SAMPLES_PER_BLOCK, run_block)[0]


def estimate_end_to_end(
    nu: float,
    num_copies: int,
    samples: int,
    *,
    seed: int,
    encoder_noise: EncoderNoise | None = None,
    chunk_size: int = 4096,
) -> GateRunResult:
    """Success probability and fidelity through the assembled splitter tree.

    Unlike ``estimate_fidelity`` this routes every realization of the I gate
    on |0>, with gaussian gate offsets, through the explicit encoder/gates/
    decoder interferometer, optionally with jittering splitters, and
    postselects on the copy-0 rails.  Trees are built in stacks of at most
    ``_TREES_PER_SLICE``, and ``success_branch`` contracts only their copy-0
    block; every value equals the one the whole matrix of a single-tree
    ``build_tree`` call per sample gives, bit for bit.
    """
    if num_copies < 1 or num_copies & (num_copies - 1):
        raise ValueError("num_copies must be a power of two")
    base = named_gate("I")
    psi = np.array([1.0, 0.0], dtype=complex)
    target = single_qubit_matrix(base) @ psi
    noise = NoiseSpec(nu)
    gate_draw = _block_draw(seed, _STREAM_GATES, partial(sample_deltas, noise), (num_copies, 5))
    n_deltas = 0
    if encoder_noise is not None:
        n_deltas = num_splitter_deltas(num_copies, 2, encoder_noise.correlated)
        splitter_draw = _block_draw(seed, _STREAM_SPLITTERS, encoder_noise.draw, (n_deltas,))

    def run_block(idx: int, lo: int, n: int, count: int):
        # the offsets are freed as soon as the gates are built
        gates_mat = single_qubit_matrix(base, gate_draw(idx, lo, n))
        if n_deltas:
            # a chunk's decoder offsets follow all its encoder offsets
            enc = splitter_draw(idx, lo, n)
            dec = splitter_draw(idx, count + lo, n)
        amps = np.empty(n, dtype=complex)
        probs = np.empty(n)
        for start in range(0, n, _TREES_PER_SLICE):
            part = slice(start, start + _TREES_PER_SLICE)
            circ = build_tree(
                gates_mat[part],
                encoder_deltas=enc[part] if n_deltas else None,
                decoder_deltas=dec[part] if n_deltas else None,
            )
            out = success_branch(circ) @ psi
            # Per-tree vector dot products, the same BLAS calls as one tree.
            amps[part] = (np.conj(target) @ out[:, :, None])[:, 0]
            probs[part] = (np.conj(out)[:, None, :] @ out[:, :, None])[:, 0, 0].real
        return amps, probs

    # One block per chunk, so on the calling thread: tree-e2e passes (2 shared
    # cores) took 0.031-0.035 s so, 0.051-0.062 s with 128-tree blocks as pool
    # tasks and 0.034-0.040 s with one pool task per chunk.
    return _sweep(samples, chunk_size, chunk_size, run_block)[0]


def estimate_fusion(
    nu: float,
    num_copies: int,
    samples: int,
    *,
    seed: int,
    layout: str = "type2",
    kind: str | None = None,
    single_photon_mode: int = 0,
    photon_pair: tuple[int, int] = (0, 2),
    chunk_size: int = 16384,
) -> FusionRunResult:
    """Per-photon and two-photon measures of the averaged fusion network.

    ``layout`` selects the noisy parameterization: ``type2`` jitters the four
    splitter angles (two per path), ``four-mode`` jitters all twenty block
    parameters (six per path).  The per-photon run sends one photon into
    ``single_photon_mode``; the two-photon run sends the pair ``photon_pair``.
    """
    if num_copies < 1:
        raise ValueError("num_copies must be at least 1")
    if layout not in ("type2", "four-mode"):
        raise ValueError(f"unknown layout {layout!r}")
    if not 0 <= single_photon_mode < 4:
        raise ValueError(f"mode index out of range in {single_photon_mode=}")
    if kind is None:
        kind = "four-moment" if layout == "type2" else "gaussian"
    noise = NoiseSpec(nu, kind)
    ideal = fusion_type2_matrix()
    psi = np.zeros(4, dtype=complex)
    psi[single_photon_mode] = 1.0
    target1 = ideal @ psi
    s_in = pair_state(photon_pair[0], photon_pair[1], 4)
    s_target = evolve_pair(ideal, s_in)

    if layout == "type2":
        shape, build = (num_copies, 4), fusion_type2_matrix
    else:
        shape, build = (num_copies, 4, 5), four_mode_matrix

    def run_block(idx: int, lo: int, n: int, count: int):
        avg = build(deltas=draw(idx, lo, n)).mean(axis=1)
        out1 = avg @ psi
        s_out = evolve_pair(avg, s_in)
        return (
            out1,
            np.sum(np.abs(out1) ** 2, axis=1),
            2.0 * np.sum(np.conj(s_target) * s_out, axis=(1, 2)),
            2.0 * np.sum(np.abs(s_out) ** 2, axis=(1, 2)),
        )

    def series(out1, p1, a2, p2):
        # Over the chunk in near-equal parts of at most _OVERLAP_ROWS rows:
        # gemv gives each row the same bits at any row count, but numpy
        # hands a one-row product to BLAS dot, which rounds unlike gemv, and
        # array_split leaves a one-row part only for a one-row chunk.
        parts = np.array_split(out1, -(-len(out1) // _OVERLAP_ROWS))
        a1 = np.concatenate([part @ np.conj(target1) for part in parts])
        return [(a1, p1), (a2, p2)]

    draw = _block_draw(seed, _STREAM_GATES, partial(sample_deltas, noise), shape)
    return FusionRunResult(
        *_sweep(samples, chunk_size, _FUSION_SAMPLES_PER_BLOCK, run_block, series)
    )


# ---------------------------------------------------------------------------
# second-order variant discrimination
# ---------------------------------------------------------------------------

def discriminate(points: Sequence[dict]) -> dict:
    """Rank the published second-order success-probability laws on data.

    Each point needs keys ``nu``, ``num_copies``, ``mean`` and ``stderr``.
    The shared first-order part is subtracted and the remainder, scaled by
    1/nu^2, is (a) fit to a + b/N + c/N^2 by weighted least squares and
    (b) compared against each published variant by chi-square.  Lowest
    chi-square wins.
    """
    if len(points) < 3:
        raise ValueError("need at least three grid points")
    depth = GATE_DEPTHS["single-qubit"]
    rows = []
    for pt in points:
        nu = float(pt["nu"])
        big_n = float(pt["num_copies"])
        if nu <= 0 or pt["stderr"] <= 0:
            raise ValueError("grid points need nu > 0 and stderr > 0")
        resid = (pt["mean"] - success_prob_first_order(depth * nu, big_n)) / nu**2
        sigma = pt["stderr"] / nu**2
        rows.append((nu, big_n, resid, sigma))

    # weighted LS for the empirical second-order coefficient a + b/N + c/N^2
    design = np.array([[1.0, 1.0 / bn, 1.0 / bn**2] for _, bn, _, _ in rows])
    resid = np.array([r for _, _, r, _ in rows])
    weight = np.array([1.0 / s for _, _, _, s in rows])
    coef, *_ = np.linalg.lstsq(design * weight[:, None], resid * weight, rcond=None)

    chisq = {}
    for variant in SINGLE_QUBIT_VARIANTS:
        total = 0.0
        for nu, big_n, r, sigma in rows:
            first = success_prob_first_order(depth * nu, big_n)
            predicted = (success_prob_single(nu, big_n, variant) - first) / nu**2
            total += ((r - predicted) / sigma) ** 2
        chisq[variant] = total
    selected = min(chisq, key=chisq.get)
    return {
        "points": [
            {
                "nu": nu,
                "num_copies": big_n,
                "second_order_coeff": r,
                "stderr": sigma,
            }
            for nu, big_n, r, sigma in rows
        ],
        "fitted_coefficients": {
            "const": float(coef[0]),
            "inv_n": float(coef[1]),
            "inv_n_sq": float(coef[2]),
        },
        "chi_square": {k: float(v) for k, v in chisq.items()},
        "selected": selected,
    }


def derive_point_seed(seed: int, index: int) -> int:
    """Stable per-grid-point seed derived from one master seed."""
    return int(np.random.SeedSequence([seed, 1000 + index]).generate_state(1)[0])


def grid_estimates(
    nus: Sequence[float],
    copies: Sequence[int],
    samples_per_point: int,
    *,
    seed: int,
    estimator: Callable | None = None,
) -> Iterator[tuple[float, int, object]]:
    """Yield (nu, N, run) for every point of the (nu, N) grid, nu-major.

    Point i is ``estimator(nu, N, samples_per_point, seed=derive_point_seed(seed, i))``,
    so the runs are independent across points yet fully reproducible from
    ``seed``.  Without an estimator each point runs this module's
    ``estimate_fidelity``, looked up as the point is sampled.
    """
    for i, (nu, big_n) in enumerate(product(nus, copies)):
        run = (estimator or estimate_fidelity)(
            nu, big_n, samples_per_point, seed=derive_point_seed(seed, i)
        )
        yield nu, big_n, run
