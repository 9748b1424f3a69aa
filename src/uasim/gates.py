"""Parameterized linear-optical gates and their noise models.

The single-qubit (dual-rail) gate is a five-parameter network: input phases
(phi1, phi2), one splitter angle theta, output phases (chi1, chi2).  Every
input-output path crosses exactly three of those parameters, which is what
makes the first-order noise laws path-uniform.  The two-qubit networks built
here (Type-II fusion and the general four-mode gate) keep the same property
with per-path parameter counts 2 and 6.

Every builder is batched (the scalar gate is the empty batch) and writes each
matrix entry from its parameters in elementwise arithmetic, with no matrix
product: the single-qubit entries by hand, and each Type-II and four-mode
entry as the product along its one path through the two block layers, with
both factors read from one pair of tables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GateParams",
    "NoiseSpec",
    "Family",
    "FAMILIES",
    "named_gate",
    "single_qubit_matrix",
    "sample_deltas",
    "fusion_type2_matrix",
    "four_mode_matrix",
]

@dataclass(frozen=True)
class GateParams:
    """Angles of the five-parameter single-qubit gate (radians)."""

    theta: float
    phi1: float
    phi2: float
    chi1: float
    chi2: float


_NAMED = {
    "I": GateParams(math.pi / 2, 0.0, 0.0, 0.0, math.pi),
    "X": GateParams(0.0, 0.0, 0.0, 0.0, 0.0),
    "Y": GateParams(0.0, math.pi / 2, 0.0, -math.pi / 2, 0.0),
    "H": GateParams(math.pi / 4, 0.0, 0.0, 0.0, 0.0),
}


def named_gate(name: str, alpha: float | None = None) -> GateParams:
    """Parameter tuple for a named gate.

    ``Z`` is the phase family Z_alpha = diag(1, -e^{i*alpha}) and requires
    ``alpha`` (Z_0 is the Pauli Z; Z_pi is the identity in this convention).
    """
    if name == "Z":
        if alpha is None:
            raise ValueError("Z gate needs an alpha phase")
        return GateParams(math.pi / 2, 0.0, 0.0, 0.0, float(alpha))
    if alpha is not None:
        raise ValueError(f"gate {name!r} takes no alpha")
    try:
        return _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}; choose from I, X, Y, Z, H") from None


def _expi(x: np.ndarray) -> np.ndarray:
    """e^{ix} for real x, bit for bit ``np.exp(1j * x)``.

    ``1j * x`` is (+-0) + i(0 + x) and exp(+-0 + iy) = cos y + i sin y, so
    writing the two real results into one complex buffer gives the same bytes
    without the complex product and the complex exp.  The ``+ 0.0`` is the
    product's: it turns x = -0.0 into +0.0, whose sine is +0.0.
    """
    x = x + 0.0
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def single_qubit_matrix(p: GateParams, deltas: np.ndarray | None = None) -> np.ndarray:
    """2x2 dual-rail matrix of the five-parameter gate (unitary for all real angles).

    ``deltas`` of shape (..., 5) offsets (theta, phi1, phi2, chi1, chi2) and
    gives the stack of noisy matrices, shape deltas.shape[:-1] + (2, 2); the
    scalar gate is the empty batch.
    """
    if deltas is None:
        deltas = np.zeros(5)
    lead = deltas.shape[:-1]
    # Keep a batch axis even for one gate: numpy rounds a product of complex
    # scalars differently from its array loops, and the empty batch must
    # match every row of a longer one bit for bit.
    d = deltas if lead else deltas[None]
    th = p.theta + d[..., 0]
    s, c = np.sin(th), np.cos(th)
    e1 = _expi(p.phi1 + d[..., 1])
    e2 = _expi(p.phi2 + d[..., 2])
    f1 = _expi(p.chi1 + d[..., 3])
    f2 = _expi(p.chi2 + d[..., 4])
    m = np.empty(d.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = e1 * f1 * s
    m[..., 0, 1] = e2 * f1 * c
    m[..., 1, 0] = e1 * f2 * c
    m[..., 1, 1] = -e2 * f2 * s
    return m.reshape(lead + (2, 2))


# ---------------------------------------------------------------------------
# noise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of the additive parameter offsets delta: a finite,
    non-negative variance nu and a kind.

    kind:
        ``gaussian``     N(0, variance); fourth moment 3 nu^2.
        ``uniform``      uniform on [-sqrt(3 nu), +sqrt(3 nu)] (matched variance).
        ``four-moment``  the two-point law +/- sqrt(nu), fourth moment nu^2,
                         that Type-II fusion assumes.
    """

    variance: float
    kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 <= self.variance < math.inf:
            raise ValueError("variance must be finite and non-negative")
        if self.kind not in ("gaussian", "uniform", "four-moment"):
            raise ValueError(f"unknown noise kind {self.kind!r}")


def sample_deltas(noise: NoiseSpec, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw parameter offsets of the given shape.

    Every delta consumes exactly one uniform variate (inverse-CDF sampling),
    which keeps stream layouts deterministic regardless of the distribution.
    The continuous kinds map the uniform buffer in place; scipy is imported on
    the first gaussian draw, so a run that draws none never loads it.
    """
    u = rng.random(shape)
    nu = noise.variance
    if nu == 0.0:
        return np.zeros(shape)
    if noise.kind == "gaussian":
        from scipy.special import ndtri

        # ndtri maps (0,1) -> standard normal; rng.random() draws from [0, 1)
        # and can return 0.0 (ndtri -> -inf), so raise the draw to at least
        # 1e-16.  Its largest value, 1 - 2^-53, already lies below 1.
        np.maximum(u, 1e-16, out=u)
        ndtri(u, out=u)
        u *= math.sqrt(nu)
        return u
    if noise.kind == "uniform":
        # where 3 nu overflows, 2 sqrt(0.75 nu) is sqrt(3 nu) rounded alike
        half = math.sqrt(3.0 * nu) if 3.0 * nu < math.inf else 2.0 * math.sqrt(0.75 * nu)
        u *= 2.0
        u -= 1.0
        u *= half
        return u
    # two-point: +/- a with probability p each.  At m4 = nu * nu these are
    # sqrt(nu) and 1/2 in exact arithmetic; the expressions fix their floats
    # (math.sqrt(nu) and 0.5 can differ by an ulp), and with them the draws.
    # Where nu * nu is subnormal or 0 they lose their digits or divide by
    # zero, and where 2 nu nu overflows p is 0; there the exact values stand.
    m4 = nu * nu
    a, p = math.sqrt(nu), 0.5
    if sys.float_info.min <= m4 and 2.0 * m4 < math.inf:
        a, p = math.sqrt(m4 / nu), nu**2 / (2.0 * m4)
    out = np.zeros(shape)
    out[u < p] = -a
    out[u > 1.0 - p] = a
    return out


# ---------------------------------------------------------------------------
# two-qubit networks
# ---------------------------------------------------------------------------


# Each entry (i, j) of both two-qubit networks lies on one path: output i
# leaves one entry of block C or D and input j enters one entry of A or B.
# With blocks A..D flattened to 16 entries (4 * block + 2 * row + col),
# _POST[i, j] is the post factor of (i, j), which depends on (i, j // 2),
# and _PRE[i, j] the pre factor, which depends on (i // 2, j).
_POST = np.array([[8, 8, 9, 9], [10, 10, 11, 11], [13, 13, 12, 12], [15, 15, 14, 14]])
_PRE = np.array([[0, 1, 6, 7], [0, 1, 6, 7], [2, 3, 4, 5], [2, 3, 4, 5]])


def _splitter(deltas: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries (sin, cos, cos, -sin) of the real splitter [[sin t, cos t],
    [cos t, -sin t]] at t = pi/4 + deltas, 50:50 at zero offset."""
    t = math.pi / 4 + deltas
    s, c = np.sin(t), np.cos(t)
    return s, c, c, -s


def fusion_type2_matrix(
    deltas: np.ndarray | None = None, columns: Sequence[int] = (0, 1, 2, 3)
) -> np.ndarray:
    """Type-II fusion network: splitters (theta1 on modes 1,2; theta2 on 3,4),
    swap of modes 2,4, then splitters (theta3 on 1,2; theta4 on 3,4).

    The four-mode layout with splitters theta1..theta4 as blocks A..D: each
    path crosses two splitter angles, and each entry is the real product of
    its two factors.  The nominal setting is 50:50, every theta at pi/4;
    ``deltas`` of shape (..., 4) offsets the four angles and gives the stack
    of noisy matrices.  ``columns`` names the input modes whose matrix
    columns are returned, in order, so the shape is deltas.shape[:-1] +
    (4, len(columns)); an entry has the same bits whichever columns are
    asked for.
    """
    if deltas is None:
        deltas = np.zeros(4)
    blocks = np.stack(_splitter(deltas), axis=-1).reshape(deltas.shape[:-1] + (16,))
    cols = list(columns)
    # in C order: a copy average over the stack sums by its memory layout
    return np.multiply(blocks[..., _POST[:, cols]], blocks[..., _PRE[:, cols]], order="C")


def four_mode_matrix(
    deltas: np.ndarray | None = None, columns: Sequence[int] = (0, 1, 2, 3)
) -> np.ndarray:
    """Matrix of the general four-mode gate: two layers of single-qubit blocks
    around the 2<->4 swap.

    Layout: [block C on modes 1,2 | block D on modes 3,4] . swap(2,4) .
    [block A on modes 1,2 | block B on modes 3,4].  Twenty parameters in all;
    every path crosses exactly six (three per layer), reproducing the 6-nu
    first-order law.  The nominal setting has every block at ``H``, the 50:50
    zero-phase splitter, where the matrix equals the Type-II network exactly.
    ``deltas`` of shape (..., 4, 5) offsets the five parameters of blocks A..D
    and gives the stack of noisy matrices.  ``columns`` names the input modes
    whose matrix columns are returned, in order, so the shape is
    deltas.shape[:-2] + (4, len(columns)); the blocks are built whole, and an
    entry has the same bits whichever columns are asked for.

    Because of the swap, each input-output pair is joined by one path, so
    every entry of the layer product is a single product of a post-layer and
    a pre-layer entry.  It is formed in real arithmetic, (pr*qr - pi*qi) +
    i(pr*qi + pi*qr) with no fused multiply-add, which gives the bits of the
    zero-padded layers' BLAS product (zgemm) on every OpenBLAS core and numpy
    dispatch level tested; the ``+ 0.0`` makes every zero +0.0, as that
    product's are.
    """
    if deltas is None:
        deltas = np.zeros((4, 5))
    lead = deltas.shape[:-2]
    d = deltas if lead else deltas[None]  # one batch axis, as in single_qubit_matrix
    blocks = single_qubit_matrix(_NAMED["H"], d).reshape(d.shape[:-2] + (16,))
    cols = list(columns)
    p, q = blocks[..., _POST[:, cols]], blocks[..., _PRE[:, cols]]
    m = np.empty(d.shape[:-2] + (4, len(cols)), dtype=complex)
    np.subtract(p.real * q.real, p.imag * q.imag, out=m.real)
    np.add(p.real * q.imag, p.imag * q.real, out=m.imag)
    m += 0.0
    return m.reshape(lead + (4, len(cols)))


# ---------------------------------------------------------------------------
# gate families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """What one gate family is; ``FAMILIES``, the one place a family is
    defined, holds one per family.

    rails    modes the gate acts on: 2 for the single-qubit gate, 4 for the
             fusion networks
    depth    noisy parameters on each input-output path, the d of the laws
             in ``formulas``
    offsets  shape of one copy's parameter offsets
    kind     the ``NoiseSpec`` kind of those offsets
    build    the batched builder: offsets of shape (..., *offsets) to a stack
             of matrices (the single-qubit builder takes its ``GateParams``
             first; the four-rail builders take ``columns=``, the input
             modes whose matrix columns they return)
    """

    rails: int
    depth: int
    offsets: tuple[int, ...]
    kind: str
    build: Callable[..., np.ndarray]


# Keyed by the names ``uasim mc --family`` takes, in the order it lists them.
FAMILIES = {
    "single-qubit": Family(2, 3, (5,), "gaussian", single_qubit_matrix),
    "type2": Family(4, 2, (4,), "four-moment", fusion_type2_matrix),
    "four-mode": Family(4, 6, (4, 5), "gaussian", four_mode_matrix),
}
