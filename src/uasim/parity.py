"""Loss recovery of averaged gates inside the parity code.

A logical qubit is carried by q redundant copies of an n-qubit parity block,
|0> = (|+>^n + |->^n)/sqrt(2) and |1> = (|+>^n - |->^n)/sqrt(2) in the
polarization rails |H>, |V>.  Averaged gates act transversally; a heralded
gate failure kicks the photon of that physical qubit into a monitored error
mode, so gate error becomes located loss.  Recovery measures one surviving
qubit of each damaged copy in the rotated +/- basis and succeeds when at
least one copy is untouched and no damaged copy lost all of its qubits; an
odd number of "-" outcomes leaves a known sign flip on the logical |1>.

``statevector_verify`` checks that story against a brute-force amplitude
simulation of all n*q qubits.  Qubit i keeps axis i of the amplitude tensor
from start to finish (a heralded or measured qubit shrinks it to length 1),
and the herald amplitudes are drawn from the caller's ``rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

__all__ = [
    "ParityCode",
    "LogicalState",
    "HeraldPattern",
    "VerifierReport",
    "success_criteria",
    "logical_success_prob",
    "enumerate_success_prob",
    "parity_block_state",
    "encoded_state",
    "statevector_verify",
]

_SQRT2 = math.sqrt(2.0)
_ONE = np.ones(1)  # the factor of a qubit whose axis has shrunk to length 1


@dataclass(frozen=True)
class ParityCode:
    """Code shape: q redundant copies of an n-qubit parity block."""

    n: int
    q: int

    def __post_init__(self):
        if self.n < 1 or self.q < 1:
            raise ValueError("need n >= 1 qubits per block and q >= 1 copies")

    @property
    def physical_qubits(self) -> int:
        return self.n * self.q

    def copy_slice(self, copy: int) -> slice:
        if not 0 <= copy < self.q:
            raise ValueError(f"copy index {copy} out of range")
        return slice(copy * self.n, (copy + 1) * self.n)


@dataclass(frozen=True)
class LogicalState:
    """Normalized logical amplitudes alpha |0>_L + beta |1>_L.

    Public as the logical input of ``encoded_state`` and ``statevector_verify``.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("logical state must be normalized")

    @classmethod
    def random(cls, rng: np.random.Generator) -> "LogicalState":
        v = rng.standard_normal(4)
        a = complex(v[0], v[1])
        b = complex(v[2], v[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        return cls(a / norm, b / norm)


@dataclass(frozen=True)
class HeraldPattern:
    """One herald flag per physical qubit (True = photon seen in an error mode)."""

    flags: tuple[bool, ...]

    def __init__(self, flags: Sequence[bool]):
        object.__setattr__(self, "flags", tuple(bool(f) for f in flags))

    @classmethod
    def from_indices(cls, indices: Sequence[int], code: ParityCode) -> "HeraldPattern":
        flags = [False] * code.physical_qubits
        for i in indices:
            if not 0 <= i < code.physical_qubits:
                raise ValueError(f"qubit index {i} out of range")
            flags[i] = True
        return cls(flags)

    def copy_flags(self, code: ParityCode, copy: int) -> tuple[bool, ...]:
        return self.flags[code.copy_slice(copy)]

    def errored_copies(self, code: ParityCode) -> tuple[int, ...]:
        return tuple(
            c for c in range(code.q) if any(self.copy_flags(code, c))
        )


def success_criteria(pattern: HeraldPattern, code: ParityCode) -> bool:
    """True when recovery is possible: at least one copy saw no herald, and
    every copy that did still has an unheralded qubit to measure."""
    if len(pattern.flags) != code.physical_qubits:
        raise ValueError("pattern length does not match the code")
    clean = 0
    for c in range(code.q):
        flags = pattern.copy_flags(code, c)
        if not any(flags):
            clean += 1
        elif all(flags):
            return False
    return clean >= 1


def logical_success_prob(code: ParityCode, p):
    """Probability that i.i.d. per-qubit heralds with rate p are recoverable.

    With c = (1-p)^n the chance of a clean copy and s = 1 - c - p^n of a
    damaged-but-recoverable one, this is (c+s)^q - s^q.  The arithmetic stays
    in the type of ``p``, so Fraction inputs give exact rationals.
    """
    if not 0 <= p <= 1:
        raise ValueError("herald probability must lie in [0, 1]")
    c = (1 - p) ** code.n
    s = 1 - c - p**code.n
    return (c + s) ** code.q - s**code.q


def enumerate_success_prob(code: ParityCode, p):
    """The same probability by brute force over all 2^(nq) herald patterns.

    Public as the independent oracle for ``logical_success_prob``; refuses
    more than 16 physical qubits (65 536 patterns).
    """
    if not 0 <= p <= 1:
        raise ValueError("herald probability must lie in [0, 1]")
    m = code.physical_qubits
    if m > 16:
        raise ValueError("enumeration is capped at 16 physical qubits")
    total = 0 * p
    for bits in product((False, True), repeat=m):
        if success_criteria(HeraldPattern(bits), code):
            k = sum(bits)
            total = total + p**k * (1 - p) ** (m - k)
    return total


# ---------------------------------------------------------------------------
# state-vector verification
# ---------------------------------------------------------------------------


def parity_block_state(n: int, bit: int) -> np.ndarray:
    """|0>^(n) or |1>^(n) as a rank-n amplitude tensor in the H/V basis.

    Public with ``encoded_state`` as the starting point of the
    ``statevector_verify`` oracle, so that tests can check the block states
    the oracle rests on.
    """
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return _gated_block_state(np.eye(2), n, bit)


def _gated_block_state(u: np.ndarray, n: int, bit: int) -> np.ndarray:
    """u on every qubit of |bit>^(n): ((u|+>)^n +/- (u|->)^n)/sqrt(2)."""
    plus = u @ (np.array([1.0, 1.0]) / _SQRT2)
    minus = u @ (np.array([1.0, -1.0]) / _SQRT2)
    all_plus = reduce(np.multiply.outer, [plus] * n)
    all_minus = reduce(np.multiply.outer, [minus] * n)
    if bit == 0:
        return (all_plus + all_minus) / _SQRT2
    return (all_plus - all_minus) / _SQRT2


def _superpose(alpha, beta, zeros, ones) -> np.ndarray:
    """alpha (x)_c zeros[c] + beta (x)_c ones[c], the copies' axes in order."""
    return alpha * reduce(np.multiply.outer, zeros) + beta * reduce(np.multiply.outer, ones)


def encoded_state(code: ParityCode, logical: LogicalState) -> np.ndarray:
    """Full encoded amplitude tensor, one axis per physical qubit.

    Public as the register ``statevector_verify`` starts from.
    """
    zero = parity_block_state(code.n, 0)
    one = parity_block_state(code.n, 1)
    return _superpose(logical.alpha, logical.beta, [zero] * code.q, [one] * code.q)


def _apply_on_axis(state: np.ndarray, u: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(u, state, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class VerifierReport:
    """Outcome of a state-vector check; public as ``statevector_verify``'s return type."""

    passed: bool
    deviation: float
    outcomes: tuple[int, ...]
    heralded_qubits: tuple[int, ...]
    message: str = ""

    def __bool__(self) -> bool:
        return self.passed


def statevector_verify(
    code: ParityCode,
    pattern: HeraldPattern,
    u_target: np.ndarray,
    logical: LogicalState,
    outcomes: Sequence[int],
    *,
    rng: np.random.Generator | None = None,
    atol: float = 1e-10,
) -> VerifierReport:
    """Simulate recovery on the full register and compare to the closed form.

    Each qubit gets one operator: the target gate, its herald row, or, for
    the lowest-index survivor of a damaged copy, the gate followed by the
    measurement in the rotated basis u_target (|0> +/- |1>)/sqrt(2) with the
    prescribed outcome.  Qubit i stays on axis i throughout; a heralded or
    measured qubit keeps its axis with length 1.  The result must match, up
    to a global phase, the target gate applied transversally to the clean
    copies — with the sign of the logical |1> flipped when the number of "-"
    outcomes is odd — each leftover survivor sitting in its rotated +/- state.

    Herald amplitudes are drawn from ``rng``, four standard normals / sqrt(2)
    per heralded qubit in qubit order.  Keeps to registers of at most 16
    qubits.  Public as the brute-force oracle for the recovery story
    ``success_criteria`` encodes.
    """
    m = code.physical_qubits
    if m > 16:
        raise ValueError("state-vector verification is capped at 16 qubits")
    if len(pattern.flags) != m:
        raise ValueError("pattern length does not match the code")
    u = np.asarray(u_target, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("u_target must be a 2x2 matrix")
    heralded = tuple(i for i, f in enumerate(pattern.flags) if f)
    errored = pattern.errored_copies(code)
    if not success_criteria(pattern, code):
        raise ValueError("pattern violates the recovery criteria")
    outcomes = tuple(1 if o >= 0 else -1 for o in outcomes)
    if len(outcomes) != len(errored):
        raise ValueError("need one measurement outcome per damaged copy")
    if heralded and rng is None:
        raise ValueError("heralds need an rng to draw their amplitudes")

    # the rotated +/- state each damaged copy is measured in
    bases = {c: u @ (np.array([1.0, float(o)]) / _SQRT2) for c, o in zip(errored, outcomes)}

    ops = [u] * m
    for qubit in heralded:
        # the photon reaches the error mode as delta_h a - delta_v b from rails (a, b)
        v = rng.standard_normal(4) / _SQRT2
        ops[qubit] = np.array([[complex(v[0], v[1]), -complex(v[2], v[3])]])
    for copy, basis in bases.items():
        # disentangling measurement: lowest-index survivor of each damaged copy
        survivor = code.n * copy + pattern.copy_flags(code, copy).index(False)
        ops[survivor] = np.conj(basis)[None] @ u
    state = encoded_state(code, logical)
    for axis, op in enumerate(ops):
        state = _apply_on_axis(state, op, axis)

    norm = np.linalg.norm(state)
    if norm < 1e-300:
        return VerifierReport(
            False, float("inf"), outcomes, heralded, "simulated branch has zero weight"
        )
    state = state / norm

    # closed form, copy by copy: a clean copy carries the gate on its logical
    # block; a damaged one is the same in both terms, [1] on each heralded or
    # measured qubit and the rotated state on each leftover survivor
    zeros, ones = [], []
    for copy in range(code.q):
        if copy in bases:
            flags = pattern.copy_flags(code, copy)
            measured = flags.index(False)
            gone = [f or k == measured for k, f in enumerate(flags)]
            block = reduce(np.multiply.outer, [_ONE if g else bases[copy] for g in gone])
            zeros.append(block)
            ones.append(block)
        else:
            zeros.append(_gated_block_state(u, code.n, 0))
            ones.append(_gated_block_state(u, code.n, 1))
    scale = math.sqrt(abs(logical.alpha) ** 2 + abs(logical.beta) ** 2)
    sign = math.prod(outcomes)
    expected = _superpose(logical.alpha / scale, sign * logical.beta / scale, zeros, ones)

    # global-phase alignment before comparing
    overlap = np.vdot(expected, state)
    if abs(overlap) < 1e-300:
        deviation = float(np.max(np.abs(state)))
        return VerifierReport(
            False, deviation, outcomes, heralded, "states are orthogonal"
        )
    deviation = float(np.max(np.abs(state - expected * (overlap / abs(overlap)))))
    passed = deviation <= atol
    msg = "" if passed else f"max amplitude mismatch {deviation:.3e}"
    return VerifierReport(passed, deviation, outcomes, heralded, msg)
