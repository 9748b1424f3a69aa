"""Fault-tolerance region mapping under the effective-rate transformation.

A threshold curve gives, for each raw depolarization rate epsilon, the
largest loss rate gamma a code can still correct; points on or below it are
fault-tolerant without averaging.  Averaging N copies moves a physical point
(epsilon, gamma) to (E, Gamma) — less error, more loss — and the question
becomes whether the moved point still sits under the curve.

Curves are never built in: they are read from small CSV files (boundary
points plus a ``# code:`` label); a clearly synthetic demonstration curve
ships with the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib.resources import files
from typing import IO, Sequence

import numpy as np

from .formulas import effective_rates

__all__ = [
    "CurveFormatError",
    "ThresholdCurve",
    "SweepPoint",
    "sweep_region",
    "load_synthetic_curve",
]

class CurveFormatError(ValueError):
    """Raised for unreadable or inconsistent threshold-curve data."""


@dataclass(frozen=True)
class ThresholdCurve:
    """Ordered boundary points (epsilon_i, gamma_i) of one code's threshold."""

    code_name: str
    epsilons: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        eps, gam = self.epsilons, self.gammas
        if len(eps) != len(gam) or len(eps) < 2:
            raise CurveFormatError("curve needs at least two (epsilon, gamma) points")
        for val in (*eps, *gam):
            if not 0.0 < val < 1.0:
                raise CurveFormatError(f"curve coordinate {val!r} outside (0, 1)")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise CurveFormatError("epsilon values must increase strictly")
        if any(b > a for a, b in zip(gam, gam[1:])):
            raise CurveFormatError("gamma values must be non-increasing")

    @classmethod
    def from_csv(cls, source: str | IO[str]) -> "ThresholdCurve":
        """Read a curve file: ``# code: <name>`` line, ``epsilon,gamma``
        header, one point per row.  Errors carry the offending line number.
        """
        if hasattr(source, "read"):
            return cls._parse(source, "<stream>")
        try:
            with open(source, newline="") as fh:
                return cls._parse(fh, str(source))
        except (OSError, UnicodeDecodeError) as exc:
            raise CurveFormatError(f"cannot read curve file {source}: {exc}") from exc

    @classmethod
    def _parse(cls, fh: IO[str], label: str) -> "ThresholdCurve":
        name = ""
        header_seen = False
        eps: list[float] = []
        gam: list[float] = []
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.lower().startswith("code:"):
                    name = body[5:].strip()
                continue
            if not header_seen:
                if [c.strip() for c in line.split(",")] != ["epsilon", "gamma"]:
                    raise CurveFormatError(
                        f"{label}:{lineno}: expected header 'epsilon,gamma', got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise CurveFormatError(f"{label}:{lineno}: expected two columns")
            try:
                eps.append(float(parts[0]))
                gam.append(float(parts[1]))
            except ValueError:
                raise CurveFormatError(
                    f"{label}:{lineno}: non-numeric value in {line!r}"
                ) from None
        if not header_seen:
            raise CurveFormatError(f"{label}: missing 'epsilon,gamma' header")
        if not name:
            raise CurveFormatError(f"{label}: missing '# code: <name>' line")
        try:
            return cls(name, tuple(eps), tuple(gam))
        except CurveFormatError as exc:
            raise CurveFormatError(f"{label}: {exc}") from None

    def gamma_at(self, epsilon: float) -> float | None:
        """Threshold loss at the given error rate, piecewise-linear in
        log-log space; None outside the curve's epsilon extent."""
        if not epsilon > 0:
            return None
        if epsilon < self.epsilons[0] or epsilon > self.epsilons[-1]:
            return None
        log_eps, log_gam = self._log_points
        return math.exp(np.interp(math.log(epsilon), log_eps, log_gam))

    @functools.cached_property
    def _log_points(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.log`` of both coordinate tuples, read-only.  Held in the
        instance dict, outside the fields, so equality and hash ignore it."""
        logs = np.log(self.epsilons), np.log(self.gammas)
        for arr in logs:
            arr.flags.writeable = False
        return logs

    def densified(self) -> "ThresholdCurve":
        """Insert log-log midpoints between neighbors; the interpolant (and
        therefore every verdict) is unchanged."""
        eps: list[float] = []
        gam: list[float] = []
        for i in range(len(self.epsilons) - 1):
            eps.append(self.epsilons[i])
            gam.append(self.gammas[i])
            eps.append(math.sqrt(self.epsilons[i] * self.epsilons[i + 1]))
            gam.append(math.sqrt(self.gammas[i] * self.gammas[i + 1]))
        eps.append(self.epsilons[-1])
        gam.append(self.gammas[-1])
        return ThresholdCurve(self.code_name, tuple(eps), tuple(gam))


@dataclass(frozen=True)
class SweepPoint:
    """One (epsilon, gamma, N) verdict; public as ``sweep_region``'s return type."""

    epsilon: float
    gamma: float
    num_copies: int
    effective_error: float
    effective_loss: float
    fault_tolerant: bool


def sweep_region(
    eps_grid: Sequence[float],
    gamma_grid: Sequence[float],
    n_list: Sequence[int],
    curve: ThresholdCurve,
) -> list[SweepPoint]:
    """Verdict for every (epsilon, gamma, N) combination, N-major order.

    A point is fault-tolerant when its averaged rates land on or under the
    curve.  Effective rates are compared conservatively: an effective error
    outside the curve's data extent counts as not fault-tolerant rather than
    extrapolating the threshold.  Copy counts must be powers of two; the
    rates are checked by ``effective_rates``.
    """
    out = []
    for n in n_list:
        if n < 1 or n & (n - 1):
            raise ValueError("num_copies must be a power of two")
        for eps in eps_grid:
            for gam in gamma_grid:
                err, loss = effective_rates(eps, gam, n)
                limit = curve.gamma_at(err)
                ok = limit is not None and loss <= limit
                out.append(SweepPoint(eps, gam, n, err, loss, ok))
    return out


@functools.cache
def load_synthetic_curve() -> ThresholdCurve:
    """The shipped demonstration curve, read on the first call and shared by
    every later one; a curve is immutable, so sharing it is safe."""
    with (files("uasim") / "data" / "synthetic_curve.csv").open() as fh:
        return ThresholdCurve.from_csv(fh)
