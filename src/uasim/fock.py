"""Sparse Fock-state simulation for one- and two-photon states of optical modes.

States live in a fixed photon-number sector and are stored as a sparse map from
occupied-mode tuples to complex amplitudes.  A mode matrix ``m`` acts on creation
operators as ``a†_k -> sum_i m[i, k] a†_i``; for two photons this induces the
symmetrized bilinear action with the usual bosonic sqrt(2) factors for doubly
occupied modes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PhotonicState",
    "apply_matrix",
    "apply_single_photon",
    "apply_two_photon",
    "vacuum_project",
]

_SQRT2 = np.sqrt(2.0)


class PhotonicState:
    """An n-photon state (n = 1 or 2) over ``num_modes`` optical modes.

    Amplitudes are keyed by sorted tuples of occupied mode indices, e.g.
    ``(3,)`` for one photon in mode 3, ``(0, 2)`` for photons in modes 0 and 2,
    ``(1, 1)`` for two photons in mode 1.  Keys use the normalized Fock basis,
    so ``|2_k>`` carries its own amplitude (no combinatorial weights hidden in
    the dict).
    """

    __slots__ = ("num_modes", "photons", "_amps")

    def __init__(self, num_modes: int, amplitudes: dict[tuple[int, ...], complex]):
        if num_modes < 1:
            raise ValueError("need at least one mode")
        photons = None
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in amplitudes.items():
            key = tuple(sorted(int(i) for i in occ))
            if photons is None:
                photons = len(key)
            elif len(key) != photons:
                raise ValueError("mixed photon numbers in one state")
            if any(i < 0 or i >= num_modes for i in key):
                raise ValueError(f"mode index out of range in {key}")
            if amp != 0:
                amps[key] = amps.get(key, 0.0) + complex(amp)
        if photons is None or photons == 0:
            raise ValueError("state must contain at least one photon")
        if photons > 2:
            raise ValueError("only one- and two-photon sectors are supported")
        self.num_modes = int(num_modes)
        self.photons = photons
        self._amps = amps

    # -- constructors -------------------------------------------------------

    @classmethod
    def single_photon(cls, mode: int, num_modes: int) -> "PhotonicState":
        """One photon in ``mode``, vacuum elsewhere."""
        return cls(num_modes, {(mode,): 1.0})

    @classmethod
    def two_photon(cls, mode_a: int, mode_b: int, num_modes: int) -> "PhotonicState":
        """One photon each in ``mode_a`` and ``mode_b`` (may coincide)."""
        return cls(num_modes, {(mode_a, mode_b): 1.0})

    # -- accessors ----------------------------------------------------------

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return self._amps.get(tuple(sorted(occ)), 0.0)

    def items(self):
        return self._amps.items()

    def occupations(self):
        return self._amps.keys()

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self._amps.values()))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def overlap(self, other: "PhotonicState") -> complex:
        """<self|other> in the shared occupation basis."""
        if self.num_modes != other.num_modes or self.photons != other.photons:
            raise ValueError("states live in different sectors")
        keys = self._amps.keys() & other._amps.keys()
        return complex(sum(np.conj(self._amps[k]) * other._amps[k] for k in keys))

    def normalized(self) -> "PhotonicState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return PhotonicState(self.num_modes, {k: a / n for k, a in self._amps.items()})

    def scaled(self, factor: complex) -> "PhotonicState":
        return PhotonicState(self.num_modes, {k: a * factor for k, a in self._amps.items()})

    def restricted(self, modes) -> "PhotonicState":
        """Relabel onto the sub-register ``modes`` (state must be supported there)."""
        modes = list(modes)
        index = {m: i for i, m in enumerate(modes)}
        out: dict[tuple[int, ...], complex] = {}
        for occ, amp in self._amps.items():
            try:
                out[tuple(sorted(index[i] for i in occ))] = amp
            except KeyError:
                raise ValueError(f"support on mode outside {modes}: {occ}") from None
        return PhotonicState(len(modes), out)

    # -- dense views --------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Dense amplitude vector (single-photon states only)."""
        if self.photons != 1:
            raise ValueError("to_vector is defined for single-photon states")
        v = np.zeros(self.num_modes, dtype=complex)
        for (i,), a in self._amps.items():
            v[i] = a
        return v

    def to_monomial_matrix(self) -> np.ndarray:
        """Symmetric matrix S with |psi> = sum_{kl} S_kl a†_k a†_l |0> (two photons)."""
        if self.photons != 2:
            raise ValueError("to_monomial_matrix is defined for two-photon states")
        s = np.zeros((self.num_modes, self.num_modes), dtype=complex)
        for (k, l), a in self._amps.items():
            if k == l:
                s[k, k] = a / _SQRT2
            else:
                s[k, l] = s[l, k] = a / 2.0
        return s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{occ}: {amp:.4g}" for occ, amp in sorted(self._amps.items()))
        return f"PhotonicState({self.num_modes} modes, {{{terms}}})"


def _state_from_vector(v: np.ndarray) -> PhotonicState:
    amps = {(int(i),): v[i] for i in np.flatnonzero(v != 0)}
    if not amps:
        return _zero_like(len(v), 1)
    return PhotonicState(len(v), amps)


def _zero_like(num_modes: int, photons: int) -> PhotonicState:
    # A PhotonicState cannot hold an all-zero dict through the constructor's
    # pruning, so build one and clear it by hand.
    st = PhotonicState.single_photon(0, num_modes) if photons == 1 else PhotonicState.two_photon(0, 0, num_modes)
    st._amps = {}
    return st


def _state_from_monomial_matrix(s: np.ndarray) -> PhotonicState:
    d = s.shape[0]
    amps: dict[tuple[int, ...], complex] = {}
    for k in range(d):
        if s[k, k] != 0:
            amps[(k, k)] = _SQRT2 * s[k, k]
        for l in range(k + 1, d):
            a = s[k, l] + s[l, k]
            if a != 0:
                amps[(k, l)] = a
    if not amps:
        return _zero_like(d, 2)
    return PhotonicState(d, amps)


def apply_single_photon(m: np.ndarray, state: PhotonicState) -> PhotonicState:
    """Evolve a one-photon state by the mode matrix ``m`` (need not be unitary)."""
    if state.photons != 1:
        raise ValueError("state is not in the single-photon sector")
    if m.shape != (state.num_modes, state.num_modes):
        raise ValueError("matrix dimension does not match the mode register")
    return _state_from_vector(np.asarray(m, dtype=complex) @ state.to_vector())


def apply_two_photon(m: np.ndarray, state: PhotonicState) -> PhotonicState:
    """Evolve a two-photon state: the monomial matrix transforms by congruence,
    S -> m S m^T, which is exactly the symmetrized bilinear creation-operator rule."""
    if state.photons != 2:
        raise ValueError("state is not in the two-photon sector")
    if m.shape != (state.num_modes, state.num_modes):
        raise ValueError("matrix dimension does not match the mode register")
    m = np.asarray(m, dtype=complex)
    return _state_from_monomial_matrix(m @ state.to_monomial_matrix() @ m.T)


def apply_matrix(m: np.ndarray, state: PhotonicState) -> PhotonicState:
    """Photon-number dispatching front end for the two apply routines."""
    if state.photons == 1:
        return apply_single_photon(m, state)
    return apply_two_photon(m, state)


def vacuum_project(state: PhotonicState, error_modes) -> tuple[PhotonicState, float]:
    """Project onto vacuum in ``error_modes``.

    Returns the (unnormalized) projected state together with its squared norm,
    i.e. the probability of finding no photon in any of the error modes.  A
    zero-norm projection is returned as-is; callers decide how to treat the
    herald-certain outcome rather than dividing by zero here.
    """
    err = set(int(i) for i in error_modes)
    kept = {occ: amp for occ, amp in state.items() if not (set(occ) & err)}
    if not kept:
        return _zero_like(state.num_modes, state.photons), 0.0
    projected = PhotonicState(state.num_modes, kept)
    return projected, projected.norm_sq()

