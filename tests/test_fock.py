"""Tests for the sparse one- and two-photon state machinery."""

import numpy as np
import pytest

from uasim.fock import (
    PhotonicState,
    apply_matrix,
    apply_single_photon,
    apply_two_photon,
    vacuum_project,
)

RNG = np.random.default_rng(402)


def random_unitary(d, rng=RNG):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def expand_two_photon_brute_force(m, state):
    """Independent oracle: expand a†_k a†_l term by term instead of by congruence."""
    d = state.num_modes
    out = np.zeros((d, d), dtype=complex)
    for (k, l), amp in state.items():
        # recover the monomial coefficient of a†_k a†_l from the normalized amplitude
        coeff = amp / np.sqrt(2.0) if k == l else amp
        for i in range(d):
            for j in range(d):
                out[i, j] += coeff * m[i, k] * m[j, l]
    amps = {}
    for i in range(d):
        a = np.sqrt(2.0) * out[i, i]
        if a != 0:
            amps[(i, i)] = a
        for j in range(i + 1, d):
            a = out[i, j] + out[j, i]
            if a != 0:
                amps[(i, j)] = a
    return amps


def test_hong_ou_mandel_dip():
    """Two photons on a balanced splitter never exit on different ports."""
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
    state = PhotonicState.two_photon(0, 1, num_modes=2)
    out = apply_two_photon(h, state)
    assert abs(out.amplitude((0, 1))) < 1e-15
    assert abs(out.amplitude((0, 0))) == pytest.approx(1 / np.sqrt(2.0))
    assert abs(out.amplitude((1, 1))) == pytest.approx(1 / np.sqrt(2.0))
    assert out.norm_sq() == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_congruence_matches_brute_force_expansion(d):
    for _ in range(5):
        m = random_unitary(d)
        amps = {
            (0, 1): 0.5,
            (1, 1): 0.5j,
            (0, 0): 0.5,
            (d - 1, d - 1): -0.5,
        }
        state = PhotonicState(d, amps)
        fast = apply_two_photon(m, state)
        slow = expand_two_photon_brute_force(m, state)
        keys = set(slow) | set(fast.occupations())
        for key in keys:
            assert fast.amplitude(key) == pytest.approx(slow.get(key, 0.0), abs=1e-12)


def test_two_photon_norm_preserved_under_unitary():
    m = random_unitary(4)
    state = PhotonicState(4, {(0, 2): 0.6, (1, 1): 0.8j})
    out = apply_two_photon(m, state)
    assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)


def test_single_photon_is_plain_matrix_action():
    m = random_unitary(3)
    state = PhotonicState(3, {(0,): 0.6, (2,): 0.8})
    out = apply_single_photon(m, state)
    np.testing.assert_allclose(out.to_vector(), m @ state.to_vector(), atol=1e-14)


def test_apply_matrix_dispatches_on_photon_number():
    m = random_unitary(2)
    one = PhotonicState.single_photon(0, 2)
    two = PhotonicState.two_photon(0, 1, 2)
    assert apply_matrix(m, one).photons == 1
    assert apply_matrix(m, two).photons == 2


def test_monomial_matrix_round_trip():
    state = PhotonicState(3, {(0, 0): 0.5, (0, 2): 0.5j, (1, 2): -0.5, (1, 1): 0.5})
    # applying the identity goes through the monomial representation and back
    back = apply_two_photon(np.eye(3), state)
    for key in state.occupations():
        assert back.amplitude(key) == pytest.approx(state.amplitude(key))
    s = state.to_monomial_matrix()
    np.testing.assert_allclose(s, s.T)


def test_vacuum_project_drops_support_on_error_modes():
    state = PhotonicState(4, {(0,): 0.6, (2,): 0.48, (3,): 0.64})
    kept, prob = vacuum_project(state, [2, 3])
    assert prob == pytest.approx(0.36)
    assert kept.amplitude((0,)) == pytest.approx(0.6)
    assert kept.amplitude((2,)) == 0.0

    # two-photon case: a pair straddling a kept and an error mode is removed
    pair = PhotonicState(4, {(0, 1): 0.8, (1, 3): 0.6})
    kept, prob = vacuum_project(pair, [3])
    assert prob == pytest.approx(0.64)
    assert kept.amplitude((1, 3)) == 0.0


def test_vacuum_project_total_herald():
    state = PhotonicState.single_photon(1, 3)
    kept, prob = vacuum_project(state, [1])
    assert prob == 0.0
    assert kept.norm_sq() == 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        PhotonicState(2, {(0, 1, 1): 1.0})
    with pytest.raises(ValueError):
        PhotonicState(2, {(0,): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError):
        PhotonicState(2, {(2,): 1.0})
    with pytest.raises(ValueError):
        PhotonicState(2, {})


def test_restricted_relabels_support():
    state = PhotonicState(6, {(2,): 0.6, (4,): 0.8})
    sub = state.restricted([2, 4])
    assert sub.num_modes == 2
    assert sub.amplitude((0,)) == pytest.approx(0.6)
    assert sub.amplitude((1,)) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        state.restricted([0, 1])
