"""Tests of loss recovery in the parity code fed by heralded gates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from uasim.gates import named_gate, single_qubit_matrix
from uasim.parity import (
    HeraldAmplitudes,
    HeraldPattern,
    LogicalState,
    ParityCode,
    encoded_state,
    enumerate_success_prob,
    logical_success_prob,
    parity_block_state,
    statevector_verify,
    success_criteria,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_code_shape():
    code = ParityCode(3, 2)
    assert code.physical_qubits == 6
    assert code.copy_slice(1) == slice(3, 6)
    with pytest.raises(ValueError):
        ParityCode(0, 2)
    with pytest.raises(ValueError):
        code.copy_slice(2)


def test_logical_state_must_be_normalized():
    LogicalState(1.0, 0.0)
    LogicalState(INV_SQRT2, INV_SQRT2 * 1j)
    with pytest.raises(ValueError):
        LogicalState(1.0, 0.5)
    rnd = LogicalState.random(np.random.default_rng(8))
    assert abs(rnd.alpha) ** 2 + abs(rnd.beta) ** 2 == pytest.approx(1.0)


def test_herald_pattern_helpers():
    code = ParityCode(2, 3)
    pat = HeraldPattern.from_indices([1, 4], code)
    assert pat.flags == (False, True, False, False, True, False)
    assert pat.copy_flags(code, 0) == (False, True)
    assert pat.copy_flags(code, 1) == (False, False)
    assert pat.errored_copies(code) == (0, 2)
    assert HeraldPattern.clear(code).errored_copies(code) == ()


@pytest.mark.parametrize("index", [-1, 4, 100])
def test_herald_pattern_rejects_indices_outside_the_register(index):
    # -1 would otherwise flag the last qubit, 4 fail as a bare IndexError
    with pytest.raises(ValueError, match=f"qubit index {index} out of range"):
        HeraldPattern.from_indices([0, index], ParityCode(2, 2))


class TestSuccessCriteria:
    code = ParityCode(2, 2)

    def test_no_heralds_recoverable(self):
        assert success_criteria(HeraldPattern.clear(self.code), self.code)

    def test_partial_damage_recoverable(self):
        assert success_criteria(HeraldPattern([True, False, False, False]), self.code)

    def test_fully_heralded_copy_fails(self):
        assert not success_criteria(HeraldPattern([True, True, False, False]), self.code)

    def test_no_clean_copy_fails(self):
        # both copies keep a survivor, but neither is untouched
        assert not success_criteria(HeraldPattern([True, False, True, False]), self.code)

    def test_pattern_length_checked(self):
        with pytest.raises(ValueError):
            success_criteria(HeraldPattern([True]), self.code)


class TestSuccessProbability:
    def test_frozen_value(self):
        # c = 0.81, s = 0.18: 0.99^2 - 0.18^2
        assert logical_success_prob(ParityCode(2, 2), 0.1) == pytest.approx(0.9477)

    def test_closed_form_equals_enumeration_exactly(self):
        for n, q in [(1, 3), (2, 2), (3, 2), (2, 3), (4, 2)]:
            code = ParityCode(n, q)
            for p in (Fraction(1, 20), Fraction(1, 10), Fraction(3, 10)):
                assert logical_success_prob(code, p) == enumerate_success_prob(code, p)

    def test_limits(self):
        code = ParityCode(3, 2)
        assert logical_success_prob(code, 0) == 1
        assert logical_success_prob(code, 1) == 0

    def test_single_qubit_blocks_need_all_copies_clean(self):
        # n = 1: any herald destroys its copy, so only the all-clean event survives
        p = Fraction(1, 5)
        assert logical_success_prob(ParityCode(1, 3), p) == (1 - p) ** 3

    def test_monotone_in_herald_rate(self):
        code = ParityCode(2, 3)
        probs = [logical_success_prob(code, p) for p in np.linspace(0.0, 0.9, 10)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            logical_success_prob(ParityCode(2, 2), 1.5)
        with pytest.raises(ValueError):
            enumerate_success_prob(ParityCode(2, 2), -0.1)
        with pytest.raises(ValueError):
            enumerate_success_prob(ParityCode(5, 4), 0.1)  # 20 qubits, over the cap


# ---------------------------------------------------------------------------
# block states and the brute-force verifier
# ---------------------------------------------------------------------------


def test_parity_block_states_small():
    np.testing.assert_allclose(parity_block_state(1, 0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(parity_block_state(1, 1), [0.0, 1.0], atol=1e-15)
    # n = 2 logical zero is the HH/VV Bell state
    bell = np.zeros((2, 2))
    bell[0, 0] = bell[1, 1] = INV_SQRT2
    np.testing.assert_allclose(parity_block_state(2, 0), bell, atol=1e-15)


@pytest.mark.parametrize("j, k", [(1, 1), (1, 2), (2, 2)])
def test_block_state_split_identity(j, k):
    """|0>^(j+k) splits as (|0>^j |0>^k + |1>^j |1>^k)/sqrt(2), |1> as the odd pairing."""
    zero = (
        np.multiply.outer(parity_block_state(j, 0), parity_block_state(k, 0))
        + np.multiply.outer(parity_block_state(j, 1), parity_block_state(k, 1))
    )
    np.testing.assert_allclose(parity_block_state(j + k, 0), zero * INV_SQRT2, atol=1e-14)
    one = (
        np.multiply.outer(parity_block_state(j, 1), parity_block_state(k, 0))
        + np.multiply.outer(parity_block_state(j, 0), parity_block_state(k, 1))
    )
    np.testing.assert_allclose(parity_block_state(j + k, 1), one * INV_SQRT2, atol=1e-14)


def test_encoded_state_basics():
    code = ParityCode(1, 1)
    psi = encoded_state(code, LogicalState(0.6, 0.8))
    np.testing.assert_allclose(psi, [0.6, 0.8])
    big = encoded_state(ParityCode(2, 3), LogicalState.random(np.random.default_rng(2)))
    assert np.linalg.norm(big) == pytest.approx(1.0)


GATES = [named_gate("I"), named_gate("H"), named_gate("Z", 0.3)]


@pytest.mark.parametrize("gate", GATES, ids=["I", "H", "Z03"])
def test_verifier_clean_pattern(gate):
    code = ParityCode(2, 2)
    report = statevector_verify(
        code,
        HeraldPattern.clear(code),
        single_qubit_matrix(gate),
        LogicalState.random(np.random.default_rng(31)),
        outcomes=(),
    )
    assert report
    assert report.deviation < 1e-12


@pytest.mark.parametrize("gate", GATES, ids=["I", "H", "Z03"])
@pytest.mark.parametrize("outcome", [1, -1])
def test_verifier_single_herald(gate, outcome):
    code = ParityCode(2, 2)
    rng = np.random.default_rng(17)
    report = statevector_verify(
        code,
        HeraldPattern.from_indices([0], code),
        single_qubit_matrix(gate),
        LogicalState.random(rng),
        outcomes=(outcome,),
        rng=rng,
    )
    assert report, report.message
    assert report.heralded_qubits == (0,)
    assert report.outcomes == (outcome,)


def test_verifier_double_herald_in_one_copy():
    code = ParityCode(3, 2)
    rng = np.random.default_rng(19)
    report = statevector_verify(
        code,
        HeraldPattern.from_indices([0, 2], code),
        single_qubit_matrix(named_gate("H")),
        LogicalState.random(rng),
        outcomes=(-1,),
        rng=rng,
    )
    assert report, report.message


@pytest.mark.parametrize("outcomes", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_verifier_two_damaged_copies_multiply_signs(outcomes):
    code = ParityCode(2, 3)
    rng = np.random.default_rng(23)
    report = statevector_verify(
        code,
        HeraldPattern.from_indices([0, 5], code),
        single_qubit_matrix(named_gate("Z", 0.3)),
        LogicalState.random(rng),
        outcomes=outcomes,
        rng=rng,
    )
    assert report, report.message


def test_verifier_with_fixed_branch_amplitudes_is_deterministic():
    code = ParityCode(2, 2)
    branches = {1: HeraldAmplitudes(0.4 + 0.2j, -0.1 + 0.3j)}
    kwargs = dict(
        code=code,
        pattern=HeraldPattern.from_indices([1], code),
        u_target=single_qubit_matrix(named_gate("H")),
        logical=LogicalState(0.6, 0.8j),
        outcomes=(1,),
        branches=branches,
    )
    a = statevector_verify(**kwargs)
    b = statevector_verify(**kwargs)
    assert a.passed and a.deviation == b.deviation


def test_verifier_rejects_unrecoverable_patterns():
    code = ParityCode(2, 2)
    with pytest.raises(ValueError, match="criteria"):
        statevector_verify(
            code,
            HeraldPattern.from_indices([0, 1], code),
            np.eye(2),
            LogicalState(1.0, 0.0),
            outcomes=(1,),
            rng=np.random.default_rng(0),
        )
    with pytest.raises(ValueError, match="outcome"):
        statevector_verify(
            code,
            HeraldPattern.from_indices([0], code),
            np.eye(2),
            LogicalState(1.0, 0.0),
            outcomes=(),
            rng=np.random.default_rng(0),
        )
