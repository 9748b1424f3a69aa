import math

import pytest

from uasim.formulas import (
    SINGLE_QUBIT_VARIANTS,
    TYPE2_VARIANTS,
    effective_error_rate,
    effective_loss_rate,
    effective_rates,
    fidelity_first_order,
    fidelity_four_mode,
    fidelity_single,
    fidelity_type2,
    success_prob_first_order,
    success_prob_four_mode,
    success_prob_single,
    success_prob_type2,
)


class TestFrozenValues:
    """Spot values evaluated by hand once and frozen."""

    def test_single_qubit_success(self):
        # 1 - 0.03 + 0.03/4 + (9/2)(1e-4)(3/4)
        assert success_prob_single(0.01, 4, "main") == pytest.approx(0.9778375, abs=1e-15)
        assert success_prob_single(0.01, 4, "second-order") == pytest.approx(0.9778, abs=1e-15)
        assert success_prob_single(0.01, 4, "fourth-order") == pytest.approx(
            0.9777974089062498, abs=1e-15
        )

    def test_single_qubit_fidelity(self):
        assert fidelity_single(0.01, 1, "fourth-order") == pytest.approx(
            0.97039738265625, abs=1e-15
        )
        assert fidelity_single(0.01, 4, "main") == pytest.approx(0.9973145566448662, abs=1e-15)

    def test_four_mode(self):
        # 1 - 0.03 + 0.03/8 + 18(2.5e-5) - 18(2.5e-5)/64
        assert success_prob_four_mode(0.005, 8) == pytest.approx(0.97419296875, abs=1e-15)
        assert fidelity_four_mode(0.005, 4) == pytest.approx(0.9918992762075193, abs=1e-15)

    def test_type2(self):
        assert success_prob_type2(0.01, 2, "main") == pytest.approx(0.9901, abs=1e-15)
        assert success_prob_type2(0.01, 2, "alt") == pytest.approx(0.9900833333333333, abs=1e-15)
        assert fidelity_type2(0.01, 4, "main") == pytest.approx(0.9949753844592194, abs=1e-15)

    def test_first_order_family(self):
        assert success_prob_first_order(0.03, 4) == pytest.approx(1 - 0.03 + 0.03 / 4)
        assert fidelity_first_order(0.03, 4) == pytest.approx(1 - 0.03 / 3.91, abs=1e-15)
        assert fidelity_first_order(0.3, 1) == pytest.approx(0.7)


@pytest.mark.parametrize("fn", [success_prob_single, success_prob_four_mode, success_prob_type2])
@pytest.mark.parametrize("big_n", [1, 2, 4, 8, math.inf])
def test_zero_noise_success_is_one(fn, big_n):
    assert fn(0.0, big_n) == 1.0


@pytest.mark.parametrize(
    "fn", [fidelity_single, fidelity_four_mode, fidelity_type2, fidelity_first_order]
)
def test_zero_noise_fidelity_is_one(fn):
    assert fn(0.0, 4) == 1.0


def test_single_copy_leaves_first_order_untouched():
    """With N = 1 the averaging has no first-order effect; P_s deficit is O(nu^2)."""
    nu = 0.004
    for variant in SINGLE_QUBIT_VARIANTS:
        assert abs(success_prob_single(nu, 1, variant) - 1.0) < 6 * nu**2
    for variant in TYPE2_VARIANTS:
        assert abs(success_prob_type2(nu, 1, variant) - 1.0) < 3 * nu**2
    assert success_prob_first_order(0.05, 1) == pytest.approx(1.0)
    assert fidelity_first_order(0.05, 1) == pytest.approx(0.95)


def test_infinite_copies_limits():
    assert success_prob_single(0.01, math.inf) == pytest.approx(0.97045, abs=1e-15)
    assert fidelity_first_order(0.03, math.inf) == 1.0
    assert effective_error_rate(0.01, math.inf) == 0.0
    # the loss rate diverges logarithmically, so no infinite-N value exists there
    assert math.isinf(effective_loss_rate(0.001, 0.0, math.inf))


def test_variants_agree_to_first_order():
    """All printed expansions of one quantity differ only at order nu^2."""
    for nu in (0.002, 0.01, 0.02):
        for big_n in (1, 2, 4, 16):
            vals = [success_prob_single(nu, big_n, v) for v in SINGLE_QUBIT_VARIANTS]
            assert max(vals) - min(vals) <= 5.5 * nu**2
            t2 = [success_prob_type2(nu, big_n, v) for v in TYPE2_VARIANTS]
            assert max(t2) - min(t2) <= 0.5 * nu**2


def test_variant_switch_rejects_unknown_names():
    with pytest.raises(ValueError, match="variant"):
        success_prob_single(0.01, 2, "sixth-order")
    with pytest.raises(ValueError, match="variant"):
        fidelity_single(0.01, 2, "second-order")
    with pytest.raises(ValueError, match="variant"):
        success_prob_type2(0.01, 2, "other")


def test_domain_validation():
    with pytest.raises(ValueError):
        success_prob_single(-0.01, 2)
    with pytest.raises(ValueError):
        success_prob_single(0.01, 0.5)
    with pytest.raises(ValueError):
        fidelity_first_order(2.0, 2)  # denominator would cross zero
    with pytest.raises(ValueError):
        effective_error_rate(1.5, 2)
    with pytest.raises(ValueError):
        effective_loss_rate(-0.1, 0.0, 2)
    with pytest.raises(ValueError):
        effective_loss_rate(1.5, 1e-3, 4)


class TestEffectiveRates:
    def test_single_copy_is_the_identity_map(self):
        # exact equality, not approx: N = 1 must round-trip the raw rates
        assert effective_rates(0.0123, 0.00456, 1) == (0.0123, 0.00456)

    def test_spot_values(self):
        assert effective_error_rate(0.001, 4) == pytest.approx(0.001 / 3.997, abs=1e-18)
        # (gamma/3)(3 + 2 log2 4) + epsilon (3/4)
        assert effective_loss_rate(0.001, 0.001, 4) == pytest.approx(
            0.003083333333333333, abs=1e-15
        )

    def test_error_decreases_and_loss_increases_with_copies(self):
        eps, gam = 0.002, 0.0005
        errs = [effective_error_rate(eps, 2**k) for k in range(8)]
        losses = [effective_loss_rate(gam, eps, 2**k) for k in range(8)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_pure_loss_grows_with_the_tree_depth(self):
        # with epsilon = 0 the only cost is the extra splitter layers
        gam = 0.003
        assert effective_loss_rate(gam, 0.0, 2) == pytest.approx(gam * 5 / 3)
        assert effective_loss_rate(gam, 0.0, 4) == pytest.approx(gam * 7 / 3)
