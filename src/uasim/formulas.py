"""Closed-form success-probability and fidelity laws for averaged gates.

All functions take the per-parameter phase variance ``nu`` (or the aggregated
circuit noise ``v``) and the copy count ``num_copies``; the latter may be
``math.inf`` for the fully averaged limit.  Where the literature records more
than one expansion of the same quantity, the alternatives are kept side by
side behind a ``variant`` switch instead of being merged.

The postselection laws truncate the exact ensemble law
P_s = 1/N + (1 - 1/N) c^(2d), c = E[cos delta], for independent offsets of
variance nu on the d noisy parameters of a path (each family's depth in
``gates.FAMILIES``: 3 single-qubit, 2 type-II fusion, 6 four-mode): gaussian
offsets give c = exp(-nu/2), two-point offsets +-sqrt(nu) give
c = cos(sqrt(nu)).  Each coefficient of that law carries a factor (1 - 1/N),
so a term without it matches no noise model.
"""

from __future__ import annotations

import math

__all__ = [
    "success_prob_single",
    "fidelity_single",
    "success_prob_four_mode",
    "fidelity_four_mode",
    "success_prob_type2",
    "fidelity_type2",
    "success_prob_first_order",
    "fidelity_first_order",
    "effective_error_rate",
    "effective_loss_rate",
    "effective_rates",
    "SINGLE_QUBIT_VARIANTS",
    "TYPE2_VARIANTS",
]

SINGLE_QUBIT_VARIANTS = ("main", "second-order", "fourth-order")
TYPE2_VARIANTS = ("main", "alt")


def _check(nu: float, num_copies: float) -> tuple[float, float]:
    nu = float(nu)
    big_n = float(num_copies)
    if nu < 0:
        raise ValueError("variance must be non-negative")
    if not big_n >= 1:
        raise ValueError("num_copies must be at least 1")
    return nu, big_n


def success_prob_single(nu: float, num_copies: float, variant: str = "main") -> float:
    """Postselection probability of the averaged single-qubit gate.

    Variants are distinct published expansions in nu that share the leading
    behavior 1 - 3 nu (1 - 1/N) but disagree at order nu^2:

    ``main``          1 - 3 nu + 3 nu/N + 9/2 nu^2 - 9/2 nu^2/N
    ``second-order``  1 - 3 nu + 3 nu/N + 9/4 nu^2 + 3 nu^2/N
    ``fourth-order``  adds nu^3 and nu^4 corrections on top of a
                      4 nu^2 (1 - 1/N) second order

    ``main`` is the gaussian law truncated after nu^2.  ``fourth-order``
    agrees with the two-point law up to nu^2, but its nu^3 and nu^4 terms
    (-21/8 + 1/(12N), 49/64 + 13/(6N)) match no law; the two-point ones are
    -47/15 (1 - 1/N) and 169/105 (1 - 1/N).  ``second-order`` matches no law
    at nu^2.
    """
    nu, big_n = _check(nu, num_copies)
    base = 1.0 - 3.0 * nu + 3.0 * nu / big_n
    if variant == "main":
        return base + 4.5 * nu**2 - 4.5 * nu**2 / big_n
    if variant == "second-order":
        return base + 2.25 * nu**2 + 3.0 * nu**2 / big_n
    if variant == "fourth-order":
        return (
            base
            + 4.0 * nu**2
            - 4.0 * nu**2 / big_n
            - 21.0 / 8.0 * nu**3
            + nu**3 / (12.0 * big_n)
            + 49.0 / 64.0 * nu**4
            + 13.0 / 6.0 * nu**4 / big_n
        )
    raise ValueError(f"unknown variant {variant!r}; choose from {SINGLE_QUBIT_VARIANTS}")


def fidelity_single(nu: float, num_copies: float, variant: str = "main") -> float:
    """Conditional fidelity of the averaged single-qubit gate.

    ``main`` is the ratio (1 - 3 nu + 9/4 nu^2) / (1 - 3 nu + nu/N + ...)
    as printed; ``fourth-order`` squares the half-angle expansion
    1 - 3/2 nu + 7/8 nu^2 over the fourth-order normalization.
    """
    nu, big_n = _check(nu, num_copies)
    if variant == "main":
        num = 1.0 - 3.0 * nu + 2.25 * nu**2
        den = 1.0 - 3.0 * nu + nu / big_n + 4.5 * nu**2 - 4.5 * nu**2 / big_n
    elif variant == "fourth-order":
        num = (1.0 - 1.5 * nu + 7.0 / 8.0 * nu**2) ** 2
        den = 1.0 - 3.0 * nu + 3.0 * nu / big_n + 4.0 * nu**2 - 4.0 * nu**2 / big_n
    else:
        raise ValueError(f"unknown variant {variant!r}; choose 'main' or 'fourth-order'")
    if den <= 0:
        raise ValueError("normalization is non-positive; nu is outside the valid range")
    return num / den


def success_prob_four_mode(nu: float, num_copies: float) -> float:
    """Postselection probability of the averaged general four-mode gate:
    1 - 6 nu + 6 nu/N + 18 nu^2 - 18 nu^2/N^2.

    The first order holds for any offset law of variance nu.  The nu^2 term is
    kept as printed; the gaussian law's second order is 18 nu^2 (1 - 1/N),
    and 18 nu^2 (1 - 1/N^2) matches no law.
    """
    nu, big_n = _check(nu, num_copies)
    return 1.0 - 6.0 * nu + 6.0 * nu / big_n + 18.0 * nu**2 - 18.0 * nu**2 / big_n**2


def fidelity_four_mode(nu: float, num_copies: float) -> float:
    """Conditional fidelity (1 - 6 nu) / P_s of the averaged four-mode gate."""
    ps = success_prob_four_mode(nu, num_copies)
    if ps <= 0:
        raise ValueError("normalization is non-positive; nu is outside the valid range")
    return (1.0 - 6.0 * float(nu)) / ps


def success_prob_type2(nu: float, num_copies: float, variant: str = "main") -> float:
    """Per-photon postselection probability of the averaged fusion network.

    ``main`` carries a 2 nu^2 second order, ``alt`` a 5/3 nu^2 one; both share
    1 - 2 nu (1 - 1/N) at first order.  ``main`` is the gaussian law and
    ``alt`` the two-point law, each truncated after nu^2.
    """
    nu, big_n = _check(nu, num_copies)
    c2 = _type2_second_order(variant)
    return 1.0 - 2.0 * nu + 2.0 * nu / big_n + c2 * nu**2 - c2 * nu**2 / big_n


def fidelity_type2(nu: float, num_copies: float, variant: str = "main") -> float:
    """Per-photon conditional fidelity (1 - 2 nu + c2 nu^2) / P_s of fusion."""
    nu, big_n = _check(nu, num_copies)
    c2 = _type2_second_order(variant)
    ps = success_prob_type2(nu, big_n, variant)
    if ps <= 0:
        raise ValueError("normalization is non-positive; nu is outside the valid range")
    return (1.0 - 2.0 * nu + c2 * nu**2) / ps


def _type2_second_order(variant: str) -> float:
    if variant == "main":
        return 2.0
    if variant == "alt":
        return 5.0 / 3.0
    raise ValueError(f"unknown variant {variant!r}; choose from {TYPE2_VARIANTS}")


def success_prob_first_order(v: float, num_copies: float) -> float:
    """Generic first-order law 1 - V + V/N with V the circuit noise
    (per-path parameter count times per-parameter variance)."""
    v, big_n = _check(v, num_copies)
    return 1.0 - v + v / big_n


def fidelity_first_order(v: float, num_copies: float) -> float:
    """Generic first-order fidelity 1 - V / (N + V - N V)."""
    v, big_n = _check(v, num_copies)
    if math.isinf(big_n):
        return 1.0
    den = big_n + v - big_n * v
    if den <= 0:
        raise ValueError("normalization is non-positive; v is outside the valid range")
    return 1.0 - v / den


def effective_error_rate(epsilon: float, num_copies: float) -> float:
    """Depolarization left after averaging: epsilon / (N + epsilon - N epsilon).

    This is the first-order fidelity deficit of the averaged gate with the
    raw per-gate depolarization epsilon standing in for the circuit noise.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("depolarization rate must lie in [0, 1]")
    _, big_n = _check(0.0, num_copies)
    if big_n == 1.0:
        return epsilon  # averaging a single copy changes nothing
    if math.isinf(big_n):
        return 0.0 if epsilon < 1.0 else 1.0
    den = big_n + epsilon - big_n * epsilon
    if den <= 0:
        raise ValueError("rate is outside the valid range for this N")
    return epsilon / den


def effective_loss_rate(gamma: float, epsilon: float, num_copies: float) -> float:
    """Loss per qubit per gate after averaging:
    (gamma/3)(3 + 2 log2 N) + epsilon (1 - 1/N).

    The log term charges the raw loss gamma for the extra splitter layers a
    photon crosses; the epsilon term is the first-order herald probability,
    counted as (located but uncredited) loss.
    """
    if not (0.0 <= gamma <= 1.0 and 0.0 <= epsilon <= 1.0):
        raise ValueError("rates must lie in [0, 1]")
    _, big_n = _check(0.0, num_copies)
    if big_n == 1.0:
        return gamma  # averaging a single copy changes nothing
    return (gamma / 3.0) * (3.0 + 2.0 * math.log2(big_n)) + epsilon * (1.0 - 1.0 / big_n)


def effective_rates(epsilon: float, gamma: float, num_copies: float) -> tuple[float, float]:
    """(effective error, effective loss) after averaging N copies."""
    return (
        effective_error_rate(epsilon, num_copies),
        effective_loss_rate(gamma, epsilon, num_copies),
    )
