import math

import numpy as np
import pytest

from conftest import random_spin_bank
from wavebank import (
    FilterBank,
    FilterCoeffs,
    haar_complement,
    normalization_check,
    orthogonality_check,
    preset_bank,
    symbol_eval,
    verify_bank,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
D4_TAPS = np.array([1 + SQRT3, 3 + SQRT3, 3 - SQRT3, 1 - SQRT3]) / 4


def test_filter_coeffs_validation():
    with pytest.raises(ValueError):
        FilterCoeffs([])
    with pytest.raises(ValueError):
        FilterCoeffs([0.0, 1.0])
    f = FilterCoeffs([0.0, 1.0], unpruned=True)
    assert len(f) == 2
    assert np.array_equal(FilterCoeffs([1.0, 2.0], offset=3).dense(6), [0, 0, 0, 1, 2, 0])


def test_normalization_examples():
    assert normalization_check(FilterCoeffs([1, 1]), 2).passed
    assert normalization_check(FilterCoeffs([1, 1]), 2).residual == 0.0
    rep = normalization_check(FilterCoeffs([1.0], offset=0), 2)
    assert not rep.passed and rep.residual == 1.0
    # independent oracle: plain python sum of the closed-form taps
    assert abs(sum(D4_TAPS) - 2.0) < 1e-15
    assert normalization_check(FilterCoeffs(D4_TAPS), 2).passed


def test_orthogonality_examples():
    assert orthogonality_check(FilterCoeffs([1, 1]), 2).passed
    rep = orthogonality_check(FilterCoeffs([2.0, 1e-30], unpruned=True), 2)
    assert not rep.passed and rep.worst_lag == 0 and rep.residual == pytest.approx(2.0)
    # D4 lag-1 sum vanishes by direct evaluation
    assert abs(D4_TAPS[2] * D4_TAPS[0] + D4_TAPS[3] * D4_TAPS[1]) < 1e-15
    assert orthogonality_check(FilterCoeffs(D4_TAPS), 2).passed


def test_qmf_identity():
    # the power identity sum_k |m(rho^k z)|^2 = N is orthogonality_check's residual
    rep = orthogonality_check(preset_bank("haar").lowpass, 2)
    assert rep.passed and rep.residual <= 1e-12
    # a half-power symbol (1 + z)/2 misses the identity by exactly 1
    rep = orthogonality_check(FilterCoeffs([1 / SQRT2, 1 / SQRT2]), 2)
    assert not rep.passed and rep.residual == pytest.approx(1.0, abs=1e-14)
    # the same taps scaled to (1/2, 1/2) miss it by 3/2
    rep = orthogonality_check(FilterCoeffs([0.5, 0.5]), 2)
    assert not rep.passed and rep.residual == pytest.approx(1.5, abs=1e-14)
    assert orthogonality_check(FilterCoeffs(D4_TAPS), 2).passed


def test_symbol_eval():
    haar_low = preset_bank("haar").lowpass
    assert symbol_eval(haar_low, 2, 1.0) == pytest.approx(SQRT2)
    assert symbol_eval(haar_low, 2, -1.0) == pytest.approx(0.0)
    # stretched low-pass matches (1 + z^3)/sqrt(2) pointwise
    low = preset_bank("stretched-haar:1").lowpass
    for t in np.linspace(0.0, 2 * np.pi, 17):
        z = np.exp(1j * t)
        assert symbol_eval(low, 2, z) == pytest.approx((1 + z**3) / SQRT2, abs=1e-14)
    with pytest.raises(ValueError):
        symbol_eval(haar_low, 2, 1.5)


def test_symbol_at_one_is_scaled_tap_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = FilterCoeffs(taps, offset=int(rng.integers(0, 3)))
        for N in (2, 3, 4):
            assert symbol_eval(f, N, 1.0) == pytest.approx(taps.sum() / math.sqrt(N), abs=1e-14)


def test_haar_complement_examples():
    assert np.array_equal(haar_complement(FilterCoeffs([1, 1]), 1).dense(2), [1, -1])
    a0, a1 = 0.3 + 0.4j, -1.1 + 0.2j
    b = haar_complement(FilterCoeffs([a0, a1]), 1)
    assert np.allclose(b.dense(2), [np.conj(a1), -np.conj(a0)], atol=1e-15)
    b4 = haar_complement(FilterCoeffs(D4_TAPS), 2)
    expected = [(1 - SQRT3) / 4, -(3 - SQRT3) / 4, (3 + SQRT3) / 4, -(1 + SQRT3) / 4]
    assert np.allclose(b4.dense(4), expected, atol=1e-15)


def test_haar_complement_completes_to_unitary_bank():
    from wavebank import filters_to_loop, unitarity_check

    for low, g in ((FilterCoeffs([1, 1]), 1), (FilterCoeffs(D4_TAPS), 2)):
        bank = FilterBank(2, g, (low, haar_complement(low, g)))
        assert unitarity_check(filters_to_loop(bank)).passed


def test_haar_complement_double_application():
    rng = np.random.default_rng(5)
    for g in (1, 2, 3):
        taps = rng.standard_normal(2 * g) + 1j * rng.standard_normal(2 * g)
        f = FilterCoeffs(taps)
        twice = haar_complement(haar_complement(f, g), g)
        # the sign pattern collapses to (-1)^(2g-1) = -1 on the nose
        assert np.allclose(twice.dense(2 * g), -taps, atol=1e-15)


def test_preset_haar():
    bank = preset_bank("haar")
    assert bank.N == 2 and bank.g == 1 and bank.name == "haar"
    assert np.array_equal(bank.filters[0].taps, [1, 1])
    assert np.array_equal(bank.filters[1].taps, [1, -1])
    assert verify_bank(bank).passed


def test_preset_stretched():
    bank = preset_bank("stretched-haar:1")
    assert bank.g == 2
    assert np.array_equal(bank.filters[0].dense(4), [1, 0, 0, 1])
    assert np.array_equal(bank.filters[1].dense(4), [1, 0, 0, -1])
    assert verify_bank(bank).passed
    bank3 = preset_bank("stretched-haar:3")
    assert bank3.g == 4 and len(bank3.lowpass) == 8
    assert verify_bank(bank3).passed


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset_bank("db6")
    with pytest.raises(ValueError):
        preset_bank("stretched-haar:0")
    with pytest.raises(ValueError):
        preset_bank("stretched-haar:x")
    with pytest.raises(ValueError, match="at most 16384"):
        preset_bank("stretched-haar:16385")
    # int() reads each of these as 10; only the one spelling str(10) names the bank
    for count in ("1_0", " 10", "+10", "010"):
        with pytest.raises(ValueError, match="malformed stretch count"):
            preset_bank(f"stretched-haar:{count}")
    assert preset_bank("stretched-haar:10").g == 11


def _genus2_newton_solutions():
    """Brute-force oracle: all real 4-tap solutions of the defining system.

    Equations: DC sum 2, energy 2, lag-2 orthogonality, and the second symbol
    zero at -1 (the first zero m(-1) = 0 is already forced by the sum and the
    power identity, so it cannot isolate a solution).
    """

    def F(a):
        return np.array(
            [
                a.sum() - 2.0,
                np.dot(a, a) - 2.0,
                a[2] * a[0] + a[3] * a[1],
                a[1] - 2.0 * a[2] + 3.0 * a[3],  # d/dz sum a_k z^k at z = -1
            ]
        )

    def J(a):
        return np.array(
            [
                [1.0, 1.0, 1.0, 1.0],
                [2 * a[0], 2 * a[1], 2 * a[2], 2 * a[3]],
                [a[2], a[3], a[0], a[1]],
                [0.0, 1.0, -2.0, 3.0],
            ]
        )

    solutions = []
    for t in range(12):
        a = 0.5 + np.array([np.cos(t), np.sin(t), np.cos(2 * t + 1.0), np.sin(2 * t + 1.0)])
        for _ in range(100):
            try:
                step = np.linalg.solve(J(a), F(a))
            except np.linalg.LinAlgError:
                break
            a = a - step
            if np.abs(step).max() < 1e-14:
                break
        if np.abs(F(a)).max() < 1e-12 and not any(np.allclose(a, s, atol=1e-9) for s in solutions):
            solutions.append(a)
    return solutions


def test_preset_db4_rederived():
    bank = preset_bank("db4")
    assert bank.g == 2
    solutions = _genus2_newton_solutions()
    assert solutions, "oracle found no genus-2 solution"
    taps = bank.lowpass.taps.real
    assert any(np.allclose(taps, s, atol=1e-12) for s in solutions)
    # every oracle solution is the preset or its reflection, and carries the
    # automatic first zero at -1 (only to the root of the system residual:
    # |m(-1)|^2 is what the defining equations control)
    for s in solutions:
        assert np.allclose(taps, s, atol=1e-9) or np.allclose(taps, s[::-1], atol=1e-9)
        assert abs(s[0] - s[1] + s[2] - s[3]) < 1e-6
    assert verify_bank(bank).passed


def test_every_channel_of_random_banks_is_orthogonal():
    rng = np.random.default_rng(42)
    for _ in range(100):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 7))
        bank = random_spin_bank(rng, N, k)
        orth = [orthogonality_check(f, N) for f in bank.filters]
        assert all(r.passed for r in orth)


def test_bank_validation():
    with pytest.raises(ValueError):
        FilterBank(1, 1, (FilterCoeffs([1.0]),))
    with pytest.raises(ValueError):
        FilterBank(2, 1, (FilterCoeffs([1, 1]),))  # wrong channel count
    with pytest.raises(ValueError):
        FilterBank(2, 1, (FilterCoeffs([1, 1, 1]), FilterCoeffs([1, 1])))  # span 3 > N*g


def test_orthogonality_check_fails_on_nan():
    rep = orthogonality_check(FilterCoeffs([float("nan"), 1.0]), 2)
    assert not rep.passed
    assert math.isnan(rep.residual) and rep.worst_lag == 0
    bank = FilterBank(2, 1, (FilterCoeffs([1.0, float("nan")]), FilterCoeffs([1.0, -1.0])))
    assert not verify_bank(bank).passed
