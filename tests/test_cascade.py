import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_signal, random_spin_bank
from wavebank import (
    FilterBank,
    FilterCoeffs,
    PolyLoop,
    SampledFunction,
    build_wavelets,
    cascade_iterate,
    dilate,
    frame_map_apply,
    loop_to_filters,
    preset_bank,
    refinement_apply,
    refinement_residual,
    translate_gram,
)
from wavebank.cascade import GRAM_SAMPLES, _dilated_filter_apply

SQRT2 = math.sqrt(2.0)


def box_function(depth, width=1, scale=2, amplitude=1.0):
    """Indicator of [0, width) sampled at the given dyadic depth."""
    unit = scale**depth
    values = np.zeros(width * unit + 1, dtype=complex)
    values[: width * unit] = amplitude
    return SampledFunction(values, scale, depth, 0)


def tribank():
    """3-band analogue of the box bank: constant DFT loop, phi = unit box."""
    F = np.exp(2j * np.pi * np.outer(np.arange(3), np.arange(3)) / 3) / math.sqrt(3)
    return loop_to_filters(PolyLoop(3, F.conj()[None]))


def test_sampled_function_basics():
    f = SampledFunction([1.0, 2.0, 3.0], 2, 1, start=2)
    assert f.step == 0.5
    assert f.support == (1.0, 2.0)
    assert np.allclose(f.grid(), [1.0, 1.5, 2.0])
    assert np.array_equal(f.values_at([1, 2, 3, 4, 5]), [0, 1, 2, 3, 0])


def test_cascade_haar_one_iteration():
    result = cascade_iterate(preset_bank("haar"), depth=6)
    assert result.converged and result.iterations == 1
    assert result.last_delta == 0.0
    assert np.array_equal(result.phi.values, box_function(6).values)
    assert refinement_residual(result.phi, preset_bank("haar")) == 0.0


def test_cascade_db4():
    bank = preset_bank("db4")
    result = cascade_iterate(bank, depth=10, max_iters=60)
    assert result.converged
    assert refinement_residual(result.phi, bank) <= 1e-8
    lo, hi = result.phi.support
    assert lo >= 0.0 and hi <= 3.0
    # integer samples of the fixed point: phi(1) and phi(2) sum to 1
    unit = 2**10
    phi1 = result.phi.values_at([unit])[0]
    phi2 = result.phi.values_at([2 * unit])[0]
    assert phi1.real + phi2.real == pytest.approx(1.0, abs=1e-7)


def test_cascade_tribank_box():
    result = cascade_iterate(tribank(), depth=4)
    assert result.converged and result.iterations == 1
    assert np.allclose(result.phi.values, box_function(4, scale=3).values, atol=1e-15)


def test_cascade_rejects_non_orthogonal():
    bad = FilterBank(2, 1, (FilterCoeffs([1.5, 0.5]), FilterCoeffs([0.5, -1.5])))
    with pytest.raises(ValueError):
        cascade_iterate(bad, depth=4)


def test_cascade_warns_on_unnormalized():
    from wavebank import stretched_haar_adjusted

    with pytest.warns(UserWarning):
        cascade_iterate(stretched_haar_adjusted(1), depth=3, max_iters=5)


def test_cascade_stretched_haar_grid_fixed_point():
    # The true scaling function is the [0, 3) box, which the grid confirms as
    # an exact fixed point (next test); the box-seeded iteration instead
    # settles on the one-in-three comb, the pointwise limit on dyadics.
    bank = preset_bank("stretched-haar:1")
    result = cascade_iterate(bank, depth=6)
    assert result.converged and result.last_delta == 0.0
    assert result.iterations == 7
    values = result.phi.values.real
    comb = np.zeros(values.size)
    comb[: 3 * 2**6 : 3] = 1.0
    assert np.array_equal(values, comb)
    # the comb keeps the seed's mean
    assert np.sum(values) * result.phi.step == pytest.approx(1.0, abs=1e-12)


def test_refinement_residual_of_stretched_box():
    bank = preset_bank("stretched-haar:1")
    ind = box_function(6, width=3)
    assert refinement_residual(ind, bank) == 0.0


def test_refinement_residual_needs_fine_grid():
    coarse = SampledFunction([1.0, 0.0], 2, 0, 0)
    with pytest.raises(ValueError):
        refinement_residual(coarse, preset_bank("haar"))


def test_refinement_residual_detects_perturbation():
    bank = preset_bank("haar")
    phi = box_function(5)
    values = phi.values.copy()
    values[7] += 1e-3
    assert refinement_residual(SampledFunction(values, 2, 5, 0), bank) > 1e-4


def test_refinement_apply_expands_range():
    bank = preset_bank("db4")
    refined = refinement_apply(box_function(5), bank)
    assert refined.support[1] == pytest.approx(2.0)


def test_iterate_support_stays_in_bound():
    rng = np.random.default_rng(13)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        bank = random_spin_bank(rng, N, int(rng.integers(1, 5)))
        bound = (N * bank.g - 1) / (N - 1)
        f = box_function(3, scale=N)
        for _ in range(6):
            f = refinement_apply(f, bank)
            assert f.support[0] >= 0.0
            assert f.support[1] <= bound + f.step


def test_cascade_preserves_mean():
    # DC-normalized banks keep the box quadrature mean through every iterate
    for bank in (preset_bank("db4"), preset_bank("stretched-haar:1"), tribank()):
        f = box_function(5, scale=bank.N)
        mean0 = np.sum(f.values) * f.step
        for _ in range(8):
            f = refinement_apply(f, bank)
            assert abs(np.sum(f.values) * f.step - mean0) <= 1e-10


def test_build_wavelets_haar():
    bank = preset_bank("haar")
    phi = cascade_iterate(bank, depth=6).phi
    (psi,) = build_wavelets(bank, phi)
    unit = 2**6
    expected = np.zeros(unit + 1, dtype=complex)
    expected[: unit // 2] = 1.0
    expected[unit // 2 : unit] = -1.0
    assert np.array_equal(psi.values, expected)


def test_build_wavelets_count_and_support():
    bank = tribank()
    phi = cascade_iterate(bank, depth=4).phi
    psis = build_wavelets(bank, phi)
    assert len(psis) == 2
    db4 = preset_bank("db4")
    phi4 = cascade_iterate(db4, depth=8).phi
    for psi in build_wavelets(db4, phi4):
        assert psi.support[1] <= 3.0


def test_build_wavelets_requires_refinable_input():
    bank = preset_bank("db4")
    with pytest.raises(ValueError):
        build_wavelets(bank, box_function(5))


def test_gram_haar_identity():
    phi = cascade_iterate(preset_bank("haar"), depth=8).phi
    rep = translate_gram(phi, 1)
    assert np.array_equal(rep.gram, np.eye(2))
    assert rep.frame_bounds == (1.0, 1.0)


def test_gram_stretched_haar_overlaps():
    # normalized phi = 3^{-1/2} * indicator of [0, 3): box overlaps give exact
    # rational inner products
    phi = box_function(7, width=3, amplitude=1 / math.sqrt(3))
    rep = translate_gram(phi, 3)
    h = rep.gram[0]
    assert h[0] == pytest.approx(1.0, abs=1e-13)
    assert h[1] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert h[2] == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert h[3] == pytest.approx(0.0, abs=1e-13)
    c1, c2 = rep.frame_bounds
    assert c1 < c2  # proper frame, not an orthonormal system
    assert c2 == pytest.approx(3.0, abs=1e-10)


def test_gram_db4_near_identity():
    bank = preset_bank("db4")
    phi = cascade_iterate(bank, depth=12).phi
    rep = translate_gram(phi, 3)
    assert np.abs(rep.gram - np.eye(4)).max() <= 1e-2
    with pytest.raises(ValueError):
        translate_gram(phi, 2)  # lmax below the support width


def test_frame_bounds_see_the_symbols_zeros():
    # the normalized box of width 3 has symbol |1 + z + z^2|^2 / 3, which vanishes
    # at exp(2 pi i / 3), between the equispaced points
    phi = box_function(7, width=3, amplitude=1 / math.sqrt(3))
    c1, c2 = translate_gram(phi, 3).frame_bounds
    assert abs(c1) <= 1e-12
    assert c2 == pytest.approx(3.0, abs=1e-10)
    # db4's bounds are those of the equispaced points alone, within 1e-12
    rep = translate_gram(cascade_iterate(preset_bank("db4"), depth=12).phi, 3)
    h = np.concatenate([rep.gram[0, :0:-1].conj(), rep.gram[0]])
    theta = 2.0 * np.pi * np.arange(GRAM_SAMPLES) / GRAM_SAMPLES
    symbol = (np.exp(1j * np.outer(theta, np.arange(-3, 4))) @ h).real
    assert abs(rep.frame_bounds[0] - symbol.min()) <= 1e-12
    assert abs(rep.frame_bounds[1] - symbol.max()) <= 1e-12


def per_tap_apply(f, coeffs, lo, hi):
    """Oracle: ``sum_k c_k f(N x - k)`` as one masked gather per tap over the whole range."""
    N = f.scale
    unit = N**f.depth
    p = np.arange(lo, hi + 1)
    out = np.zeros(p.size, dtype=np.complex128)
    for i, c in enumerate(coeffs.taps):
        out += c * f.values_at(N * p - (coeffs.offset + i) * unit)
    return out


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.sampled_from([2, 3, 4, 8]),
    st.integers(0, 4),
    st.integers(-200, 200),
    st.integers(1, 60),
    st.integers(1, 6),
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
def test_dilated_filter_apply_keeps_the_per_tap_bits(N, depth, start, size, ntaps, offset, where, width, seed):
    rng = np.random.default_rng(seed)
    f = SampledFunction(random_signal(rng, size), N, depth, start)
    coeffs = FilterCoeffs(random_signal(rng, ntaps), offset, unpruned=True)
    unit = N**depth
    # outputs near the read range of the first tap, shifted by whole multiples of
    # its length: inside, overlapping and wholly outside the stored samples
    reach = (size + ntaps * unit) // N + 1
    lo = (start + offset * unit) // N + where * reach - width // 2
    hi = lo + width
    got = _dilated_filter_apply(f, coeffs, lo, hi)
    assert got.tobytes() == per_tap_apply(f, coeffs, lo, hi).tobytes()


def test_frame_map_delta_is_phi():
    phi = cascade_iterate(preset_bank("db4"), depth=6).phi
    out = frame_map_apply(phi, [1.0])
    assert np.array_equal(out.values, phi.values)


def _s0_nonperiodic(bank, xi):
    """(S_0 xi)_p = N^{-1/2} sum_k a_{p-Nk} xi_k on finite sequences."""
    up = np.zeros(bank.N * (len(xi) - 1) + 1, dtype=complex)
    up[:: bank.N] = xi
    return np.convolve(up, bank.lowpass.dense()) / math.sqrt(bank.N)


def test_intertwining_haar_delta():
    bank = preset_bank("haar")
    phi = cascade_iterate(bank, depth=6).phi
    uw = dilate(frame_map_apply(phi, [1.0]))
    w2 = frame_map_apply(phi, _s0_nonperiodic(bank, [1.0]))
    # both sides equal 2^{-1/2} * indicator of [0, 2)
    q = uw.start + np.arange(len(uw))
    assert np.abs(uw.values - w2.values_at(2 * q)).max() == 0.0
    assert uw.values[0] == pytest.approx(1 / SQRT2)
    assert uw.support == (0.0, 2.0)


def test_intertwining_regrouping_is_bookkeeping():
    # The double-sum regrouping holds at rounding level even for a phi that
    # is nowhere near its cascade fixed point.
    rng = np.random.default_rng(14)
    bank = preset_bank("db4")
    phi = refinement_apply(box_function(5), bank)  # one iteration only
    unit = 2**5
    for _ in range(20):
        xi = random_signal(rng, 6)
        lhs = frame_map_apply(phi, _s0_nonperiodic(bank, xi))
        # brute-force accumulation of N^{-1/2} xi_k a_l phi(x - 2k - l)
        taps = bank.lowpass.dense()
        brute = np.zeros(len(phi) + (2 * (len(xi) - 1) + len(taps) - 1) * unit, dtype=complex)
        for k, xk in enumerate(xi):
            for l, al in enumerate(taps):
                lo = (2 * k + l) * unit
                brute[lo : lo + len(phi)] += xk * al * phi.values / SQRT2
        assert np.abs(lhs.values_at(np.arange(brute.size)) - brute).max() <= 1e-12


def test_intertwining_bound_db4():
    rng = np.random.default_rng(15)
    bank = preset_bank("db4")
    result = cascade_iterate(bank, depth=8)
    phi = result.phi
    res = refinement_residual(phi, bank)
    for _ in range(10):
        xi = random_signal(rng, 5)
        uw = dilate(frame_map_apply(phi, xi))
        w2 = frame_map_apply(phi, _s0_nonperiodic(bank, xi))
        q = uw.start + np.arange(len(uw))
        err = np.abs(uw.values - w2.values_at(2 * q)).max()
        assert err <= 10.0 * res * np.abs(xi).sum()


def test_dilate_roundtrip_scaling():
    phi = cascade_iterate(preset_bank("haar"), depth=4).phi
    up = dilate(phi)
    assert up.depth == 3
    assert up.support == (0.0, 2.0)
    assert np.allclose(up.values * SQRT2, phi.values, atol=1e-15)


def test_depth_is_bounded_before_any_power_is_formed():
    # numpy cannot allocate these grids; the depth is refused by integer arithmetic first
    with pytest.raises(ValueError, match=r"depth = 1000 is too deep: at most 20 for N = 2, g = 2, "):
        cascade_iterate(preset_bank("db4"), depth=1000)
    with pytest.raises(ValueError, match=r"at most 13 for N = 3, g = 1, since the grid holds at most 4194304 "):
        cascade_iterate(tribank(), depth=10**6)
