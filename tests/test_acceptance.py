"""End-to-end acceptance gates.

Each test covers one numbered criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s``).
"""

import functools
import math
import time

import numpy as np

from conftest import random_signal, random_spin_bank, random_spins
from wavebank import (
    FilterBank,
    FilterCoeffs,
    analyze,
    build_operators,
    cascade_iterate,
    detect_monomial_corner,
    dilate,
    factor_to_spins,
    filters_to_loop,
    frame_map_apply,
    invariant_subspace_probe,
    loop_to_filters,
    preset_bank,
    refinement_residual,
    subband_ladder,
    symbol_eval,
    synthesize,
    synthesize_from_spins,
    translate_gram,
    unitarity_check,
    verify_cuntz,
)

SQRT2 = math.sqrt(2.0)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} {label}: PASS")

        return run

    return deco


def _random_bank_ensemble(seed=2024, count=100):
    """100 spin-synthesized banks with N in {2, 3, 4} and k <= 8."""
    rng = np.random.default_rng(seed)
    banks = []
    for _ in range(count):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        banks.append(random_spin_bank(rng, N, k))
    return banks


PRESETS = ("haar", "db4", "stretched-haar:1")


@criterion(1, "cuntz-identities")
def test_criterion_1_cuntz_identities():
    start = time.perf_counter()
    banks = [preset_bank(n) for n in PRESETS] + _random_bank_ensemble()
    for bank in banks:
        Ng = bank.N * bank.g
        for L in (Ng * bank.N, Ng * bank.N**2):
            rep = verify_cuntz(build_operators(bank, L))
            assert rep.max_residual_orthogonality <= 1e-12
            assert rep.max_residual_completeness <= 1e-12
    assert time.perf_counter() - start < 10.0


@criterion(2, "loop-bijection")
def test_criterion_2_loop_bijection():
    banks = [preset_bank(n) for n in PRESETS] + _random_bank_ensemble(seed=7, count=20)
    zs = np.exp(2j * np.pi * np.arange(64) / 64)
    for bank in banks:
        loop = filters_to_loop(bank)
        back = loop_to_filters(loop)
        width = bank.N * max(bank.g, back.g)
        # the index pairing is an exact permutation; the lone sqrt(N) scaling
        # bounds every value round-trip by 2 ulp (exact for zero taps)
        for f1, f2 in zip(bank.filters, back.filters):
            assert np.allclose(f1.dense(width), f2.dense(width), rtol=5e-16, atol=0.0)
            assert np.array_equal(f1.dense(width) == 0, f2.dense(width) == 0)
        assert np.allclose(filters_to_loop(back).coeffs, loop.coeffs, rtol=5e-16, atol=0.0)
        # root-sum evaluation agrees with the regrouped coefficients
        N = bank.N
        for z in zs:
            roots = z ** (1.0 / N) * np.exp(2j * np.pi * np.arange(N) / N)
            direct = np.array(
                [
                    [sum(w ** (-k) * symbol_eval(f, N, w) for w in roots) / N for k in range(N)]
                    for f in bank.filters
                ]
            )
            assert np.abs(loop(z) - direct).max() <= 1e-12


@criterion(3, "loop-unitarity")
def test_criterion_3_unitarity():
    rng = np.random.default_rng(30)
    loops = [filters_to_loop(preset_bank(n)) for n in PRESETS]
    for _ in range(100):
        loops.append(synthesize_from_spins(random_spins(rng, int(rng.integers(2, 5)), int(rng.integers(1, 9)))))
    for loop in loops:
        rep = unitarity_check(loop)
        assert rep.passed and rep.residual <= 1e-12
        # a 1e-3 perturbation of the largest tap is detected
        bank = loop_to_filters(loop)
        j, i = max(
            ((j, i) for j, f in enumerate(bank.filters) for i in range(len(f))),
            key=lambda ji: abs(bank.filters[ji[0]].taps[ji[1]]),
        )
        taps = bank.filters[j].taps.copy()
        taps[i] += 1e-3
        filters = list(bank.filters)
        filters[j] = FilterCoeffs(taps, offset=bank.filters[j].offset, unpruned=True)
        broken = FilterBank(bank.N, bank.g, tuple(filters), lowpass_normalized=False)
        rep = unitarity_check(filters_to_loop(broken))
        assert rep.residual >= 1e-4


@criterion(4, "spin-round-trip")
def test_criterion_4_spin_round_trip():
    rng = np.random.default_rng(404)
    for _ in range(100):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        loop = synthesize_from_spins(random_spins(rng, N, k))
        back = synthesize_from_spins(factor_to_spins(loop))
        assert back.degree == loop.degree
        assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-10
    db4 = factor_to_spins(filters_to_loop(preset_bank("db4")))
    assert len(db4.factors) == 1  # genus 2 peels to a single spin factor


@criterion(5, "irreducibility")
def test_criterion_5_irreducibility():
    haar = detect_monomial_corner(filters_to_loop(preset_bank("haar")))
    assert haar.reducible and haar.M == 2 and haar.exponents == (0, 0)
    stretched = detect_monomial_corner(filters_to_loop(preset_bank("stretched-haar:1")))
    assert stretched.reducible and stretched.M == 2 and stretched.exponents == (0, 1)
    db4 = detect_monomial_corner(filters_to_loop(preset_bank("db4")))
    assert not db4.reducible and db4.M == 0

    irreducible = sum(
        not detect_monomial_corner(filters_to_loop(bank)).reducible
        for bank in _random_bank_ensemble(seed=500)
    )
    assert irreducible >= 95  # generic irreducibility

    probe = invariant_subspace_probe(preset_bank("haar"), 32)
    assert probe.candidate_found and probe.residual <= 1e-14
    probe4 = invariant_subspace_probe(preset_bank("db4"), 32)
    assert not probe4.candidate_found and probe4.residual >= 0.1


@criterion(6, "cascade-refinement")
def test_criterion_6_cascade():
    start = time.perf_counter()
    haar = cascade_iterate(preset_bank("haar"), depth=8)
    assert haar.converged and haar.iterations == 1 and haar.last_delta == 0.0
    unit = 2**8
    box = np.zeros(unit + 1, dtype=complex)
    box[:unit] = 1.0
    assert np.array_equal(haar.phi.values, box)
    assert refinement_residual(haar.phi, preset_bank("haar")) == 0.0

    db4 = preset_bank("db4")
    res = cascade_iterate(db4, depth=10, max_iters=60)
    assert res.converged and res.iterations <= 60
    assert refinement_residual(res.phi, db4) <= 1e-8
    assert res.phi.support[0] >= 0.0 and res.phi.support[1] <= 3.0

    from wavebank import SampledFunction

    stretched = preset_bank("stretched-haar:1")
    d = 6
    values = np.zeros(3 * 2**d + 1, dtype=complex)
    values[: 3 * 2**d] = 1.0
    indicator = SampledFunction(values, 2, d, 0)
    assert refinement_residual(indicator, stretched) == 0.0
    assert time.perf_counter() - start < 5.0


@criterion(7, "intertwining")
def test_criterion_7_intertwining():
    rng = np.random.default_rng(70)
    bank = preset_bank("db4")
    unit = 2**6

    def s0(xi):
        up = np.zeros(2 * (len(xi) - 1) + 1, dtype=complex)
        up[::2] = xi
        return np.convolve(up, bank.lowpass.dense()) / SQRT2

    # regrouping identity at rounding level, independent of convergence
    from wavebank import SampledFunction, refinement_apply

    seed_values = np.zeros(3 * unit + 1, dtype=complex)
    seed_values[:unit] = 1.0
    phi_rough = refinement_apply(SampledFunction(seed_values, 2, 6, 0), bank)
    taps = bank.lowpass.dense()
    for _ in range(20):
        xi = random_signal(rng, 6)
        lhs = frame_map_apply(phi_rough, s0(xi))
        brute = np.zeros(len(phi_rough) + (2 * (len(xi) - 1) + len(taps) - 1) * unit, dtype=complex)
        for k, xk in enumerate(xi):
            for l, al in enumerate(taps):
                lo = (2 * k + l) * unit
                brute[lo : lo + len(phi_rough)] += xk * al * phi_rough.values / SQRT2
        idx = phi_rough.start + np.arange(brute.size)
        assert np.abs(lhs.values_at(idx) - brute).max() <= 1e-12

    # scaled comparison against the dilation operator for the converged phi
    phi = cascade_iterate(bank, depth=8).phi
    res = refinement_residual(phi, bank)
    for _ in range(20):
        xi = random_signal(rng, 8)
        uw = dilate(frame_map_apply(phi, xi))
        w2 = frame_map_apply(phi, s0(xi))
        q = uw.start + np.arange(len(uw))
        err = np.abs(uw.values - w2.values_at(2 * q)).max()
        assert err <= 10.0 * res * np.abs(xi).sum()


@criterion(8, "frame-bounds")
def test_criterion_8_frame_bounds():
    from wavebank import SampledFunction

    haar_phi = cascade_iterate(preset_bank("haar"), depth=8).phi
    rep = translate_gram(haar_phi, 1)
    assert np.array_equal(rep.gram, np.eye(2))
    assert rep.frame_bounds == (1.0, 1.0)

    d = 10
    values = np.zeros(3 * 2**d + 1, dtype=complex)
    values[: 3 * 2**d] = 1.0 / math.sqrt(3.0)
    stretched_phi = SampledFunction(values, 2, d, 0)
    rep = translate_gram(stretched_phi, 3)
    assert abs(rep.gram[0, 1] - 2.0 / 3.0) <= 1e-12
    assert abs(rep.gram[0, 2] - 1.0 / 3.0) <= 1e-12
    c1, c2 = rep.frame_bounds
    assert c1 < c2

    db4_phi = cascade_iterate(preset_bank("db4"), depth=12).phi
    rep = translate_gram(db4_phi, 3)
    assert np.abs(rep.gram - np.eye(4)).max() <= 1e-2


@criterion(9, "perfect-reconstruction")
def test_criterion_9_perfect_reconstruction():
    rng = np.random.default_rng(909)
    banks = [preset_bank(n) for n in PRESETS]
    for _ in range(100):
        for bank in banks:
            L = bank.N**3 * bank.g
            x = random_signal(rng, L)
            for levels in (1, 2, 3):
                tree = analyze(x, bank, levels)
                assert np.abs(synthesize(tree, bank) - x).max() <= 1e-12
                coeffs = np.concatenate([tree.approx] + [c for lvl in tree.details for c in lvl])
                assert abs(np.sum(np.abs(coeffs) ** 2) - np.sum(np.abs(x) ** 2)) <= 1e-12


@criterion(10, "subband-ladder")
def test_criterion_10_subband_ladder():
    rng = np.random.default_rng(1010)
    L, depth = 64, 3
    banks = [preset_bank(n) for n in PRESETS] + [random_spin_bank(rng, 4, 0)]
    for bank in banks:
        N = bank.N
        ladder = subband_ladder(build_operators(bank, L), depth)
        assert list(ladder.ranks) == [L * (N - 1) // N**n for n in range(1, depth + 1)]
        assert ladder.tail_rank == L // N**depth
        parts = list(ladder.projections) + [ladder.tail]
        for i, P in enumerate(parts):
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(P - P.conj().T).max() <= 1e-10
            for Q in parts[i + 1 :]:
                assert np.abs(P @ Q).max() <= 1e-10
        assert np.abs(sum(parts) - np.eye(L)).max() <= 1e-10
