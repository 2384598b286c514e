import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spin_bank, random_spins, random_unitary
from wavebank import (
    CuntzSystem,
    FilterBank,
    FilterCoeffs,
    PolyLoop,
    build_operators,
    coeffs_from_dense,
    detect_monomial_corner,
    filters_to_loop,
    invariant_subspace_probe,
    loop_to_filters,
    preset_bank,
    stretched_haar_adjusted,
    subband_ladder,
    synthesize_from_spins,
    verify_cuntz,
)

SQRT2 = math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def delta_bank(N):
    root = math.sqrt(N)
    return FilterBank(
        N,
        1,
        tuple(FilterCoeffs([root], offset=j) for j in range(N)),
        lowpass_normalized=False,
        name="delta",
    )


def test_build_operators_haar_action():
    sys = build_operators(preset_bank("haar"), 4)
    xi = np.array([1.0 + 2.0j, 3.0 - 1.0j])
    out = sys.ops[0] @ xi
    assert np.allclose(out, np.array([xi[0], xi[0], xi[1], xi[1]]) / SQRT2, atol=1e-15)


def test_build_operators_validation():
    haar = preset_bank("haar")
    with pytest.raises(ValueError):
        build_operators(haar, 5)  # not divisible by N
    with pytest.raises(ValueError):
        build_operators(preset_bank("db4"), 2)  # shorter than the tap span


def test_isometry_for_verified_banks():
    rng = np.random.default_rng(21)
    banks = [preset_bank(n) for n in ("haar", "db4", "stretched-haar:1")]
    banks += [random_spin_bank(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5))) for _ in range(5)]
    for bank in banks:
        sys = build_operators(bank, bank.N * bank.g * bank.N)
        for S in sys.ops:
            eye = np.eye(sys.L // bank.N)
            assert np.abs(S.conj().T @ S - eye).max() <= 1e-12


def test_cuntz_identities_at_multiple_periods():
    rng = np.random.default_rng(22)
    banks = [preset_bank(n) for n in ("haar", "db4", "stretched-haar:1")]
    banks += [random_spin_bank(rng, int(rng.integers(2, 5)), int(rng.integers(1, 6))) for _ in range(10)]
    for bank in banks:
        Ng = bank.N * bank.g
        for L in (Ng, 2 * Ng, 4 * Ng):
            if L % bank.N:
                continue
            rep = verify_cuntz(build_operators(bank, L))
            assert rep.max_residual_orthogonality <= 1e-12
            assert rep.max_residual_completeness <= 1e-12


def test_haar_small_period_residuals():
    rep = verify_cuntz(build_operators(preset_bank("haar"), 8))
    assert rep.max_residual_orthogonality <= 1e-15
    assert rep.max_residual_completeness <= 1e-15


def test_perturbed_taps_break_completeness():
    bank = preset_bank("db4")
    taps = bank.lowpass.taps.copy()
    taps[1] += 1e-3
    broken = FilterBank(2, 2, (FilterCoeffs(taps), bank.filters[1]), lowpass_normalized=False)
    rep = verify_cuntz(build_operators(broken, 16))
    assert rep.max_residual_completeness > 1e-4  # perturbation propagates linearly


def dense_cuntz_residuals(sys):
    """The Cuntz residuals from the dense products of the operators, as an oracle."""
    L, N = sys.L, sys.N
    eye_small = np.eye(L // N)
    orth = 0.0
    for j, Sj in enumerate(sys.ops):
        for k, Sk in enumerate(sys.ops):
            gram = Sj.conj().T @ Sk
            target = eye_small if j == k else 0.0
            orth = max(orth, float(np.abs(gram - target).max()))
    total = sum(S @ S.conj().T for S in sys.ops)
    comp = float(np.abs(total - np.eye(L)).max())
    return orth, comp


def perturbed(bank, channel, tap):
    dense = bank.dense_taps()
    dense[channel, tap] += 0.01 + 0.02j
    filters = tuple(coeffs_from_dense(row) for row in dense)
    return FilterBank(bank.N, bank.g, filters, lowpass_normalized=False)


def test_folded_residuals_match_the_dense_operators():
    rng = np.random.default_rng(23)
    banks = [preset_bank(name) for name in ("haar", "db4", "stretched-haar:1", "stretched-haar:3")]
    banks += [delta_bank(2), delta_bank(3), stretched_haar_adjusted(2)]
    spins = [random_spin_bank(rng, N, k) for N, k in ((2, 6), (3, 2), (4, 2), (8, 3))]
    broken = [perturbed(bank, 1, bank.N + 1) for bank in spins]
    # the two orientations must differ on some bank for a swap of them to show
    gaps = [abs(o - c) for o, c in (dense_cuntz_residuals(build_operators(b, b.N * b.g)) for b in broken)]
    assert max(gaps) > 1e-4
    for bank in banks + spins + broken:
        N = bank.N
        D = -(-max(f.span for f in bank.filters) // N)
        # the smallest period, one whose lags wrap (L/N < 2D - 1), and a large one
        periods = {N * D, N * max(D, 2 * D - 2), 243 if N == 3 else 256}
        for L in sorted(periods):
            # the check reads the bank and the period only, never the operators
            rep = verify_cuntz(CuntzSystem(bank, L, ()))
            orth, comp = dense_cuntz_residuals(build_operators(bank, L))
            assert abs(rep.max_residual_orthogonality - orth) <= 1e-15
            assert abs(rep.max_residual_completeness - comp) <= 1e-15


def test_subband_ladder_haar():
    lad = subband_ladder(build_operators(preset_bank("haar"), 8), 2)
    assert lad.ranks == (4, 2)
    assert lad.tail_rank == 2


def test_subband_ladder_structure():
    sys = build_operators(preset_bank("db4"), 64)
    lad = subband_ladder(sys, 3)
    assert lad.ranks == (32, 16, 8) and lad.tail_rank == 8
    parts = list(lad.projections) + [lad.tail]
    total = sum(parts)
    assert np.abs(total - np.eye(64)).max() <= 1e-10
    for i, P in enumerate(parts):
        assert np.abs(P @ P - P).max() <= 1e-10
        assert np.abs(P - P.conj().T).max() <= 1e-10
        for Q in parts[i + 1 :]:
            assert np.abs(P @ Q).max() <= 1e-10


def test_first_ladder_level_is_highpass_range():
    # proj onto the wandering subspace = I - S0 S0* = sum_{j>=1} S_j S_j*
    rng = np.random.default_rng(40)
    for bank in (preset_bank("haar"), random_spin_bank(rng, 3, 2)):
        sys = build_operators(bank, bank.N**2 * bank.g)
        lad = subband_ladder(sys, 1)
        S0 = sys.ops[0]
        direct = np.eye(sys.L) - S0 @ S0.conj().T
        assert np.abs(lad.projections[0] - direct).max() <= 1e-12
        high = sum(S @ S.conj().T for S in sys.ops[1:])
        assert np.abs(lad.projections[0] - high).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 4), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_subband_ladder_on_spin_banks(N, k, depth, seed):
    bank = random_spin_bank(np.random.default_rng(seed), N, k)
    span = max(f.span for f in bank.filters)
    # the smallest period the ladder accepts: N^depth divides it, and the last
    # stage's period, L / N^(depth - 1), is at least the tap span
    L = N**depth * -(-span // N)
    sys = build_operators(bank, L)
    lad = subband_ladder(sys, depth)
    assert lad.ranks == tuple(L * (N - 1) // N**n for n in range(1, depth + 1))
    assert lad.tail_rank == L // N**depth
    high = sum(S @ S.conj().T for S in sys.ops[1:])
    assert np.abs(lad.projections[0] - high).max() <= 1e-12


def test_subband_ladder_validation():
    sys = build_operators(preset_bank("haar"), 8)
    with pytest.raises(ValueError):
        subband_ladder(sys, 4)  # N^4 = 16 does not divide 8
    sys4 = build_operators(preset_bank("db4"), 16)
    with pytest.raises(ValueError):
        subband_ladder(sys4, 4)  # last stage period 2 drops below the tap span 4


def test_corner_haar():
    rep = detect_monomial_corner(filters_to_loop(preset_bank("haar")))
    assert rep.reducible and rep.M == 2
    assert rep.exponents == (0, 0)
    assert rep.confidence == "decisive"
    assert np.allclose(rep.V, HADAMARD, atol=1e-15)
    assert np.allclose(rep.witnesses, np.eye(2), atol=1e-15)


def test_corner_stretched():
    rep = detect_monomial_corner(filters_to_loop(preset_bank("stretched-haar:1")))
    assert rep.reducible and rep.M == 2
    assert rep.exponents == (0, 1)
    assert rep.confidence == "decisive"


def test_corner_db4_irreducible():
    rep = detect_monomial_corner(filters_to_loop(preset_bank("db4")))
    assert not rep.reducible and rep.M == 0
    assert rep.exponents == ()
    assert rep.confidence == "decisive"
    assert rep.residual > 0.1  # comfortable margin away from a corner


def test_corner_delta_full():
    for N in (2, 3):
        rep = detect_monomial_corner(filters_to_loop(delta_bank(N)))
        assert rep.M == N and rep.exponents == tuple([0] * N)


def test_corner_oracle_joint_nullspace():
    # independent check: coordinate k is monomial iff the stacked off-exponent
    # coefficients annihilate e_k
    for name in ("haar", "db4", "stretched-haar:1", "stretched-haar:2"):
        loop = filters_to_loop(preset_bank(name))
        rep = detect_monomial_corner(loop)
        found = {}
        for k in range(loop.N):
            for n in range(loop.degree + 1):
                others = np.concatenate([loop.coeffs[:n], loop.coeffs[n + 1 :]])
                if others.size == 0 or np.abs(others[:, :, k]).max() <= 1e-9:
                    found[k] = n
        assert len(found) == rep.M
        assert tuple(found[k] for k in sorted(found)) == rep.exponents


def test_corner_left_twist_invariance():
    rng = np.random.default_rng(55)
    for name in ("haar", "db4", "stretched-haar:1"):
        loop = filters_to_loop(preset_bank(name))
        base = detect_monomial_corner(loop)
        for _ in range(5):
            W = random_unitary(rng, loop.N)
            rep = detect_monomial_corner(PolyLoop(loop.N, W @ loop.coeffs))
            assert rep.reducible == base.reducible
            assert rep.M == base.M
            assert sorted(rep.exponents) == sorted(base.exponents)
            if rep.M:
                assert np.abs(rep.V - W @ base.V).max() <= 1e-12


def test_corner_isometric_v():
    for k in (1, 2, 3):
        adj = stretched_haar_adjusted(k)
        rep = detect_monomial_corner(filters_to_loop(adj))
        gram = rep.V.conj().T @ rep.V
        assert np.abs(gram - np.eye(rep.M)).max() <= 1e-12


def test_probe_haar_halfline_invariant():
    rep = invariant_subspace_probe(preset_bank("haar"), 32)
    assert rep.candidate_found and rep.residual <= 1e-14


def test_probe_delta_halfline_invariant():
    rep = invariant_subspace_probe(delta_bank(3), 32)
    assert rep.candidate_found and rep.residual <= 1e-14


def test_probe_db4_leaks():
    rep = invariant_subspace_probe(preset_bank("db4"), 32)
    assert not rep.candidate_found
    assert rep.residual >= 0.1


def test_probe_window_validation():
    with pytest.raises(ValueError):
        invariant_subspace_probe(preset_bank("db4"), 3)


def test_probe_window_is_bounded_before_allocating():
    # the bound is checked before the window is used
    with pytest.raises(ValueError, match=r"window K = 100000000 is too large: at most 2048, "):
        invariant_subspace_probe(preset_bank("haar"), 100_000_000)


def test_probe_memory_does_not_grow_with_the_window():
    # the probe holds tail sums of the taps and no array as long as the window
    def peak(bank, K):
        invariant_subspace_probe(bank, K)
        tracemalloc.start()
        try:
            invariant_subspace_probe(bank, K)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rng = np.random.default_rng(72)
    for bank in (preset_bank("db4"), random_spin_bank(rng, 8, 32)):
        assert abs(peak(bank, 2048) - peak(bank, max(32, bank.N * bank.g))) <= 256
    assert peak(preset_bank("db4"), 2048) < 4096


def dense_half_line_leak(bank, K):
    """The probe's residual from the truncated bi-infinite model, as an oracle.

    Each channel's ``S_j`` is a dense ``(2K+1)^2`` matrix on ``[-K, K]`` with
    ``T[k, l] = a_{k - N l} / sqrt(N)``; the leak is the worst column norm that
    ``T`` or ``T^*`` moves from indices ``0 .. K - span`` to negative ones.
    """
    N = bank.N
    span = max(f.span for f in bank.filters)
    k_idx = np.arange(-K, K + 1)
    safe = slice(K, 2 * K + 1 - span)
    neg = slice(0, K)
    residual = 0.0
    for f in bank.filters:
        T = np.zeros((2 * K + 1, 2 * K + 1), dtype=np.complex128)
        for i, c in enumerate(f.taps):
            k = N * k_idx + f.offset + i
            keep = (k >= -K) & (k <= K)
            T[k[keep] + K, k_idx[keep] + K] = c / math.sqrt(N)
        adj = T.conj().T
        fwd_leak = np.linalg.norm(T[neg, safe], axis=0).max()
        adj_leak = np.linalg.norm(adj[neg, safe], axis=0).max()
        residual = max(residual, float(fwd_leak), float(adj_leak))
        del T, adj
    return residual


def test_probe_matches_the_dense_truncated_model():
    rng = np.random.default_rng(71)
    banks = [preset_bank(name) for name in ("haar", "db4", "stretched-haar:1", "stretched-haar:3")]
    banks += [delta_bank(2), delta_bank(3), stretched_haar_adjusted(2)]
    banks += [random_spin_bank(rng, N, k) for N, k in ((2, 5), (3, 4), (4, 3), (8, 3))]
    for bank in banks:
        for K in (max(32, bank.N * bank.g), 256, 1024):
            rep = invariant_subspace_probe(bank, K)
            assert rep.window == K
            assert abs(rep.residual - dense_half_line_leak(bank, K)) <= 1e-15


def test_probe_stretched_haar_leaks_despite_reducibility():
    # The half-line family only captures the box-type case: the stretched bank
    # is reducible (full monomial corner) but its reducing subspaces are not
    # half-lines, so the probe honestly reports the leak.
    bank = preset_bank("stretched-haar:1")
    assert detect_monomial_corner(filters_to_loop(bank)).reducible
    rep = invariant_subspace_probe(bank, 32)
    assert not rep.candidate_found
    assert rep.residual == pytest.approx(1 / SQRT2, abs=1e-12)


def test_detectors_agree_on_random_banks():
    rng = np.random.default_rng(60)
    for _ in range(100):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 7))
        bank = random_spin_bank(rng, N, k)
        corner = detect_monomial_corner(filters_to_loop(bank))
        probe = invariant_subspace_probe(bank, max(32, N * bank.g))
        # generic expectation: both negative
        assert not corner.reducible
        assert not probe.candidate_found


def probe_candidates_have_a_constant_column(bank, corner):
    """Probe ``bank`` at windows span, span + N - 1 and max(32, N g); return how
    many found a candidate, after checking each against the corner.

    A candidate means the loop's leading standard columns are constant, which
    the corner reports as exponent-0 monomials, so it must be reducible.
    """
    span = max(f.span for f in bank.filters)
    found = 0
    for K in (span, span + bank.N - 1, max(32, bank.N * bank.g)):
        if invariant_subspace_probe(bank, K).candidate_found:
            assert corner.reducible and 0 in corner.exponents, K
            found += 1
    return found


def test_a_probe_candidate_comes_with_a_reducible_corner():
    banks = [preset_bank(name) for name in ("haar", "db4", "stretched-haar:1", "stretched-haar:3")]
    banks += [stretched_haar_adjusted(2), delta_bank(2), delta_bank(3)]
    found = [probe_candidates_have_a_constant_column(b, detect_monomial_corner(filters_to_loop(b))) for b in banks]
    # Haar and the deltas at every window; a stretched bank's constant column 0 only at K = span
    assert found == [3, 0, 1, 1, 1, 3, 3]


def test_stretched_haar_adjusted():
    adj = stretched_haar_adjusted(1)
    assert not adj.lowpass_normalized
    assert np.allclose(adj.filters[0].dense(4), [SQRT2, 0, 0, 0], atol=1e-15)
    assert np.allclose(adj.filters[1].dense(4), [0, 0, 0, SQRT2], atol=1e-15)
    rep = verify_cuntz(build_operators(adj, 8))
    assert rep.max_residual_orthogonality <= 1e-15
    assert rep.max_residual_completeness <= 1e-15
    corner = detect_monomial_corner(filters_to_loop(adj))
    assert corner.reducible and corner.M == 2
    assert corner.exponents == (0, 1)
    # same reducibility verdict as the preset it rotates
    assert detect_monomial_corner(filters_to_loop(preset_bank("stretched-haar:1"))).reducible
    with pytest.raises(ValueError):
        stretched_haar_adjusted(0)


def test_stretched_haar_adjusted_exponents_scale_with_k():
    for k in (1, 2, 3):
        corner = detect_monomial_corner(filters_to_loop(stretched_haar_adjusted(k)))
        assert corner.M == 2 and corner.exponents == (0, k)


@st.composite
def cornered_loops(draw):
    """``U blockdiag(B(z), diag(z^{n_i})) Pi``: a spin loop ``B`` on ``r`` coordinates
    and ``N - r`` monomials, their columns permuted by ``Pi``; returns the loop,
    ``r``, the exponents ``n`` and the permutation."""
    N = draw(st.integers(2, 6))
    r = draw(st.sampled_from([0, *range(2, N + 1)]))
    n = draw(st.lists(st.integers(0, 4), min_size=N - r, max_size=N - r))
    perm = draw(st.permutations(range(N)))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = synthesize_from_spins(random_spins(rng, r, k)).coeffs if r else np.zeros((1, 0, 0))
    X = np.zeros((max(B.shape[0], max(n, default=0) + 1), N, N), dtype=np.complex128)
    X[: B.shape[0], :r, :r] = B
    for i, e in enumerate(n):
        X[e, r + i, r + i] = 1.0
    return PolyLoop(N, random_unitary(rng, N) @ X[:, :, perm]), r, n, perm


@settings(derandomize=True, deadline=None)
@given(cornered_loops())
def test_corner_of_a_built_loop(case):
    loop, r, n, perm = case
    rep = detect_monomial_corner(loop)
    N, M = loop.N, loop.N - r
    coords = [k for k in range(N) if perm[k] >= r]
    assert rep.M == M and rep.reducible == (M >= 1)
    assert rep.exponents == tuple(n[perm[k] - r] for k in coords)
    assert (rep.confidence == "decisive") == (M in (0, N))
    for i, (k, e) in enumerate(zip(coords, rep.exponents)):
        assert np.abs(rep.V[:, i] - loop.coeffs[e][:, k]).max() <= 1e-12
    probe_candidates_have_a_constant_column(loop_to_filters(loop), rep)
