import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spin_bank, random_spins, random_unitary
from wavebank import (
    NotFactorableError,
    PolyLoop,
    SpinFactorization,
    factor_to_spins,
    filters_to_loop,
    loop_to_filters,
    orthogonality_check,
    preset_bank,
    symbol_eval,
    synthesize_from_spins,
    unitarity_check,
)
from wavebank import loops
from wavebank.filters import relations_check

SQRT2 = math.sqrt(2.0)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


def root_sum_eval(bank, z):
    """Independent oracle: the polyphase matrix by the N-th-root sum.

    Entry (j, k) is ``(1/N) * sum_{w^N = z} w^{-k} m_j(w)`` with the symbols
    evaluated directly from the taps.
    """
    N = bank.N
    w0 = complex(z) ** (1.0 / N)
    roots = w0 * np.exp(2j * np.pi * np.arange(N) / N)
    A = np.zeros((N, N), dtype=complex)
    for j, f in enumerate(bank.filters):
        for k in range(N):
            A[j, k] = sum(w ** (-k) * symbol_eval(f, N, w) for w in roots) / N
    return A


@pytest.mark.parametrize("name", ["haar", "db4", "stretched-haar:1", "stretched-haar:2"])
def test_filters_to_loop_matches_root_sum(name):
    bank = preset_bank(name)
    loop = filters_to_loop(bank)
    for z in np.exp(2j * np.pi * np.arange(64) / 64):
        assert np.abs(loop(z) - root_sum_eval(bank, z)).max() <= 1e-12


def test_filters_to_loop_matches_root_sum_random():
    rng = np.random.default_rng(10)
    for _ in range(10):
        bank = random_spin_bank(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
        loop = filters_to_loop(bank)
        for z in np.exp(2j * np.pi * np.arange(16) / 16):
            assert np.abs(loop(z) - root_sum_eval(bank, z)).max() <= 1e-12


def test_haar_loop_is_constant_hadamard():
    loop = filters_to_loop(preset_bank("haar"))
    assert loop.degree == 0
    assert np.allclose(loop.coeffs[0], HADAMARD, atol=1e-15)


def test_stretched_loop_coefficients():
    loop = filters_to_loop(preset_bank("stretched-haar:1"))
    assert loop.degree == 1
    assert np.allclose(loop.coeffs[0], [[1 / SQRT2, 0], [1 / SQRT2, 0]], atol=1e-15)
    assert np.allclose(loop.coeffs[1], [[0, 1 / SQRT2], [0, -1 / SQRT2]], atol=1e-15)


def _delta_bank(N):
    from wavebank import FilterCoeffs, FilterBank

    root = math.sqrt(N)
    return FilterBank(
        N,
        1,
        tuple(FilterCoeffs([root], offset=j) for j in range(N)),
        lowpass_normalized=False,
        name="delta",
    )


def test_delta_bank_gives_identity_loop():
    for N in (2, 3, 4):
        loop = filters_to_loop(_delta_bank(N))
        assert loop.degree == 0
        assert np.allclose(loop.coeffs[0], np.eye(N), atol=1e-15)


def test_identity_loop_gives_monomial_filters():
    bank = loop_to_filters(PolyLoop(3, np.eye(3, dtype=complex)[None]))
    for j, f in enumerate(bank.filters):
        dense = np.zeros(3, dtype=complex)
        dense[j] = math.sqrt(3)
        assert np.allclose(f.dense(3), dense, atol=1e-15)
    assert not bank.lowpass_normalized


def test_hadamard_loop_gives_haar():
    bank = loop_to_filters(PolyLoop(2, HADAMARD[None].astype(complex)))
    haar = preset_bank("haar")
    for f, h in zip(bank.filters, haar.filters):
        assert np.allclose(f.dense(2), h.dense(2), rtol=5e-16, atol=0.0)


def test_round_trips_are_lossless():
    # The index pairing is an exact permutation; the only arithmetic is one
    # sqrt(N) scaling per direction, so every value round-trips within 2 ulp
    # (bitwise equality is unattainable in IEEE doubles for non-square N).
    rng = np.random.default_rng(31)
    banks = [preset_bank(n) for n in ("haar", "db4", "stretched-haar:1")]
    banks += [random_spin_bank(rng, int(rng.integers(2, 5)), int(rng.integers(1, 7))) for _ in range(20)]
    for bank in banks:
        loop = filters_to_loop(bank)
        back = loop_to_filters(loop)
        assert back.N == bank.N
        width = bank.N * max(bank.g, back.g)
        for f1, f2 in zip(bank.filters, back.filters):
            assert np.allclose(f1.dense(width), f2.dense(width), rtol=5e-16, atol=0.0)
        again = filters_to_loop(back)
        assert np.allclose(again.coeffs, loop.coeffs, rtol=5e-16, atol=0.0)
        # zero taps stay exactly zero: the permutation itself adds nothing
        assert np.array_equal(f1.dense(width) == 0, f2.dense(width) == 0)


def test_unitarity_check():
    haar_loop = filters_to_loop(preset_bank("haar"))
    rep = unitarity_check(haar_loop)
    assert rep.passed and rep.residual <= 1e-15
    bad = PolyLoop(2, np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex))
    assert not unitarity_check(bad).passed


def test_unitarity_is_the_relations_check_the_cli_applies():
    # |C_0 - I| = 7.0e-11 is within 1e-10, but on the tap scale, N |C_0 - I| =
    # 1.4e-10, it is not: the loop is as far from unitary as the CLI says
    loop = PolyLoop(2, (1 + 3.5e-11) * HADAMARD[None])
    rep = unitarity_check(loop)
    assert rep == relations_check(loop.coeffs)
    assert not rep.passed and rep.residual == pytest.approx(1.4e-10, rel=1e-3)


def test_unitarity_random_spins():
    rng = np.random.default_rng(8)
    for _ in range(100):
        sf = random_spins(rng, int(rng.integers(2, 5)), int(rng.integers(0, 9)))
        loop = synthesize_from_spins(sf)
        rep = unitarity_check(loop)
        assert rep.residual <= 1e-12


def test_unitarity_iff_orthogonality():
    rng = np.random.default_rng(12)
    for _ in range(20):
        bank = random_spin_bank(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        loop = filters_to_loop(bank)
        assert unitarity_check(loop).passed
        assert all(orthogonality_check(f, bank.N).passed for f in bank.filters)
        # perturb one tap: the broken bank fails on both sides of the equivalence
        taps = bank.filters[0].taps.copy()
        taps[0] += 1e-3
        from wavebank import FilterBank, FilterCoeffs

        broken = FilterBank(
            bank.N,
            bank.g,
            (FilterCoeffs(taps, offset=bank.filters[0].offset, unpruned=True),)
            + bank.filters[1:],
            lowpass_normalized=False,
        )
        assert not orthogonality_check(broken.filters[0], bank.N).passed
        assert not unitarity_check(filters_to_loop(broken)).passed


def test_synthesize_trivial_cases():
    assert synthesize_from_spins(SpinFactorization(2, np.eye(2), ())).degree == 0
    loop = synthesize_from_spins(SpinFactorization(2, HADAMARD, ()))
    haar_loop = filters_to_loop(preset_bank("haar"))
    assert np.allclose(loop.coeffs, haar_loop.coeffs, atol=1e-15)


def test_spin_validation():
    with pytest.raises(ValueError):
        SpinFactorization(2, np.eye(2) * 2.0, ())  # not unitary
    with pytest.raises(ValueError):
        SpinFactorization(2, np.eye(2), (np.array([[1.0, 1.0]]),))  # not unit norm
    with pytest.raises(ValueError):
        SpinFactorization(2, np.eye(2), (np.eye(2),))  # rank N not allowed


def test_higher_rank_factors_supported():
    # spin vectors are rank one, but factors of any rank below N synthesize
    # and peel the same way
    rng = np.random.default_rng(44)
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(z)
    sf = SpinFactorization(4, np.eye(4), (q.T.conj(),))
    loop = synthesize_from_spins(sf)
    assert loop.degree == 1
    assert unitarity_check(loop).passed
    back = synthesize_from_spins(factor_to_spins(loop))
    assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-12


def test_degree_additivity():
    rng = np.random.default_rng(77)
    for _ in range(30):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        assert synthesize_from_spins(random_spins(rng, N, k)).degree == k


def test_db4_loop_from_single_spin_angle_search():
    """A one-dimensional search over real spin angles lands on the db4 loop."""
    target = filters_to_loop(preset_bank("db4"))
    V = factor_to_spins(target).V

    def err(theta):
        v = np.array([[math.cos(theta), math.sin(theta)]], dtype=complex)
        loop = synthesize_from_spins(SpinFactorization(2, V, (v,)))
        if loop.degree != target.degree:
            return 1.0
        return float(np.abs(loop.coeffs - target.coeffs).max())

    thetas = np.linspace(0.0, np.pi, 2001)
    best = min(thetas, key=err)
    lo, hi = best - 2e-3, best + 2e-3
    golden = (math.sqrt(5) - 1) / 2
    for _ in range(80):
        m1 = hi - golden * (hi - lo)
        m2 = lo + golden * (hi - lo)
        if err(m1) <= err(m2):
            hi = m2
        else:
            lo = m1
    assert err((lo + hi) / 2) <= 1e-8


def test_factor_constant_loop():
    sf = factor_to_spins(filters_to_loop(preset_bank("haar")))
    assert sf.factors == ()
    assert np.allclose(sf.V, HADAMARD, atol=1e-15)


def test_factor_db4_single_factor():
    sf = factor_to_spins(filters_to_loop(preset_bank("db4")))
    assert len(sf.factors) == 1
    assert sf.factors[0].shape[0] == 1


def test_factor_round_trip_random():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        loop = synthesize_from_spins(random_spins(rng, N, k))
        sf = factor_to_spins(loop)
        assert len(sf.factors) == loop.degree
        back = synthesize_from_spins(sf)
        assert back.degree == loop.degree
        worst = max(worst, float(np.abs(back.coeffs - loop.coeffs).max()))
    assert worst <= 1e-10


def test_factor_pure_delay():
    for N in (2, 3):
        z_eye = PolyLoop(N, np.stack([np.zeros((N, N)), np.eye(N)]).astype(complex))
        sf = factor_to_spins(z_eye)
        assert len(sf.factors) == N
        assert all(vecs.shape[0] == 1 for vecs in sf.factors)
        back = synthesize_from_spins(sf)
        assert np.abs(back.coeffs - z_eye.coeffs).max() <= 1e-14


def test_factor_loops_a_rank_threshold_refused():
    # exact loops whose leading coefficient is tiny (largest singular value
    # 2.0e-11 at seed 10), so any absolute rank cut on it would refuse them
    for seed in (7, 10):
        loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), 4, 24))
        sf = factor_to_spins(loop)
        assert len(sf.factors) == 24 and all(vecs.shape[0] == 1 for vecs in sf.factors)
        back = synthesize_from_spins(sf)
        assert back.degree == loop.degree
        assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-10


def test_factor_splits_a_rank_two_factor_into_rank_one_factors():
    # the number of rank-one factors is the winding number of det A(z), the sum
    # of the ranks (test_factor_pure_delay covers z*I, whose factor has rank N)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    spins = SpinFactorization(4, random_unitary(rng, 4), (q.T.conj(), random_spins(rng, 4, 1).factors[0]))
    loop = synthesize_from_spins(spins)
    sf = factor_to_spins(loop)
    assert [vecs.shape[0] for vecs in sf.factors] == [1, 1, 1]
    back = synthesize_from_spins(sf)
    assert back.degree == loop.degree == 2
    assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_factor_peels_k_rank_one_factors_off_k_spins(N, k, seed):
    loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), N, k))
    sf = factor_to_spins(loop)
    assert len(sf.factors) == k and all(vecs.shape[0] == 1 for vecs in sf.factors)
    back = synthesize_from_spins(sf)
    assert back.degree == loop.degree
    assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-12


@settings(derandomize=True, deadline=None)
@given(st.integers(2, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_the_spin_count_is_read_off_the_coefficients(N, k, seed):
    # the winding number of det A(z) is sum_d d |A_d|_F^2 on a unitary loop
    loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), N, k))
    count = sum(d * np.linalg.norm(A) ** 2 for d, A in enumerate(loop.coeffs))
    assert abs(count - k) <= 1e-12
    assert len(factor_to_spins(loop).factors) == k


def test_a_spin_count_above_n_times_the_degree_is_refused_before_any_peel():
    # sum_d d |A_d|_F^2 = 1e6 for the db4 loop times 1e3, and a degree-1 loop
    # at N = 2 holds at most 2 rank-one factors
    loop = PolyLoop(2, 1e3 * filters_to_loop(preset_bank("db4")).coeffs)
    with pytest.raises(NotFactorableError, match=r"spin count .* = 1e\+06 exceeds N \* degree = 2") as exc:
        factor_to_spins(loop)
    assert exc.value.step is None and exc.value.conditioning is None
    # the residual is the relations check's, N |C_0 - I| = 2 (1e6 - 1)
    assert exc.value.residual == pytest.approx(2 * (1e6 - 1), rel=1e-9)


def test_factor_retries_on_the_transpose_before_it_refuses():
    # the loop's own peel misses the round trip on these loops (residuals
    # 1.4e-10, 1.2e-10 and 9.4e-10); the peel of the transpose factors them
    # to 9.0e-16, 3.6e-13 and 9.9e-16
    for seed, N, k in ((2023838528, 4, 6), (20, 2, 16), (27, 3, 16)):
        loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), N, k))
        sf = factor_to_spins(loop)
        assert len(sf.factors) == k and all(vecs.shape[0] == 1 for vecs in sf.factors)
        back = synthesize_from_spins(sf)
        assert back.degree == loop.degree
        assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-10


def test_a_non_finite_loop_is_refused_before_the_spin_count():
    coeffs = filters_to_loop(preset_bank("db4")).coeffs
    for index, value in (((0, 0, 0), np.inf), ((1, 1, 0), np.nan)):
        broken = coeffs.copy()
        broken[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotFactorableError, match="non-finite coefficient") as exc:
                factor_to_spins(PolyLoop(2, broken))
        assert exc.value.step is None and exc.value.conditioning is None


def test_factor_rejects_non_paraunitary():
    loop = filters_to_loop(preset_bank("db4"))
    coeffs = loop.coeffs.copy()
    coeffs[1, 0, 0] += 1e-3
    with pytest.raises(NotFactorableError) as exc:
        factor_to_spins(PolyLoop(2, coeffs))
    assert exc.value.residual > 1e-8


def test_factor_splits_the_peel_before_it_refuses():
    # the loop's own peel and the transpose's miss the round trip on these
    # loops (5.8e-10 and 1.3e-5 at seed 17, 6.8e-8 and 2.4e-10 at seed 48);
    # the two-sided peel at its best split factors them to about 1.7e-15 and
    # 1.1e-15.  At seeds 8 and 13 the best split misses too (2.5e-10 and
    # 4.1e-10), and the mirrored split, left first, factors them to about
    # 3.2e-11 and 2.5e-13
    for seed, N, k in ((17, 2, 24), (48, 3, 24), (8, 2, 32), (13, 3, 24)):
        loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), N, k))
        sf = factor_to_spins(loop)
        assert len(sf.factors) == k and all(vecs.shape[0] == 1 for vecs in sf.factors)
        back = synthesize_from_spins(sf)
        assert back.degree == loop.degree
        assert np.abs(back.coeffs - loop.coeffs).max() <= 1e-10


def split_candidates_by_factor(coeffs, m):
    """Each split candidate by its own right peel and `_factor` call, as an oracle."""
    rem, right, out = coeffs.copy(), [], []
    for j in range(m + 1):
        if j:
            right += loops._peel_steps(rem, 1)
        V, left = loops._from_transpose(*loops._factor(rem.transpose(0, 2, 1), m - j))
        out.append((V, left + tuple(reversed(right))))
    return out


@pytest.mark.parametrize("budget", [None, 4096])
def test_batched_split_candidates_match_the_per_candidate_peel(budget, monkeypatch):
    # the stacked steps update by rank-one products, the oracle by matrix
    # products; a small budget splits the candidates into several batches
    if budget is not None:
        monkeypatch.setattr(loops, "_SPLIT_BYTES", budget)
    rng = np.random.default_rng(26)
    for N, k in ((2, 6), (3, 4), (4, 3), (8, 2)):
        coeffs = synthesize_from_spins(random_spins(rng, N, k)).coeffs
        for T in (coeffs, coeffs.transpose(0, 2, 1)):
            oracle = split_candidates_by_factor(T, k)
            batches = list(loops._split_batches(T, k))
            assert sum(len(scores) for *_, scores in batches) == k + 1
            for j0, W, peeled, right, scores in batches:
                for i in range(len(scores)):
                    V, spins = loops._split_candidate(k, j0 + i, W[i], peeled[i], right)
                    V_o, spins_o = oracle[j0 + i]
                    assert np.abs(V - V_o).max() <= 1e-12
                    assert len(spins) == k
                    for v, v_o in zip(spins, spins_o):  # spins are defined up to phase
                        assert np.abs(v.T @ v.conj() - v_o.T @ v_o.conj()).max() <= 1e-12


# draws that all four attempts refuse with an error inside (1e-10, 1e-9):
# about 2.7e-10 at seed 10 and 3.4e-10 at seed 79
REFUSED_DRAWS = ((10, 3, 32), (79, 4, 24))


def test_factor_refuses_factors_that_miss_the_round_trip():
    for seed, N, k in REFUSED_DRAWS:
        loop = synthesize_from_spins(random_spins(np.random.default_rng(seed), N, k))
        with pytest.raises(NotFactorableError, match="re-synthesize") as exc:
            factor_to_spins(loop)
        assert 1e-10 < exc.value.residual < 1e-9
        assert f"(residual {exc.value.residual:.3e})" in str(exc.value)


def test_refusal_names_the_step_and_the_conditioning():
    # for rank-one factors |P_1 ... P_k|_2 = prod |<v_i, v_{i+1}>|, and the refused
    # factors match the generating spin vectors up to phase
    for seed, N, k in REFUSED_DRAWS:
        spins = random_spins(np.random.default_rng(seed), N, k)
        with pytest.raises(NotFactorableError) as exc:
            factor_to_spins(synthesize_from_spins(spins))
        v = [vecs[0] for vecs in spins.factors]
        expected = math.prod(abs(np.vdot(v[i], v[i + 1])) for i in range(k - 1))
        assert exc.value.step == k
        assert exc.value.conditioning == pytest.approx(expected, rel=1e-6)
        assert f"at step {k}, conditioning {exc.value.conditioning:.3e} (residual " in str(exc.value)
    # a non-paraunitary loop is refused by the same round trip, after its one peel step
    coeffs = filters_to_loop(preset_bank("db4")).coeffs.copy()
    coeffs[1, 0, 0] += 1e-3
    with pytest.raises(NotFactorableError, match="re-synthesize") as exc:
        factor_to_spins(PolyLoop(2, coeffs))
    assert exc.value.step == 1 and exc.value.conditioning is not None
    assert exc.value.residual > 1e-8
    assert f"at step 1, conditioning {exc.value.conditioning:.3e} (residual " in str(exc.value)


def test_left_unitary_twist_changes_only_v():
    rng = np.random.default_rng(123)
    loop = synthesize_from_spins(random_spins(rng, 3, 4))
    W = random_unitary(rng, 3)
    twisted = PolyLoop(3, W @ loop.coeffs)
    sf = factor_to_spins(loop)
    sft = factor_to_spins(twisted)
    assert len(sf.factors) == len(sft.factors)
    assert np.abs(W @ sf.V - sft.V).max() <= 1e-9
    back = synthesize_from_spins(sft)
    assert np.abs(back.coeffs - twisted.coeffs).max() <= 1e-10
