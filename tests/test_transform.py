import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_signal, random_spin_bank
from wavebank import (
    CoeffTree,
    FilterBank,
    FilterCoeffs,
    analyze,
    build_operators,
    energy_report,
    filters_to_loop,
    preset_bank,
    synthesize,
)
from wavebank.loops import _polyphase_stack
from wavebank.transform import _BLOCK

SQRT2 = math.sqrt(2.0)


def test_analyze_delta_haar():
    tree = analyze([1.0, 0.0, 0.0, 0.0], preset_bank("haar"), 1)
    assert np.allclose(tree.approx, [1 / SQRT2, 0.0], atol=1e-15)
    assert np.allclose(tree.details[0][0], [1 / SQRT2, 0.0], atol=1e-15)


def test_analyze_constant_signal_has_no_details():
    tree = analyze(np.ones(16), preset_bank("haar"), 3)
    for level in tree.details:
        for channel in level:
            assert np.abs(channel).max() == 0.0


def test_analyze_validation():
    haar = preset_bank("haar")
    with pytest.raises(ValueError):
        analyze(np.ones(6), haar, 2)  # 4 does not divide 6
    with pytest.raises(ValueError):
        analyze(np.ones(2), preset_bank("db4"), 1)  # shorter than the span
    with pytest.raises(ValueError):
        analyze(np.ones((2, 4)), haar, 1)


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        CoeffTree(2, 1, np.ones(2), ())  # missing level
    with pytest.raises(ValueError):
        CoeffTree(2, 1, np.ones(2), ((np.ones(3),),))  # wrong channel length
    with pytest.raises(ValueError):
        CoeffTree(3, 1, np.ones(2), ((np.ones(2),),))  # N-1 = 2 channels required


def test_synthesize_shape_mismatch():
    tree = analyze(np.ones(8), preset_bank("haar"), 1)
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        synthesize(tree, random_spin_bank(rng, 3, 1))  # N=3 bank against an N=2 tree
    short = CoeffTree(2, 1, np.ones(1), ((np.ones(1),),))
    with pytest.raises(ValueError):
        synthesize(short, preset_bank("db4"))  # two samples cannot carry a span-4 bank


def test_perfect_reconstruction_and_parseval():
    rng = np.random.default_rng(77)
    banks = [preset_bank(n) for n in ("haar", "db4", "stretched-haar:1")]
    banks += [random_spin_bank(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4))) for _ in range(5)]
    for bank in banks:
        for L in (bank.N**2 * bank.g, bank.N**3 * bank.g):
            max_levels = max(l for l in range(1, 4) if L % bank.N**l == 0)
            for _ in range(5):
                x = random_signal(rng, L)
                for levels in range(1, max_levels + 1):
                    tree = analyze(x, bank, levels)
                    assert tree.coefficient_count() == L
                    y = synthesize(tree, bank)
                    assert np.abs(y - x).max() <= 1e-12
                    energy = sum(energy_report(tree).values())
                    assert abs(energy - np.sum(np.abs(x) ** 2)) <= 1e-12


def test_zero_tree_gives_zero_signal():
    tree = CoeffTree(2, 1, np.zeros(4), ((np.zeros(4),),))
    assert np.abs(synthesize(tree, preset_bank("haar"))).max() == 0.0


def test_detail_delta_extracts_highpass_column():
    haar = preset_bank("haar")
    tree = CoeffTree(2, 1, np.zeros(4), ((np.array([1.0, 0, 0, 0]),),))
    y = synthesize(tree, haar)
    S1 = build_operators(haar, 8).ops[1]
    assert np.abs(y - S1[:, 0]).max() == 0.0


def test_analysis_matches_operator_matrices():
    # the index-arithmetic channel steps must agree with the explicit
    # periodized matrices to rounding
    rng = np.random.default_rng(8)
    for bank in (preset_bank("db4"), random_spin_bank(rng, 3, 2)):
        L = bank.N**2 * bank.g
        ops = build_operators(bank, L).ops
        x = random_signal(rng, L)
        tree = analyze(x, bank, 1)
        assert np.abs(tree.approx - ops[0].conj().T @ x).max() <= 1e-13
        for j, detail in enumerate(tree.details[0], start=1):
            assert np.abs(detail - ops[j].conj().T @ x).max() <= 1e-13
        back = synthesize(tree, bank)
        direct = ops[0] @ tree.approx + sum(
            ops[j] @ d for j, d in enumerate(tree.details[0], start=1)
        )
        assert np.abs(back - direct).max() <= 1e-13


def test_analyze_linearity():
    rng = np.random.default_rng(5)
    bank = preset_bank("db4")
    x, y = random_signal(rng, 16), random_signal(rng, 16)
    a, b = 0.7 - 0.2j, -1.3 + 1.1j
    t1 = analyze(a * x + b * y, bank, 2)
    tx = analyze(x, bank, 2)
    ty = analyze(y, bank, 2)
    assert np.abs(t1.approx - (a * tx.approx + b * ty.approx)).max() <= 1e-12
    for lvl in range(2):
        for ch in range(1):
            combo = a * tx.details[lvl][ch] + b * ty.details[lvl][ch]
            assert np.abs(t1.details[lvl][ch] - combo).max() <= 1e-12


def test_subband_orthogonality():
    # trees with disjoint nonzero subbands synthesize to orthogonal signals
    rng = np.random.default_rng(6)
    bank = preset_bank("db4")
    L, levels = 16, 2
    base = analyze(random_signal(rng, L), bank, levels)

    def lone(part):
        approx = np.zeros_like(base.approx)
        details = [[np.zeros_like(c) for c in lvl] for lvl in base.details]
        if part == "approx":
            approx = base.approx.copy()
        else:
            n, j = part
            details[n - 1][j - 1] = base.details[n - 1][j - 1].copy()
        return CoeffTree(2, levels, approx, tuple(tuple(lvl) for lvl in details))

    parts = ["approx", (1, 1), (2, 1)]
    signals = [synthesize(lone(p), bank) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert abs(np.vdot(signals[i], signals[j])) <= 1e-12
    assert np.abs(sum(signals) - synthesize(base, bank)).max() <= 1e-12


def test_energy_report_step_signal():
    # the alternating step correlates only with the level-1 detail channel
    tree = analyze(np.array([1.0, -1.0] * 4), preset_bank("haar"), 2)
    rep = energy_report(tree)
    assert rep["approx"] == pytest.approx(0.0, abs=1e-15)
    assert rep[(1, 1)] == pytest.approx(8.0)
    assert rep[(2, 1)] == pytest.approx(0.0, abs=1e-15)


def test_channel_counts():
    rng = np.random.default_rng(9)
    bank = random_spin_bank(rng, 4, 1)
    tree = analyze(random_signal(rng, 64), bank, 3)
    assert len(tree.details) == 3
    assert all(len(level) == 3 for level in tree.details)
    assert [c.size for c in tree.details[0]] == [16, 16, 16]
    assert tree.approx.size == 1


def _reference_channels(x, bank):
    # one level tap by tap with cyclic indices, valid at any period
    N, L = bank.N, x.size
    l = np.arange(L // N)
    out = []
    for f in bank.filters:
        c = np.zeros(L // N, dtype=complex)
        for i, a in enumerate(f.taps):
            c += np.conj(a) * x[(N * l + f.offset + i) % L]
        out.append(c / math.sqrt(N))
    return out


def _reference_merge(channels, bank):
    N, M = bank.N, channels[0].size
    l = np.arange(M)
    y = np.zeros(N * M, dtype=complex)
    for f, c in zip(bank.filters, channels):
        for i, a in enumerate(f.taps):
            y[(N * l + f.offset + i) % (N * M)] += a * c
    return y / math.sqrt(N)


@pytest.mark.parametrize("N, k, L, levels", [(2, 8, 32, 5), (3, 5, 27, 3)])
def test_stages_shorter_than_the_tap_span_wrap(N, k, L, levels):
    rng = np.random.default_rng(10 + N)
    bank = random_spin_bank(rng, N, k)
    assert bank.g == k + 1 and L // N**levels < N * bank.g
    x = random_signal(rng, L)
    tree = analyze(x, bank, levels)
    cur = x
    for n in range(levels):
        cur, *details = _reference_channels(cur, bank)
        for got, want in zip(tree.details[n], details):
            assert np.abs(got - want).max() <= 1e-13
    assert np.abs(tree.approx - cur).max() <= 1e-13
    cur = tree.approx
    for channels in reversed(tree.details):
        cur = _reference_merge((cur, *channels), bank)
    y = synthesize(tree, bank)
    assert np.abs(y - cur).max() <= 1e-13
    assert np.abs(y - x).max() <= 1e-12


def test_taps_below_the_loop_prune_threshold_are_kept():
    # the trailing N-tap block is below the relative threshold at which
    # filters_to_loop drops a coefficient, but it is part of the bank
    tail = 8e-13
    low, high = preset_bank("db4").filters
    bank = FilterBank(
        2,
        3,
        (
            FilterCoeffs(np.concatenate([low.taps, [tail, tail]])),
            FilterCoeffs(np.concatenate([high.taps, [tail, -tail]])),
        ),
    )
    assert filters_to_loop(bank).degree == 1
    rng = np.random.default_rng(12)
    L = 12
    ops = build_operators(bank, L).ops
    x = random_signal(rng, L)
    tree = analyze(x, bank, 1)
    assert np.abs(tree.approx - ops[0].conj().T @ x).max() <= 1e-14
    assert np.abs(tree.details[0][0] - ops[1].conj().T @ x).max() <= 1e-14
    back = synthesize(tree, bank)
    assert np.abs(back - (ops[0] @ tree.approx + ops[1] @ tree.details[0][0])).max() <= 1e-14


def test_levels_are_bounded_before_any_power_is_formed():
    # 2**100000 has 30103 digits: formatting it in an error message would fail
    with pytest.raises(ValueError, match=r"levels = 100000 is too many: at most 4, since 2\^4 "):
        analyze(np.ones(16), preset_bank("haar"), 100000)
    with pytest.raises(ValueError, match="at most 1"):
        analyze(np.ones(6), preset_bank("haar"), 2)


# The whole-row kernel the blocked one replaced, kept as the reference: every
# term streams a full row.  The blocked kernel must return the same bits.


def _unblocked_analyze(x, bank, levels):
    N = bank.N
    A = _polyphase_stack(bank).conj()
    details = []
    cur = np.asarray(x, dtype=np.complex128)
    for _ in range(levels):
        M = cur.size // N
        X = np.take(cur.reshape(M, N).T, np.arange(M + len(A) - 1), axis=1, mode="wrap")
        out = [np.zeros(M, dtype=np.complex128) for _ in range(N)]
        for d, j, r in np.ndindex(A.shape):
            out[j] += A[d, j, r] * X[r, d : d + M]
        cur, *channels = out
        details.append(tuple(channels))
    return CoeffTree(N, levels, cur, tuple(details))


def _unblocked_synthesize(tree, bank):
    A = _polyphase_stack(bank)
    cur = tree.approx
    for channels in reversed(tree.details):
        c, M = (cur, *channels), cur.size
        Y = np.zeros((bank.N, M + len(A) - 1), dtype=np.complex128)
        for d, j, r in np.ndindex(A.shape):
            Y[r, d : d + M] += A[d, j, r] * c[j]
        for s in range(M, Y.shape[1], M):
            n = min(M, Y.shape[1] - s)
            Y[:, :n] += Y[:, s : s + n]
        cur = Y[:, :M].T.reshape(-1)
    return cur


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize(
    "N, k, levels, c",
    [
        (2, 1, 12, 20),  # level 1 spans 2.5 blocks; the last stage is 20 long
        (2, 16, 12, 20),  # ... and shorter than the tap span 34
        (2, 16, 12, 16),  # level 1 is exactly 2 blocks
        (3, 1, 8, 18),
        (3, 8, 8, 18),  # last stage 18 against the span 27
        (4, 1, 7, 10),
        (4, 4, 7, 10),  # last stage 10 against the span 20
        (2, 8, 5, 1),  # every stage within one block, the last ones wrapping
        (3, 5, 3, 1),
    ],
)
def test_blocked_kernel_matches_the_whole_row_kernel_bit_for_bit(N, k, levels, c):
    rng = np.random.default_rng(100 * N + k)
    bank = random_spin_bank(rng, N, k)
    L = N**levels * c
    assert L // N >= 2 * _BLOCK or L // N < _BLOCK  # several blocks, or within one
    x = random_signal(rng, L)
    tree = analyze(x, bank, levels)
    want = _unblocked_analyze(x, bank, levels)
    got_channels = [tree.approx, *(ch for level in tree.details for ch in level)]
    want_channels = [want.approx, *(ch for level in want.details for ch in level)]
    assert len(got_channels) == len(want_channels)
    for got, ref in zip(got_channels, want_channels):
        assert np.array_equal(_bits(got), _bits(ref))
    assert np.array_equal(_bits(synthesize(tree, bank)), _bits(_unblocked_synthesize(want, bank)))


def test_constant_signal_over_many_blocks_has_no_details():
    tree = analyze(np.ones(2**17), preset_bank("haar"), 10)
    assert tree.details[0][0].size == 4 * _BLOCK
    for level in tree.details:
        for channel in level:
            assert np.abs(channel).max() == 0.0


@pytest.mark.parametrize(
    "N, k, levels, c",
    [
        (2, 1, 12, 20),  # level 1 spans 2.5 blocks
        (2, 8, 5, 1),  # the last stages wrap several times
        (3, 1, 8, 18),
        (3, 5, 3, 1),
    ],
)
def test_signed_zeros_match_the_whole_row_kernel_bit_for_bit(N, k, levels, c):
    # A sum of signed zeros is -0 only when every term is -0 and it does not
    # start from +0, so the zero-filled buffers and the order of the period
    # fold show in the sign bits; one nonzero sample spreads over all levels.
    # Analysis outputs start from +0, so synthesis also runs on a one-level
    # tree cut straight from the signal.
    rng = np.random.default_rng(200 * N + k)
    bank = random_spin_bank(rng, N, k)
    L = N**levels * c
    x = rng.choice([0.0, -0.0], size=(L, 2)).view(np.complex128)[:, 0]
    x[L // 3] = 1.5 - 0.25j
    tree = analyze(x, bank, levels)
    want = _unblocked_analyze(x, bank, levels)
    for got, ref in zip(
        [tree.approx, *(ch for level in tree.details for ch in level)],
        [want.approx, *(ch for level in want.details for ch in level)],
    ):
        assert np.array_equal(_bits(got), _bits(ref))
    assert np.array_equal(_bits(synthesize(tree, bank)), _bits(_unblocked_synthesize(want, bank)))
    approx, *channels = np.split(x, N)
    zeros = CoeffTree(N, 1, approx, (tuple(channels),))
    assert np.array_equal(_bits(synthesize(zeros, bank)), _bits(_unblocked_synthesize(zeros, bank)))


def test_a_level_works_in_its_output_plus_a_few_blocks():
    # One level holds its input stage and its output; beyond those the
    # transform may use a few blocks of working space, not level-sized copies.
    rng = np.random.default_rng(14)
    bank = random_spin_bank(rng, 2, 8)
    assert bank.g == 9
    x = random_signal(rng, 2**18)
    bound = x.nbytes + x.nbytes // 2 + 4 * 2 * _BLOCK * 16  # output, the first coarse stage, 4 blocks
    tracemalloc.start()
    try:
        tree = analyze(x, bank, 10)
        analysis_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        synthesize(tree, bank)
        synthesis_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert analysis_peak < bound
    assert synthesis_peak < bound
