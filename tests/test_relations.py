"""The orthogonality relations check: the one decider of `verify_bank` and the CLI.

``relations_check`` reads the Laurent coefficients of ``A(z) A(z)^*`` off the
polyphase stack.  The properties pin it against the partial checks, views of
the same coefficients: the per-channel `orthogonality_check` (its diagonal)
and the loop's `unitarity_check`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spins
from wavebank import (
    FilterBank,
    coeffs_from_dense,
    filters_to_loop,
    loop_to_filters,
    orthogonality_check,
    preset_bank,
    synthesize_from_spins,
    unitarity_check,
    verify_bank,
)
from wavebank.filters import ALG_TOL, _polyphase_stack, relations_check

SETTINGS = settings(derandomize=True, deadline=None)


def equal_channel_db4() -> FilterBank:
    low = preset_bank("db4").lowpass
    return FilterBank(2, 2, (low, low))


def test_equal_channels_fail_off_the_diagonal():
    bank = equal_channel_db4()
    # each channel alone is orthonormal to its translates
    assert all(orthogonality_check(f, 2).passed for f in bank.filters)
    report = verify_bank(bank)
    assert not report.passed
    assert report.relations.worst == (0, 0, 1)
    assert report.relations.residual == pytest.approx(2.0, abs=1e-12)
    assert report.relations.tol == ALG_TOL


def test_presets_pass_and_residuals_are_on_the_tap_scale():
    for name in ("haar", "db4", "stretched-haar:3"):
        assert verify_bank(preset_bank(name)).relations.residual <= 1e-15
    # doubling every tap of Haar: sum_k a_k conj(a_k) = 8 against N = 2
    haar = preset_bank("haar")
    doubled = FilterBank(2, 1, tuple(coeffs_from_dense(2 * f.taps) for f in haar.filters))
    rep = relations_check(_polyphase_stack(doubled))
    assert rep.residual == pytest.approx(6.0) and rep.worst == (0, 0, 0) and not rep.passed


def test_nan_fails_at_the_first_relation_it_reaches():
    stack = _polyphase_stack(preset_bank("db4"))
    stack[1, 1, 0] = np.nan  # a tap of channel 1: C_0[0, 1] is the first entry it spoils
    rep = relations_check(stack)
    assert not rep.passed and np.isnan(rep.residual) and rep.worst == (0, 0, 1)


def test_a_declared_genus_beyond_the_taps_costs_nothing():
    haar = preset_bank("haar")
    wide = FilterBank(2, 4096, haar.filters)
    tracemalloc.start()
    try:
        report = verify_bank(wide)
        loop = filters_to_loop(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == verify_bank(haar)
    assert loop.degree == 0
    assert peak < 64 * 1024


@st.composite
def spin_banks(draw, max_k=16):
    N, k = draw(st.integers(2, 8)), draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return loop_to_filters(synthesize_from_spins(random_spins(rng, N, k)))


@st.composite
def perturbed_banks(draw):
    """A spin bank with one tap moved by at least 1e-6, and that tap's channel."""
    bank = draw(spin_banks(max_k=8))
    channel = draw(st.integers(0, bank.N - 1))
    tap = draw(st.integers(0, bank.N * bank.g - 1))
    size = draw(st.floats(1e-6, 1.0))
    delta = size * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
    dense = bank.dense_taps()
    dense[channel, tap] += delta
    filters = tuple(coeffs_from_dense(row) for row in dense)
    return FilterBank(bank.N, bank.g, filters, lowpass_normalized=False), channel


@SETTINGS
@given(spin_banks())
def test_random_spin_loops_pass(bank):
    loop = filters_to_loop(bank)
    rep = relations_check(loop.coeffs)
    assert rep.passed and rep.residual <= 1e-12
    assert verify_bank(bank).relations.residual <= 1e-12


@SETTINGS
@given(perturbed_banks())
def test_one_perturbed_tap_fails_in_its_channel(case):
    bank, channel = case
    rep = verify_bank(bank).relations
    assert not rep.passed
    _, i, j = rep.worst
    assert channel in (i, j)


@SETTINGS
@given(st.one_of(spin_banks(max_k=8).map(lambda b: (b, None)), perturbed_banks()))
def test_agrees_with_certified_unitarity_and_is_as_strict_as_each_channel(case):
    bank, _ = case
    rep = verify_bank(bank).relations
    loop = filters_to_loop(bank)
    assert rep.passed == unitarity_check(loop).passed
    # the diagonal holds each channel's translate orthonormality, so the check
    # sees every deviation orthogonality_check sees (up to rounding)
    orth = [orthogonality_check(f, bank.N) for f in bank.filters]
    assert rep.residual + 1e-13 >= max(r.residual for r in orth)
    assert not rep.passed or all(r.passed for r in orth)
