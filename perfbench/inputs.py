"""Seeded inputs for the benchmark workloads.

Every input is a pure function of ``(seed, workload, rotation, slot)``: the
same seed gives the same banks and signals.  Random spin banks are drawn the
way the test suite draws them, including the QR phase fix that makes the
unitary draws independent of the BLAS build.  The program under test only
receives the finished banks, spin files and signals.

The *shape* of each rotation (which preset, which ``N`` and ``k``, which
period) depends only on the rotation index, never on the seed, so every seed
measures the same mix of cheap and expensive cases and medians stay steady
from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wavebank import filters, loops

SHORT_GENUS_MAX = 3  # "short" filters have genus g <= 3; longer ones are "long"


def rng_for(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed, *keys])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # fix the QR phase ambiguity so draws are deterministic across BLAS builds
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_spins(rng: np.random.Generator, N: int, k: int) -> loops.SpinFactorization:
    vectors = []
    for _ in range(k):
        v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        vectors.append((v / np.linalg.norm(v))[None, :])
    return loops.SpinFactorization(N, random_unitary(rng, N), tuple(vectors))


def random_signal(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


@dataclass(frozen=True)
class BankSpec:
    """A bank to draw: a preset name, or ``N`` and the number ``k`` of spin factors."""

    preset: str = ""
    N: int = 2
    k: int = 0

    @property
    def label(self) -> str:
        return self.preset or f"spin-N{self.N}-k{self.k}"


@dataclass(frozen=True)
class Bank:
    spec: BankSpec
    bank: filters.FilterBank
    spins: loops.SpinFactorization | None  # the generating spins of a random bank

    @property
    def short(self) -> bool:
        return self.bank.g <= SHORT_GENUS_MAX

    @property
    def expect_reducible(self) -> bool:
        """The named verdicts: Haar and stretched Haar reduce, db4 and random banks do not."""
        return self.spec.preset == "haar" or self.spec.preset.startswith("stretched-haar:")


def draw_bank(spec: BankSpec, rng: np.random.Generator) -> Bank:
    if spec.preset:
        return Bank(spec, filters.preset_bank(spec.preset), None)
    sf = random_spins(rng, spec.N, spec.k)
    return Bank(spec, loops.loop_to_filters(loops.synthesize_from_spins(sf)), sf)


def signal_length(N: int, target_log2: int) -> int:
    """``2**target_log2`` for N = 2 and 4, else the largest power of N not above it."""
    if N in (2, 4):
        return 2**target_log2
    e = 0
    while N ** (e + 1) <= 2**target_log2:
        e += 1
    return N**e


def deepest_levels(length: int, N: int, span: int) -> int:
    """Most analysis levels that keep every stage's input at least the tap span."""
    levels = 0
    stage = length
    while stage % N == 0 and stage >= span:
        levels += 1
        stage //= N
    return levels
