"""Workload ``bank-certify``: every view of a stream of banks, checked in-process.

Each bank, a preset or a random spin bank with N in {2, 3, 4, 8} and k from
1 to 32, goes through seven steps:

1. save and load the bank (and its spins) as JSON;
2. ``filters_to_loop``, ``verify_bank`` and ``unitarity_check``;
3. the spin round trip ``factor_to_spins -> synthesize_from_spins``;
4. ``build_operators`` and ``verify_cuntz`` at a period L from 128 to 1024;
5. ``subband_ladder`` at the deepest valid depth;
6. ``detect_monomial_corner`` plus ``invariant_subspace_probe`` at
   K = max(32, N g) and K = 1024;
7. ``cascade_iterate``, then ``build_wavelets`` and ``translate_gram`` when
   the cascade converged.

No transform runs here.  Storage works on many small objects, and the dense
operator algebra of ``cuntz`` takes most of the time.  The spin peel is known
to fail on part of the k = 16 and k = 32 banks; those failures are counted
and reported, never dropped.
"""

from __future__ import annotations

import math

import numpy as np

from wavebank import cascade, cuntz, filters, loops, storage

import common
import inputs
from common import SPIN_ROUNDTRIP_TOL, CaseResult, Step

NAME = "bank-certify"
ID = 3

# N = 4 and 8 come once per rotation, N = 2 and 3 more often, because the
# K = 1024 probe costs three to five times as much at N = 4 and 8.  Every N
# still reaches k = 32: the N = 4 and N = 8 banks alternate between a small
# k and k = 32 from rotation to rotation.
_SPINS = [(2, 1), (2, 2), (2, 4), (2, 16), (2, 32), (3, 2), (3, 8), (3, 32)]
# The dense checks cost O(L^3): the largest period comes once in seven banks.
_PERIODS = {3: (162, 243, 486, 162, 243, 486, 729), "other": (128, 256, 512, 128, 256, 512, 1024)}
_TINY_PERIODS = {3: (81, 243), "other": (64, 128)}
LARGEST_ARRAY_BYTES = 16 * (2 * 1024 + 1) ** 2  # one truncated operator of the K = 1024 probe
MIN_ROTATIONS = math.ceil(100 / (3 + len(_SPINS) + 2))  # at least 100 banks per run


def specs(rotation: int, tiny: bool) -> list[inputs.BankSpec]:
    if tiny:
        return [inputs.BankSpec("haar"), inputs.BankSpec(N=2, k=3), inputs.BankSpec(N=3, k=32)]
    presets = ["haar", "db4", f"stretched-haar:{1 + rotation % 4}"]
    spins = _SPINS + [(4, 32 if rotation % 2 else 4), (8, 2 if rotation % 2 else 32)]
    return [inputs.BankSpec(p) for p in presets] + [inputs.BankSpec(N=N, k=k) for N, k in spins]


def _key(N: int):
    return 3 if N == 3 else "other"


class Case(common.Case):
    def __init__(self, ctx, seed: int, rotation: int, slot: int, spec: inputs.BankSpec):
        self.bank = inputs.draw_bank(spec, inputs.rng_for(seed, ID, rotation, slot))
        self.json_path = str(ctx.work / "bank.json")
        self.spins_path = str(ctx.work / "spins.json")
        bank = self.bank.bank
        N = bank.N
        self.span = max(f.span for f in bank.filters)
        # Period L cycles through its list slot by slot and rotation by rotation,
        # so every seed sees the same mix of small and large periods.
        periods = (_TINY_PERIODS if ctx.tiny else _PERIODS)[_key(N)]
        fitting = [L for L in periods if L >= self.span] or [max(periods)]
        self.L = fitting[(slot + rotation) % len(fitting)]
        # the dense ladder costs O(depth^2 L^3): it runs at the smallest period that holds the taps
        self.ladder_L = fitting[0]
        self.depth = 1
        while self.ladder_L % N ** (self.depth + 1) == 0 and self.ladder_L // N**self.depth >= self.span:
            self.depth += 1
        self.windows = (max(32, N * bank.g), 128 if ctx.tiny else 1024)
        grid = 2**6 if not ctx.tiny else 2**4
        self.cascade_depth = (6 if ctx.tiny else 12) if spec.preset else int(math.log(grid, N) + 1e-9)

    def dense_bytes(self) -> int:
        """Bytes of the dense complex matrices steps 4-6 build, from their shapes."""
        N, L, P = self.bank.bank.N, self.L, self.ladder_L
        operators = 16 * L * L  # N blocks of L x L/N
        checks = 32 * L * L  # the Gram blocks plus the completeness sum
        ladder = 16 * (self.depth + 1) * P * P + (16 * P * P if P != L else 0)
        probes = sum(16 * N * (2 * K + 1) ** 2 for K in self.windows)
        return operators + checks + ladder + probes

    def run(self, ctx) -> CaseResult:
        b = self.bank
        bank = b.bank
        result = CaseResult(b.spec.label, b.short)
        steps = result.steps

        step = Step("storage", 0.0)
        step.call(storage.save, bank, self.json_path)
        back = step.call(storage.load, self.json_path, "bank")
        spins_back = None
        if b.spins is not None:
            step.call(storage.save, b.spins, self.spins_path)
            spins_back = step.call(storage.load, self.spins_path, "spins")
        if step.ok:
            with ctx.tracer.paused():
                step.ok, step.note = _storage_round_trip(bank, back, b.spins, spins_back, self.json_path)
        steps.append(step)

        step = Step("loop-checks", 0.0)
        loop = step.call(loops.filters_to_loop, bank)
        report = step.call(filters.verify_bank, bank)
        unit = step.call(loops.unitarity_check, loop) if loop is not None else None
        if step.ok and not (report.passed and unit.passed):
            step.ok, step.note = False, "bank or loop verification failed"
        steps.append(step)

        # The known spin-peel class is the peel's two known defects: factor_to_spins
        # raises NotFactorableError, or it completes with a round trip above the
        # tolerance.  Any other exception, or a lost degree, is outside the class.
        step = Step("spin-roundtrip", 0.0)
        if loop is not None:
            sf = step.call(loops.factor_to_spins, loop)
            step.known = sf is None and step.error is loops.NotFactorableError
            again = step.call(loops.synthesize_from_spins, sf) if sf is not None else None
            if again is not None:
                if again.degree != loop.degree:
                    step.ok, step.note = False, f"degree {again.degree} != {loop.degree}"
                else:
                    err = float(np.abs(again.coeffs - loop.coeffs).max())
                    ctx.note_max("loops.spin_roundtrip_err_max", err)
                    if err > SPIN_ROUNDTRIP_TOL:
                        step.ok, step.known, step.note = False, True, f"spin round trip error {err:.3e}"
        else:
            step.ok, step.note = False, "no loop"
        steps.append(step)

        step = Step("cuntz", 0.0)
        system = step.call(cuntz.build_operators, bank, self.L)
        if system is not None:
            rep = step.call(cuntz.verify_cuntz, system)
            if rep is not None:
                residual = max(rep.max_residual_orthogonality, rep.max_residual_completeness)
                ctx.note_max("cuntz.residual_max", residual)
                if residual > cuntz.CUNTZ_TOL:
                    step.ok, step.note = False, f"Cuntz residual {residual:.3e}"
        steps.append(step)

        step = Step("ladder", 0.0)
        if system is not None and self.ladder_L == self.L:
            ladder_system = system
        else:
            ladder_system = step.call(cuntz.build_operators, bank, self.ladder_L)
        if ladder_system is not None:
            step.call(cuntz.subband_ladder, ladder_system, self.depth)
        steps.append(step)

        step = Step("reducibility", 0.0)
        corner = step.call(cuntz.detect_monomial_corner, loop) if loop is not None else None
        probes = [step.call(cuntz.invariant_subspace_probe, bank, K) for K in self.windows]
        if corner is None:
            step.ok = False
        elif step.ok:
            found = any(p.candidate_found for p in probes)
            if corner.reducible != b.expect_reducible or (found and not b.expect_reducible):
                step.ok = False
                step.note = f"corner reducible={corner.reducible}, probe found={found}, expected {b.expect_reducible}"
        steps.append(step)

        step = Step("cascade", 0.0)
        res = step.call(cascade.cascade_iterate, bank, self.cascade_depth)
        if res is not None and res.converged:
            step.call(cascade.build_wavelets, bank, res.phi)
            lo, hi = res.phi.support
            step.call(cascade.translate_gram, res.phi, math.ceil(hi - lo))
        steps.append(step)
        return result


def _storage_round_trip(bank, back, spins, spins_back, path: str) -> tuple[bool, str]:
    same = bank.N == back.N and bank.g == back.g and all(
        f.offset == h.offset and np.array_equal(f.taps, h.taps) for f, h in zip(bank.filters, back.filters)
    )
    if not same:
        return False, "bank does not reload bit for bit"
    if spins is not None:
        if not (
            np.array_equal(spins.V, spins_back.V)
            and len(spins.factors) == len(spins_back.factors)
            and all(np.array_equal(a, c) for a, c in zip(spins.factors, spins_back.factors))
        ):
            return False, "spins do not reload bit for bit"
    with open(path, "rb") as fh:
        first = fh.read()
    storage.save(back, path)
    with open(path, "rb") as fh:
        if fh.read() != first:
            return False, "reloaded bank does not re-save byte-identically"
    return True, ""


def warm_up(ctx) -> None:
    bank = filters.preset_bank("db4")
    cuntz.verify_cuntz(cuntz.build_operators(bank, 16))
    loops.factor_to_spins(loops.filters_to_loop(bank))


def computed_counts(ctx, case: Case) -> None:
    ctx.add("cuntz.dense_bytes", case.dense_bytes())
