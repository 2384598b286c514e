"""Workload ``transform-stream``: in-process analyze then synthesize of long signals.

Each case is one bank and one seeded signal of about 2^20 samples (2^20 for
N = 2 and 4, 3^12 for N = 3), split to the deepest level that keeps every
stage at least one tap span long.  Short filters (genus <= 3) and long ones
(N=2 g=33, N=3 g=17, N=4 g=9) are separate case classes, so a rewrite that
helps long filters but costs short ones shows on both sides.
"""

from __future__ import annotations

import numpy as np

from wavebank import transform

import common
import inputs
from common import PARSEVAL_RTOL, RECON_RTOL, CaseResult, Step, transform_cmacs

NAME = "transform-stream"
ID = 2
LARGEST_ARRAY_BYTES = 16 * 2**20  # the N = 2 and N = 4 signals
MIN_ROTATIONS = 1


def specs(rotation: int, tiny: bool) -> list[inputs.BankSpec]:
    if tiny:
        return [inputs.BankSpec("db4"), inputs.BankSpec(N=3, k=16)]
    short = [
        inputs.BankSpec("haar"),
        inputs.BankSpec("db4"),
        inputs.BankSpec(N=2, k=2),
        inputs.BankSpec(N=3, k=2),
        inputs.BankSpec(N=4, k=2),
    ]
    long = [inputs.BankSpec(N=2, k=32), inputs.BankSpec(N=3, k=16), inputs.BankSpec(N=4, k=8)]
    return short + long


class Case(common.Case):
    def __init__(self, ctx, seed: int, rotation: int, slot: int, spec: inputs.BankSpec):
        rng = inputs.rng_for(seed, ID, rotation, slot)
        self.bank = inputs.draw_bank(spec, rng)
        N, g = self.bank.bank.N, self.bank.bank.g
        self.signal = inputs.random_signal(rng, inputs.signal_length(N, 10 if ctx.tiny else 20))
        self.levels = inputs.deepest_levels(self.signal.size, N, N * g)

    def run(self, ctx) -> CaseResult:
        bank, x = self.bank.bank, self.signal
        result = CaseResult(self.bank.spec.label, self.bank.short)

        step = Step("analyze", 0.0)
        tree = step.call(transform.analyze, x, bank, self.levels)
        if tree is not None:
            with ctx.tracer.paused():
                energy = sum(transform.energy_report(tree).values())
            norm2 = float(np.vdot(x, x).real)
            if abs(energy - norm2) > PARSEVAL_RTOL * norm2:
                step.ok, step.note = False, f"Parseval mismatch {abs(energy - norm2):.3e}"
        result.steps.append(step)

        ctx.reference.tick()
        step = Step("synthesize", 0.0)
        back = step.call(transform.synthesize, tree, bank) if tree is not None else None
        if tree is None:
            step.ok, step.note = False, "no tree to synthesize"
        elif back is None:
            pass  # the call failed and says why
        elif back.shape != x.shape:
            step.ok, step.note = False, f"{back.size} samples back, {x.size} expected"
        else:
            rel = float(np.abs(back - x).max()) / float(np.abs(x).max())
            ctx.note_max("transform.recon_err_max", rel)
            if rel > RECON_RTOL:
                step.ok, step.note = False, f"relative synthesis error {rel:.3e}"
        result.steps.append(step)
        return result

    def remove(self) -> None:
        self.signal = None


def warm_up(ctx) -> None:
    bank = inputs.draw_bank(inputs.BankSpec("db4"), inputs.rng_for(0)).bank
    transform.synthesize(transform.analyze(np.ones(64, dtype=complex), bank, 2), bank)


def computed_counts(ctx, case: Case) -> None:
    ctx.add("transform.cmacs", transform_cmacs(case.bank.bank, case.signal.size, case.levels))
