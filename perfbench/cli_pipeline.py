"""Workload ``cli-pipeline``: each case runs the wavebank CLI verb after verb.

A case is one bank plus one seeded complex signal of about 2^16 samples.
Preset banks run design, verify, cascade --wavelets, transform-analyze and
transform-synth; random spin banks run design --spins, verify, loop, factor,
irreducibility --detector both, transform-analyze and transform-synth.  The
measured run starts every verb as its own ``python -m wavebank.cli``
subprocess, the way a user does; the traced run replays the same argument
lists in-process through ``wavebank.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from wavebank import cli, loops, storage, transform

import common
import inputs
from common import PARSEVAL_RTOL, RECON_RTOL, SPIN_ROUNDTRIP_TOL, CaseResult, Step, transform_cmacs

NAME = "cli-pipeline"
ID = 1
VERBS = ("design", "verify", "cascade", "loop", "factor", "irreducibility", "transform-analyze", "transform-synth")
LARGEST_ARRAY_BYTES = 16 * 2**16  # one complex signal in the benchmark process
MIN_ROTATIONS = 1
VERB_TIMEOUT_S = 60


def specs(rotation: int, tiny: bool) -> list[inputs.BankSpec]:
    if tiny:
        return [inputs.BankSpec("stretched-haar:3"), inputs.BankSpec(N=2, k=2)]
    # three short (g <= 3) and three long banks
    return [
        inputs.BankSpec("haar"),
        inputs.BankSpec("db4"),
        inputs.BankSpec(N=2, k=2),
        inputs.BankSpec("stretched-haar:3"),
        inputs.BankSpec(N=3, k=4),
        inputs.BankSpec(N=4, k=8),
    ]


class Case(common.Case):
    def __init__(self, ctx, seed: int, rotation: int, slot: int, spec: inputs.BankSpec):
        rng = inputs.rng_for(seed, ID, rotation, slot)
        self.bank = inputs.draw_bank(spec, rng)
        N, g = self.bank.bank.N, self.bank.bank.g
        self.signal = inputs.random_signal(rng, inputs.signal_length(N, 8 if ctx.tiny else 16))
        self.levels = inputs.deepest_levels(self.signal.size, N, N * g)
        # Re-saving a 2^16-coefficient tree costs about as much as two verbs, so
        # one case per rotation (a different slot each rotation) checks it.
        self.check_resave = slot == rotation % len(specs(rotation, ctx.tiny))
        self.dir = ctx.work / f"r{rotation}c{slot}"
        self.dir.mkdir(parents=True, exist_ok=True)
        storage.save(self.signal, self.path("signal.csv"))
        if self.bank.spins is not None:
            storage.save(self.bank.spins, self.path("spins.json"))
        self.depth = 6 if ctx.tiny else 12

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def argvs(self) -> list[list[str]]:
        p = self.path
        bank = p("bank.json")
        tail = [
            ["transform-analyze", p("signal.csv"), "--bank", bank, "--levels", str(self.levels), "-o", p("tree.json")],
            ["transform-synth", p("tree.json"), "--bank", bank, "-o", p("back.csv")],
        ]
        if self.bank.spins is None:
            return [
                ["design", "--preset", self.bank.spec.preset, "-o", bank],
                ["verify", bank],
                ["cascade", bank, "--depth", str(self.depth), "--wavelets", p("psi"), "-o", p("phi.csv")],
            ] + tail
        return [
            ["design", "--spins", p("spins.json"), "-o", bank],
            ["verify", bank],
            ["loop", bank, "-o", p("loop.json")],
            ["factor", p("loop.json"), "-o", p("spins_out.json")],
            ["irreducibility", bank, "--detector", "both", "-o", p("irr.json")],
        ] + tail

    def check(self, ctx, verb: str) -> tuple[bool, bool, str]:
        """Check a verb's output files: ``(ok, known spin-peel failure, note)``."""
        p = self.path
        if verb == "design":
            return os.path.isfile(p("bank.json")), False, "no bank written"
        if verb == "cascade":
            return os.path.isfile(p("phi.csv")) and os.path.isfile(p("psi1.csv")), False, "missing samples"
        if verb == "factor":
            back = loops.synthesize_from_spins(storage.load(p("spins_out.json"), "spins"))
            loop = storage.load(p("loop.json"), "loop")
            if back.degree != loop.degree:
                return False, False, f"degree {back.degree} != {loop.degree}"
            err = float(np.abs(back.coeffs - loop.coeffs).max())
            ctx.note_max("loops.spin_roundtrip_err_max", err)
            # a round trip above the tolerance is the peel's known defect
            return err <= SPIN_ROUNDTRIP_TOL, True, f"spin round trip error {err:.3e}"
        if verb == "irreducibility":
            with open(p("irr.json"), encoding="utf-8") as fh:
                verdict = json.load(fh)["reducible"]
            return verdict == self.bank.expect_reducible, False, f"reducible={verdict}"
        if verb == "transform-analyze":
            tree = storage.load(p("tree.json"), "tree")
            energy = sum(transform.energy_report(tree).values())
            norm2 = float(np.vdot(self.signal, self.signal).real)
            if abs(energy - norm2) > PARSEVAL_RTOL * norm2:
                return False, False, f"Parseval mismatch {abs(energy - norm2):.3e}"
            if not self.check_resave:
                return True, False, ""
            storage.save(tree, p("tree_resaved.json"))
            with open(p("tree.json"), "rb") as a, open(p("tree_resaved.json"), "rb") as b:
                return a.read() == b.read(), False, "reloaded tree does not re-save byte-identically"
        if verb == "transform-synth":
            back = storage.load(p("back.csv"), "signal")
            scale = float(np.abs(self.signal).max())
            if back.shape != self.signal.shape:
                return False, False, f"{back.size} samples back, {self.signal.size} expected"
            err = float(np.abs(back - self.signal).max())
            ctx.note_max("transform.recon_err_max", err / scale)
            return err <= RECON_RTOL * scale, False, f"synthesis error {err:.3e}"
        return True, False, ""

    def run(self, ctx) -> CaseResult:
        result = CaseResult(self.bank.spec.label, self.bank.short)
        for argv in self.argvs():
            verb = argv[0]
            ctx.reference.tick()
            if ctx.in_process:
                code, seconds, err = _main_in_process(argv)
            else:
                code, seconds, err = _main_subprocess(argv, ctx.env)
            step = Step(verb, seconds, code == 0, note=err.strip()[-300:])
            # the peel's NotFactorableError is known: cli.py exits with 1 and a
            # last stderr line "not factorable: ..."; any other exit is not
            lines = err.strip().splitlines()
            step.known = verb == "factor" and code == 1 and bool(lines) and lines[-1].startswith("not factorable:")
            if step.ok:
                with ctx.tracer.paused():
                    try:
                        step.ok, step.known, step.note = self.check(ctx, verb)
                    except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
                        step.ok, step.note = False, f"{type(exc).__name__}: {exc}"
            result.steps.append(step)
        return result

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _main_subprocess(argv: list[str], env: dict) -> tuple[int, float, str]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wavebank.cli", *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=VERB_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the verb
        return -1, time.perf_counter() - t0, f"no exit within {VERB_TIMEOUT_S} s"
    return proc.returncode, time.perf_counter() - t0, proc.stderr


def _main_in_process(argv: list[str]) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # looked up at call time so that a traced run sees the wrapper
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - t0, err.getvalue()


def warm_up(ctx) -> None:
    """One interpreter start of the CLI, so the page cache holds Python and numpy."""
    _main_subprocess(["--help"], ctx.env)


def startup_p50(ctx, repeats: int = 5) -> float:
    return statistics.median(_main_subprocess(["--help"], ctx.env)[1] for _ in range(repeats))


def computed_counts(ctx, case: Case) -> None:
    ctx.add("transform.cmacs", transform_cmacs(case.bank.bank, case.signal.size, case.levels))
