"""Shared records and helpers for the workloads."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import Reference
from tracing import Tracer

# Relative tolerances of the correctness checks.
RECON_RTOL = 1e-12  # synthesis error against max |x|
PARSEVAL_RTOL = 1e-12  # subband energy sum against ||x||^2
SPIN_ROUNDTRIP_TOL = 1e-10  # loop coefficients after factor -> synthesize


@dataclass
class Step:
    """One checked operation.  ``known`` marks the spin-peel failure class."""

    name: str
    seconds: float
    ok: bool = True
    known: bool = False
    note: str = ""
    # type of the last exception a program call raised; not the exception, whose
    # traceback would keep the failed case's arrays alive and inflate peak RSS
    error: type | None = None

    def call(self, fn, *args, **kwargs):
        """Time one program call into this step.

        An exception the program raises fails the step and is recorded; the
        run goes on with the next operation.
        """
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the benchmark must survive program errors
            self.ok, self.note, self.error = False, f"{type(exc).__name__}: {exc}", type(exc)
            return None
        finally:
            self.seconds += time.perf_counter() - t0


@dataclass
class CaseResult:
    label: str
    short: bool
    steps: list[Step] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps)


class Case:
    """Base of the workloads' cases: ``run`` checks and times one case."""

    bank: object  # the inputs.Bank the case runs on

    def run(self, ctx: Context) -> CaseResult:
        raise NotImplementedError

    def remove(self) -> None:
        """Free what the case holds once it has run; by default nothing."""


@dataclass
class Context:
    work: Path  # working directory inside the checkout
    tracer: Tracer
    tiny: bool
    env: dict  # environment for CLI subprocesses
    in_process: bool = False  # cli-pipeline: replay verbs through cli.main, not as subprocesses
    # accuracy maxima and computed counts, reported as per-layer numbers
    stats: dict = field(default_factory=dict)
    reference: Reference = field(default_factory=Reference)

    def note_max(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), float(value))

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + value


def transform_cmacs(bank, length: int, levels: int) -> int:
    """Complex multiply-adds of one analyze plus one synthesize, from the tap counts.

    Each level costs one product per tap per output sample of each channel,
    and synthesis mirrors analysis.
    """
    taps = sum(f.taps.size for f in bank.filters)
    per_pass = sum(taps * (length // bank.N**n) for n in range(1, levels + 1))
    return 2 * per_pass
