"""Benchmark of the wavebank toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout: the program is imported from ``src/`` next
to this directory.  Nothing outside the checkout is written, and only system
information (CPU model, cache sizes) is read from outside it.
One single-threaded benchmark process runs one workload as a closed loop, one
case after another, and checks every output.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the public functions of every module are wrapped and the metrics are the
per-layer ones.  ``--tiny`` shrinks every size so that the harness's own
tests run in seconds.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy loads; CLI subprocesses inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
IMPORT_PROBE = "import time; t0 = time.perf_counter(); import wavebank, wavebank.cli; print(time.perf_counter() - t0)"
HARD_CAP_S = 150.0  # stop starting rotations past this, whatever the minimum
PER_LAYER_TIMES = [
    "cli.main",
    "storage.save",
    "storage.atomic_write",
    "storage.load",
    "transform.analyze",
    "transform.synthesize",
    "cuntz.build_operators",
    "cuntz.verify_cuntz",
    "cuntz.subband_ladder",
    "cuntz.invariant_subspace_probe",
    "cuntz.detect_monomial_corner",
    "loops.factor_to_spins",
    "loops.synthesize_from_spins",
    "loops.unitarity_check",
    "loops.filters_to_loop",
    "filters.verify_bank",
    "cascade.cascade_iterate",
    "cascade.build_wavelets",
    "cascade.translate_gram",
]
PER_LAYER_CALLS = ["storage.save", "storage.load", "loops.factor_to_spins", "filters.verify_bank"]
PER_LAYER_COUNTS = [
    ("storage.save.bytes", "bytes"),
    ("storage.load.bytes", "bytes"),
    ("loops.factor_to_spins.failed", "count"),
    ("cascade.cascade_iterate.iterations", "count"),
    ("cascade.cascade_iterate.converged", "count"),
]
PER_LAYER_STATS = [
    ("transform.cmacs", "count"),
    ("cuntz.dense_bytes", "bytes"),
    ("transform.recon_err_max", "ratio"),
    ("cuntz.residual_max", "abs"),
    ("loops.spin_roundtrip_err_max", "abs"),
]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "wavebank" / "__init__.py").is_file():
        _fail(f"no wavebank sources under {SRC}; run from the root of a wavebank checkout")
    sys.path.insert(0, str(SRC))
    import wavebank  # noqa: F401

    if not Path(wavebank.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"wavebank imported from {wavebank.__file__}, not from {SRC}")


def _workloads():
    import bank_certify
    import cli_pipeline
    import transform_stream

    return {m.NAME: m for m in (cli_pipeline, transform_stream, bank_certify)}


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between the samples (one sample: itself)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _cases(wl, ctx, seed: int, rotation: int, tiny: bool) -> list:
    return [wl.Case(ctx, seed, rotation, i, spec) for i, spec in enumerate(wl.specs(rotation, tiny))]


def _run_cases(ctx, cases, keep: bool = False) -> list:
    """Run each case once, sampling the reference before each; frees the cases unless ``keep``."""
    results = []
    for case in cases:
        ctx.tracer.case = case.bank.spec.label
        ctx.reference.tick()
        results.append(case.run(ctx))
        if not keep:
            case.remove()
    return results


def _import_probe(ctx) -> float:
    """Seconds a fresh interpreter takes to import the program, its own start-up not counted."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=ctx.env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def _setup(wl, ctx, seed: int, tiny: bool):
    """Set up SETUP_REPEATS times; the median counts.

    One set-up is a fresh interpreter's import of the program, the inputs of
    rotation 0 (signals, spin banks, input files) and the workload's warm-up.
    """
    times = []
    cases = []
    for _ in range(SETUP_REPEATS):
        for case in cases:
            case.remove()
        import_s = _import_probe(ctx)
        t0 = time.perf_counter()
        cases = _cases(wl, ctx, seed, 0, tiny)
        wl.warm_up(ctx)
        times.append(import_s + time.perf_counter() - t0)
    return cases, statistics.median(times)


def measure(wl, ctx, seed: int, seconds: float, tiny: bool):
    """End-to-end pass: whole rotations while the next one is expected to end within ``seconds``.

    Whole rotations keep the mix of cases the same in every run; a workload
    may ask for a minimum number of rotations (bank-certify needs 100 banks).
    """
    cases, setup_s = _setup(wl, ctx, seed, tiny)
    results = []
    start = time.perf_counter()
    rotation = 0
    while True:
        t0 = time.perf_counter()
        if rotation:
            cases = _cases(wl, ctx, seed, rotation, tiny)
        results += _run_cases(ctx, cases)
        rotation += 1
        now = time.perf_counter()
        elapsed = now - start
        if elapsed > HARD_CAP_S:
            break
        if rotation >= (1 if tiny else wl.MIN_ROTATIONS) and elapsed + (now - t0) > seconds:
            break
    return results, setup_s, ctx.reference.median(), rotation, time.perf_counter() - start


def trace(wl, ctx, seed: int, seconds: float, tiny: bool):
    """Per-layer pass: traced runs of rotation 0 while the next one is expected to end within ``seconds``.

    For ``cli-pipeline`` the rotation first runs once as CLI subprocesses,
    which gives the per-verb wall times; the traced runs replay it in-process.
    The tracing overhead is the spans of one traced rotation times the
    measured cost of one span, so it does not drown in run-to-run noise.
    """
    cases, _ = _setup(wl, ctx, seed, tiny)
    extra = {}
    start = time.perf_counter()
    results = []
    if wl.NAME == "cli-pipeline":
        results += _run_cases(ctx, cases, keep=True)
        extra["cli.startup_s"] = wl.startup_p50(ctx, 3 if tiny else 5)
        for verb in wl.VERBS:
            times = [s.seconds for r in results for s in r.steps if s.name == verb]
            extra[f"cli.{verb}.p50_s"] = statistics.median(times) if times else 0.0
    for case in cases:
        wl.computed_counts(ctx, case)
    ctx.in_process = True
    rotations = 0
    ctx.tracer.install()
    try:
        while True:
            t0 = time.perf_counter()
            with ctx.tracer.recording():
                results += _run_cases(ctx, cases, keep=True)
            rotations += 1
            now = time.perf_counter()
            if now - start + (now - t0) > seconds or now - start > HARD_CAP_S:
                break
        extra["trace.overhead_s"] = len(ctx.tracer.spans) / rotations * ctx.tracer.span_cost()
    finally:
        ctx.tracer.uninstall()
    for case in cases:
        case.remove()
    return results, rotations, extra


def end_to_end_metrics(wl_name: str, results, setup_s: float, ref_s: float) -> dict:
    """Times in reference units (raw seconds / the run's median reference time)."""
    cases = [r.seconds / ref_s for r in results]
    short = [r.seconds / ref_s for r in results if r.short] or cases
    long = [r.seconds / ref_s for r in results if not r.short] or cases
    kinds: dict[tuple[str, str], list[float]] = {}
    for r in results:
        for s in r.steps:
            kinds.setdefault((r.label, s.name), []).append(s.seconds / ref_s)
    # Steps of different kinds differ by orders of magnitude, so a plain median
    # sits between clusters and jumps; each kind's median, combined geometrically, does not.
    step_gmean = math.exp(statistics.mean(math.log(max(statistics.median(v), 1e-12)) for v in kinds.values()))
    attempted = sum(len(v) for v in kinds.values())
    failed = sum(not s.ok for r in results for s in r.steps)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kib = child_rss if wl_name == "cli-pipeline" else self_rss
    return {
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_kib / 1024.0, "MB"),
        "ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        "case_p50": _metric(statistics.median(cases), "ref"),
        "case_p90": _metric(_p90(cases), "ref"),
        "short_case_mean": _metric(statistics.mean(short), "ref"),
        "long_case_mean": _metric(statistics.mean(long), "ref"),
        "step_gmean": _metric(step_gmean, "ref"),
    }


def per_layer_metrics(ctx, summary: dict, rotations: int, extra: dict) -> dict:
    """Per rotation: self times averaged over the traced runs, counts from one run.

    Every workload reports every name; a layer a workload does not reach reads 0.
    """
    import cli_pipeline

    out = {"cli.startup_s": _metric(extra.get("cli.startup_s", 0.0), "s")}
    for verb in cli_pipeline.VERBS:
        out[f"cli.{verb}.p50_s"] = _metric(extra.get(f"cli.{verb}.p50_s", 0.0), "s")
    for name in PER_LAYER_TIMES:
        out[f"{name}.busy_s"] = _metric(summary.get(name, {}).get("busy_s", 0.0) / rotations, "s")
    for name in PER_LAYER_CALLS:
        out[f"{name}.calls"] = _metric(summary.get(name, {}).get("calls", 0) // rotations, "count")
    for key, unit in PER_LAYER_COUNTS:
        span, _, field = key.rpartition(".")
        if field == "failed":
            value = summary.get(span, {}).get("failed", 0) // rotations
        else:
            value = ctx.tracer.counts.get(key, 0) // rotations
        out[key] = _metric(value, unit)
    for key, unit in PER_LAYER_STATS:
        out[key] = _metric(ctx.stats.get(key, 0.0), unit)
    busy = out["transform.analyze.busy_s"]["value"] + out["transform.synthesize.busy_s"]["value"]
    out["transform.gcmacs_per_s"] = _metric(
        ctx.stats.get("transform.cmacs", 0.0) / busy / 1e9 if busy > 0 else 0.0, "1e9/s"
    )
    out["trace.overhead_s"] = _metric(extra["trace.overhead_s"], "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be nonnegative and --seconds positive")

    _import_program()
    # random spin banks are not DC-normalized; cascade_iterate warns about each one
    warnings.filterwarnings("ignore", message="low-pass is not DC-normalized")
    import envinfo
    from common import Context
    from tracing import Tracer

    workloads = _workloads()
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}")
    wl = workloads[args.workload]

    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{wl.NAME}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = Context(work, Tracer(), args.tiny, child_env)
    try:
        if args.trace:
            results, rotations, extra = trace(wl, ctx, args.seed, args.seconds, args.tiny)
            summary = ctx.tracer.summary()
            metrics = per_layer_metrics(ctx, summary, rotations, extra)
            runs = f"{rotations} traced run(s) of rotation 0"
        else:
            results, setup_s, ref_s, rotations, wall = measure(wl, ctx, args.seed, args.seconds, args.tiny)
            summary = {}
            metrics = end_to_end_metrics(wl.NAME, results, setup_s, ref_s)
            ctx.stats["reference_s"] = ref_s
            runs = f"{rotations} rotation(s), {len(results)} cases in {wall:.1f} s; reference {ref_s * 1e3:.3f} ms"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".perfbench_work").iterdir()):
            (ROOT / ".perfbench_work").rmdir()

    steps = [s for r in results for s in r.steps]
    failures = [(r.label, s) for r in results for s in r.steps if not s.ok]
    unknown = [(label, s) for label, s in failures if not s.known]
    env = envinfo.record(ROOT, BLAS_THREADS, wl.LARGEST_ARRAY_BYTES)

    print(f"workload {wl.NAME}, seed {args.seed}, trace {args.trace}: {runs}")
    print("env " + json.dumps(env, sort_keys=True))
    for label, s in failures[:20]:
        kind = "known spin-peel failure" if s.known else "FAILED"
        print(f"{kind}: {label} {s.name}: {s.note}")
    for name in sorted(summary):
        row = summary[name]
        print(f"span {name}: calls {row['calls']}, failed {row['failed']}, self {row['busy_s']:.6f} s, total {row['total_s']:.6f} s")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")

    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.NAME}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ctx.tracer.dump(str(out_dir / f"{stem}.spans.jsonl"))
    line = {"correct": not unknown, "attempted": len(steps), "failed": len(failures), "metrics": metrics}
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        cases = [[r.label, r.seconds, {s.name: s.seconds for s in r.steps}] for r in results]
        record = {"result": line, "env": env, "spans": summary, "runs": runs, "cases": cases, "stats": ctx.stats}
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
