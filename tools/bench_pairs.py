"""Run paired perfbench runs of a parent and a change checkout, then record them.

    python3 tools/bench_pairs.py --parent PDIR --change CDIR \
        --parent-commit P --change-commit C \
        --pairs transform-stream=401-412 --pairs cli-pipeline=401-404 \
        --runs RUNS -o BENCH_<n>.json

For each workload and seed it runs ``perfbench/run.py --trace 0`` for
``run_seconds`` of ``BENCHMARK.json`` in both checkouts, the parent first in
the first, third, ... pair and the change first in the others.  Before every
run it deletes each ``__pycache__`` in both checkouts, since a checkout that
holds bytecode caches starts faster.  Right after a run it copies the run's
record from the checkout's ``.perfbench_out/`` into ``RUNS/parent`` or
``RUNS/change``, keeping its modification time.  Then it runs ``--trace 1``
at the first seed of each workload the same way, and finally writes the
record with ``tools/bench_record.py``.  A failing run stops the driver.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

ROOT = bench_record.ROOT


def _seeds(text: str) -> list[int]:
    """``401-404,410`` -> [401, 402, 403, 404, 410]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _drop_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def run_pairs(sides: dict, pairs: dict, runs: Path, seconds: float, log=print) -> list[tuple]:
    """Run every pair and the traced pair per workload; returns the runs in order.

    ``sides`` maps ``"parent"`` and ``"change"`` to checkouts and ``pairs``
    maps a workload to its seeds.  Each returned entry is
    ``(side, workload, seed, trace)``.
    """
    for side in sides:
        (runs / side).mkdir(parents=True, exist_ok=True)
    order = []
    for workload, seeds in pairs.items():
        jobs = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for i, (seed, trace) in enumerate(jobs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                checkout = sides[side]
                for each in sides.values():
                    _drop_bytecode(each)
                record = checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
                record.unlink(missing_ok=True)
                log(f"{side}: {workload} seed {seed} trace {trace}")
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
                subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
                shutil.copy2(record, runs / side / record.name)
                order.append((side, workload, seed, trace))
    return order


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--pairs", action="append", required=True, help="WORKLOAD=SEEDS, such as transform-stream=401-412")
    ap.add_argument("--runs", type=Path, required=True, help="folder for the copied records")
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args()
    pairs = {w: _seeds(s) for w, _, s in (p.partition("=") for p in args.pairs)}
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    run_pairs(sides, pairs, args.runs, seconds, log=lambda line: print(line, flush=True))
    record = bench_record.build(args.runs / "parent", args.runs / "change", args.parent_commit, args.change_commit)
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
