"""Build a ``BENCH_<n>.json`` record from paired perfbench runs.

    python3 tools/bench_record.py --parent DIR --change DIR \
        --parent-commit REV --change-commit REV -o BENCH_<n>.json

Each DIR holds the ``<workload>-seed<N>-trace<T>.json`` records that
``perfbench/run.py`` wrote to ``.perfbench_out/`` for one side, copied out
after each run.  A pair is one seed run with ``--trace 0`` on both sides;
the side whose record is older ran first.  For every workload the record
gives the seeds, the pair count, each side's median and quartiles of every
end-to-end metric (``numpy.percentile``, linear), the pairs the change won,
whether the gain rule holds (wins in at least nine tenths of the pairs and
medians apart by more than the parent's interquartile range) and whether
the change stays within the metric's ``BENCHMARK.json`` bound.  It also
gives the digests of the measured ``src/`` trees, ``attempted``/``failed``
per seed and the per-layer rows of the ``--trace 1`` run at the lowest seed
traced on both sides.
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RECORD = re.compile(r"(?P<workload>[a-z-]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def _records(folder: Path) -> dict:
    found = {}
    for path in folder.iterdir():
        m = RECORD.fullmatch(path.name)
        if m:
            found[m["workload"], int(m["seed"]), int(m["trace"])] = path
    return found


def _summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def _end_to_end(spec, parent, change) -> dict:
    p = [r["result"]["metrics"][spec["name"]]["value"] for r in parent]
    c = [r["result"]["metrics"][spec["name"]]["value"] for r in change]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    ps, cs = _summary(p), _summary(c)
    gain = sign * (ps["median"] - cs["median"])
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "change_wins": int(wins),
        "ties": int(ties),
        "gain_rule_met": bool(wins >= 0.9 * len(p) and gain > ps["q3"] - ps["q1"]),
        "within_bound": bool(-gain <= spec["bound"] * abs(ps["median"])),
    }


def build(parent_dir: Path, change_dir: Path, parent_commit: str, change_commit: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _records(parent_dir), _records(change_dir)
    out = {"parent": parent_commit, "change": change_commit, "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in (w["name"] for w in spec["workloads"]):
        seeds = sorted(s for (w, s, t) in parent if w == wl and t == 0 and (w, s, t) in change)
        if not seeds:
            continue
        pr = [json.loads(parent[wl, s, 0].read_text()) for s in seeds]
        cr = [json.loads(change[wl, s, 0].read_text()) for s in seeds]
        first = [
            "parent" if parent[wl, s, 0].stat().st_mtime < change[wl, s, 0].stat().st_mtime else "change"
            for s in seeds
        ]
        row = {
            "seeds": seeds,
            "pairs": len(seeds),
            "ran_first": first,
            "end_to_end": {m["name"]: _end_to_end(m, pr, cr) for m in spec["end_to_end"]},
            "src_sha256": {
                "parent": sorted({r["env"]["src_sha256"] for r in pr}),
                "change": sorted({r["env"]["src_sha256"] for r in cr}),
            },
            "attempted_failed": [
                {"seed": s, "parent": [a["result"]["attempted"], a["result"]["failed"]],
                 "change": [b["result"]["attempted"], b["result"]["failed"]]}
                for s, a, b in zip(seeds, pr, cr)
            ],
        }
        traced = sorted(s for (w, s, t) in parent if w == wl and t == 1 and (w, s, t) in change)
        if traced:
            pt, ct = (json.loads(side[wl, traced[0], 1].read_text())["result"]["metrics"] for side in (parent, change))
            row["per_layer"] = {
                "seed": traced[0],
                "metrics": {
                    m["name"]: {"unit": m["unit"], "parent": pt[m["name"]]["value"], "change": ct[m["name"]]["value"]}
                    for m in spec["per_layer"]
                },
            }
        out["workloads"][wl] = row
        shared = {k: v for k, v in cr[0]["env"].items() if k not in ("src_sha256", "memory_note")}
        out.setdefault("env", shared)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args()
    record = build(args.parent, args.change, args.parent_commit, args.change_commit)
    args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
