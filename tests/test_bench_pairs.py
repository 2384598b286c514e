import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# Stands in for perfbench/run.py: notes whether any bytecode cache was left
# in either checkout, writes its record, then leaves a cache behind.
STUB = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = pathlib.Path.cwd()
caches = [str(p) for root in (here, here.parent / OTHER) for p in root.rglob("__pycache__")]
out = here / ".perfbench_out"
out.mkdir(exist_ok=True)
record = {"side": here.name, "args": args, "caches": caches}
name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
(out / name).write_text(json.dumps(record))
(here / "src" / "__pycache__").mkdir(parents=True, exist_ok=True)
"""


def _checkout(root, side, other):
    (root / side / "perfbench").mkdir(parents=True)
    (root / side / "perfbench" / "run.py").write_text(STUB.replace("OTHER", repr(other)))
    (root / side / "tools" / "__pycache__").mkdir(parents=True)  # a stale cache to remove
    return root / side


def test_pairs_alternate_sides_and_copy_each_record(tmp_path):
    sides = {"parent": _checkout(tmp_path, "parent", "change"), "change": _checkout(tmp_path, "change", "parent")}
    runs = tmp_path / "runs"
    pairs = {"transform-stream": [7, 8, 9], "cli-pipeline": [3]}
    order = bench_pairs.run_pairs(sides, pairs, runs, 40, log=lambda _: None)
    assert order == [
        ("parent", "transform-stream", 7, 0), ("change", "transform-stream", 7, 0),
        ("change", "transform-stream", 8, 0), ("parent", "transform-stream", 8, 0),
        ("parent", "transform-stream", 9, 0), ("change", "transform-stream", 9, 0),
        ("change", "transform-stream", 7, 1), ("parent", "transform-stream", 7, 1),
        ("parent", "cli-pipeline", 3, 0), ("change", "cli-pipeline", 3, 0),
        ("change", "cli-pipeline", 3, 1), ("parent", "cli-pipeline", 3, 1),
    ]
    for side, workload, seed, trace in order:
        record = json.loads((runs / side / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        assert record["side"] == side
        assert record["args"]["--seconds"] == "40" and record["args"]["--trace"] == str(trace)
        assert record["caches"] == []
    # the copies keep the runs' times, from which bench_record reads who ran first
    ran = [(runs / side / f"{w}-seed{s}-trace{t}.json").stat().st_mtime_ns for side, w, s, t in order]
    assert ran == sorted(ran)


def test_seed_ranges():
    assert bench_pairs._seeds("401-404,410") == [401, 402, 403, 404, 410]
