import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def test_sigterm_stops_the_running_benchmark(tmp_path):
    pid_file = tmp_path / "child.pid"
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            f"import os, pathlib, time\npathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\ntime.sleep(60)\n"
        )
    cmd = [sys.executable, str(TOOLS / "bench_pairs.py"), "--parent", str(tmp_path / "parent"),
           "--change", str(tmp_path / "change"), "--parent-commit", "p", "--change-commit", "c",
           "--pairs", "transform-stream=1", "--runs", str(tmp_path / "runs"), "-o", str(tmp_path / "out.json")]
    driver = subprocess.Popen(cmd)
    child = None
    try:
        deadline = time.monotonic() + 30
        while child is None and time.monotonic() < deadline:
            text = pid_file.read_text() if pid_file.exists() else ""
            child = int(text) if text else None
            time.sleep(0.05)
        assert child is not None, "the stub benchmark never started"
        driver.send_signal(signal.SIGTERM)
        assert driver.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass
