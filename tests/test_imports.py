"""Each CLI verb loads only the wavebank modules it runs.

Every verb runs in a fresh interpreter as ``python -m wavebank.cli``, the way
a user starts it, under ``-X importtime``, which names each module the
interpreter imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavebank
from conftest import random_spins
from wavebank import analyze, cascade, cli, filters_to_loop, preset_bank, save

SRC = str(Path(wavebank.__file__).resolve().parent.parent)
BASE = {"filters", "storage"}


def _imported(args, cwd) -> set:
    """The ``wavebank.*`` submodules a fresh interpreter imports for ``args``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = (line.rpartition("|")[2].strip() for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return {name.split(".", 1)[1] for name in names if name.startswith("wavebank.")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("verbs")
    bank, signal = preset_bank("db4"), np.cos(np.arange(64) / 3.0)
    save(bank, str(d / "bank.json"))
    save(signal, str(d / "sig.csv"))
    save(analyze(signal, bank, 2), str(d / "tree.json"))
    save(filters_to_loop(bank), str(d / "loop.json"))
    save(random_spins(np.random.default_rng(3), 2, 2), str(d / "spins.json"))
    return d


VERBS = [
    (["verify", "bank.json"], BASE),
    (["design", "--preset", "db4", "-o", "b.json"], BASE),
    (["cascade", "bank.json", "--depth", "4", "-o", "phi.csv"], BASE | {"cascade"}),
    (["transform-analyze", "sig.csv", "--bank", "bank.json", "--levels", "2", "-o", "t.json"], BASE | {"transform"}),
    (["transform-synth", "tree.json", "--bank", "bank.json", "-o", "back.csv"], BASE | {"transform"}),
    (["loop", "bank.json", "-o", "loop.json"], BASE | {"loops"}),
    (["factor", "loop.json", "-o", "out_spins.json"], BASE | {"loops"}),
    (["design", "--spins", "spins.json", "-o", "b2.json"], BASE | {"loops"}),
    (["irreducibility", "bank.json", "--detector", "both"], BASE | {"loops", "cuntz"}),
]


@pytest.mark.parametrize("argv, modules", VERBS, ids=[" ".join(argv[:2]) for argv, _ in VERBS])
def test_each_verb_loads_only_its_modules(files, argv, modules):
    assert _imported(["-m", "wavebank.cli", *argv], files) == modules


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _imported(["-c", "import wavebank"], tmp_path) == set()


def test_every_public_name_and_submodule_resolves():
    for name in wavebank.__all__:
        assert getattr(wavebank, name) is not None
    for module in ("filters", "loops", "cuntz", "cascade", "transform", "storage"):
        assert getattr(wavebank, module).__name__ == f"wavebank.{module}"
    with pytest.raises(AttributeError):
        wavebank.no_such_name  # noqa: B018


def test_the_parsers_copies_of_the_bounds_are_the_modules_constants():
    assert cli.CASCADE_TOL == cascade.CASCADE_TOL
    assert cli.CASCADE_MAX_SAMPLES == cascade.CASCADE_MAX_SAMPLES
