import errno
import json
import os
import re
import stat

import numpy as np
import pytest

from conftest import random_signal, random_spin_bank, random_spins
from wavebank import (
    SampledFunction,
    StorageError,
    analyze,
    cascade_iterate,
    factor_to_spins,
    filters_to_loop,
    load,
    preset_bank,
    save,
    synthesize_from_spins,
)
from wavebank.cli import main
from wavebank.storage import atomic_write


def test_bank_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    banks = [preset_bank("haar"), preset_bank("db4"), random_spin_bank(rng, 3, 2)]
    for i, bank in enumerate(banks):
        path = tmp_path / f"bank{i}.json"
        save(bank, str(path))
        back = load(str(path), "bank")
        assert back.N == bank.N and back.g == bank.g
        assert back.lowpass_normalized == bank.lowpass_normalized
        for f1, f2 in zip(bank.filters, back.filters):
            assert f1.offset == f2.offset
            assert np.array_equal(f1.taps, f2.taps)


def test_loop_round_trip_bit_exact(tmp_path):
    loop = filters_to_loop(preset_bank("db4"))
    path = tmp_path / "loop.json"
    save(loop, str(path))
    back = load(str(path), "loop")
    assert np.array_equal(back.coeffs, loop.coeffs)


def test_spins_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    sf = factor_to_spins(synthesize_from_spins(random_spins(rng, 4, 3)))
    path = tmp_path / "spins.json"
    save(sf, str(path))
    back = load(str(path), "spins")
    assert np.array_equal(back.V, sf.V)
    assert len(back.factors) == len(sf.factors)
    for v1, v2 in zip(sf.factors, back.factors):
        assert np.array_equal(v1, v2)


def test_tree_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    tree = analyze(random_signal(rng, 16), preset_bank("db4"), 2)
    path = tmp_path / "tree.json"
    save(tree, str(path))
    back = load(str(path), "tree")
    assert np.array_equal(back.approx, tree.approx)
    for l1, l2 in zip(tree.details, back.details):
        for c1, c2 in zip(l1, l2):
            assert np.array_equal(c1, c2)


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    x = random_signal(rng, 32)
    path = tmp_path / "sig.csv"
    save(x, str(path))
    assert np.array_equal(load(str(path), "signal"), x)


def test_samples_csv_round_trip(tmp_path):
    phi = cascade_iterate(preset_bank("db4"), depth=5).phi
    path = tmp_path / "phi.csv"
    save(phi, str(path))
    xs, values = load(str(path), "samples")
    assert np.array_equal(values, phi.values)
    assert np.array_equal(xs, phi.grid())


def test_malformed_json_reports_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"g": 1, "filters": []}')
    with pytest.raises(StorageError, match="missing field 'N'"):
        load(str(path), "bank")
    path.write_text("{not json")
    with pytest.raises(StorageError, match="invalid JSON"):
        load(str(path), "bank")


def test_malformed_csv_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,re,im\n0,1.0,0.0\n1,oops,0.0\n")
    with pytest.raises(StorageError, match="bad.csv:3"):
        load(str(path), "signal")
    path.write_text("wrong,header\n")
    with pytest.raises(StorageError, match=":1"):
        load(str(path), "signal")


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(StorageError):
        load(str(tmp_path / "x.json"), "matrix")
    with pytest.raises(StorageError):
        save({"not": "storable"}, str(tmp_path / "x.json"))


def test_saved_json_is_deterministic(tmp_path):
    bank = preset_bank("db4")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(bank, str(p1))
    save(bank, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert set(data) == {"N", "g", "filters", "meta"}


def _saved(tmp_path, obj, name):
    path = tmp_path / name
    save(obj, str(path))
    return path, json.loads(path.read_text())


def test_missing_file_is_a_storage_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(StorageError, match=re.escape(f"{missing}: no such file")):
        load(missing, "bank")


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("bank", ("N",), "2"),
        ("bank", ("g",), 2.0),
        ("bank", ("filters", 0, "offset"), 0.7),
        ("bank", ("N",), True),
        ("loop", ("N",), 2.0),
        ("spins", ("N",), "3"),
        ("tree", ("levels",), 1.5),
        ("tree", ("levels",), True),
    ],
)
def test_integer_fields_must_be_json_integers(tmp_path, kind, field, value):
    rng = np.random.default_rng(5)
    obj = {
        "bank": preset_bank("db4"),
        "loop": filters_to_loop(preset_bank("db4")),
        "spins": random_spins(rng, 3, 2),
        "tree": analyze(random_signal(rng, 16), preset_bank("haar"), 2),
    }[kind]
    path, data = _saved(tmp_path, obj, f"{kind}.json")
    holder = data
    for key in field[:-1]:
        holder = holder[key]
    holder[field[-1]] = value
    path.write_text(json.dumps(data))
    with pytest.raises(StorageError, match="expected an integer"):
        load(str(path), kind)


def test_lowpass_flag_must_be_a_json_boolean(tmp_path):
    path, data = _saved(tmp_path, preset_bank("haar"), "bank.json")
    data["meta"]["lowpass_normalized"] = "false"
    path.write_text(json.dumps(data))
    with pytest.raises(StorageError, match="lowpass_normalized"):
        load(str(path), "bank")
    data["meta"] = ["haar"]
    path.write_text(json.dumps(data))
    with pytest.raises(StorageError, match="meta"):
        load(str(path), "bank")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_json_numbers_rejected(tmp_path, token):
    path, _ = _saved(tmp_path, preset_bank("haar"), "bank.json")
    text = path.read_text()
    path.write_text(text.replace("1.0", token, 1))
    with pytest.raises(StorageError, match="non-finite"):
        load(str(path), "bank")


@pytest.mark.parametrize("field", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_csv_fields_rejected(tmp_path, field):
    path = tmp_path / "sig.csv"
    path.write_text(f"index,re,im\n0,1.0,0.0\n1,{field},0.0\n")
    with pytest.raises(StorageError, match="sig.csv:3: non-finite"):
        load(str(path), "signal")
    path = tmp_path / "phi.csv"
    path.write_text(f"x,re,im\n{field},1.0,0.0\n")
    with pytest.raises(StorageError, match="phi.csv:2: non-finite"):
        load(str(path), "samples")


def test_saving_non_finite_values_fails_before_writing(tmp_path):
    x = np.ones(8, dtype=complex)
    x[3] = np.nan
    tree = analyze(x, preset_bank("haar"), 1)
    bad_phi = SampledFunction(np.full(4, np.inf), 2, 2)
    for obj, name in ((x, "sig.csv"), (tree, "tree.json"), (bad_phi, "phi.csv")):
        with pytest.raises(StorageError, match="non-finite"):
            save(obj, str(tmp_path / name))
    assert list(tmp_path.iterdir()) == []


def test_cli_exits_2_on_a_non_finite_signal(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    save(preset_bank("haar"), str(bank))
    sig = tmp_path / "sig.csv"
    sig.write_text("index,re,im\n0,nan,0.0\n1,1.0,0.0\n")
    out = tmp_path / "tree.json"
    assert main(["transform-analyze", str(sig), "--bank", str(bank), "-o", str(out)]) == 2
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_atomic_write_uses_a_unique_temp_file(tmp_path, monkeypatch):
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    target = tmp_path / "out.json"
    atomic_write(str(target), "one\n")
    atomic_write(str(target), "two\n")
    assert len(set(seen)) == 2
    assert all(os.path.dirname(s) == str(tmp_path) for s in seen)
    assert target.read_text() == "two\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        atomic_write(str(tmp_path / "out.json"), "text\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "taps",
    [
        [["1.0", "0"], [True, 0]],
        [[1.0, 0.0], [True, 0.0]],
        [[1.0, None], [1.0, 0.0]],
        [[False, False], [True, True]],
    ],
)
def test_pair_entries_must_be_json_numbers(tmp_path, taps):
    path, data = _saved(tmp_path, preset_bank("haar"), "bank.json")
    data["filters"][0]["taps"] = taps
    path.write_text(json.dumps(data))
    with pytest.raises(StorageError, match=r"filters\[0\]\.taps: \[re, im\] entries must be JSON numbers"):
        load(str(path), "bank")
    data["filters"][0]["taps"] = [[1, 0], [1, -0.0]]  # JSON integers are numbers
    path.write_text(json.dumps(data))
    assert np.array_equal(load(str(path), "bank").filters[0].taps, [1, 1])


@pytest.mark.parametrize(
    "text, reason",
    [
        ("[" * 100_000 + "]" * 100_000, "recursion"),
        ('{"N": 1' + "0" * 5000 + "}", "digits"),
    ],
    ids=["deep-nesting", "long-integer"],
)
def test_json_past_the_parser_limits_is_a_storage_error(tmp_path, text, reason):
    path = tmp_path / "bank.json"
    path.write_text(text)
    with pytest.raises(StorageError, match=f"bank.json: bank: .*{reason}"):
        load(str(path), "bank")


@pytest.mark.parametrize("name", [[1, {"a": None}], 7, None, True])
def test_bank_name_must_be_a_json_string(tmp_path, name):
    path, data = _saved(tmp_path, preset_bank("haar"), "bank.json")
    data["meta"]["name"] = name
    path.write_text(json.dumps(data))
    with pytest.raises(StorageError, match=r"bank\.meta\.name: expected a string"):
        load(str(path), "bank")
    del data["meta"]["name"]
    path.write_text(json.dumps(data))
    assert load(str(path), "bank").name == ""


def test_os_errors_name_the_user_path_and_the_kind(tmp_path):
    folder = tmp_path / "d.json"
    folder.mkdir()
    reason = os.strerror(errno.EISDIR)
    with pytest.raises(StorageError, match=re.escape(f"{folder}: bank: cannot read: {reason}")):
        load(str(folder), "bank")
    target = tmp_path / "nodir" / "b.json"
    reason = os.strerror(errno.ENOENT)
    with pytest.raises(StorageError, match=re.escape(f"{target}: bank: cannot write: {reason}")):
        save(preset_bank("haar"), str(target))
    with pytest.raises(StorageError, match=re.escape(f"{folder}: signal: cannot write: ")):
        save(np.ones(4), str(folder))
    assert list(folder.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json"]
