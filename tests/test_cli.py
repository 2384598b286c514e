import errno
import json
import os

import numpy as np
import pytest

from conftest import random_spins
from wavebank import FilterBank, analyze, filters_to_loop, load, preset_bank, save
from wavebank.cli import main


def test_design_preset_writes_verified_bank(tmp_path, capsys):
    out = tmp_path / "bank.json"
    assert main(["design", "--preset", "haar", "-o", str(out)]) == 0
    bank = load(str(out), "bank")
    haar = preset_bank("haar")
    for f1, f2 in zip(bank.filters, haar.filters):
        assert np.array_equal(f1.taps, f2.taps)
    text = capsys.readouterr().out
    assert "tol" in text  # every report states its tolerance


def test_design_requires_one_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["design", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_verify_pass_and_corrupted_fail(tmp_path):
    out = tmp_path / "bank.json"
    main(["design", "--preset", "db4", "-o", str(out)])
    assert main(["verify", str(out)]) == 0
    data = json.loads(out.read_text())
    data["filters"][0]["taps"][1] = [0.0, 0.0]  # zero one tap
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 1


def test_verify_all_presets(tmp_path):
    for name in ("haar", "db4", "stretched-haar:1", "stretched-haar:2"):
        out = tmp_path / "bank.json"
        assert main(["design", "--preset", name, "-o", str(out)]) == 0
        assert main(["verify", str(out)]) == 0


def test_malformed_input_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": 2}')
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_irreducibility_reports(tmp_path, capsys):
    bank = tmp_path / "bank.json"
    main(["design", "--preset", "stretched-haar:1", "-o", str(bank)])
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert main(["irreducibility", str(bank), "-o", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["reducible"] is True
    assert report["M"] == 2
    assert report["exponents"] == [0, 1]
    assert report["detector"] == "corner"

    main(["design", "--preset", "db4", "-o", str(bank)])
    capsys.readouterr()
    assert main(["irreducibility", str(bank), "--detector", "both"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[: out.index("halfline")].strip())
    assert report["reducible"] is False and report["M"] == 0


def test_factor_and_loop_verbs(tmp_path):
    bank = tmp_path / "bank.json"
    loop = tmp_path / "loop.json"
    spins = tmp_path / "spins.json"
    main(["design", "--preset", "db4", "-o", str(bank)])
    assert main(["loop", str(bank), "-o", str(loop)]) == 0
    assert main(["factor", str(loop), "-o", str(spins)]) == 0
    sf = load(str(spins), "spins")
    assert len(sf.factors) == 1
    # factor also accepts a bank file directly
    assert main(["factor", str(bank), "-o", str(spins)]) == 0
    # and design round-trips the bank through its loop file
    bank2 = tmp_path / "bank2.json"
    assert main(["design", "--loop", str(loop), "-o", str(bank2)]) == 0
    b1 = load(str(bank), "bank")
    b2 = load(str(bank2), "bank")
    for f1, f2 in zip(b1.filters, b2.filters):
        assert np.allclose(f1.dense(4), f2.dense(4), rtol=5e-16, atol=0.0)


def test_factor_rejects_broken_loop(tmp_path):
    bank = tmp_path / "bank.json"
    loop = tmp_path / "loop.json"
    main(["design", "--preset", "db4", "-o", str(bank)])
    main(["loop", str(bank), "-o", str(loop)])
    data = json.loads(loop.read_text())
    data["coeffs"][1][0][0] = [0.5, 0.0]
    loop.write_text(json.dumps(data))
    assert main(["factor", str(loop), "-o", str(tmp_path / "s.json")]) == 1


@pytest.mark.filterwarnings("ignore::UserWarning")  # random spin banks are not DC-normalized
def test_full_pipeline_deterministic(tmp_path):
    rng = np.random.default_rng(123)
    spins_path = tmp_path / "spins.json"
    save(random_spins(rng, 2, 2), str(spins_path))

    def run(tag):
        bank = tmp_path / f"bank-{tag}.json"
        phi = tmp_path / f"phi-{tag}.csv"
        tree = tmp_path / f"tree-{tag}.json"
        out = tmp_path / f"out-{tag}.csv"
        sig = tmp_path / f"sig-{tag}.csv"
        assert main(["design", "--spins", str(spins_path), "-o", str(bank)]) == 0
        assert main(["verify", str(bank)]) == 0
        assert main(["cascade", str(bank), "--depth", "5", "-o", str(phi)]) == 0
        signal = np.exp(2j * np.pi * np.arange(32) / 32)
        save(signal, str(sig))
        assert main(["transform-analyze", str(sig), "--bank", str(bank), "--levels", "2", "-o", str(tree)]) == 0
        assert main(["transform-synth", str(tree), "--bank", str(bank), "-o", str(out)]) == 0
        return [p.read_bytes() for p in (bank, phi, tree, out)]

    assert run("a") == run("b")
    # and the pipeline reconstructs the signal it analyzed
    x = load(str(tmp_path / "sig-a.csv"), "signal")
    y = load(str(tmp_path / "out-a.csv"), "signal")
    assert np.abs(x - y).max() <= 1e-12


def test_cascade_verb_with_wavelets(tmp_path):
    bank = tmp_path / "bank.json"
    main(["design", "--preset", "haar", "-o", str(bank)])
    phi = tmp_path / "phi.csv"
    prefix = tmp_path / "psi"
    assert main(["cascade", str(bank), "--depth", "4", "-o", str(phi), "--wavelets", str(prefix)]) == 0
    xs, values = load(str(prefix) + "1.csv", "samples")
    assert values[0] == 1.0 and values[values.size // 2] == -1.0


def test_cascade_writes_nothing_when_the_wavelets_fail(tmp_path):
    bank = tmp_path / "db4.json"
    save(preset_bank("db4"), str(bank))
    out = tmp_path / "out"
    out.mkdir()
    args = ["cascade", str(bank), "--max-iters", "2", "--wavelets", str(out / "psi"), "-o", str(out / "phi.csv")]
    assert main(args) == 2
    assert list(out.iterdir()) == []


def test_errors_name_the_path_and_the_kind_once(tmp_path, capsys):
    bad = tmp_path / "b.json"
    bad.write_text('{"filters": [], "g": 1}')
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: bank: missing field 'N'\n"
    assert main(["factor", str(bad), "-o", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: bank: missing field 'N'\n"
    bad.write_bytes(b'\xff{"N": 2}')
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: bank: not UTF-8 text (invalid start byte at byte 0)\n"


def test_os_errors_name_the_path_and_the_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkdir("d.json")
    assert main(["verify", "d.json"]) == 2
    assert capsys.readouterr().err == f"error: d.json: bank: cannot read: {os.strerror(errno.EISDIR)}\n"
    assert main(["design", "--preset", "haar", "-o", "nodir/b.json"]) == 2
    assert capsys.readouterr().err == f"error: nodir/b.json: bank: cannot write: {os.strerror(errno.ENOENT)}\n"
    assert os.listdir(".") == ["d.json"]


def test_too_many_levels_exit_2_before_computing(tmp_path, capsys):
    bank, sig = tmp_path / "haar.json", tmp_path / "s.csv"
    save(preset_bank("haar"), str(bank))
    save(np.ones(16), str(sig))
    out = tmp_path / "t.json"
    assert main(["transform-analyze", str(sig), "--bank", str(bank), "--levels", "100000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: levels = 100000 is too many: at most 4, "
        "since 2^4 is the largest power of 2 dividing the signal length 16\n"
    )
    assert not out.exists()


def test_irreducibility_report_write_errors_name_the_path_and_the_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save(preset_bank("haar"), "haar.json")
    assert main(["irreducibility", "haar.json", "-o", "nodir/r.json"]) == 2
    assert capsys.readouterr().err == f"error: nodir/r.json: report: cannot write: {os.strerror(errno.ENOENT)}\n"
    assert os.listdir(".") == ["haar.json"]


def test_depth_is_bounded_before_allocating(tmp_path, capsys):
    bank = tmp_path / "haar.json"
    save(preset_bank("haar"), str(bank))
    out = tmp_path / "phi.csv"
    assert main(["cascade", str(bank), "--depth", "1000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: depth = 1000 is too deep: at most 21 for N = 2, g = 1, since the grid holds at most 4194304 samples\n"
    )
    assert not out.exists()


def test_a_bank_too_long_to_probe_is_named_not_a_window(tmp_path, capsys):
    bank = tmp_path / "s.json"
    save(preset_bank("stretched-haar:1100"), str(bank))
    assert main(["irreducibility", str(bank), "--detector", "both"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the bank's tap span N*g = 2202 exceeds the half-line probe's largest window 2048, "
        "so it cannot be probed; use --detector corner\n"
    )
    assert main(["irreducibility", str(bank)]) == 0
    assert json.loads(capsys.readouterr().out)["exponents"] == [0, 1100]


def test_every_verb_refuses_an_equal_channel_bank_before_computing(tmp_path, capsys):
    db4 = preset_bank("db4")
    bank, good = str(tmp_path / "eq.json"), str(tmp_path / "db4.json")
    save(FilterBank(2, 2, (db4.lowpass, db4.lowpass)), bank)  # each channel alone is orthonormal
    save(db4, good)
    sig, tree = str(tmp_path / "s.csv"), str(tmp_path / "t.json")
    save(np.arange(16.0), sig)
    save(analyze(np.arange(16.0), db4, 1), tree)
    out = tmp_path / "out"
    out.mkdir()
    o = str(out / "x")
    for argv in (
        ["verify", bank],
        ["cascade", bank, "--wavelets", o, "-o", o],
        ["irreducibility", bank, "--detector", "both", "-o", o],
        ["transform-analyze", sig, "--bank", bank, "-o", o],
        ["transform-synth", tree, "--bank", bank, "-o", o],
        ["factor", bank, "-o", o],
        ["loop", bank, "-o", o],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verification failed: orthogonality relations: residual 2.000e+00 "
            "at (m, i, j) = (0, 0, 1), tol 1.0e-10\n"
        ), argv
        assert list(out.iterdir()) == []
    assert main(["verify", good]) == 0
    assert "orthogonality relations: residual" in capsys.readouterr().out


def test_factor_verifies_a_loop_input_by_the_relations(tmp_path, capsys):
    loop = tmp_path / "loop.json"
    save(filters_to_loop(preset_bank("db4")), str(loop))
    data = json.loads(loop.read_text())
    data["coeffs"][1][0][0] = [0.5, 0.0]
    loop.write_text(json.dumps(data))
    assert main(["factor", str(loop), "-o", str(tmp_path / "s.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failed: orthogonality relations: residual ")
    assert err.endswith(", tol 1.0e-10\n") and err.count("\n") == 1
    assert not (tmp_path / "s.json").exists()


def test_meaningless_tolerances_and_iteration_counts_exit_2(tmp_path, capsys):
    bank = str(tmp_path / "db4.json")
    save(preset_bank("db4"), bank)
    out = tmp_path / "phi.csv"
    for argv, flag in (
        (["cascade", bank, "--tol", "inf", "-o", str(out)], "--tol"),
        (["cascade", bank, "--tol", "nan", "-o", str(out)], "--tol"),
        (["cascade", bank, "--tol", "-1", "-o", str(out)], "--tol"),
        (["cascade", bank, "--tol", "0", "-o", str(out)], "--tol"),
        (["cascade", bank, "--max-iters", "-3", "-o", str(out)], "--max-iters"),
        (["cascade", bank, "--max-iters", "0", "-o", str(out)], "--max-iters"),
        (["verify", bank, "--tol", "inf"], "--tol"),
        (["design", "--preset", "db4", "--tol", "nan", "-o", str(out)], "--tol"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert f"argument {flag}: must be finite and positive" in capsys.readouterr().err
        assert not out.exists()
    assert main(["cascade", bank, "--depth", "4", "--max-iters", "1", "--tol", "1e-3", "-o", str(out)]) == 0
    assert "after 1 iterations" in capsys.readouterr().out


def test_samples_option_is_gone(tmp_path, capsys):
    bank = str(tmp_path / "b.json")
    for argv in (["verify", bank, "--samples", "16"], ["design", "--preset", "haar", "--samples", "16", "-o", bank]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --samples" in capsys.readouterr().err


def test_halfline_detector_and_window_are_gone(tmp_path, capsys):
    bank = str(tmp_path / "b.json")
    for argv, message in (
        (["irreducibility", bank, "--detector", "halfline"], "argument --detector: invalid choice: 'halfline'"),
        (["irreducibility", bank, "--window", "64"], "unrecognized arguments: --window 64"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_a_stretch_count_too_large_exits_2_before_allocating(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["design", "--preset", "stretched-haar:100000000000", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: stretch count k = 100000000000 is too large: at most 16384\n"
    assert not out.exists()


def test_a_stretch_count_in_another_spelling_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "s.json"
    for count in ("1_0", " 10", "+10", "010"):
        assert main(["design", "--preset", f"stretched-haar:{count}", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: malformed stretch count in preset 'stretched-haar:{count}'\n"
        assert not out.exists()
    assert main(["design", "--preset", "stretched-haar:10", "-o", str(out)]) == 0
    assert load(str(out), "bank").name == "stretched-haar:10"


def test_a_refused_peel_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    from wavebank import loops

    def refuse(loop):
        raise loops.NotFactorableError("injected", 1.0)

    monkeypatch.setattr(loops, "factor_to_spins", refuse)
    path = tmp_path / "loop.json"
    save(filters_to_loop(preset_bank("db4")), str(path))
    out = tmp_path / "spins.json"
    assert main(["factor", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("not factorable: injected") and err.count("\n") == 1
    assert not out.exists()
