import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmce import build_dos, energy_of_temperature, eval_dos, load_spectrum, make_spectrum
from qmce.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    return [
        line.split(",")
        for line in text.strip().splitlines()
        if line and not line.startswith("#")
    ]


def split_blocks(text, tag):
    # stdout emission: main CSV, then '# tag', then the secondary CSV
    head, _, tail = text.partition(f"# {tag}\n")
    return head, tail


# -- dos -------------------------------------------------------------------


def test_dos_two_level_constant(capsys):
    code, out, _ = run(capsys, ["dos", "--levels", "0,1", "--grid", "11"])
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == ["E", "Omega"]
    assert len(rows) == 12  # knots coincide with the grid endpoints
    assert all(float(r[1]) == pytest.approx(math.pi, rel=1e-15) for r in rows[1:])
    assert out.endswith("\n")


def test_dos_includes_knot_rows(capsys):
    code, out, _ = run(capsys, ["dos", "--levels", "0,1,2,3", "--grid", "11"])
    assert code == 0
    es = [float(r[0]) for r in data_rows(out)[1:]]
    assert len(es) == 13  # 11 grid points plus interior knots 1 and 2
    assert 1.0 in es and 2.0 in es
    assert es == sorted(es)
    d = build_dos(make_spectrum([0.0, 1.0, 2.0, 3.0]))
    for row in data_rows(out)[1:]:
        assert float(row[1]) == pytest.approx(eval_dos(d, float(row[0])), abs=1e-15)


def test_dos_negative_levels(capsys):
    # a list value that starts with '-' belongs to its flag
    code, out, _ = run(capsys, ["dos", "--levels", "-1,0,1", "--grid", "3"])
    assert code == 0
    assert [r[0] for r in data_rows(out)[1:]] == ["-1", "0", "1"]
    code, out, _ = run(capsys, ["dos", "--levels", "-1,0,1", "--degeneracy", "2,1,1", "--grid", "3"])
    assert code == 0
    code, _, err = run(capsys, ["dos", "--levels", "-1,0,1", "--degeneracy", "-2,1,1"])
    assert code == 1 and "multiplicity -2 is not a positive integer" in err
    code, out, _ = run(
        capsys,
        ["equilibrate", "--levels", "-1,0,1", "--E1", "-0.5", "--levels2", "-2,-1,0,1", "--degeneracy2", "1,1,1,1",
         "--E2", "-1.75"],
    )
    assert code == 0
    assert float(data_rows(out)[1][0]) == pytest.approx(-0.25, abs=1e-9)


def test_dos_nonnegative_with_two_heavy_levels(capsys):
    code, out, _ = run(capsys, ["dos", "--levels", "0,1.9377", "--degeneracy", "34,30", "--grid", "200"])
    assert code == 0
    assert all(float(r[1]) >= 0.0 for r in data_rows(out)[1:])


def test_dos_usage_errors(capsys):
    assert run(capsys, ["dos"])[0] == 1
    assert run(capsys, ["dos", "--levels", "0,1", "--ising"])[0] == 1
    assert run(capsys, ["dos", "--degeneracy", "1,2"])[0] == 1
    assert run(capsys, ["dos", "--levels", "0,1", "--bogus"])[0] == 1
    assert run(capsys, ["dos", "--levels", "zero,1"])[0] == 1
    assert run(capsys, ["dos", "--ising", "--spins", "3"])[0] == 1  # J, B missing
    assert run(capsys, [])[0] == 1
    code, _, err = run(capsys, ["dos", "--levels", "0,1", "--grid", "1"])
    assert code == 1 and "--grid" in err


# -- thermo ------------------------------------------------------------


def test_thermo_four_level_criticals(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, ["thermo", "--levels", "0,1,2,3", "--out", str(out)])
    assert code == 0
    crit = (tmp_path / "t.criticals.csv").read_text()
    rows = data_rows(crit)
    assert rows[0] == ["E_c", "T_c", "order"]
    assert float(rows[1][0]) == pytest.approx(1.0, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-12)
    assert rows[1][2] == "2"
    body = data_rows(out.read_text())
    assert body[0] == ["E", "S", "T", "C"]
    assert len(body) == 1001


def test_thermo_two_level_note(capsys):
    code, out, _ = run(capsys, ["thermo", "--levels", "0,1", "--grid", "5"])
    assert code == 0
    assert out.splitlines()[0].startswith("# two-level")
    main_text, crit_text = split_blocks(out, "criticals")
    assert data_rows(crit_text) == [["E_c", "T_c", "order"]]  # empty criticals
    for row in data_rows(main_text)[1:]:
        assert float(row[3]) == 0.0  # C flagged zero


def test_thermo_kb_scaling(capsys):
    _, base, _ = run(capsys, ["thermo", "--levels", "0,1,2", "--grid", "40"])
    _, scaled, _ = run(capsys, ["thermo", "--levels", "0,1,2", "--grid", "40", "--kb", "2"])
    b = np.array([[float(v) for v in r] for r in data_rows(split_blocks(base, "criticals")[0])[1:]])
    s = np.array([[float(v) for v in r] for r in data_rows(split_blocks(scaled, "criticals")[0])[1:]])
    np.testing.assert_allclose(s[:, 0], b[:, 0], rtol=1e-15)  # E unchanged
    np.testing.assert_allclose(s[:, 1], 2.0 * b[:, 1], rtol=1e-12)  # S in k_B units
    np.testing.assert_allclose(s[:, 2], b[:, 2] / 2.0, rtol=1e-12)  # T = (k_B T)/k_B
    np.testing.assert_allclose(s[:, 3], 2.0 * b[:, 3], rtol=1e-12)


def test_thermo_t_range(capsys):
    code, out, _ = run(
        capsys,
        ["thermo", "--levels", "0,1,2,3", "--grid", "64", "--t-min", "0.1", "--t-max", "0.4"],
    )
    assert code == 0
    d = build_dos(make_spectrum([0.0, 1.0, 2.0, 3.0]))
    lo = energy_of_temperature(d, 0.1)
    hi = energy_of_temperature(d, 0.4)
    body = np.array(
        [[float(v) for v in r] for r in data_rows(split_blocks(out, "criticals")[0])[1:]]
    )
    assert np.all((body[:, 0] > lo) & (body[:, 0] < hi))
    assert np.all((body[:, 2] >= 0.1) & (body[:, 2] <= 0.4))


def test_thermo_few_heavy_levels_has_no_nan(capsys):
    code, out, _ = run(capsys, ["thermo", "--levels", "0,0.4,1", "--degeneracy", "10,10,12"])
    assert code == 0
    assert "nan" not in out


def test_thermo_range_conflicts(capsys):
    base = ["thermo", "--levels", "0,1,2"]
    assert run(capsys, base + ["--t-min", "0.1", "--t-max", "0.4", "--e-min", "0.5"])[0] == 1
    assert run(capsys, base + ["--t-min", "0.1"])[0] == 1
    assert run(capsys, base + ["--t-min", "0.4", "--t-max", "0.1"])[0] == 1
    assert run(capsys, base + ["--t-min", "1e9", "--t-max", "2e9"])[0] == 1  # unattainable


@pytest.mark.parametrize("kb", ["0", "-1"])
def test_thermo_kb_checked_before_t_range(kb, capsys):
    code, _, err = run(
        capsys, ["thermo", "--levels", "0,1,2,3", "--kb", kb, "--t-min", "0.1", "--t-max", "0.4"]
    )
    assert code == 1
    assert "kb" in err


def test_thermo_t_range_at_offset(capsys):
    # no level of this spectrum makes T(E) jump; the range lies on the
    # smooth increasing branch however far the spectrum sits from zero
    levels = "--levels=1048576,1048576.25,1048576.5,1048577.5,1048578"
    code, out, _ = run(capsys, ["thermo", levels, "--grid", "16", "--t-min", "0.05", "--t-max", "0.4"])
    assert code == 0
    body = np.array([[float(v) for v in r] for r in data_rows(split_blocks(out, "criticals")[0])[1:]])
    assert np.all((body[:, 2] >= 0.05) & (body[:, 2] <= 0.4))


# -- canonical -----------------------------------------------------------


def test_canonical_single_row(capsys):
    code, out, _ = run(capsys, ["canonical", "--levels", "0,1", "--beta", "1"])
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == ["beta", "Z", "U"]
    assert len(rows) == 2
    assert float(rows[1][1]) == pytest.approx(math.pi * (1.0 - math.exp(-1.0)), rel=1e-12)


def test_canonical_grid_endpoints_exact(capsys):
    code, out, _ = run(
        capsys,
        ["canonical", "--levels", "0,1,2", "--beta-min", "0.5", "--beta-max", "2", "--grid", "4"],
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[1][0] == "0.5" and rows[-1][0] == "2"
    assert len(rows) == 5


def test_canonical_rejects_nonpositive_beta(capsys):
    assert run(capsys, ["canonical", "--levels", "0,1", "--beta-min", "0", "--beta-max", "1"])[0] == 1
    assert run(capsys, ["canonical", "--levels", "0,1", "--beta", "0"])[0] == 1
    assert run(capsys, ["canonical", "--levels", "0,1", "--beta", "-2"])[0] == 1
    assert run(capsys, ["canonical", "--levels", "0,1", "--beta", "1", "--beta-min", "0.5", "--beta-max", "1"])[0] == 1
    assert run(capsys, ["canonical", "--levels", "0,1"])[0] == 1


def test_canonical_offset_levels(capsys):
    # Z = e^{-beta c} Z_0 leaves the double range at |c| = 1000; the row
    # prints the saturated Z, the shifted U, and one note on stderr
    code, out, _ = run(capsys, ["canonical", "--levels", "0,1,2", "--beta", "1"])
    assert code == 0
    u_ref = float(data_rows(out)[1][2])
    for argv, c, z_text in (
        (["--levels", "1000,1001,1002"], 1000.0, "0"),
        (["--levels=-1000,-999,-998"], -1000.0, "inf"),
    ):
        code, out, err = run(capsys, ["canonical", *argv, "--beta", "1"])
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 2 and rows[1][1] == z_text
        u = float(rows[1][2])
        assert math.isfinite(u)
        assert u == pytest.approx(c + u_ref, abs=1e-12 * 2.0)
        assert len(err.splitlines()) == 1 and "1 of 1 rows" in err


def test_canonical_two_heavy_levels(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["canonical", "--levels", "0,1.9377", "--degeneracy", "34,30", "--beta", "1"])
    assert code == 0 and err == ""
    _, z, u = (float(v) for v in data_rows(out)[1])
    assert z > 0.0 and 0.0 <= u <= 1.9377


# -- mc-verify -------------------------------------------------------------


def test_mc_verify_two_level(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _, _ = run(
        capsys,
        ["mc-verify", "--levels", "0,1", "--samples", "20000", "--bins", "16", "--out", str(out)],
    )
    assert code == 0
    text = out.read_text()
    rows = data_rows(text)
    assert rows[0] == ["E_lo", "E_hi", "Omega_hat", "stderr", "Omega_exact", "z"]
    assert len(rows) == 17
    assert text.strip().splitlines()[-1].startswith("# fraction_within_4sigma,")
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(math.pi, rel=1e-12)


def test_mc_verify_deterministic_across_threads(tmp_path, capsys, monkeypatch):
    # enough samples that every bin is far from the small-count regime
    args = ["mc-verify", "--levels", "0,0.7,1.3,2", "--samples", "200000", "--bins", "32"]
    texts = []
    for threads in ("1", "4"):
        monkeypatch.setenv("QMCE_THREADS", threads)
        out = tmp_path / f"mc{threads}.csv"
        assert run(capsys, args + ["--out", str(out)])[0] == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    monkeypatch.setenv("QMCE_THREADS", "1")
    out = tmp_path / "mc_again.csv"
    assert run(capsys, args + ["--out", str(out)])[0] == 0
    assert out.read_bytes() == texts[0]


def test_mc_verify_seed_changes_output(tmp_path, capsys):
    args = ["mc-verify", "--levels", "0,1", "--samples", "10000", "--bins", "8"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, args + ["--out", str(a)])[0] == 0
    assert run(capsys, args + ["--seed", "43", "--out", str(b)])[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_mc_verify_ising(capsys):
    code, out, _ = run(
        capsys,
        ["mc-verify", "--ising", "--spins", "3", "--J", "0.25", "--B", "1", "--samples", "50000", "--bins", "64"],
    )
    assert code == 0
    summary = [l for l in out.splitlines() if l.startswith("# fraction")][0]
    assert float(summary.split(",")[1]) >= 0.99


def test_mc_verify_bad_threads(capsys, monkeypatch):
    monkeypatch.setenv("QMCE_THREADS", "lots")
    code = run(capsys, ["mc-verify", "--levels", "0,1", "--samples", "1000", "--bins", "4"])[0]
    assert code == 1


# -- grand ----------------------------------------------------------------


def test_grand_lattice(capsys):
    code, out, _ = run(capsys, ["grand", "--grid", "5"])
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == ["p", "q", "Omega"]
    assert len(rows) == 26
    table = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    assert table[("0.25", "0.25")] == pytest.approx(math.pi**2, rel=1e-15)
    assert table[("0", "0.5")] == 0.0
    assert table[("0.75", "0.75")] == 0.0
    assert table[("0.5", "0.5")] == pytest.approx(math.pi**2, rel=1e-15)  # diagonal


def test_grand_marginal(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run(
        capsys,
        ["grand", "--grid", "5", "--levels", "0,1,2", "--marginal", "--out", str(out)],
    )
    assert code == 0
    marg = data_rows((tmp_path / "g.marginal.csv").read_text())
    assert marg[0] == ["E", "Omega"]
    values = {r[0]: float(r[1]) for r in marg[1:]}
    assert values["0.5"] == pytest.approx(math.pi**2 / 4.0, rel=1e-12)
    assert values["0"] == 0.0 and values["2"] == 0.0


def test_grand_marginal_needs_source(capsys):
    assert run(capsys, ["grand", "--grid", "5", "--marginal"])[0] == 1


# -- equilibrate and ising --------------------------------------------------


def test_equilibrate_report(capsys):
    code, out, _ = run(
        capsys,
        ["equilibrate", "--levels", "0,1,2", "--E1", "0.5", "--levels2", "0,1,2,3", "--E2", "0.25"],
    )
    assert code == 0
    rows = data_rows(out)
    assert rows[0] == ["epsilon", "T1", "T2", "S_total"]
    eps, t1, t2, _ = (float(v) for v in rows[1])
    assert eps == pytest.approx(-0.25, abs=1e-9)
    assert t1 == pytest.approx(t2, rel=1e-8)
    assert t1 == pytest.approx(0.25, rel=1e-6)


def test_equilibrate_validation(capsys):
    assert run(capsys, ["equilibrate", "--levels", "0,1", "--E1", "0.5", "--E2", "0.5"])[0] == 1
    assert (
        run(
            capsys,
            ["equilibrate", "--levels", "0,1", "--E1", "3.0", "--levels2", "0,1", "--E2", "0.5"],
        )[0]
        == 1
    )


def test_ising_emission_roundtrip(tmp_path, capsys):
    out = tmp_path / "ising.txt"
    code, _, _ = run(capsys, ["ising", "--spins", "3", "--J", "0.25", "--B", "1", "--out", str(out)])
    assert code == 0
    s = load_spectrum(out)
    assert [(e, m) for e, m in s.levels] == [(-3.75, 1), (-0.75, 3), (1.25, 3), (2.25, 1)]


# -- shared plumbing ---------------------------------------------------------


def test_gnuplot_script(tmp_path, capsys):
    out = tmp_path / "dos.csv"
    code, _, _ = run(capsys, ["dos", "--levels", "0,1", "--out", str(out), "--gnuplot"])
    assert code == 0
    script = Path(str(out) + ".gp").read_text()
    assert "plot" in script and str(out) in script
    assert run(capsys, ["dos", "--levels", "0,1", "--gnuplot"])[0] == 1


def test_out_matches_stdout(tmp_path, capsys):
    code, out_text, _ = run(capsys, ["dos", "--levels", "0,1,2", "--grid", "7"])
    assert code == 0
    path = tmp_path / "d.csv"
    assert run(capsys, ["dos", "--levels", "0,1,2", "--grid", "7", "--out", str(path)])[0] == 0
    assert path.read_text() == out_text


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qmce.cli", "dos", "--levels", "0,1", "--grid", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("E,Omega\n")
    bad = subprocess.run(
        [sys.executable, "-m", "qmce.cli", "dos"], capture_output=True, text=True
    )
    assert bad.returncode == 1


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["dos", "--help"])[0] == 0
