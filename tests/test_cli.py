"""CLI surface: subcommands, exit codes, file outputs, reproducibility."""

import json

import numpy as np
import pytest

from fraclap.certify import build_certificate
from fraclap.cli import main
from fraclap.constants import calibrable_radius, sharp_constants
from fraclap.domain_grid import build_grid, build_kernel
from fraclap.experiments import make_load, read_config

SMALL_CFG = """\
config_version = 1
label = tiny
n = 1
shape = interval
params = -1 1
h = 0.25
s = 0.5
schedule = 1.3 1.2 1.1
"""

ONECELL_CFG = """\
config_version = 1
label = cell
n = 1
shape = interval
params = 0 1
h = 1
s = 0.5
schedule = 1.3 1.2
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return path


@pytest.fixture()
def onecell_cfg(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(ONECELL_CFG, encoding="utf-8")
    return path


def test_constants_subcommand(capsys):
    assert main(["constants", "--n", "1", "--s", "0.5", "--p", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    consts = sharp_constants(1, 0.5, 1.0)
    assert out["S"] == consts.sobolev
    assert out["C"] == consts.c
    assert out["p_star"] == 2.0
    assert out["calibrable_radius"] == calibrable_radius(1, 0.5)
    assert set(out) == {"C", "S", "p_star", "ball_perimeter_unit", "calibrable_radius"}


def test_solve_writes_solution_and_field(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(small_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "tiny_solution.json").read_text(encoding="utf-8"))
    assert report["status"] in ("converged", "floored")
    assert report["p"] == 1.3
    lines = (out / "tiny_field.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,x0,value"
    assert len(lines) == 9  # header plus 8 cells


def test_solve_rejects_inadmissible_override(tmp_path, small_cfg, capsys):
    code = main(
        ["solve", "--config", str(small_cfg), "--out", str(tmp_path), "--p", "1.5"]
    )
    assert code == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + "mystery = 1\n", encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_removed_refine_key_exits_2(tmp_path, capsys):
    path = tmp_path / "refine.cfg"
    path.write_text(SMALL_CFG + "refine = 4\n", encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown key 'refine'" in capsys.readouterr().err


def test_sweep_writes_csv_json_and_plot(tmp_path, small_cfg, capsys):
    out = tmp_path / "runs"
    code = main(
        ["sweep", "--config", str(small_cfg), "--out", str(out), "--plot"]
    )
    assert code == 0
    csv_lines = (out / "tiny.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("p,s_p,l1")
    assert len(csv_lines) == 4
    report = json.loads((out / "tiny.json").read_text(encoding="utf-8"))
    assert report["classification"] == "vanishing"
    assert report["h_ref_kind"] == "closed-form"
    assert not report["aborted"]
    assert "tiny.csv" in (out / "tiny.gp").read_text(encoding="utf-8")


def test_sweep_duplicate_labels_exit_2(tmp_path, small_cfg, capsys):
    assert (
        main(
            ["sweep", "--config", str(small_cfg), "--config", str(small_cfg),
             "--out", str(tmp_path)]
        )
        == 2
    )


def test_sweep_starved_solver_exits_3(tmp_path, capsys):
    path = tmp_path / "starve.cfg"
    path.write_text(SMALL_CFG + "maxit = 2\n", encoding="utf-8")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    report = json.loads(
        (tmp_path / "o" / "tiny.json").read_text(encoding="utf-8")
    )
    assert report["aborted"]
    assert "did not converge" in report["failure"]


def test_cheeger_brute(tmp_path, small_cfg, capsys):
    out = tmp_path / "ch"
    code = main(
        ["cheeger", "--config", str(small_cfg), "--method", "brute", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "brute-force"
    assert report["h"] == pytest.approx(4.0 * np.sqrt(2.0), rel=0.05)
    witness = (out / "tiny_witness.csv").read_text(encoding="utf-8").splitlines()
    assert len(witness) == 9


def test_cheeger_brute_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text(SMALL_CFG.replace("h = 0.25", "h = 0.0625"), encoding="utf-8")
    code = main(
        ["cheeger", "--config", str(path), "--method", "brute", "--out", str(tmp_path)]
    )
    assert code == 2


def test_cheeger_threshold(tmp_path, small_cfg, capsys):
    out = tmp_path / "ch"
    code = main(
        ["cheeger", "--config", str(small_cfg), "--method", "threshold",
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "threshold"
    assert report["h"] >= 4.0 * np.sqrt(2.0) * 0.95  # upper-bound estimator


def test_certify_round_trip(tmp_path, small_cfg, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--config", str(small_cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(
        ["certify", "--config", str(small_cfg),
         "--field", str(out / "tiny_field.csv"), "--out", str(out)]
    )
    assert code == 0
    report = json.loads(
        (out / "tiny_certificate.json").read_text(encoding="utf-8")
    )
    assert isinstance(report["feasible"], bool)
    assert report["max_residual"] >= 0.0
    sign_lines = (out / "tiny_signfield.csv").read_text(encoding="utf-8").splitlines()
    assert sign_lines[0] == "i,j,z"
    assert len(sign_lines) > 1


def test_certify_signfield_rows_match_elementwise_formatting(tmp_path, capsys):
    # the zero field leaves every z_ij and zbar_i free, so the rows carry
    # general floats; the reference is the old per-element formatting loop
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(
        ONECELL_CFG.replace("label = cell", "label = zero")
        .replace("params = 0 1", "params = 0 16")
        + "load_scale = 0.3\n",
        encoding="utf-8",
    )
    field = tmp_path / "zero_field.csv"
    field.write_text(
        "index,x0,value\n" + "".join("%d,%r,0.0\n" % (i, i + 0.5) for i in range(16)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(
        ["certify", "--config", str(cfg_path), "--field", str(field), "--out", str(out)]
    )
    assert code == 0

    cfg = read_config(str(cfg_path))
    grid = build_grid(cfg.domain)
    kern = build_kernel(grid, grid.n + cfg.s)
    cert = build_certificate(np.zeros(grid.ncells), make_load(grid, cfg), kern)
    lines = ["i,j,z"]
    ii, jj = np.nonzero(np.triu(cert.z, k=1) != 0.0)
    for i, j in zip(ii, jj):
        lines.append("%d,%d,%s" % (i, j, repr(float(cert.z[i, j]))))
    for i in range(grid.ncells):
        if cert.zbar[i] != 0.0:
            lines.append("%d,-1,%s" % (i, repr(float(cert.zbar[i]))))
    assert np.any(np.abs(cert.z[ii, jj]) < 1.0)
    assert np.any(cert.zbar != 0.0)
    expected = ("\n".join(lines) + "\n").encode("utf-8")
    assert (out / "zero_signfield.csv").read_bytes() == expected


def test_probe_faber_krahn_seeded_reproducibility(capsys):
    assert main(["probe", "faber-krahn", "--seed", "5", "--trials", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["probe", "faber-krahn", "--seed", "5", "--trials", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"]
    assert len(report["instances"]) == 3  # anchor plus two trials


def test_probe_energy_limit_onecell_passes(onecell_cfg, capsys):
    code = main(
        ["probe", "energy-limit", "--config", str(onecell_cfg),
         "--p", "1.3", "--p", "1.2", "--p", "1.1"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert report["final_rel_gap"] <= 1e-3


def test_probe_energy_limit_default_gate_fails(capsys):
    # the hat-64 default instance misses the asymptotic gate; exit code 3
    # reports the failed probe without raising
    code = main(["probe", "energy-limit"])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
