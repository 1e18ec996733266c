"""CLI surface: subcommands, exit codes, file outputs, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fraclap
from fraclap.certify import build_certificate
from fraclap.cli import _field_csv_text, _instance, _read_field_csv, main
from fraclap.constants import calibrable_radius, sharp_constants
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.experiments import CSV_COLUMNS, make_load, read_config
from fraclap.geometry import threshold_cheeger

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
    assert report["orbits"] == 4  # the 8 cells in mirrored pairs
    lines = (out / "tiny_field.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,x0,value"
    assert len(lines) == 9  # header plus 8 cells


def test_solve_union_config(tmp_path, capsys):
    path = tmp_path / "union.cfg"
    path.write_text(
        SMALL_CFG.replace("shape = interval\nparams = -1 1",
                          "shape = union\nparams = 0 4 6 10")
        .replace("h = 0.25", "h = 0.5"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "tiny_field.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 17  # header plus 8 cells per box


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


@pytest.mark.parametrize(
    "key, value", [("refine", "4"), ("eps_e", "1e-12")], ids=["refine", "eps_e"]
)
def test_removed_config_key_exits_2(tmp_path, capsys, key, value):
    path = tmp_path / "removed.cfg"
    path.write_text(SMALL_CFG + "%s = %s\n" % (key, value), encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown key '%s'" % key in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("params = -1 1", "params = 1 0"),
        ("params = -1 1", "params = 0 inf"),
        ("h = 0.25", "h = nan"),
        ("h = 0.25", "h = inf"),
        ("schedule", "eps_g = nan\nschedule"),
        ("schedule", "eps_g = 0\nschedule"),
        ("shape = interval\nparams = -1 1", "shape = union\nparams = 0 4 6"),
        ("schedule = 1.3 1.2 1.1", "schedule = 1.3 nan 1.1"),
    ],
    ids=["reversed", "inf-corner", "nan-h", "inf-h", "nan-eps_g", "zero-eps_g",
         "union-part-box", "nan-p"],
)
@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_bad_config_exits_2_before_output(tmp_path, capsys, command, old, new):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_window_edge_exits_2_before_output(tmp_path, capsys):
    # at n = 2, s = 1/2 the kernel exponent (n + s) * p reaches n + 1 at p = 1.2
    path = tmp_path / "edge.cfg"
    path.write_text(
        SMALL_CFG.replace("n = 1\nshape = interval\nparams = -1 1",
                          "n = 2\nshape = box\nparams = 0 0 1 1")
        .replace("schedule = 1.3 1.2 1.1", "schedule = 1.2 1.1"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "s_p * p = 1 must stay below 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_writes_csv_json_and_plot(tmp_path, small_cfg, capsys):
    out = tmp_path / "runs"
    code = main(
        ["sweep", "--config", str(small_cfg), "--out", str(out), "--plot"]
    )
    assert code == 0
    csv_lines = (out / "tiny.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("p,s_p,l1")
    assert csv_lines[0] == ",".join(CSV_COLUMNS) and "orbits" not in csv_lines[0]
    assert len(csv_lines) == 4
    report = json.loads((out / "tiny.json").read_text(encoding="utf-8"))
    assert [rec["orbits"] for rec in report["records"]] == [4, 4, 4]
    assert report["classification"] == "vanishing"
    assert report["h_ref_kind"] == "closed-form"
    assert not report["aborted"]
    assert "tiny.csv" in (out / "tiny.gp").read_text(encoding="utf-8")


@pytest.mark.parametrize("scale", ["0", "-1"], ids=["zero", "negative"])
def test_sweep_reference_of_nonpositive_constant_load(tmp_path, capsys, scale):
    # h_ref is the unit-load value over |load_scale|: the load -1 gets the
    # load 1's, and a zero load, which no set carries, gets inf
    cfg = SMALL_CFG.replace("params = -1 1", "params = -2 2")
    reports = {}
    for value in ("1", scale):
        path = tmp_path / ("scale%s.cfg" % value)
        path.write_text(cfg + "load_scale = %s\n" % value, encoding="utf-8")
        out = tmp_path / ("out%s" % value)
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        reports[value] = json.loads((out / "tiny.json").read_text(encoding="utf-8"))
    report = reports[scale]
    assert report["h_ref"] == (math.inf if scale == "0" else reports["1"]["h_ref"])
    assert report["h_ref_kind"] == "closed-form"
    assert report["classification"] == "vanishing"


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
    code = main(["cheeger", "--config", str(small_cfg), "--out", str(out)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "brute-force"
    assert report["h"] == pytest.approx(4.0 * np.sqrt(2.0), rel=0.05)
    witness = (out / "tiny_witness.csv").read_text(encoding="utf-8").splitlines()
    assert len(witness) == 9


def test_cheeger_brute_too_large_exits_2(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text(SMALL_CFG.replace("h = 0.25", "h = 0.0625"), encoding="utf-8")
    code = main(["cheeger", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2


def _field_values(path):
    """The value column of a field CSV, in index order."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(row.split(",")[-1]) for row in rows])


def test_cheeger_threshold(tmp_path, small_cfg, capsys):
    out = tmp_path / "ch"
    assert main(["solve", "--config", str(small_cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    field = out / "tiny_field.csv"
    code = main(
        ["cheeger", "--config", str(small_cfg), "--field", str(field),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)

    cfg = read_config(str(small_cfg))
    grid = build_grid(cfg.domain)
    kern_1 = build_kernel(grid, grid.n + cfg.s)
    u = _field_values(field)
    expected = threshold_cheeger(u, make_load(grid, cfg), kern_1)
    assert report["method"] == "threshold"
    assert repr(report["h"]) == repr(expected.h)
    assert report["witness_cells"] == int(np.sum(expected.witness))
    witness = _field_values(out / "tiny_witness.csv")
    assert np.array_equal(witness, expected.witness.astype(float))


@pytest.mark.parametrize(
    "last_row, message",
    [
        ("", "1 of 8 cells missing"),
        ("7,0.875,nan", "value nan is not finite"),
        ("7,0.875,-0.5", "requires a nonnegative field"),
    ],
    ids=["missing-cell", "nan-value", "negative-value"],
)
def test_cheeger_bad_field_exits_2_before_output(tmp_path, small_cfg, capsys,
                                                  last_row, message):
    field = tmp_path / "field.csv"
    field.write_text(
        "index,x0,value\n"
        + "".join("%d,%r,0.5\n" % (i, -0.875 + 0.25 * i) for i in range(7))
        + last_row + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["cheeger", "--config", str(small_cfg), "--field", str(field),
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cheeger_method_option_is_gone(tmp_path, small_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cheeger", "--config", str(small_cfg), "--method", "brute",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method" in capsys.readouterr().err


def test_box_that_h_does_not_divide(tmp_path, capsys):
    # h = 0.3 does not divide the unit square; the grid snaps to 3 x 3 cells
    path = tmp_path / "snap.cfg"
    path.write_text(
        SMALL_CFG.replace("n = 1\nshape = interval\nparams = -1 1",
                          "n = 2\nshape = box\nparams = 0 0 1 1")
        .replace("h = 0.25", "h = 0.3")
        .replace("schedule = 1.3 1.2 1.1", "schedule = 1.1 1.05"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    field = out / "tiny_field.csv"
    runs = [
        (["solve"], field),
        (["cheeger"], out / "tiny_witness.csv"),
        (["cheeger", "--field", str(field)], out / "tiny_witness.csv"),
        (["certify", "--field", str(field)], out / "tiny_certificate.json"),
    ]
    for argv, written in runs:
        if written.exists():
            written.unlink()
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
        assert written.exists()
        if written.suffix == ".csv":
            assert len(_field_values(written)) == 9
    report = json.loads((out / "tiny_certificate.json").read_text(encoding="utf-8"))
    assert report["verified"] == report["feasible"]
    signs = (out / "tiny_signfield.csv").read_text(encoding="utf-8").splitlines()
    assert {int(row.split(",")[0]) for row in signs[1:]} <= set(range(9))


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


def _elementwise_signfield(cert):
    """The sign-field CSV formatted one entry at a time: every nonzero
    upper z_ij as "i,j,z", then every nonzero zbar_i as "i,-1,z". The
    byte reference of fraclap certify's row writer."""
    n = cert.zbar.size
    lines = ["i,j,z\n"]
    for i in range(n):
        for j in range(i + 1, n):
            if cert.z[i, j] != 0.0:
                lines.append("%d,%d,%r\n" % (i, j, float(cert.z[i, j])))
    for i in range(n):
        if cert.zbar[i] != 0.0:
            lines.append("%d,-1,%r\n" % (i, float(cert.zbar[i])))
    return "".join(lines).encode("utf-8")


def _solve_and_certify(cfg_path, label, out):
    """fraclap solve, then fraclap certify of the written field, and the
    certificate of that field built directly."""
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    field = out / ("%s_field.csv" % label)
    code = main(
        ["certify", "--config", str(cfg_path), "--field", str(field), "--out", str(out)]
    )
    assert code == 0
    cfg = read_config(str(cfg_path))
    grid, kern, f = _instance(cfg, 1.0)
    return build_certificate(_read_field_csv(str(field), grid), f, kern)


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
    assert expected == _elementwise_signfield(cert)


def test_certify_signfield_of_solved_box_matches_elementwise_formatting(
    tmp_path, capsys
):
    # the 8 x 8 box field ties across its D4 orbits; the certificate LP
    # sets most ties to +-1, some to fractions and one to -0.0, which the
    # CSV drops like any zero
    cfg_path = tmp_path / "box8.cfg"
    cfg_path.write_text(BOX8_CFG, encoding="utf-8")
    out = tmp_path / "out"
    cert = _solve_and_certify(cfg_path, "box8", out)
    upper = cert.z[np.triu_indices(cert.zbar.size, 1)]
    assert np.any(upper == 1.0) and np.any(upper == -1.0)
    assert np.any((upper != 0.0) & (np.abs(upper) != 1.0))
    assert np.any((upper == 0.0) & np.signbit(upper))
    assert (out / "box8_signfield.csv").read_bytes() == _elementwise_signfield(cert)


def test_certify_signfield_of_one_cell_is_header_and_zbar(tmp_path, capsys, onecell_cfg):
    # one cell has no pairs: the CSV is the header and the zbar line
    out = tmp_path / "out"
    cert = _solve_and_certify(onecell_cfg, "cell", out)
    written = (out / "cell_signfield.csv").read_bytes()
    assert written == _elementwise_signfield(cert)
    assert written.decode("utf-8") == "i,j,z\n0,-1,%r\n" % float(cert.zbar[0])


def test_sweep_beyond_physical_memory_exits_2(tmp_path, capsys):
    # 2^21 cells need tens of TB of pair arrays; the check runs before any
    # N x N allocation, so this costs only the grid
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(
        ONECELL_CFG.replace("label = cell", "label = huge")
        .replace("params = 0 1", "params = 0 %d" % 2 ** 21),
        encoding="utf-8",
    )
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "2097152 cells need about" in err
    assert "physical memory" in err


@pytest.mark.parametrize("command", ["solve", "cheeger"])
def test_far_spread_union_exits_2(tmp_path, capsys, command):
    # two unit cells 10^6 apart: the exterior lattice sum behind their
    # tails would span (5 * 10^6)^2 offsets, about 10^6 GB
    cfg_path = tmp_path / "far.cfg"
    cfg_path.write_text(
        "config_version = 1\nlabel = far\nn = 2\nshape = union\n"
        "params = 0 0 1 1 1000000 0 1000001 1\nh = 1\ns = 0.5\n"
        "schedule = 1.1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "bounding box spans 1000001 x 1 cells" in err
    assert "physical memory" in err
    assert not out.exists()


def test_union_beyond_int64_lattice_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(
        "config_version = 1\nlabel = wide\nn = 1\nshape = union\n"
        "params = 0 1 1e19 1.0000000000000004e19\nh = 1\ns = 0.5\n"
        "schedule = 1.1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "beyond the int64 cell lattice" in err
    assert not out.exists()


BOX8_CFG = """\
config_version = 1
label = box8
n = 2
shape = box
params = 0 0 8 8
h = 1
s = 0.5
schedule = 1.1
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_box_field_is_d4_invariant_at_any_blas_thread_count(tmp_path, threads):
    # the solve runs on the box's D4 orbits, so its field keeps every bit
    # under both reflections and the transpose, whatever BLAS thread count
    # the process starts with
    cfg_path = tmp_path / "box8.cfg"
    cfg_path.write_text(BOX8_CFG, encoding="utf-8")
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-m", "fraclap.cli", "solve", "--config", str(cfg_path),
         "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    report = json.loads((out / "box8_solution.json").read_text(encoding="utf-8"))
    assert report["orbits"] == 10  # 6 orbits of 8, 4 of 4 on the diagonals
    lines = (out / "box8_field.csv").read_text(encoding="utf-8").splitlines()[1:]
    field = np.zeros((8, 8))
    for line in lines:
        _, x, y, value = line.split(",")
        field[int(float(x)), int(float(y))] = float(value)
    assert np.all(field > 0.0)
    for image in (field[::-1, :], field[:, ::-1], field.T):
        assert image.tobytes() == field.tobytes()


@pytest.mark.parametrize(
    "n, shape, params, h, message",
    [
        (1, "interval", "0 1", "1e-13", "10000000000000 cells need about"),
        (1, "interval", "0 1", "1e-320", "has no finite cell count"),
        (2, "ball", "0 0 1", "1e-7", "400000000000000 cells need about"),
        (1, "interval", "0 1", "1e-160", "cells need about inf GB"),
    ],
    ids=["interval-1e-13", "interval-1e-320", "ball-1e-7", "interval-1e-160"],
)
def test_too_fine_grid_exits_2_before_any_lattice(tmp_path, capsys, n, shape,
                                                   params, h, message):
    # each lattice would need terabytes or an infinite cell count; a ball is
    # checked on its bounding box, and 1e160 cells overflow a float's GB
    cfg_path = tmp_path / "fine.cfg"
    cfg_path.write_text(
        "config_version = 1\nlabel = fine\nn = %d\nshape = %s\nparams = %s\n"
        "h = %s\ns = 0.5\nschedule = 1.1\n" % (n, shape, params, h),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert message in err
    assert not out.exists()


def test_certify_lp_beyond_physical_memory_exits_2(tmp_path, capsys, monkeypatch):
    # 8 MB of physical memory holds the dense arrays of a 16 x 16 box, but
    # not the LP of its zero field, where every pair is a free entry
    monkeypatch.setattr(
        os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2048}.__getitem__
    )
    for k, code in [(16, 2), (4, 0)]:
        cfg_path = tmp_path / ("box%d.cfg" % k)
        cfg_path.write_text(
            "config_version = 1\nlabel = box\nn = 2\nshape = box\n"
            "params = 0 0 %d %d\nh = 1\ns = 0.5\nschedule = 1.1\n" % (k, k),
            encoding="utf-8",
        )
        field = tmp_path / ("zero%d.csv" % k)
        field.write_text(
            "index,x0,x1,value\n"
            + "".join("%d,%r,%r,0.0\n" % (i, i // k + 0.5, i % k + 0.5)
                      for i in range(k * k)),
            encoding="utf-8",
        )
        out = tmp_path / ("out%d" % k)
        argv = ["certify", "--config", str(cfg_path), "--field", str(field),
                "--out", str(out)]
        assert main(argv) == code
        if code == 2:
            assert "LP has 32896 free entries" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert (out / "box_certificate.json").exists()


@pytest.mark.parametrize(
    "value, eps, message",
    [
        ("inf", "1e-8", "line 2: value inf is not finite"),
        ("0.0", "0", "feasibility tolerance must be finite and positive"),
        ("0.0", "nan", "feasibility tolerance must be finite and positive"),
    ],
    ids=["inf-field", "zero-eps", "nan-eps"],
)
def test_certify_bad_input_exits_2_before_output(tmp_path, small_cfg, capsys,
                                                  value, eps, message):
    field = tmp_path / "field.csv"
    field.write_text(
        "index,x0,value\n0,-0.875,%s\n" % value
        + "".join("%d,%r,0.0\n" % (i, -0.875 + 0.25 * i) for i in range(1, 8)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["certify", "--config", str(small_cfg), "--field", str(field),
                 "--eps", eps, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["certify"], ["cheeger"]])
def test_field_of_another_grid_exits_2_before_output(tmp_path, capsys, command):
    # 16 cells of [0, 2] at h = 1/8 against 16 cells of [0, 1] at h = 1/16:
    # the counts agree, the first row's point sits on its cell's boundary
    cfg_path = tmp_path / "unit.cfg"
    cfg_path.write_text(ONECELL_CFG.replace("h = 1", "h = 0.0625"), encoding="utf-8")
    wide = build_grid(DomainSpec(1, "interval", (0.0, 2.0), 0.125))
    field = tmp_path / "wide_field.csv"
    field.write_text(_field_csv_text(wide, np.linspace(1.0, 0.0, 16)), encoding="utf-8")
    out = tmp_path / "out"
    code = main(command + ["--config", str(cfg_path), "--field", str(field),
                           "--out", str(out)])
    assert code == 2
    assert ("field CSV line 2: point (0.0625,) lies outside cell 0, centered at "
            "(0.03125,)") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "last_row, message",
    [
        ("99,0.875,0.5", "line 9: index 99 outside 0..7"),
        ("-1,0.875,0.5", "line 9: index -1 outside 0..7"),
        ("6,0.875,0.5", "line 9: index 6 repeated"),
        ("7", "line 9: no integer index and value"),
        ("7,0.875,nan", "line 9: value nan is not finite"),
    ],
    ids=["past-end", "negative", "duplicate", "short-row", "nan-value"],
)
def test_certify_bad_field_row_exits_2_before_output(tmp_path, small_cfg, capsys,
                                                     last_row, message):
    field = tmp_path / "field.csv"
    field.write_text(
        "index,x0,value\n"
        + "".join("%d,%r,0.5\n" % (i, -0.875 + 0.25 * i) for i in range(7))
        + last_row + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["certify", "--config", str(small_cfg), "--field", str(field),
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--config", "SMALL", "--p", "1.5"],
         "s_p * p = 1.25 must stay below 1"),
        (["solve", "--config", "EXTRA"], "unknown key 'mystery'"),
        (["sweep", "--config", "SMALL", "--config", "SMALL"], "duplicate labels"),
    ],
    ids=["inadmissible-p", "unknown-key", "duplicate-label"],
)
def test_error_label_printed_once(tmp_path, small_cfg, capsys, argv, message):
    extra = tmp_path / "extra.cfg"
    extra.write_text(SMALL_CFG + "mystery = 1\n", encoding="utf-8")
    paths = {"SMALL": str(small_cfg), "EXTRA": str(extra)}
    assert main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error: ") == 1
    assert "configuration error: " + message in err


def test_probe_faber_krahn_seeded_reproducibility(capsys):
    assert main(["probe", "faber-krahn", "--seed", "5", "--trials", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["probe", "faber-krahn", "--seed", "5", "--trials", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"]
    assert len(report["instances"]) == 3  # anchor plus two trials


def test_probe_faber_krahn_rejects_negative_trials(capsys):
    assert main(["probe", "faber-krahn", "--trials", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --trials must be nonnegative" in captured.err


@pytest.mark.parametrize("bad", ["1.0", "0.5", "nan"])
def test_probe_energy_limit_rejects_p_not_above_one(capsys, bad):
    # before the fix a p = 1 entry passed the gate vacuously (exit 0)
    assert main(["probe", "energy-limit", "--p", "1.3", "--p", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: " in captured.err


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
