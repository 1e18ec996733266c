"""CLI surface: subcommands, exit codes, file outputs, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fraclap
from certify_reference import reference_certificate
from fraclap import cli, experiments
from fraclap.certify import _TIE_TOL, build_certificate, verify_certificate
from fraclap.cli import (
    _field_csv_text,
    _instance,
    _read_field_csv,
    _reference_cheeger,
    main,
)
from fraclap.constants import ball_cheeger, calibrable_radius, sharp_constants
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import load_from_array
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


def test_solve_checks_only_the_p_it_runs(tmp_path, capsys):
    # no schedule line: the default schedule's p = 1.3 leaves the window at
    # n = 2, s = 0.5 (s_p * p = 1.25), and --p 1.1 lies inside it
    path = tmp_path / "box.cfg"
    path.write_text(
        "config_version = 1\nlabel = box\nn = 2\nshape = box\n"
        "params = 0 0 8 8\nh = 1\ns = 0.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--p", "1.1", "--out", str(out)]) == 0
    report = json.loads((out / "box_solution.json").read_text(encoding="utf-8"))
    assert report["p"] == 1.1
    capsys.readouterr()
    assert main(["solve", "--config", str(path), "--p", "1.5", "--out", str(out)]) == 2
    assert "s_p * p = 1.75 must stay below 1 (p = 1.5)" in capsys.readouterr().err
    # without --p the config's own (default) schedule is checked
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert "s_p * p = 1.25 must stay below 1 (p = 1.3)" in capsys.readouterr().err


def _box_without_schedule(tmp_path, side):
    """A side x side box at s = 1/2 with no schedule line: the default
    schedule's p = 1.3 leaves the window at n = 2 (s_p * p = 1.25)."""
    path = tmp_path / ("box%d.cfg" % side)
    path.write_text(
        "config_version = 1\nlabel = box\nn = 2\nshape = box\n"
        "params = 0 0 %d %d\nh = 1\ns = 0.5\n" % (side, side),
        encoding="utf-8",
    )
    return path


def test_p_one_commands_ignore_the_schedule(tmp_path, capsys):
    # cheeger and certify work at p = 1 and never run the schedule, so its
    # p = 1.3 does not stop them
    cfg = str(_box_without_schedule(tmp_path, 8))
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--p", "1.1", "--out", str(out)]) == 0
    field = str(out / "box_field.csv")
    assert main(["cheeger", "--config", cfg, "--field", field, "--out", str(out)]) == 0
    assert main(["certify", "--config", cfg, "--field", field, "--out", str(out)]) == 0
    for name in ("box_cheeger.json", "box_witness.csv", "box_signfield.csv",
                 "box_certificate.json"):
        assert (out / name).exists()
    assert "configuration error" not in capsys.readouterr().err


def test_brute_force_cheeger_ignores_the_schedule(tmp_path, capsys):
    cfg = str(_box_without_schedule(tmp_path, 4))
    out = tmp_path / "out"
    assert main(["cheeger", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "box_cheeger.json").read_text(encoding="utf-8"))
    assert report["method"] == "brute-force" and report["ncells"] == 16


def test_energy_limit_probe_ignores_the_config_schedule(tmp_path, capsys):
    # the probe runs its own --p list; a failed gate exits 3, not 2
    cfg = str(_box_without_schedule(tmp_path, 8))
    code = main(["probe", "energy-limit", "--config", cfg, "--p", "1.1", "--p", "1.05"])
    assert code in (0, 3)
    captured = capsys.readouterr()
    assert "configuration error" not in captured.err
    assert json.loads(captured.out)["ncells"] == 64


def test_solve_checks_the_form_of_a_schedule_it_does_not_run(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(
        SMALL_CFG.replace("schedule = 1.3 1.2 1.1", "schedule = 1.3 nan 1.1"),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(path), "--p", "1.1", "--out", str(out)]) == 2
    assert "configuration error: need p > 1" in capsys.readouterr().err
    assert not out.exists()


def test_constants_nan_p_exits_2(capsys):
    assert main(["constants", "--p", "nan"]) == 2
    err = capsys.readouterr().err
    assert "integrability p must satisfy p >= 1" in err


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


def test_sweep_checks_every_config_before_output_or_solve(tmp_path, small_cfg,
                                                         capsys, monkeypatch):
    # the first config is admissible; the second runs the default schedule,
    # whose p = 1.3 leaves the window of a 2-D box
    calls = []
    monkeypatch.setattr(experiments, "solve_p", lambda *args, **kw: calls.append(args))
    box = str(_box_without_schedule(tmp_path, 8))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(small_cfg), "--config", box, "--out", str(out)]
    assert main(argv) == 2
    assert "s_p * p = 1.25 must stay below 1 (p = 1.3)" in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_non_finite_load_scale_exits_2_before_output(tmp_path, capsys, value):
    path = tmp_path / "load.cfg"
    path.write_text(SMALL_CFG + "load_scale = %s\n" % value, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error: load_scale must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "solve"])
@pytest.mark.parametrize("label", ["../escaped", "x/y", "..", ".", ""])
def test_label_that_is_no_file_name_exits_2_before_output(tmp_path, capsys, command,
                                                         label):
    # outputs are named after the label inside --out: a label with a
    # separator, or . or .., would write beside --out or fail after the solve
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG.replace("label = tiny", "label = " + label),
                    encoding="utf-8")
    out = tmp_path / "runs" / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "label must be a file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["bad.cfg"]


@pytest.mark.parametrize(
    "load, message",
    [
        ("indicator\nload_params = nan 1", "indicator load corners must be finite"),
        ("bump\nload_params = 0 0", "bump load takes no load_params"),
        ("constant\nload_params = 1", "constant load takes no load_params"),
    ],
    ids=["indicator-nan", "bump", "constant"],
)
def test_sweep_unusable_load_params_exit_2_before_output(tmp_path, capsys, load,
                                                         message):
    path = tmp_path / "load.cfg"
    path.write_text(SMALL_CFG + "load = %s\n" % load, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert "configuration error: " + message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_threads_below_one_exit_2_before_output(tmp_path, small_cfg, capsys,
                                                      threads):
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(small_cfg), "--threads", threads, "--out", str(out)]
    assert main(argv) == 2
    assert "configuration error: --threads must be positive" in capsys.readouterr().err
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
    assert report["classification"] == "vanishing"


_HEAD = "config_version = 1\nlabel = ref\n"


@pytest.mark.parametrize(
    "body",
    [
        "n = 1\nshape = interval\nparams = -16 16\nh = 0.5\ns = 0.3\n"
        "load = indicator\nload_params = 0 1\n",
        "n = 1\nshape = union\nparams = 0 1 3 5\nh = 0.5\ns = 0.5\nload = bump\n",
        "n = 2\nshape = box\nparams = 0 0 32 32\nh = 1\ns = 0.5\nschedule = 1.1\n",
        "n = 2\nshape = ball\nparams = 0 0 8\nh = 1\ns = 0.7\nschedule = 1.1\n"
        "load = bump\nload_scale = -2.5\n",
    ],
    ids=["interval", "union", "box", "ball"],
)
def test_volume_bound_equals_the_sobolev_form(tmp_path, body):
    # the closed-form volume bound is the former quadrature expression
    # |Omega|^(-s/n) / (2 S_{n,s,1}) over the peak |load_scale|
    path = tmp_path / "ref.cfg"
    path.write_text(_HEAD + body, encoding="utf-8")
    cfg = read_config(str(path))
    h_ref = _reference_cheeger(cfg)
    n, s = cfg.domain.n, cfg.s
    sobolev = sharp_constants(n, s, 1.0).sobolev
    former = build_grid(cfg.domain).measure ** (-s / n) / (2.0 * sobolev)
    assert h_ref == pytest.approx(former / abs(cfg.load_scale), rel=1e-13)


@pytest.mark.parametrize("s", ["0.3", "0.5"])
def test_volume_bound_of_an_interval_is_its_closed_form(tmp_path, s):
    # the ball of an interval's length is the interval itself, so h_ref is
    # its closed form bit for bit, under a constant load or any other
    refs = []
    for load in ("constant", "indicator\nload_params = 0 1"):
        path = tmp_path / "ref.cfg"
        path.write_text(
            _HEAD + "n = 1\nshape = interval\nparams = -16 16\nh = 0.5\n"
            "s = %s\nload = %s\n" % (s, load),
            encoding="utf-8",
        )
        refs.append(_reference_cheeger(read_config(str(path))))
    assert refs[0] == refs[1] == ball_cheeger(1, float(s), 16.0)


_SNAPPED = DomainSpec(1, "interval", (-16.0, 16.0), 0.3)  # 107 cells, 32.1 long


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_reference_reads_the_grid_volume_not_the_nominal_shape(s):
    # the grid of (-16, 16) at h = 0.3 is 32.1 long, so h_ref is the
    # constant of the interval of radius 16.05, not of radius 16
    h_ref = _reference_cheeger(experiments.RunConfig(domain=_SNAPPED, s=s))
    assert h_ref == ball_cheeger(1, s, build_grid(_SNAPPED).measure / 2)
    assert h_ref != ball_cheeger(1, s, 16.0)


def test_faber_krahn_probe_bound_is_the_sweep_reference(monkeypatch):
    # one closed form serves both; the exhaustive search, capped at 20
    # cells, does not enter the bound, so the whole grid stands in for it
    grid = build_grid(_SNAPPED)
    kern = build_kernel(grid, 1.5)
    f = load_from_array(np.ones(grid.ncells))
    def whole(grid, f, kernel):
        return threshold_cheeger(np.ones(grid.ncells), f, kernel)

    monkeypatch.setattr(experiments, "brute_force_cheeger", whole)
    rep = experiments.faber_krahn_probe(grid, f, kern, 0.5)
    assert rep.bound == _reference_cheeger(experiments.RunConfig(domain=_SNAPPED, s=0.5))


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


def test_cheeger_without_field_exits_2_before_the_kernel(tmp_path, capsys, monkeypatch):
    # 64 cells pass the exhaustive search's cap: the command stops before
    # it builds the kernel, names --field, and loads no quadrature
    box = str(_box_without_schedule(tmp_path, 8))
    out = tmp_path / "out"
    with monkeypatch.context() as m:
        m.setattr(cli, "build_kernel", _no_kernel)
        assert main(["cheeger", "--config", box, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "this grid has 64" in err and "pass --field" in err
    assert not out.exists()
    steps = _footprint(tmp_path, ["cheeger", "--config", box, "--out", "out"])
    assert steps == [["import", 0, []], ["cheeger", 2, []]]


# one input each that needs no kernel to reject, with its message; {tmp}
# holds a zero field of the 8 x 8 box, a field of a 1-D grid and an empty
# regular file
_NO_KERNEL_INPUTS = {
    "certify-missing-field": ("certify --field {tmp}/missing.csv", "No such file or directory"),
    "certify-other-grid": ("certify --field {tmp}/line.csv", "field CSV lacks a x1 column"),
    "certify-zero-eps": ("certify --field {tmp}/zero.csv --eps 0",
                         "feasibility tolerance must be finite and positive"),
    "certify-out-is-a-file": ("certify --field {tmp}/zero.csv --out {tmp}/taken", "File exists"),
    "cheeger-missing-field": ("cheeger --field {tmp}/missing.csv", "No such file or directory"),
    "cheeger-other-grid": ("cheeger --field {tmp}/line.csv", "field CSV lacks a x1 column"),
    "cheeger-out-is-a-file": ("cheeger --field {tmp}/zero.csv --out {tmp}/taken", "File exists"),
    "solve-out-is-a-file": ("solve --p 1.1 --out {tmp}/taken", "File exists"),
}


def _no_kernel_argv(tmp_path, case):
    """The argv of a _NO_KERNEL_INPUTS case on the 8 x 8 box, with --out
    {tmp}/out unless it names its own, and the files it reads."""
    box = str(_box_without_schedule(tmp_path, 8))
    grid = build_grid(read_config(box).domain)
    (tmp_path / "line.csv").write_text("index,x0,value\n0,0.5,1.0\n", encoding="utf-8")
    (tmp_path / "zero.csv").write_text(_field_csv_text(grid, np.zeros(grid.ncells)),
                                       encoding="utf-8")
    (tmp_path / "taken").write_text("", encoding="utf-8")
    command = _NO_KERNEL_INPUTS[case][0]
    if "--out" not in command:
        command += " --out {tmp}/out"
    command, *rest = [word.format(tmp=tmp_path) for word in command.split()]
    return [command, "--config", box] + rest


@pytest.mark.parametrize("case", sorted(_NO_KERNEL_INPUTS))
def test_inputs_that_need_no_kernel_exit_2_before_it(tmp_path, capsys, monkeypatch, case):
    # the field CSV, --eps and --out are checked before the kernel is
    # built or a solve runs, and nothing is written
    argv = _no_kernel_argv(tmp_path, case)
    calls = []
    monkeypatch.setattr(cli, "build_kernel", lambda *a: calls.append("build_kernel"))
    monkeypatch.setattr(cli, "solve_p", lambda *a: calls.append("solve_p"))
    assert main(argv) == 2
    assert _NO_KERNEL_INPUTS[case][1] in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "taken").read_bytes() == b""


def test_missing_field_loads_no_quadrature(tmp_path):
    steps = _footprint(tmp_path, *(_no_kernel_argv(tmp_path, command + "-missing-field")
                                   for command in ("certify", "cheeger")))
    assert steps == [["import", 0, []], ["certify", 2, []], ["cheeger", 2, []]]


def _no_kernel(*args, **kwargs):
    raise AssertionError("kernel built")


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


def test_certify_signfield_of_asymmetric_field_matches_elementwise_formatting(
    tmp_path, capsys
):
    # a 12-cell step field with zero cells and no two tied cells of equal
    # balance data: the certificate LP runs over single cells, as the
    # former LP did, and sets ties to +-1, to fractions and one to -0.0,
    # which the CSV drops like any zero
    cfg_path = tmp_path / "steps.cfg"
    cfg_path.write_text(
        ONECELL_CFG.replace("label = cell", "label = steps")
        .replace("params = 0 1", "params = 0 12")
        + "load_scale = 4.0\n",
        encoding="utf-8",
    )
    u = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.5, 1.5, 1.0])
    field = tmp_path / "steps_field.csv"
    field.write_text(
        "index,x0,value\n"
        + "".join("%d,%r,%r\n" % (i, i + 0.5, v) for i, v in enumerate(u.tolist())),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(
        ["certify", "--config", str(cfg_path), "--field", str(field), "--out", str(out)]
    )
    assert code == 0
    grid, kern, f = _instance(read_config(str(cfg_path)), 1.0)
    cert = build_certificate(u, f, kern)
    ref = reference_certificate(u, f, kern)
    assert cert.z.tobytes() == ref.z.tobytes()
    assert cert.zbar.tobytes() == ref.zbar.tobytes()
    upper = cert.z[np.triu_indices(cert.zbar.size, 1)]
    assert np.any(upper == 1.0) and np.any(upper == -1.0)
    assert np.any((upper != 0.0) & (np.abs(upper) != 1.0))
    assert np.any((upper == 0.0) & np.signbit(upper))
    assert (out / "steps_signfield.csv").read_bytes() == _elementwise_signfield(cert)


def _d4_orbits(grid):
    """Orbit label of every cell of a square box under its reflections
    and the swap of its axes."""
    lat = grid.lattice
    hi = lat.max(axis=0)
    images = [lat, hi - lat, lat[:, ::-1], hi - lat[:, ::-1]]
    images += [np.c_[img[:, 0], hi[1] - img[:, 1]] for img in images]
    keys = np.min([img[:, 0] * (hi[1] + 1) + img[:, 1] for img in images], axis=0)
    return np.unique(keys, return_inverse=True)[1]


def test_certify_signfield_of_solved_box_matches_elementwise_formatting(
    tmp_path, capsys
):
    # the 8 x 8 box field ties across its D4 orbits; the certificate LP
    # runs on the orbits, so every tie inside an orbit is 0. Its residual
    # and verdict agree with the LP over every tied pair, and the CSV is
    # the element-wise loop's
    cfg_path = tmp_path / "box8.cfg"
    cfg_path.write_text(BOX8_CFG, encoding="utf-8")
    out = tmp_path / "out"
    cert = _solve_and_certify(cfg_path, "box8", out)
    grid, kern, f = _instance(read_config(str(cfg_path)), 1.0)
    u = _read_field_csv(str(out / "box8_field.csv"), grid)
    orbit = _d4_orbits(grid)
    ii, jj = np.triu_indices(u.size, 1)
    inside = (u[ii] == u[jj]) & (orbit[ii] == orbit[jj])
    assert np.count_nonzero(inside) > 0
    assert np.all(cert.z[ii[inside], jj[inside]] == 0.0)
    upper = cert.z[ii, jj]
    assert np.any(upper == 1.0) and np.any(upper == -1.0)
    ref = reference_certificate(u, f, kern)
    assert cert.iterations < ref.iterations
    assert cert.feasible == ref.feasible
    assert abs(cert.max_residual - ref.max_residual) <= (_TIE_TOL + 1e-7) * cert.scale
    rep, rep_ref = verify_certificate(u, cert, f, kern), verify_certificate(u, ref, f, kern)
    assert rep.passed == rep_ref.passed
    assert abs(rep.balance_violation - rep_ref.balance_violation) <= _TIE_TOL + 1e-7
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


def _cli_bytes(cwd, threads, out, *argv):
    """Run fraclap argv --out out in a fresh process under
    OPENBLAS_NUM_THREADS=threads, in cwd, so its paths are relative; return
    its stdout and every file it wrote, as bytes keyed by path in out."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fraclap.cli", *argv, "--out", out],
        cwd=cwd, env=env, check=True, capture_output=True, timeout=300,
    )
    out = cwd / out
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.stdout, files


@pytest.fixture(scope="module")
def box8_one_thread(tmp_path_factory):
    """The box8 solve's stdout and files under one BLAS thread."""
    cwd = tmp_path_factory.mktemp("box8_one_thread")
    (cwd / "box8.cfg").write_text(BOX8_CFG, encoding="utf-8")
    return _cli_bytes(cwd, "1", "out", "solve", "--config", "box8.cfg")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_box_field_is_d4_invariant_at_any_blas_thread_count(tmp_path, threads,
                                                            box8_one_thread):
    # the solve runs on the box's D4 orbits, so its field keeps every bit
    # under both reflections and the transpose, whatever BLAS thread count
    # the process starts with, and every output byte is the one-thread one
    (tmp_path / "box8.cfg").write_text(BOX8_CFG, encoding="utf-8")
    got = _cli_bytes(tmp_path, threads, "out", "solve", "--config", "box8.cfg")
    assert got == box8_one_thread
    report = json.loads(got[1]["box8_solution.json"])
    assert report["orbits"] == 10  # 6 orbits of 8, 4 of 4 on the diagonals
    lines = got[1]["box8_field.csv"].decode("utf-8").splitlines()[1:]
    field = np.zeros((8, 8))
    for line in lines:
        _, x, y, value = line.split(",")
        field[int(float(x)), int(float(y))] = float(value)
    assert np.all(field > 0.0)
    for image in (field[::-1, :], field[:, ::-1], field.T):
        assert image.tobytes() == field.tobytes()


# asymmetric problems of 130 and 144 variables: LAPACK's potrf runs
# threaded from 128 rows on, where two BLAS threads round differently
THREAD_CFGS = {
    "ramp.cfg": "config_version = 1\nlabel = ramp\nn = 1\nshape = interval\n"
                "params = 0 130\nh = 1\ns = 0.5\nload = indicator\n"
                "load_params = 10 50\nload_scale = 1.5\nschedule = 1.3 1.1\n",
    "gap.cfg": "config_version = 1\nlabel = gap\nn = 1\nshape = union\n"
               "params = 0 90 95 135\nh = 1\ns = 0.5\nschedule = 1.3 1.1\n",
    "ind12.cfg": "config_version = 1\nlabel = ind12\nn = 2\nshape = box\n"
                 "params = 0 0 12 12\nh = 1\ns = 0.5\nload = indicator\n"
                 "load_params = 1 2 6 5\nload_scale = 2.0\nschedule = 1.1\n",
}


def test_outputs_are_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # a pooled sweep over two configs and an off-centre indicator solve on
    # a 12 x 12 box write the same bytes under one and two BLAS threads
    got = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        for name, text in THREAD_CFGS.items():
            (cwd / name).write_text(text, encoding="utf-8")
        sweep = _cli_bytes(cwd, threads, "sweeps", "sweep", "--config", "ramp.cfg",
                           "--config", "gap.cfg", "--threads", "2")
        solve = _cli_bytes(cwd, threads, "solve", "solve", "--config", "ind12.cfg")
        got[threads] = (sweep, solve)
    assert got["1"] == got["2"]
    sweep_files, solve_files = got["1"][0][1], got["1"][1][1]
    assert set(sweep_files) == {"ramp.csv", "ramp.json", "gap.csv", "gap.json"}
    for label in ("ramp", "gap"):
        report = json.loads(sweep_files[label + ".json"])
        assert [rec["orbits"] for rec in report["records"]] == [130, 130]
    assert json.loads(solve_files["ind12_solution.json"])["orbits"] == 144


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


@pytest.mark.parametrize("bad", ["0", "1", "nan"])
def test_probe_faber_krahn_rejects_s_outside_the_unit_interval(capsys, bad):
    assert main(["probe", "faber-krahn", "--s", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --s must lie in (0, 1)" in captured.err


@pytest.mark.parametrize("bad", ["0", "1", "nan"])
def test_probe_energy_limit_rejects_s_outside_the_unit_interval(capsys, bad):
    assert main(["probe", "energy-limit", "--s", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --s must lie in (0, 1)" in captured.err
    assert "alpha" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy-limit", "--trials", "5", "--seed", "3"], "unrecognized arguments"),
        (["faber-krahn", "--config", "ONE", "--p", "1.1"], "unrecognized arguments"),
        (["energy-limit", "--config", "ONE", "--s", "0.3"], "not allowed with"),
    ],
    ids=["energy-limit-trials-seed", "faber-krahn-config-p", "energy-limit-config-s"],
)
def test_probe_rejects_options_its_kind_ignores(onecell_cfg, capsys, argv, message):
    # each kind parses only its own options; a config carries its own s
    argv = [str(onecell_cfg) if a == "ONE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(["probe"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


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


# ---------------------------------------------------------------------------
# import footprint: scipy's quadrature, HiGHS and special functions load in
# the functions that call them, so a command that never calls them never
# pays for them, and no command loads scipy.sparse
# ---------------------------------------------------------------------------

_LAZY = (
    "scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special",
)

_FOOTPRINT = """\
import contextlib, io, json, sys
from fraclap import cli

def loaded():
    return [name for name in %r if name in sys.modules]

steps = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([argv[0], code, loaded()])
print(json.dumps(steps))
""" % (_LAZY,)


def _footprint(cwd, *argvs):
    """[command, exit code, the _LAZY subpackages loaded after it] for
    `import fraclap.cli` and then each argv in turn, in one fresh
    interpreter started in cwd."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(argvs)],
        cwd=cwd, env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_lazy_scipy_subpackage(tmp_path):
    assert _footprint(tmp_path) == [["import", 0, []]]


def test_one_dimensional_commands_load_no_lazy_scipy_subpackage(tmp_path, small_cfg):
    # the sweep's h_ref is the ball's closed form, so no quadrature runs
    cfg = str(small_cfg)
    steps = _footprint(
        tmp_path,
        ["solve", "--config", cfg, "--out", "out"],
        ["sweep", "--config", cfg, "--out", "out"],
        ["cheeger", "--config", cfg, "--out", "out"],
        ["cheeger", "--config", cfg, "--field", "out/tiny_field.csv", "--out", "out"],
    )
    assert steps == [[cmd, 0, []] for cmd in ("import", "solve", "sweep", "cheeger", "cheeger")]
    report = json.loads((tmp_path / "out" / "tiny.json").read_text(encoding="utf-8"))
    assert report["h_ref"] == ball_cheeger(1, 0.5, 1.0)


def test_probe_faber_krahn_loads_no_lazy_scipy_subpackage(tmp_path):
    # its bound is the ball's closed form, and its grids are 1-D
    steps = _footprint(tmp_path, ["probe", "faber-krahn", "--seed", "5", "--trials", "2"])
    assert steps == [["import", 0, []], ["probe", 0, []]]


def test_certify_loads_the_lp_on_first_use(tmp_path, small_cfg):
    # the zero field leaves every exterior sign free, so the LP runs; numpy
    # assembles it, and it goes to scipy's HiGHS extension, not through
    # scipy.optimize, so none of the lazy subpackages loads
    grid = build_grid(read_config(str(small_cfg)).domain)
    (tmp_path / "zero.csv").write_text(
        _field_csv_text(grid, np.zeros(grid.ncells)), encoding="utf-8"
    )
    steps = _footprint(
        tmp_path,
        ["certify", "--config", str(small_cfg), "--field", "zero.csv", "--out", "out"],
    )
    assert steps[0] == ["import", 0, []]
    command, code, loaded = steps[1]
    assert (command, code) == ("certify", 0)
    assert loaded == []
    report = json.loads((tmp_path / "out" / "tiny_certificate.json").read_text(encoding="utf-8"))
    assert report["iterations"] > 0 and report["verified"]
