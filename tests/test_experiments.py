"""Sweep orchestration: configs, classification, probes, determinism.

Three tests in this file assert asymptotic gates at desk scale and fail by
a documented margin (search for "gate:" below); the measured values are in
the assertion messages and the README.
"""

import numpy as np
import pytest

from fraclap.constants import ball_cheeger, sharp_constants
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import load_from_array
from fraclap.experiments import (
    DEFAULT_SCHEDULE,
    RunConfig,
    SweepRecord,
    cheeger_characterization,
    classify,
    csv_text,
    energy_limit_probe,
    faber_krahn_probe,
    gnuplot_script,
    hat_field,
    make_load,
    parse_config,
    run_sweep,
    run_sweeps,
    write_csv,
    write_json,
)

CONFIG_TEXT = """\
# reference instance
config_version = 1
label = demo
n = 1
shape = interval
params = -1 1
h = 0.25
s = 0.5
load = constant
load_scale = 2.0
schedule = 1.3 1.2 1.1
maxit = 2000
"""


def small_config(**overrides):
    base = dict(
        domain=DomainSpec(1, "interval", (-1.0, 1.0), 0.25),
        s=0.5,
        schedule=(1.3, 1.2, 1.1),
    )
    base.update(overrides)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.label == "demo"
    assert cfg.domain == DomainSpec(1, "interval", (-1.0, 1.0), 0.25)
    assert cfg.s == 0.5
    assert cfg.load == "constant"
    assert cfg.load_scale == 2.0
    assert cfg.schedule == (1.3, 1.2, 1.1)
    assert cfg.maxit == 2000
    assert cfg.eps_g is None


def test_parse_config_defaults():
    cfg = parse_config(
        "config_version = 1\nn = 1\nshape = interval\nparams = 0 1\nh = 1\ns = 0.5\n"
    )
    assert cfg.schedule == DEFAULT_SCHEDULE
    assert cfg.label == "run"
    assert cfg.load == "constant"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(CONFIG_TEXT + "mystery = 3\n")


def test_parse_config_rejects_missing_key():
    with pytest.raises(ValueError, match="missing key 's'"):
        parse_config("config_version = 1\nn = 1\nshape = interval\nparams = 0 1\nh = 1\n")


def test_parse_config_rejects_bad_version():
    with pytest.raises(ValueError, match="config_version"):
        parse_config(CONFIG_TEXT.replace("config_version = 1", "config_version = 2"))


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config(CONFIG_TEXT + "label = again\n")


def test_parse_config_rejects_bad_eps_g():
    with pytest.raises(ValueError, match="eps_g must be positive and finite"):
        parse_config(CONFIG_TEXT + "eps_g = nan\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("config_version = 1\njust some words\n")


def test_runconfig_rejects_bad_load():
    with pytest.raises(ValueError, match="load must be one of"):
        small_config(load="spike")


def test_runconfig_rejects_indicator_without_region():
    with pytest.raises(ValueError, match="indicator load needs"):
        small_config(load="indicator")


def test_runconfig_rejects_inadmissible_schedule():
    # s_p * p crosses 1 at p = 4/3 for s = 0.5
    with pytest.raises(ValueError, match=r"s_p \* p = 1.25 must stay below 1"):
        small_config(schedule=(1.5, 1.2))


def test_runconfig_rejects_empty_schedule():
    with pytest.raises(ValueError, match="empty p schedule"):
        small_config(schedule=())


# ---------------------------------------------------------------------------
# loads and reference fields
# ---------------------------------------------------------------------------


def test_make_load_constant():
    cfg = small_config(load_scale=3.0)
    grid = build_grid(cfg.domain)
    f = make_load(grid, cfg)
    assert np.all(f.values == 3.0)
    assert f.nonnegative


def test_make_load_indicator():
    cfg = small_config(load="indicator", load_scale=2.0, load_params=(-0.5, 0.5))
    grid = build_grid(cfg.domain)
    f = make_load(grid, cfg)
    inside = np.abs(grid.centers[:, 0]) <= 0.5
    assert np.all(f.values[inside] == 2.0)
    assert np.all(f.values[~inside] == 0.0)


def test_make_load_bump():
    cfg = small_config(load="bump", load_scale=1.0)
    grid = build_grid(cfg.domain)
    f = make_load(grid, cfg)
    assert f.nonnegative
    assert np.all(f.values > 0.0)
    # radial: symmetric about the centroid and peaked there
    assert np.allclose(f.values, f.values[::-1])
    assert np.argmax(f.values) in (grid.ncells // 2 - 1, grid.ncells // 2)


def test_hat_field_profile():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32.0))
    u = hat_field(grid)
    assert np.max(u) <= 1.0
    assert np.min(u) > 0.0  # decay reaches zero just past the last cell
    assert np.allclose(u, u[::-1])
    assert np.argmax(u) in (grid.ncells // 2 - 1, grid.ncells // 2)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_zero_load_all_records_zero():
    cfg = small_config(load_scale=0.0)
    table = run_sweep(cfg)
    assert len(table.records) == 3
    assert not table.aborted
    for rec in table.records:
        assert rec.l1 == 0.0
        assert rec.seminorm_p == 0.0
        assert rec.seminorm_s1 == 0.0
        assert rec.energy == 0.0


def test_sweep_records_recompute_sp():
    cfg = small_config()
    table = run_sweep(cfg)
    for rec in table.records:
        assert rec.s_p == pytest.approx(1.5 - 1.0 / rec.p, abs=1e-15)
    assert [r.p for r in table.records] == sorted(cfg.schedule, reverse=True)


def test_sweep_single_cell_subcritical_l1_decreasing():
    cfg = RunConfig(
        domain=DomainSpec(1, "interval", (0.0, 1.0), 1.0),
        s=0.5,
        schedule=(1.3, 1.2, 1.1),
    )
    grid = build_grid(cfg.domain)
    table = run_sweep(cfg)
    l1 = [rec.l1 for rec in table.records]
    assert l1[0] > l1[1] > l1[2]
    # closed form (f m / t_p)^(1/(p-1)) with f m = 1 below every t_p
    for rec in table.records:
        kern = build_kernel(grid, 1.5 * rec.p)
        expected = (1.0 / kern.t[0]) ** (1.0 / (rec.p - 1.0))
        assert rec.l1 == pytest.approx(expected, rel=1e-4)


def test_sweep_supercritical_seminorm_increasing(blow64):
    semis = [rec.seminorm_p for rec in blow64.table.records]
    assert len(semis) == 5
    assert all(b > a for a, b in zip(semis, semis[1:]))


def test_sweep_abort_flags_partial_table():
    cfg = small_config(maxit=2)  # starve the solver
    table = run_sweep(cfg)
    assert table.aborted
    assert table.failure is not None
    assert len(table.records) < 3


def test_run_sweeps_thread_count_does_not_change_bytes():
    configs = [small_config(), small_config(load_scale=2.0, label="twice")]
    serial = run_sweeps(configs, threads=1)
    threaded = run_sweeps(configs, threads=4)
    for a, b in zip(serial, threaded):
        assert csv_text(a.records) == csv_text(b.records)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _mk_records(l1s, semis, pows=None):
    pows = pows if pows is not None else [1.0] * len(l1s)
    recs = []
    for k, (a, b, c) in enumerate(zip(l1s, semis, pows)):
        p = 1.3 - 0.1 * k
        recs.append(
            SweepRecord(
                p=p, s_p=1.5 - 1.0 / p, l1=a, seminorm_p=b,
                seminorm_p_pow=c, seminorm_s1=b, energy=-a, iters=k + 1,
            )
        )
    return recs


def test_classify_requires_three_records():
    with pytest.raises(ValueError, match="at least 3 records"):
        classify(_mk_records([1.0, 2.0], [1.0, 2.0]), h_ref=1.0)


def test_classify_zero_table_is_vanishing():
    verdict = classify(_mk_records([0.0] * 3, [0.0] * 3, [0.0] * 3), h_ref=2.0)
    assert verdict.classification == "vanishing"


def test_classify_synthetic_branches():
    van = classify(_mk_records([10.0, 1.0, 0.5], [5.0, 1.0, 0.3]), h_ref=1.4)
    assert van.classification == "vanishing"
    blow = classify(_mk_records([1.0, 5.0, 50.0], [1.0, 20.0, 100.0]), h_ref=0.7)
    assert blow.classification == "blow-up"
    crit = classify(
        _mk_records([1.0, 1.1, 1.2], [1.0, 1.1, 1.2], [1.6, 1.05, 0.95]),
        h_ref=1.0,
    )
    assert crit.classification == "critical"
    none = classify(_mk_records([1.0, 1.1, 1.2], [1.0, 1.1, 1.2]), h_ref=1.4)
    assert none.classification == "inconclusive"


def test_classify_stable_under_trend_extension():
    l1s, semis = [10.0, 1.0, 0.5], [5.0, 1.0, 0.3]
    before = classify(_mk_records(l1s, semis), h_ref=1.4).classification
    after = classify(
        _mk_records(l1s + [0.2], semis + [0.1]), h_ref=1.4
    ).classification
    assert before == after == "vanishing"


def test_classify_real_instances(van16, blow64):
    h_van = ball_cheeger(1, 0.5, 16.0)
    h_blow = ball_cheeger(1, 0.5, 64.0)
    assert classify(van16.table, h_van).classification == "vanishing"
    assert classify(blow64.table, h_blow).classification == "blow-up"


# ---------------------------------------------------------------------------
# characterization
# ---------------------------------------------------------------------------


def test_characterization_flags_zero_table():
    report = cheeger_characterization(
        _mk_records([0.0] * 3, [0.0] * 3, [0.0] * 3), h_ref=1.0
    )
    assert report.degenerate


def test_characterization_trend_toward_reciprocal(van16):
    h_ref = ball_cheeger(1, 0.5, 16.0)
    report = cheeger_characterization(van16.table, h_ref)
    assert not report.degenerate
    assert report.trend == "decreasing"
    assert report.pows[-1] > report.target  # approach is from above


def test_characterization_calibrable_deviation_within_15pct(crit32):
    """gate: last [u]^(p-1) within 15% of 1 on the calibrable interval.

    The approach to the Cheeger reciprocal is first order in p-1; at
    p = 1.02 on this 256-cell grid the measured deviation is 0.239.
    """
    report = cheeger_characterization(crit32.table, 1.0)
    assert report.trend == "decreasing"
    assert report.rel_deviation <= 0.15, (
        "deviation %.4f exceeds the 15%% band at p=1.02 (desk-scale gap; "
        "the trend column is decreasing toward the target)" % report.rel_deviation
    )


def test_uniform_s1_bound_below_threshold(van16):
    """gate: subcritical [u_p] in the order-s seminorm stays near its median.

    The recorded sequence rises to 3.72x its median at p = 1.2 before the
    collapse toward zero sets in.
    """
    s1 = np.array([rec.seminorm_s1 for rec in van16.table.records])
    ratio = float(np.max(s1) / np.median(s1))
    assert ratio <= 2.0, (
        "max/median = %.3f: the mid-schedule hump breaches the 2x bound "
        "before the vanishing tail" % ratio
    )


def test_threshold_comparisons_agree_on_balls():
    # load-norm versus Cheeger-constant thresholds coincide on intervals
    consts = sharp_constants(1, 0.5, 1.0)
    for radius in (4.0, 32.0, 100.0):
        for c in (0.25, 1.0, 4.0):
            norm_side = c * (2.0 * radius) ** 0.5 - 1.0 / (2.0 * consts.sobolev)
            cheeger_side = c - ball_cheeger(1, 0.5, radius)
            assert norm_side * cheeger_side >= 0.0
            if norm_side != 0.0:
                assert (norm_side > 0) == (cheeger_side > 0)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def test_faber_krahn_unit_interval_is_tight():
    consts = sharp_constants(1, 0.5, 1.0)
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, 1.5)
    rep = faber_krahn_probe(grid, load_from_array(np.ones(1)), kern, consts)
    assert rep.passed
    assert abs(rep.slack) < 0.01  # the interval is the extremal domain
    assert rep.bound == pytest.approx(8.0, rel=1e-9)


def test_faber_krahn_random_unions_hold():
    consts = sharp_constants(1, 0.5, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(3):
        cells = sorted(rng.choice(24, size=10, replace=False))
        boxes = tuple((float(k), float(k + 1.0)) for k in cells)
        grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
        kern = build_kernel(grid, 1.5)
        rep = faber_krahn_probe(
            grid, load_from_array(np.ones(grid.ncells)), kern, consts
        )
        assert rep.passed
        assert rep.slack > 0.0  # scattered unions are never extremal


def test_faber_krahn_split_pair_strict():
    consts = sharp_constants(1, 0.5, 1.0)
    boxes = ((0.0, 1.0), (9.0, 10.0))
    grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
    kern = build_kernel(grid, 1.5)
    rep = faber_krahn_probe(
        grid, load_from_array(np.ones(grid.ncells)), kern, consts
    )
    assert rep.passed
    assert rep.slack > 0.3


def test_energy_limit_zero_field():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.25))
    rep = energy_limit_probe(grid, np.zeros(grid.ncells), 0.5, (1.3, 1.2, 1.1))
    assert rep.passed
    assert rep.gaps == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "schedule",
    [(1.3, 1.0), (1.3, 0.9), (1.2, float("nan")), ()],
    ids=["p-one", "p-below-one", "p-nan", "empty"],
)
def test_energy_limit_rejects_schedules_without_p_above_one(schedule):
    # a p = 1 entry has a zero gap, so it would pass the gate vacuously
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.25))
    with pytest.raises(ValueError, match="p > 1"):
        energy_limit_probe(grid, np.ones(grid.ncells), 0.5, schedule)


def test_energy_limit_one_cell_matches_exterior_integrals():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    schedule = (1.3, 1.2, 1.1)
    rep = energy_limit_probe(grid, np.ones(1), 0.5, schedule)
    assert rep.monotone
    assert rep.final_rel_gap <= 1e-3
    assert rep.passed
    # closed form: E_p = t(1.5 p) / (2 p) with t(a) = 2 / ((a-1)(2-a))
    for got, p in zip(rep.rel_gaps, schedule):
        a = 1.5 * p
        t_exact = 2.0 / ((a - 1.0) * (2.0 - a))
        want = abs(t_exact / p - 8.0) / 8.0
        assert got == pytest.approx(want, rel=0.25)


def test_energy_limit_hat64_monotone():
    """gate: hat-field gaps decrease monotonically along the schedule.

    The signed gap E_p - E_1 changes sign near p = 1.1 (closed-form check
    on one cell: relative gap (p-1) - 10(p-1)^2 + O((p-1)^3)), so the
    absolute gaps dip and rise again: 0.126 at p=1.2, then 0.143 at p=1.1.
    """
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32.0))
    rep = energy_limit_probe(grid, hat_field(grid), 0.5, DEFAULT_SCHEDULE)
    assert rep.monotone, (
        "gaps %s are not monotone: the sign crossing of E_p - E_1 sits "
        "inside the schedule" % (rep.rel_gaps,)
    )


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def test_csv_text_deterministic():
    cfg = small_config()
    a = csv_text(run_sweep(cfg).records)
    b = csv_text(run_sweep(cfg).records)
    assert a == b
    assert a.splitlines()[0] == "p,s_p,l1,seminorm_p,seminorm_p_pow,seminorm_s1,energy,iters"


def test_csv_round_trips_through_repr():
    cfg = small_config()
    table = run_sweep(cfg)
    text = csv_text(table.records)
    row = text.splitlines()[1].split(",")
    assert float(row[2]) == table.records[0].l1  # repr is lossless


def test_write_csv_and_json(tmp_path):
    cfg = small_config()
    table = run_sweep(cfg)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(table.records, csv_path)
    write_json({"label": table.label}, json_path)
    assert csv_path.read_text(encoding="utf-8") == csv_text(table.records)
    assert '"label": "run"' in json_path.read_text(encoding="utf-8")


def test_gnuplot_script_references_csv():
    script = gnuplot_script("runs/demo.csv", title="demo")
    assert "runs/demo.csv" in script
    assert script.startswith("set datafile separator")
