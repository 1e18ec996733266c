"""Acceptance suite: the thirteen stated criteria, one test each.

Every test prints one `ACCEPTANCE n: PASS/FAIL` line with the measured
values (visible with -s, and in the failure report otherwise) and then
asserts the stated tolerance. Criteria 5 and 11 fail by documented margins
on these grid families; the analysis lives in the README and the failing
assertion messages.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from fraclap.certify import (
    build_certificate,
    equal_pair_mass,
    plateau_measure,
    verify_certificate,
)
from fraclap.constants import (
    ball_cheeger,
    ball_perimeter,
    calibrable_radius,
    sobolev_constant,
)
from fraclap.domain_grid import BALL_VOLUME, DomainSpec, build_grid, build_kernel
from fraclap.energy import (
    gradient,
    hoelder_embedding_factor,
    load_from_array,
    seminorm,
    seminorm_power,
    total_energy,
)
from fraclap.experiments import (
    cheeger_characterization,
    classify,
    energy_limit_probe,
    hat_field,
)
from fraclap.geometry import (
    brute_force_cheeger,
    coarea_identity_gap,
    perimeter,
    threshold_cheeger,
)


def _report(num, ok, detail):
    print("ACCEPTANCE %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_01_sharp_constant_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        got = sobolev_constant(1, s, 1.0)
        worst = max(worst, abs(got - s * (1.0 - s) / 4.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 1.0
    _report(1, ok, "max abs gap %.2e, %.2fs" % (worst, elapsed))
    assert worst <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_isoperimetric_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        s = 0.5
        lhs = BALL_VOLUME[n] ** ((n - s) / n) / (2.0 * ball_perimeter(n, s, 1.0))
        rhs = sobolev_constant(n, s, 1.0)
        worst = max(worst, abs(lhs / rhs - 1.0))
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 128.0))
    kern = build_kernel(grid, 1.5)
    per = perimeter(np.ones(grid.ncells, dtype=bool), kern)
    per_gap = abs(per / (8.0 * np.sqrt(2.0)) - 1.0)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and per_gap <= 0.03 and elapsed < 10.0
    _report(
        2,
        ok,
        "identity gap %.2e, grid perimeter gap %.4f, %.2fs" % (worst, per_gap, elapsed),
    )
    assert worst <= 1e-6
    assert per_gap <= 0.03
    assert elapsed < 10.0


def test_criterion_03_calibrable_radius():
    start = time.perf_counter()
    got = calibrable_radius(1, 0.5)
    elapsed = time.perf_counter() - start
    gap = abs(got / 32.0 - 1.0)
    ok = gap <= 1e-3 and elapsed < 1.0
    _report(3, ok, "R* = %.6f, rel gap %.2e, %.2fs" % (got, gap, elapsed))
    assert gap <= 1e-3
    assert elapsed < 1.0


def test_criterion_04_dichotomy(van16, blow64):
    h_van = ball_cheeger(1, 0.5, 16.0)
    h_blow = ball_cheeger(1, 0.5, 64.0)
    v_van = classify(van16.table, h_van)
    v_blow = classify(blow64.table, h_blow)
    seconds = van16.seconds + blow64.seconds
    ok = (
        v_van.classification == "vanishing"
        and v_van.l1_ratio <= 0.1
        and v_blow.classification == "blow-up"
        and v_blow.semi_ratio >= 10.0
        and seconds <= 600.0
    )
    _report(
        4,
        ok,
        "van16 %s (l1 ratio %.2e), blow64 %s (semi ratio %.2e), %.1fs"
        % (
            v_van.classification,
            v_van.l1_ratio,
            v_blow.classification,
            v_blow.semi_ratio,
            seconds,
        ),
    )
    assert v_van.classification == "vanishing"
    assert v_van.l1_ratio <= 0.1
    assert v_blow.classification == "blow-up"
    assert v_blow.semi_ratio >= 10.0
    assert seconds <= 600.0


def test_criterion_05_cheeger_characterization(van16):
    h_ref = ball_cheeger(1, 0.5, 16.0)
    report = cheeger_characterization(van16.table, h_ref)
    ok = report.rel_deviation <= 0.15
    _report(
        5,
        ok,
        "last [u]^(p-1) = %.5f vs 1/h = %.5f, deviation %.3f, trend %s"
        % (report.pow_last, report.target, report.rel_deviation, report.trend),
    )
    assert report.rel_deviation <= 0.15, (
        "deviation %.3f exceeds 15%% at p = 1.02: the approach to the "
        "Cheeger reciprocal is first order in p-1 and the trend is still "
        "%s toward the target" % (report.rel_deviation, report.trend)
    )


def test_criterion_06_gradient_correctness():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.2))
    kern = build_kernel(grid, 1.5)
    nn = grid.ncells
    f = load_from_array(np.linspace(0.5, 1.5, nn))
    rng = np.random.default_rng(2024)
    step = 1e-6
    worst = 0.0
    for trial in range(50):
        p = 1.1 if trial % 2 == 0 else 1.5
        mags = np.linspace(0.3, 2.1, nn)
        signs = rng.choice([-1.0, 1.0], size=nn)
        u = rng.permutation(mags) * signs
        g = gradient(u, f, kern, p)
        for i in range(nn):
            up, dn = u.copy(), u.copy()
            up[i] += step
            dn[i] -= step
            fd = (
                total_energy(up, f, kern, p).total
                - total_energy(dn, f, kern, p).total
            ) / (2.0 * step)
            worst = max(worst, abs(fd - g[i]) / max(abs(g[i]), 1e-30))
    ok = worst < 1e-6
    _report(6, ok, "50 fields, p in {1.1, 1.5}, worst rel error %.2e" % worst)
    assert worst < 1e-6


def test_criterion_07_hoelder_embedding():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 6.0))
    kern_1 = build_kernel(grid, 1.5)
    rng = np.random.default_rng(7)
    violations = 0
    for trial in range(100):
        p = 1.05 if trial % 2 == 0 else 1.2
        kern_p = build_kernel(grid, 1.5 * p)
        u = rng.normal(size=grid.ncells)
        lhs = seminorm_power(u, kern_1, 1.0)
        rhs = seminorm(u, kern_p, p) * hoelder_embedding_factor(kern_1, kern_p, p)
        if lhs > rhs * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    _report(7, ok, "100 random fields, %d violations" % violations)
    assert violations == 0


def test_criterion_08_coarea_exactness():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 0.125))
    kern = build_kernel(grid, 1.5)
    f = load_from_array(np.ones(grid.ncells))
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(100):
        levels = np.array([0.0, rng.uniform(0.2, 1.0), rng.uniform(1.2, 2.5)])
        u = levels[rng.integers(0, 3, size=grid.ncells)]
        if np.all(u == 0.0):
            continue
        worst = max(worst, coarea_identity_gap(u, f, kern))
    ok = worst <= 1e-12
    _report(8, ok, "100 plateau fields, worst relative defect %.2e" % worst)
    assert worst <= 1e-12


def _oracle_cheeger(grid, f, kern):
    nn = grid.ncells
    best = (np.inf, None)
    row = np.sum(kern.w, axis=1) + kern.t
    for r in range(1, nn + 1):
        for subset in itertools.combinations(range(nn), r):
            mask = np.zeros(nn, dtype=bool)
            mask[list(subset)] = True
            per = 0.0
            for i in subset:
                per += row[i]
                for j in subset:
                    per -= kern.w[i, j]
            vol = float(np.sum(f.values[mask] * kern.m[mask]))
            if vol <= 0:
                continue
            ratio = per / vol
            if ratio < best[0]:
                best = (ratio, mask)
    return best


def test_criterion_09_brute_force_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    mismatches = 0
    threshold_fails = 0
    for _ in range(20):
        nn = int(rng.integers(8, 13))
        cells = sorted(rng.choice(26, size=nn, replace=False))
        boxes = tuple((float(k), float(k + 1.0)) for k in cells)
        grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
        kern = build_kernel(grid, 1.5)
        f = load_from_array(rng.uniform(0.2, 2.0, size=grid.ncells))
        got = brute_force_cheeger(grid, f, kern)
        want_h, want_mask = _oracle_cheeger(grid, f, kern)
        worst = max(worst, abs(got.h / want_h - 1.0))
        if not np.array_equal(got.witness, want_mask):
            mismatches += 1
        u = rng.uniform(0.1, 1.0, size=grid.ncells)
        thr = threshold_cheeger(u, f, kern)
        if thr.h < got.h * (1.0 - 1e-12):
            threshold_fails += 1
    ok = worst <= 1e-12 and mismatches == 0 and threshold_fails == 0
    _report(
        9,
        ok,
        "20 instances: h gap %.1e, %d witness mismatches, %d threshold "
        "violations" % (worst, mismatches, threshold_fails),
    )
    assert worst <= 1e-12
    assert mismatches == 0
    assert threshold_fails == 0


def test_criterion_10_certificate_trichotomy():
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, 1.5)
    t0 = float(kern.t[0])
    t_gap = abs(t0 / 8.0 - 1.0)  # closed-form exterior integral is 8

    sub = build_certificate(np.zeros(1), load_from_array(np.array([4.0])), kern)
    crit_f = load_from_array(np.array([t0]))
    crit = build_certificate(np.ones(1), crit_f, kern)
    shared = all(
        verify_certificate(lam * np.ones(1), crit, crit_f, kern).passed
        for lam in (1.0, 2.0)
    )
    sup = build_certificate(
        np.zeros(1), load_from_array(np.array([2.0 * t0])), kern
    )
    ok = (
        t_gap <= 0.02
        and sub.feasible
        and abs(sub.zbar[0]) < 1.0
        and crit.feasible
        and crit.zbar[0] == 1.0
        and shared
        and not sup.feasible
        and sup.max_residual >= 0.5 * t0
    )
    _report(
        10,
        ok,
        "t gap %.4f; sub feasible z=%.4f; crit shared %s; sup residual %.3f"
        % (t_gap, sub.zbar[0], shared, sup.max_residual),
    )
    assert t_gap <= 0.02
    assert sub.feasible and abs(sub.zbar[0]) < 1.0
    assert crit.feasible and crit.zbar[0] == 1.0 and shared
    assert not sup.feasible
    assert sup.max_residual >= 0.5 * t0


def test_criterion_11_energy_limit():
    grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32.0))
    schedule = (1.3, 1.2, 1.1, 1.05, 1.02, 1.01)
    rep = energy_limit_probe(grid, hat_field(grid), 0.5, schedule)
    ok = rep.monotone and rep.final_rel_gap <= 1e-3
    _report(
        11,
        ok,
        "gaps %s, monotone %s, final %.2e"
        % (["%.3g" % g for g in rep.rel_gaps], rep.monotone, rep.final_rel_gap),
    )
    assert rep.monotone and rep.final_rel_gap <= 1e-3, (
        "hat-64 gaps %s: the signed gap E_p - E_1 crosses zero near p=1.1 "
        "(one-cell closed form: rel gap (p-1) - 10(p-1)^2), so the gaps "
        "dip and rise, and the p=1.01 gap %.2e sits first order in p-1 "
        "above the 1e-3 gate" % (["%.3g" % g for g in rep.rel_gaps], rep.final_rel_gap)
    )


def test_criterion_12_flatness_probes(crit32, blow64):
    results = []
    for case in (crit32, blow64):
        u = case.table.final_u
        pm = plateau_measure(u, case.kernel_1, tau_rel=0.01)
        ep = equal_pair_mass(u, case.kernel_1)
        results.append((case.table.label, pm.fraction, ep.fraction))
    ok = all(p >= 0.05 and q > 0.0 for _, p, q in results)
    _report(
        12,
        ok,
        "; ".join(
            "%s plateau %.3f pair %.3f" % (lbl, p, q) for lbl, p, q in results
        ),
    )
    for _, pm_frac, ep_frac in results:
        assert pm_frac >= 0.05
        assert ep_frac > 0.0


def test_criterion_13_determinism(tmp_path):
    cfg_van = (
        "config_version = 1\nlabel = van\nn = 1\nshape = interval\n"
        "params = -16 16\nh = 0.125\ns = 0.5\n"
    )
    cfg_blow = (
        "config_version = 1\nlabel = blow\nn = 1\nshape = interval\n"
        "params = -64 64\nh = 0.5\ns = 0.5\n"
    )
    (tmp_path / "van.cfg").write_text(cfg_van, encoding="utf-8")
    (tmp_path / "blow.cfg").write_text(cfg_blow, encoding="utf-8")
    outputs = {}
    for threads in (1, 8):
        out = tmp_path / ("out%d" % threads)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "fraclap.cli",
                "sweep",
                "--config",
                str(tmp_path / "van.cfg"),
                "--config",
                str(tmp_path / "blow.cfg"),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = tuple(
            (out / name).read_bytes() for name in ("van.csv", "blow.csv")
        )
    same = outputs[1] == outputs[8]
    nbytes = sum(len(b) for b in outputs[1])
    _report(13, same, "2 configs x 2 thread counts, %d CSV bytes compared" % nbytes)
    assert same
