"""Command-line front end.

Subcommands: constants, solve, sweep, cheeger, certify, probe. All outputs
are JSON or CSV files with fixed formatting so repeated runs compare byte
for byte. Exit codes: 0 success, 2 configuration error, 3 numerical
failure (non-convergence, failed quadrature, or a failed probe gate).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from fraclap.certify import build_certificate, verify_certificate
from fraclap.constants import (
    QuadratureError,
    ball_perimeter,
    ball_cheeger,
    calibrable_radius,
    sharp_constants,
)
from fraclap.domain_grid import DomainSpec, build_grid, build_kernel, kernel_exponent
from fraclap.energy import load_from_array
from fraclap.experiments import (
    RunConfig,
    cheeger_characterization,
    classify,
    energy_limit_probe,
    faber_krahn_probe,
    gnuplot_script,
    hat_field,
    make_load,
    read_config,
    run_sweeps,
    write_csv,
    write_json,
)
from fraclap.geometry import brute_force_cheeger, threshold_cheeger
from fraclap.solver import SolverError, solve_p

DEFAULT_PROBE_SCHEDULE = (1.3, 1.2, 1.1, 1.05, 1.02, 1.01)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _field_csv_text(grid, values) -> str:
    cols = ["index"] + ["x%d" % k for k in range(grid.n)] + ["value"]
    lines = [",".join(cols)]
    for i in range(grid.ncells):
        row = [str(i)]
        row += [repr(float(c)) for c in grid.centers[i]]
        row.append(repr(float(values[i])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _write(path, text) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _reference_cheeger(cfg: RunConfig):
    """(h_ref, kind): closed form on balls and intervals, volume bound else.

    Both are values for the unit load, divided by the peak |load_scale|:
    the closed form assumes the constant load, and for other loads the
    volume lower bound over the peak is itself a lower bound for the
    weighted constant. A zero load carries no set, so its h_ref is inf.
    """
    spec = cfg.domain
    if cfg.load == "constant" and spec.shape in ("interval", "ball"):
        if spec.shape == "interval":
            radius = 0.5 * (spec.params[1] - spec.params[0])
        else:
            radius = float(spec.params[-1])
        unit, kind = ball_cheeger(spec.n, cfg.s, radius), "closed-form"
    else:
        sobolev = sharp_constants(spec.n, cfg.s, 1.0).sobolev
        unit = build_grid(spec).measure ** (-cfg.s / spec.n) / (2.0 * sobolev)
        kind = "volume-bound"
    peak = abs(cfg.load_scale)
    return (unit / peak if peak > 0 else math.inf), kind


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    consts = sharp_constants(args.n, args.s, args.p)
    print(
        _dump(
            {
                "C": consts.c,
                "S": consts.sobolev,
                "p_star": consts.p_star,
                "ball_perimeter_unit": ball_perimeter(args.n, args.s, 1.0),
                "calibrable_radius": calibrable_radius(args.n, args.s),
            }
        )
    )
    return 0


def _instance(cfg: RunConfig, p: float):
    """Grid, kernel at the exponent of p, and load of one run config."""
    grid = build_grid(cfg.domain)
    kern = build_kernel(grid, kernel_exponent(grid.n, cfg.s, p))
    return grid, kern, make_load(grid, cfg)


def _cmd_solve(args) -> int:
    cfg = read_config(args.config)
    p = args.p if args.p is not None else max(cfg.schedule)
    scfg = cfg.solve_config(p)
    # an override p is checked here, before build_kernel rejects its exponent
    scfg.validate_for(cfg.domain.n)
    grid, kern, f = _instance(cfg, p)
    sol = solve_p(grid, kern, f, scfg)
    os.makedirs(args.out, exist_ok=True)
    report = {
        "label": cfg.label,
        "p": p,
        "s_p": grid.n + cfg.s - grid.n / p,
        "status": sol.status,
        "iterations": sol.iterations,
        "orbits": sol.orbits,
        "grad_norm": sol.grad_norm,
        "l1": sol.l1,
        "seminorm": sol.seminorm,
        "seminorm_pow": sol.semi_power_pm1,
        "energy": {
            "pair": sol.breakdown.pair,
            "tail": sol.breakdown.tail,
            "kinetic": sol.breakdown.kinetic,
            "load": sol.breakdown.load,
            "total": sol.breakdown.total,
        },
    }
    write_json(report, os.path.join(args.out, "%s_solution.json" % cfg.label))
    _write(
        os.path.join(args.out, "%s_field.csv" % cfg.label),
        _field_csv_text(grid, sol.u),
    )
    print(_dump({"label": cfg.label, "status": sol.status, "energy": sol.breakdown.total}))
    return 0


def _cmd_sweep(args) -> int:
    configs = [read_config(path) for path in args.config]
    labels = [cfg.label for cfg in configs]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels %s" % labels)
    os.makedirs(args.out, exist_ok=True)
    tables = run_sweeps(configs, threads=args.threads)
    failed = False
    for cfg, table in zip(configs, tables):
        write_csv(table.records, os.path.join(args.out, "%s.csv" % cfg.label))
        report = {
            "label": cfg.label,
            "aborted": table.aborted,
            "failure": table.failure,
            "statuses": list(table.statuses),
            "records": [
                dict(rec._asdict(), orbits=k)
                for rec, k in zip(table.records, table.orbits)
            ],
        }
        if len(table.records) >= 3:
            h_ref, kind = _reference_cheeger(cfg)
            verdict = classify(table, h_ref)
            char = cheeger_characterization(table, h_ref)
            report["h_ref"] = h_ref
            report["h_ref_kind"] = kind
            report["classification"] = verdict.classification
            report["l1_ratio"] = verdict.l1_ratio
            report["semi_ratio"] = verdict.semi_ratio
            report["pow_last"] = char.pow_last
            report["pow_target"] = char.target
            report["pow_rel_deviation"] = char.rel_deviation
            report["pow_trend"] = char.trend
        write_json(report, os.path.join(args.out, "%s.json" % cfg.label))
        if args.plot:
            _write(
                os.path.join(args.out, "%s.gp" % cfg.label),
                gnuplot_script("%s.csv" % cfg.label, title=cfg.label),
            )
        if table.aborted:
            failed = True
        print(
            _dump(
                {
                    "label": cfg.label,
                    "records": len(table.records),
                    "aborted": table.aborted,
                }
            )
        )
    return 3 if failed else 0


def _cmd_cheeger(args) -> int:
    cfg = read_config(args.config)
    grid, kern, f = _instance(cfg, 1.0)
    if args.field is None:
        result = brute_force_cheeger(grid, f, kern)
    else:
        u = _read_field_csv(args.field, grid)
        result = threshold_cheeger(u, f, kern)
    os.makedirs(args.out, exist_ok=True)
    report = {
        "label": cfg.label,
        "method": result.method,
        "h": result.h,
        "witness_cells": int(np.sum(result.witness)),
        "ncells": grid.ncells,
    }
    write_json(report, os.path.join(args.out, "%s_cheeger.json" % cfg.label))
    _write(
        os.path.join(args.out, "%s_witness.csv" % cfg.label),
        _field_csv_text(grid, result.witness.astype(float)),
    )
    print(_dump(report))
    return 0


def _read_field_csv(path, grid) -> np.ndarray:
    """Cell values of a field CSV that names every cell of grid once,
    finitely, each row at a point inside its cell."""
    ncells = grid.ncells
    values = np.zeros(ncells)
    seen = np.zeros(ncells, dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for col in ["value"] + ["x%d" % k for k in range(grid.n)]:
            if col not in header:
                raise ValueError("field CSV lacks a %s column" % col)
        vcol = header.index("value")
        xcols = [header.index("x%d" % k) for k in range(grid.n)]
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            where = "field CSV line %d" % lineno
            try:
                i, value = int(parts[0]), float(parts[vcol])
            except (IndexError, ValueError):
                raise ValueError("%s: no integer index and value" % where) from None
            if not 0 <= i < ncells:
                raise ValueError("%s: index %d outside 0..%d" % (where, i, ncells - 1))
            if seen[i]:
                raise ValueError("%s: index %d repeated" % (where, i))
            if not math.isfinite(value):
                raise ValueError("%s: value %r is not finite" % (where, value))
            try:
                point = [float(parts[c]) for c in xcols]
            except (IndexError, ValueError):
                raise ValueError("%s: no coordinates" % where) from None
            center = grid.centers[i].tolist()
            # a field written for another grid names points outside its cells
            if not all(abs(x - c) < 0.5 * grid.h for x, c in zip(point, center)):
                raise ValueError(
                    "%s: point %r lies outside cell %d, centered at %r"
                    % (where, tuple(point), i, tuple(center))
                )
            values[i] = value
            seen[i] = True
    if not np.all(seen):
        raise ValueError(
            "field CSV does not cover the grid: %d of %d cells missing"
            % (ncells - np.count_nonzero(seen), ncells)
        )
    return values


def _cmd_certify(args) -> int:
    cfg = read_config(args.config)
    grid, kern, f = _instance(cfg, 1.0)
    u = _read_field_csv(args.field, grid)
    cert = build_certificate(u, f, kern, eps_feas=args.eps)
    rep = verify_certificate(u, cert, f, kern, eps_feas=args.eps)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "%s_signfield.csv" % cfg.label)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i,j,z\n")
        # each row's upper entries go straight to the file: all the lines of
        # a 1024-cell field at once would hold tens of MB of strings. Most
        # entries are +-1, whose line tails "j,1.0" and "j,-1.0" are
        # formatted once per column; only the other nonzero entries meet
        # "%r", and zeros (-0.0 included) are not written
        cols = range(cert.z.shape[0])
        plus = np.array(["%d,1.0\n" % j for j in cols], dtype=object)
        minus = np.array(["%d,-1.0\n" % j for j in cols], dtype=object)
        for i, row in enumerate(cert.z):
            upper = row[i + 1:]
            pieces = np.where(upper > 0, plus[i + 1:], minus[i + 1:])
            nz = upper != 0
            (kk,) = np.nonzero(nz & (np.abs(upper) != 1.0))
            pieces[kk] = [
                "%d,%r\n" % (i + 1 + k, z)
                for k, z in zip(kk.tolist(), upper[kk].tolist())
            ]
            pieces = pieces[nz].tolist()
            if pieces:
                pre = "%d," % i
                fh.write(pre + pre.join(pieces))
        (kk,) = np.nonzero(cert.zbar)
        fh.writelines("%d,-1,%r\n" % row for row in zip(kk.tolist(), cert.zbar[kk].tolist()))
    report = {
        "label": cfg.label,
        "feasible": cert.feasible,
        "max_residual": cert.max_residual,
        "scale": cert.scale,
        "iterations": cert.iterations,
        "verified": rep.passed,
        "box_violation": rep.box_violation,
        "antisymmetry_violation": rep.antisymmetry_violation,
        "sign_violation": rep.sign_violation,
        "balance_violation": rep.balance_violation,
    }
    write_json(report, os.path.join(args.out, "%s_certificate.json" % cfg.label))
    print(_dump({"label": cfg.label, "feasible": cert.feasible, "verified": rep.passed}))
    return 0


def _cmd_probe(args) -> int:
    if args.kind == "faber-krahn":
        return _probe_faber_krahn(args)
    return _probe_energy_limit(args)


def _probe_faber_krahn(args) -> int:
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    s = args.s
    consts = sharp_constants(1, s, 1.0)
    reports = []
    # closed-form anchor: the unit interval is the 1-D ball
    grid = build_grid(DomainSpec(1, "interval", (0.0, 1.0), 1.0))
    kern = build_kernel(grid, kernel_exponent(1, s, 1.0))
    rep = faber_krahn_probe(grid, load_from_array(np.ones(1)), kern, consts)
    reports.append({"domain": "unit-interval", "h": rep.h, "bound": rep.bound,
                    "slack": rep.slack, "passed": rep.passed})
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        cells = rng.choice(30, size=10, replace=False)
        boxes = tuple((float(k), float(k + 1.0)) for k in sorted(cells))
        grid = build_grid(DomainSpec(1, "union", boxes, 1.0))
        kern = build_kernel(grid, kernel_exponent(1, s, 1.0))
        rep = faber_krahn_probe(grid, load_from_array(np.ones(grid.ncells)), kern, consts)
        reports.append({"domain": "union-%d" % trial, "h": rep.h, "bound": rep.bound,
                        "slack": rep.slack, "passed": rep.passed})
    all_passed = all(r["passed"] for r in reports)
    out = {"probe": "faber-krahn", "s": s, "passed": all_passed, "instances": reports}
    print(_dump(out))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(out, os.path.join(args.out, "faber_krahn.json"))
    return 0 if all_passed else 3


def _probe_energy_limit(args) -> int:
    if args.config:
        cfg = read_config(args.config)
        grid = build_grid(cfg.domain)
        s = cfg.s
    else:
        grid = build_grid(DomainSpec(1, "interval", (-1.0, 1.0), 1.0 / 32.0))
        s = args.s
    schedule = tuple(args.p) if args.p else DEFAULT_PROBE_SCHEDULE
    rep = energy_limit_probe(grid, hat_field(grid), s, schedule)
    out = {
        "probe": "energy-limit",
        "s": s,
        "ncells": grid.ncells,
        "schedule": sorted(schedule, reverse=True),
        "rel_gaps": list(rep.rel_gaps),
        "reference": rep.reference,
        "monotone": rep.monotone,
        "final_rel_gap": rep.final_rel_gap,
        "passed": rep.passed,
    }
    print(_dump(out))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(out, os.path.join(args.out, "energy_limit.json"))
    return 0 if rep.passed else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="Nonlocal p-energy laboratory: sweeps, constants, "
        "Cheeger estimates, and p=1 certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="print the sharp constant chain")
    p_const.add_argument("--n", type=int, default=1, choices=(1, 2))
    p_const.add_argument("--s", type=float, default=0.5)
    p_const.add_argument("--p", type=float, default=1.0)
    p_const.set_defaults(func=_cmd_constants)

    p_solve = sub.add_parser("solve", help="solve one instance from a run config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument(
        "--p", type=float, default=None,
        help="override the exponent (default: largest scheduled p)",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run p sweeps and classify regimes")
    p_sweep.add_argument("--config", action="append", required=True)
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--plot", action="store_true",
                         help="also write a gnuplot script per sweep")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ch = sub.add_parser("cheeger", help="estimate the weighted Cheeger constant")
    p_ch.add_argument("--config", required=True)
    p_ch.add_argument(
        "--field", default=None,
        help="field CSV whose superlevel sets are searched (default: "
        "exhaustive search over every cell subset)",
    )
    p_ch.add_argument("--out", default=".")
    p_ch.set_defaults(func=_cmd_cheeger)

    p_cert = sub.add_parser("certify", help="build and check a p=1 sign field")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--field", required=True, help="solution field CSV")
    p_cert.add_argument("--eps", type=float, default=1e-8)
    p_cert.add_argument("--out", default=".")
    p_cert.set_defaults(func=_cmd_certify)

    p_probe = sub.add_parser("probe", help="run a verification probe")
    p_probe.add_argument("kind", choices=("faber-krahn", "energy-limit"))
    p_probe.add_argument("--s", type=float, default=0.5)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--trials", type=int, default=3)
    p_probe.add_argument("--config", default=None)
    p_probe.add_argument("--p", type=float, action="append", default=None,
                         help="schedule entry (repeatable)")
    p_probe.add_argument("--out", default=None)
    p_probe.set_defaults(func=_cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 2
    except (SolverError, QuadratureError) as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
