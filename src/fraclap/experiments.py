"""Sweep orchestration: p schedules, regime classification, and probes.

A sweep solves one instance along a descending p schedule with warm starts,
records the norms that discriminate between the small-load and large-load
regimes, and classifies the run against the closed-form references from the
constants module. Everything is deterministic for a fixed config: reduction
orders are fixed by the grid, and sweeps never share state, so running
several configs across threads cannot change any output byte.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from fraclap.domain_grid import (
    DomainSpec,
    Grid,
    KernelSet,
    build_grid,
    build_kernel,
    kernel_exponent,
)
from fraclap.energy import LoadField, seminorm_power, total_energy
from fraclap.geometry import brute_force_cheeger
from fraclap.solver import SolveConfig, SolverError, solve_p

CONFIG_VERSION = 1
DEFAULT_SCHEDULE = (1.3, 1.2, 1.1, 1.05, 1.02)
CSV_COLUMNS = (
    "p",
    "s_p",
    "l1",
    "seminorm_p",
    "seminorm_p_pow",
    "seminorm_s1",
    "energy",
    "iters",
)
_LOAD_KINDS = ("constant", "indicator", "bump")


class SweepRecord(NamedTuple):
    p: float
    s_p: float
    l1: float
    seminorm_p: float
    seminorm_p_pow: float  # [u]^(p-1)
    seminorm_s1: float
    energy: float
    iters: int


@dataclass(frozen=True)
class RunConfig:
    """One sweep instance: domain, load, schedule, solver knobs."""

    domain: DomainSpec
    s: float
    load: str = "constant"
    load_scale: float = 1.0
    load_params: Tuple[float, ...] = ()
    schedule: Tuple[float, ...] = DEFAULT_SCHEDULE
    eps_g: Optional[float] = None
    eps_e: float = 1e-12
    maxit: int = 50000
    label: str = "run"

    def __post_init__(self):
        if self.load not in _LOAD_KINDS:
            raise ValueError(
                "configuration error: load must be one of %s" % (_LOAD_KINDS,)
            )
        if self.load == "indicator" and len(self.load_params) != 2 * self.domain.n:
            raise ValueError(
                "configuration error: indicator load needs %d corner "
                "coordinates" % (2 * self.domain.n)
            )
        if not self.schedule:
            raise ValueError("configuration error: empty p schedule")
        for p in self.schedule:
            cfg = SolveConfig(p=p, s=self.s, eps_e=self.eps_e, maxit=self.maxit)
            cfg.validate_for(self.domain.n)


@dataclass(frozen=True)
class SweepTable:
    """run_sweep output: records in solve order plus abort diagnostics."""

    records: Tuple[SweepRecord, ...]
    statuses: Tuple[str, ...]
    aborted: bool
    failure: Optional[str]
    label: str
    final_u: Optional[np.ndarray] = None  # last iterate, for probes


@dataclass(frozen=True)
class RegimeVerdict:
    classification: str  # vanishing | critical | blow-up | inconclusive
    l1_ratio: float  # last / first
    semi_ratio: float  # last / first
    pow_last: float
    pow_prev: float
    h_ref: float
    margin: float


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("config_version", "n", "shape", "params", "h", "s")
_ALL_KEYS = _REQUIRED_KEYS + (
    "label",
    "load",
    "load_scale",
    "load_params",
    "schedule",
    "eps_g",
    "eps_e",
    "maxit",
)


def parse_config(text: str) -> RunConfig:
    """Parse the flat `key = value` run-config format (version 1)."""
    seen: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                "configuration error: line %d: expected 'key = value'" % lineno
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ValueError("configuration error: unknown key '%s'" % key)
        if key in seen:
            raise ValueError("configuration error: duplicate key '%s'" % key)
        seen[key] = value.strip()
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ValueError("configuration error: missing key '%s'" % key)
    if int(seen["config_version"]) != CONFIG_VERSION:
        raise ValueError(
            "configuration error: unsupported config_version %s"
            % seen["config_version"]
        )

    n = int(seen["n"])
    shape = seen["shape"]
    params = tuple(float(v) for v in seen["params"].split())
    spec = DomainSpec(n, shape, params, float(seen["h"]))
    schedule = DEFAULT_SCHEDULE
    if "schedule" in seen:
        schedule = tuple(float(v) for v in seen["schedule"].split())
    load_params = ()
    if "load_params" in seen and seen["load_params"]:
        load_params = tuple(float(v) for v in seen["load_params"].split())
    return RunConfig(
        domain=spec,
        s=float(seen["s"]),
        load=seen.get("load", "constant"),
        load_scale=float(seen.get("load_scale", "1.0")),
        load_params=load_params,
        schedule=schedule,
        eps_g=float(seen["eps_g"]) if "eps_g" in seen else None,
        eps_e=float(seen.get("eps_e", "1e-12")),
        maxit=int(seen.get("maxit", "50000")),
        label=seen.get("label", "run"),
    )


def read_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# loads and reference fields
# ---------------------------------------------------------------------------


def make_load(grid: Grid, cfg: RunConfig) -> LoadField:
    c = cfg.load_scale
    if cfg.load == "constant":
        values = np.full(grid.ncells, c)
    elif cfg.load == "indicator":
        n = grid.n
        lo = np.asarray(cfg.load_params[:n])
        hi = np.asarray(cfg.load_params[n:])
        inside = np.all((grid.centers >= lo) & (grid.centers <= hi), axis=1)
        values = np.where(inside, c, 0.0)
    else:  # bump
        centroid = np.mean(grid.centers, axis=0)
        r2 = np.sum((grid.centers - centroid) ** 2, axis=1)
        rmax2 = float(np.max(r2)) + 0.25 * grid.h ** 2
        values = c * np.exp(-4.0 * r2 / rmax2)
    nonneg = bool(np.all(values >= 0.0) and np.any(values > 0.0))
    return LoadField(values=values, nonnegative=nonneg)


def hat_field(grid: Grid) -> np.ndarray:
    """Cone profile: 1 at the centroid, linear decay to the farthest cell."""
    centroid = np.mean(grid.centers, axis=0)
    dist = np.sqrt(np.sum((grid.centers - centroid) ** 2, axis=1))
    rmax = float(np.max(dist)) + 0.5 * grid.h
    return np.maximum(0.0, 1.0 - dist / rmax)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def run_sweep(cfg: RunConfig) -> SweepTable:
    """Solve along the descending schedule with warm starts."""
    grid = build_grid(cfg.domain)
    n = grid.n
    kern_1 = build_kernel(grid, n + cfg.s)
    f = make_load(grid, cfg)

    records: List[SweepRecord] = []
    statuses: List[str] = []
    aborted = False
    failure = None
    u_prev = None
    for p in sorted(cfg.schedule, reverse=True):
        scfg = SolveConfig(
            p=p, s=cfg.s, eps_g=cfg.eps_g, eps_e=cfg.eps_e, maxit=cfg.maxit
        )
        kern_p = build_kernel(grid, kernel_exponent(n, cfg.s, p))
        try:
            sol = solve_p(grid, kern_p, f, scfg, u0=u_prev)
        except SolverError as err:
            aborted = True
            failure = str(err)
            break
        u_prev = sol.u
        records.append(
            SweepRecord(
                p=p,
                s_p=n + cfg.s - n / p,
                l1=sol.l1,
                seminorm_p=sol.seminorm,
                seminorm_p_pow=sol.semi_power_pm1,
                seminorm_s1=seminorm_power(sol.u, kern_1, 1.0),
                energy=sol.breakdown.total,
                iters=sol.iterations,
            )
        )
        statuses.append(sol.status)
    return SweepTable(
        records=tuple(records),
        statuses=tuple(statuses),
        aborted=aborted,
        failure=failure,
        label=cfg.label,
        final_u=u_prev,
    )


def run_sweeps(configs: Sequence[RunConfig], threads: int = 1) -> List[SweepTable]:
    """Independent sweeps in input order; solves inside a sweep stay serial."""
    if threads <= 1 or len(configs) <= 1:
        return [run_sweep(cfg) for cfg in configs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_sweep, configs))


# ---------------------------------------------------------------------------
# classification and reports
# ---------------------------------------------------------------------------


def _records_of(table) -> Tuple[SweepRecord, ...]:
    return table.records if isinstance(table, SweepTable) else tuple(table)


def classify(table, h_ref: float, margin: float = 0.1) -> RegimeVerdict:
    """Trichotomy verdict from the norm trends and the Cheeger reference."""
    records = _records_of(table)
    if len(records) < 3:
        raise ValueError("classification requires at least 3 records")
    l1_first, l1_last = records[0].l1, records[-1].l1
    semi_first, semi_last = records[0].seminorm_p, records[-1].seminorm_p
    pow_last = records[-1].seminorm_p_pow
    pow_prev = records[-2].seminorm_p_pow

    l1_ratio = l1_last / l1_first if l1_first > 0 else 0.0
    semi_ratio = semi_last / semi_first if semi_first > 0 else 0.0
    if l1_first == 0.0 and l1_last == 0.0:
        cls = "vanishing"  # f gave the null minimizer at every p
    elif l1_ratio <= 0.1 and h_ref > 1.0 + margin:
        cls = "vanishing"
    elif semi_ratio >= 10.0 and h_ref < 1.0 - margin:
        cls = "blow-up"
    elif (
        math.isfinite(h_ref)
        and h_ref > 0
        and abs(pow_last * h_ref - 1.0) <= 0.15
        and abs(pow_prev * h_ref - 1.0) <= 0.15
    ):
        cls = "critical"
    else:
        cls = "inconclusive"
    return RegimeVerdict(
        classification=cls,
        l1_ratio=l1_ratio,
        semi_ratio=semi_ratio,
        pow_last=pow_last,
        pow_prev=pow_prev,
        h_ref=h_ref,
        margin=margin,
    )


@dataclass(frozen=True)
class CheegerCharacterization:
    pow_last: float
    target: float  # 1 / h_ref
    rel_deviation: float
    trend: str  # increasing | decreasing | mixed | flat
    pows: Tuple[float, ...]
    degenerate: bool


def cheeger_characterization(table, h_ref: float) -> CheegerCharacterization:
    """How close the final [u]^(p-1) sits to the Cheeger reciprocal."""
    records = _records_of(table)
    pows = tuple(r.seminorm_p_pow for r in records)
    if not records or records[-1].l1 == 0.0:
        return CheegerCharacterization(
            pow_last=0.0,
            target=1.0 / h_ref if h_ref > 0 else math.inf,
            rel_deviation=math.inf,
            trend="flat",
            pows=pows,
            degenerate=True,
        )
    diffs = np.diff(pows)
    if np.all(diffs > 0):
        trend = "increasing"
    elif np.all(diffs < 0):
        trend = "decreasing"
    elif np.all(diffs == 0):
        trend = "flat"
    else:
        trend = "mixed"
    target = 1.0 / h_ref
    return CheegerCharacterization(
        pow_last=pows[-1],
        target=target,
        rel_deviation=abs(pows[-1] / target - 1.0),
        trend=trend,
        pows=pows,
        degenerate=False,
    )


@dataclass(frozen=True)
class FaberKrahnReport:
    h: float
    bound: float  # |domain|^(-s/n) / (2 S)
    slack: float  # h / bound - 1
    passed: bool
    tol_rel: float


def faber_krahn_probe(
    grid: Grid, f: LoadField, kernel: KernelSet, constants, tol_rel: float = 0.05
) -> FaberKrahnReport:
    """Check the volume-normalized lower bound on the Cheeger constant."""
    result = brute_force_cheeger(grid, f, kernel)
    volume = float(np.sum(kernel.m))
    bound = volume ** (-constants.s / constants.n) / (2.0 * constants.sobolev)
    return FaberKrahnReport(
        h=result.h,
        bound=bound,
        slack=result.h / bound - 1.0,
        passed=bool(result.h >= bound * (1.0 - tol_rel)),
        tol_rel=tol_rel,
    )


@dataclass(frozen=True)
class EnergyLimitReport:
    gaps: Tuple[float, ...]  # |E_p(u) - E_1(u)| per scheduled p
    rel_gaps: Tuple[float, ...]
    reference: float  # E_1(u) = [u]_{W^{s,1}} / 2
    monotone: bool
    final_rel_gap: float
    passed: bool  # monotone and final relative gap <= 1e-3


def energy_limit_probe(
    grid: Grid, u, s: float, schedule: Sequence[float]
) -> EnergyLimitReport:
    """Convergence of the kinetic energy to its p = 1 value on a fixed field."""
    n = grid.n
    vals = np.asarray(u, dtype=float)
    kern_1 = build_kernel(grid, n + s)
    e_1 = 0.5 * seminorm_power(vals, kern_1, 1.0)
    gaps = []
    rel_gaps = []
    for p in sorted(schedule, reverse=True):
        kern_p = build_kernel(grid, kernel_exponent(n, s, p))
        e_p = seminorm_power(vals, kern_p, p) / (2.0 * p)
        gap = abs(e_p - e_1)
        gaps.append(gap)
        rel_gaps.append(gap / e_1 if e_1 > 0 else 0.0)
    arr = np.asarray(rel_gaps)
    monotone = bool(np.all(np.diff(arr) <= 1e-15)) if arr.size > 1 else True
    final = float(arr[-1]) if arr.size else 0.0
    return EnergyLimitReport(
        gaps=tuple(gaps),
        rel_gaps=tuple(rel_gaps),
        reference=e_1,
        monotone=monotone,
        final_rel_gap=final,
        passed=bool(monotone and final <= 1e-3),
    )


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def csv_text(records: Sequence[SweepRecord]) -> str:
    """Byte-stable CSV: shortest round-trip float formatting, LF endings."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(
            ",".join(
                [
                    repr(rec.p),
                    repr(rec.s_p),
                    repr(rec.l1),
                    repr(rec.seminorm_p),
                    repr(rec.seminorm_p_pow),
                    repr(rec.seminorm_s1),
                    repr(rec.energy),
                    str(rec.iters),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(records: Sequence[SweepRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(records))


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def gnuplot_script(csv_path: str, title: str = "p-sweep") -> str:
    """Companion plot script; the CSV stays the interchange format."""
    return "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set title '%s'" % title,
            "set xlabel 'p'",
            "set logscale y",
            "plot '%s' using 1:3 with linespoints, \\" % csv_path,
            "     '%s' using 1:4 with linespoints, \\" % csv_path,
            "     '%s' using 1:5 with linespoints" % csv_path,
            "",
        ]
    )
