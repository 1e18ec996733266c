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
from fraclap.energy import LoadField, load_from_array, seminorm_power
from fraclap.geometry import brute_force_cheeger
from fraclap.solver import SolveConfig, SolverError, solve_p

CONFIG_VERSION = 1
DEFAULT_SCHEDULE = (1.3, 1.2, 1.1, 1.05, 1.02)
_LOAD_KINDS = ("constant", "indicator", "bump")
_CLASSIFY_MARGIN = 0.1  # h_ref must clear 1 by this much for a norm verdict
_FABER_KRAHN_TOL_REL = 0.05  # h may sit this far below the bound and pass


class SweepRecord(NamedTuple):
    p: float
    s_p: float
    l1: float
    seminorm_p: float
    seminorm_p_pow: float  # [u]^(p-1)
    seminorm_s1: float
    energy: float
    iters: int


CSV_COLUMNS = SweepRecord._fields


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
    maxit: int = SolveConfig.maxit
    label: str = "run"

    def __post_init__(self):
        if self.load not in _LOAD_KINDS:
            raise ValueError("load must be one of %s" % (_LOAD_KINDS,))
        if self.load == "indicator" and len(self.load_params) != 2 * self.domain.n:
            raise ValueError(
                "indicator load needs %d corner coordinates" % (2 * self.domain.n)
            )
        if not self.schedule:
            raise ValueError("empty p schedule")
        for p in self.schedule:
            self.solve_config(p).validate_for(self.domain.n)

    def solve_config(self, p: float) -> SolveConfig:
        """Solver settings of this run at exponent p."""
        return SolveConfig(p=p, s=self.s, eps_g=self.eps_g, maxit=self.maxit)


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


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("config_version", "n", "shape", "params", "h", "s")


def _floats(value: str) -> Tuple[float, ...]:
    return tuple(float(v) for v in value.split())


# optional keys are RunConfig fields: each present key passes through its
# converter, an absent one keeps RunConfig's default
_OPTIONAL_KEYS = {
    "label": str,
    "load": str,
    "load_scale": float,
    "load_params": _floats,
    "schedule": _floats,
    "eps_g": float,
    "maxit": int,
}
_ALL_KEYS = _REQUIRED_KEYS + tuple(_OPTIONAL_KEYS)


def parse_config(text: str) -> RunConfig:
    """Parse the flat `key = value` run-config format (version 1)."""
    seen: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("line %d: expected 'key = value'" % lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ValueError("unknown key '%s'" % key)
        if key in seen:
            raise ValueError("duplicate key '%s'" % key)
        seen[key] = value.strip()
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ValueError("missing key '%s'" % key)
    if int(seen["config_version"]) != CONFIG_VERSION:
        raise ValueError("unsupported config_version %s" % seen["config_version"])

    spec = DomainSpec(
        int(seen["n"]), seen["shape"], _floats(seen["params"]), float(seen["h"])
    )
    s = float(seen["s"])
    options = {
        key: convert(seen[key])
        for key, convert in _OPTIONAL_KEYS.items()
        if key in seen
    }
    return RunConfig(domain=spec, s=s, **options)


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
    return load_from_array(values)


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
    kern_1 = build_kernel(grid, kernel_exponent(n, cfg.s, 1.0))
    f = make_load(grid, cfg)

    records: List[SweepRecord] = []
    statuses: List[str] = []
    aborted = False
    failure = None
    u_prev = None
    for p in sorted(cfg.schedule, reverse=True):
        scfg = cfg.solve_config(p)
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


def classify(table, h_ref: float) -> RegimeVerdict:
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
    elif l1_ratio <= 0.1 and h_ref > 1.0 + _CLASSIFY_MARGIN:
        cls = "vanishing"
    elif semi_ratio >= 10.0 and h_ref < 1.0 - _CLASSIFY_MARGIN:
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


def faber_krahn_probe(
    grid: Grid, f: LoadField, kernel: KernelSet, constants
) -> FaberKrahnReport:
    """Check the volume-normalized lower bound on the Cheeger constant."""
    result = brute_force_cheeger(grid, f, kernel)
    volume = float(np.sum(kernel.m))
    bound = volume ** (-constants.s / constants.n) / (2.0 * constants.sobolev)
    return FaberKrahnReport(
        h=result.h,
        bound=bound,
        slack=result.h / bound - 1.0,
        passed=bool(result.h >= bound * (1.0 - _FABER_KRAHN_TOL_REL)),
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
    """Convergence of the kinetic energy to its p = 1 value on a fixed field.

    Every scheduled p must exceed 1: a p = 1 entry has a zero gap and
    would pass the probe vacuously, as would an empty schedule.
    """
    if not schedule or not all(p > 1.0 for p in schedule):  # NaN fails too
        raise ValueError("energy-limit schedule needs p > 1 in every entry")
    n = grid.n
    vals = np.asarray(u, dtype=float)
    kern_1 = build_kernel(grid, kernel_exponent(n, s, 1.0))
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
    lines += [",".join(map(repr, rec)) for rec in records]
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
