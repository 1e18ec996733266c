"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``prepare`` (outside every
timed interval), runs one round of operations in ``run_round``, and checks
that round in ``check``. The min-cut oracles are computed by the first
round of a run and read back by the later ones (``oracles.Cache``). Only
the small ones that set certificate loads are computed in ``prepare``; the
others are computed in ``check``, after the timed work, so that the first
round's allocations before and during its timed work match the later
rounds'. A round's
CPU and wall times are sums over its timed segments, so checks done between
segments (such as the kernel structure checks) never count. Every round
attempts the same operations, so the share of failed operations does not depend on the seed
or on how many rounds fit into a run.

Operation kinds: "solve" (one p-solve), "cheeger" (one Cheeger search),
"certify" (one certificate, build plus verify) and "kernel" (one kernel
assembly). The end-to-end metrics solve_s, cheeger_s and certify_s come
from the operations of that kind (see ``run.per_operation``).

Every time reported is scaled CPU time (speed.py): CPU time divided by
the time of a fixed probe run beside it, times the probe's reference time.
Each workload names its ``CLOCK``: the calling thread's CPU time in
sweep-1d, whose pool threads compute at once, and process CPU time (all
threads, BLAS threads too) elsewhere. ``TICKS`` says whether an interval
timer cuts long main-thread stretches into short slices; sweep-1d has none,
since a probe in its main thread would compete with the two pool threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import List

import numpy as np

import fraclap.certify as certify
import fraclap.cli as cli
import fraclap.domain_grid as domain_grid
import fraclap.energy as energy
import fraclap.experiments as experiments
import fraclap.geometry as geometry
import fraclap.solver as solver

import oracles

S = 0.5  # fractional order of every instance
SWEEP_THREADS = 2
CERT_EPS = 1e-8  # certify's default feasibility tolerance, relative to scale
CERT_FACTORS = (0.8, 1.1)  # constant load lambda = factor * h


@dataclass
class Op:
    kind: str
    seconds: float  # scaled CPU seconds (see speed.py)
    label: str
    failed: bool = False


class Round:
    """Timed segments and operations of one round. ``cpu`` and ``scaled``
    sum the raw and the scaled CPU seconds of the segments, as measured by
    ``meter`` (see speed.py); ``wall`` sums their wall time."""

    def __init__(self, meter):
        self.meter = meter
        self.wall = self.cpu = self.scaled = 0.0
        self.ops: List[Op] = []
        self.problems: List[str] = []  # wrong outputs
        self.failures: List[str] = []  # failed operations

    def add(self, raw, scaled):
        self.cpu += raw
        self.scaled += scaled

    def segment(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result, raw, scaled = self.meter.call(fn, *args, **kwargs)
        finally:
            self.wall += time.perf_counter() - start
        self.add(raw, scaled)
        return result

    def op(self, kind, label, fn, *args, batch=1, **kwargs):
        """Time fn as one segment and one operation; an exception fails it.
        With batch > 1, fn runs that many times back to back in one timed
        stretch, counted as that many operations of the mean time: an
        operation of a few milliseconds then runs with warm caches and
        outweighs the probes around it."""
        failed = []

        def guarded():
            result = None
            for _ in range(batch):
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:  # an operation that raises is a failed one
                    failed.append(err)
            return result

        start = time.perf_counter()
        result, raw, scaled = self.meter.call(guarded)
        self.wall += time.perf_counter() - start
        self.add(raw, scaled)
        for err in failed:
            self.failures.append("%s raised %s: %s" % (label, type(err).__name__, err))
        self.ops += [Op(kind, scaled / batch, label, i < len(failed)) for i in range(batch)]
        return result

    def fail(self, label, why):
        for op in self.ops:
            if op.label == label:
                op.failed = True
        self.failures.append("%s: %s" % (label, why))


class Hook:
    """Records the calls of ``module.attr`` (args, result, raw and scaled
    CPU seconds by ``meter``) while active; used to time the solves and
    certificates that run inside a CLI command. It wraps whatever is bound,
    so it nests inside the tracer."""

    def __init__(self, module, attr, meter):
        self.module, self.attr, self.meter = module, attr, meter
        self.calls = []

    def __enter__(self):
        self.orig = orig = getattr(self.module, self.attr)

        def recorded(*args, **kwargs):
            result, raw, scaled = self.meter.call(orig, *args, **kwargs)
            self.calls.append((args, kwargs, result, raw, scaled))
            return result

        setattr(self.module, self.attr, recorded)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.orig)


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_config(path, **keys):
    lines = ["config_version = 1"] + ["%s = %s" % kv for kv in keys.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _interval(length, h=1.0):
    return domain_grid.build_grid(
        domain_grid.DomainSpec(1, "interval", (0.0, float(length)), h)
    )


def _constant_load(grid, value):
    return energy.load_from_array(np.full(grid.ncells, float(value)))


def _build_and_verify(u, f, kern):
    cert = certify.build_certificate(u, f, kern)
    return cert, certify.verify_certificate(u, cert, f, kern)


def _read_field_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    col = header.index("value")
    vals = np.empty(len(rows))
    for row in rows:
        vals[int(row[0])] = float(row[col])
    return vals


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------


def solution_problems(tag, u, kern, fm, p, total, load, grad_norm, history=None):
    """Energy, weak identity, gradient norm and monotone history of one solve,
    against the benchmark's own formulas on the field."""
    probs = []
    e_own, load_own = oracles.energy(u, kern.w, kern.t, fm, p)
    scale = max(abs(load_own), abs(e_own))
    if not abs(total + (1.0 - 1.0 / p) * load) <= 1e-9 * abs(load):
        probs.append("%s: energy %r != -(1-1/p) load %r" % (tag, total, load))
    if not abs(e_own - total) <= 1e-9 * scale:
        probs.append("%s: reported energy %r, recomputed %r" % (tag, total, e_own))
    if not abs(load_own - load) <= 1e-9 * scale:
        probs.append("%s: reported load %r, recomputed %r" % (tag, load, load_own))
    g, size = oracles.gradient(u, kern.w, kern.t, fm, p)
    if not abs(float(np.max(np.abs(g))) - grad_norm) <= 1e-9 * size:
        probs.append("%s: reported grad_norm %r, recomputed %r"
                     % (tag, grad_norm, float(np.max(np.abs(g)))))
    if history is not None and np.any(np.diff(history) > 0):
        probs.append("%s: energy history not monotone" % tag)
    return probs


def sign_field_problems(tag, u, z, zbar, kern, fm, max_residual, feasible, verified):
    """Own balance check of a sign field and consistency of the report."""
    probs = []
    scale = max(float(np.max(np.abs(fm))), float(np.max(kern.t)))
    r = (kern.w * z).sum(axis=1) + kern.t * zbar - fm
    own = float(np.max(np.abs(r)))
    if not abs(own - max_residual) <= 1e-12 * scale:
        probs.append("%s: reported residual %r, recomputed %r" % (tag, max_residual, own))
    if feasible != (max_residual <= CERT_EPS * scale):
        probs.append("%s: feasible flag disagrees with the residual" % tag)
    if feasible:
        du = u[:, None] - u[None, :]
        det = du != 0.0
        if not verified:
            probs.append("%s: feasible certificate fails verify_certificate" % tag)
        if (np.max(np.abs(z)) > 1.0 or np.max(np.abs(zbar)) > 1.0
                or np.max(np.abs(z + z.T)) > 0.0
                or np.any(z[det] != np.sign(du[det]))
                or np.any(zbar[u != 0] != np.sign(u[u != 0]))):
            probs.append("%s: feasible certificate breaks box, antisymmetry or signs" % tag)
    elif verified:
        probs.append("%s: infeasible certificate passed verify_certificate" % tag)
    return probs


def kernel_problems(tag, kern):
    w, t = kern.w, kern.t
    probs = []
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(t))):
        probs.append("%s: non-finite weights" % tag)
    if not np.array_equal(w, w.T):
        probs.append("%s: w not symmetric" % tag)
    if np.any(np.diag(w) != 0.0):
        probs.append("%s: w has a nonzero diagonal" % tag)
    if not np.all(t > 0.0):
        probs.append("%s: t not strictly positive" % tag)
    return probs


def cheeger_problems(tag, res, kern, fm, h_cut, exact):
    """A search result against the min-cut constant: equal when the search
    is exact, never below it; h must be the ratio of the witness."""
    probs = []
    ratio = oracles.set_ratio(res.witness, kern.w, kern.t, fm)
    if not abs(ratio - res.h) <= 1e-12 * ratio:
        probs.append("%s: h %r is not its witness ratio %r" % (tag, res.h, ratio))
    if exact and not abs(res.h - h_cut) <= 1e-9 * h_cut:
        probs.append("%s: h %r != min-cut h %r" % (tag, res.h, h_cut))
    if res.h < h_cut * (1.0 - 1e-12):
        probs.append("%s: h %r below the min-cut h %r" % (tag, res.h, h_cut))
    return probs


class Certificate:
    """A zero-field certificate instance: interval, kernel, load factor * h."""

    def __init__(self, cells, factor, cache):
        self.label = "cert%d-%.1fh" % (cells, factor)
        self.grid = _interval(cells)
        self.kern = domain_grid.build_kernel(self.grid, 1.0 + S)
        self.h_cut = cache.cheeger("interval%d" % cells, self.kern.w, self.kern.t,
                                   self.kern.m)
        self.factor = factor
        self.f = _constant_load(self.grid, factor * self.h_cut)
        self.fm = self.f.values * self.kern.m
        self.u = np.zeros(cells)

    def run(self, rnd, batch=1):
        return rnd.op("certify", self.label, _build_and_verify, self.u, self.f, self.kern,
                      batch=batch)

    def check(self, rnd, result):
        if result is None:
            return
        cert, rep = result
        rnd.problems += sign_field_problems(
            self.label, self.u, cert.z, cert.zbar, self.kern, self.fm,
            cert.max_residual, cert.feasible, rep.passed,
        )
        if self.factor < 1.0 and not cert.feasible:
            # max-flow duality: a sign field exists whenever lambda <= h
            rnd.fail(self.label, "no certificate found below the Cheeger constant "
                     "(residual %.3g after %d iterations)" % (cert.max_residual, cert.iterations))
        if self.factor > 1.0 and cert.feasible:
            rnd.problems.append("%s: certificate reported above the Cheeger constant"
                                % self.label)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Sweep1D:
    """fraclap sweep --threads 2 over van16 and blow64 (256 cells each),
    then the threshold Cheeger search on each sweep's final field and one
    small zero-field certificate."""

    CLOCK, TICKS = time.thread_time, False
    CONFIGS = (("van16", 16.0, 0.125), ("blow64", 64.0, 0.5))
    # the millisecond Cheeger and certificate operations run in batches
    BATCHES, BATCH = 5, 5

    def __init__(self, seed, workdir, cache):
        self.seed, self.workdir, self.cache = seed, workdir, cache

    def prepare(self):
        self.cases = {}
        for label, radius, h in self.CONFIGS:
            path = os.path.join(self.workdir, label + ".cfg")
            _write_config(path, label=label, n=1, shape="interval",
                          params="%r %r" % (-radius, radius), h=repr(h), s=repr(S))
            grid = domain_grid.build_grid(
                domain_grid.DomainSpec(1, "interval", (-radius, radius), h))
            kern_1 = domain_grid.build_kernel(grid, 1.0 + S)
            self.cases[label] = dict(
                path=path, radius=radius, h=h, kern_1=kern_1,
                f=_constant_load(grid, 1.0),
                closed_form=oracles.ball_cheeger_1d(S, radius),
            )
        self.cert = Certificate(16, CERT_FACTORS[0], self.cache)

    def run_round(self, rnd):
        out = os.path.join(self.workdir, "out")
        argv = ["sweep", "--threads", str(SWEEP_THREADS), "--out", out]
        for label, _, _ in self.CONFIGS:
            argv += ["--config", self.cases[label]["path"]]
        # each solve runs in one pool thread, with one BLAS thread; the
        # segment measures the main thread, the hook each solve's thread
        with Hook(experiments, "solve_p", rnd.meter) as solves:
            rc = rnd.segment(_quiet_cli, argv)
        config = {case["h"]: label for label, case in self.cases.items()}
        for args, kwargs, sol, raw, scaled in solves.calls:
            rnd.ops.append(Op("solve", scaled, "%s p=%r" % (config[args[1].h], args[3].p)))
            rnd.add(raw, scaled)
        missing = 2 * len(experiments.DEFAULT_SCHEDULE) - len(solves.calls)
        for _ in range(max(missing, 0)):
            rnd.ops.append(Op("solve", 0.0, "missing solve", failed=True))
        thresholds = {}
        for label, case in self.cases.items():
            final = [c for c in solves.calls if c[0][1].h == case["h"]]
            if final:
                u = min(final, key=lambda c: c[0][3].p)[2].u
                for _ in range(self.BATCHES):
                    thresholds[label] = rnd.op(
                        "cheeger", "threshold-" + label, geometry.threshold_cheeger,
                        u, case["f"], case["kern_1"], batch=self.BATCH)
        for _ in range(self.BATCHES):
            cert = self.cert.run(rnd, batch=self.BATCH)
        return dict(rc=rc, out=out, solves=solves.calls, thresholds=thresholds, cert=cert)

    def check(self, rnd, data):
        probs = rnd.problems
        if data["rc"] != 0:
            probs.append("sweep exited %r" % data["rc"])
        for label, case in self.cases.items():
            calls = sorted((c for c in data["solves"] if c[0][1].h == case["h"]),
                           key=lambda c: -c[0][3].p)
            try:
                with open(os.path.join(data["out"], label + ".json")) as fh:
                    report = json.load(fh)
                with open(os.path.join(data["out"], label + ".csv")) as fh:
                    rows = [line.strip().split(",") for line in fh][1:]
            except OSError as err:
                probs.append("%s: missing output %s" % (label, err))
                continue
            want = "vanishing" if case["closed_form"] > 1.0 else "blow-up"
            if report.get("classification") != want:
                probs.append("%s: verdict %r, closed-form h %.6g says %s"
                             % (label, report.get("classification"), case["closed_form"], want))
            if len(rows) != len(calls):
                probs.append("%s: %d CSV rows for %d solves" % (label, len(rows), len(calls)))
                continue
            for row, (args, _, sol, _, _) in zip(rows, calls):
                kern, f, p = args[1], args[2], args[3].p
                if float(row[0]) != p:
                    probs.append("%s: CSV row p %s != solve p %r" % (label, row[0], p))
                tag = "%s p=%r" % (label, p)
                probs += solution_problems(
                    tag, sol.u, kern, f.values * kern.m, p, float(row[6]),
                    sol.breakdown.load, sol.grad_norm, sol.energy_history)
                if sol.breakdown.total != float(row[6]):
                    probs.append("%s: CSV energy differs from the solve" % tag)
            res = data["thresholds"].get(label)
            if res is not None:
                kern_1 = case["kern_1"]
                h_cut = self.cache.cheeger(label, kern_1.w, kern_1.t, kern_1.m)
                probs += cheeger_problems("threshold-" + label, res, kern_1,
                                          case["f"].values * kern_1.m, h_cut, False)
        self.cert.check(rnd, data["cert"])


class Solve2D:
    """fraclap solve --p 1.1 on the 32 x 32 box (1024 cells), then
    fraclap certify on the written field, more certificates of it, and the
    threshold Cheeger search on it."""

    CLOCK, TICKS = time.process_time, True
    P = 1.1
    SEARCHES = 10
    CERTIFICATES = 10  # the first through fraclap certify, the others direct

    def __init__(self, seed, workdir, cache):
        self.seed, self.workdir, self.cache = seed, workdir, cache

    def prepare(self):
        self.cfg = os.path.join(self.workdir, "box.cfg")
        _write_config(self.cfg, label="box", n=2, shape="box", params="0 0 32 32",
                      h="1", s=repr(S), schedule=repr(self.P))
        self.grid = domain_grid.build_grid(
            domain_grid.DomainSpec(2, "box", (0.0, 0.0, 32.0, 32.0), 1.0))
        self.kern_1 = domain_grid.build_kernel(self.grid, 2.0 + S)
        self.f = _constant_load(self.grid, 1.0)
        self.fm_1 = self.f.values * self.kern_1.m

    def run_round(self, rnd):
        out = os.path.join(self.workdir, "out")
        with Hook(cli, "solve_p", rnd.meter) as solves:
            rc = rnd.segment(_quiet_cli, ["solve", "--config", self.cfg,
                                          "--p", repr(self.P), "--out", out])
        for _, _, _, _, scaled in solves.calls:
            rnd.ops.append(Op("solve", scaled, "solve-box"))
        if not solves.calls:
            rnd.ops.append(Op("solve", 0.0, "solve-box", failed=True))
        field_csv = os.path.join(out, "box_field.csv")
        with Hook(cli, "build_certificate", rnd.meter) as builds, \
                Hook(cli, "verify_certificate", rnd.meter) as verifies:
            rc_cert = rnd.segment(_quiet_cli, ["certify", "--config", self.cfg,
                                               "--field", field_csv, "--out", out])
        cert_s = sum(c[4] for c in builds.calls + verifies.calls)
        rnd.ops.append(Op("certify", cert_s, "certify-box", failed=not verifies.calls))
        u = _read_field_csv(field_csv) if os.path.exists(field_csv) else None
        res = cert = None
        if u is not None:
            for _ in range(self.CERTIFICATES - 1):
                cert = rnd.op("certify", "certify-box", _build_and_verify, u, self.f,
                              self.kern_1)
            for _ in range(self.SEARCHES):
                res = rnd.op("cheeger", "threshold-box", geometry.threshold_cheeger,
                             u, self.f, self.kern_1)
        return dict(rc=rc, rc_cert=rc_cert, out=out, solves=solves.calls, u=u,
                    cert=cert, threshold=res)

    def check(self, rnd, data):
        probs = rnd.problems
        if data["rc"] != 0 or data["rc_cert"] != 0:
            probs.append("solve/certify exited %r/%r" % (data["rc"], data["rc_cert"]))
            return
        u = data["u"]
        args, _, sol, _, _ = data["solves"][0]
        kern = args[1]
        with open(os.path.join(data["out"], "box_solution.json")) as fh:
            report = json.load(fh)
        probs += solution_problems(
            "box", u, kern, self.f.values * kern.m, self.P, report["energy"]["total"],
            report["energy"]["load"], report["grad_norm"], sol.energy_history)
        lat = self.grid.lattice
        field2d = np.zeros((32, 32))
        field2d[lat[:, 0], lat[:, 1]] = u
        top = float(np.max(np.abs(field2d)))
        for name, image in (("x-reflection", field2d[::-1, :]),
                            ("y-reflection", field2d[:, ::-1]),
                            ("transpose", field2d.T)):
            if float(np.max(np.abs(field2d - image))) > 1e-9 * top:
                probs.append("box field not invariant under %s" % name)
        if np.any(u < 0):
            probs.append("box field has negative cells")
        with open(os.path.join(data["out"], "box_certificate.json")) as fh:
            cert = json.load(fh)
        nn = u.size
        z = np.zeros((nn, nn))
        zbar = np.zeros(nn)
        with open(os.path.join(data["out"], "box_signfield.csv")) as fh:
            next(fh)
            for line in fh:
                i, j, val = line.strip().split(",")
                i, j, val = int(i), int(j), float(val)
                if j < 0:
                    zbar[i] = val
                else:
                    z[i, j], z[j, i] = val, -val
        probs += sign_field_problems(
            "certify-box", u, z, zbar, self.kern_1, self.fm_1, cert["max_residual"],
            cert["feasible"], cert["verified"])
        if data["cert"] is not None:
            sign, rep = data["cert"]
            probs += sign_field_problems(
                "certify-box", u, sign.z, sign.zbar, self.kern_1, self.fm_1,
                sign.max_residual, sign.feasible, rep.passed)
        if data["threshold"] is not None:
            h_cut = self.cache.cheeger("box32", self.kern_1.w, self.kern_1.t, self.fm_1)
            probs += cheeger_problems("threshold-box", data["threshold"], self.kern_1,
                                      self.fm_1, h_cut, False)


class CheegerCertify:
    """Kernel assembly on a 48 x 48 box, brute-force and threshold Cheeger
    searches, zero-field certificates on 16, 32 and 64 cells at 0.8 h and
    1.1 h, and one small subcritical p-solve."""

    CLOCK, TICKS = time.process_time, True
    KERNEL_EXPONENTS = (2.5, 2.75)
    UNION_CELLS = (18, 19, 20)
    CERT_CELLS = (16, 32, 64)
    SOLVE_P = 1.1
    SOLVES = 15  # repeats of the 0.1 s solve, whose time varies a lot alone
    # back-to-back repeats of the shorter searches and certificates, so
    # that each instance takes about half a second or more per round
    BRUTE_REPEATS = 3
    CERT_REPEATS = {16: 5, 32: 2, 64: 1}

    def __init__(self, seed, workdir, cache):
        self.seed, self.workdir, self.cache = seed, workdir, cache

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        self.grid48 = domain_grid.build_grid(
            domain_grid.DomainSpec(2, "box", (0.0, 0.0, 48.0, 48.0), 1.0))
        self.unions = []
        for nc in self.UNION_CELLS:
            cells = np.sort(rng.choice(2 * nc, size=nc, replace=False))
            boxes = tuple((float(c), float(c + 1)) for c in cells)
            grid = domain_grid.build_grid(domain_grid.DomainSpec(1, "union", boxes, 1.0))
            kern = domain_grid.build_kernel(grid, 1.0 + S)
            f = energy.load_from_array(rng.uniform(0.5, 1.5, nc))
            fm = f.values * kern.m
            self.unions.append(dict(label="brute-%d" % nc, grid=grid, kern=kern,
                                    f=f, fm=fm))
        box = domain_grid.build_grid(
            domain_grid.DomainSpec(2, "box", (0.0, 0.0, 32.0, 32.0), 1.0))
        self.box_kern = domain_grid.build_kernel(box, 2.0 + S)
        self.box_f = _constant_load(box, 1.0)
        self.box_fm = self.box_f.values * self.box_kern.m
        self.box_hat = experiments.hat_field(box)
        self.certs = [Certificate(cells, factor, self.cache)
                      for cells in self.CERT_CELLS for factor in CERT_FACTORS]
        # the subcritical solve whose p -> 1 limit the 64-cell certificate covers
        sub = self.certs[-2]
        self.solve_grid = sub.grid
        self.solve_kern = domain_grid.build_kernel(
            sub.grid, domain_grid.kernel_exponent(1, S, self.SOLVE_P))
        self.solve_f = sub.f
        self.solve_cfg = solver.SolveConfig(p=self.SOLVE_P, s=S)

    def run_round(self, rnd):
        for alpha in self.KERNEL_EXPONENTS:
            kern = rnd.op("kernel", "kernel-48x48-%g" % alpha,
                          domain_grid.build_kernel, self.grid48, alpha)
            if kern is not None:
                rnd.problems += kernel_problems("kernel-48x48-%g" % alpha, kern)
            del kern
        brute = []
        for u in self.unions:
            for _ in range(self.BRUTE_REPEATS):
                res = rnd.op("cheeger", u["label"], geometry.brute_force_cheeger,
                             u["grid"], u["f"], u["kern"])
            brute.append(res)
        thr = rnd.op("cheeger", "threshold-hat", geometry.threshold_cheeger,
                     self.box_hat, self.box_f, self.box_kern)
        certs = []
        for cert in self.certs:
            for _ in range(self.CERT_REPEATS[cert.grid.ncells]):
                res = cert.run(rnd)
            certs.append(res)
        for _ in range(self.SOLVES):
            sol = rnd.op("solve", "solve-64", solver.solve_p, self.solve_grid,
                         self.solve_kern, self.solve_f, self.solve_cfg)
        return dict(brute=brute, thr=thr, certs=certs, sol=sol)

    def check(self, rnd, data):
        probs = rnd.problems
        for u, res in zip(self.unions, data["brute"]):
            if res is not None:
                h_cut = self.cache.cheeger(u["label"], u["kern"].w, u["kern"].t, u["fm"])
                probs += cheeger_problems(u["label"], res, u["kern"], u["fm"], h_cut, True)
        if data["thr"] is not None:
            h_cut = self.cache.cheeger("box32", self.box_kern.w, self.box_kern.t,
                                       self.box_fm)
            probs += cheeger_problems("threshold-hat", data["thr"], self.box_kern,
                                      self.box_fm, h_cut, False)
        for cert, result in zip(self.certs, data["certs"]):
            cert.check(rnd, result)
        sol = data["sol"]
        if sol is not None:
            kern = self.solve_kern
            probs += solution_problems(
                "solve-64", sol.u, kern, self.solve_f.values * kern.m, self.SOLVE_P,
                sol.breakdown.total, sol.breakdown.load, sol.grad_norm,
                sol.energy_history)


WORKLOADS = {
    "sweep-1d": Sweep1D,
    "solve-2d": Solve2D,
    "cheeger-certify": CheegerCertify,
}
