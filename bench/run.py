"""fraclap benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep-1d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` (as the tier-1 tests do), never from an installed copy. Every round
of the workload runs in a fresh interpreter (bench/worker.py). With
``--trace 0`` the run starts
rounds while the next one is expected to end within ``--seconds``, give or
take half a round (always at least one), and reports the end-to-end
metrics in scaled CPU seconds (bench/speed.py). With ``--trace 1`` it runs
one untraced round and one round with spans around every public fraclap
call, and reports the per-layer metrics; the spans go to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
# Each workload runs at most NPROC = 2 threads: sweep-1d's pool runs two
# sweeps on one BLAS thread each, and solve-2d gives its Cholesky
# factorizations both. The thread count is fixed because the solver's
# iteration counts depend on the rounding of the factorization.
BLAS_THREADS = {"sweep-1d": 1, "solve-2d": 2, "cheeger-certify": 1}
# An idle OpenBLAS thread spins for about 2^28 cycles before it sleeps, and
# that spinning counts as CPU time. 2^4 cycles makes it sleep at once; it
# changes no result, since the work is split among threads the same way.
BLAS_TIMEOUT = "4"
END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("solve_s", "s"),
    ("cheeger_s", "s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
)
# CPU time of the import, then three probes in the same interpreter
_IMPORT_CODE = (
    "import sys, time; t = time.process_time(); import fraclap.cli; "
    "t = time.process_time() - t; sys.path.insert(0, %r); import speed; "
    "probe = speed.Probe(); "
    "print(repr(t), *(repr(probe.seconds(time.process_time)) for _ in range(3)))"
)


def _fail(message):
    print("bench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_seconds():
    """Scaled CPU time to import fraclap.cli in a fresh interpreter (the
    import's CPU time over the median of three probes run after it in the
    same interpreter, times the probe's reference time), median of runs."""
    import speed  # only now: it loads numpy, after the BLAS settings

    times = []
    code = _IMPORT_CODE % os.path.dirname(os.path.abspath(__file__))
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            _fail("importing fraclap.cli failed:\n" + proc.stderr)
        seconds, *probes = map(float, proc.stdout.strip().splitlines()[-1].split())
        times.append(seconds * speed.PROBE_REF_S / statistics.median(probes))
    return statistics.median(times)


def run_worker(args, workdir, trace, deadline):
    """One round in a fresh interpreter; returns its JSON report."""
    cache = os.path.join(os.path.dirname(workdir), "oracles.json")
    os.makedirs(workdir)
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--workdir", workdir, "--oracles", cache]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        _fail("a %s round did not end within the run's time limit" % args.workload)
    if proc.returncode != 0:
        _fail("a %s round exited %d:\n%s" % (args.workload, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_operation(rounds, kind, problems):
    """Scaled CPU seconds per operation of a kind: the median over the run of each
    distinct operation (by label), averaged over the distinct operations.
    A plain median over unlike operations would jump between them."""
    by_label = {}
    for rnd in rounds:
        for op_kind, seconds, label, failed in rnd["ops"]:
            if op_kind == kind and not failed:
                by_label.setdefault(label, []).append(seconds)
    if not by_label:
        problems.append("no %s operation succeeded" % kind)
        return 0.0
    return statistics.fmean(statistics.median(v) for v in by_label.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.workload not in BLAS_THREADS:
        _fail("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(BLAS_THREADS)))
    if not os.path.isfile(os.path.join(SRC, "fraclap", "__init__.py")):
        _fail("no fraclap sources under %s; run from the repository root" % SRC)
    # set before numpy loads in any of the interpreters started below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS[args.workload])
    os.environ["OPENBLAS_THREAD_TIMEOUT"] = BLAS_TIMEOUT
    os.environ["PYTHONPATH"] = SRC

    setup_s = import_seconds()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT)
    rounds = []
    try:
        if args.trace:
            for trace in (0, 1):
                rounds.append(run_worker(args, os.path.join(workdir, "r%d" % trace),
                                         trace, deadline))
        else:
            # the first round also computes the oracles; that time counts
            # neither towards --seconds nor in the next round's expected time
            start, oracle_s = time.perf_counter(), 0.0
            while True:
                began = time.perf_counter()
                rounds.append(run_worker(args, os.path.join(workdir, "r%d" % len(rounds)),
                                         0, deadline))
                oracle_s += rounds[-1]["oracle_s"]
                took = time.perf_counter() - began - rounds[-1]["oracle_s"]
                # another round if it should end by --seconds, give or take
                # half a round, so that the round count does not jump
                if time.perf_counter() - start - oracle_s + took / 2 > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for rnd in rounds for p in rnd["problems"]]
    if args.trace:
        metrics = dict(rounds[1]["layers"])
        metrics["trace.overhead_s"] = rounds[1]["cpu"] - rounds[0]["cpu"]
        import tracing  # only now: it loads numpy, after the BLAS settings

        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {
            "setup_s": setup_s,
            "cpu_s": statistics.median(rnd["scaled"] for rnd in rounds),
            "solve_s": per_operation(rounds, "solve", problems),
            "cheeger_s": per_operation(rounds, "cheeger", problems),
            "certify_s": per_operation(rounds, "certify", problems),
            "peak_rss_mb": statistics.median(rnd["peak_rss_mb"] for rnd in rounds),
        }
        units = dict(END_TO_END)
    attempted = sum(len(rnd["ops"]) for rnd in rounds)
    failed = sum(op[3] for rnd in rounds for op in rnd["ops"])
    print("# " + rounds[0]["provenance"])
    for msg in sorted({m for rnd in rounds for m in rnd["failures"]}):
        print("# failed operation: " + msg)
    for msg in problems:
        print("# wrong output: " + msg)
    print("# rounds %d, operations attempted %d, failed %d, median round wall %.3f s, "
          "raw CPU %.3f s" % (len(rounds), attempted, failed,
                              statistics.median(r["wall"] for r in rounds),
                              statistics.median(r["cpu"] for r in rounds)))
    probes = [t for rnd in rounds for t in rnd["probes"]]
    if probes:
        import speed
        print("# %d probes, median %.5f s (reference %.5f s)"
              % (len(probes), statistics.median(probes), speed.PROBE_REF_S))
    for name, value in metrics.items():
        print("%-34s %16.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
