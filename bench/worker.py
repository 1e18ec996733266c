"""One round of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --workdir DIR \
        --oracles FILE

Prints one JSON line: the round's wall, raw CPU and scaled CPU time
(speed.py), its probe times, its operations, wrong outputs, failed operations, peak RSS and, when traced, the per-layer
metrics. A fresh process per round starts as cold as a fresh ``fraclap``
command: fraclap keeps pair integrals in in-process caches, so a second
round in the same process would assemble its kernels warm.
"""

import argparse
import json
import os
import resource
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def provenance():
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        commit = head[:12]
    except OSError:
        pass
    return ("python %s, numpy %s, scipy %s, OpenBLAS %s, nproc %d, BLAS threads %s, "
            "commit %s" % (sys.version.split()[0], numpy.__version__, scipy.__version__,
                           blas, os.cpu_count() or 0,
                           os.environ.get("OPENBLAS_NUM_THREADS", "default"), commit))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--oracles", required=True, help="the run's oracle cache file")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import fraclap

    if not os.path.abspath(fraclap.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported fraclap from %s, not from %s" % (fraclap.__file__, SRC))
    import oracles
    import speed
    import tracing
    import workloads

    cache = oracles.Cache(args.oracles)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, cache)
    wl.prepare()
    layers = None
    if args.trace:
        # no probes: the spans must hold fraclap's time only
        rnd = workloads.Round(speed.RawMeter(wl.CLOCK))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            data = wl.run_round(rnd)
        finally:
            tracer.uninstall()
        layers, nesting = tracing.layer_metrics(tracer.spans, workloads.SWEEP_THREADS)
        rnd.problems += nesting
        tracer.write(os.path.join(OUT, "trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        rnd = workloads.Round(speed.Meter(wl.CLOCK))
        if wl.TICKS:
            speed.start_ticks(rnd.meter)
        try:
            data = wl.run_round(rnd)
        finally:
            speed.stop_ticks()
    # before the checks, which compute oracles and read outputs back
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    wl.check(rnd, data)
    cache.save()
    print(json.dumps({
        "provenance": provenance(),
        "wall": rnd.wall,
        "cpu": rnd.cpu,
        "oracle_s": cache.seconds,
        "scaled": rnd.scaled,
        "probes": rnd.meter.probes,
        "ops": [[op.kind, op.seconds, op.label, op.failed] for op in rnd.ops],
        "problems": rnd.problems,
        "failures": rnd.failures,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
