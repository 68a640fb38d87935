"""Benchmark of scdkit's public API, run from the root of a checkout:

    python3 perfbench/run.py --workload train-32 --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, times set-up in fresh
processes, self-tests the correctness checks, then measures the workload for
about `--seconds` seconds while checking every output.  With `--trace 1` a
bit under half of that runs untraced, then the same work runs again under
the span tracer; the per-layer metrics come from the traced repeat and the
overhead compares the two.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
environment and the workload's own named figures.  Metric names and units
come from BENCHMARK.json.  See perfbench/README.md for what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
UNTRACED_SHARE = 0.45  # the traced repeat of the same work takes the rest


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train-32", "train-128", "score-512", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def limit_blas_threads():
    """Cap the BLAS thread count at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the environment's cap."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"env {os.environ['OPENBLAS_NUM_THREADS']}"


def environment(args, nproc):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": nproc, "cpu": cpu,
            "workload": args.workload, "seed": args.seed}


def setup_seconds(args, inputs):
    """Median wall time of SETUP_REPEATS set-ups, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(inputs)]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def probe(args):
    """Time import, input loading and a warm-up pass in this fresh process."""
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_probe)).set_up()
    print(time.perf_counter() - start)


def latency(op_ms):
    """Median; the highest percentile with at least ten samples beyond it, or
    the upper median when no percentile above the median has ten beyond it
    (21 samples or fewer); and the percentile that tail is."""
    ordered = sorted(op_ms)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 50.0
    k = max(n - 11, n // 2)
    return statistics.median(ordered), ordered[k], 100.0 * (k + 1) / n


def end_to_end(m, setup_s):
    return {"setup_s": setup_s, "items_per_s": m.rate(), "op_ms_p50": latency(m.op_ms)[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def named(workload, m):
    """The workload's figures under their own names, for the info line.  The
    tail is reported here and not gated: a slow phase of the host moves it far
    more than the median (see README.md)."""
    p50, tail, pct = latency(m.op_ms)
    out = {"ops": len(m.op_ms), "op_ms_tail": tail, "tail_percentile": pct,
           "ops_failed_ratio": m.failed / max(m.attempted, 1)}
    rate = m.rate()
    if workload.startswith("train"):
        losses = [v for k, v in m.values.items() if k.startswith("loss_end.")]
        out.update(train_samples_per_s=rate, train_step_ms_p50=p50, train_step_ms_tail=tail,
                   eval_pairs_per_s=m.rate("eval_pairs"),
                   train_loss_end=statistics.mean(losses) if losses else None)
    elif workload == "score-512":
        out.update(score_pairs_per_s=rate, write_pairs_per_s=m.rate("write_pairs"))
    else:
        out.update(gradcheck_checks_per_s=rate, worst_error=m.values.get("worst_error"))
    return out


def per_layer(tracer, untraced, traced, families):
    values = tracer.layer_metrics(traced.items)
    for family in families:
        values[f"networks.{family}.train_ms_per_sample"] = traced.ms_per_item(family)
    plain, slowed = untraced.rate(), traced.rate()
    values["trace.overhead_pct"] = 100.0 * (plain / slowed - 1.0) if slowed else 0.0
    return values


def run(args, nproc, spec):
    import tracer as tracing
    import verify
    import workloads

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, tmp)
        w.generate()
        setup_s = setup_seconds(args, tmp)
        tests = verify.self_tests(tmp / "self-test")
        w.set_up()
        if args.trace:
            # the traced phase repeats the untraced phase's work exactly, so the
            # two compare like for like
            untraced = workloads.Measurement()
            rounds = workloads.measure(w, untraced, seconds=args.seconds * UNTRACED_SHARE)
            w.restart()
            tr = tracing.Tracer()
            m = workloads.Measurement(tr)
            tr.install()
            try:
                workloads.measure(w, m, rounds=rounds)
            finally:
                tr.uninstall()
            values = per_layer(tr, untraced, m, workloads.networks.FAMILIES)
            kinds = spec["per_layer"]
        else:
            m = workloads.Measurement()
            workloads.measure(w, m, seconds=args.seconds)
            values = end_to_end(m, setup_s)
            kinds = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment(args, nproc)
    info = {"env": env, "named": named(args.workload, m), "self_tests": tests}
    if args.trace:
        info["overhead_pct"] = values["trace.overhead_pct"]
        info["self_ms_by_layer"] = tr.self_ms_by_layer()
        tr.write(WORK / f"spans-{args.workload}.jsonl", {"env": env, "metrics": values})
    attempted = m.attempted + (untraced.attempted if args.trace else 0)
    failed = m.failed + (untraced.failed if args.trace else 0)
    result = {"correct": failed == 0 and all(tests.values()),
              "attempted": attempted, "failed": failed,
              "metrics": {k["name"]: {"value": values[k["name"]], "unit": k["unit"]} for k in kinds}}
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "scdkit" / "__init__.py").is_file():
        print(f"error: no scdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        probe(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run(args, nproc, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
