"""Time two checkouts with their own perfbench and write a BENCH file.

    python3 benchmarks/trajectory.py BASE CHANGE --out benchmarks/BENCH_13.json \\
        [--workloads score-512 train-32] [--seeds 1 2 3 4 5] [--seconds 25]

BASE and CHANGE are checkout directories (a `git archive` or `git clone` of
each commit).  For every workload and seed the script runs each checkout's
unchanged `perfbench/run.py --trace 0` from that checkout's root, one after
the other, and swaps which side goes first from one seed to the next, so a
slow phase of the host falls on both.  The JSON it writes holds:

- `env`: the environment block of the first run (Python, numpy, BLAS, nproc,
  CPU), without the workload and seed;
- `sides`: each checkout's directory name and a sha256 over its `src/` and
  `perfbench/` files, which names the code that was timed;
- `runs`: every run's four end-to-end metrics, `correct` and failure counts;
- `summary`: per workload and metric, each side's median, quartiles and
  IQR, the change's median over the base's, the number of seeds on which
  the change read better, and `worse` when the change's median is more than
  10 % worse than the base's in the metric's direction;
- `flagged`: those `worse` entries, plus every run that failed an
  operation or was not `correct`.

The run length, seeds and workloads are the same on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("train-32", "train-128", "score-512", "gradcheck")
WORSE = 0.10  # flag a median this much worse than the base's


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    if len(args.seeds) < 5:
        p.error("at least 5 seeds: a median and quartiles need them")
    for root in (args.base, args.change):
        if not (root / "perfbench" / "run.py").is_file():
            p.error(f"{root}: no perfbench/run.py")
    return args


def tree_sha256(root):
    """sha256 over the relative paths and bytes of `src/` and `perfbench/`."""
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for path in sorted((root / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(root, workload, seed, seconds):
    """One perfbench run from `root`: its info and result lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True,
                         timeout=600 + 20 * seconds)
    info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    return info["info"], result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs, spec):
    """Per workload and metric: each side's quartiles, the ratio of medians,
    the change's wins over the seeds and whether it is more than WORSE worse."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        rows = {}
        for metric in spec:
            sign = 1 if spec[metric]["better"] == "higher" else -1
            base = [p["base"][metric] for p in pairs.values()]
            change = [p["change"][metric] for p in pairs.values()]
            b, c = quartiles(base), quartiles(change)
            rows[metric] = {
                "unit": spec[metric]["unit"], "better": spec[metric]["better"],
                "base": b, "change": c, "ratio": c["median"] / b["median"],
                "wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
                "pairs": len(base),
                "worse": sign * (c["median"] - b["median"]) < -WORSE * abs(b["median"]),
            }
        summary[workload] = rows
    return summary


def flags(runs, summary):
    out = [f"{w} {m}: change median {row['ratio']:.3f}x the base's"
           for w, rows in summary.items() for m, row in rows.items() if row["worse"]]
    out += [f"{r['workload']} seed {r['seed']} {r['side']}: correct {r['correct']}, "
            f"{r['failed']} of {r['attempted']} failed"
            for r in runs if not r["correct"] or r["failed"]]
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = {m["name"]: m for m in
            json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs, env = [], None
    started = time.time()
    for workload in args.workloads:
        for k, seed in enumerate(args.seeds):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                info, result = bench(sides[side], workload, seed, args.seconds)
                if env is None:
                    env = {key: v for key, v in info["env"].items() if key not in ("workload", "seed")}
                metrics = {m: result["metrics"][m]["value"] for m in spec}
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": side == order[0], "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": metrics})
                print(f"{workload} seed {seed} {side}: "
                      + ", ".join(f"{m} {v:.4g}" for m, v in metrics.items()), file=sys.stderr)
    summary = summarise(runs, spec)
    flagged = flags(runs, summary)
    record = {"env": env, "seconds": args.seconds, "seeds": args.seeds,
              "wall_s": round(time.time() - started, 1),
              "sides": {s: {"dir": p.name, "sha256": tree_sha256(p)} for s, p in sides.items()},
              "summary": summary, "flagged": flagged, "runs": runs}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for line in flagged:
        print(f"FLAG {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
