"""Command-line interface.

    scdkit generate   write a synthetic dataset
    scdkit train      train one network family on a dataset directory
    scdkit evaluate   run a checkpoint over a dataset and report metrics
    scdkit metrics    score stored prediction maps against ground truth
    scdkit gradcheck  run the complex-step gradient suite
    scdkit compare    build all five families and tabulate params/FLOPs
    scdkit validate   check a dataset directory against the format contract

Exit codes: 0 on success, 1 on contract/config/data errors, 2 on numeric
failures (non-finite loss or logits, gradient check above threshold,
undefined metric where a number was required).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings
from pathlib import Path

from . import checks, config as configmod, data as datamod
from .blocks import restore_checkpoint
# imported one by one: the package re-exports a `train` function, which
# shadows the train submodule as an attribute of the package
from .train import evaluate, evaluate_directories, save_trained, train
from .errors import (ConfigError, ContractError, DataError, DimensionError,
                     NumericFailure, UndefinedMetricError)
from .metrics import _FIELDS
from .networks import FAMILIES, build, normalize_family


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


# flag -> the config key it overrides
_FLAGS = {"seed": "train.seed", "family": "family", "classes": "classes",
          "count": "generate.count", "size": "generate.size"}


def _settings(args):
    settings = configmod.parse_config(args.config) if args.config else configmod.Settings()
    for flag, key in _FLAGS.items():
        if (value := getattr(args, flag, None)) is not None:
            settings[key] = value
    return settings


def _build_net(settings):
    return build(settings["family"], **settings.build_kwargs())


def _emit_report(args, report, human_prefix=""):
    payload = report.to_dict()
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_out(args.json, text)
    if getattr(args, "csv", None):
        _write_csv(args.csv, _FIELDS + ("pixels",), [report.cells() + [report.pixels]])
    if not args.json and not getattr(args, "csv", None):
        print(human_prefix + report.line())


def _write_out(target, text):
    if target == "-":
        sys.stdout.write(text)
    else:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        Path(target).write_text(text)


def _write_csv(target, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_out(target, buf.getvalue())


# ---------------------------------------------------------------------------


def cmd_generate(args):
    settings = _settings(args)
    size = settings["generate.size"]
    stems = datamod.generate_synthetic(
        args.out, seed=settings["train.seed"], count=settings["generate.count"],
        height=size, width=size, n_classes=settings["classes"],
        change_fraction=settings["generate.change_fraction"])
    print(f"wrote {len(stems)} pairs of size {size}x{size} to {args.out}")
    return 0


def cmd_train(args):
    settings = _settings(args)
    net = _build_net(settings)
    samples = datamod.load_dataset(args.data, settings["classes"])
    cfg = settings.train_config()
    history = train(net, samples, cfg, log=print)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_trained(net, out / "checkpoint.bin")
    terms = ("l_sem1", "l_sem2", "l_change", "l_sc", "l_total")
    _write_csv(out / "loss_curve.csv", ("epoch",) + terms,
               [[i] + [f"{getattr(r, t):.12g}" for t in terms] for i, r in enumerate(history)])
    report = evaluate(net, samples)
    (out / "metrics.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"checkpoint and reports written to {out}")
    return 0


def cmd_evaluate(args):
    settings = _settings(args)
    net = _build_net(settings)
    if args.ckpt:
        restore_checkpoint(args.ckpt, net.named_parameters())
    samples = datamod.load_dataset(args.data, settings["classes"])
    if args.pred_out:
        report, predictions = evaluate(net, samples, collect_predictions=True)
        for stem, s1, s2 in predictions:
            datamod.write_prediction(args.pred_out, stem, s1, s2)
    else:
        report = evaluate(net, samples)
    _emit_report(args, report, human_prefix=f"{net.family}  ")
    return 0


def cmd_metrics(args):
    report = evaluate_directories(args.pred, args.truth, args.classes)
    _emit_report(args, report)
    return 0


def cmd_gradcheck(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    seeds = range(args.seeds)
    results = checks.gradient_suite(seeds)
    by_component = {}
    for name, err in results:
        component = name.split("/", 1)[1]
        by_component[component] = max(by_component.get(component, 0.0), err)
    for component in sorted(by_component):
        err = by_component[component]
        status = "ok" if err < checks.THRESHOLD else "FAIL"
        print(f"{status:4s} {component:28s} max rel err {err:.3e}")
    worst = checks.worst(results)
    print(f"worst over {args.seeds} seed(s): {worst:.3e} (threshold {checks.THRESHOLD:.0e})")
    return 0 if worst < checks.THRESHOLD else 2


def cmd_compare(args):
    settings = _settings(args)
    size = settings["generate.size"]
    if size < 1:
        raise ConfigError(f"--size must be >= 1, got {size}")
    samples = datamod.load_dataset(args.data, settings["classes"]) if args.data else None
    rows = []
    csv_rows = []
    for family in FAMILIES:
        settings["family"] = family
        net = _build_net(settings)
        row = {"family": family, "params": net.count_params(),
               "flops": net.estimate_flops(size, size)}
        cells = [family, row["params"], row["flops"]]
        if samples:
            report = evaluate(net, samples)
            row.update({name: getattr(report, name) for name in _FIELDS})
            cells += report.cells()
        rows.append(row)
        csv_rows.append(cells)

    if args.json:
        _write_out(args.json, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    if args.csv:
        header = ["family", "params", "flops"] + (list(_FIELDS) if samples else [])
        _write_csv(args.csv, header, csv_rows)
    if not args.json and not args.csv:
        for row in rows:
            print(f"{row['family']:8s} params {row['params']:10d}  flops({size}x{size}) {row['flops']:12d}")
    return 0


def cmd_validate(args):
    stems = datamod.list_stems(args.data)
    hard = 0
    warned = 0
    for stem in stems:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                datamod.read_sample(args.data, stem, args.classes)
            for c in caught:
                warned += 1
                print(f"warning: {c.message}")
        except DataError as e:
            hard += 1
            print(f"error: {e}")
    print(f"{len(stems)} sample(s): {hard} error(s), {warned} warning(s)")
    return 1 if hard else 0


# ---------------------------------------------------------------------------


def make_parser():
    parser = _Parser(prog="scdkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--seed", type=int, help="override the configured seed")

    p = sub.add_parser("generate", help="write a synthetic dataset",
                       epilog="config defaults:\n" + configmod.describe_defaults(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int)
    p.add_argument("--size", type=int)
    p.add_argument("--classes", type=int)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train one family on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--family", type=normalize_family, help="/".join(FAMILIES))
    p.add_argument("--classes", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", help="checkpoint file (omit to evaluate fresh init)")
    p.add_argument("--family", type=normalize_family)
    p.add_argument("--classes", type=int)
    p.add_argument("--pred-out", help="directory for predicted label maps")
    p.add_argument("--json", help="write the report as JSON to this path ('-' = stdout)")
    p.add_argument("--csv", help="write the report as CSV to this path ('-' = stdout)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("metrics", help="score prediction maps against truth maps")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--json", help="write the report as JSON to this path ('-' = stdout)")
    p.add_argument("--csv", help="write the report as CSV to this path ('-' = stdout)")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("gradcheck", help="complex-step gradient suite")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (default 10)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("compare", help="params/FLOPs (and metrics) per family")
    common(p)
    p.add_argument("--data", help="optional dataset to evaluate each family on")
    p.add_argument("--size", type=int, help="input size for the FLOP estimate")
    p.add_argument("--classes", type=int)
    p.add_argument("--json", help="write rows as JSON to this path ('-' = stdout)")
    p.add_argument("--csv", help="write rows as CSV to this path ('-' = stdout)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--classes", type=int)
    p.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError, DimensionError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UndefinedMetricError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        if e.snapshot:
            snap = {k: (v if isinstance(v, (int, float, str)) else repr(v))
                    for k, v in e.snapshot.items()}
            print(f"snapshot: {snap}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
