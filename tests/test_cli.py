"""End-to-end command behavior: exit codes, artifacts, config plumbing."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from scdkit.blocks import EncoderConfig, save_checkpoint
from scdkit.cli import main
from scdkit.config import _KEYS, Settings, parse_config
from scdkit.data import write_pgm
from scdkit.errors import ConfigError
from scdkit.networks import build
from scdkit.train import TrainConfig


TINY_CONFIG = """
# minimal run for tests
family = sscd-l
classes = 3
encoder.channels = 4 4 8
encoder.strides = 2 2 2
encoder.units = 1 0 0
cd.width = 4
cd.units = 1
train.batch_size = 2
train.epochs = 2
train.lr = 0.05
generate.count = 3
generate.size = 16
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def dataset(tmp_path, cfg_file):
    root = tmp_path / "data"
    assert main(["generate", "--config", cfg_file, "--out", str(root)]) == 0
    return str(root)


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_config_overrides_defaults(cfg_file):
    settings = parse_config(cfg_file)
    assert settings["family"] == "sscd-l"
    assert settings["encoder.channels"] == (4, 4, 8)
    assert settings["train.epochs"] == 2
    assert settings["train.momentum"] == Settings()["train.momentum"]  # untouched key keeps default


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("famly = bisrnet\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(path)


def test_parse_config_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("\nclasses = four\n")
    with pytest.raises(ConfigError, match=":2:"):
        parse_config(path)


def test_parse_config_missing_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("classes\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_parse_config_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe = 3\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(path)


def test_settings_round_trip_into_builders(cfg_file):
    settings = parse_config(cfg_file)
    settings.encoder_config().validate()
    settings.train_config().validate()
    assert settings.build_kwargs()["num_classes"] == 3


def test_settings_defaults_match_the_builders():
    # Settings repeats the defaults of TrainConfig, EncoderConfig and build
    settings = Settings()
    assert settings.train_config() == TrainConfig()
    assert settings.encoder_config() == EncoderConfig()
    kwargs = settings.build_kwargs()
    defaults = inspect.signature(build).parameters
    assert set(kwargs) == set(defaults) - {"family"}
    for name, value in kwargs.items():
        default = defaults[name].default
        if name == "encoder":
            assert default is None  # build reads None as EncoderConfig()
            default = EncoderConfig()
        assert value == default, name


def test_readme_config_block_matches_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config files", 1)[1].split("```", 2)[1]
    pairs = [segment.split(" = ", 1) for line in block.splitlines()
             for segment in re.split(r"\s{2,}", line.split("#", 1)[0].strip()) if segment]
    assert sorted(key for key, _ in pairs) == sorted(_KEYS)  # each key exactly once
    defaults = Settings()
    for key, text in pairs:
        assert _KEYS[key][2](text) == defaults[key], key


# ---------------------------------------------------------------------------
# generate / validate


def test_generate_writes_dataset(dataset, tmp_path):
    assert (tmp_path / "data" / "im1" / "000000.ppm").is_file()
    assert (tmp_path / "data" / "label2" / "000002.pgm").is_file()


def test_validate_clean_dataset(dataset, capsys):
    assert main(["validate", "--data", dataset, "--classes", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_validate_reports_zero_set_warning(dataset, tmp_path, capsys):
    label = np.zeros((16, 16), dtype=np.uint8)
    label[0, 0] = 1
    write_pgm(tmp_path / "data" / "label1" / "000000.pgm", label)
    code = main(["validate", "--data", dataset, "--classes", "3"])
    out = capsys.readouterr().out
    assert "warning" in out
    assert code == 0  # mismatched zero sets warn, they do not fail


def test_validate_flags_out_of_range_labels(dataset, tmp_path, capsys):
    assert main(["validate", "--data", dataset, "--classes", "2"]) == 1
    assert "error" in capsys.readouterr().out


def test_validate_broken_file(dataset, tmp_path, capsys):
    (tmp_path / "data" / "im1" / "000001.ppm").write_bytes(b"P6\n1 1\n255\n")
    assert main(["validate", "--data", dataset, "--classes", "3"]) == 1


# ---------------------------------------------------------------------------
# train / evaluate / metrics


def test_train_writes_artifacts(dataset, cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", cfg_file, "--data", dataset,
                 "--out", str(out)])
    assert code == 0
    assert (out / "checkpoint.bin").is_file()
    assert (out / "metrics.json").is_file()
    curve = (out / "loss_curve.csv").read_text().strip().splitlines()
    assert curve[0].startswith("epoch,")
    assert len(curve) == 3  # header + 2 epochs
    report = json.loads((out / "metrics.json").read_text())
    assert "oa" in report and "temporal" in report


def test_train_determinism_across_runs(dataset, cfg_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", cfg_file, "--data", dataset,
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
    assert (outs[0] / "metrics.json").read_text() == (outs[1] / "metrics.json").read_text()


def test_evaluate_roundtrips_checkpoint(dataset, cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", cfg_file, "--data", dataset, "--out", str(out)])
    capsys.readouterr()
    code = main(["evaluate", "--config", cfg_file, "--data", dataset,
                 "--ckpt", str(out / "checkpoint.bin"), "--json", "-"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"oa", "miou", "sek", "f_scd", "pixels"}


def test_evaluate_exits_two_on_non_finite_logits(dataset, cfg_file, tmp_path, capsys):
    settings = parse_config(cfg_file)
    net = build(settings["family"], **settings.build_kwargs())
    for p in net.parameters():
        p.data *= 1e200  # the products of the deeper layers overflow
    ckpt = tmp_path / "overflow.bin"
    save_checkpoint(ckpt, net.named_parameters())
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["evaluate", "--config", cfg_file, "--data", dataset,
                     "--ckpt", str(ckpt), "--json", "-"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no report
    assert re.search(r"^numeric failure: evaluate: non-finite (p1|p2|c) logits for pair ",
                     captured.err, re.MULTILINE)


def test_a_diverging_default_lr_run_exits_two(tmp_path, capsys):
    # dscd-l at the default lr 0.1 overflows inside the network in epoch 1;
    # relu lets the NaN through, so the final evaluation sees it in the logits
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("train.epochs = 2\ntrain.batch_size = 4\n")
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--count", "8", "--size", "32"]) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "run"), "--family", "dscd-l"])
    assert code == 2
    assert re.search(r"^numeric failure: evaluate: non-finite p1 logits for pair 000000$",
                     capsys.readouterr().err, re.MULTILINE)


def test_evaluate_writes_predictions_and_metrics_close_loop(dataset, cfg_file,
                                                            tmp_path, capsys):
    preds = tmp_path / "preds"
    assert main(["evaluate", "--config", cfg_file, "--data", dataset,
                 "--pred-out", str(preds), "--json", "-"]) == 0
    eval_report = json.loads(capsys.readouterr().out)
    assert main(["metrics", "--pred", str(preds), "--truth", dataset,
                 "--classes", "3", "--json", "-"]) == 0
    scored = json.loads(capsys.readouterr().out)
    # scoring the stored maps must reproduce the in-memory evaluation
    for key in ("oa", "miou", "sek", "f_scd", "pixels"):
        assert scored[key] == eval_report[key]


def test_metrics_perfect_when_pred_equals_truth(dataset, capsys):
    assert main(["metrics", "--pred", dataset, "--truth", dataset,
                 "--classes", "3", "--csv", "-"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["oa"]) == 1.0
    assert float(cells["f_scd"]) == 1.0


@pytest.mark.parametrize("side", ["pred", "truth"])
def test_metrics_missing_label_file_exits_one(tmp_path, capsys, side):
    roots = {"pred": tmp_path / "pred", "truth": tmp_path / "truth"}
    for root in roots.values():
        main(["generate", "--seed", "0", "--count", "2", "--size", "8", "--out", str(root)])
    missing = roots[side] / "label2" / "000001.pgm"
    missing.unlink()
    capsys.readouterr()
    assert main(["metrics", "--pred", str(roots["pred"]), "--truth", str(roots["truth"]),
                 "--classes", "4"]) == 1
    err = capsys.readouterr().err
    assert "missing" in err and str(missing) in err


# ---------------------------------------------------------------------------
# the rest of the surface


def test_gradcheck_single_seed(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "worst over 1 seed(s)" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gradcheck_rejects_empty_seed_range(count, capsys):
    assert main(["gradcheck", "--seeds", count]) == 1
    assert "--seeds must be >= 1" in capsys.readouterr().err


def test_gradcheck_exits_two_when_a_check_exceeds_the_threshold(planted_matmul_error, capsys):
    # a 1e-7 relative error in matmul's left-operand gradient
    assert main(["gradcheck", "--seeds", "1"]) == 2
    out = capsys.readouterr().out
    assert re.search(r"^FAIL siam_sr\[query\] ", out, re.MULTILINE)
    assert re.search(r"^ok   semantic_loss ", out, re.MULTILINE)
    assert "worst over 1 seed(s)" in out


@pytest.mark.parametrize("size,message", [("-8", "--size must be >= 1"),
                                          ("0", "--size must be >= 1"), ("12", "divisible by 8")])
def test_compare_rejects_bad_size(size, message, capsys):
    assert main(["compare", "--size", size]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    ("generate --size 0", "size must be >= 1"),
    ("generate --count 0", "count must be >= 1"),
    ("generate --count -2", "count must be >= 1"),
    ("generate --seed -1", "seed must be >= 0"),
    ("compare --seed -1", "seed must be >= 0"),
    ("train --seed -1", "seed must be >= 0"),
    ("evaluate --seed -1", "seed must be >= 0"),
    ("generate --config {seed_cfg}", "seed must be >= 0"),
    ("compare --config {seed_cfg}", "seed must be >= 0"),
    ("train --config {seed_cfg}", "seed must be >= 0"),
    ("evaluate --config {seed_cfg}", "seed must be >= 0"),
])
def test_rejects_out_of_range_size_count_and_seed(argv, message, dataset, tmp_path, capsys):
    seed_cfg = tmp_path / "seed.cfg"
    seed_cfg.write_text("train.seed = -1\n")
    command, *rest = argv.format(seed_cfg=seed_cfg).split()
    out = tmp_path / "out"
    paths = {"generate": ["--out", str(out)], "compare": [],
             "train": ["--data", dataset, "--out", str(out)], "evaluate": ["--data", dataset]}
    assert main([command, *rest, *paths[command]]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_nan_lr(dataset, tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_CONFIG.replace("train.lr = 0.05", "train.lr = nan"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", dataset, "--out", str(out)]) == 1
    assert "bad lr" in capsys.readouterr().err
    assert not (out / "checkpoint.bin").exists()


def test_compare_lists_all_families(cfg_file, capsys):
    assert main(["compare", "--config", cfg_file, "--size", "16"]) == 0
    out = capsys.readouterr().out
    for family in ("dscd-e", "dscd-l", "sscd-e", "sscd-l", "bisrnet"):
        assert family in out


def test_compare_csv_flop_ordering(cfg_file, tmp_path):
    target = tmp_path / "rows.csv"
    assert main(["compare", "--config", cfg_file, "--size", "16",
                 "--csv", str(target)]) == 0
    rows = [line.split(",") for line in target.read_text().strip().splitlines()[1:]]
    flops = {cells[0]: int(cells[2]) for cells in rows}
    assert flops["dscd-e"] < flops["dscd-l"] <= flops["sscd-l"] < flops["sscd-e"]


def test_error_exit_codes(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "o")]) == 1
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("nonsense = 1\n")
    assert main(["generate", "--config", str(bad_cfg),
                 "--out", str(tmp_path / "d")]) == 1
    capsys.readouterr()


def test_config_not_utf8_exits_one(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"\xff\xfe = 3\n")
    assert main(["generate", "--config", str(bad_cfg), "--out", str(tmp_path / "d")]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_unknown_family_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--family", "resnet", "--data", "x", "--out", "y"])
    assert info.value.code == 1


def test_cli_seed_override(cfg_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg_file, "--out", str(a),
                 "--seed", "5", "--count", "1"]) == 0
    assert main(["generate", "--config", cfg_file, "--out", str(b),
                 "--seed", "6", "--count", "1"]) == 0
    assert ((a / "im1" / "000000.ppm").read_bytes()
            != (b / "im1" / "000000.ppm").read_bytes())
