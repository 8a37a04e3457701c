"""End-to-end CLI tests: staged pipeline, exit codes, file outputs."""

import json
import os
import re
import shutil
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import vrec.cli
import vrec.pipeline
from vrec.checkpoint import load_model
from vrec.cli import main
from vrec.config import SEED_ENV_VAR, ConfigError, load_config
from vrec.datasets import ingest
from vrec.labeling import load_labeling
from vrec.pipeline import SWEEPS, VARIANTS, VERIFIER_DATA, load_verifier_data, run_pipeline, sweep
from vrec.verifiers import make_bank

CONFIG = {
    "seed": 7,
    "out": "out",
    "data": {"synth": {"n_users": 10, "n_items": 12, "n_groups": 3,
                        "stickiness": 0.9, "seq_len_range": [12, 16]}},
    "model": {"d_m": 8, "layers": 1, "heads": 1, "max_positions": 16, "m": 1},
    "hyper": {"lr": 0.003, "epochs": 1, "batch": 8},
    "dimensions": [{"name": "category"}, {"name": "title", "d_i": 3}],
}


STAGE_COMMANDS = ("gen-data", "label", "pretrain-backbone", "collect-verifier-data",
                  "pretrain-verifiers", "finetune", "eval")


def write_config(directory, obj=CONFIG):
    path = directory / "run.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every training stage once; tests share the resulting artifacts."""
    os.environ.pop(SEED_ENV_VAR, None)
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root)
    for command in STAGE_COMMANDS:
        assert main([command, "--config", str(cfg)]) == 0, command
    return cfg, root / "out"


# -- exit-code contract ------------------------------------------------------


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_no_command_exits_two():
    assert main([]) == 2


def test_missing_checkpoint_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", str(cfg)]) == 1
    assert "run the earlier stages first" in capsys.readouterr().err


def test_bad_steps_flag_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["step-scan", "--config", str(cfg), "--steps", "1,x"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_negative_bench_step_exits_two_before_timing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["bench", "--config", str(cfg), "--steps=-3,1"]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bench.csv").exists()


@pytest.mark.parametrize("argv", [["eval", "--m", "-1"], ["inspect", "--m", "-1"],
                                  ["step-scan", "--steps", "-1"], ["bench", "--steps", "-1"]])
def test_negative_step_count_exits_two(tmp_path, capsys, monkeypatch, argv):
    ran = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: ran.append(a))
    monkeypatch.setattr(vrec.cli, "timing_overhead", lambda *a, **k: ran.append(a))
    cfg = write_config(tmp_path)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not ran


def test_unknown_sweep_param_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--param", "dropout",
                 "--values", "0.1"]) == 1
    assert "unknown sweep parameter" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(CONFIG, bogus=1))
    assert main(["eval", "--config", str(cfg)]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting", [
    (["step-scan", "--steps", "1,8"], "max_positions 16 is too small for m=8"),
    (["sweep", "--param", "m", "--values", "1,8"], "max_positions 16 is too small for m=8"),
    (["eval", "--m", "8"], "max_positions 16 is too small for m=8"),
    (["bench", "--steps", "1,8"], "max_positions 16 is too small for m=8"),
    (["ablate", "--variants", "full,no-verifier,uniform-router"], "'uniform-router'"),
])
def test_bad_setting_rejected_before_training(tmp_path, capsys, monkeypatch, argv, setting):
    trained = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: trained.append(a))
    cfg = write_config(tmp_path)
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    assert setting in capsys.readouterr().err
    assert not trained
    assert not (tmp_path / "out" / "stage0.ckpt").exists()


@pytest.mark.parametrize("section, key, value", [
    ("hyper", "batch", 0), ("hyper", "epochs", -1), ("model", "heads", 0), ("model", "d_m", 0),
])
def test_bad_config_value_rejected_at_load(tmp_path, capsys, section, key, value):
    obj = json.loads(json.dumps(CONFIG))
    obj[section][key] = value
    cfg = write_config(tmp_path, obj)
    assert main(["pretrain-backbone", "--config", str(cfg)]) == 1
    assert f"{section}: {key} " in capsys.readouterr().err
    assert not (tmp_path / "out" / "stage0.ckpt").exists()


def test_zero_epoch_stages_exit_zero(tmp_path, capsys):
    obj = json.loads(json.dumps(CONFIG))
    obj["hyper"]["epochs"] = 0
    cfg = write_config(tmp_path, obj)
    for command in STAGE_COMMANDS:
        assert main([command, "--config", str(cfg)]) == 0, command
    printed = capsys.readouterr().out
    for stage in ("stage 0: ", "stage 1: ", "stage 2: "):
        assert stage in printed and "0 epochs" in printed.split(stage)[1].splitlines()[0]
    for name in ("stage0.ckpt", "verifier_data.npz", "stage1.ckpt", "final.ckpt", "metrics.csv"):
        assert (tmp_path / "out" / name).exists(), name


def test_bench_without_samples_exits_one(tmp_path, capsys):
    obj = json.loads(json.dumps(CONFIG))
    obj["data"]["synth"]["seq_len_range"] = [2, 2]  # below MIN_LOG_LENGTH: no samples
    cfg = write_config(tmp_path, obj)
    argv = ["bench", "--config", str(cfg), "--steps", "1"]
    codes = []
    # a hang must not stall the suite
    worker = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert codes == [1]
    assert "at least one sample" in capsys.readouterr().err


def test_m0_chain_exits_zero(tmp_path, capsys):
    obj = json.loads(json.dumps(CONFIG))
    obj["model"]["m"] = 0
    obj["dimensions"] = [{"name": "category"}]
    cfg = write_config(tmp_path, obj)
    for command in STAGE_COMMANDS:
        assert main([command, "--config", str(cfg)]) == 0, command
    printed = capsys.readouterr().out
    assert "stage 1: no trace has a latent step" in printed
    assert "nan" not in printed
    for name in ("stage1.ckpt", "final.ckpt", "metrics.csv"):
        assert (tmp_path / "out" / name).exists(), name


def test_sweep_m_from_zero_writes_rows(tmp_path):
    obj = json.loads(json.dumps(CONFIG))
    obj["dimensions"] = [{"name": "category"}]
    cfg = write_config(tmp_path, obj)
    assert main(["sweep", "--config", str(cfg), "--param", "m", "--values", "0,1"]) == 0
    lines = (tmp_path / "out" / "sweep_m.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["m", "0"], ["m", "1"]]


def test_one_class_labeling_rejected(tmp_path, capsys):
    obj = json.loads(json.dumps(CONFIG))
    obj["data"]["synth"]["n_groups"] = 1
    obj["dimensions"] = [{"name": "category"}]
    cfg = write_config(tmp_path, obj)
    assert main(["gen-data", "--config", str(cfg)]) == 0  # the planted labeling may have 1 class
    assert main(["label", "--config", str(cfg)]) == 1
    assert "'category'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "labeling_category.jsonl").exists()


def test_one_class_labeling_rejected_before_training(tmp_path, monkeypatch):
    trained = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: trained.append(a))
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ValueError, match="'category'"):
        run_pipeline(replace(cfg, synth=replace(cfg.synth, n_groups=1),
                             dimensions=[("category", None)], out=tmp_path / "run"))
    assert not trained
    assert not (tmp_path / "run" / "stage0.ckpt").exists()


BAD_STUDY_VALUES = [
    ("beta", "0.5,-1", "must be non-negative"),
    ("m", "1,-1", "m must be non-negative"),
    ("d_i", "3,1", "d_i must be an integer >= 2"),
    ("verifier-depth", "1,0", "depth >= 1"),
    ("verifier-width", "4,-4", "width >= 0"),
    ("d_i", "3,2.5", "'d_i' takes whole numbers, got 2.5"),
    ("m", "1,1.5", "'m' takes whole numbers, got 1.5"),
]


@pytest.mark.parametrize("param, values, message", BAD_STUDY_VALUES)
def test_bad_study_value_rejected_before_training(tmp_path, monkeypatch, param, values, message):
    trained = []
    monkeypatch.setattr(vrec.pipeline, "pretrain_backbone", lambda *a, **k: trained.append(a))
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ValueError, match=message):
        sweep(replace(cfg, bank_depth=2, out=tmp_path / "lib"), param,
              [float(v) for v in values.split(",")])
    assert not trained
    assert main(["sweep", "--config", str(write_config(tmp_path)),
                 "--param", param, "--values", values]) == 1
    assert not trained
    assert not list((tmp_path / "out").iterdir())
    assert not (tmp_path / "lib").exists()


def test_impossible_d_i_refused_before_the_first_run(tmp_path, monkeypatch):
    # 13 title classes on a 12-item corpus: the sweep stops before its first
    # run, at d_i=2, starts
    runs = []
    monkeypatch.setattr(vrec.pipeline, "run_pipeline", runs.append)
    with pytest.raises(ConfigError, match="dimensions\\[1\\]: labeling 'title': d_i=13 exceeds"):
        sweep(load_config(write_config(tmp_path)), "d_i", [2, 13])
    assert not runs


def _built_banks(tmp_path, monkeypatch, param, values):
    """Hidden-layer shapes of each bank a CLI sweep builds, per verifier."""
    shapes = []

    def recording_make_bank(*args, **kwargs):
        bank = make_bank(*args, **kwargs)
        shapes.append([[w.shape[1:] for w, _ in bank.trunk]] * bank.n)
        return bank

    monkeypatch.setattr(vrec.pipeline, "make_bank", recording_make_bank)
    obj = json.loads(json.dumps(CONFIG))
    obj["hyper"]["epochs"] = 0
    cfg = write_config(tmp_path, obj)
    assert main(["sweep", "--config", str(cfg), "--param", param, "--values", values]) == 0
    return shapes


def test_sweep_verifier_width_builds_wider_banks(tmp_path, monkeypatch):
    shapes = _built_banks(tmp_path, monkeypatch, "verifier-width", "2,16")
    assert shapes == [[[(8, 2), (2, 8)]] * 2, [[(8, 16), (16, 8)]] * 2]


def test_sweep_verifier_depth_builds_deeper_banks(tmp_path, monkeypatch):
    shapes = _built_banks(tmp_path, monkeypatch, "verifier-depth", "1,2,3")
    assert shapes == [[[]] * 2, [[(8, 8)]] * 2, [[(8, 8), (8, 8)]] * 2]


def test_readme_study_examples_use_known_names(capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    variants = re.findall(r"vrec ablate .*--variants (\S+)", readme)
    params = re.findall(r"vrec sweep .*--param (\S+)", readme)
    assert variants and params
    assert set(",".join(variants).split(",")) <= set(VARIANTS)
    assert set(params) <= set(SWEEPS)
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside a name
    for command, names in (("ablate", VARIANTS), ("sweep", SWEEPS)):
        assert main([command, "--help"]) == 0
        assert ", ".join(names) in capsys.readouterr().out


# -- staged pipeline -----------------------------------------------------------


def test_pipeline_artifacts(pipeline):
    _, out = pipeline
    for name in ("items.jsonl", "interactions.jsonl", "planted_labels.jsonl",
                 "labeling_category.jsonl", "labeling_title.jsonl",
                 "stage0.ckpt", "stage0_log.csv", "verifier_data.npz",
                 "stage1.ckpt", "stage1_log.csv", "final.ckpt", "stage2_log.csv",
                 "metrics.csv", "report.json"):
        assert (out / name).exists(), name


def test_cli_stages_match_run_pipeline(pipeline, tmp_path):
    """The stage-by-stage CLI and the in-memory pipeline write the same bytes."""
    cfg_path, out = pipeline
    cfg = load_config(cfg_path)
    run_pipeline(replace(cfg, out=tmp_path))
    for name in ("stage0.ckpt", "stage1.ckpt", "final.ckpt", "metrics.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


STUDIES = (["ablate", "--variants", "no-router"], ["sweep", "--param", "beta", "--values", "0"],
           ["step-scan", "--steps", "2"])


def test_studies_on_ingested_corpus_match_synthetic(pipeline, tmp_path):
    """gen-data's files, ingested, give every study the synthetic corpus's rows."""
    _, out = pipeline
    ingested = dict(CONFIG, out="ingested", data={"items": str(out / "items.jsonl"),
                                                  "interactions": str(out / "interactions.jsonl")})
    for obj in (dict(CONFIG, out="synth"), ingested):
        cfg = tmp_path / f"{obj['out']}.json"
        cfg.write_text(json.dumps(obj), encoding="utf-8")
        for command, *flags in STUDIES:
            assert main([command, "--config", str(cfg), *flags]) == 0, command
    for name in ("ablation.csv", "sweep_beta.csv", "steps.csv"):
        assert (tmp_path / "ingested" / name).read_bytes() == \
            (tmp_path / "synth" / name).read_bytes(), name


def test_gen_data_roundtrips_through_ingest(pipeline):
    _, out = pipeline
    items, logs = ingest(out / "items.jsonl", out / "interactions.jsonl")
    assert len(items) == CONFIG["data"]["synth"]["n_items"]
    assert len(logs) == CONFIG["data"]["synth"]["n_users"]
    lo, hi = CONFIG["data"]["synth"]["seq_len_range"]
    assert all(lo <= len(log.items) <= hi for log in logs)


def test_labelings_loadable(pipeline):
    _, out = pipeline
    cat = load_labeling(out / "labeling_category.jsonl")
    assert cat.dimension == "category"
    assert cat.d_i == CONFIG["data"]["synth"]["n_groups"]
    assert len(cat.labels) == CONFIG["data"]["synth"]["n_items"]


def test_verifier_data_format(pipeline):
    _, out = pipeline
    data = np.load(out / "verifier_data.npz")
    n, m, d_m = data["r_steps"].shape
    assert (m, d_m) == (CONFIG["model"]["m"], CONFIG["model"]["d_m"])
    assert data["labels"].shape == (n, len(CONFIG["dimensions"]))
    assert ((data["labels"] >= -1).all())


def test_collect_refuses_no_dimensions(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(CONFIG, model=dict(CONFIG["model"], m=0), dimensions=[]))
    assert main(["pretrain-backbone", "--config", str(cfg)]) == 0
    assert main(["collect-verifier-data", "--config", str(cfg)]) == 1
    assert "at least one labeling dimension" in capsys.readouterr().err
    assert not (tmp_path / "out" / VERIFIER_DATA).exists()


@pytest.mark.parametrize("dimensions", [
    [{"name": "category"}, {"name": "title", "d_i": 5}],
    [{"name": "category"}, {"name": "title", "d_i": 3}, {"name": "cf", "d_i": 3}],
])
def test_stale_verifier_data_rejected(pipeline, tmp_path, capsys, dimensions):
    _, out = pipeline
    shutil.copytree(out, tmp_path / "out")
    cfg = write_config(tmp_path, dict(CONFIG, dimensions=dimensions))
    assert main(["pretrain-verifiers", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / VERIFIER_DATA) in err and "stale" in err


def test_stage_files_of_another_stage0_rejected(pipeline, tmp_path, capsys, monkeypatch):
    # the run's stage 0 retrained with another seed: the collected traces and
    # stage1.ckpt belong to the old backbone, and both later stages say so
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    _, out = pipeline
    shutil.copytree(out, tmp_path / "out")
    cfg = str(write_config(tmp_path))
    assert main(["pretrain-backbone", "--config", cfg, "--seed", "8"]) == 0
    capsys.readouterr()
    assert main(["pretrain-verifiers", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / VERIFIER_DATA) in err and "stale" in err
    assert main(["finetune", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "out" / "stage1.ckpt") in err and "stale" in err
    assert str(tmp_path / "out" / "stage0.ckpt") in err


def test_verifier_data_shape_must_match_backbone(pipeline):
    _, out = pipeline
    labelings = [load_labeling(out / f"labeling_{d['name']}.jsonl") for d in CONFIG["dimensions"]]
    backbone, _ = load_model(out / "stage0.ckpt")
    assert load_verifier_data(out / VERIFIER_DATA, labelings, backbone)
    backbone.cfg = replace(backbone.cfg, m=2)  # the same values, another shape of trace
    with pytest.raises(ValueError, match="verifier_data.npz is stale"):
        load_verifier_data(out / VERIFIER_DATA, labelings, backbone)


def _relabel(row_kind, column, value):
    """Set one label of the first hit (or miss) row."""
    def edit(arrays):
        labels = arrays["labels"]
        row = np.flatnonzero((labels[:, 0] >= 0) == (row_kind == "hit"))[0]
        labels[row, column] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda a: a.pop("r_steps"), "no r_steps or no labels"),
    (lambda a: a.pop("labels"), "no r_steps or no labels"),
    (lambda a: a.update(labels=a["labels"][:-1]), "labels are int64 of shape"),
    (lambda a: a.update(labels=np.hstack([a["labels"], a["labels"][:, :1]])),
     r"expected integers of shape \(\d+, 2\)"),
    (lambda a: a.update(labels=a["labels"].astype(np.float64)), "labels are float64"),
    (_relabel("hit", 1, 3), "labels row .* below d_i"),  # title has d_i 3
    (_relabel("hit", 0, -2), "labels row"),
    (_relabel("hit", 1, -1), "labels row"),
    (_relabel("miss", 0, 0), "labels row"),
], ids=["no_r_steps", "no_labels", "row_count", "width", "float", "class_too_big",
        "below_minus_one", "hit_with_miss", "miss_with_class"])
def test_bad_verifier_data_names_the_path(pipeline, tmp_path, edit, message):
    _, out = pipeline
    labelings = [load_labeling(out / f"labeling_{d['name']}.jsonl") for d in CONFIG["dimensions"]]
    backbone, _ = load_model(out / "stage0.ckpt")
    with np.load(out / VERIFIER_DATA) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    path = tmp_path / VERIFIER_DATA
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as err:
        load_verifier_data(path, labelings, backbone)
    assert str(path) in str(err.value)


def test_report_json(pipeline):
    _, out = pipeline
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert set(report["recall"]) == {"5", "10"}
    assert 0.0 <= report["recall"]["5"] <= 1.0
    assert report["n_samples"] > 0


def test_eval_rerun_byte_identical(pipeline):
    cfg, out = pipeline
    before = (out / "metrics.csv").read_bytes()
    assert main(["eval", "--config", str(cfg)]) == 0
    assert (out / "metrics.csv").read_bytes() == before


def test_eval_m_override(pipeline, capsys):
    cfg, _ = pipeline
    assert main(["eval", "--config", str(cfg), "--m", "0"]) == 0
    assert "recall@5" in capsys.readouterr().out


def test_inspect_outputs(pipeline):
    cfg, out = pipeline
    assert main(["inspect", "--config", str(cfg)]) == 0
    lines = (out / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert first["m"] == CONFIG["model"]["m"]
    assert "f" in first["steps"][0] and "classes" in first["steps"][0]
    inspect = json.loads((out / "inspect.json").read_text(encoding="utf-8"))
    assert inspect["per_step"][0]["step"] == 0
    assert -1.0 <= inspect["per_step"][0]["mean_cosine"] <= 1.0
    assert len(inspect["per_step"][0]["projection"][0]) == 2


def test_bench_writes_reports(pipeline, capsys):
    cfg, out = pipeline
    assert main(["bench", "--config", str(cfg), "--steps", "1"]) == 0
    assert "overhead" in capsys.readouterr().out
    bench = json.loads((out / "bench.json").read_text(encoding="utf-8"))
    assert bench["rows"][0]["m"] == 1
    assert bench["reference_overhead_pct"] == 0.59


def test_plot_data_after_reports(pipeline):
    cfg, out = pipeline
    assert main(["step-scan", "--config", str(cfg), "--steps", "0,1"]) == 0
    assert main(["plot-data", "--config", str(cfg)]) == 0
    lines = (out / "plot_steps.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,series"
    assert len(lines) > 1


def test_plot_data_nothing_to_plot(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["plot-data", "--config", str(cfg)]) == 1
    assert "nothing to plot" in capsys.readouterr().err


def test_ablate_writes_rows(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["ablate", "--config", str(cfg), "--variants",
                 "full,no-verifier"]) == 0
    lines = (tmp_path / "out" / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert main(["pretrain-backbone", "--config", str(cfg),
                 "--out", str(tmp_path / "env")]) == 0
    assert main(["pretrain-backbone", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "flag")]) == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    assert main(["pretrain-backbone", "--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path / "plain")]) == 0
    env = (tmp_path / "env" / "stage0.ckpt").read_bytes()
    flag = (tmp_path / "flag" / "stage0.ckpt").read_bytes()
    plain = (tmp_path / "plain" / "stage0.ckpt").read_bytes()
    assert flag == plain  # --seed wins over the environment
    assert env != plain  # and the environment does override the config


def test_seed_env_overrides_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    assert main(["pretrain-backbone", "--config", str(cfg),
                 "--out", str(tmp_path / "env7")]) == 0
    monkeypatch.delenv(SEED_ENV_VAR)
    assert main(["pretrain-backbone", "--config", str(cfg),
                 "--out", str(tmp_path / "cfg7")]) == 0
    assert (tmp_path / "env7" / "stage0.ckpt").read_bytes() == \
        (tmp_path / "cfg7" / "stage0.ckpt").read_bytes()


@pytest.mark.parametrize("flag, env, message", [
    ("-1", None, "--seed: seed must be non-negative and an integer, got -1"),
    (None, "-1", f"{SEED_ENV_VAR}: seed must be non-negative and an integer, got -1"),
    (None, "abc", f"{SEED_ENV_VAR}: invalid literal for int"),
    (None, "1.5", f"{SEED_ENV_VAR}: invalid literal for int"),
])
def test_bad_seed_override_names_its_source(tmp_path, monkeypatch, capsys, flag, env, message):
    cfg = write_config(tmp_path)
    if env is not None:
        monkeypatch.setenv(SEED_ENV_VAR, env)
    argv = ["pretrain-backbone", "--config", str(cfg)] + (["--seed", flag] if flag else [])
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "stage0.ckpt").exists()
