"""Run-configuration schema tests."""

import json

import pytest

from vrec.config import ConfigError, load_config

MINI = {
    "seed": 7,
    "out": "out",
    "data": {"synth": {"n_users": 10, "n_items": 12, "n_groups": 3}},
    "model": {"d_m": 8, "layers": 1, "heads": 1, "m": 1},
    "hyper": {"lr": 0.003, "epochs": 1, "batch": 8},
    "dimensions": [{"name": "category"}, {"name": "title", "d_i": 3}],
}


def write(tmp_path, obj, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def test_minimal_config(tmp_path):
    cfg = load_config(write(tmp_path, MINI))
    assert cfg.seed == 7
    assert cfg.out == tmp_path / "out"
    assert cfg.synth.n_users == 10
    assert cfg.synth.seed == 7  # defaults to the master seed
    assert cfg.hyper.lr == 0.003
    assert cfg.hyper.seed == 7
    assert cfg.dimensions == [("category", None), ("title", 3)]
    assert cfg.eval_ks == (5, 10)
    assert cfg.m == 1


def test_model_config_derives_n_items(tmp_path):
    cfg = load_config(write(tmp_path, MINI))
    model = cfg.model_config(n_items=12)
    assert model.n_items == 12
    assert model.d_m == 8
    assert model.seed == 7


def test_explicit_sub_seed_kept(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["data"]["synth"]["seed"] = 3
    cfg = load_config(write(tmp_path, obj))
    assert cfg.synth.seed == 3
    assert cfg.hyper.seed == 7


def test_with_seed_propagates(tmp_path):
    cfg = load_config(write(tmp_path, MINI)).with_seed(99)
    assert cfg.seed == 99
    assert cfg.synth.seed == 99
    assert cfg.hyper.seed == 99
    assert cfg.model["seed"] == 99


def test_with_m(tmp_path):
    cfg = load_config(write(tmp_path, MINI)).with_m(4)
    assert cfg.m == 4


def test_unknown_top_level_key(tmp_path):
    obj = dict(MINI, optimizer="sgd")
    with pytest.raises(ConfigError, match="optimizer"):
        load_config(write(tmp_path, obj))


def test_n_items_not_allowed_in_model(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["model"]["n_items"] = 40
    with pytest.raises(ConfigError, match="n_items"):
        load_config(write(tmp_path, obj))


def test_data_section_required(tmp_path):
    obj = {k: v for k, v in MINI.items() if k != "data"}
    with pytest.raises(ConfigError, match="'data' section is required"):
        load_config(write(tmp_path, obj))


def test_data_paths_resolve_against_config_dir(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["data"] = {"items": "corpus/items.jsonl",
                   "interactions": "corpus/interactions.jsonl"}
    cfg = load_config(write(tmp_path, obj))
    assert cfg.items_path == tmp_path / "corpus/items.jsonl"
    assert cfg.interactions_path == tmp_path / "corpus/interactions.jsonl"
    assert cfg.synth is None


def test_data_paths_incomplete(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["data"] = {"items": "items.jsonl"}
    with pytest.raises(ConfigError, match="'synth' or both"):
        load_config(write(tmp_path, obj))


def test_duplicate_dimension(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = [{"name": "category"}, {"name": "category"}]
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, obj))


def test_unknown_dimension(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = [{"name": "genre"}]
    with pytest.raises(ConfigError, match="genre"):
        load_config(write(tmp_path, obj))


def test_d_i_too_small(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = [{"name": "title", "d_i": 1}]
    with pytest.raises(ConfigError, match="d_i"):
        load_config(write(tmp_path, obj))


def test_dimensions_required_with_reasoning_steps(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = []
    with pytest.raises(ConfigError, match="labeling dimension"):
        load_config(write(tmp_path, obj))


def test_no_dimensions_fine_without_steps(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = []
    obj["model"]["m"] = 0
    cfg = load_config(write(tmp_path, obj))
    assert cfg.dimensions == []


def test_hyper_validation_surfaces(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["hyper"]["beta"] = -1.0
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(write(tmp_path, obj))


def test_bad_eval_ks(tmp_path):
    obj = dict(MINI, eval_ks=[0])
    with pytest.raises(ConfigError, match="eval_ks"):
        load_config(write(tmp_path, obj))


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"seed\": 7,,}", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_max_positions_must_hold_history_and_steps(tmp_path):
    obj = json.loads(json.dumps(MINI))
    obj["model"]["max_positions"] = 12  # MAX_HISTORY (10) + m (1) = 11 fits
    cfg = load_config(write(tmp_path, obj))
    obj["model"]["m"] = 3
    with pytest.raises(ConfigError, match="max_positions 12 is too small for m=3"):
        load_config(write(tmp_path, obj))
    with pytest.raises(ConfigError, match="max_positions 12 is too small for m=4"):
        cfg.with_m(4)
