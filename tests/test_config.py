"""Run-configuration schema tests."""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def test_synth_n_groups_defaults_to_four(tmp_path):
    obj = json.loads(json.dumps(MINI))
    del obj["data"]["synth"]["n_groups"]
    assert load_config(write(tmp_path, obj)).synth.n_groups == 4


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


@pytest.mark.parametrize("where, value, message", [
    ("model", [["d_m", 8]], r'model: expected a JSON object, got \[\["d_m", 8\]\]'),
    ("model", None, "model: expected a JSON object, got null"),
    ("hyper", "ab", 'hyper: expected a JSON object, got "ab"'),
    ("data", 5, "data: expected a JSON object, got 5"),
    ("data.synth", [], r"data.synth: expected a JSON object, got \[\]"),
    ("dimensions", {"name": "title"}, "dimensions: expected a list of objects"),
    ("dimensions", [{"name": "title"}, "cf"], 'dimensions\\[1\\]: expected a JSON object, got "cf"'),
])
def test_section_that_is_not_an_object_refused(tmp_path, where, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, with_value(where, value)))


def test_top_level_that_is_not_an_object_refused(tmp_path):
    with pytest.raises(ConfigError, match=r"run.json: expected a JSON object, got \[\]"):
        load_config(write(tmp_path, []))


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


def test_run_config_without_dimensions_builds_with_steps(tmp_path):
    # the file rule above is not a RunConfig rule: the no-verifier variant
    # and the equal-compute baseline reason without a bank
    cfg = replace(load_config(write(tmp_path, MINI)), dimensions=[])
    assert cfg.m == 1 and cfg.dimensions == []


@pytest.mark.parametrize("edit, message", [
    ({"dimensions": [("title", 1)]}, "dimensions\\[0\\]: d_i must be an integer >= 2, got 1"),
    ({"dimensions": [("category", None), ("cf", 2.5)]}, "dimensions\\[1\\]: d_i must be an"),
    ({"bank_depth": 0}, "depth >= 1"),
    ({"bank_width": -1}, "width >= 0"),
    ({"dimensions": [("category", 4)]}, "dimensions\\[0\\]: labeling 'category': d_i=4, but the "
     "corpus has 3 categories"),
    ({"dimensions": [("category", 3), ("cf", 13)]},
     "dimensions\\[1\\]: labeling 'cf': d_i=13 exceeds the item count 12"),
    ({"dimensions": [("title", None)]},
     "dimensions\\[0\\]: labeling 'title': d_i=20 exceeds the item count 12"),
    # load_config refuses the key as unknown; built in code, it reached
    # run_pipeline, which passed ModelConfig n_items twice
    ({"model": {"d_m": 8, "n_items": 12}},
     "^model: n_items is not set here: it comes from the corpus$"),
])
def test_run_config_edits_are_checked(tmp_path, edit, message):
    cfg = load_config(write(tmp_path, MINI))
    with pytest.raises(ConfigError, match=message):
        replace(cfg, **edit)


def test_class_counts_checked_against_the_synthetic_corpus_at_load(tmp_path):
    # 3 categories and 12 items; an ingested corpus is counted when it loads
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = [{"name": "category", "d_i": 3}, {"name": "cf", "d_i": 12}]
    assert load_config(write(tmp_path, obj)).dimensions == [("category", 3), ("cf", 12)]
    obj["dimensions"][1]["d_i"] = 13
    with pytest.raises(ConfigError, match="'cf': d_i=13 exceeds the item count 12"):
        load_config(write(tmp_path, obj))
    obj["data"] = {"items": "items.jsonl", "interactions": "interactions.jsonl"}
    assert load_config(write(tmp_path, obj)).dimensions[1] == ("cf", 13)


@pytest.mark.parametrize("name", ["title", "cf"])
def test_unset_d_i_checked_as_the_default_against_the_synthetic_corpus(tmp_path, name):
    # an unset title or cf d_i means labeling.DEFAULT_CLASS_COUNT (20) classes,
    # which 12 items cannot hold: refused at load, before any stage runs. 20
    # items can; an unset category d_i is the corpus's own count
    obj = json.loads(json.dumps(MINI))
    obj["dimensions"] = [{"name": "category"}, {"name": name}]
    with pytest.raises(ConfigError, match=f"dimensions\\[1\\]: labeling '{name}': d_i=20 "
                                          "exceeds the item count 12"):
        load_config(write(tmp_path, obj))
    obj["data"]["synth"]["n_items"] = 20
    assert load_config(write(tmp_path, obj)).dimensions == [("category", None), (name, None)]
    obj["data"] = {"items": "items.jsonl", "interactions": "interactions.jsonl"}
    assert load_config(write(tmp_path, obj)).dimensions == [("category", None), (name, None)]


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


@pytest.mark.parametrize("eval_ks", [[5, 5], "55", [2.5], [True], [], [5, "10"]])
def test_eval_ks_must_be_distinct_positive_integers(tmp_path, eval_ks):
    # [5, 5] and "55" used to load as (5, 5) and count every hit twice
    with pytest.raises(ConfigError, match="eval_ks must be a non-empty list of distinct"):
        load_config(write(tmp_path, dict(MINI, eval_ks=eval_ks)))


@pytest.mark.parametrize("where, value, message", [
    ("seed", -1, "run.json: seed must be non-negative"),
    ("seed", 1.5, "run.json: seed must be non-negative and an integer, got 1.5"),
    ("seed", 2**64, "seed must be below 2\\*\\*64"),
    ("stage0_epochs", 1.5, "stage0_epochs must be non-negative and an integer"),
    ("stage1_epochs", -1, "stage1_epochs must be non-negative"),
    ("model.layers", -1, "model: layers must be at least 1"),
    ("model.seed", True, "model: seed must be non-negative and an integer, got True"),
    ("hyper.lr", float("nan"), "hyper: lr must be non-negative and finite, got nan"),
    ("hyper.lr", -0.001, "hyper: lr must be non-negative"),
    ("hyper.epochs", 1.5, "hyper: epochs must be non-negative and an integer"),
    ("data.synth.n_users", -3, "data.synth: n_users must be at least 1"),
    ("data.synth.seq_len_range", 5, "data.synth: 'int' object is not iterable"),
    ("data.synth.seq_len_range", [20, 12],
     "data.synth: seq_len_range high must be at least 20 and an integer, got 12"),
    ("data.synth.seq_len_range", [-3, 2], "seq_len_range low must be at least 1 .*, got -3"),
    ("data.synth.seq_len_range", [0, 0], "seq_len_range low must be at least 1 .*, got 0"),
    ("data.synth.seq_len_range", [2.5, 4], "seq_len_range low must be .* an integer, got 2.5"),
    ("data.synth.seq_len_range", [True, 3], "seq_len_range low must be .* an integer, got True"),
    ("data.synth.seq_len_range", [3], r"seq_len_range must be two integers, got \(3,\)"),
    ("out", 5, "out: expected a path string, got 5"),
    ("data", {"items": 5, "interactions": "i.jsonl"}, "data.items: expected a path string"),
    ("data", {"items": "i.jsonl", "interactions": ["x"]},
     r'data.interactions: expected a path string, got \["x"\]'),
    ("data.synth.stickiness", True, r"data.synth: stickiness must lie in \[0,1\], got True"),
])
def test_values_that_fail_later_are_refused_at_load(tmp_path, where, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, with_value(where, value)))


def with_value(where: str, value) -> dict:
    """MINI with the field at the dotted path ``where`` set to ``value``."""
    obj = json.loads(json.dumps(MINI))
    *sections, key = where.split(".")
    node = obj
    for section in sections:
        node = node[section]
    node[key] = value
    return obj


def _integer(v, least: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


VALID = {  # the rule each field is checked against at load
    "seed": lambda v: _integer(v, 0) and v < 2**64,
    "stage0_epochs": lambda v: v is None or _integer(v, 0),
    "eval_ks": lambda v: isinstance(v, list) and len(v) > 0
    and all(_integer(k, 1) for k in v) and len(set(v)) == len(v),
    "model.layers": lambda v: _integer(v, 1),
    "hyper.lr": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and 0 <= v < math.inf,
    "hyper.batch": lambda v: _integer(v, 1),
    "data.synth.n_users": lambda v: _integer(v, 1),
    "data.synth.stickiness": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and 0 <= v <= 1,
    "data.synth.seq_len_range": lambda v: isinstance(v, list) and len(v) == 2
    and all(_integer(x, 1) for x in v) and v[0] <= v[1],
    "out": lambda v: v is None or isinstance(v, str),
}
VALUES = st.one_of(st.integers(-3, 6), st.integers(2**64 - 2, 2**64 + 1),
                   st.floats(allow_nan=True, allow_infinity=True), st.booleans(), st.none(),
                   st.text(max_size=3), st.lists(st.integers(-1, 12), max_size=4))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(where=st.sampled_from(sorted(VALID)), value=VALUES)
def test_config_fields_load_exactly_when_valid(tmp_path, where, value):
    path = write(tmp_path, with_value(where, value))
    if VALID[where](value):
        load_config(path)
    else:
        with pytest.raises(ConfigError):
            load_config(path)
