"""The run configuration: one ``RunConfig`` describes a run, whether a CLI
subcommand loads it from a JSON file, library code builds it, or a study
edits it with ``dataclasses.replace``. Building one checks it.

Schema of the JSON file (all sections optional unless noted):

    {
      "seed": 0,                       // master seed, default for every stage
      "out": "runs/demo",              // output directory (or pass --out)
      "data": {                        // required: exactly one source
        "synth": {"n_users": 50, "n_items": 40, "n_groups": 4,
                   "stickiness": 0.9, "seq_len_range": [12, 20], "seed": 0}
        // or: "items": "items.jsonl", "interactions": "interactions.jsonl"
      },
      "model": {"d_m": 32, "layers": 2, "heads": 2, "max_positions": 32,
                 "m": 2, "seed": 0},   // n_items always derives from the data
      "hyper": {"lr": 0.001, "epochs": 3, "batch": 32,
                 "alpha": 1.0, "beta": 0.5, "gamma": 0.5, "seed": 0},
      "dimensions": [{"name": "category"}, {"name": "title", "d_i": 20}],
      "stage0_epochs": null,           // per-stage epoch overrides
      "stage1_epochs": null,
      "eval_ks": [5, 10]
    }

Sub-section seeds default to the master seed; an explicit override (the
--seed flag or the VREC_SEED environment variable, flag winning) replaces
the master seed and every sub-seed so one knob re-runs the whole pipeline.
A file with ``m`` above 0 must name a dimension. The verifier bank's shape
and router (``uniform_router``, ``bank_width``, ``bank_depth``) have no key:
only the ablation variants and sweeps in pipeline.py set them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .backbone import ModelConfig
from .datasets import MAX_HISTORY, SynthConfig
from .labeling import DEFAULT_CLASS_COUNT, check_class_count_fits
from .numerics import check_int, check_seed
from .training import TrainHyper
from .verifiers import check_bank_shape, check_class_count

__all__ = ["ConfigError", "DIMENSION_NAMES", "RunConfig", "SEED_ENV_VAR",
           "check_max_positions", "load_config"]

SEED_ENV_VAR = "VREC_SEED"
DIMENSION_NAMES = ("category", "title", "cf")

_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "n_items")
_HYPER_KEYS = tuple(f.name for f in fields(TrainHyper))
_SYNTH_KEYS = tuple(f.name for f in fields(SynthConfig))


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


@contextmanager
def _refused(prefix: str):
    """Raise a rejected value's TypeError or ValueError as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{prefix}{e}")


def _model_default(key: str):
    return ModelConfig.__dataclass_fields__[key].default


def check_max_positions(max_positions: int, steps) -> None:
    """Reject step counts m for which MAX_HISTORY + m positions do not fit."""
    m = max(steps, default=0)
    if MAX_HISTORY + m > max_positions:
        raise ConfigError(f"model.max_positions {max_positions} is too small for m={m}: "
                          f"it needs MAX_HISTORY + m = {MAX_HISTORY + m} positions")


@dataclass
class RunConfig:
    seed: int = 0
    out: Path | None = None
    synth: SynthConfig | None = None
    items_path: Path | None = None
    interactions_path: Path | None = None
    model: dict = field(default_factory=dict)  # ModelConfig kwargs except n_items
    hyper: TrainHyper = field(default_factory=TrainHyper)
    dimensions: list[tuple[str, int | None]] = field(default_factory=list)
    stage0_epochs: int | None = None
    stage1_epochs: int | None = None
    eval_ks: tuple[int, ...] = (5, 10)
    # the verifier bank's shape and router, which only study edits set
    uniform_router: bool = False
    bank_width: int = 0
    bank_depth: int = 1

    def __post_init__(self):  # also runs on every dataclasses.replace, e.g. with_m
        if self.out is not None:
            self.out = Path(self.out)
        with _refused(""):
            check_seed(self.seed)
            for key in ("stage0_epochs", "stage1_epochs"):
                if getattr(self, key) is not None:
                    check_int(key, getattr(self, key))
            check_bank_shape(self.bank_width, self.bank_depth)
        ks = self.eval_ks
        if not (isinstance(ks, tuple) and ks and all(not isinstance(k, bool) and isinstance(k, int)
                                                     and k >= 1 for k in ks)
                and len(set(ks)) == len(ks)):
            raise ConfigError(f"eval_ks must be a non-empty list of distinct positive integers, "
                              f"got {ks!r}")
        with _refused("model: "):
            model = ModelConfig(**self.model)  # n_items is checked when the data loads
        check_max_positions(model.max_positions, [self.m])
        for i, (name, d_i) in enumerate(self.dimensions):  # a class count may be unset
            with _refused(f"dimensions[{i}]: "):
                if d_i is not None:
                    check_class_count(d_i)
                # a synthetic corpus has one category per planted group, and an
                # unset title or cf d_i is DEFAULT_CLASS_COUNT; an ingested
                # corpus is counted when it loads
                if self.synth is not None and (d_i is not None or name != "category"):
                    check_class_count_fits(name, DEFAULT_CLASS_COUNT if d_i is None else d_i,
                                           self.synth.n_items, self.synth.n_groups)

    def model_config(self, n_items: int) -> ModelConfig:
        kwargs = dict(self.model)
        kwargs.setdefault("seed", self.seed)
        return ModelConfig(n_items=n_items, **kwargs)

    @property
    def m(self) -> int:
        return int(self.model.get("m", _model_default("m")))

    def data_seed(self) -> int:
        return self.synth.seed if self.synth is not None else self.seed

    def with_seed(self, seed: int) -> "RunConfig":
        """Replace the master seed and every stage seed."""
        return replace(self, seed=seed, hyper=replace(self.hyper, seed=seed),
                       model={**self.model, "seed": seed},
                       synth=replace(self.synth, seed=seed) if self.synth else None)

    def with_m(self, m: int) -> "RunConfig":
        return replace(self, model={**self.model, "m": int(m)})


def _section(name: str, obj, allowed: tuple[str, ...]) -> dict:
    """A copy of the section ``obj``, refused unless a JSON object of allowed keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {json.dumps(obj)[:40]}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{name}: unknown key(s) {', '.join(unknown)}; "
                          f"allowed: {', '.join(allowed)}")
    return dict(obj)


def _path(base: Path, key: str, value) -> Path:
    """The path string ``value`` under ``base``; refused unless a string."""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a path string, got {json.dumps(value)[:40]}")
    return base / value


def _parse_dimensions(raw) -> list[tuple[str, int | None]]:
    if not isinstance(raw, list):
        raise ConfigError(f"dimensions: expected a list of objects, got {json.dumps(raw)[:40]}")
    dims: list[tuple[str, int | None]] = []
    seen: set[str] = set()
    for i, entry in enumerate(raw):
        name = _section(f"dimensions[{i}]", entry, ("name", "d_i")).get("name")
        if name not in DIMENSION_NAMES:
            raise ConfigError(f"dimensions[{i}]: unknown dimension {name!r}; "
                              f"allowed: {', '.join(DIMENSION_NAMES)}")
        if name in seen:
            raise ConfigError(f"dimensions[{i}]: duplicate dimension {name!r}")
        seen.add(name)
        dims.append((name, entry.get("d_i")))
    return dims


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON ({e.msg} at line {e.lineno})")
    raw = _section(str(path), raw, ("seed", "out", "data", "model", "hyper", "dimensions",
                                    "stage0_epochs", "stage1_epochs", "eval_ks"))

    seed = raw.get("seed", 0)
    with _refused(f"{path}: "):  # the sub-configs' default seed, so checked first
        check_seed(seed)

    if "data" not in raw:
        raise ConfigError(f"{path}: 'data' section is required")
    data = _section("data", raw["data"], ("synth", "items", "interactions"))
    synth = None
    items_path = interactions_path = None
    if "synth" in data:
        _section("data", data, ("synth",))
        synth_kwargs = _section("data.synth", data["synth"], _SYNTH_KEYS)
        synth_kwargs.setdefault("seed", seed)
        with _refused("data.synth: "):
            if "seq_len_range" in synth_kwargs:
                synth_kwargs["seq_len_range"] = tuple(synth_kwargs["seq_len_range"])
            synth = SynthConfig(**synth_kwargs)
    else:
        if "items" not in data or "interactions" not in data:
            raise ConfigError("data: provide either 'synth' or both "
                              "'items' and 'interactions' paths")
        # relative paths resolve against the config file, not the process cwd
        items_path = _path(path.parent, "data.items", data["items"])
        interactions_path = _path(path.parent, "data.interactions", data["interactions"])

    model = _section("model", raw.get("model", {}), _MODEL_KEYS)
    hyper_kwargs = _section("hyper", raw.get("hyper", {}), _HYPER_KEYS)
    hyper_kwargs.setdefault("seed", seed)
    with _refused("hyper: "):
        hyper = TrainHyper(**hyper_kwargs)

    dims = _parse_dimensions(raw.get("dimensions", []))

    eval_ks = raw.get("eval_ks", [5, 10])
    out = raw.get("out")
    cfg = RunConfig(
        seed=seed,
        out=None if out is None or out == "" else _path(path.parent, "out", out),
        synth=synth,
        items_path=items_path,
        interactions_path=interactions_path,
        model=model,
        hyper=hyper,
        dimensions=dims,
        stage0_epochs=raw.get("stage0_epochs"),
        stage1_epochs=raw.get("stage1_epochs"),
        eval_ks=tuple(eval_ks) if isinstance(eval_ks, list) else eval_ks,
    )
    if cfg.m > 0 and not cfg.dimensions:
        raise ConfigError("at least one labeling dimension is required when "
                          "reasoning steps use verifiers (model.m > 0)")
    return cfg
