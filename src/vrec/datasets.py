"""Interaction ingestion, synthetic corpus generation, and chronological splitting."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .labeling import GroupLabeling
from .numerics import Rng, check_int, check_seed

__all__ = [
    "Item",
    "InteractionLog",
    "Sample",
    "Split",
    "SynthConfig",
    "chronological_split",
    "generate_synthetic",
    "ingest",
]

MAX_HISTORY = 10
MIN_LOG_LENGTH = 3

# distinct marker words give each planted group a separable trigram footprint
_GROUP_WORDS = [
    "amber", "basalt", "cedar", "dune", "ember", "fjord", "garnet", "heath",
    "iris", "jasper", "kelp", "lumen", "maple", "nectar", "onyx", "prism",
    "quartz", "reef", "slate", "tundra", "umber", "velvet", "willow", "xenon",
    "yarrow", "zephyr",
]


@dataclass
class Item:
    id: int
    title: str | None = None
    category: str | None = None


@dataclass
class InteractionLog:
    user: str
    items: list[int]
    timestamps: list[int]


@dataclass
class Sample:
    """One next-item prediction point: predict target from the preceding history."""

    user: int
    history: list[int]
    target: int


@dataclass
class Split:
    train: list[Sample]
    valid: list[Sample]
    test: list[Sample]
    skipped_users: int = 0
    n_users: int = 0


@dataclass
class SynthConfig:
    n_users: int = 50
    n_items: int = 40
    n_groups: int = 4
    stickiness: float = 0.9
    seq_len_range: tuple[int, int] = (12, 20)
    seed: int = 0

    def __post_init__(self):
        for key in ("n_users", "n_items", "n_groups"):
            check_int(key, getattr(self, key), least=1)
        check_seed(self.seed)
        if self.n_groups > self.n_items:
            raise ValueError(f"n_groups ({self.n_groups}) exceeds n_items ({self.n_items})")
        if isinstance(self.stickiness, bool) or not 0.0 <= self.stickiness <= 1.0:
            raise ValueError(f"stickiness must lie in [0,1], got {self.stickiness!r}")
        if not (isinstance(self.seq_len_range, (tuple, list)) and len(self.seq_len_range) == 2):
            raise ValueError(f"seq_len_range must be two integers, got {self.seq_len_range!r}")
        low, high = self.seq_len_range
        check_int("seq_len_range low", low, least=1)
        check_int("seq_len_range high", high, least=low)


def group_word(g: int) -> str:
    w = _GROUP_WORDS[g % len(_GROUP_WORDS)]
    return w if g < len(_GROUP_WORDS) else f"{w}{g // len(_GROUP_WORDS)}"


def generate_synthetic(cfg: SynthConfig) -> tuple[list[Item], list[InteractionLog], GroupLabeling]:
    """Sticky Markov walk over planted item groups.

    Each user's sequence stays in its current group with probability
    ``cfg.stickiness`` and otherwise jumps uniformly to one of the OTHER
    groups, so the empirical stay rate matches stickiness exactly. Items
    are drawn uniformly within the current group. Items are laid out in
    contiguous group blocks; titles repeat a per-group marker word and the
    category is that word, so every labeling dimension can recover the
    planted structure.
    """
    rng = Rng(cfg.seed, 0)
    n_g = cfg.n_groups
    bounds = [g * cfg.n_items // n_g for g in range(n_g + 1)]
    item_group = np.zeros(cfg.n_items, dtype=np.int64)
    items: list[Item] = []
    for g in range(n_g):
        for i in range(bounds[g], bounds[g + 1]):
            item_group[i] = g
            word = group_word(g)
            items.append(Item(id=i, title=f"{word} {word} opus {i}", category=word))

    lo, hi = cfg.seq_len_range
    logs: list[InteractionLog] = []
    for u in range(cfg.n_users):
        length = rng.integers(lo, hi + 1)
        g = rng.integers(0, n_g)
        seq: list[int] = []
        for _ in range(length):
            seq.append(rng.integers(bounds[g], bounds[g + 1]))
            if n_g > 1 and rng.uniform() >= cfg.stickiness:
                hop = rng.integers(0, n_g - 1)
                g = hop if hop < g else hop + 1
        logs.append(InteractionLog(user=f"u{u}", items=seq, timestamps=list(range(length))))

    labeling = GroupLabeling(dimension="planted", d_i=n_g, labels=item_group)
    return items, logs, labeling


def _fail(path: Path, lineno: int, msg: str) -> None:
    raise ValueError(f"{path}:{lineno}: {msg}")


def _integer(path: Path, lineno: int, what: str, value) -> int:
    """An int, or a string of decimal digits; floats, bools and other strings
    are refused rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value):
        return int(value)
    _fail(path, lineno, f"{what} must be an integer, got {json.dumps(value)}")


def _objects(path: Path):
    """(line number, object) for each non-blank line of a JSON-lines file."""
    with path.open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as e:
                _fail(path, lineno, f"malformed JSON ({e.msg})")
            if not isinstance(obj, dict):
                _fail(path, lineno, f"expected a JSON object, got {raw.strip()[:40]}")
            yield lineno, obj


def ingest(items_path: str | Path, interactions_path: str | Path) -> tuple[list[Item], list[InteractionLog]]:
    """Load item and interaction JSON-lines files.

    Item ids are re-indexed densely in file order; interaction logs are
    re-mapped to the dense ids and sorted by timestamp. Ids and timestamps
    are integers or strings of decimal digits, and a title or category is a
    string, null or absent; any other value is refused with the file and
    line it is on.
    """
    items_path = Path(items_path)
    interactions_path = Path(interactions_path)

    items: list[Item] = []
    id_map: dict[int, int] = {}
    for lineno, obj in _objects(items_path):
        if "id" not in obj:
            _fail(items_path, lineno, "item object missing 'id'")
        orig = _integer(items_path, lineno, "item id", obj["id"])
        if orig in id_map:
            _fail(items_path, lineno, f"duplicate item id {orig}")
        id_map[orig] = len(items)
        for key in ("title", "category"):
            if not isinstance(obj.get(key), (str, type(None))):
                _fail(items_path, lineno, f"item {key} must be a string or null, "
                      f"got {json.dumps(obj[key])}")
        items.append(Item(id=len(items), title=obj.get("title"), category=obj.get("category")))

    logs: list[InteractionLog] = []
    for lineno, obj in _objects(interactions_path):
        for key in ("user", "items", "timestamps"):
            if key not in obj:
                _fail(interactions_path, lineno, f"interaction object missing '{key}'")
        raw_items, ts = obj["items"], obj["timestamps"]
        if not (isinstance(raw_items, list) and isinstance(ts, list)):
            _fail(interactions_path, lineno, "'items' and 'timestamps' must be lists")
        if len(raw_items) != len(ts):
            _fail(interactions_path, lineno, f"items/timestamps length mismatch ({len(raw_items)} vs {len(ts)})")
        ids = [_integer(interactions_path, lineno, "item id", it) for it in raw_items]
        times = [_integer(interactions_path, lineno, "timestamp", t) for t in ts]
        for it in ids:
            if it not in id_map:
                _fail(interactions_path, lineno, f"unknown item id {it}")
        order = sorted(range(len(times)), key=times.__getitem__)
        logs.append(InteractionLog(user=str(obj["user"]), items=[id_map[ids[j]] for j in order],
                                   timestamps=[times[j] for j in order]))
    return items, logs


def chronological_split(logs: list[InteractionLog]) -> Split:
    """Per-user 8:1:1 split over next-item prediction points.

    A log of length L yields n = L-1 prediction points in chronological
    order; the last floor(0.1*n) go to test, the floor(0.1*n) before those
    to valid, and the remainder (earliest) to train. Histories keep the
    most recent ``MAX_HISTORY`` items. Logs shorter than ``MIN_LOG_LENGTH``
    are skipped and counted.
    """
    split = Split(train=[], valid=[], test=[])
    user_idx = 0
    for log in logs:
        items = log.items
        if len(items) < MIN_LOG_LENGTH:
            split.skipped_users += 1
            continue
        n = len(items) - 1
        n_hold = n // 10
        # Sample(user, history, target), built positionally: the split's hot loop
        points = [Sample(user_idx, items[max(0, t - MAX_HISTORY):t], items[t])
                  for t in range(1, len(items))]
        n_train = n - 2 * n_hold
        split.train.extend(points[:n_train])
        split.valid.extend(points[n_train:n_train + n_hold])
        split.test.extend(points[n_train + n_hold:])
        user_idx += 1
    split.n_users = user_idx
    return split
