"""Ingestion, synthetic generation, and chronological split tests."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrec.datasets import (
    MAX_HISTORY,
    MIN_LOG_LENGTH,
    InteractionLog,
    Sample,
    Split,
    SynthConfig,
    chronological_split,
    generate_synthetic,
    ingest,
)


def write_jsonl(path, rows):
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


@pytest.fixture
def tiny_corpus(tmp_path):
    items = tmp_path / "items.jsonl"
    inter = tmp_path / "interactions.jsonl"
    write_jsonl(items, [
        {"id": 10, "title": "alpha", "category": "a"},
        {"id": 20, "title": "beta", "category": "b"},
        {"id": 30, "title": "gamma", "category": "a"},
    ])
    write_jsonl(inter, [
        {"user": "u1", "items": [10, 30, 20], "timestamps": [5, 1, 9]},
    ])
    return items, inter


def test_ingest_tiny_fixture(tiny_corpus):
    items, logs = ingest(*tiny_corpus)
    assert len(items) == 3 and len(logs) == 1
    assert [it.id for it in items] == [0, 1, 2]


def test_ingest_takes_a_string_null_or_absent_title_and_category(tmp_path):
    items, inter = tmp_path / "items.jsonl", tmp_path / "interactions.jsonl"
    write_jsonl(items, [{"id": 1, "title": "x", "category": "c"},
                        {"id": 2, "title": None, "category": None}, {"id": 3}])
    write_jsonl(inter, [])
    loaded, _ = ingest(items, inter)
    assert [(it.title, it.category) for it in loaded] == [("x", "c"), (None, None), (None, None)]


def test_ingest_sorts_timestamps(tiny_corpus):
    _, logs = ingest(*tiny_corpus)
    assert logs[0].timestamps == [1, 5, 9]
    # item 30 (dense id 2) interacted at t=1, so it comes first
    assert logs[0].items == [2, 0, 1]


def test_ingest_duplicate_item_id_fails(tmp_path):
    items = tmp_path / "items.jsonl"
    inter = tmp_path / "interactions.jsonl"
    write_jsonl(items, [{"id": 1, "title": "x", "category": "c"},
                        {"id": 1, "title": "y", "category": "c"}])
    write_jsonl(inter, [])
    with pytest.raises(ValueError, match=r"items\.jsonl:2.*duplicate item id 1"):
        ingest(items, inter)


def test_ingest_unknown_item_fails(tmp_path):
    items = tmp_path / "items.jsonl"
    inter = tmp_path / "interactions.jsonl"
    write_jsonl(items, [{"id": 1, "title": "x", "category": "c"}])
    write_jsonl(inter, [{"user": "u", "items": [1, 99], "timestamps": [0, 1]}])
    with pytest.raises(ValueError, match="unknown item id 99"):
        ingest(items, inter)


def test_ingest_malformed_line_reports_lineno(tmp_path):
    items = tmp_path / "items.jsonl"
    inter = tmp_path / "interactions.jsonl"
    items.write_text('{"id": 1}\n{not json\n', encoding="utf-8")
    write_jsonl(inter, [])
    with pytest.raises(ValueError, match=r"items\.jsonl:2.*malformed"):
        ingest(items, inter)


@pytest.mark.parametrize("item_lines, interaction, message", [
    (['{"id": 1}', '{"id": 1.5}'], None, r"items\.jsonl:2: item id must be an integer, got 1\.5"),
    (['{"id": true}'], None, r"items\.jsonl:1: item id must be an integer, got true"),
    (['{"id": "x"}'], None, r"items\.jsonl:1: item id must be an integer, got \"x\""),
    (['5'], None, r"items\.jsonl:1: expected a JSON object, got 5"),
    (['{"id": 1}', '{"id": 2}'], '{"user": "u", "items": [1, 2.9], "timestamps": [0, 1]}',
     r"interactions\.jsonl:1: item id must be an integer, got 2\.9"),
    (['{"id": 1}'], '{"user": "u", "items": [1], "timestamps": [1.5]}',
     r"interactions\.jsonl:1: timestamp must be an integer, got 1\.5"),
    (['{"id": 1}'], '{"user": "u", "items": [1], "timestamps": ["t"]}',
     r"interactions\.jsonl:1: timestamp must be an integer, got \"t\""),
    (['{"id": 1}'], '5', r"interactions\.jsonl:1: expected a JSON object, got 5"),
    (['{"id": 1}'], '{"user": "u", "items": "1", "timestamps": "0"}',
     r"interactions\.jsonl:1: 'items' and 'timestamps' must be lists"),
    (['{"id": 3, "title": "x"}', '{"id": 4, "title": 5, "category": "a"}'], None,
     r"items\.jsonl:2: item title must be a string or null, got 5"),
    (['{"id": 3, "title": "x", "category": 7}'], None,
     r"items\.jsonl:1: item category must be a string or null, got 7"),
    (['{"id": 3, "title": ["x"]}'], None,
     r"items\.jsonl:1: item title must be a string or null, got \[\"x\"\]"),
    (['{"id": 3, "category": true}'], None,
     r"items\.jsonl:1: item category must be a string or null, got true"),
])
def test_ingest_refuses_non_integer_ids_and_non_object_lines(tmp_path, item_lines,
                                                             interaction, message):
    items, inter = tmp_path / "items.jsonl", tmp_path / "interactions.jsonl"
    items.write_text("\n".join(item_lines) + "\n", encoding="utf-8")
    inter.write_text(f"{interaction}\n" if interaction else "", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        ingest(items, inter)


def _is_integer(value) -> bool:
    """The rule ingest reads ids and timestamps by: an int or decimal digits."""
    if isinstance(value, str):
        body = value[1:] if value[:1] in ("+", "-") else value
        return body != "" and all(c in "0123456789" for c in body)
    return isinstance(value, int) and not isinstance(value, bool)


ID_VALUES = st.one_of(st.integers(-3, 9), st.integers(-3, 9).map(str),
                      st.floats(allow_nan=False), st.booleans(), st.none(),
                      st.text("0123456789+-. x", max_size=3), st.lists(st.integers(0, 3), max_size=2))
LINES = st.one_of(ID_VALUES.map(lambda v: {"id": v}), ID_VALUES)  # an object or a bare value


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(LINES, min_size=1, max_size=4))
def test_items_load_exactly_when_every_line_is_an_object_with_a_new_integer_id(tmp_path, lines):
    items, inter = tmp_path / "items.jsonl", tmp_path / "interactions.jsonl"
    write_jsonl(items, lines)
    inter.write_text("", encoding="utf-8")
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not isinstance(line, dict) or not _is_integer(line["id"]):
            expected = "expected a JSON object" if not isinstance(line, dict) else "must be an integer"
            break
        if int(line["id"]) in seen:
            expected = "duplicate item id"
            break
        seen.add(int(line["id"]))
    else:
        loaded, _ = ingest(items, inter)
        assert [it.id for it in loaded] == list(range(len(lines)))
        return
    with pytest.raises(ValueError, match=rf"items\.jsonl:{lineno}: .*{expected}"):
        ingest(items, inter)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=st.lists(st.tuples(ID_VALUES, ID_VALUES), max_size=4))
def test_interactions_load_exactly_when_ids_and_timestamps_are_integers(tmp_path, pairs):
    items, inter = tmp_path / "items.jsonl", tmp_path / "interactions.jsonl"
    write_jsonl(items, [{"id": i} for i in range(-3, 10)])  # dense id = id + 3
    ids, times = [p[0] for p in pairs], [p[1] for p in pairs]
    write_jsonl(inter, [{"user": "u", "items": ids, "timestamps": times}])
    if not all(_is_integer(v) for v in ids + times):
        with pytest.raises(ValueError, match=r"interactions\.jsonl:1: .* must be an integer"):
            ingest(items, inter)
    elif not all(-3 <= int(v) < 10 for v in ids):
        with pytest.raises(ValueError, match=r"interactions\.jsonl:1: unknown item id"):
            ingest(items, inter)
    else:
        _, [log] = ingest(items, inter)
        order = sorted(range(len(pairs)), key=lambda j: int(times[j]))
        assert log.items == [int(ids[j]) + 3 for j in order]
        assert log.timestamps == sorted(int(t) for t in times)


def test_synthetic_stickiness_one_stays_in_one_group():
    items, logs, labeling = generate_synthetic(
        SynthConfig(n_users=20, n_items=40, n_groups=4, stickiness=1.0, seed=0))
    for log in logs:
        groups = {int(labeling.labels[i]) for i in log.items}
        assert len(groups) == 1


def test_synthetic_single_group_ignores_stickiness():
    a = generate_synthetic(SynthConfig(n_users=5, n_items=10, n_groups=1, stickiness=0.0, seed=3))
    for log in a[1]:
        assert {int(a[2].labels[i]) for i in log.items} == {0}


def test_synthetic_empirical_stay_rate():
    items, logs, labeling = generate_synthetic(
        SynthConfig(n_users=600, n_items=40, n_groups=4, stickiness=0.9,
                    seq_len_range=(18, 22), seed=1))
    stays = trans = 0
    for log in logs:
        gs = labeling.labels[log.items]
        trans += len(gs) - 1
        stays += int((gs[:-1] == gs[1:]).sum())
    assert trans > 10_000
    assert abs(stays / trans - 0.9) < 0.02


def test_synthetic_bit_reproducible():
    cfg = SynthConfig(n_users=10, n_items=20, n_groups=2, seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert [(i.title, i.category) for i in a[0]] == [(i.title, i.category) for i in b[0]]
    assert all(x.items == y.items for x, y in zip(a[1], b[1]))
    assert np.array_equal(a[2].labels, b[2].labels)


def test_synthetic_rejects_bad_config():
    with pytest.raises(ValueError, match="n_groups"):
        SynthConfig(n_items=3, n_groups=5)
    with pytest.raises(ValueError, match="stickiness"):
        SynthConfig(stickiness=1.5)


def make_log(n_items_in_log):
    return InteractionLog(user="u", items=list(range(n_items_in_log)),
                          timestamps=list(range(n_items_in_log)))


def test_split_ratio_100_points():
    split = chronological_split([make_log(101)])  # 100 prediction points
    assert (len(split.train), len(split.valid), len(split.test)) == (80, 10, 10)


def test_split_ratio_10_points():
    split = chronological_split([make_log(11)])
    assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)


def test_split_history_truncated_to_10():
    split = chronological_split([make_log(16)])  # history of length 15 at the last point
    last = split.test[-1] if split.test else split.train[-1]
    assert len(last.history) == 10
    assert last.history == list(range(5, 15)) and last.target == 15


def test_split_short_log_skipped_and_counted():
    split = chronological_split([make_log(2), make_log(5)])
    assert split.skipped_users == 1
    assert split.n_users == 1


def test_split_chronology_and_sizes():
    items, logs, _ = generate_synthetic(
        SynthConfig(n_users=30, n_items=30, n_groups=3, seq_len_range=(3, 40), seed=4))
    split = chronological_split(logs)
    by_user = {}
    for name, part in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        for s in part:
            by_user.setdefault(s.user, {"train": [], "valid": [], "test": []})[name].append(s)
    kept_logs = [log for log in logs if len(log.items) >= 3]
    assert len(by_user) == len(kept_logs)
    for u, parts in by_user.items():
        n = len(parts["train"]) + len(parts["valid"]) + len(parts["test"])
        assert len(parts["valid"]) == n // 10
        assert len(parts["test"]) == n // 10
        # train -> valid -> test concatenated must replay the log's prediction
        # points in order, so no test target precedes a train target
        targets = [s.target for s in parts["train"] + parts["valid"] + parts["test"]]
        assert targets == kept_logs[u].items[1:]
        for s in parts["train"] + parts["valid"] + parts["test"]:
            assert 1 <= len(s.history) <= 10


def keyword_split(logs) -> Split:
    """The split built with keyword arguments and attribute reads, as it was
    before ``chronological_split`` built each sample positionally."""
    split = Split(train=[], valid=[], test=[])
    user_idx = 0
    for log in logs:
        if len(log.items) < MIN_LOG_LENGTH:
            split.skipped_users += 1
            continue
        n = len(log.items) - 1
        n_hold = n // 10
        points = [Sample(user=user_idx, history=log.items[max(0, t - MAX_HISTORY):t],
                         target=log.items[t]) for t in range(1, len(log.items))]
        n_train = n - 2 * n_hold
        split.train.extend(points[:n_train])
        split.valid.extend(points[n_train:n_train + n_hold])
        split.test.extend(points[n_train + n_hold:])
        user_idx += 1
    split.n_users = user_idx
    return split


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 30), max_size=30), max_size=8))
def test_split_equals_the_keyword_built_split(seqs):
    # logs of every length from 0, so some fall below MIN_LOG_LENGTH
    logs = [InteractionLog(user=f"u{i}", items=seq, timestamps=list(range(len(seq))))
            for i, seq in enumerate(seqs)]
    assert chronological_split(logs) == keyword_split(logs)
