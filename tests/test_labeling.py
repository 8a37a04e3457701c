"""Labeling-dimension tests: category passthrough, title trigrams, CF, k-means."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vrec.labeling
from oracles import cf_pair_loss, kernel_pin, train_cf_oracle
from vrec.datasets import Item, Sample, SynthConfig, chronological_split, generate_synthetic
from vrec.labeling import (
    build_labeling,
    embed_titles,
    kmeans,
    kmeans_objective,
    label_by_category,
    load_labeling,
    save_labeling,
    train_cf,
)


def items_with_categories(cats):
    return [Item(id=i, title=f"t{i}", category=c) for i, c in enumerate(cats)]


def test_category_passthrough():
    lab = label_by_category(items_with_categories(["jazz", "rock", "jazz"]))
    assert list(lab.labels) == [0, 1, 0]
    assert lab.d_i == 2


def test_category_single_class():
    lab = label_by_category(items_with_categories(["x"] * 5))
    assert lab.d_i == 1 and set(lab.labels) == {0}


def test_category_many_classes():
    cats = [f"c{i % 27}" for i in range(100)]
    assert label_by_category(items_with_categories(cats)).d_i == 27


def test_category_missing_fails():
    items = items_with_categories(["a", "b"])
    items[1].category = None
    with pytest.raises(ValueError, match="item 1"):
        label_by_category(items)


def test_title_embeddings_identical_titles_identical_rows():
    items = [Item(id=0, title="same words"), Item(id=1, title="same words")]
    emb = embed_titles(items)
    assert np.array_equal(emb[0], emb[1])


def test_title_embeddings_unit_norm_and_empty_zero():
    items = [Item(id=0, title="hello world"), Item(id=1, title=""), Item(id=2, title=None)]
    emb = embed_titles(items)
    assert np.linalg.norm(emb[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.all(emb[1] == 0) and np.all(emb[2] == 0)


def test_title_trigram_cosine_below_one():
    # "abc" and "abd" share no trigram; crc32 buckets 2 and 33 at dim=64 don't collide
    emb = embed_titles([Item(id=0, title="abc"), Item(id=1, title="abd")])
    assert float(emb[0] @ emb[1]) < 1.0 - 1e-9


@pytest.fixture(scope="module")
def synth():
    items, logs, planted = generate_synthetic(
        SynthConfig(n_users=60, n_items=40, n_groups=4, stickiness=0.9,
                    seq_len_range=(15, 25), seed=42))
    return items, logs, planted, chronological_split(logs)


def purity_vs(labels, truth, k):
    hit = 0
    for c in range(k):
        mask = labels == c
        if mask.sum():
            hit += np.bincount(truth[mask], minlength=truth.max() + 1).max()
    return hit / len(labels)


def test_cf_repeat_item_ranks_first():
    samples = [Sample(user=0, history=[3], target=3)] * 30
    model = train_cf(samples, n_items=10, n_users=1, epochs=10, seed=0)
    scores = model.user_emb[0] @ model.item_emb.T
    assert int(scores.argmax()) == 3


def test_cf_loss_decreases(synth):
    _, _, _, split = synth
    m0 = train_cf(split.train, n_items=40, n_users=split.n_users, epochs=0, seed=42)
    m5 = train_cf(split.train, n_items=40, n_users=split.n_users, epochs=5, seed=42)
    assert cf_pair_loss(m5, split.train, seed=7) < cf_pair_loss(m0, split.train, seed=7)


def test_cf_deterministic(synth):
    _, _, _, split = synth
    a = train_cf(split.train, n_items=40, n_users=split.n_users, epochs=2, seed=5)
    b = train_cf(split.train, n_items=40, n_users=split.n_users, epochs=2, seed=5)
    assert np.array_equal(a.item_emb, b.item_emb)
    assert np.array_equal(a.user_emb, b.user_emb)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_users=st.integers(1, 6), n_items=st.integers(1, 12),
       epochs=st.integers(0, 3),
       draws=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=40))
# two items: about half the negatives hit the target and move to the other item
@example(seed=3, n_users=2, n_items=2, epochs=3, draws=[(0, 0), (1, 1), (0, 1), (1, 0)] * 5)
def test_train_cf_matches_the_oracle_loop_bit_for_bit(seed, n_users, n_items, epochs, draws):
    samples = [Sample(user=u % n_users, history=[], target=t % n_items) for u, t in draws]
    got = train_cf(samples, n_items=n_items, n_users=n_users, epochs=epochs, seed=seed)
    want = train_cf_oracle(samples, n_items=n_items, n_users=n_users, epochs=epochs, seed=seed)
    assert got.item_emb.tobytes() == want.item_emb.tobytes()
    assert got.user_emb.tobytes() == want.user_emb.tobytes()


# sha256 of train_cf's item then user embeddings on the benchmark's training
# corpus (48 users, 96 items, seed 1), per OpenBLAS kernel: the dot product
# of each update rounds as the kernel's ddot sums. Recorded with the
# one-draw-per-sample loop that tests/oracles.train_cf_oracle keeps.
CF_DIGESTS = {
    "SkylakeX": "9feda47a6242deee83a530edec5e3a2c3dd61f00fffc6212726f4cadeca7b5ea",
    "Haswell": "b633f6176182f0b35bfe7be8f029c7fb98df616516d0d1f0c9b2cda931ab3294",
    "Sandybridge": "b633f6176182f0b35bfe7be8f029c7fb98df616516d0d1f0c9b2cda931ab3294",
    "Nehalem": "587d37bb4a5058e9535dce383c883e58da7d300e9be88e048e3547e1f628c0f2",
    "Katmai": "587d37bb4a5058e9535dce383c883e58da7d300e9be88e048e3547e1f628c0f2",
}


def test_cf_embeddings_pinned():
    want = kernel_pin(CF_DIGESTS)
    items, logs, _ = generate_synthetic(
        SynthConfig(n_users=48, n_items=96, n_groups=6, stickiness=0.8,
                    seq_len_range=(16, 24), seed=1))
    split = chronological_split(logs)
    for train in (train_cf, train_cf_oracle):
        model = train(split.train, n_items=len(items), n_users=split.n_users, seed=1)
        digest = hashlib.sha256(model.item_emb.tobytes() + model.user_emb.tobytes())
        assert digest.hexdigest() == want, train.__name__


def test_kmeans_two_points_two_clusters():
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    assign, centers = kmeans(pts, 2, seed=0)
    assert assign[0] != assign[1]


def test_kmeans_identical_points_degenerate():
    pts = np.ones((6, 3))
    assign, centers = kmeans(pts, 2, seed=0)
    assert len(set(assign.tolist())) == 1


def test_kmeans_k_exceeds_points_fails():
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(np.zeros((2, 2)), 3)


def test_kmeans_planted_clusters_pure():
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    a = rng.standard_normal((30, 4))
    b = rng.standard_normal((30, 4)) + 40.0  # 10 sigma apart at unit scale
    pts = np.vstack([a, b])
    assign, _ = kmeans(pts, 2, seed=1)
    truth = np.array([0] * 30 + [1] * 30)
    assert purity_vs(assign, truth, 2) == 1.0


def test_kmeans_deterministic():
    pts = np.random.Generator(np.random.Philox(key=np.array([6, 0], dtype=np.uint64))).standard_normal((40, 5))
    a1, c1 = kmeans(pts, 4, seed=3)
    a2, c2 = kmeans(pts, 4, seed=3)
    assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
def test_kmeans_objective_non_increasing(seed, k):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    pts = rng.standard_normal((25, 3))
    traces: list = []
    kmeans(pts, k, seed=seed, objective_trace=traces)
    for trace in traces:
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_build_labeling_title_covers_all_items(synth):
    items, _, planted, _ = synth
    lab = build_labeling("title", items, d_i=4, seed=42)
    assert lab.d_i == 4
    assert lab.labels.shape == (len(items),)
    assert purity_vs(lab.labels, planted.labels, 4) == 1.0


def test_build_labeling_cf_recovers_planted_groups(synth):
    items, _, planted, split = synth
    lab = build_labeling("cf", items, samples=split.train, n_users=split.n_users,
                         d_i=4, seed=42)
    assert purity_vs(lab.labels, planted.labels, 4) >= 0.9


def test_build_labeling_default_class_count():
    items = [Item(id=i, title=f"title number {i} with words {i * 7}") for i in range(50)]
    lab = build_labeling("title", items, seed=0)
    assert lab.d_i == 20


def test_build_labeling_unknown_dimension():
    with pytest.raises(ValueError, match="unknown labeling dimension"):
        build_labeling("mood", [])


@pytest.mark.parametrize("dimension", ["category", "title"])
def test_build_labeling_rejects_one_class(dimension):
    items = items_with_categories(["x"] * 5)
    with pytest.raises(ValueError, match=f"'{dimension}'.*at least 2"):
        build_labeling(dimension, items, d_i=1)


def test_build_labeling_refuses_category_d_i_other_than_its_categories():
    items = items_with_categories(["jazz", "rock", "pop", "jazz"])
    for d_i in (2, 7):
        with pytest.raises(ValueError, match=f"'category': d_i={d_i}, but the corpus has 3 "):
            build_labeling("category", items, d_i=d_i)
    assert build_labeling("category", items, d_i=3).d_i == 3
    assert build_labeling("category", items).d_i == 3


@pytest.mark.parametrize("dimension", ["title", "cf"])
def test_build_labeling_refuses_more_classes_than_items(dimension, monkeypatch):
    for name in ("embed_titles", "train_cf", "kmeans"):
        monkeypatch.setattr(vrec.labeling, name, lambda *a, **kw: pytest.fail("labeling began"))
    items = items_with_categories(["x"] * 8)
    with pytest.raises(ValueError, match=f"'{dimension}': d_i=9 exceeds the item count 8"):
        build_labeling(dimension, items, samples=[Sample(user=0, history=[0], target=1)],
                       n_users=1, d_i=9)


def test_planted_labeling_with_one_group_allowed():
    _, _, planted = generate_synthetic(SynthConfig(n_users=5, n_items=6, n_groups=1, seed=0))
    assert planted.d_i == 1 and set(planted.labels) == {0}


def test_labeling_roundtrip_jsonl(tmp_path, synth):
    items, _, _, _ = synth
    lab = build_labeling("title", items, d_i=4, seed=42)
    path = tmp_path / "labels.jsonl"
    save_labeling(lab, path)
    back = load_labeling(path)
    assert back.dimension == lab.dimension and back.d_i == lab.d_i
    assert np.array_equal(back.labels, lab.labels)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert '"dimension"' in first and '"d_i"' in first
