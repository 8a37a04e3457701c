"""Group-level preference labels per verification dimension.

Three labeling dimensions: category passthrough, k-means over hashed
title-trigram embeddings, and k-means over collaborative-filtering item
embeddings. The title embedder is a dependency-free stand-in for a text
encoder; hashed character trigrams are plenty to cluster toy corpora.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng

__all__ = [
    "CfModel",
    "GroupLabeling",
    "build_labeling",
    "check_class_count_fits",
    "class_table",
    "embed_titles",
    "kmeans",
    "kmeans_objective",
    "label_by_category",
    "load_labeling",
    "save_labeling",
    "train_cf",
]

DEFAULT_CLASS_COUNT = 20
# fixed settings of the title and cf labelings, which no run tunes: the title
# trigram hash width, the CF embedding width, learning rate and epochs, and
# k-means' Lloyd-iteration cap and restart count
TITLE_DIM = 64
CF_DIM, CF_LR, CF_EPOCHS = 16, 0.05, 10
KMEANS_MAX_ITERS, KMEANS_RESTARTS = 100, 4


@dataclass
class GroupLabeling:
    """Item -> class map for one verification dimension."""

    dimension: str
    d_i: int
    labels: np.ndarray  # int64, one class per item

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.d_i):
            raise ValueError(f"labels out of range for d_i={self.d_i}")


def class_table(labelings: list[GroupLabeling], n_items: int) -> np.ndarray:
    """The (n_items, n) class of every item in each labeling's dimension.

    Refuses labelings that do not give each of the model's ``n_items`` items
    a class in 0..d_i-1, before anything trains on them.
    """
    sizes = np.array([len(lab.labels) for lab in labelings], dtype=np.int64)
    if (sizes != n_items).any():
        lab = labelings[int(np.argmax(sizes != n_items))]
        raise ValueError(f"labeling {lab.dimension!r} covers {len(lab.labels)} items, "
                         f"but the model has {n_items}")
    table = (np.stack([lab.labels for lab in labelings], axis=1) if labelings
             else np.zeros((n_items, 0), dtype=np.int64))
    bad = ((table < 0) | (table >= [lab.d_i for lab in labelings])).any(axis=0)
    if bad.any():
        lab = labelings[int(np.argmax(bad))]
        raise ValueError(f"labeling {lab.dimension!r} has classes outside 0..{lab.d_i - 1}")
    return table


@dataclass
class CfModel:
    item_emb: np.ndarray  # |I| x CF_DIM
    user_emb: np.ndarray  # |U| x CF_DIM


def label_by_category(items) -> GroupLabeling:
    """Distinct category strings become classes, indexed in first-appearance order."""
    classes: dict[str, int] = {}
    labels = np.zeros(len(items), dtype=np.int64)
    for i, item in enumerate(items):
        if item.category is None:
            raise ValueError(f"item {item.id} has no category")
        labels[i] = classes.setdefault(item.category, len(classes))
    return GroupLabeling(dimension="category", d_i=len(classes), labels=labels)


def embed_titles(items) -> np.ndarray:
    """Hashed character-trigram counts per title, L2-normalized.

    Empty or missing titles produce zero rows.
    """
    out = np.zeros((len(items), TITLE_DIM), dtype=np.float64)
    for i, item in enumerate(items):
        title = item.title or ""
        text = title.lower()
        for j in range(len(text) - 2):
            tri = text[j:j + 3]
            out[i, zlib.crc32(tri.encode("utf-8")) % TITLE_DIM] += 1.0
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


def train_cf(samples, n_items: int, n_users: int, epochs: int = CF_EPOCHS,
             seed: int = 0) -> CfModel:
    """Matrix factorization with a pairwise ranking loss.

    For each training sample the observed target is scored against one
    sampled negative item via a logistic loss on the score difference;
    user and item embeddings descend the gradient. Each epoch draws its
    negatives in one call, one per sample in sample order (a negative that
    hits the target moves to the next item, modulo the item count), then
    updates sample by sample in that order, each update's gradients taken
    from the rows before it.
    """
    rng = Rng(seed, 1)
    user_emb = rng.normal((n_users, CF_DIM), std=0.1)
    item_emb = rng.normal((n_items, CF_DIM), std=0.1)
    targets = np.array([s.target for s in samples], dtype=np.int64)
    # each row a view, so an update writes its three rows in place
    user_rows, item_rows = list(user_emb), list(item_emb)
    pairs = [(user_rows[s.user], item_rows[s.target]) for s in samples]
    lr = np.array(CF_LR)  # an array operand: numpy charges a Python float more
    for _ in range(epochs):
        neg = rng.integers(0, n_items, size=len(samples))
        hit = neg == targets
        neg[hit] = (neg[hit] + 1) % n_items
        for (u, pos), q in zip(pairs, [item_rows[i] for i in neg.tolist()]):
            diff = pos - q
            # d/dx of -log(sigmoid(x)) is sigmoid(x) - 1, on Python floats;
            # .dot reaches the BLAS ddot that @ does, without the ufunc's dispatch
            g = np.array(1.0 / (1.0 + float(np.exp(-float(u.dot(diff))))) - 1.0)
            # the negative row's gradient is -g u, so it takes the target's step
            step = lr * (g * u)
            u -= lr * (g * diff)
            pos -= step
            q += step
    return CfModel(item_emb=item_emb, user_emb=user_emb)


def _nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # squared distances; ties go to the lowest center index via argmin
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def kmeans_objective(points: np.ndarray, assign: np.ndarray, centers: np.ndarray) -> float:
    return float(((points - centers[assign]) ** 2).sum())


def _kmeans_once(points: np.ndarray, k: int, rng: Rng,
                 trace: list | None) -> tuple[np.ndarray, np.ndarray]:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[rng.integers(0, n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        if d2.sum() <= 0.0:
            centers[j] = points[rng.integers(0, n)]
        else:
            centers[j] = points[rng.choice_weighted(d2)]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))

    assign = _nearest_center(points, centers)
    if trace is not None:
        trace.append(kmeans_objective(points, assign, centers))
    for _ in range(KMEANS_MAX_ITERS):
        for j in range(k):
            members = points[assign == j]
            if len(members) == 0:
                far = int(((points - centers[assign]) ** 2).sum(axis=1).argmax())
                centers[j] = points[far]
            else:
                centers[j] = members.mean(axis=0)
        new_assign = _nearest_center(points, centers)
        if trace is not None:
            trace.append(kmeans_objective(points, new_assign, centers))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign, centers


def kmeans(points: np.ndarray, k: int, seed: int = 0,
           objective_trace: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Best of ``KMEANS_RESTARTS`` seeded k-means++ restarts with Lloyd iterations.

    Each restart runs until assignments stabilize or ``KMEANS_MAX_ITERS``; the run
    with the lowest final objective wins (ties to the earliest restart). An
    empty cluster is re-seeded to the point farthest from its assigned
    center. Nearest-center ties resolve to the lowest center index. Pass a
    list as ``objective_trace`` to collect one per-iteration objective list
    per restart.
    """
    n = points.shape[0]
    if k > n:
        raise ValueError(f"kmeans: k={k} exceeds point count {n}")
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_obj = np.inf
    for r in range(KMEANS_RESTARTS):
        trace: list | None = [] if objective_trace is not None else None
        assign, centers = _kmeans_once(points, k, Rng(seed, 3 + r), trace)
        if objective_trace is not None:
            objective_trace.append(trace)
        obj = kmeans_objective(points, assign, centers)
        if obj < best_obj:
            best_obj = obj
            best = (assign, centers)
    return best


def check_class_count_fits(dimension: str, d_i: int, n_items: int, n_categories: int) -> None:
    """Refuse a title or cf ``d_i`` above the item count, and a category
    ``d_i`` other than the corpus's category count (one class per category)."""
    if dimension == "category" and d_i != n_categories:
        raise ValueError(f"labeling 'category': d_i={d_i}, but the corpus has "
                         f"{n_categories} categories (one class each)")
    if dimension != "category" and d_i > n_items:
        raise ValueError(f"labeling {dimension!r}: d_i={d_i} exceeds the item count {n_items}")


def build_labeling(dimension: str, items, samples=None, n_users: int = 0,
                   d_i: int | None = None, seed: int = 0) -> GroupLabeling:
    """Compose a labeling for one dimension: category, title, or cf.

    A labeling with fewer than 2 classes is refused: its verifier's entropy
    is always 0, so confidence is full and every step becomes the prototype.
    So is a ``d_i`` that ``check_class_count_fits`` refuses, before any
    training.
    """
    if dimension == "category":
        labeling = label_by_category(items)
        if d_i is not None:
            check_class_count_fits(dimension, d_i, len(items), labeling.d_i)
    else:
        if dimension not in ("title", "cf"):
            raise ValueError(f"unknown labeling dimension {dimension!r}")
        k = DEFAULT_CLASS_COUNT if d_i is None else d_i
        check_class_count_fits(dimension, k, len(items), 0)
        if dimension == "title":
            emb = embed_titles(items)
        else:
            if samples is None:
                raise ValueError("cf labeling requires train samples")
            emb = train_cf(samples, n_items=len(items), n_users=n_users, seed=seed).item_emb
        assign, _ = kmeans(emb, k, seed=seed)
        labeling = GroupLabeling(dimension=dimension, d_i=k, labels=assign)
    if labeling.d_i < 2:
        raise ValueError(f"labeling {dimension!r} yields {labeling.d_i} class(es); "
                         "a verifier needs at least 2")
    return labeling


def save_labeling(labeling: GroupLabeling, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"dimension": labeling.dimension, "d_i": labeling.d_i}) + "\n")
        for item_id, cls in enumerate(labeling.labels):
            fh.write(json.dumps({"item": int(item_id), "class": int(cls)}) + "\n")


def load_labeling(path: str | Path) -> GroupLabeling:
    with Path(path).open(encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        pairs = [json.loads(line) for line in fh if line.strip()]
    labels = np.zeros(len(pairs), dtype=np.int64)
    for p in pairs:
        labels[int(p["item"])] = int(p["class"])
    return GroupLabeling(dimension=header["dimension"], d_i=int(header["d_i"]), labels=labels)
