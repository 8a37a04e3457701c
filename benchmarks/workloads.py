"""The three benchmark workloads: configuration, set-up, timed loops and checks.

Every call into vrec goes through a module attribute (``training.finetune``,
``reasoning.run_reasoning``, ...) so that the layer trace in ``layertrace.py`` can
swap in its wrappers without touching the library.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hostclock import HostClock
from vrec import (backbone, checkpoint, datasets, evaluation, labeling, reasoning,
                  training, verifiers)

# Training corpus (train_pipeline): 96 items in 6 planted groups, sequences of
# 16-24 items, so nearly every history is cut to MAX_HISTORY.
CORPUS = dict(n_items=96, n_groups=6, stickiness=0.8, seq_len_range=(16, 24))
TRAIN_USERS = 48
# Request corpus: users held out from training, drawn from the same generator
# under another seed stream. Its test and valid histories are the requests.
REQUEST_USERS = 500
REQUEST_SEED_OFFSET = 1_000_003
MODEL = dict(d_m=24, layers=1, heads=2, max_positions=32)
DIMENSIONS = (("category", None), ("title", 6), ("cf", 6))
HYPER = dict(lr=3e-3, batch=16)
EPOCHS = {"stage0": 1, "stage1": 2, "stage2": 1}
STAGES = ("stage0", "collect", "stage1", "stage2", "eval")
K = 10
# Set-up runs this many times before the measured pass and as many after it,
# so that its median spans the run rather than one moment of it.
SETUP_REPS = 4
MIN_LATENCY_SAMPLES = 1000  # p99 needs ten samples above it
# The trained model serves this many distinct held-out requests, which give
# recall@10 and NDCG@10; it must beat QUALITY_FLOOR times chance (K / n_items).
QUALITY_REQUESTS = MIN_LATENCY_SAMPLES
QUALITY_FLOOR = 2.0
PROBES = 8  # histories served at the start and at the end of each serve loop


@dataclass(frozen=True)
class Workload:
    name: str
    m: int
    bank: bool
    train: bool
    trace_requests: int  # fixed request count of one traced serve pass


WORKLOADS = {
    w.name: w for w in (
        Workload("train_pipeline", m=2, bank=True, train=True, trace_requests=0),
        Workload("serve_deep", m=8, bank=True, train=False, trace_requests=600),
        Workload("serve_plain", m=0, bank=False, train=False, trace_requests=4000),
    )
}


class ConfigInvalid(ValueError):
    """A workload configuration that would fail part-way through a run."""


def model_config(w: Workload, seed: int) -> backbone.ModelConfig:
    return backbone.ModelConfig(n_items=CORPUS["n_items"], m=w.m, seed=seed, **MODEL)


def validate(w: Workload, seed: int) -> None:
    """Reject a configuration up front, before anything is timed."""
    lo, hi = CORPUS["seq_len_range"]
    need = datasets.MAX_HISTORY + w.m
    if MODEL["max_positions"] < need:
        raise ConfigInvalid(f"{w.name}: max_positions {MODEL['max_positions']} < "
                            f"MAX_HISTORY + m = {need}")
    if not datasets.MIN_LOG_LENGTH <= lo <= hi:
        raise ConfigInvalid(f"{w.name}: bad seq_len_range {(lo, hi)}")
    if CORPUS["n_groups"] > CORPUS["n_items"]:
        raise ConfigInvalid(f"{w.name}: more groups than items")
    # every user yields at least one test and one valid history
    min_requests = 2 * REQUEST_USERS * ((lo - 1) // 10)
    if min_requests < QUALITY_REQUESTS:
        raise ConfigInvalid(f"{w.name}: {min_requests} requests cannot cover a quality "
                            f"set of {QUALITY_REQUESTS}")
    if seed < 0:
        raise ConfigInvalid(f"seed must be non-negative, got {seed}")
    if w.bank and w.m == 0:
        raise ConfigInvalid(f"{w.name}: a verifier bank needs m > 0")
    for _, d_i in DIMENSIONS:
        if d_i is not None and not 1 < d_i <= CORPUS["n_items"]:
            raise ConfigInvalid(f"{w.name}: d_i {d_i} out of range")
    model_config(w, seed)  # ModelConfig checks d_m % heads and m >= 0


@dataclass
class State:
    """What set-up hands to the timed loop."""

    requests: list  # vrec Samples served in a seeded order
    split: datasets.Split | None = None
    labelings: list = field(default_factory=list)
    model: backbone.Backbone | None = None
    bank: verifiers.VerifierBank | None = None


@dataclass
class Tally:
    """Work done and checks failed in one measured pass. Intervals are kept as
    pairs of clock stamps and turned into seconds once the clock has stopped."""

    clock: HostClock
    attempted: int = 0
    failed: int = 0
    requests: int = 0  # served, probes included
    # start and work time of each timed request, kept compact so that peak
    # RSS does not grow with the request rate
    request_t0: array = field(default_factory=lambda: array("d"))
    request_s: array = field(default_factory=lambda: array("d"))
    stage_spans: dict = field(default_factory=dict)  # stage -> its interval
    stage_samples: dict = field(default_factory=lambda: {s: 0 for s in STAGES})
    quality: tuple[float, float] | None = None  # (recall, ndcg) of the quality set
    test_quality: tuple[float, float] | None = None  # (recall, ndcg) of the eval stage

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def latencies(self, adjusted: bool = True) -> list[float]:
        if not adjusted:
            return list(self.request_s)
        speed = self.clock.speed
        return [s * speed(t, t + s) for t, s in zip(self.request_t0, self.request_s)]

    def stage_s(self, adjusted: bool = True) -> dict[str, float]:
        span = self.clock.adjusted if adjusted else self.clock.raw
        return {s: span(*self.stage_spans[s]) if s in self.stage_spans else 0.0
                for s in STAGES}


def _synth(seed: int, n_users: int) -> datasets.SynthConfig:
    return datasets.SynthConfig(n_users=n_users, seed=seed, **CORPUS)


def _requests(seed: int) -> list:
    _, logs, _ = datasets.generate_synthetic(_synth(seed + REQUEST_SEED_OFFSET, REQUEST_USERS))
    split = datasets.chronological_split(logs)
    pool = split.test + split.valid
    order = np.random.default_rng(seed).permutation(len(pool))
    return [pool[i] for i in order]


def _dimensions(labelings=None) -> list[tuple[str, int]]:
    if labelings:
        return [(lab.dimension, lab.d_i) for lab in labelings]
    return [(name, CORPUS["n_groups"] if d_i is None else d_i) for name, d_i in DIMENSIONS]


def setup(w: Workload, seed: int, workdir: Path) -> State:
    """Corpus generation and, per workload, labeling or a checkpoint round trip."""
    requests = _requests(seed)
    if w.train:
        items, logs, _ = datasets.generate_synthetic(_synth(seed, TRAIN_USERS))
        split = datasets.chronological_split(logs)
        labelings = [labeling.build_labeling(name, items, samples=split.train,
                                             n_users=split.n_users, d_i=d_i, seed=seed)
                     for name, d_i in DIMENSIONS]
        return State(requests=requests, split=split, labelings=labelings)
    model = backbone.Backbone(model_config(w, seed))
    bank = verifiers.make_bank(_dimensions(), d_m=MODEL["d_m"], seed=seed) if w.bank else None
    path = workdir / "serve.ckpt"
    checkpoint.save_model(path, model, bank)
    model, bank = checkpoint.load_model(path)
    return State(requests=requests, model=model, bank=bank)


@contextmanager
def settled():
    """Collect set-up garbage and keep what set-up built out of the cyclic
    collector's reach while timing, so that its pauses scale with what the
    program allocates, not with the size of the benchmark's inputs."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_setup(w: Workload, seed: int, workdir: Path, reps: int,
                clock: HostClock) -> tuple[State, list]:
    """Run set-up ``reps`` times; return the last state and every interval."""
    spans = []
    for _ in range(reps):
        gc.collect()  # each set-up starts from a heap without garbage
        a = clock.stamp()
        state = setup(w, seed, workdir)
        spans.append((a, clock.stamp()))
    return state, spans


def _serve(model, bank, m: int, requests: list, tally: Tally, count: int,
           seconds: float = 0.0, quality: int = 0) -> None:
    """Closed loop, one client, no think time.

    Serves at least ``count`` requests and keeps going until ``seconds``
    have passed. Latency runs from the call to ``run_reasoning`` until
    ``recommend`` returns. The first ``quality`` requests (all distinct)
    give recall@10 and NDCG@10. A probe set is served before and after the
    loop and must rank identically both times, which catches state that
    leaks from one request into the next.
    """
    n_items = model.cfg.n_items
    identity = np.arange(n_items)

    def rank(history):
        tally.requests += 1
        _, hidden = reasoning.run_reasoning(model, bank, history, m)
        return reasoning.recommend(model, hidden)

    probes = [s.history for s in requests[:PROBES]]
    before = [rank(h) for h in probes]
    hits = gains = 0.0
    t_end = time.perf_counter() + seconds
    i = 0
    while i < count or time.perf_counter() < t_end:
        s = requests[i % len(requests)]
        i += 1
        try:
            a = tally.clock.stamp()
            ranked = rank(s.history)
            tally.request_t0.append(a[0])
            tally.request_s.append(tally.clock.raw(a, tally.clock.stamp()))
        except Exception:  # the loop is a server: count the failure, go on
            traceback.print_exc()
            tally.check(False, f"request {i} raised")
            continue
        tally.check(np.array_equal(np.sort(ranked), identity),
                    f"request {i}: ranking is not a permutation of 0..{n_items - 1}")
        if i <= quality:
            hits += evaluation.recall_at_k(ranked, s.target, K)
            gains += evaluation.ndcg_at_k(ranked, s.target, K)
    after = [rank(h) for h in probes]
    tally.check(all(np.array_equal(a, b) for a, b in zip(before, after)),
                "probe rankings changed between the start and the end of the loop")
    if quality:
        tally.quality = (hits / quality, gains / quality)
        _check_quality(tally, *tally.quality, "served requests")


def _check_quality(tally: Tally, recall: float, ndcg: float, what: str) -> None:
    tally.check(0.0 <= recall <= 1.0 and 0.0 <= ndcg <= 1.0,
                f"{what}: recall {recall} or ndcg {ndcg} outside [0, 1]")


def _finite(values, what: str, tally: Tally) -> None:
    tally.check(all(math.isfinite(v) for v in values), f"{what}: non-finite loss")


def pipeline(w: Workload, seed: int, state: State, workdir: Path, tally: Tally,
             serve_s: float = 0.0, on_stage=None) -> None:
    """The three stages as the CLI runs them from gen-data to eval, saving a
    checkpoint after each, then the trained model serves the quality set and
    goes on serving for ``serve_s`` seconds."""
    split, labelings = state.split, state.labelings
    hyper = training.TrainHyper(seed=seed, **HYPER)
    samples = {"stage0": len(split.train) * EPOCHS["stage0"], "collect": len(split.train),
               "stage1": len(split.train) * EPOCHS["stage1"],
               "stage2": len(split.train) * EPOCHS["stage2"], "eval": len(split.test)}
    out = {}

    def stage0():
        out["model"] = model = backbone.Backbone(model_config(w, seed))
        losses = training.pretrain_backbone(
            model, split.train, replace(hyper, epochs=EPOCHS["stage0"]))
        checkpoint.save_model(workdir / "stage0.ckpt", model)
        _finite(losses, "stage 0", tally)

    def collect():
        out["dataset"] = training.collect_verifier_dataset(
            out["model"], split.train, labelings, m=w.m)
        tally.check(len(out["dataset"]) == len(split.train), "stage 1 collection size")

    def stage1():  # a non-finite loss raises inside the stage
        out["bank"] = bank = verifiers.make_bank(_dimensions(labelings), d_m=MODEL["d_m"],
                                                 seed=seed)
        stats = training.pretrain_verifiers(bank, out["dataset"],
                                            replace(hyper, epochs=EPOCHS["stage1"]))
        checkpoint.save_model(workdir / "stage1.ckpt", out["model"], bank)
        tally.check(all((math.isnan(acc) or 0.0 <= acc <= 1.0)
                        and (math.isnan(ent) or ent >= 0.0) for acc, ent in stats),
                    "stage 1: verifier accuracy or negative entropy out of range")

    def stage2():
        rows = training.finetune(out["model"], out["bank"], split.train, labelings,
                                 replace(hyper, epochs=EPOCHS["stage2"]),
                                 valid_samples=split.valid)
        checkpoint.save_model(workdir / "final.ckpt", out["model"], out["bank"])
        _finite([r[key] for r in rows for key in ("L_r", "L_v", "L_m", "total")],
                "stage 2", tally)

    def evaluate():
        out["model"], out["bank"] = checkpoint.load_model(workdir / "final.ckpt")
        report = evaluation.evaluate(out["model"], out["bank"], split.test, m=w.m, ks=(K,))
        tally.test_quality = (report.recall[K], report.ndcg[K])
        _check_quality(tally, *tally.test_quality, "test split")

    for name, run in zip(STAGES, (stage0, collect, stage1, stage2, evaluate)):
        if on_stage:
            on_stage(name)
        a = tally.clock.stamp()
        try:
            run()
        except (FloatingPointError, ValueError):
            traceback.print_exc()
            tally.check(False, f"{name} raised")
            return
        tally.stage_spans[name] = (a, tally.clock.stamp())
        tally.stage_samples[name] = samples[name]
    if on_stage:
        on_stage("serve")
    _serve(out["model"], out["bank"], w.m, state.requests, tally, QUALITY_REQUESTS,
           serve_s, quality=QUALITY_REQUESTS)
    recall = tally.quality[0]
    chance = K / CORPUS["n_items"]
    tally.check(recall >= QUALITY_FLOOR * chance,
                f"trained model: recall@{K} {recall:.3f} below {QUALITY_FLOOR} x chance")


def measure(w: Workload, seed: int, state: State, workdir: Path, seconds: float,
            tally: Tally, fixed: bool = False, on_stage=None) -> None:
    """One measured pass.

    The serve workloads serve for ``seconds``; train_pipeline runs one
    pipeline and then serves its model for ``seconds``, so that its latency
    rests on as much serving as theirs. Either way at least
    MIN_LATENCY_SAMPLES requests are served, so that ten lie above p99. With
    ``fixed`` the pass does a fixed amount of work instead, one pipeline with
    the quality set or ``trace_requests`` requests, so that traced totals
    compare across commits.
    """
    if w.train:
        pipeline(w, seed, state, workdir, tally, 0.0 if fixed else seconds, on_stage)
        return
    if on_stage:
        on_stage("serve")
    if fixed:
        _serve(state.model, state.bank, w.m, state.requests, tally, w.trace_requests)
    else:
        _serve(state.model, state.bank, w.m, state.requests, tally, MIN_LATENCY_SAMPLES,
               seconds)
