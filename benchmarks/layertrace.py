"""Outside-in layer trace of vrec, installed from the benchmark's own files.

For the length of a traced pass, each entry point in ``Tracer._wrappers`` is replaced
by a wrapper that times it as a span and counts what it did. It is replaced
under every name a caller resolves it by: modules import functions by name,
so ``vrec.training.run_reasoning`` is a binding of its own next to
``vrec.reasoning.run_reasoning``. A span's self time is its duration minus
the time of the spans it encloses, so self times add up without double
counting. Spans are aggregated in memory per (phase, layer) rather than kept
one by one. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from vrec import (backbone, checkpoint, datasets, evaluation, labeling, numerics,
                  reasoning, training, verifiers)
from workloads import STAGES

STAGE_LAYERS = ("backbone.encode", "verifiers.adjust", "numerics.backward", "training.loss")
SETUP = "setup"

# every per-layer metric of the traced run, with its unit
PER_LAYER = (
    [("datasets.generate_s", "s"), ("datasets.split_s", "s"),
     ("labeling.category_s", "s"), ("labeling.title_s", "s"), ("labeling.cf_s", "s"),
     ("checkpoint.save_s", "s"), ("checkpoint.load_s", "s"), ("checkpoint.bytes", "bytes"),
     ("backbone.encode_s", "s"), ("backbone.encode_calls", "count"),
     ("backbone.encode_positions", "count"), ("backbone.reencode_ratio", "ratio"),
     ("backbone.score_s", "s"),
     ("verifiers.adjust_s", "s"), ("verifiers.adjust_calls", "count"),
     ("reasoning.self_s", "s"),
     ("numerics.backward_s", "s"), ("numerics.backward_calls", "count"),
     ("numerics.tensors_per_sample", "tensors/sample"),
     ("training.loss_s", "s"), ("training.adam_s", "s"), ("training.verifier_stats_s", "s"),
     ("training.verifier_stats_share", "fraction"),
     ("evaluation.evaluate_s", "s"), ("evaluation.recall_at_10", "fraction"),
     ("evaluation.ndcg_at_10", "fraction"),
     ("trace.coverage", "fraction"), ("trace.overhead_pct", "%")]
    + [(f"{stage}.{layer}_s", "s") for stage in STAGES for layer in STAGE_LAYERS]
    + [(f"{stage}.samples_per_s", "samples/s") for stage in STAGES]
)


class Tracer:
    """Self time per (phase, layer) and counts per (phase, counter)."""

    def __init__(self):
        self.phase = SETUP
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._open: list[float] = []  # per open span: time covered by its children

    def set_phase(self, phase: str) -> None:
        self.phase = phase

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[self.phase, counter] += n

    def span(self, layer, fn, count=None):
        """Wrap ``fn`` as a span. ``layer`` is a name, or a function of the
        bound arguments that returns one; ``count`` sees the bound arguments
        after the call."""
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                bound = None
                if callable(layer) or count:
                    bound = sig.bind(*args, **kwargs).arguments
                name = layer(bound) if callable(layer) else layer
                self.self_s[self.phase, name] += elapsed - children
                if count:
                    count(self, bound)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count its calls without a span (Tensor construction)."""
        def wrapper(*args, **kwargs):
            self.counts[self.phase, name] += 1
            fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrappers(self) -> dict:
        """Original function -> wrapper, for every traced entry point."""
        def calls(name):
            return lambda tr, a: tr.add(name)

        def encode(tr, a):
            tr.add("encode_calls")
            tr.add("encode_positions", len(a["history"]) + len(a.get("injected") or ()))

        def reasoning_positions(tr, a):
            tr.add("reasoning_positions", len(a["history"]) + a["m"])

        def saved_bytes(tr, a):
            tr.add("checkpoint_bytes", os.path.getsize(a["path"]))

        B = backbone.Backbone
        spans = [
            (datasets.generate_synthetic, "datasets.generate", None),
            (datasets.chronological_split, "datasets.split", None),
            (labeling.build_labeling, lambda a: f"labeling.{a['dimension']}", None),
            (checkpoint.save_model, "checkpoint.save", saved_bytes),
            (checkpoint.load_model, "checkpoint.load", None),
            (B.encode, "backbone.encode", encode),
            (B.next_item_scores, "backbone.score", None),
            (B.rank_items, "backbone.score", None),
            (verifiers.verify_and_adjust, "verifiers.adjust", calls("adjust_calls")),
            (reasoning.run_reasoning, "reasoning.self", reasoning_positions),
            (numerics.Tensor.backward, "numerics.backward", calls("backward_calls")),
            (training.recommendation_loss, "training.loss", None),
            (training.verifier_loss, "training.loss", None),
            (training.monotonicity_loss, "training.loss", None),
            (training.Adam.step, "training.adam", None),
            (training.verifier_stats, "training.verifier_stats", None),
            (evaluation.evaluate, "evaluation.evaluate", None),
        ]
        wrappers = {fn: self.span(layer, fn, count) for fn, layer, count in spans}
        init = numerics.Tensor.__init__
        wrappers[init] = self.counter("tensors", init)
        return wrappers

    @contextmanager
    def installed(self):
        """Patch every binding of every traced entry point; restore on exit."""
        wrappers = self._wrappers()
        undo = []
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if callable(value) and value in wrappers:
                    undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        try:
            yield self
        finally:
            for ns, attr, value in reversed(undo):
                setattr(ns, attr, value)


def _namespaces():
    """Every loaded vrec module and every class defined in one."""
    for name, mod in list(sys.modules.items()):
        if name != "vrec" and not name.startswith("vrec."):
            continue
        yield mod
        for value in vars(mod).values():
            if inspect.isclass(value) and value.__module__ == name:
                yield value


def layer_metrics(tr: Tracer, timed_phases, traced_wall: float, traced_ratio: float,
                  samples: int, traced_stage_s: dict, untraced_stage: tuple[dict, dict],
                  quality: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are totals over the pass, which does a fixed amount of work.
    ``traced_ratio`` is the traced pass's time over that of an untraced pass
    of the same work, and ``untraced_stage`` is (seconds, samples) per stage
    of the untraced pass. ``quality`` is (recall@10, NDCG@10) of the trained
    model's served requests, or zeros.
    """
    def total(layer, phases=None):
        return sum(v for (ph, name), v in tr.self_s.items()
                   if name == layer and (phases is None or ph in phases))

    def count(counter, phases=None):
        return sum(v for (ph, name), v in tr.counts.items()
                   if name == counter and (phases is None or ph in phases))

    def ratio(a, b):
        return a / b if b else 0.0

    timed = set(timed_phases)
    out = {
        "datasets.generate_s": total("datasets.generate"),
        "datasets.split_s": total("datasets.split"),
        "labeling.category_s": total("labeling.category"),
        "labeling.title_s": total("labeling.title"),
        "labeling.cf_s": total("labeling.cf"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.load_s": total("checkpoint.load"),
        "checkpoint.bytes": count("checkpoint_bytes"),
        "backbone.encode_s": total("backbone.encode", timed),
        "backbone.encode_calls": count("encode_calls", timed),
        "backbone.encode_positions": count("encode_positions", timed),
        "backbone.reencode_ratio": ratio(count("encode_positions", timed),
                                         count("reasoning_positions", timed)),
        "backbone.score_s": total("backbone.score", timed),
        "verifiers.adjust_s": total("verifiers.adjust", timed),
        "verifiers.adjust_calls": count("adjust_calls", timed),
        "reasoning.self_s": total("reasoning.self", timed),
        "numerics.backward_s": total("numerics.backward", timed),
        "numerics.backward_calls": count("backward_calls", timed),
        "numerics.tensors_per_sample": ratio(count("tensors", timed), samples),
        "training.loss_s": total("training.loss", timed),
        "training.adam_s": total("training.adam", timed),
        "training.verifier_stats_s": total("training.verifier_stats", timed),
        "training.verifier_stats_share": ratio(total("training.verifier_stats", {"stage1"}),
                                               traced_stage_s.get("stage1", 0.0)),
        "evaluation.evaluate_s": total("evaluation.evaluate", timed),
        "evaluation.recall_at_10": quality[0],
        "evaluation.ndcg_at_10": quality[1],
        "trace.coverage": ratio(sum(v for (ph, _), v in tr.self_s.items() if ph in timed),
                                traced_wall),
        "trace.overhead_pct": 100.0 * (traced_ratio - 1.0),
    }
    for stage in STAGES:
        for layer in STAGE_LAYERS:
            out[f"{stage}.{layer}_s"] = total(layer, {stage})
    stage_s, stage_samples = untraced_stage
    for stage in STAGES:
        out[f"{stage}.samples_per_s"] = ratio(stage_samples.get(stage, 0), stage_s.get(stage, 0.0))
    return {k: float(v) for k, v in out.items()}
