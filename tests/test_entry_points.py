"""The entry points `benchmarks/` binds by name: the parameter names its
tracer reads, the size of a collected dataset, the module globals of
`vrec.training` it wraps, and the serving calls it makes."""

import inspect

import numpy as np

import vrec.training
from vrec.backbone import Backbone, ModelConfig
from vrec.checkpoint import save_model
from vrec.datasets import SynthConfig, chronological_split, generate_synthetic
from vrec.labeling import build_labeling
from vrec.reasoning import recommend, run_reasoning
from vrec.training import TrainHyper, collect_verifier_dataset, pretrain_verifiers
from vrec.verifiers import make_bank


def test_benchmark_entry_points(monkeypatch):
    for fn, names in ((Backbone.encode, {"history", "injected"}), (run_reasoning, {"history", "m"}),
                      (save_model, {"path"}), (build_labeling, {"dimension"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__qualname__

    items, logs, _ = generate_synthetic(SynthConfig(n_users=6, n_items=12, n_groups=3,
                                                    stickiness=0.9, seq_len_range=(8, 10),
                                                    seed=1))
    samples = chronological_split(logs).train[:10]
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=1, n_items=12, max_positions=16,
                              m=2, seed=1))
    labelings = [build_labeling("category", items)]
    dataset = collect_verifier_dataset(bb, samples, labelings, m=2)
    assert len(dataset) == len(samples)

    calls = []
    for name in ("verifier_stats", "verifier_loss"):
        def spy(*args, _name=name, _fn=getattr(vrec.training, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(vrec.training, name, spy)
    bank = make_bank([("category", labelings[0].d_i)], d_m=8, seed=1)
    pretrain_verifiers(bank, dataset, TrainHyper(epochs=1, batch=8, seed=1))
    assert calls.count("verifier_stats") == 1
    assert calls.count("verifier_loss") == 2  # one per minibatch of 8


def test_serving_contract_of_one_request(monkeypatch):
    # the serving workloads call run_reasoning(model, bank, history, m) with one
    # flat history, then recommend(model, hidden); their layer trace counts
    # len(history) + len(injected) positions per encode call
    bb = Backbone(ModelConfig(d_m=8, layers=1, heads=2, n_items=12, max_positions=16,
                              m=3, seed=2))
    bank = make_bank([("a", 3), ("b", 4)], d_m=8, seed=2)
    positions = []
    encode = Backbone.encode

    def counting(self, history, injected=None, *, cache):
        positions.append(len(history) + len(injected or ()))
        return encode(self, history, injected, cache=cache)
    monkeypatch.setattr(Backbone, "encode", counting)
    for history in ([5], [0, 3, 5, 9, 2, 11, 7]):
        for m in (0, 1, 3):
            positions.clear()
            _, hidden = run_reasoning(bb, bank, history, m)
            ranked = recommend(bb, hidden)
            assert np.array_equal(np.sort(ranked), np.arange(12))
            assert sum(positions) == len(history) + m  # every position encoded once
