"""Interleaved A/B of two source trees of vrec: the working tree against a commit.

Run from the root of a checkout:

    python3 ab_trees.py --base REV

REV's ``src/vrec`` is taken with ``git archive`` into a temporary directory
and imported as a second package beside the working tree's (``src/vrec``
imports only relatively), so both trees run in one process on one input.

1. Outputs. A child process per BLAS kernel, the one OpenBLAS picks for
   this CPU and ``OPENBLAS_CORETYPE=Haswell`` (set in that child's
   environment only), runs both trees on the same requests: a served
   request in the ``serve_plain`` shape (m=0, no bank) and in the
   ``serve_deep`` shape (m=8, three verifiers), a padded batch, a two-layer
   model, and a stage-2 minibatch's losses and gradients. Each final
   state, latent step, verdict, ranking, loss and gradient must be
   bit-equal between the trees; the script names each one that is not.
2. Time. One child (the native kernel) alternates which tree goes first,
   round by round, for ``ROUNDS`` rounds. A round serves the same
   ``REQUESTS`` histories in each shape, runs ``STEPS`` stage-2 minibatch
   steps (forward and backward), and does the benchmark's set-up work
   (``benchmarks/workloads.py``): the training set-up builds the request
   and training corpora and the three labelings, the serving set-up saves
   and loads a model and bank. It does each in each tree; short rounds keep
   both trees on one host speed when the cores switch speed. Per unit it
   reports each tree's median time, the median over rounds of base time /
   change time (above 1: the change is faster) and the rounds in which the
   change was faster. A tree against itself has read 0.99-1.02 on most
   units, and code two trees share up to 1.03: a ratio that close to 1
   decides nothing.

The last line of standard output is one JSON object with both results.
Every child runs with one BLAS and OpenMP thread.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
KERNELS = {"native": {}, "Haswell": {"OPENBLAS_CORETYPE": "Haswell"}}
# the benchmark's corpus, model and bank shapes (benchmarks/workloads.py)
CORPUS = dict(n_items=96, n_groups=6, stickiness=0.8, seq_len_range=(16, 24))
TRAIN_USERS, REQUEST_USERS, REQUEST_SEED_OFFSET = 48, 500, 1_000_003
D_M, N_ITEMS, DIMS = 24, 96, [("category", 6), ("title", 6), ("cf", 6)]
# timed rounds, requests served per shape and stage-2 steps per round; a
# step takes 16 histories from the requests, so REQUESTS >= 15 + STEPS
ROUNDS, REQUESTS, STEPS = 200, 40, 2


def _load(name: str, path: Path) -> dict:
    """The vrec package at ``path``, imported as ``name``, and its modules."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("backbone", "checkpoint", "datasets", "labeling", "numerics",
                        "reasoning", "training", "verifiers")}


def _requests(n: int, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [[int(i) for i in rng.integers(0, N_ITEMS, rng.integers(5, 11))] for _ in range(n)]


class Tree:
    """One tree's models, built from the same seeds as the other tree's."""

    def __init__(self, mods: dict, layers: int = 1):
        self.mods = mods
        bb, ver = mods["backbone"], mods["verifiers"]
        self.model = {m: bb.Backbone(bb.ModelConfig(d_m=D_M, layers=layers, heads=2,
                                                    n_items=N_ITEMS, max_positions=32,
                                                    m=m, seed=1)) for m in (0, 2, 8)}
        self.bank = ver.make_bank(DIMS, d_m=D_M, seed=1)
        self.classes = np.random.default_rng(3).integers(0, 6, (N_ITEMS, len(DIMS)))
        self.hyper = mods["training"].TrainHyper()

    def serve(self, history, m: int):
        r = self.mods["reasoning"]
        trace, hidden = r.run_reasoning(self.model[m], self.bank if m else None, history, m)
        return trace, hidden, r.recommend(self.model[m], hidden)

    def train_step(self, histories, targets):
        """A stage-2 minibatch: its losses and every parameter's gradient."""
        model = self.model[2]
        params = [*model.params().values(), *self.bank.params().values()]
        with self.mods["numerics"].tracking(params):
            losses = self.mods["training"].reasoning_losses(
                model, self.bank, histories, targets, self.hyper, self.classes)
            losses["total"].backward()
        return losses, [t.grad for t in params]

    def train_setup(self, seed: int = 1) -> list:
        """The train_pipeline set-up: both corpora and the three labelings."""
        ds, lab = self.mods["datasets"], self.mods["labeling"]
        _, logs, _ = ds.generate_synthetic(
            ds.SynthConfig(n_users=REQUEST_USERS, seed=seed + REQUEST_SEED_OFFSET, **CORPUS))
        ds.chronological_split(logs)
        items, logs, _ = ds.generate_synthetic(
            ds.SynthConfig(n_users=TRAIN_USERS, seed=seed, **CORPUS))
        split = ds.chronological_split(logs)
        return [lab.build_labeling(name, items, samples=split.train, n_users=split.n_users,
                                   d_i=d_i, seed=seed)
                for name, d_i in (("category", None), ("title", 6), ("cf", 6))]

    def serve_setup(self, path: Path) -> None:
        """The serving set-up's checkpoint round trip of a model and bank."""
        ck = self.mods["checkpoint"]
        ck.save_model(path, self.model[8], self.bank)
        ck.load_model(path)


def _outputs(tree: Tree, two_layer: Tree) -> dict:
    """Every output of the comparison, by name, as bytes."""
    out, reqs = {}, _requests(12, seed=5)
    for m in (0, 8):
        for i, h in enumerate(reqs):
            trace, hidden, ranked = tree.serve(h, m)
            out[f"m{m}.{i}.final"] = hidden.data.tobytes()
            out[f"m{m}.{i}.ranking"] = ranked.tobytes()
            for t, (raw, _, verdict) in enumerate(trace.steps):
                out[f"m{m}.{i}.step{t}"] = raw.data.tobytes() + verdict.packed.data.tobytes()
    r = tree.mods["reasoning"]
    trace, hidden = r.run_reasoning(tree.model[2], tree.bank, reqs[:5], 2)  # padded batch
    out["padded.final"] = hidden.data.tobytes()
    out["padded.steps"] = b"".join(v.packed.data.tobytes() for v in trace.verdicts)
    for i, h in enumerate(reqs[:4]):
        out[f"layers2.{i}.final"] = two_layer.serve(h, 8)[1].data.tobytes()
    targets = np.arange(16) % N_ITEMS
    for name, batch in (("unpadded", [reqs[0][:5]] * 16), ("padded", (reqs * 2)[:16])):
        losses, grads = tree.train_step(batch, targets)
        out[f"train.{name}.losses"] = b"".join(v.data.tobytes() for v in losses.values())
        out[f"train.{name}.grads"] = b"".join(g.tobytes() for g in grads)
    return out


def _child_outputs(base: Path) -> None:
    trees = [_load(name, path) for name, path in (("vrec_base", base),
                                                   ("vrec_change", ROOT / "src" / "vrec"))]
    a, b = (_outputs(Tree(t), Tree(t, layers=2)) for t in trees)
    print(json.dumps({"outputs": len(a), "differ": sorted(k for k in a if a[k] != b[k])}))


def _child_time(base: Path, workdir: Path) -> None:
    trees = {"base": Tree(_load("vrec_base", base)),
             "change": Tree(_load("vrec_change", ROOT / "src" / "vrec"))}
    reqs = _requests(REQUESTS)
    batches = [(reqs[i:i + 16], np.arange(i, i + 16) % N_ITEMS) for i in range(STEPS)]
    units = {
        "serve_plain": lambda t: [t.serve(h, 0) for h in reqs],
        "serve_deep": lambda t: [t.serve(h, 8) for h in reqs],
        "train_step": lambda t: [t.train_step(h, y) for h, y in batches],
        "train_setup": lambda t: t.train_setup(),
        "serve_setup": lambda t: t.serve_setup(workdir / "serve.ckpt"),
    }
    times = {(u, name): [] for u in units for name in trees}
    for tree in trees.values():  # warm-up
        for run in units.values():
            run(tree)
    for r in range(ROUNDS):
        order = ("base", "change") if r % 2 == 0 else ("change", "base")
        for unit, run in units.items():
            for name in order:
                t0 = time.perf_counter()
                run(trees[name])
                times[unit, name].append(time.perf_counter() - t0)
    report = {}
    for unit in units:
        base_s, change_s = times[unit, "base"], times[unit, "change"]
        per = {"serve_plain": REQUESTS, "serve_deep": REQUESTS, "train_step": STEPS}.get(unit, 1)
        ratios = [a / b for a, b in zip(base_s, change_s)]
        report[unit] = {
            "base_us": round(statistics.median(base_s) / per * 1e6, 1),
            "change_us": round(statistics.median(change_s) / per * 1e6, 1),
            "median_ratio": round(statistics.median(ratios), 4),
            "ratio_quartiles": [round(q, 4) for q in statistics.quantiles(ratios, n=4)[::2]],
            "rounds_change_faster": sum(x > 1.0 for x in ratios),
            "rounds": ROUNDS,
        }
    print(json.dumps(report))


def _run_child(args: list[str], extra_env: dict) -> dict:
    env = {**os.environ, **{v: "1" for v in THREADS}, **extra_env}
    done = subprocess.run([sys.executable, __file__, *args], env=env, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"child {args[:2]} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="the commit to compare the working tree with (required)")
    p.add_argument("--child", choices=("outputs", "time"), help=argparse.SUPPRESS)
    p.add_argument("--tree", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child == "outputs":
        _child_outputs(Path(args.tree))
        return 0
    if args.child == "time":
        with tempfile.TemporaryDirectory() as tmp:
            _child_time(Path(args.tree), Path(tmp))
        return 0
    if not args.base:
        p.error("--base is required")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src/vrec"],
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        tree = str(Path(tmp) / "src" / "vrec")
        outputs = {kernel: _run_child(["--child", "outputs", "--tree", tree], env)
                   for kernel, env in KERNELS.items()}
        timing = _run_child(["--child", "time", "--tree", tree], KERNELS["native"])
    for kernel, result in outputs.items():
        verdict = "bit-equal" if not result["differ"] else "differ: " + ", ".join(result["differ"])
        print(f"outputs under the {kernel} kernel ({result['outputs']} compared): {verdict}")
    for unit, r in timing.items():
        print(f"{unit}: base {r['base_us']} us, change {r['change_us']} us, median ratio "
              f"{r['median_ratio']}, change faster in {r['rounds_change_faster']} of "
              f"{r['rounds']} rounds")
    print(json.dumps({"base": args.base, "outputs": outputs, "time": timing}))
    return 0 if not any(r["differ"] for r in outputs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
