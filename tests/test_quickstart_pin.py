"""The README quick-start run, pinned by digest.

Refactors that must keep every artifact's bits compare against these
sha256 digests: the three checkpoints and metrics.csv as files, and the
two arrays of verifier_data.npz (an npz is a zip, whose bytes depend on
more than the arrays). The same run driven through the CLI, one command
at a time, also pins the text files it writes. The digests were taken with
numpy 2.4.6 on x86-64. Those of the checkpoints, the reasoning steps and
the files the trained model writes have one entry for each OpenBLAS kernel
that rounds the run its own way; a kernel without one fails, naming
itself."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from oracles import kernel_pin
from vrec.cli import main
from vrec.config import SEED_ENV_VAR, load_config
from vrec.pipeline import VERIFIER_DATA, run_pipeline

pytestmark = pytest.mark.kernel_bits

QUICK_START = {
    "seed": 7,
    "out": "runs/demo",
    "data": {"synth": {"n_users": 50, "n_items": 40, "n_groups": 4,
                       "stickiness": 0.9, "seq_len_range": [12, 20]}},
    "model": {"d_m": 24, "layers": 1, "heads": 2, "max_positions": 32, "m": 2},
    "hyper": {"lr": 0.003, "epochs": 3, "batch": 16},
    "dimensions": [{"name": "category"}, {"name": "title", "d_i": 4}],
    "eval_ks": [5, 10],
}

# the same on every kernel
DIGESTS = {
    "metrics.csv": "08b6f84ec1d155124594751cc4b9a94c8c3561b8492e462579fbe1d33a322091",
    "labels": "9cdf00c26228b3cc2cbe9f0471fe6ad41989239551c2208f89d5fc69970d950a",
}
# per OpenBLAS kernel (oracles.kernel_pin): each kernel blocks a product's
# inner sums its own way
KERNEL_DIGESTS = {
    "SkylakeX": {
        "stage0.ckpt": "2691fa5d2a88881ab5450481291bd58c1ae90b2163a53b41708a02e48bb54594",
        "stage1.ckpt": "e5a13832dda971f4a73b04fb7e6a5ba68d1004fd0ba766c730fde405ec35b87a",
        "final.ckpt": "3c2b8eb4e2bc07f45f9ddf2da1e43bf8453466cb4cfa9ac6ef86aa4a19635e1c",
        "r_steps": "d0032fcaab30874140472e0fd15b88aa9b3b8863bad8daa7de32e7d90042d467",
        "traces.jsonl": "7a3c9fc5ec971b639825b60344366ebc66b2d529ff4341bbffaba791a92ae1fb",
        "inspect.json": "100f1da14e702228ceed9fd52f6093b2e45a4a4a412a003e898ae02ede32b9a3",
    },
    "Haswell": {
        "stage0.ckpt": "dd8e4e6692890cc67f4e77134c95888a2fb6aacd251b04b938dd6e98ff39414b",
        "stage1.ckpt": "1e02e9ee48571d36740d7d58ecb8f53c056ea808eae34112ae217ab96fd1b8f2",
        "final.ckpt": "6e11afdb27e96ee23c504a631d1486ba101ed99e4c0d629199a6d6e546380078",
        "r_steps": "8123989cdb13f5d535ddd3da0c3af3041416e28c6d5857cbdb0bb90a431b5283",
        "traces.jsonl": "362d656959eaaa35864e9b1ea19d978b71d869fc6624b6b1c181213c67f7403e",
        "inspect.json": "d6f1af3e6db1ab704398f1ab2222e6f673cb9e95f45ec0dda3a38d312b054f47",
    },
}


def _artifacts(tmp_path) -> dict:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(QUICK_START), encoding="utf-8")
    run_pipeline(replace(load_config(path), out=tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in ("stage0.ckpt", "stage1.ckpt", "final.ckpt", "metrics.csv")}
    with np.load(tmp_path / VERIFIER_DATA) as data:
        for key in ("r_steps", "labels"):
            got[key] = hashlib.sha256(np.ascontiguousarray(data[key]).tobytes()).hexdigest()
    return got


def test_quick_start_artifacts_pinned(tmp_path):
    pins = kernel_pin(KERNEL_DIGESTS)
    want = {**DIGESTS, **{name: pins[name] for name in
                          ("stage0.ckpt", "stage1.ckpt", "final.ckpt", "r_steps")}}
    assert _artifacts(tmp_path) == want


# the README's stage commands, then inspect; the run's text files, written
# the same way on every run (traces.jsonl and inspect.json in KERNEL_DIGESTS)
CLI_COMMANDS = ("gen-data", "label", "pretrain-backbone", "collect-verifier-data",
                "pretrain-verifiers", "finetune", "eval", "inspect")
CLI_DIGESTS = {
    "items.jsonl": "d955b19e2d62ba91f58cc29a37fd81b26cfe6a398afd95e8e613737bbe5deb99",
    "interactions.jsonl": "7827abadc2fa0a778730e90f9d793635c81e8cf1b4fd832d843b9fabff34f7f9",
    "planted_labels.jsonl": "5ac2e404058a0e3013a98c2ce0c6ac42ac4b086693af7175e98eb17221595446",
    "labeling_category.jsonl": "4fa46965160d42def88a8d4eae1733b7a8c6aa835543298df2ab5a2d716796bf",
    "labeling_title.jsonl": "82970f99e51fa8a1902773c3e86305fc348825daf32b7dfb910a60946f29c219",
}


def _cli_files(tmp_path, names) -> dict:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(QUICK_START), encoding="utf-8")
    for command in CLI_COMMANDS:
        assert main([command, "--config", str(path)]) == 0, command
    out = tmp_path / QUICK_START["out"]
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_quick_start_through_the_cli_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    pins = kernel_pin(KERNEL_DIGESTS)
    want = {**CLI_DIGESTS, "metrics.csv": DIGESTS["metrics.csv"],
            **{name: pins[name] for name in ("final.ckpt", "traces.jsonl", "inspect.json")}}
    assert _cli_files(tmp_path, want) == want
