"""The CSVs of the three studies, pinned by digest.

Refactors of how a study describes its runs must keep every row's bits:
each case runs one study on a micro config (every ablation variant, each
sweep parameter at two values, a step scan over three step counts) and
compares the sha256 digest of the CSV it writes with one recorded before
the refactor. The digests were taken with numpy 2.4.6 on x86-64; another
BLAS may round the same run differently."""

import hashlib

import pytest

from dataclasses import replace

from vrec.config import RunConfig
from vrec.datasets import SynthConfig
from vrec.pipeline import SWEEPS, VARIANTS, ablate, step_scalability, sweep
from vrec.training import TrainHyper

pytestmark = pytest.mark.kernel_bits

SYNTH = SynthConfig(n_users=16, n_items=12, n_groups=3, stickiness=0.9,
                    seq_len_range=(12, 16), seed=1)
RUN = RunConfig(seed=1, synth=SYNTH,
                model={"d_m": 16, "layers": 1, "heads": 2, "max_positions": 16, "m": 2},
                hyper=TrainHyper(lr=1e-2, epochs=1, batch=8, seed=1),
                dimensions=[("category", 3), ("title", 3), ("cf", 3)],
                stage0_epochs=2, stage1_epochs=2)

SWEEP_VALUES = {"beta": [0.0, 0.5], "gamma": [0.0, 0.5], "alpha": [0.5, 1.0],
                "d_i": [2, 4], "verifier-width": [2, 8], "verifier-depth": [1, 2],
                "m": [1, 3]}

DIGESTS = {
    "ablation.csv": "cc03a9dfc9c7f50fd1278ea688c870ec10c3c825f8b9c516be53531e4938025d",
    "sweep_alpha.csv": "a483e5eb82709990f9e539917e0cc258c9fda286f8cb77e87ba33bc86f09f08d",
    "sweep_beta.csv": "39ca09efbcef878047edcfaa6aef551a6a28fcd7a79d0550bd888651b28f5a4a",
    "sweep_d_i.csv": "a66a193879ec2f697536d557c546218971ff20c2de56f3737a5c5bb34d7bce48",
    "sweep_gamma.csv": "e396178767f6c845aa4f96f6634b37d55e95141ac6403c806a32a11194e679ea",
    "sweep_m.csv": "57d70a66cf7cbfaaa6043c66d7259dbba09aa7d84f56fbd5a23ab15c9e41d2e4",
    "sweep_verifier-depth.csv": "d4ee1e1cf1952c3e99f62dda83d7ab2b23425474bc2928b3a22f5f1d308ad5ad",
    "sweep_verifier-width.csv": "1575d46b23048fdd5cb7479799cf0508d0b60344f1208ae51344b4279bfdc1ab",
    "steps.csv": "1c1d0405c9c58de91686f9b6ee0d5a570135c28c8133427879e52f671b561ae3",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_values_cover_every_parameter():
    assert set(SWEEP_VALUES) == set(SWEEPS)


def test_ablation_pinned(tmp_path):
    ablate(replace(RUN, out=tmp_path), variants=list(VARIANTS))
    assert _digest(tmp_path / "ablation.csv") == DIGESTS["ablation.csv"]


@pytest.mark.parametrize("param", sorted(SWEEP_VALUES))
def test_sweep_pinned(tmp_path, param):
    sweep(replace(RUN, out=tmp_path), param, SWEEP_VALUES[param])
    name = f"sweep_{param}.csv"
    assert _digest(tmp_path / name) == DIGESTS[name]


def test_step_scan_pinned(tmp_path):
    step_scalability(replace(RUN, out=tmp_path), steps=[0, 1, 2])
    assert _digest(tmp_path / "steps.csv") == DIGESTS["steps.csv"]
