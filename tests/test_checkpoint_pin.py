"""The bytes ``save_model`` writes, pinned by digest over model shapes.

A refactor of the checkpoint code must keep the file format: each case
saves a freshly built backbone, with or without a verifier bank, and
compares the file's sha256 digest with one recorded before the refactor.
A model's values come from its seeded RNG streams, so the digests hold
on any platform whose numpy draws the same normals. The bank cases pin the
stacked layout (``trunk.{j}.*`` and ``heads.{k}.*``), whose body holds the
values of the one-set-per-verifier layout before it, in another order."""

import hashlib

import pytest

from vrec.backbone import Backbone, ModelConfig
from vrec.checkpoint import save_model
from vrec.verifiers import make_bank

pytestmark = pytest.mark.kernel_bits

BANKS = {"no_bank": None, "depth1": (1, 0), "depth2": (2, 0), "depth2_w10": (2, 10),
         "depth3": (3, 0), "depth3_w10": (3, 10)}

DIGESTS = {
    "no_bank-1-1": "13170d7be719f84aa99939f85dad02c83eee5521728500fd3bb110532d8e8eb2",
    "no_bank-1-2": "85d217e19cfa434bc9e11cd1533806c5d1909ed42e6aa3c8ebf622c50ccc1441",
    "no_bank-3-1": "f69493ccc47e93a32e43b4c850e6f914ef1906c76a6cff19f355639316925322",
    "no_bank-3-2": "bb74375f23c6e240850fd02ec1e85d62b80ed90579cc479bbdc70792f80f1fdc",
    "depth1-1-1": "046ac7f7265679a0b6ebde4e52e9b6187dba7f1d1bfe5d721bfd14f64cc497a5",
    "depth1-1-2": "ebddc53aec2896dc928a12bd426828fce922fae168f66565aa7936c002c72e1a",
    "depth1-3-1": "46fa048de4c4c59cbae94f371fe6aed930570ce6728dde0a2f3b4ac0d2c9954f",
    "depth1-3-2": "8f16d38a8c548d6ab132d10a4a93b0e1d856d4a4700f0e47f8ad422fee0035ef",
    "depth2-1-1": "342109ae7cf46ba612fec080abd328c3f261734773268315437a9c4b7ca1ece8",
    "depth2-1-2": "d8f6497a72a87252e2f21ec3a7caa08f0984ec86717446474da56a6d60b8cf0d",
    "depth2-3-1": "815ac669b52a2d0385aeb57e2c114e4f32e0bbcba9e788babbd86eeb951c9905",
    "depth2-3-2": "28e5a12282cfe7937c8586ba3e997ca6a2455f9628ca3c776ecb355caf743851",
    "depth2_w10-1-1": "342109ae7cf46ba612fec080abd328c3f261734773268315437a9c4b7ca1ece8",
    "depth2_w10-1-2": "d8f6497a72a87252e2f21ec3a7caa08f0984ec86717446474da56a6d60b8cf0d",
    "depth2_w10-3-1": "815ac669b52a2d0385aeb57e2c114e4f32e0bbcba9e788babbd86eeb951c9905",
    "depth2_w10-3-2": "28e5a12282cfe7937c8586ba3e997ca6a2455f9628ca3c776ecb355caf743851",
    "depth3-1-1": "42bf46c88baef339d5111693b24a9780ab3bbe1c2d7b635a8d559958c3af1c24",
    "depth3-1-2": "5250e5561f1f35d5cf62ca543ae1f1b6aa9a9e20d3ecf0b03927c836123c094b",
    "depth3-3-1": "0785d77be16b2c83a91d367c7737cc93b4cd0e83d8cf17055d9cd579f20308db",
    "depth3-3-2": "ec4c86ea36ca1b973cac09f21d8fbbad9f84c332e63cd96e83e0460ff23c4af4",
    "depth3_w10-1-1": "1d4bf203c99a20c1f886f8f5be35fc229b55d0fa9e3119d25c75c4acc16d7483",
    "depth3_w10-1-2": "e8278521408ffc733584fb8d81d3eb475f0091df09090b8f53c5869a8437306b",
    "depth3_w10-3-1": "ea76ef35c2bd20006933b6c0afa4c555fad8ef8c6e000b117e9b82c8b1124b57",
    "depth3_w10-3-2": "13cf18ce29e437d34610b9778b930ddd5195d22732a4f475f6eac44ac9a2db78",
}


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("bank", list(BANKS))
def test_save_model_bytes_pinned(tmp_path, bank, layers, heads):
    model = Backbone(ModelConfig(d_m=8, layers=layers, heads=heads, n_items=6,
                                 max_positions=10, m=2, seed=4))
    verifiers = None
    if BANKS[bank] is not None:
        depth, width = BANKS[bank]
        verifiers = make_bank([("a", 3), ("b", 4)], d_m=8, seed=5, hidden_width=width,
                              hidden_depth=depth)
    path = tmp_path / "pin.ckpt"
    save_model(path, model, verifiers)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DIGESTS[f"{bank}-{layers}-{heads}"]
