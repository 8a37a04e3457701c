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

BANKS = {"no_bank": None, "depth1": (1, 0), "depth2": (2, 0), "depth2_w10": (2, 10),
         "depth3": (3, 0), "depth3_w10": (3, 10)}

DIGESTS = {
    "no_bank-1-1": "8d4cd719cc66d97c3831082db4657d9b91fa370c1055ff06c65744702736fec1",
    "no_bank-1-2": "e270117c0649778a87217de9465f5578b9e65afad3a4bfe01e24dbc168d60670",
    "no_bank-3-1": "f8f6f26815503377f18fed41aacc52442707d61416c7ec34f30dfadb54e568ca",
    "no_bank-3-2": "5123262eb00d3f4e6c83a563717fb64df0e13bc36b29d07ef948fc6f6202e63f",
    "depth1-1-1": "1adf6ea55ecac2f1023e020f200227952e0544b81cf1be81d6f70a34592ce58d",
    "depth1-1-2": "0b3ab4d61d2a46b5b5d06236f40348cf07ab37b354468b6e171e3f15607f60fa",
    "depth1-3-1": "fcfe72db9f667c29824502533bc3697e8b134b00c2150d27d0ccd69c4ab2f739",
    "depth1-3-2": "af4da75dc9b464285b7bff0607767ebd73736b645f00a3b449658f3cb645da00",
    "depth2-1-1": "a7b938f91e50f2a0ae53f7a97e0598eb24a64ff1bd7c396547191b1c37a06ce8",
    "depth2-1-2": "d4a5d290ec516a6bf06149dceba62c2cdad224fb9bab52b509757e51b0c97f7a",
    "depth2-3-1": "f04247ec76b96bb08c65f528ab6c5f0fd7622cdad682a5a2f039784b11f9fa69",
    "depth2-3-2": "032f6d010fc9c77eb965eea381a6a9f36715740c956c81c892d918af52a992b2",
    "depth2_w10-1-1": "a7b938f91e50f2a0ae53f7a97e0598eb24a64ff1bd7c396547191b1c37a06ce8",
    "depth2_w10-1-2": "d4a5d290ec516a6bf06149dceba62c2cdad224fb9bab52b509757e51b0c97f7a",
    "depth2_w10-3-1": "f04247ec76b96bb08c65f528ab6c5f0fd7622cdad682a5a2f039784b11f9fa69",
    "depth2_w10-3-2": "032f6d010fc9c77eb965eea381a6a9f36715740c956c81c892d918af52a992b2",
    "depth3-1-1": "f454ac66736b02f3c4f480558c440464fb04cde4457af827653b41ceefaf040f",
    "depth3-1-2": "5eeebaabc17c744e277d39db9049408770f8b24a89558c756424ba22e4dadd33",
    "depth3-3-1": "bb4997cad6c1026b81026f1c904b44d3632e6d20b95ff5ae57d7795f084b9152",
    "depth3-3-2": "fbe990934193985bd39482954a72dcbf6b67d2d9beded25faecb590418fcf8a9",
    "depth3_w10-1-1": "cdb5a6654a2664a69bb224081f7f7d14fbda3dad1e8e05cbc20f3c4b1a33ce78",
    "depth3_w10-1-2": "11ee39f08dcd1743d896b5c0bcaa8e9281ea09c080887aa31aeaf008f6f9a14a",
    "depth3_w10-3-1": "6d468eaf0fa45fe3bb7dba1882dc1839ca9f5b19cee2ba82845c7ccf0432896e",
    "depth3_w10-3-2": "1570f80cb2eccea890f2afe814ed3ba86b5825b38f820af4d369da805d85d224",
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
