"""The bytes ``save_model`` writes, pinned by digest over model shapes.

A refactor of the checkpoint code must keep the file format: each case
saves a freshly built backbone, with or without a verifier bank, and
compares the file's sha256 digest with one recorded before the refactor.
A model's values come from its seeded RNG streams, so the digests hold
on any platform whose numpy draws the same normals."""

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
    "depth1-1-1": "166d5bcc725b848ca534c6d44c293bb1800c6b2b7a4517fe2bf2c074df1a505d",
    "depth1-1-2": "a15ae73e70fea73648597b004133f733e1172e9df51c03a3e1c06e8f2944088b",
    "depth1-3-1": "b79c770faac6c9a476b65931f6ce9910cc507e5d8976d06e226789488a5388fa",
    "depth1-3-2": "e2a1ad75406cb48b8ed1c3468d11028c844e4906715b7f99fbf61393d984e793",
    "depth2-1-1": "b7623ebcfc91fc355080b78875c6be83039ced79f309d495d243739df18ae0eb",
    "depth2-1-2": "248fe2507165e303a9b47979894d0b5004d33bda8d0655d701d1616b03490a11",
    "depth2-3-1": "ee399fc6f4dca51012462b648a8d49b9fecd052bf76386869a5fb0c9c940bf5b",
    "depth2-3-2": "1afbf66204a19f203b842adb40c0b6975e5c382f1ee71e1b699b2a5ae81e0cd5",
    "depth2_w10-1-1": "b7623ebcfc91fc355080b78875c6be83039ced79f309d495d243739df18ae0eb",
    "depth2_w10-1-2": "248fe2507165e303a9b47979894d0b5004d33bda8d0655d701d1616b03490a11",
    "depth2_w10-3-1": "ee399fc6f4dca51012462b648a8d49b9fecd052bf76386869a5fb0c9c940bf5b",
    "depth2_w10-3-2": "1afbf66204a19f203b842adb40c0b6975e5c382f1ee71e1b699b2a5ae81e0cd5",
    "depth3-1-1": "5267df83e15a4954e3ba426288bb170abda2baf8fe8b406d6e89ae982a16c969",
    "depth3-1-2": "f439f654a0768ac81c7c99ceda9fc38c9a715cbb69537f5708fb84fe1ac61c20",
    "depth3-3-1": "1214d7d3d0bdfcbc96255cf4eeb1c67a4cb2ae8f380716816e3af9659a720507",
    "depth3-3-2": "18ae7a35b5324350aae7d9e17690f222e43abeb55a5341a88f9ed86d54fa6338",
    "depth3_w10-1-1": "fac39f52d1b855641a4f75a68f24fd927e1453d8913918acbb195f7245d896d3",
    "depth3_w10-1-2": "c11164a047ee4804d1d6ab0515de9cc61d98a3c75a61f2fff42435f46480e870",
    "depth3_w10-3-1": "d6c6686195a481dcc1d7b1284669023e449e134aa6677639dded1d7dcfe2048b",
    "depth3_w10-3-2": "6a6de70b6ae5bbb8f3d1c5a5c98180946c52da291a294bf185eb83bc5b42e7b7",
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
