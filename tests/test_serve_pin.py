"""Served outputs, pinned by digest.

Refactors of the backbone's blocks or the verifier bank's step must keep
every served bit. Each case serves seeded requests through
``run_reasoning`` and compares one sha256 digest, over the final states,
every step's packed verdict and the rankings, with one recorded before the
refactor. The cases cover 1-3 layers, no bank, three linear d_i=6
verifiers (the benchmark's bank), an unequal bank with a d_i of 9 or more
(where numpy's pairwise sum regroups its terms), trunks of depth 2 and 3,
the uniform router, a depth-3 trunk of width 1 (where the stacked bank
adds some terms in another order than a per-verifier loop), m in {0, 2, 8},
and a batch of one and a padded batch. One more digest pins the
backbone's and the bank's gradients after a stage-2 backward at the width-1
shape. The digests were taken with numpy 2.4.6 on x86-64; another BLAS may
round the same run differently."""

import hashlib

import numpy as np
import pytest

from oracles import layout_grads, per_verifier_views
from vrec.backbone import Backbone, ModelConfig
from vrec.numerics import Rng, tracking
from vrec.reasoning import recommend, run_reasoning
from vrec.training import TrainHyper, reasoning_losses
from vrec.verifiers import make_bank

N_ITEMS = 20
# name: (d_m, layers, heads, bank dimensions or None, bank depth, bank width, uniform router)
CASES = {
    "plain": (12, 1, 2, None, 1, 0, False),
    "bench": (24, 1, 2, [("category", 6), ("title", 6), ("cf", 6)], 1, 0, False),
    "unequal": (12, 2, 3, [("a", 4), ("b", 11), ("c", 2), ("d", 9)], 1, 0, False),
    "trunk2": (8, 3, 2, [("a", 5), ("b", 9)], 2, 0, False),
    "trunk3": (12, 2, 1, [("a", 3), ("b", 12), ("c", 6)], 3, 7, False),
    "uniform": (12, 3, 4, [("a", 6), ("b", 10)], 1, 0, True),
    "width1": (12, 2, 2, [("a", 5), ("b", 7)], 3, 1, False),
}
BATCHES = {"one": [3, 17, 5, 5, 0, 12, 9],
           "padded": [[1, 2, 3, 4, 5], [19, 0, 7, 7, 3, 11, 2, 8, 6], [4, 4, 13]]}

DIGESTS = {
    "bench-m0-one": "3360e66735a0db6856dadc42f9fb91cb091f732833faf74aed8893acbd80dc98",
    "bench-m0-padded": "4549d1e09e8682679d49bb6492872c73d8e2913ccf6bf4b8155d091eaebe148f",
    "bench-m2-one": "2577ecd85a98ff6c95f7fa28e4a0059e796e38f583bef858c58f633850b4aade",
    "bench-m2-padded": "e4342ec71859e9ac8b0e73665735782a6cb4dc48b11d25e2924ab1faebdace0e",
    "bench-m8-one": "75dc887e7f8fa6348fdaf0172db8540a032931fc5213a874cef8e9622a9df843",
    "bench-m8-padded": "e7c9438a91ecd9e9ed0df220a840e09ff1ea24de854143c7ff09f837682ecc57",
    "plain-m0-one": "ac678fb448b6e35cb416896ff6e8b955a5b7f36e4b09fb528f370597b46dec7c",
    "plain-m0-padded": "6bb5abe9d89068fde62b92f28ed683f2cfd162fdd4f2e6531ae904099ce525b3",
    "plain-m2-one": "5b4fff11f2c2ccc76045ee907ecee6c885d6dff758fc6382ccd28ee9fd2dca50",
    "plain-m2-padded": "41d5f1108aab5d9d3701bd01fa55fd52cb50a185c14fd6ca2f83665d029384fc",
    "plain-m8-one": "39914e0f1eab60b69b1936b3c337ee5183c854a682a7aaf519188c88dcf32e6c",
    "plain-m8-padded": "b765b25957cb0e84c940307e48a8a228201b01d0222a2e7ce9e1daea06f9a4a8",
    "trunk2-m0-one": "71f68a821487973249eb6444410be243ce05bc0ae2dd94b3379be37c439c508a",
    "trunk2-m0-padded": "61320718e1dfc66f56b680344e5639ba52fd3cbcbdaa591fe23c3ed8c65fb3b5",
    "trunk2-m2-one": "6c18f59bbb98c6643f681cce3f87ae53299f843a6876cc3f7e62223171befecc",
    "trunk2-m2-padded": "1db351445b0697573221a6e8a6c01a2b70aef213b1e3e48e53b72f1ea634638e",
    "trunk2-m8-one": "b3cda21039fba95f696bc35f274b534ef4db578fa83916e5999c1c031d1f6f48",
    "trunk2-m8-padded": "07c11bdf34cd401458ba79be0e5460718c884d3084b5acc826bc08bcfce703c8",
    "trunk3-m0-one": "fdfb984ca20b43140dd41f0821f35ac604d628a51bd9fda6e16b4b596a698e6c",
    "trunk3-m0-padded": "43c483df7064e3e8247ede893a178d3997139f7018bcb0113c435ebb4ac4ab3e",
    "trunk3-m2-one": "3379cc642bc96045e917a756ad59143ec252bb9a6fbdc13f663bd3765015a494",
    "trunk3-m2-padded": "69cf53b130817e70503f2bd3292f545a26cdb375093c0ddb7b31f0e125f31b34",
    "trunk3-m8-one": "78064bbd5beffab4e989052f69978adef7389c6c96c4b592c8f71d103fde0d0e",
    "trunk3-m8-padded": "572e9a65f02bdee7b3361a0aec6204b523a973c6792eb11dc5ad09aa1acb8b13",
    "unequal-m0-one": "39dbe621ddbc85fe1d75ad2b24c0fa2e1ca7c230cb35da743983eb09b08b5925",
    "unequal-m0-padded": "43e9acae6f98345ba64a1845d8549737c77a5f36530b4ffdc04a668a9d76e6c6",
    "unequal-m2-one": "ce6efdac6005aac3e5830cb95da80233dc4534690a87ed9e2e4e930b57fe29ee",
    "unequal-m2-padded": "e60f97456927004524af22d1fc5b2a098b493b58e6df92ac84186e307ac340c2",
    "unequal-m8-one": "49477060b6489c3e91950432f190097e7a2ecee8190e2e5c53407159cc1f61b1",
    "unequal-m8-padded": "c067d539e36c87d4e217ea4bb8276cbee044ee982203d977f75bb4009509aa58",
    "uniform-m0-one": "bd27dc766a43851317be3fe4d37a37d7529d029b65361a39de7ff7b3cad92be8",
    "uniform-m0-padded": "6cf2899bf38788e69c3f37b1949e611ea50b69f66d2e97c44da3206ad4cb63c7",
    "uniform-m2-one": "11b6e821056bcac052be178e344150893cf9c86fa96caad30ca6858e83ef2c9f",
    "uniform-m2-padded": "67d1a51b74080328f4d6ea935befc69df11a8d71174d7b4a21418eeece91f0a7",
    "uniform-m8-one": "b762edfe29ada02236efde143d4276559e7cdba82a41b96c461c4641e07c7a9e",
    "uniform-m8-padded": "f471f09ac0e699b05eda1bdc66fde0bc3cd1c472a363e05aa27cf041d9750aea",
    "width1-m0-one": "03a0fb814858c90c391f15cabbdf97bc6a52dcd2c4b0e4cd6af86d0393b0abce",
    "width1-m0-padded": "661f90c916f32a825a55213a22e77cacf0e31126ca53fa57450ff2cc7e922b30",
    "width1-m2-one": "c0d5a2ace60c11fbedac18688590635e7578f01a9657f48a1f322dd449ff560a",
    "width1-m2-padded": "c7dc8b776f0ecff4f71e7bc139233855e44d3a7e7afa7868a5a47a6e5043895f",
    "width1-m8-one": "312132e9ee389706707c8e1406879f8e11e8a3ed2af1f875935cbb415d4272c7",
    "width1-m8-padded": "21abf3110d68426f868eb5e2e98b96cc72c9a5cedfc4622f3aa50120be53cc5c",
}
GRADS_DIGEST = "26853a963c830c2705e06ea57758b3be8dd886a036bf21ae5610e5b013dd9a4d"


def _models(case: str, m: int):
    d_m, layers, heads, dims, depth, width, uniform = CASES[case]
    seed = sorted(CASES).index(case)
    model = Backbone(ModelConfig(d_m=d_m, layers=layers, heads=heads, n_items=N_ITEMS,
                                 max_positions=24, m=m, seed=seed))
    rng = Rng(seed, 3)
    # parameters at unit scale, so attention and predictions are far from uniform
    for t in model.params().values():
        t.data[...] = rng.normal(t.shape, std=0.7)
    bank = None
    if dims:
        bank = make_bank(dims, d_m=d_m, seed=seed, hidden_width=width, hidden_depth=depth)
        for view in per_verifier_views(bank).values():  # the order the digests were taken in
            view[...] = rng.normal(view.shape, std=0.9)
        bank.uniform_router = uniform
    return model, bank


def _served(case: str, m: int, batch: str) -> str:
    model, bank = _models(case, m)
    trace, final = run_reasoning(model, bank, BATCHES[batch], m)
    h = hashlib.sha256(final.data.tobytes())
    for _, _, verdict in trace.steps:
        if verdict is not None:
            h.update(verdict.packed.data.tobytes())
    ranked = recommend(model, final) if batch == "one" else model.rank_items(final)
    h.update(ranked.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("m", [0, 2, 8])
@pytest.mark.parametrize("case", sorted(CASES))
def test_served_outputs_pinned(case, m, batch):
    assert _served(case, m, batch) == DIGESTS[f"{case}-m{m}-{batch}"]


def test_stage2_gradients_pinned():
    # one stage-2 backward at the width-1 shape: both models' gradients, in
    # parameter_layout order, keep their bits
    model, bank = _models("width1", 2)
    histories = BATCHES["padded"]
    targets = np.array([9, 3, 14])
    classes = np.stack([np.arange(N_ITEMS) % 5, np.arange(N_ITEMS) % 7], axis=1)
    params = list(model.params().values()) + list(bank.params().values())
    with tracking(params):
        losses = reasoning_losses(model, bank, histories, targets,
                                  TrainHyper(beta=0.5, gamma=0.3), classes)
        losses["total"].backward()
    h = hashlib.sha256(layout_grads(model).tobytes())
    h.update(layout_grads(bank).tobytes())
    assert h.hexdigest() == GRADS_DIGEST
