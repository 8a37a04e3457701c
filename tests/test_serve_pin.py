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
    "bench-m8-one": "c91dc3824e58666f41140b4635185ead58f308bfaf0f87cc8f5f1e8bd721da00",
    "bench-m8-padded": "e7c9438a91ecd9e9ed0df220a840e09ff1ea24de854143c7ff09f837682ecc57",
    "plain-m0-one": "ac678fb448b6e35cb416896ff6e8b955a5b7f36e4b09fb528f370597b46dec7c",
    "plain-m0-padded": "6bb5abe9d89068fde62b92f28ed683f2cfd162fdd4f2e6531ae904099ce525b3",
    "plain-m2-one": "5b4fff11f2c2ccc76045ee907ecee6c885d6dff758fc6382ccd28ee9fd2dca50",
    "plain-m2-padded": "41d5f1108aab5d9d3701bd01fa55fd52cb50a185c14fd6ca2f83665d029384fc",
    "plain-m8-one": "39914e0f1eab60b69b1936b3c337ee5183c854a682a7aaf519188c88dcf32e6c",
    "plain-m8-padded": "725f933b725ea3752b7dc61502aca920d54f8d3722c1f4de573c421a33397470",
    "trunk2-m0-one": "81c06d9023dd07360a79319c297cbd7542a4b287f21205a0af35fee44257fb53",
    "trunk2-m0-padded": "300282f5438800599fb639fb285274632f1e3cabd621e447cabb247be42d7970",
    "trunk2-m2-one": "016f2ea0e8e0f4489dc54d5fa946790517160384f6b452463c2a3a5c1b4205bd",
    "trunk2-m2-padded": "87f5290eb1ea27edf57dde82216e529fbc5419eadaefc475214100ab699e29f3",
    "trunk2-m8-one": "d622f657595ec39ea38ee9ef9dc48486dd67aa24361fdd72979908a200ac9957",
    "trunk2-m8-padded": "dcec5517a2a96e3392c4f9992071986c56f8f99a93020659028c03e9c143033e",
    "trunk3-m0-one": "fdfb984ca20b43140dd41f0821f35ac604d628a51bd9fda6e16b4b596a698e6c",
    "trunk3-m0-padded": "43c483df7064e3e8247ede893a178d3997139f7018bcb0113c435ebb4ac4ab3e",
    "trunk3-m2-one": "3379cc642bc96045e917a756ad59143ec252bb9a6fbdc13f663bd3765015a494",
    "trunk3-m2-padded": "764fcfd3bf9d29619dbf24e5c77f94f39104936b295020b9b68933dfdecb3000",
    "trunk3-m8-one": "fbd28e3cd74a036e5616f8ce32b5d1ea53c56c667c5b5eff554663b4804a8f3c",
    "trunk3-m8-padded": "ce63a5726193091febc0d58883ebb4dcaebbbc98b7bf657ddf751d4d8226ef7a",
    "unequal-m0-one": "1e64c7267fe63847434bd45dfb56e77f9bd9504dceba5e5c55d39e24fa91ace5",
    "unequal-m0-padded": "43e9acae6f98345ba64a1845d8549737c77a5f36530b4ffdc04a668a9d76e6c6",
    "unequal-m2-one": "a109a4d7248bdd0305f3df55e947f4f2424fb4d4828701ed1376534e12378670",
    "unequal-m2-padded": "e60f97456927004524af22d1fc5b2a098b493b58e6df92ac84186e307ac340c2",
    "unequal-m8-one": "cba7417ac25afc1d9407e0d8f27c2059d8b43abb855681e747451529295bcafa",
    "unequal-m8-padded": "9fd63b2a411474868ba5d91ace4c7e04e2e18968b1cc1cdace103cc045d98fb5",
    "uniform-m0-one": "d2d4c0b726afef71e9b153d22391950d5ce799b78f592f9bac3501c4a16c9de9",
    "uniform-m0-padded": "6cf2899bf38788e69c3f37b1949e611ea50b69f66d2e97c44da3206ad4cb63c7",
    "uniform-m2-one": "3c77409a519613139897f19105118a6231df9f958954d857b860b08daf858d15",
    "uniform-m2-padded": "0725ca246139574f15ae159cad52844caf685a95b75213cb7623197ad731291a",
    "uniform-m8-one": "e66c394dac01641cb8e3c8baac962e8126ed60dbe1891e15cce0d4febb1772d8",
    "uniform-m8-padded": "a27a03057c858bd482bdac61898f1a06d04b2ab15ce48949505c914d55b37f80",
    "width1-m0-one": "70b2f7b7752081bbd3429693ee616a087696300ab9295091b63934e4387173b4",
    "width1-m0-padded": "661f90c916f32a825a55213a22e77cacf0e31126ca53fa57450ff2cc7e922b30",
    "width1-m2-one": "0360f478c56b2f28e4e1c88d7bf628ab2c01fa5b7a18f22e0634c1e690c9caec",
    "width1-m2-padded": "d2aa6d6f70929103b46fa38f398e1b8af15d06c3a18d2d9b08f5719988dea9a6",
    "width1-m8-one": "5b2b3a06be932d09a576f1b0fffcf728543330493d31af56af2a21aac9e97ca0",
    "width1-m8-padded": "72e8da86d8c28374c916379519aa82f810db733822cf44216ba5e66586e034c4",
}
GRADS_DIGEST = "152555e3ac0302c1d3cf5d50df02849ba960a9a058c8e5800e4e4caf1e22b8fb"


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
