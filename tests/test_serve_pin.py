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
shape. The blocks have no key bias; the draws still take a vector where
each was, so every other value is the one drawn before it went. The digests were taken with numpy 2.4.6 on x86-64; another BLAS may
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
    "bench-m0-one": "0317bc743e9fc54c5b0490ab99a3c02a82ed73ac958f40bd73243fd6eff59390",
    "bench-m0-padded": "bc0af531cfda4f03203f96a8216485d279b944c7afa985c2e70579452d2d3067",
    "bench-m2-one": "739d0096a0fb1fe3df870e44bd78d4019caa60e1755357e819d6e88bf3d62811",
    "bench-m2-padded": "c610a41b4c6904242adcf7a0cdc6edec4543cfd63059dec6adc2b5b7f9ad5a8b",
    "bench-m8-one": "b49c6b9058e38aaae9d99b30208b8988a1e0e4fecea0562309ab00a745d3b976",
    "bench-m8-padded": "e8b46b86990fa9289d34c98b6a5cf2a48e908aba49605ee16fe0d47b0f735a4a",
    "plain-m0-one": "5889f1816665c16d1d3bda3ae96ec561e3f5a30eef4298b58074d949e10e121b",
    "plain-m0-padded": "ad2428c109f5e5450645c0ae389cc3c8eb5b27cc21a44578d428a2d071aefeb2",
    "plain-m2-one": "cdfcfb4c271f61e278c29d1c92131ba784418cf53402fec04198a3e4da813047",
    "plain-m2-padded": "753cbbff378342dce22f9b507b1d9bf7830aa35c426a3d91f0f85e14439a1290",
    "plain-m8-one": "dc204be4dd134c9703244a282c00fb729cb3619b7d11e08fd4abe4362e409f09",
    "plain-m8-padded": "e87de808afec9ff05720d9131d95c818fe5ae1d9928729a5fa96a177acdc6894",
    "trunk2-m0-one": "d8a523c43eb8f4a05a751e5d2e638bea98d31c74d1046ca5470d0ebca7a5fe78",
    "trunk2-m0-padded": "117f35470843fabb1c19a276db24a4a4fe2ed55c56d6ab2b9236d2e599afaab9",
    "trunk2-m2-one": "116ee0b01cce8220ab8608f0b30fa18a4fa9faf34bc304dcf0d80d00c67118ed",
    "trunk2-m2-padded": "f5a45c50aed28be6ae1e0d79fb78907aaf4bfeed8601ee44fcae9cca1449a06e",
    "trunk2-m8-one": "f53347656aae192d1672a22fef7f1937fa36b1266ad43d51fe05062bd68faf54",
    "trunk2-m8-padded": "642b95b7b64b695ebd5e5c75d7dc81793b630fbc4a10ef87c7ead25fee966772",
    "trunk3-m0-one": "5b0d26332936b4b476c36c8b947820991caf1534e1400dc1d45ac378c23c1840",
    "trunk3-m0-padded": "63c922fbc0d4bf6245b140e24b9f4f8c2e2579fe1759aecbf9aaae755032345f",
    "trunk3-m2-one": "5dba021d23cdf32293600bace36c1b7d606fb6c7c49f7f2f9fa98a8f2c662e4b",
    "trunk3-m2-padded": "30136d9f5a9c00359dee8d267765edf7e302dfdbf5a823aff83ae71272c6f54a",
    "trunk3-m8-one": "e3d62d8abb6fd12988ad443ca3608f4ca468dc46d5e0580223c35315138191c1",
    "trunk3-m8-padded": "45d9443a88f7f0b042d3fba69ca7284540d9459cf4641cced7a8d289dd325126",
    "unequal-m0-one": "f1745d688b49ebfb087bb4adb0d8c5b20cb73ee781e71cb9e0d49b6f044add5c",
    "unequal-m0-padded": "5eb1ebcee61f25b7854680413279000ee519bdc12768a2e1e613d384eb2b46f1",
    "unequal-m2-one": "11765fa14a40bff24688bbc71e8c4e461386cc2689e83ecd483cd3eab2964253",
    "unequal-m2-padded": "8d17d657c45098b78793f615c8da8878887d030b2908537a8aed3a4ff8eaacbe",
    "unequal-m8-one": "7ebe28b8e541c1b80ec98dfe5ce7dd69d34f6eababc18f9194ac91af390b32a4",
    "unequal-m8-padded": "43a7f2bb4b2cc26cac9a76f30c650ba69dbd36c3f723797c683cd59f9ea3d9f0",
    "uniform-m0-one": "5d77b38ee65ccba03d29ee1de989552ba82989b38a0aa0b5297b1ed18a356b2a",
    "uniform-m0-padded": "5bf394bd4a292cc80a50310deaa2a79045cb5e505a6fda868c047ac23f04675c",
    "uniform-m2-one": "698c0b18a13687951787455d38517c2b101c6036f8a1a7990a21706b0dac91ea",
    "uniform-m2-padded": "fcd28a5a447b6ababf6fbf4ce2a42fbaf5c1edf1025f68c4916fbc70840de9aa",
    "uniform-m8-one": "aee9b57ed63129bbd5f5b390201d5ab002b8703279b4b6d1bb44f71e6f65194a",
    "uniform-m8-padded": "62d6401bdf16f8b4326b84942a3cd3593d74dbbabbcb624aeb2d994a47122a29",
    "width1-m0-one": "feed79aa51e2d1427d1d3e46e6af1725dd861c12dcf3f39854ca8ec68b8e1910",
    "width1-m0-padded": "ca473ee9385344c351d50ca2be3235d8e7590bd31d9f716f9911b5c1d223f539",
    "width1-m2-one": "7791a74a30ff979899455bebebdeee7023924eeb6c77660ba012bdb21ac35e47",
    "width1-m2-padded": "3b76c798ee8596f6623cc27f626ba28ae9d78ccf907c960998eb6d084d7633f5",
    "width1-m8-one": "530ac6a1b886ede055afb9a48e1d32692c9f24a395d43ef0922f35b5d14c29a2",
    "width1-m8-padded": "16e82935a805d0a0a8d59c7ce02061a8abce325657f5f8d2321ae228269c394e",
}
GRADS_DIGEST = "ba5f158a17221ab4d90632fe8b456bff0c2be30cda8a86b6e9015fbe35c78c7d"


def _models(case: str, m: int):
    d_m, layers, heads, dims, depth, width, uniform = CASES[case]
    seed = sorted(CASES).index(case)
    model = Backbone(ModelConfig(d_m=d_m, layers=layers, heads=heads, n_items=N_ITEMS,
                                 max_positions=24, m=m, seed=seed))
    rng = Rng(seed, 3)
    # parameters at unit scale, so attention and predictions are far from uniform
    for name, t in model.params().items():
        t.data[...] = rng.normal(t.shape, std=0.7)
        if name.endswith("attn.wk"):  # the draw of the key bias the blocks had
            rng.normal(d_m, std=0.7)
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
