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
each was, so every other value is the one drawn before it went. The digests
were taken with numpy 2.4.6 on x86-64, one set for each OpenBLAS kernel
that rounds the run its own way; a kernel without a set fails, naming
itself."""

import hashlib

import numpy as np
import pytest

from oracles import kernel_pin, layout_grads, per_verifier_views
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

# per OpenBLAS kernel (oracles.kernel_pin): each kernel blocks a product's
# inner sums its own way
DIGESTS = {
    "SkylakeX": {
        "bench-m0-one": "7b4fead48558485c28f0f90471cc8dfbe93c2199697119bf71054e3f4503445a",
        "bench-m0-padded": "21dd01847a3e0c4c0622b4b72df7ed3194f7f2e3af6c3ed6e017b6452e3a0303",
        "bench-m2-one": "ee60bfe5ecd694e3661871a35830f3452d0a46150078360d63dd85bfbe126b8a",
        "bench-m2-padded": "c5dedd41e31cac57a6488e64c3657fa4670d407b62727fe9e3e54de40cd403b7",
        "bench-m8-one": "8347c2afd83bded49352de3681198afd8f1dc7d2e58b7d1bbda06e0d17436d9d",
        "bench-m8-padded": "b5182bfaf1f8ed5e5baff0d17f77eb07df9a1820e8328984a1106879dcef4868",
        "plain-m0-one": "6964d4e995f6a3e0462426a87f0a2e47cf511df12278eb4c937ff591e1afb2a8",
        "plain-m0-padded": "db344b87d53206393c62cca704bfbcbcf6eab4c2c4d230cc5b6e1f1a5e1a8981",
        "plain-m2-one": "cb791fb03e84b5a089cbd7df2100acf1cd84eb93a6e0a13fd88dc7c95d894c9f",
        "plain-m2-padded": "418fa67e40ee2fd0f947f916fcd9a7edb47340ba2d4ba1c81d11c15ddb49622f",
        "plain-m8-one": "4f2eab2b5605b7cf317a656a0c303fb220e4a9a6ea6081ffec75428fe7b42c0b",
        "plain-m8-padded": "4d4c79b338c9f29eff51d45b8e3a39fe07d293f0e1a3d61b43a6a6dad11cbd88",
        "trunk2-m0-one": "f6d0749e2fef843962d68f8fac2a9fb944ab607439220ec49bc1402ff6ca2725",
        "trunk2-m0-padded": "658355ca0cf8fba87b2678ae626f0b3619d48e2e5c0832f55f2d9a6d094201b7",
        "trunk2-m2-one": "7d9898293c298755fbf0ecf8218b2c928dbd95873a5b5f6871f63ef9584be97e",
        "trunk2-m2-padded": "428f8f1b107932f936f207b2d9bc71f1ee3300545265397f6d3840a160ae3cd4",
        "trunk2-m8-one": "c063ccf88c111df18768953af909e7dbdc2b41800ef1fddfc38eda602f152065",
        "trunk2-m8-padded": "fb1d133623048a8a8ffb0e0ca6c154451233ae54d9d858eb4c494c0888ce1df9",
        "trunk3-m0-one": "3d7c641592a9541dd1d44005200030f7ac42eb3b382027e6be4f969030874f12",
        "trunk3-m0-padded": "2753ea3cabde42b77b00029565574033fca4bdb618cf2af5e081f36d37aca8c7",
        "trunk3-m2-one": "a7c4afe964262b3d045d8df3ff1b4f24219afed684ae12018ff17706f4498a5f",
        "trunk3-m2-padded": "8a630eddc7b2b23dccc9385eaab0d02ec0afc7e09fa87da56b2ea896cddbbe76",
        "trunk3-m8-one": "ccfc20f25ca2cbc823380c827ff8a6d0392afe9a51b6a8de8706a9e277faf753",
        "trunk3-m8-padded": "0e77f4d7b3b4c06fb8ac1f3b74d7b052f71a5ec16116505abdf0effb1e039b49",
        "unequal-m0-one": "4a3a33af25a759ec0b23b498ec19a0b24e8fa08637a1822e3e02e15de4c4ae60",
        "unequal-m0-padded": "5deb7cd8b542a424e460e73ac34006a137f4b4baf8661f2d7225ec075083d7ca",
        "unequal-m2-one": "2a38332c9d815ce4319a3e91f3b51fcb4c9035f5b788a007190f70f96e9bf79b",
        "unequal-m2-padded": "3c6f9d24bf8f325cdf5a0e0777cfc3437cc403f45bb5b8a99de0e7924918af68",
        "unequal-m8-one": "caf90fc14b9c84e8367c07a663f6915565ee5afd7cc07c8db30877625d7b8939",
        "unequal-m8-padded": "8aa161a2719aabaaa0dace2e13603380a160e301f9ad9b423f8688b4049c29d5",
        "uniform-m0-one": "6cf4d746e2c76a017ea136387c5f2ad34a1556004edaec57234b8f6e8532305c",
        "uniform-m0-padded": "fcdb21e3f27abee74ae642b819463821cf9804dc58726b6e58d0aaaa1f38cde5",
        "uniform-m2-one": "87d1656922d5324a0710d21ed7418edeed4e22987970be72596e8277e70b9d08",
        "uniform-m2-padded": "e006a842db3c4597bfff77b7951d9f341b273866188ac515fc3e91901ec6364b",
        "uniform-m8-one": "27cc009c00b7cbe8355dff9c798cb7327b68590192cea863e1989c0e2fa3d457",
        "uniform-m8-padded": "7d6434fa90ffd1fcae42468847529be858c69d49525909c48c619d9321e3a3dd",
        "width1-m0-one": "8a65352a7347e1f9861023abd788567b42710f8918ba0f2508489020e44f56eb",
        "width1-m0-padded": "bf2344673e7e1bfc4529c143749342d4632440cd5a588653ded25e939138f368",
        "width1-m2-one": "5b3ad2766b081c3861e1afce5c80949bd9bfbd3d8855821a226e558227d5fed3",
        "width1-m2-padded": "575918b097bed9f25f32e613ef8875825741c93126d870392435bbc4c75c4b40",
        "width1-m8-one": "daf0d8b1a510bb12886d62d022a0d512c283375f73aa82a3238b1317603221d8",
        "width1-m8-padded": "95d17a0f2bf9ae12614698a0ed4cb9ded43847aa70f5f1dd7aec7b8d74e1e04f",
    },
    "Haswell": {
        "bench-m0-one": "6c533dd6c3b4ecadd40c0e5f8779e21b86d47b8fdf68c78ed7b9b195efee5654",
        "bench-m0-padded": "4f84266a3b88e4576e452a0656606a7534d6136cbf78f831be5ac895cd899596",
        "bench-m2-one": "d720cdc81fa17d49657292ba0353b8796868dbdb9d77ebc98dc03ddacb3dd6c9",
        "bench-m2-padded": "4e15a4292b968969a1fc14e7a4723180dad0c17d0343672e0aecb17cdbe0edc8",
        "bench-m8-one": "be02a2be4ec5bdcb21f2f052ab705e04b6487f8323c734df5e27ea3a0acfe64a",
        "bench-m8-padded": "4f2dc6b0705ad22ad7a055fb9f1add37d4b23c2cd7bd8aa757d24d38d38df7e8",
        "plain-m0-one": "18ab67254187ed25d99fc415e410e55645d11c8bfb85c1e9b3fb99daf89ff5cf",
        "plain-m0-padded": "3ea20608bbb76f151a6b7923971ad100379f5e7451f607bdb3853728d125c699",
        "plain-m2-one": "f0bd98666bb1e90ba8bbf514078682f04f110383726790832b5bf89579a61967",
        "plain-m2-padded": "c5162651146b70769e9f08519e941172811c9d96f30bfe3dee3b50103f9ddd39",
        "plain-m8-one": "9b244299b3b0582cc1d13b556af1a181d22b03c28836534ce3d73e2eb5c873d1",
        "plain-m8-padded": "46ffeb2250312ba776e8981825ae55a99fb58e15a9feacf6599e6d3bf3d60783",
        "trunk2-m0-one": "a2a88f0e48b74349e47a50c3d8cef9eb12b2865bf31e7332bee02e2db41c6c35",
        "trunk2-m0-padded": "44241c6243a09b3f66c4422b7fb5cca24f4ebc686879e21f04b0b63829ac59da",
        "trunk2-m2-one": "7ea585956a2d005a2bbcb9b18c9de2f632e4995fcba8ce33a93d79e12cd92b85",
        "trunk2-m2-padded": "fc646191fe50e61658f3117dd418099f529f4848715d56edf8cbe6b79e0bbf1c",
        "trunk2-m8-one": "cb938f84620157fd9ae2a3722a1627078755a6346826cad08aaef8c09d35f090",
        "trunk2-m8-padded": "11fcc059e156622639ef5a13a5c72823a3a27af990a6a627d4020fac43715a53",
        "trunk3-m0-one": "424c7005e119268a0137b54ea7686d6922f0729684f998308646610da5849787",
        "trunk3-m0-padded": "e821095d6889d115d984c574fa6ea2b6d42ddd793e188e21363e7915826b9e5c",
        "trunk3-m2-one": "e1a8778ee391c3ec860b54bdbc6c177d4b064b99e49ad3063fa5d5b0210ecb44",
        "trunk3-m2-padded": "ab70e6be68f8b5b379b9ce24be2a6fe1ecd5a9225386b8b0d8fa12774b115a8f",
        "trunk3-m8-one": "b782c467fe8b85b39cbb2da9e2713727cdd8b252a29a223d41c19dd77a79291e",
        "trunk3-m8-padded": "22fc87034e3c1d1a71fea4a33a1d2c991d9bc372d3d7872e0ed8ebc812348040",
        "unequal-m0-one": "fabe2f0b6fe2d6245d74c13e37d1516095c833d14e870ebecf39c7f6a7d225d1",
        "unequal-m0-padded": "3357cc4d38b58d47a231eb1c81c6de896411fda8617c2e0d639454e704ae5786",
        "unequal-m2-one": "c89f3b72f5942e8c498ccd19b233f0270393ad139f09588b7b8d0d059965585b",
        "unequal-m2-padded": "3855621c4d0823cd679be915be4b902209be39a4671724b162d122f58b7b44bc",
        "unequal-m8-one": "41482c3b0050db1251ed8dfdba5a1ea24f36891b3a4cafda8ccb07c19502039e",
        "unequal-m8-padded": "5146688a666740fe6d4bf423db8132487dda4b816825cc520cf71b0ff132f09f",
        "uniform-m0-one": "74a15fc6a7dfeaefe363c2fd959a963206d1901a798f7aace49134c9fb58cdc8",
        "uniform-m0-padded": "98a5d0b0f4afa5c7d71a981477fba1dbb8cf44e4bad12d80c6a0248364e64946",
        "uniform-m2-one": "df0aa68e48ac094a51ed4432b6844e961b43d0d0c380bb17b1a30ea31d0f67fc",
        "uniform-m2-padded": "10c825f1f30c485acba881e362b3fe7ab4ce5b7e66e33a122fc4efc8e0a51465",
        "uniform-m8-one": "566422e4ec3b62c90d7a161fa710e3966669d68aba2672dcaa28ef86da3f26aa",
        "uniform-m8-padded": "b6cfdc87429c5045a5757cc5ced0712c057a856cdd1e118b5ceb5ab022aeaaa2",
        "width1-m0-one": "57ad64c9eb8e5ef50a401d4afc60c51f78f1fe156e6ba2e459d17c2851c4b669",
        "width1-m0-padded": "68ec19051823428f0ee119688ee2452b748d7ae017445cda4830d461b716e6ab",
        "width1-m2-one": "54729530dd1763bd228db8eca1f05ceb9a4d164197e91b7530aca95ec4e1c8b7",
        "width1-m2-padded": "04327fb7aeb0e839dfa649a777bd6924fa1922fcc13208310fb026d28ca6f761",
        "width1-m8-one": "8acd2e1467a343c5fbbd48f41c38f134d4e5ec3e33e029510bbf58173f7fa673",
        "width1-m8-padded": "e33b5b01b7f43709fac57bbd197ed78e4928b5224768095d2a976e72e5f17cc2",
    },
}
GRADS_DIGESTS = {
    "SkylakeX": "b063f4a224e53b93dca5147711c217e112daa8605a514fa715fe178b55baba59",
    "Haswell": "e25415d7ce84993689733fdec54feea4f7c14d95e20fd6c9b1a55a4c813fcaf6",
}


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
    assert _served(case, m, batch) == kernel_pin(DIGESTS)[f"{case}-m{m}-{batch}"]


def _stage2_gradients() -> str:
    # one stage-2 backward at the width-1 shape: both models' gradients, in
    # parameter_layout order
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
    return h.hexdigest()


def test_stage2_gradients_pinned():
    assert _stage2_gradients() == kernel_pin(GRADS_DIGESTS)
