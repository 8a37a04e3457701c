"""Backbone encoding, ranking, and weight-tying tests."""

import numpy as np
import pytest

from vrec.backbone import Backbone, KVCache, ModelConfig
from oracles import ChainCache, encode_chain, greedy_recommend, softmax
from vrec.numerics import Rng, Tensor, tracking
from vrec.verifiers import make_bank, verify_and_adjust


def small_cfg(**kw):
    base = dict(d_m=16, layers=2, heads=2, n_items=12, max_positions=16, m=2, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def test_same_seed_identical_params():
    a, b = Backbone(small_cfg()), Backbone(small_cfg())
    for k in a.params():
        assert np.array_equal(a.params()[k].data, b.params()[k].data)


def test_param_count_formula():
    cfg = small_cfg(d_m=24, layers=3, heads=3, n_items=20, max_positions=40)
    d, L = cfg.d_m, cfg.layers
    expected = cfg.vocab * d + cfg.max_positions * d + L * (12 * d * d + 13 * d) + 2 * d
    assert Backbone(cfg).values.size == expected


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        small_cfg(d_m=8, heads=3)


def test_negative_m_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        small_cfg(m=-1)


def test_encode_shape():
    bb = Backbone(small_cfg())
    assert bb.encode([0, 3, 5]).shape == (3, 16)


def test_causality_exact():
    bb = Backbone(small_cfg())
    a = bb.encode([0, 3, 5, 7])
    b = bb.encode([0, 3, 5, 9])  # change only the last token
    assert np.array_equal(a.data[:3], b.data[:3])
    assert not np.array_equal(a.data[3], b.data[3])


def test_causality_all_prefixes():
    # exact equality under suffix edits at fixed length; shorter re-encodes
    # agree to float precision (reduction order differs with sequence length)
    bb = Backbone(small_cfg())
    hist = [1, 4, 2, 8, 6]
    full = bb.encode(hist)
    for t in range(1, len(hist)):
        edited = bb.encode(hist[:t] + [11] * (len(hist) - t))
        assert np.array_equal(edited.data[:t], full.data[:t])
        prefix = bb.encode(hist[:t])
        assert np.allclose(prefix.data, full.data[:t], atol=1e-12)


def test_injected_latents_replace_lookup():
    bb = Backbone(small_cfg())
    plain = bb.encode([0, 3, 5])
    lat = Tensor(np.full((1, 16), 0.1))
    with_lat = bb.encode([0, 3, 5], [lat])
    assert with_lat.shape == (4, 16)
    assert np.array_equal(with_lat.data[:3], plain.data[:3])


def test_cached_encode_in_chunks_matches_one_pass():
    bb = Backbone(small_cfg())
    hist = [1, 4, 2, 8, 6, 0]
    latents = [Tensor(Rng(1).normal((1, 16))), Tensor(Rng(2).normal((1, 16)))]
    full = bb.encode(hist, latents)
    for cut in range(1, len(hist) + 1):
        cache = KVCache()
        head = bb.encode(hist[:cut], cache=cache)
        tail = bb.encode(hist[cut:], latents[:1], cache=cache)
        last = bb.encode([], latents[1:], cache=cache)
        assert len(cache) == len(full.data)
        chunks = np.concatenate([head.data, tail.data, last.data])
        assert np.abs(chunks - full.data).max() <= 1e-12


def test_cached_encode_errors():
    bb = Backbone(small_cfg(max_positions=4))
    cache = KVCache()
    bb.encode([0, 1], cache=cache)
    with pytest.raises(ValueError, match="at least one new position"):
        bb.encode([], cache=cache)
    with pytest.raises(ValueError, match="sequence length 5 exceeds max_positions 4"):
        bb.encode([3, 4, 5], cache=cache)
    assert len(cache) == 2  # a refused call leaves the cache as it was
    assert bb.encode([3], [Tensor(np.zeros((1, 16)))], cache=cache).shape == (2, 16)
    assert len(cache) == 4


def test_latent_step_errors():
    # a latent step after a cached history checks only the rows it adds
    bb = Backbone(small_cfg(max_positions=4))
    cache = KVCache()
    bb.encode([0, 1, 2], cache=cache)
    for rows in (np.zeros((2, 16)), np.zeros((1, 15)), np.zeros(16)):
        with pytest.raises(ValueError, match="latent rows of shape"):
            bb.encode([], [Tensor(rows)], cache=cache)
    assert len(cache) == 3
    wide = Tensor(np.arange(20.0)[None])  # the first 16 columns are the latent
    step = bb.encode([], [wide], cache=cache).data
    whole = bb.encode([0, 1, 2], [Tensor(wide.data[:, :16])]).data
    assert np.abs(step - whole[-1:]).max() <= 1e-12
    with pytest.raises(ValueError, match="sequence length 5 exceeds max_positions 4"):
        bb.encode([], [wide], cache=cache)
    assert len(cache) == 4
    # of several steps at once each is checked, not only the rows they stack to
    bb = Backbone(small_cfg())
    cache = KVCache()
    bb.encode([[0, 1], [2, 3]], cache=cache)
    for shapes in (((3, 16), (1, 16)), ((2, 16), (2, 15)), ((2, 16), (32,))):
        with pytest.raises(ValueError, match="latent rows of shape"):
            bb.encode([], [Tensor(np.zeros(s)) for s in shapes], cache=cache)
    assert len(cache) == 2


def test_encode_errors():
    bb = Backbone(small_cfg(max_positions=4))
    with pytest.raises(ValueError, match="max_positions"):
        bb.encode([0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match="non-empty"):
        bb.encode([])
    with pytest.raises(ValueError, match="shape"):
        bb.encode([0, 1], [Tensor(np.zeros((1, 7)))])
    with pytest.raises(ValueError, match=r"shape \(1, 16\), expected \(2, 16\)"):
        bb.encode([[0, 1], [2, 3]], [Tensor(np.zeros((1, 16)))])  # one row for two histories


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["negative", "non_item_token", "beyond"])
def test_encode_refuses_ids_outside_the_items(offset):
    # n_items itself is the reserved padding token, not an item
    bb = Backbone(small_cfg())
    bad = -1 if offset < 0 else bb.cfg.n_items + offset
    for history in ([3, bad], [[0, 1, 2], [bad]]):  # one history; a padded batch
        with pytest.raises(ValueError, match=rf"history item id {bad} outside 0\.\.11"):
            bb.encode(history)
    cache = KVCache()
    bb.encode([0, 1], cache=cache)
    with pytest.raises(ValueError, match=f"history item id {bad}"):
        bb.encode([bad], cache=cache)


def test_scores_softmax_normalized():
    bb = Backbone(small_cfg())
    scores = bb.next_item_scores(bb.encode([0, 3, 5]))[2]
    assert scores.shape == (12,)
    assert abs(softmax(scores).data.sum() - 1.0) < 1e-12


def test_greedy_is_top_of_scores():
    bb = Backbone(small_cfg())
    hidden = bb.encode([0, 3, 5])
    scores = bb.next_item_scores(hidden).data[2]
    assert greedy_recommend(bb, hidden[2:]) == int(scores.argmax())


def test_rank_full_permutation_and_oracle():
    bb = Backbone(small_cfg())
    hidden = bb.encode([2, 7])
    ranked = bb.rank_items(hidden)[1]
    assert sorted(ranked.tolist()) == list(range(12))
    scores = bb.next_item_scores(hidden).data[1]
    # brute-force oracle: stable sort on (-score, id)
    oracle = sorted(range(12), key=lambda i: (-scores[i], i))
    assert ranked.tolist() == oracle
    assert bb.rank_items(hidden, 5)[1].tolist() == oracle[:5]


def test_rank_ties_break_to_lower_id():
    bb = Backbone(small_cfg())
    emb = bb.params()["tok_emb"]
    emb.data[7] = emb.data[3]  # force an exact score tie between items 3 and 7
    hidden = bb.encode([0, 1])
    ranked = bb.rank_items(hidden)[1].tolist()
    assert ranked.index(3) < ranked.index(7)


def test_output_projection_weight_tied():
    bb = Backbone(small_cfg())
    assert not any("out" in k for k in bb.params())
    hidden = bb.encode([0, 1])
    before = bb.next_item_scores(hidden).data[1].copy()
    bb.params()["tok_emb"].data[5] += 1.0
    after = bb.next_item_scores(hidden).data[1]
    assert after[5] != before[5]
    mask = np.arange(12) != 5
    assert np.array_equal(after[mask], before[mask])


def test_scores_reproducible():
    bb = Backbone(small_cfg())
    h = bb.encode([4, 9, 1])
    a = bb.next_item_scores(h).data[2]
    b = bb.next_item_scores(bb.encode([4, 9, 1])).data[2]
    assert np.array_equal(a, b)


# -- the fused blocks against the chain of ops they replaced ----------------


def _rollout(encode, cache, histories: list, coef: list) -> Tensor:
    """A scalar over every output of a cached rollout: the histories in two
    chunks (the second with a latent column), then three one-column latent
    steps, each latent a function of the previous output."""
    cut = min(map(len, histories)) // 2
    B = len(histories)
    outs = [encode([h[:cut] for h in histories], None, cache)]
    outs.append(encode([h[cut:] for h in histories], [outs[-1][-B:] * 0.5], cache))
    for _ in range(3):
        outs.append(encode([], [outs[-1][-B:] * 0.5], cache))
    loss = None
    for out, k in zip(outs, coef):
        term = (out * k[:len(out.data)]).sum()
        loss = term if loss is None else loss + term
    return loss


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_fused_blocks_match_oracle_chain(layers, heads, padded):
    bb = Backbone(small_cfg(d_m=12, layers=layers, heads=heads, max_positions=20))
    rng = Rng(layers, heads)
    for t in bb.params().values():  # unit scale: attention far from uniform
        t.data[...] = rng.normal(t.shape, std=0.6)
    histories = [[1, 4, 2, 8, 6, 0, 3], [3, 5, 11], [7, 7, 1, 9, 2]] if padded else \
        [[1, 4, 2, 8, 6], [3, 5, 11, 0, 10]]
    coef = [rng.normal((8 * len(histories), 12)) for _ in range(5)]
    params = list(bb.params().values())
    results = []
    for encode, cache in ((lambda h, i, c: bb.encode(h, i, c), KVCache()),
                          (lambda h, i, c: encode_chain(bb, h, i, c), ChainCache())):
        # uncached: histories and two latents in one pass
        whole = encode(histories, [Tensor(coef[0][:len(histories)])] * 2, None)
        with tracking(params):
            loss = _rollout(encode, cache, histories, coef)
            loss.backward()
        results.append((whole.data, loss.data, [t.grad.copy() for t in params]))
        for t in params:
            t.zero_grad()
    (whole, loss, grads), (chain_whole, chain_loss, chain_grads) = results
    assert np.array_equal(whole, chain_whole)
    assert loss.tobytes() == chain_loss.tobytes()
    for got, want in zip(grads, chain_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_packed_verdicts_as_latents_match_oracle_chain(layers, padded):
    # latents injected as the bank step's packed output, whose first d_m
    # columns the first block reads, with the position rows added inside
    # that block: against the chain that cuts r* out and adds the positions
    # before it, in uncached and cached calls, with one and two latents
    bb = Backbone(small_cfg(d_m=12, layers=layers, heads=3, max_positions=20))
    bank = make_bank([("a", 3), ("b", 4), ("c", 3)], d_m=12, seed=layers, hidden_depth=2)
    rng = Rng(layers, 12)
    params = list(bb.params().values()) + list(bank.params().values())
    for t in params:  # unit scale: attention and predictions far from uniform
        t.data[...] = rng.normal(t.shape, std=0.6)
    histories = [[1, 4, 2, 8, 6, 0, 3], [3, 5, 11], [7, 7, 1, 9, 2]] if padded else \
        [[1, 4, 2, 8, 6], [3, 5, 11, 0, 10]]
    B, cut = len(histories), 2

    def packed(rows, scale=1.0):
        return verify_and_adjust(bank, rows * scale).packed

    def rollout(encode, cache):
        outs = [encode([h[:cut] for h in histories], None, cache)]
        outs.append(encode([h[cut:] for h in histories], [packed(outs[-1][-B:])], cache))
        for k in (1, 2, 1):
            last = outs[-1][-B:]
            outs.append(encode([], [packed(last, 1.0 - 0.5 * j) for j in range(k)], cache))
        return outs

    latents = [packed(Tensor(rng.normal((B, 12)))) for _ in range(2)]
    results = []
    for encode, cache in ((lambda h, i, c: bb.encode(h, i, c), KVCache()),
                          (lambda h, i, c: encode_chain(bb, h, i, c), ChainCache())):
        whole = encode(histories, latents, None)
        with tracking(params):
            outs = rollout(encode, cache)
            loss = None
            for j, out in enumerate(outs):
                term = (out * Tensor(np.cos(np.arange(out.size) + j).reshape(out.shape))).sum()
                loss = term if loss is None else loss + term
            loss.backward()
        results.append(([whole.data] + [out.data for out in outs], loss.data,
                        {name: t.grad.copy() for name, t in
                         [*bb.params().items(), *bank.params().items()]}))
        for t in params:
            t.zero_grad()
    (rows, loss, grads), (chain_rows, chain_loss, chain_grads) = results
    assert len(rows) == len(chain_rows) == 6
    for got, want in zip(rows, chain_rows):
        assert np.array_equal(got, want)
    assert loss.tobytes() == chain_loss.tobytes()
    checked = [name for name in grads
               if name == "pos_emb" or name.startswith(("ln_f.", "blocks.", "router.",
                                                        "verifiers."))]
    assert len(checked) == 3 + 16 * layers + 2 + 3 * 4
    assert grads["pos_emb"].any()
    for name in checked:
        assert np.abs(grads[name] - chain_grads[name]).max() <= 1e-12, name
