"""Backbone encoding, ranking, and weight-tying tests."""

import hashlib

import numpy as np
import pytest

from vrec.backbone import MASK_VALUE, Backbone, KVCache, ModelConfig
from oracles import ChainCache, encode_chain, encode_every_row, greedy_recommend, softmax
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
    expected = cfg.vocab * d + cfg.max_positions * d + L * (12 * d * d + 12 * d) + 2 * d
    assert Backbone(cfg).values.size == expected


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        small_cfg(d_m=8, heads=3)


def test_negative_m_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        small_cfg(m=-1)


def test_encode_shape():
    # one row per sequence: each history's last position, then each step's
    bb = Backbone(small_cfg())
    cache = KVCache()
    assert bb.encode([0, 3, 5], cache=cache).shape == (1, 16)
    assert bb.encode([], [Tensor(np.zeros((1, 16)))], cache=cache).shape == (1, 16)
    cache = KVCache()
    assert bb.encode([[0, 3, 5], [1]], cache=cache).shape == (2, 16) and len(cache) == 3


def _kv(cache: KVCache, columns: int) -> list:
    """Every layer's cached keys and values of the first ``columns``
    columns, for one sequence."""
    return [a[:columns] for _, keys, values in cache.layers for a in (keys, values)]


def test_causality_exact():
    # a changed last token leaves every layer's keys and values of the
    # positions before it bit for bit, and moves the state encode returns
    bb = Backbone(small_cfg())
    caches = KVCache(), KVCache()
    a = bb.encode([0, 3, 5, 7], cache=caches[0])
    b = bb.encode([0, 3, 5, 9], cache=caches[1])  # change only the last token
    for got, want in zip(_kv(caches[1], 3), _kv(caches[0], 3), strict=True):
        assert np.array_equal(got, want)
    assert not np.array_equal(_kv(caches[1], 4)[-1], _kv(caches[0], 4)[-1])
    assert not np.array_equal(a.data, b.data)


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
def test_causal_mask_only_for_the_blocks_below_the_top(padded):
    # the top block computes each history's last row, which sees every column
    # of its own: a one-layer model builds no causal mask, a two-layer one
    # the mask it always had; the top block's is the padding mask alone
    histories = [[1, 2, 3, 4], [5, 6] if padded else [5, 6, 7, 8]]
    causal = np.where(np.arange(4) > np.arange(4)[:, None], MASK_VALUE, 0.0)
    keys = np.where(np.arange(4) >= np.array([[4], [2]]), MASK_VALUE, 0.0)[:, None, :]
    for layers in (1, 2):
        _, _, (mask, _, top) = Backbone(small_cfg(layers=layers))._embed(histories, KVCache())
        if layers == 1:
            assert mask is None
        else:
            assert np.array_equal(mask, causal + keys if padded else causal)
        assert np.array_equal(top, keys) if padded else top is None


def test_causality_all_prefixes():
    # exact equality of the cached keys and values under suffix edits at a
    # fixed length; each prefix's state agrees with the full-row chain's row
    # at that position to float precision (reduction order differs with
    # sequence length)
    bb = Backbone(small_cfg())
    hist = [1, 4, 2, 8, 6]
    full_cache = KVCache()
    bb.encode(hist, cache=full_cache)
    rows = encode_chain(bb, hist, every_row=True).data
    for t in range(1, len(hist) + 1):
        edited = KVCache()
        bb.encode(hist[:t] + [11] * (len(hist) - t), cache=edited)
        for got, want in zip(_kv(edited, t), _kv(full_cache, t), strict=True):
            assert np.array_equal(got, want)
        prefix = bb.encode(hist[:t], cache=KVCache())
        assert np.abs(prefix.data - rows[t - 1:t]).max() <= 1e-12


def test_injected_latents_replace_lookup():
    # a latent step takes the place of a token lookup at the next position
    bb = Backbone(small_cfg())
    plain = bb.encode([0, 3, 5], cache=KVCache())
    lat = Tensor(np.full((1, 16), 0.1))
    cache = KVCache()
    head = bb.encode([0, 3, 5], cache=cache)
    step = bb.encode([], [lat], cache=cache)
    assert step.shape == (1, 16) and len(cache) == 4
    assert np.array_equal(head.data, plain.data)
    assert np.abs(step.data - encode_chain(bb, [0, 3, 5], [lat]).data).max() <= 1e-12


def one_pass(bb, histories, latents) -> np.ndarray:
    """What a cached rollout's calls return, stacked, from one uncached pass
    of the full-row chain over the histories and the latents: each
    history's row at its own last position, then each latent's rows."""
    seqs = [histories] if np.ndim(histories[0]) == 0 else histories
    B, counts = len(seqs), np.array([len(s) for s in seqs])
    rows = encode_chain(bb, histories, [Tensor(t.data) for t in latents], every_row=True).data
    return np.concatenate([rows[(counts - 1) * B + np.arange(B)], rows[counts.max() * B:]])


def test_cached_encode_in_chunks_matches_one_pass():
    # the histories, then one latent step per call, against the reference's
    # one pass over both
    bb = Backbone(small_cfg())
    for histories in ([1], [1, 4, 2], [1, 4, 2, 8, 6, 0], [[1, 4, 2, 8], [3, 5]],
                      [[6], [0, 2, 9]]):
        seqs = [histories] if np.ndim(histories[0]) == 0 else histories
        B = len(seqs)
        latents = [Tensor(Rng(1).normal((B, 16))), Tensor(Rng(2).normal((B, 16)))]
        cache = KVCache()
        chunks = [bb.encode(histories, cache=cache)]
        chunks += [bb.encode([], [lat], cache=cache) for lat in latents]
        assert len(cache) == max(map(len, seqs)) + len(latents)
        full = one_pass(bb, histories, latents)
        assert np.abs(np.concatenate([c.data for c in chunks]) - full).max() <= 1e-12


def test_cached_encode_errors():
    # a filled cache takes latent steps, one entry per call, up to max_positions
    bb = Backbone(small_cfg(max_positions=4))
    cache = KVCache()
    bb.encode([0, 1], cache=cache)
    for history in ([3], [[3], [4]], []):
        with pytest.raises(ValueError, match="takes only latent steps"):
            bb.encode(history, cache=cache)
    step = Tensor(np.zeros((1, 16)))
    with pytest.raises(ValueError, match="one entry, got 2"):
        bb.encode([], [step, step], cache=cache)
    assert len(cache) == 2  # a refused call leaves the cache as it was
    assert bb.encode([], [step], cache=cache).shape == (1, 16)
    bb.encode([], [step], cache=cache)
    with pytest.raises(ValueError, match="sequence length 5 exceeds max_positions 4"):
        bb.encode([], [step], cache=cache)
    assert len(cache) == 4


def test_latent_step_errors():
    # a latent step after cached histories, unpadded or padded, checks only
    # the rows it adds: (B, d_m), or wider with the latent in the first d_m
    # columns
    bb = Backbone(small_cfg(max_positions=4))
    for histories in ([[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3]]):
        cache = KVCache()
        bb.encode(histories, cache=cache)
        for shape in ((3, 16), (1, 16), (2, 15), (32,), (2, 16, 1)):
            with pytest.raises(ValueError, match="latent rows of shape"):
                bb.encode([], [Tensor(np.zeros(shape))], cache=cache)
        assert len(cache) == 3
        wide = Tensor(np.arange(40.0).reshape(2, 20) / 40.0)
        step = bb.encode([], [wide], cache=cache).data
        whole = encode_chain(bb, histories, [wide]).data
        assert np.abs(step - whole).max() <= 1e-12
        with pytest.raises(ValueError, match="sequence length 5 exceeds max_positions 4"):
            bb.encode([], [wide], cache=cache)
        assert len(cache) == 4


# sha256 prefix of two latent steps' rows and of every layer's cached keys
# and values after them, in _latent_steps_digest, taken when the top block
# computed every row of the histories
LATENT_STEPS_DIGEST = "4cc5cdc2722b63bd8788550e5d4f08bd"


def _latent_steps_digest() -> str:
    h = hashlib.sha256()
    for histories in ([[1, 4, 2, 8, 6], [3, 5, 11, 0, 10]],
                      [[1, 4, 2, 8, 6, 0, 3], [3, 5, 11], [7, 7, 1, 9, 2]]):
        for layers in (1, 2):
            bb = Backbone(small_cfg(d_m=12, layers=layers, heads=3, max_positions=20, seed=3))
            rng = Rng(layers, 4)
            for t in bb.params().values():
                t.data[...] = rng.normal(t.shape, std=0.6)
            caches = KVCache(), ChainCache()
            bb.encode(histories, cache=caches[0])
            encode_every_row(bb, histories, cache=caches[1])
            for _ in range(2):
                latent = Tensor(rng.normal((len(histories), 12)))
                step = bb.encode([], [latent], cache=caches[0])
                assert np.array_equal(step.data,
                                      encode_every_row(bb, [], [latent], caches[1]).data)
                h.update(step.data.tobytes())
            for i, (_, keys, values) in enumerate(caches[0].layers):
                assert np.array_equal(keys, caches[1].keys[i].data)
                assert np.array_equal(values, caches[1].values[i].data)
                h.update(keys.tobytes())
                h.update(values.tobytes())
    return h.hexdigest()[:32]


def test_latent_steps_keep_their_bits():
    # every block still computes the keys and values of every history row,
    # and a latent step computes its rows whole, so given the same cache a
    # step keeps its bits: against the full-row chain, and pinned
    assert _latent_steps_digest() == LATENT_STEPS_DIGEST


def test_encode_errors():
    bb = Backbone(small_cfg(max_positions=4))
    with pytest.raises(ValueError, match="max_positions"):
        bb.encode([0, 1, 2, 3, 4], cache=KVCache())
    for history in ([], [[0, 1], []]):
        with pytest.raises(ValueError, match="non-empty"):
            bb.encode(history, cache=KVCache())
    row = Tensor(np.zeros((1, 16)))
    with pytest.raises(ValueError, match="histories or one latent step, not both"):
        bb.encode([0, 1], [row], cache=KVCache())
    with pytest.raises(ValueError, match="histories or one latent step, not both"):
        bb.encode([[0, 1], [2, 3]], [Tensor(np.zeros((2, 16)))], cache=KVCache())
    with pytest.raises(ValueError, match="needs the cache that holds its histories"):
        bb.encode([], [row], cache=KVCache())


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["negative", "non_item_token", "beyond"])
def test_encode_refuses_ids_outside_the_items(offset):
    # n_items itself is the reserved padding token, not an item
    bb = Backbone(small_cfg())
    bad = -1 if offset < 0 else bb.cfg.n_items + offset
    for history in ([3, bad], [[0, 1, 2], [bad]], [[bad, 0], [1, 2]]):
        cache = KVCache()  # one history; a padded batch; an unpadded one
        with pytest.raises(ValueError, match=rf"history item id {bad} outside 0\.\.11"):
            bb.encode(history, cache=cache)
        assert (len(cache), cache.batch, cache.pad) == (0, 0, None)


@pytest.mark.parametrize("histories", [[[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3]]],
                         ids=["unpadded", "padded"])
def test_each_refused_call_leaves_the_cache_as_it_was(histories):
    bb = Backbone(small_cfg())
    rows = Tensor(Rng(3).normal((2, 16)))
    caches = KVCache(), KVCache()
    for cache in caches:  # one sees every refusal, the other none
        bb.encode(histories, cache=cache)
        bb.encode([], [rows], cache=cache)
    cache = caches[0]

    def state(c):
        return len(c), c.batch, None if c.pad is None else c.pad.tolist()
    pad = None if histories[1] == [3, 4, 5] else [[False] * 4, [False, True, True, False]]
    assert state(cache) == (4, 2, pad)
    refused = [
        ("takes only latent steps", lambda c: bb.encode([[5], [6]], cache=c)),
        ("takes only latent steps", lambda c: bb.encode([], cache=c)),
        ("not both", lambda c: bb.encode(histories, [rows], cache=c)),
        ("not both", lambda c: bb.encode([[5], [6]], [rows], cache=c)),
        ("one entry, got 2", lambda c: bb.encode([], [rows, rows], cache=c)),
        ("takes only latent steps", lambda c: bb.encode([], [], cache=c)),
    ]
    for match, call in refused:
        with pytest.raises(ValueError, match=match):
            call(cache)
        assert state(cache) == (4, 2, pad), match
    # with an empty cache, a step has no histories to follow
    empty = KVCache()
    with pytest.raises(ValueError, match="needs the cache that holds its histories"):
        bb.encode([], [rows], cache=empty)
    assert state(empty) == (0, 0, None) and empty.layers == []
    # the refused calls built nothing the next step reads
    steps = [bb.encode([], [rows * 0.5], cache=c).data for c in caches]
    assert np.array_equal(steps[0], steps[1])


def test_cache_is_made_empty_and_always_given():
    # a cache starts empty, only encode fills it, and encode has no cache of
    # its own to fall back on
    for kwargs in ({"layers": []}, {"batch": 2}, {"pad": None}):
        with pytest.raises(TypeError):
            KVCache(**kwargs)
    bb = Backbone(small_cfg())
    for call in (lambda: bb.encode([0, 1]), lambda: bb.encode([0, 1], None),
                 lambda: bb.encode([0, 1], None, KVCache())):
        with pytest.raises(TypeError):
            call()
    cache = KVCache()
    assert (len(cache), cache.batch, cache.pad, cache.layers) == (0, 0, None, [])


def test_scores_softmax_normalized():
    bb = Backbone(small_cfg())
    scores = bb.next_item_scores(bb.encode([0, 3, 5], cache=KVCache()))[0]
    assert scores.shape == (12,)
    assert abs(softmax(scores).data.sum() - 1.0) < 1e-12


def test_greedy_is_top_of_scores():
    bb = Backbone(small_cfg())
    hidden = bb.encode([0, 3, 5], cache=KVCache())
    scores = bb.next_item_scores(hidden).data[0]
    assert greedy_recommend(bb, hidden) == int(scores.argmax())


def test_rank_full_permutation_and_oracle():
    bb = Backbone(small_cfg())
    hidden = bb.encode([2, 7], cache=KVCache())
    ranked = bb.rank_items(hidden)[0]
    assert sorted(ranked.tolist()) == list(range(12))
    scores = bb.next_item_scores(hidden).data[0]
    # brute-force oracle: stable sort on (-score, id)
    oracle = sorted(range(12), key=lambda i: (-scores[i], i))
    assert ranked.tolist() == oracle
    assert bb.rank_items(hidden, 5)[0].tolist() == oracle[:5]


def test_rank_ties_break_to_lower_id():
    bb = Backbone(small_cfg())
    emb = bb.params()["tok_emb"]
    emb.data[7] = emb.data[3]  # force an exact score tie between items 3 and 7
    hidden = bb.encode([0, 1], cache=KVCache())
    ranked = bb.rank_items(hidden)[0].tolist()
    assert ranked.index(3) < ranked.index(7)


def test_output_projection_weight_tied():
    bb = Backbone(small_cfg())
    assert not any("out" in k for k in bb.params())
    hidden = bb.encode([0, 1], cache=KVCache())
    before = bb.next_item_scores(hidden).data[0].copy()
    bb.params()["tok_emb"].data[5] += 1.0
    after = bb.next_item_scores(hidden).data[0]
    assert after[5] != before[5]
    mask = np.arange(12) != 5
    assert np.array_equal(after[mask], before[mask])


def test_scores_reproducible():
    bb = Backbone(small_cfg())
    h = bb.encode([4, 9, 1], cache=KVCache())
    a = bb.next_item_scores(h).data[0]
    b = bb.next_item_scores(bb.encode([4, 9, 1], cache=KVCache())).data[0]
    assert np.array_equal(a, b)


# -- the fused blocks against the chain of ops they replaced ----------------


def _rollout(encode, cache, histories: list, coef: list):
    """A cached rollout: the histories, then three latent steps, each latent
    a function of the previous output. Returns each call's output, the
    latents, and a scalar over every output."""
    outs, latents = [encode(histories, None, cache)], []
    for _ in range(3):
        latents.append(outs[-1] * 0.5)
        outs.append(encode([], [latents[-1]], cache))
    loss = None
    for out, k in zip(outs, coef):
        term = (out * k).sum()
        loss = term if loss is None else loss + term
    return outs, latents, loss


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
    coef = [rng.normal((len(histories), 12)) for _ in range(4)]
    params = list(bb.params().values())
    results = []
    for encode, cache in ((lambda h, i, c: bb.encode(h, i, cache=c), KVCache()),
                          (lambda h, i, c: encode_chain(bb, h, i, c), ChainCache())):
        with tracking(params):
            outs, latents, loss = _rollout(encode, cache, histories, coef)
            loss.backward()
        results.append(([out.data for out in outs], latents, loss.data,
                        [t.grad.copy() for t in params]))
    (rows, latents, loss, grads), (chain_rows, _, chain_loss, chain_grads) = results
    for got, want in zip(rows, chain_rows, strict=True):
        assert np.array_equal(got, want)
    assert loss.tobytes() == chain_loss.tobytes()
    for got, want in zip(grads, chain_grads):
        assert np.array_equal(got, want)
    # and the steps against one pass over the histories and the same latents
    assert np.abs(np.concatenate(rows) - one_pass(bb, histories, latents)).max() <= 1e-12


@pytest.mark.parametrize("padded", [False, True], ids=["unpadded", "padded"])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_packed_verdicts_as_latents_match_oracle_chain(layers, padded):
    # latents injected as the bank step's packed output, whose first d_m
    # columns the first block reads, with the position rows added inside
    # that block: against the chain that cuts r* out and adds the positions
    # before it, step by step and in one pass
    bb = Backbone(small_cfg(d_m=12, layers=layers, heads=3, max_positions=20))
    bank = make_bank([("a", 3), ("b", 4), ("c", 3)], d_m=12, seed=layers, hidden_depth=2)
    rng = Rng(layers, 12)
    params = list(bb.params().values()) + list(bank.params().values())
    for t in params:  # unit scale: attention and predictions far from uniform
        t.data[...] = rng.normal(t.shape, std=0.6)
    histories = [[1, 4, 2, 8, 6, 0, 3], [3, 5, 11], [7, 7, 1, 9, 2]] if padded else \
        [[1, 4, 2, 8, 6], [3, 5, 11, 0, 10]]

    def rollout(encode, cache):
        outs, latents = [encode(histories, None, cache)], []
        for scale in (1.0, 0.5, 1.0, 0.75):
            latents.append(verify_and_adjust(bank, outs[-1] * scale).packed)
            outs.append(encode([], [latents[-1]], cache))
        return outs, latents

    results = []
    for encode, cache in ((lambda h, i, c: bb.encode(h, i, cache=c), KVCache()),
                          (lambda h, i, c: encode_chain(bb, h, i, c), ChainCache())):
        with tracking(params):
            outs, latents = rollout(encode, cache)
            loss = None
            for j, out in enumerate(outs):
                term = (out * Tensor(np.cos(np.arange(out.size) + j).reshape(out.shape))).sum()
                loss = term if loss is None else loss + term
            loss.backward()
        results.append(([out.data for out in outs], latents, loss.data,
                        {name: t.grad.copy() for name, t in
                         [*bb.params().items(), *bank.params().items()]}))
    (rows, latents, loss, grads), (chain_rows, _, chain_loss, chain_grads) = results
    assert len(rows) == len(chain_rows) == 5
    for got, want in zip(rows, chain_rows):
        assert np.array_equal(got, want)
    assert loss.tobytes() == chain_loss.tobytes()
    checked = [name for name in grads
               if name == "pos_emb" or name.startswith(("ln_f.", "blocks.", "router.",
                                                        "trunk.", "heads."))]
    assert len(checked) == 3 + 15 * layers + 2 + 2 + 2 * 2
    assert grads["pos_emb"].any()
    for name in checked:
        assert np.abs(grads[name] - chain_grads[name]).max() <= 1e-12, name
    # and the steps against one pass over the histories and the same latents
    assert np.abs(np.concatenate(rows) - one_pass(bb, histories, latents)).max() <= 1e-12
