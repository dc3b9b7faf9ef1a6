"""Ranking model: embeddings, gate, attention fusion, pooling, losses,
variants and checkpointing."""

import dataclasses

import numpy as np
import pytest

import gatesid.diffkernel as dk
from gatesid.diffkernel.tensor import _accum, _make
from gatesid.model import GateSidModel, ModelConfig, VARIANTS, token_init_from_codebook
from oracle_ops import concat, mul, tsum


def tiny_config(**overrides):
    base = dict(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                attn_dim=4, gate_hidden=4, head_hidden1=8, head_hidden2=4)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(variant="full", n_items=6, n_users=3, seed=0, cls=GateSidModel, **overrides):
    cfg = tiny_config(variant=variant, **overrides)
    rng = np.random.default_rng(99)
    table = np.zeros((n_items + 1, 3), dtype=np.int64)
    table[1:] = rng.integers(0, 8, size=(n_items, 3))
    return cls(n_items, n_users, table, cfg, seed=seed)


def tiny_batch(model, seed=1, b=4):
    rng = np.random.default_rng(seed)
    return {
        "target_ids": rng.integers(1, model.n_items + 1, size=b),
        "hist_ids": np.array([[0, 0, 1, 2, 3], [0, 0, 0, 4, 5],
                              [1, 2, 3, 4, 5], [0, 0, 0, 0, 2]])[:b],
        "user_ids": rng.integers(0, model.n_users, size=b),
        "stats_raw": rng.uniform(0, 40, size=(b, 3)),
        "click": rng.integers(0, 2, size=b),
        "pay": np.zeros(b, dtype=np.int64),
    }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# SID embedding


def test_sid_embed_concat_width():
    model = tiny_model()
    out = model.sid_embed(np.array([[1, 2, 3]]))
    assert out.shape == (1, 3 * 4)


def test_sid_embed_shared_codes_identical():
    model = tiny_model()
    out = model.sid_embed(np.array([[1, 2, 3], [1, 2, 3]]))
    assert np.array_equal(out.values[0], out.values[1])


def test_sid_embed_zero_tables_zero_vector():
    model = tiny_model()
    model.params["sid_emb"].values[...] = 0.0
    out = model.sid_embed(np.array([[3, 1, 7]]))
    assert np.all(out.values == 0.0)


def test_sid_embed_matches_per_level_tables_bitwise():
    # the oracle: L tables of K rows each, one gather per level, concatenated;
    # two calls reach the table, with repeated codes, as a training step's do
    model = tiny_model()
    k = model.cfg.sid_codes
    table = model.params["sid_emb"]
    levels = [dk.Tensor(table.values[i * k:(i + 1) * k].copy(), requires_grad=True)
              for i in range(3)]
    calls = [model.sid_table[np.array([[1, 2, 3, 2], [4, 4, 5, 0]])], model.sid_table[1:]]
    rng = np.random.default_rng(13)
    weights = [dk.constant(rng.normal(size=s.shape[:-1] + (12,))) for s in calls]

    def run(embed):
        with dk.Tape() as tape:
            outs = [embed(s) for s in calls]
            dk.backward(dk.add(*(tsum(mul(o, w)) for o, w in zip(outs, weights))), tape)
        return [o.values for o in outs]

    got = run(model.sid_embed)
    want = run(lambda s: concat([dk.gather_rows(t, s[..., i]) for i, t in enumerate(levels)]))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    want_grad = np.concatenate([t.grad for t in levels])
    assert table.grad.shape == want_grad.shape and table.grad.tobytes() == want_grad.tobytes()


def test_sid_embed_rejects_codes_outside_the_level():
    # a code of K would read the next level's first row of the one table
    model = tiny_model()
    for bad in (8, -1):
        with pytest.raises(IndexError, match=r"SID code outside \[0, 8\)"):
            model.sid_embed(np.array([[1, bad, 2]]))


# ---------------------------------------------------------------------------
# gate


def test_gate_zero_weights_gives_half():
    model = tiny_model()
    for k in ("gate.w1_item", "gate.w1_stats", "gate.b1", "gate.w2", "gate.b2"):
        model.params[k].values[...] = 0.0
    e = dk.constant(np.random.default_rng(0).normal(size=(5, 12)))
    w = model.gate_weight(e, np.arange(5), np.zeros((5, 3)))
    assert w.values == pytest.approx(np.full((5, 1), 0.5))


def test_gate_large_bias_saturates():
    model = tiny_model()
    model.params["gate.b2"].values[...] = 50.0
    e = dk.constant(np.zeros((2, 12)))
    assert model.gate_weight(e, np.arange(2), np.zeros((2, 3))).values == pytest.approx(1.0)


def test_gate_rejects_nonfinite_stats():
    model = tiny_model()
    e = dk.constant(np.zeros((1, 12)))
    with pytest.raises(dk.NonFiniteError):
        model.gate_weight(e, np.arange(1), np.array([[np.nan, 0.0, 0.0]]))


def test_gate_input_variants():
    # one first-layer weight per gate input, and only the inputs the variant reads
    def blocks(variant):
        return {k: p.shape for k, p in tiny_model(variant).params.items()
                if k.startswith("gate.w1")}

    assert blocks("gate_item_only") == {"gate.w1_item": (12, 4)}
    assert blocks("gate_stats_only") == {"gate.w1_stats": (3, 4)}
    assert blocks("full") == {"gate.w1_item": (12, 4), "gate.w1_stats": (3, 4)}


# ---------------------------------------------------------------------------
# attention / fusion / pooling building blocks, at batch size 1


def attention_at_b1(e, seq, mask, d):
    """Attention distribution of one target over one sequence through the
    model's own attention, with identity projections of width d."""
    model = tiny_model(attn_dim=d)
    model.params["attn.wq_item"] = dk.constant(np.eye(d))
    model.params["attn.wk_item"] = dk.constant(np.eye(d))
    seq = seq[None, :, :]
    b, n, _ = seq.shape
    return model._attention(dk.constant(e[None, :]), np.arange(b),
                            dk.constant(seq.reshape(-1, d)), np.arange(b * n).reshape(b, n),
                            "attn.wq_item", "attn.wk_item", np.asarray(mask)[None, :])


def test_intra_attention_uniform_when_keys_equal():
    s = attention_at_b1(np.ones(4), np.ones((3, 4)), [True, True, True], 4)
    assert s.values[0] == pytest.approx(np.full(3, 1 / 3), abs=1e-12)


def test_intra_attention_single_unmasked_position():
    e = np.random.default_rng(0).normal(size=4)
    seq = np.random.default_rng(1).normal(size=(3, 4))
    s = attention_at_b1(e, seq, [False, True, False], 4)
    assert s.values[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_intra_attention_hand_case():
    # 2 positions, 2 dims, identity projections: scores are plain dot
    # products scaled by 1/sqrt(2)
    s = attention_at_b1(np.array([1.0, 0.0]), np.array([[2.0, 0.0], [0.0, 3.0]]),
                        [True, True], 2)
    z = np.array([2.0, 0.0]) / np.sqrt(2.0)
    want = np.exp(z - z.max())
    want /= want.sum()
    assert s.values[0] == pytest.approx(want, abs=1e-12)


def test_intra_attention_fully_masked_is_zero_row():
    # an all-pad history attends to nothing
    s = attention_at_b1(np.zeros(2), np.zeros((2, 2)), [False, False], 2)
    assert np.array_equal(s.values, np.zeros((1, 2)))


def test_fuse_attention_boundaries_and_convexity():
    s_sid = dk.constant(np.array([[1.0, 0.0]]))
    s_item = dk.constant(np.array([[0.0, 1.0]]))

    def fuse(a, b, w):  # the convex combination forward() applies
        w = dk.constant(np.array([[w]]))
        return dk.add(dk.scale_rows(a, w), dk.scale_rows(b, dk.affine(w, -1.0, 1.0)))

    assert np.array_equal(fuse(s_sid, s_item, 1.0).values, s_sid.values)
    assert np.array_equal(fuse(s_sid, s_item, 0.0).values, s_item.values)
    assert fuse(s_sid, s_item, 0.3).values[0] == pytest.approx([0.3, 0.7])
    with pytest.raises(dk.ShapeError):
        fuse(s_sid, dk.constant(np.zeros((1, 3))), 0.5)


def test_pool_sequences_selection_mean_permutation():
    rng = np.random.default_rng(2)
    h_sid = dk.constant(rng.normal(size=(1, 4, 3)))
    h_item = dk.constant(rng.normal(size=(1, 4, 5)))

    def pool(s, hs=h_sid, hi=h_item):  # one distribution pools both sequences
        b, n, _ = hs.shape
        slots = np.arange(b * n).reshape(b, n)
        return (dk.attention_pool(s, dk.constant(hs.values.reshape(-1, hs.shape[2])),
                                  slots).values[0],
                dk.attention_pool(s, dk.constant(hi.values.reshape(-1, hi.shape[2])),
                                  slots).values[0])

    p_sid, p_item = pool(dk.constant(np.array([[0.0, 0.0, 1.0, 0.0]])))
    assert np.array_equal(p_sid, h_sid.values[0, 2])
    assert np.array_equal(p_item, h_item.values[0, 2])

    p_sid, p_item = pool(dk.constant(np.full((1, 4), 0.25)))
    assert p_sid == pytest.approx(h_sid.values[0].mean(axis=0))
    assert p_item == pytest.approx(h_item.values[0].mean(axis=0))

    s = dk.constant(rng.dirichlet(np.ones(4))[None, :])
    perm = rng.permutation(4)
    a1, b1 = pool(s)
    a2, b2 = pool(dk.constant(s.values[:, perm]), dk.constant(h_sid.values[:, perm]),
                  dk.constant(h_item.values[:, perm]))
    assert a2 == pytest.approx(a1, abs=1e-12)
    assert b2 == pytest.approx(b1, abs=1e-12)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shapes_and_determinism():
    model = tiny_model()
    batch = tiny_batch(model)
    o1 = model.forward(batch)
    o2 = model.forward(batch)
    assert o1["ctr_logit"].shape == (4,)
    assert o1["w"].shape == (4, 1)
    assert np.array_equal(o1["ctr_logit"].values, o2["ctr_logit"].values)
    pctr = model.predict(batch)["pctr"]
    assert np.all((pctr > 0) & (pctr < 1))


def test_forward_empty_history_pools_zero():
    model = tiny_model()
    batch = tiny_batch(model)
    batch["hist_ids"] = np.zeros_like(batch["hist_ids"])
    out = model.forward(batch)
    assert np.all(np.isfinite(out["ctr_logit"].values))
    # an all-pad history pools to a zero vector, so predictions cannot
    # depend on the pad row embedding at all
    model.params["item_emb"].values[0] = 7.0
    out2 = model.forward(batch)
    model.params["item_emb"].values[0] = 0.0
    assert np.array_equal(out["ctr_logit"].values, out2["ctr_logit"].values)


def test_forward_rejects_unknown_target():
    model = tiny_model()
    batch = tiny_batch(model)
    batch["target_ids"] = np.array([0, 1, 2, 3])
    with pytest.raises(IndexError):
        model.forward(batch)


@pytest.mark.parametrize("bad", ["negative", "past_the_table"])
def test_forward_rejects_unknown_history_id(bad):
    # the history is deduplicated through a presence table over ids
    # 0..n_items, where a negative id would wrap around
    model = tiny_model()
    batch = tiny_batch(model)
    batch["hist_ids"][1, -1] = -1 if bad == "negative" else model.n_items + 1
    with pytest.raises(IndexError, match="unknown history item id"):
        model.forward(batch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_gradients_reach_every_parameter(variant):
    # a variant holds exactly the parameters its loss reads
    model = tiny_model(variant)
    batch = tiny_batch(model)
    batch["hist_ids"][:] = np.array([[0, 1, 2, 3, 4]] * 4)
    with dk.Tape() as tape:
        loss, _ = model.loss(batch)
        dk.backward(loss, tape)
    for name, p in model.params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_pad_row_stays_zero_through_training(variant):
    # only masked history slots read item_emb's pad row, so its gradient is
    # exactly +0.0 and AdamW (weight decay included) leaves the row at +0.0
    model = tiny_model(variant)
    opt = dk.AdamW(model.params, lr=5e-3, weight_decay=1e-5)
    for seed in range(3):
        batch = tiny_batch(model, seed=seed)
        if seed == 2:
            batch["hist_ids"][:] = 0  # every history all pad
        with dk.Tape() as tape:
            loss, _ = model.loss(batch)
            opt.zero_grad()
            dk.backward(loss, tape)
        assert model.params["item_emb"].grad[0].view(np.int64).tolist() == [0] * 12
        opt.step()
    assert model.params["item_emb"].values[0].view(np.int64).tolist() == [0] * 12


# ---------------------------------------------------------------------------
# deduplicated history path against the per-slot formulation


def slot_scores(q, k):
    """Per-slot dot products: q (B,d), k (B,L,d) -> (B,L)."""

    sq, sk, qv, kv = q.slot, k.slot, q.values, k.values

    def bw(g):
        _accum(sq, np.einsum("bl,bld->bd", g, kv))
        _accum(sk, np.einsum("bl,bd->bld", g, qv))

    return _make(np.einsum("bd,bld->bl", q.values, k.values), (q, k), bw)


def slot_pool(s, h):
    """Per-slot weighted pooling: s (B,L), h (B,L,D) -> (B,D)."""

    ss, sh, sv, hv = s.slot, h.slot, s.values, h.values

    def bw(g):
        _accum(ss, np.einsum("bd,bld->bl", g, hv))
        _accum(sh, np.einsum("bl,bd->bld", sv, g))

    return _make(np.einsum("bl,bld->bd", s.values, h.values), (s, h), bw)


def join_rows(ws):
    """The weights' rows joined in order into one weight."""
    offs = np.cumsum([0] + [w.shape[0] for w in ws])
    slots = [w.slot for w in ws]

    def bw(g):
        for s, lo, hi in zip(slots, offs, offs[1:]):
            _accum(s, g[lo:hi])

    return _make(np.concatenate([w.values for w in ws]), ws, bw)


class PerSlotModel(GateSidModel):
    """Oracle: every impression gathers its own target rows and projects
    them through gate.w1_item (gate_weight with one row per impression) and
    attn.wq_*, and its target, stats and user inputs through one head weight,
    head.w1_target and head.w1_context joined; InfoNCE reads each item's
    first impression. Every history slot gathers its own item and SID rows,
    concatenates its SID rows and projects its own keys; both sequences are
    pooled, and then the concatenated pooled pair goes through head.w1_pool."""

    def forward(self, batch):
        target_ids = np.asarray(batch["target_ids"])
        stats = dk.constant(self.normalize_stats(batch["stats_raw"]))
        e_item = dk.gather_rows(self.params["item_emb"], target_ids)
        e_sid = self.sid_embed(self.sid_table[target_ids])
        e_user = dk.gather_rows(self.params["user_emb"], np.asarray(batch["user_ids"]))
        every = np.arange(target_ids.size)
        w = self.gate_weight(e_item, every, stats.values)
        pooled = self._pool_history(np.asarray(batch["hist_ids"]), e_item, e_sid, every, w)
        w1 = join_rows([self.params["head.w1_target"], self.params["head.w1_context"]])
        z1 = dk.relu(dk.add(pooled, dk.linear(concat([e_sid, e_item, stats, e_user]), w1,
                                              self.params["head.b1"])))
        z2 = dk.relu(dk.linear(z1, self.params["head.w2"], self.params["head.b2"]))
        logits = dk.linear(z2, self.params["head.w3"], self.params["head.b3"])
        first = np.sort(np.unique(target_ids, return_index=True)[1])
        return {"ctr_logit": dk.take_column(logits, 0), "ctcvr_logit": dk.take_column(logits, 1),
                "w": w, "e_sid": dk.gather_rows(e_sid, first),
                "e_item": dk.gather_rows(e_item, first), "first": first}

    def _pool_history(self, hist_ids, e_item, e_sid, pos, w):
        h_item_seq = dk.gather_rows(self.params["item_emb"], hist_ids)
        h_sid_seq = self.sid_embed(self.sid_table[hist_ids])
        mask = hist_ids > 0

        def attention(e_target, seq, wq, wk):
            q = dk.linear(dk.gather_rows(e_target, pos), self.params[wq])
            k = dk.linear(seq, self.params[wk])
            scores = dk.affine(slot_scores(q, k), 1.0 / np.sqrt(self.cfg.attn_dim))
            return dk.row_softmax(scores, mask=mask)

        s_item = attention(e_item, h_item_seq, "attn.wq_item", "attn.wk_item")
        if self.cfg.variant == "no_gfsa":
            s_fused = s_item
        else:
            s_sid = attention(e_sid, h_sid_seq, "attn.wq_sid", "attn.wk_sid")
            s_fused = dk.add(dk.scale_rows(s_sid, w),
                             dk.scale_rows(s_item, dk.affine(w, -1.0, 1.0)))
        pooled = concat([slot_pool(s_fused, h_sid_seq), slot_pool(s_fused, h_item_seq)])
        return dk.linear(pooled, self.params["head.w1_pool"])


def loss_and_grads(model, batch):
    with dk.Tape() as tape:
        total, _ = model.loss(batch)
        dk.backward(total, tape)
    out = model.forward(batch)
    return out, {k: p.grad for k, p in model.params.items()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_dedup_history_matches_per_slot_oracle(variant):
    model = tiny_model(variant)
    oracle = tiny_model(variant, cls=PerSlotModel)
    rng = np.random.default_rng(12)
    # heavy id repetition within and across rows, an all-pad row, targets
    # that also sit in their own history, and repeated targets whose order
    # of first occurrence is not their id order
    batch = {
        "target_ids": np.array([3, 2, 2, 1, 1, 4]),
        "hist_ids": np.array([[1, 1, 2, 1, 2], [0, 0, 0, 0, 0], [0, 2, 2, 2, 3],
                              [3, 1, 3, 1, 3], [0, 0, 1, 1, 1], [2, 2, 2, 2, 2]]),
        "user_ids": rng.integers(0, model.n_users, size=6),
        "stats_raw": rng.uniform(0, 40, size=(6, 3)),
        "click": np.array([1, 0, 1, 1, 0, 0]),
        "pay": np.array([1, 0, 0, 1, 0, 0]),
    }
    out, grads = loss_and_grads(model, batch)
    want_out, want_grads = loss_and_grads(oracle, batch)
    assert np.array_equal(out["first"], want_out["first"])
    for k in ("ctr_logit", "ctcvr_logit", "w", "e_sid", "e_item"):
        np.testing.assert_allclose(out[k].values, want_out[k].values, rtol=0, atol=1e-12)
    for k in model.params:
        assert want_grads[k] is not None, k
        np.testing.assert_allclose(grads[k], want_grads[k], rtol=0, atol=1e-12, err_msg=k)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_pools_the_history_once(variant, monkeypatch):
    # one pool of the distinct history rows projected through head.w1_pool
    calls, pool = [], dk.attention_pool
    monkeypatch.setattr(dk, "attention_pool", lambda s, rows, idx: calls.append(rows.shape)
                        or pool(s, rows, idx))
    model = tiny_model(variant)
    batch = tiny_batch(model)
    model.forward(batch)
    assert calls == [(np.unique(batch["hist_ids"]).size, model.cfg.head_hidden1)]


# ---------------------------------------------------------------------------
# variants


def test_avg_fusion_uses_half_weights():
    model = tiny_model("avg_fusion")
    batch = tiny_batch(model)
    out = model.forward(batch)
    assert np.all(out["w"].values == 0.5)


def test_no_gfsa_gate_is_the_constant_half():
    # no_gfsa trains no gate, so its report and its alignment weights read 0.5
    model = tiny_model("no_gfsa")
    assert np.all(model.forward(tiny_batch(model))["w"].values == 0.5)
    assert np.all(model.item_gate_weights(np.ones((6, 3))) == 0.5)


def test_no_gfsa_uses_item_attention_only():
    m_full = tiny_model("full")
    m_no = tiny_model("no_gfsa")
    batch = tiny_batch(m_full)
    # force the gate of the full model to 0: fused attention becomes the
    # item-stream attention, which is what no_gfsa always uses
    m_full.params["gate.b2"].values[...] = -60.0
    assert np.allclose(m_full.predict(batch)["pctr"], m_no.predict(batch)["pctr"], atol=1e-12)


def test_trainable_params_per_variant():
    full = set(tiny_model("full").params)
    no_gfsa = set(tiny_model("no_gfsa").params)
    avg = set(tiny_model("avg_fusion").params)
    assert {"attn.wq_sid", "attn.wk_sid", "gate.w1_item", "gate.w1_stats", "gate.b2"} <= full
    assert not {"attn.wq_sid", "attn.wk_sid"} & no_gfsa
    assert not {k for k in no_gfsa if k.startswith("gate.")}
    assert not {k for k in avg if k.startswith("gate.")}
    assert "attn.wq_sid" in avg


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_arrays_have_full_init_bits(variant):
    # every variant draws full's arrays in full's order and keeps some: each
    # kept array has full's bits
    full, model = tiny_model("full").params, tiny_model(variant).params
    assert set(model) <= set(full)
    for k in model:
        assert same_bits(model[k].values, full[k].values), k


def test_no_grca_has_no_alignment_loss():
    # lam is kept as set, so replacing the variant of a no_grca config keeps it
    assert dataclasses.replace(ModelConfig(variant="no_grca"), variant="full").lam == 0.1
    model = tiny_model("no_grca", lam=0.5)
    _, parts = model.loss(tiny_batch(model))
    assert "contrastive" not in parts
    assert float(parts["total"].values) == float(parts["rank"].values)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        ModelConfig(variant="nope")
    with pytest.raises(ValueError, match="unknown variant 'nope'"):
        tiny_model("nope")


def test_attention_init_ties_keys_to_queries():
    model = tiny_model()
    assert np.array_equal(model.params["attn.wq_sid"].values,
                          model.params["attn.wk_sid"].values)
    assert np.array_equal(model.params["attn.wq_item"].values,
                          model.params["attn.wk_item"].values)


# ---------------------------------------------------------------------------
# contrastive loss closed forms


def test_contrastive_batch_of_one_is_zero():
    model = tiny_model()
    e = dk.constant(np.random.default_rng(3).normal(size=(1, 12)))
    loss = model.contrastive_loss(e, e, np.array([1.0]))
    assert float(loss.values) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("b", [2, 8, 64])
def test_contrastive_equal_similarities_log_b(b):
    model = tiny_model(n_items=100)
    row = np.random.default_rng(4).normal(size=12)
    e = dk.constant(np.tile(row, (b, 1)))  # every pairwise cosine equals 1
    loss = model.contrastive_loss(e, e, np.ones(b))
    assert float(loss.values) == pytest.approx(np.log(b), abs=1e-10)


def test_contrastive_orthogonal_pair_closed_form():
    model = tiny_model()
    model.cfg.tau = 1.0
    a = dk.constant(np.array([[1.0] + [0.0] * 11, [0.0, 1.0] + [0.0] * 10]))
    loss = model.contrastive_loss(a, a, np.ones(2))
    assert float(loss.values) == pytest.approx(np.log(1 + np.exp(-1.0)), abs=1e-10)


def test_contrastive_deduplicates_repeated_items(monkeypatch):
    # InfoNCE sees each item once, at its first impression, in order of first
    # occurrence: rows, order and weights bitwise those of the per-impression
    # oracle, which gathers every impression's rows and keeps the first ones
    calls, nce = [], dk.info_nce
    monkeypatch.setattr(dk, "info_nce", lambda a, b, w, tau: calls.append(
        (a.values, b.values, w)) or nce(a, b, w, tau))
    ids = np.array([5, 2])
    for variant in (v for v in VARIANTS if v != "no_grca"):
        model = tiny_model(variant)
        batch = tiny_batch(model) | {"target_ids": ids[[0, 1, 0, 1]]}
        for m in (model, tiny_model(variant, cls=PerSlotModel)):
            m.loss(batch)
        got, want = calls[-2:]
        assert all(same_bits(g, k) for g, k in zip(got, want)), variant
        assert same_bits(got[1], model.params["item_emb"].values[ids])
        assert same_bits(got[0], model.sid_embed(model.sid_table[ids]).values)
        assert same_bits(got[2], model.forward(batch)["w"].values[[0, 1], 0]), variant


def test_contrastive_weights_scale_loss():
    model = tiny_model()
    rng = np.random.default_rng(6)
    e = dk.constant(rng.normal(size=(3, 12)))
    l1 = float(model.contrastive_loss(e, e, np.ones(3)).values)
    l0 = float(model.contrastive_loss(e, e, np.zeros(3)).values)
    lh = float(model.contrastive_loss(e, e, np.full(3, 0.5)).values)
    assert l0 == pytest.approx(0.0, abs=1e-15)
    assert lh == pytest.approx(0.5 * l1, abs=1e-12)


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_arithmetic():
    model = tiny_model()
    total, parts = model.loss(tiny_batch(model))
    want = float(parts["rank"].values) + model.cfg.lam * float(parts["contrastive"].values)
    assert float(total.values) == pytest.approx(want, rel=1e-12)
    # and the stated example: rank 1.0, contrastive 0.5, lambda 0.1 -> 1.05
    combo = dk.add(dk.constant(np.asarray(1.0)),
                   dk.affine(dk.constant(np.asarray(0.5)), 0.1))
    assert float(combo.values) == pytest.approx(1.05)


def test_contrast_w_override_matches_current_gate():
    model = tiny_model()
    batch = tiny_batch(model)
    out = model.forward(batch)
    t1, _ = model.loss(batch)
    t2, _ = model.loss(batch, contrast_w=out["w"].values.copy())
    assert float(t1.values) == pytest.approx(float(t2.values), rel=1e-14)


# ---------------------------------------------------------------------------
# stat normalization, token warm start, persistence


def test_stat_norm_standardizes_log_counts():
    model = tiny_model()
    raw = np.random.default_rng(8).uniform(0, 100, size=(500, 3))
    model.fit_stat_norm(raw)
    z = model.normalize_stats(raw)
    assert z.mean(axis=0) == pytest.approx(np.zeros(3), abs=1e-10)
    assert z.std(axis=0) == pytest.approx(np.ones(3), abs=1e-10)


def test_token_init_from_codebook_geometry():
    rng = np.random.default_rng(9)
    codes = rng.normal(size=(3, 8, 6))
    toks = token_init_from_codebook(codes, d_token=10, target_norm=4.0)
    assert toks.shape == (3 * 8, 10)  # row k * 8 + c: code c at level k
    assert np.all(toks[:, 6:] == 0.0)  # zero padding beyond the code dims
    levels = toks.reshape(3, 8, 10)
    assert np.allclose(levels[..., :6], codes * (levels[0, 0, 0] / codes[0, 0, 0]))
    concat_norm = np.sqrt(sum((t ** 2).sum(axis=1).mean() for t in levels))
    assert concat_norm == pytest.approx(4.0, rel=1e-12)
    # truncation branch
    toks2 = token_init_from_codebook(codes, d_token=4)
    assert toks2.shape == (3 * 8, 4)
    with pytest.raises(ValueError):
        token_init_from_codebook(np.zeros((2, 4, 3)), d_token=4)


def test_token_init_applied_and_validated():
    rng = np.random.default_rng(10)
    table = np.zeros((7, 3), dtype=np.int64)
    init = rng.normal(size=(3 * 8, 4))
    model = GateSidModel(6, 3, table, tiny_config(), seed=0, token_init=init)
    assert np.array_equal(model.params["sid_emb"].values, init)
    with pytest.raises(ValueError):
        GateSidModel(6, 3, table, tiny_config(), seed=0, token_init=init[:16])
    with pytest.raises(ValueError):
        GateSidModel(6, 3, table, tiny_config(), seed=0,
                     token_init=rng.normal(size=(3 * 8, 5)))


def test_sid_table_shape_validated():
    with pytest.raises(ValueError):
        GateSidModel(6, 3, np.zeros((6, 3), dtype=np.int64), tiny_config(), seed=0)


def test_save_load_roundtrip_bitwise(tmp_path):
    model = tiny_model()
    batch = tiny_batch(model)
    model.fit_stat_norm(batch["stats_raw"])
    path = str(tmp_path / "m.ckpt")
    model.save(path, extra_meta={"loss_curve": [1.0, 0.5]})
    loaded = GateSidModel.load(path)
    for k, p in model.params.items():
        assert np.array_equal(p.values, loaded.params[k].values), k
    assert np.array_equal(model.sid_table, loaded.sid_table)
    assert np.array_equal(model.stat_mean, loaded.stat_mean)
    p1 = model.predict(batch)
    p2 = loaded.predict(batch)
    assert np.array_equal(p1["pctr"], p2["pctr"])
    assert np.array_equal(p1["w"], p2["w"])


def test_predict_is_sigmoid_of_forward_logits():
    # per chunk, bitwise: chunk invariance is tested on its own below
    model = tiny_model()
    batch = tiny_batch(model)
    model.params["head.b3"].values[:] = [3.0, -3.0]  # logits of both signs
    for size in (1, 2, 3):
        preds = model.predict(batch, batch_size=size)
        for lo in range(0, 4, size):
            rows = slice(lo, lo + size)
            out = model.forward({k: batch[k][rows] for k in
                                 ("target_ids", "hist_ids", "user_ids", "stats_raw")})
            for key in ("ctr", "ctcvr"):
                z = out[key + "_logit"].values
                e = np.exp(-np.abs(z))
                want = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
                assert same_bits(preds["p" + key][rows], want), (size, lo, key)
            assert same_bits(preds["w"][rows], out["w"].values[:, 0]), (size, lo)


def test_predict_does_not_depend_on_the_chunk_size():
    # chunks of repeated targets hold different distinct-target sets, and a
    # one-row product rounds differently from a many-row one: hence a bound
    model = tiny_model()
    batch = tiny_batch(model) | {"target_ids": np.array([3, 1, 3, 3])}
    model.params["head.b3"].values[:] = [3.0, -3.0]
    whole = model.predict(batch)
    for size in (1, 2, 3):
        preds = model.predict(batch, batch_size=size)
        for k, p in whole.items():
            assert np.abs(preds[k] - p).max() <= 1e-15, (size, k)


@pytest.mark.parametrize("edit, key", [
    (lambda meta, arrays: meta["config"].update(d_item=12), "d_item"),
    (lambda meta, arrays: meta["config"].pop("attn_dim"), "attn_dim"),
    (lambda meta, arrays: arrays.pop("gate.w2"), "gate.w2"),
    (lambda meta, arrays: arrays.update(extra=np.zeros(2)), "extra"),
    (lambda meta, arrays: arrays.update({"head.b3": np.zeros(1)}), "head.b3"),
    (lambda meta, arrays: arrays["sid_table"].__setitem__((1, 0), np.inf), "sid_table"),
    (lambda meta, arrays: arrays["sid_table"].__setitem__((1, 0), 2.7), "sid_table"),
    (lambda meta, arrays: arrays["sid_table"].__setitem__((1, 0), 8.0), "sid_table"),
    (lambda meta, arrays: arrays["sid_table"].__setitem__((0, 2), 1.0), "sid_table"),
    # each of these would load, then fail on a bare key, broadcast one value
    # over every stat column or divide by zero at scoring
    (lambda meta, arrays: meta.pop("config"), "config"),
    (lambda meta, arrays: meta.pop("n_items"), "n_items"),
    (lambda meta, arrays: meta.pop("n_users"), "n_users"),
    (lambda meta, arrays: meta.pop("stat_mean"), "stat_mean"),
    (lambda meta, arrays: meta.pop("stat_std"), "stat_std"),
    (lambda meta, arrays: meta.update(stat_mean=[0.5]), "stat_mean"),
    (lambda meta, arrays: meta.update(stat_std=[2.0]), "stat_std"),
    (lambda meta, arrays: meta["stat_std"].__setitem__(1, 0.0), "stat_std"),
    (lambda meta, arrays: meta["stat_mean"].__setitem__(0, None), "stat_mean"),
], ids=["unknown_config_key", "missing_config_key", "missing_array", "extra_array",
        "shape_mismatch", "nonfinite_sid_code", "fractional_sid_code", "sid_code_outside_level",
        "nonzero_sid_pad_row", "missing_config", "missing_n_items", "missing_n_users",
        "missing_stat_mean", "missing_stat_std", "one_stat_mean", "one_stat_std",
        "zero_stat_std", "null_stat_mean"])
def test_load_rejects_checkpoint_that_does_not_fit(tmp_path, edit, key):
    path = str(tmp_path / "m.ckpt")
    tiny_model().save(path)
    arrays, meta = dk.load_arrays(path)
    edit(meta, arrays)
    bad = str(tmp_path / "bad.ckpt")
    dk.save_arrays(bad, arrays, meta)
    with pytest.raises(ValueError) as exc:
        GateSidModel.load(bad)
    assert bad in str(exc.value) and f"'{key}'" in str(exc.value)


def test_item_width_derived_from_sid_shape(tmp_path):
    cfg = ModelConfig(sid_levels=3, d_token=4)
    model = GateSidModel(5, 2, np.zeros((6, 3), dtype=np.int64), cfg, seed=0)
    assert model.params["item_emb"].shape == (6, 12)
    assert model.sid_embed(np.zeros((1, 3), dtype=np.int64)).shape == (1, 12)
    path = str(tmp_path / "m.ckpt")
    model.save(path)
    _, meta = dk.load_arrays(path)
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    assert len(fields) == 12 and set(meta["config"]) == fields
    assert not {"d_item", "l_max", "n_stat"} & set(meta["config"])


def test_item_helpers_shapes():
    model = tiny_model()
    e_sid, e_item = model.item_embeddings()
    assert e_sid.shape == (6, 12) and e_item.shape == (6, 12)
    w = model.item_gate_weights(np.random.default_rng(11).uniform(0, 10, size=(6, 3)))
    assert w.shape == (6,)
    assert np.all((w > 0) & (w < 1))


def test_variant_list_stable():
    assert set(VARIANTS) == {"full", "no_grca", "no_gfsa", "gate_item_only",
                             "gate_stats_only", "avg_fusion"}
