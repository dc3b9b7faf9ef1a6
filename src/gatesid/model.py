"""The gated semantic/collaborative ranking model.

Per impression: a sigmoid-MLP gate over the target item embedding and its
statistical features yields a fusion weight w; two intra-modal attention
distributions (semantic-ID stream and item-id stream) are convexly fused
with w and the single fused distribution pools BOTH history sequences (no
cross attention and no value projection). Pooled vectors, target
embeddings, stats and the user embedding feed a 3-layer relu MLP with two
sigmoid heads (click, click-and-pay). An in-batch InfoNCE loss between each
item's semantic-ID embedding and its id embedding, weighted per instance by
the gate value (a constant), aligns the two spaces. It is one-sided: the
semantic-ID side is a stop-gradient, so semantics teach the id embedding
and the alignment never pulls shared SID tokens toward under-trained id
rows. The total objective is rank loss + lambda * alignment loss.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import diffkernel as dk
from .synthcorpus import STAT_FEATURES

VARIANTS = ("full", "no_grca", "no_gfsa", "avg_fusion")

# mean concatenated row norm of the warm-started SID token table
TOKEN_INIT_NORM = 4.0


def token_init_from_codebook(level_codes, d_token):
    """Warm-start the SID token table from quantizer code vectors.

    The (L, K, d_z) codes are zero-padded or truncated to d_token, and the
    whole table is rescaled so the mean concatenated row norm equals
    TOKEN_INIT_NORM. Returns the (L * K, d_token) table, row k * K + c for
    code c at level k. Keeps the code geometry (similar content -> similar tokens)
    while giving attention scores a usable scale from the first step.
    """
    codes = np.asarray(level_codes, dtype=np.float64)
    t = np.zeros(codes.shape[:2] + (d_token,))
    t[..., :codes.shape[2]] = codes[..., :d_token]
    concat_norm = np.sqrt((t ** 2).sum(axis=2).mean(axis=1).sum())
    if concat_norm <= 0:
        raise ValueError("token_init_from_codebook: all-zero codebooks")
    return (t * (TOKEN_INIT_NORM / concat_norm)).reshape(-1, d_token)


@dataclass
class ModelConfig:
    sid_levels: int = 4
    sid_codes: int = 64
    d_token: int = 32
    d_user: int = 16
    attn_dim: int = 32
    attn_init_gain: float = 4.0  # score resolution at init; softmax stays well scaled
    gate_hidden: int = 32
    head_hidden1: int = 128
    head_hidden2: int = 64
    tau: float = 0.1            # contrastive temperature
    lam: float = 0.1            # balancing coefficient on the alignment loss; no_grca has none
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant '{self.variant}'; expected one of {VARIANTS}")

    @property
    def d_item(self):
        """Item-id embedding width: that of the concatenated SID tokens, so
        the contrastive pair shares a space."""
        return self.sid_levels * self.d_token

    @property
    def n_stat(self):
        """Stat-feature width, as synthcorpus builds the features."""
        return len(STAT_FEATURES)


class GateSidModel:
    """Holds parameters plus the frozen SID table and stat normalization."""

    def __init__(self, n_items, n_users, sid_table, config=None, seed=0,
                 token_init=None):
        self.cfg = config or ModelConfig()
        self.n_items = n_items
        self.n_users = n_users
        sid_table = np.asarray(sid_table, dtype=np.int64)
        if sid_table.shape != (n_items + 1, self.cfg.sid_levels):
            raise ValueError(f"sid_table must be ({n_items + 1}, {self.cfg.sid_levels}) "
                             "with row 0 reserved for the pad id")
        self.sid_table = sid_table
        self.stat_mean = np.zeros(self.cfg.n_stat)
        self.stat_std = np.ones(self.cfg.n_stat)
        self._init_params(np.random.default_rng([seed, 0x6A7E]))
        if token_init is not None:
            t, table = np.asarray(token_init, dtype=np.float64), self.params["sid_emb"].values
            if t.shape != table.shape:
                raise ValueError(f"token_init shape {t.shape}, expected {table.shape}")
            table[...] = t

    # -- parameters ---------------------------------------------------------

    def _init_params(self, rng):
        cfg = self.cfg

        def bias(n):
            return dk.Tensor(np.zeros(n), requires_grad=True)

        item_emb = rng.normal(0.0, 0.05, size=(self.n_items + 1, cfg.d_item))
        # pad row: only masked slots, of softmax weight 0, read it, and the
        # attention kernels skip ±0 weights, so its gradient is always +0.0
        item_emb[0] = 0.0
        p = {"item_emb": dk.Tensor(item_emb, requires_grad=True),
             "user_emb": dk.Tensor(rng.normal(0.0, 0.05, size=(self.n_users, cfg.d_user)),
                                   requires_grad=True)}
        p["sid_emb"] = dk.Tensor(rng.normal(0.0, 0.05, size=(
            cfg.sid_levels * cfg.sid_codes, cfg.d_token)), requires_grad=True)

        def layer(rows, fan_out):
            """One Glorot draw over the named input blocks' joined fan-in,
            split by rows into one weight per block, in order."""
            w = dk.glorot(rng, sum(rows.values()), fan_out).values
            blocks = np.split(w, np.cumsum(list(rows.values()))[:-1])
            p.update((k, dk.Tensor(b.copy(), requires_grad=True)) for k, b in zip(rows, blocks))

        layer({"gate.w1_item": cfg.d_item, "gate.w1_stats": cfg.n_stat}, cfg.gate_hidden)
        p["gate.b1"] = bias(cfg.gate_hidden)
        p["gate.w2"] = dk.glorot(rng, cfg.gate_hidden, 1)
        p["gate.b2"] = bias(1)

        # keys start tied to queries so scores begin as a (projected)
        # similarity kernel instead of an arbitrary bilinear form; the gain
        # lifts the tiny embedding norms to a usable softmax resolution.
        # the two matrices decouple freely during training
        g = cfg.attn_init_gain
        p["attn.wq_sid"] = dk.glorot(rng, cfg.d_item, cfg.attn_dim)
        p["attn.wq_sid"].values *= g
        p["attn.wk_sid"] = dk.Tensor(p["attn.wq_sid"].values.copy(), requires_grad=True)
        p["attn.wq_item"] = dk.glorot(rng, cfg.d_item, cfg.attn_dim)
        p["attn.wq_item"].values *= g
        p["attn.wk_item"] = dk.Tensor(p["attn.wq_item"].values.copy(), requires_grad=True)

        # pooled and target (SID, item) vectors, each pair 2 * d_item wide;
        # the context: stats, user
        layer({"head.w1_pool": 2 * cfg.d_item, "head.w1_target": 2 * cfg.d_item,
               "head.w1_context": cfg.n_stat + cfg.d_user}, cfg.head_hidden1)
        p["head.b1"] = bias(cfg.head_hidden1)
        p["head.w2"] = dk.glorot(rng, cfg.head_hidden1, cfg.head_hidden2)
        p["head.b2"] = bias(cfg.head_hidden2)
        p["head.w3"] = dk.glorot(rng, cfg.head_hidden2, 2)
        p["head.b3"] = bias(2)
        # every variant draws full's arrays, so the ones it keeps have full's
        # init bits, then drops the ones it never reads: without gated fusion
        # nothing runs the gate, and no_gfsa runs no SID attention
        dead = {"no_gfsa": ("gate.", "attn.wq_sid", "attn.wk_sid"),
                "avg_fusion": ("gate.",)}.get(cfg.variant, ())
        self.params = {k: t for k, t in p.items() if not k.startswith(dead)}

    # -- stat normalization ---------------------------------------------------

    def fit_stat_norm(self, raw_stats):
        """Stats are heavy-tailed counts: log1p then z-score."""
        t = np.log1p(np.asarray(raw_stats, dtype=np.float64))
        self.stat_mean = t.mean(axis=0)
        self.stat_std = np.maximum(t.std(axis=0), 1e-8)

    def normalize_stats(self, raw_stats):
        t = np.log1p(np.asarray(raw_stats, dtype=np.float64))
        return (t - self.stat_mean) / self.stat_std

    # -- building blocks ------------------------------------------------------

    def sid_embed(self, sids):
        """Concatenated per-level token embeddings for codes (..., L): one
        gather of the token table's rows k * K + code, viewed as (..., L * d_token)."""
        sids, k = np.asarray(sids), self.cfg.sid_codes
        if sids.size and (sids.min() < 0 or sids.max() >= k):
            raise IndexError(f"sid_embed: SID code outside [0, {k})")
        rows = dk.gather_rows(self.params["sid_emb"], sids + k * np.arange(self.cfg.sid_levels))
        return dk.reshape(rows, sids.shape[:-1] + (-1,))

    def gate_weight(self, e_item, pos, stats_norm):
        """Gate value per impression: impression i pairs row pos[i] of e_item
        with row i of stats_norm. ``gate.w1_item`` is applied once per row of
        e_item, ``gate.w1_stats`` and ``gate.b1`` once per impression."""
        if not np.all(np.isfinite(stats_norm)):
            raise dk.NonFiniteError("gate_weight")
        if self.cfg.variant in ("avg_fusion", "no_gfsa"):  # no gated fusion: nothing trains a gate
            return dk.constant(np.full((len(pos), 1), 0.5))
        p = self.params
        pre = dk.add_rows(dk.linear(dk.constant(stats_norm), p["gate.w1_stats"], p["gate.b1"]),
                          dk.linear(e_item, p["gate.w1_item"]), pos)
        return dk.sigmoid(dk.linear(dk.relu(pre), p["gate.w2"], p["gate.b2"]))

    def _attention(self, e_target, pos, rows, idx, wq, wk, mask):
        """Masked attention of each impression's target over its history.
        Impression b's query is row pos[b] of e_target projected, so each
        target row is projected once; its slot (b, l) holds row idx[b, l] of
        rows, and keys are projected once per row."""
        q = dk.gather_rows(dk.linear(e_target, self.params[wq]), pos)
        keys = dk.linear(rows, self.params[wk])
        scores = dk.affine(dk.attention_scores(q, keys, idx), 1.0 / np.sqrt(self.cfg.attn_dim))
        return dk.row_softmax(scores, mask=mask)

    def _pool_history(self, hist_ids, e_item, e_sid, pos, w):
        """Gated fused attention over the history; returns the pooled
        (SID, item) vectors already through ``head.w1_pool``. Each
        distinct history id in the batch, pad included, is embedded and
        projected once; slots index those rows (a presence table over ids,
        not a sort). The head's first layer is linear in the pooled vectors,
        so pooling the projected rows equals projecting the pooled vectors,
        and one pool serves both sequences."""
        if hist_ids.size and (hist_ids.min() < 0 or hist_ids.max() > self.n_items):
            raise IndexError("forward: unknown history item id")
        seen = np.zeros(self.n_items + 1, dtype=bool)
        seen[hist_ids] = True
        uniq, idx = np.flatnonzero(seen), np.cumsum(seen)[hist_ids] - 1
        h_item_rows = dk.gather_rows(self.params["item_emb"], uniq)
        h_sid_rows = self.sid_embed(self.sid_table[uniq])
        mask = hist_ids > 0

        s_item = self._attention(e_item, pos, h_item_rows, idx, "attn.wq_item", "attn.wk_item",
                                 mask)
        if self.cfg.variant == "no_gfsa":
            s_fused = s_item
        else:
            s_sid = self._attention(e_sid, pos, h_sid_rows, idx, "attn.wq_sid", "attn.wk_sid",
                                    mask)
            s_fused = dk.add(dk.scale_rows(s_sid, w),
                             dk.scale_rows(s_item, dk.affine(w, -1.0, 1.0)))
        rows = dk.linear([h_sid_rows, h_item_rows], self.params["head.w1_pool"])
        return dk.attention_pool(s_fused, rows, idx)

    # -- forward ---------------------------------------------------------------

    def _targets(self, batch):
        """The target part of the forward pass: the distinct targets' e_sid
        and e_item, one row per distinct target in order of first occurrence,
        ``first``, each such target's first impression, ``pos``, each
        impression's row, the gate weight w and the normalised stats, one row
        per impression. Each distinct target goes through ``gate.w1_item``
        once; impression i reads row pos[i]."""
        target_ids = np.asarray(batch["target_ids"])
        if target_ids.min() < 1 or target_ids.max() > self.n_items:
            raise IndexError("forward: unknown target item id")
        stats_norm = self.normalize_stats(batch["stats_raw"])
        _, first, inverse = np.unique(target_ids, return_index=True, return_inverse=True)
        order = np.argsort(first)
        first, pos = first[order], np.argsort(order)[inverse.reshape(-1)]

        ids = target_ids[first]
        e_item = dk.gather_rows(self.params["item_emb"], ids)
        return {"e_sid": self.sid_embed(self.sid_table[ids]), "e_item": e_item,
                "w": self.gate_weight(e_item, pos, stats_norm), "first": first, "pos": pos,
                "stats_norm": stats_norm}

    def _score(self, batch, t):
        """The scoring part of the forward pass, on ``_targets``' output t:
        the history pool and the head. Returns the two heads' logits, one
        per impression. Each distinct target goes through ``attn.wq_*`` and
        ``head.w1_target`` once."""
        hist_ids = np.asarray(batch["hist_ids"])
        e_user = dk.gather_rows(self.params["user_emb"], np.asarray(batch["user_ids"]))
        e_sid, e_item, pos, p = t["e_sid"], t["e_item"], t["pos"], self.params
        # the head's first layer: the pooled (SID, item) vectors, the target
        # (SID, item) embeddings and the context (stats, user), summed into
        # one (B, 128) array; the pooled part is an argument only, so it dies
        # once consumed
        z1 = dk.relu(dk.add_rows(
            self._pool_history(hist_ids, e_item, e_sid, pos, t["w"]),
            dk.linear([e_sid, e_item], p["head.w1_target"]), pos,
            [dk.constant(t["stats_norm"]), e_user], p["head.w1_context"], p["head.b1"]))
        z2 = dk.relu(dk.linear(z1, p["head.w2"], p["head.b2"]))
        logits = dk.linear(z2, p["head.w3"], p["head.b3"])
        return {"ctr_logit": dk.take_column(logits, 0), "ctcvr_logit": dk.take_column(logits, 1)}

    def forward(self, batch):
        """batch: dict with target_ids (B,), hist_ids (B,L), user_ids (B,),
        stats_raw (B,n_stat). Returns a dict of Tensors: the two heads' logits
        and the gate weight w, one row per impression, and the target
        embeddings e_sid and e_item, one row per distinct target in order of
        first occurrence; plus ``first``, each such target's first impression."""
        t = self._targets(batch)
        return {**self._score(batch, t), **{k: t[k] for k in ("w", "e_sid", "e_item", "first")}}

    # -- losses ------------------------------------------------------------------

    def contrastive_loss(self, e_sid, e_item, w):
        """Gate-weighted in-batch InfoNCE over distinct items: row i of e_sid
        and of e_item embed one item, and w[i] is its weight.

        One-sided: e_sid is InfoNCE's anchor, a stop-gradient, so the
        semantic IDs teach the ID embedding and only e_item takes the
        alignment's gradient; the SID tokens still train through attention
        and the head. w enters as a per-instance constant too: the gate stays
        trainable through the fused attention, but cannot shrink the
        alignment loss directly.
        """
        return dk.affine(dk.info_nce(e_sid, e_item, w, self.cfg.tau), 1.0 / len(w))

    def loss(self, batch):
        """Total objective on one batch. Returns (total, parts dict).

        The alignment loss runs between the forward pass's target and
        scoring parts, where its inputs are ready and before the history
        pool's and the head's arrays exist, so its working arrays never sit
        on top of them. Each distinct target's contrastive weight is its
        first impression's gate value.
        """
        t = self._targets(batch)
        l_cl = None
        if self.cfg.lam > 0.0 and self.cfg.variant != "no_grca":
            l_cl = self.contrastive_loss(t["e_sid"], t["e_item"],
                                         t["w"].values.reshape(-1)[t["first"]])
        out = self._score(batch, t)
        click = np.asarray(batch["click"], dtype=np.float64)
        pay = np.asarray(batch["pay"], dtype=np.float64)
        l_rank = dk.add(dk.tmean(dk.bce_with_logits(out["ctr_logit"], click)),
                        dk.tmean(dk.bce_with_logits(out["ctcvr_logit"], click * pay)))
        parts = {"rank": l_rank}
        if l_cl is not None:
            parts["contrastive"] = l_cl
            total = dk.add(l_rank, dk.affine(l_cl, self.cfg.lam))
        else:
            total = l_rank
        parts["total"] = total
        return total, parts

    # -- inference helpers ---------------------------------------------------------

    def predict(self, batch, batch_size=2048):
        """Tape-free scoring; returns numpy arrays."""
        n = len(batch["target_ids"])
        outs = {"pctr": [], "pctcvr": [], "w": []}
        for lo in range(0, n, batch_size):
            sub = {k: batch[k][lo:lo + batch_size] for k in
                   ("target_ids", "hist_ids", "user_ids", "stats_raw")}
            o = self.forward(sub)
            outs["pctr"].append(dk.sigmoid(o["ctr_logit"]).values)
            outs["pctcvr"].append(dk.sigmoid(o["ctcvr_logit"]).values)
            outs["w"].append(o["w"].values[:, 0])
        return {k: np.concatenate(v) for k, v in outs.items()}

    def item_embeddings(self):
        """(e_sid, e_item) value matrices for items 1..n_items."""
        ids = np.arange(1, self.n_items + 1)
        e_sid = self.sid_embed(self.sid_table[ids]).values
        e_item = self.params["item_emb"].values[ids]
        return e_sid, e_item

    def item_gate_weights(self, raw_stats):
        """Gate value per item (rows follow raw_stats, aligned with ids 1..n)."""
        ids = np.arange(1, self.n_items + 1)
        e_item = dk.constant(self.params["item_emb"].values[ids])
        return self.gate_weight(e_item, np.arange(self.n_items),
                                self.normalize_stats(raw_stats)).values[:, 0]

    # -- checkpointing -----------------------------------------------------------

    def save(self, path, extra_meta=None):
        meta = {
            "config": asdict(self.cfg),
            "n_items": self.n_items,
            "n_users": self.n_users,
            "stat_mean": self.stat_mean.tolist(),
            "stat_std": self.stat_std.tolist(),
        }
        meta.update(extra_meta or {})
        arrays = {k: p.values for k, p in self.params.items()}
        arrays["sid_table"] = self.sid_table.astype(np.float64)
        dk.save_arrays(path, arrays, meta)

    @classmethod
    def load(cls, path):
        """Rebuild a saved model. The manifest is checked against the model
        it describes before anything is copied: a missing manifest key, an
        ``n_items`` or ``n_users`` that is not an int of at least 1, an
        unknown or missing config key or variant, a missing or extra array,
        an array of the wrong shape, a SID table with a code that is not a
        whole number in [0, sid_codes) or a non-zero pad row, or a
        ``stat_mean`` or ``stat_std`` that is not n_stat finite values
        (``stat_std`` > 0) is a ValueError that names the file and the key."""
        arrays, meta = dk.load_arrays(path)
        for k in ("config", "n_items", "n_users", "stat_mean", "stat_std"):
            if k not in meta:
                raise ValueError(f"{path}: missing manifest key '{k}'")
        for k in ("n_items", "n_users"):
            if type(meta[k]) is not int or meta[k] < 1:
                raise ValueError(f"{path}: manifest key '{k}' must be an int of at least 1, "
                                 f"got {meta[k]!r}")
        keys, want_keys = set(meta["config"]), {f.name for f in fields(ModelConfig)}
        for what, bad in (("unknown", keys - want_keys), ("missing", want_keys - keys)):
            if bad:
                raise ValueError(f"{path}: {what} model config key '{min(bad)}'")
        try:
            cfg = ModelConfig(**meta["config"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        n = meta["n_items"]
        model = cls(n, meta["n_users"], np.zeros((n + 1, cfg.sid_levels)), cfg, seed=0)
        want = {k: p.values for k, p in model.params.items()}
        want["sid_table"] = model.sid_table
        for k in sorted(want.keys() | arrays.keys()):
            if k not in want or k not in arrays:
                raise ValueError(f"{path}: {'extra' if k in arrays else 'missing'} array '{k}'")
            if arrays[k].shape != want[k].shape:
                raise ValueError(f"{path}: array '{k}' has shape {arrays[k].shape}, "
                                 f"the model expects {want[k].shape}")
        codes = arrays["sid_table"]  # float64 on disk, copied into int64
        whole = np.isfinite(codes) & (np.floor(codes) == codes)
        bad = ("a non-finite or fractional code" if not whole.all()
               else f"a code outside [0, {cfg.sid_codes})"
               if codes.min() < 0 or codes.max() >= cfg.sid_codes
               else "a non-zero pad row" if np.any(codes[0] != 0) else None)
        if bad:
            raise ValueError(f"{path}: array 'sid_table' holds {bad}")
        for k, floor in (("stat_mean", -np.inf), ("stat_std", 0.0)):
            v = meta[k]
            if not (isinstance(v, list) and len(v) == cfg.n_stat and all(
                    isinstance(x, (int, float)) and floor < x < np.inf for x in v)):
                raise ValueError(f"{path}: manifest key '{k}' must hold {cfg.n_stat} "
                                 f"finite values{' > 0' if floor == 0 else ''}")
            setattr(model, k, np.array(v, dtype=np.float64))
        for k, v in want.items():
            v[...] = arrays[k]
        return model

