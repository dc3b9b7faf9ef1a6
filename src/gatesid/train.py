"""Training loop for the ranking model on a synthetic corpus."""

import logging
from dataclasses import dataclass

import numpy as np

from . import diffkernel as dk
from . import synthcorpus
from .model import GateSidModel
from .rqvae import DivergenceError

log = logging.getLogger("gatesid.train")


@dataclass
class TrainConfig:
    epochs: int = 2
    batch_size: int = 256       # reference scale: 4096
    lr: float = 5e-3
    weight_decay: float = 1e-5
    test_frac: float = 0.2


def time_split(corpus, test_frac=0.2):
    """Most recent days form the test set; neither side may be empty."""
    n_days = corpus.config.n_days
    cutoff = n_days - max(1, int(round(test_frac * n_days)))
    train_idx = np.flatnonzero(corpus.imp_ts < cutoff)
    test_idx = np.flatnonzero(corpus.imp_ts >= cutoff)
    for side, idx in (("train", train_idx), ("test", test_idx)):
        if idx.size == 0:
            days = (f"days {corpus.imp_ts.min()}..{corpus.imp_ts.max()}"
                    if corpus.imp_ts.size else "no impressions")
            raise ValueError(f"time_split: the {side} split is empty at cutoff day {cutoff} "
                             f"(n_days={n_days}); the corpus has {days}")
    return train_idx, test_idx


def make_batch(corpus, stats_raw, idx):
    return {
        "target_ids": corpus.imp_item[idx],
        "hist_ids": corpus.imp_hist[idx],
        "user_ids": corpus.imp_user[idx],
        "stats_raw": stats_raw[idx],
        "click": corpus.imp_click[idx],
        "pay": corpus.imp_pay[idx],
    }


def train_model(corpus, sid_table, model_config, seed=0, train_config=None, token_init=None):
    """Train one model; returns (model, per-epoch mean training loss)."""
    tc = train_config or TrainConfig()
    model = GateSidModel(corpus.n_items, corpus.n_users, sid_table, model_config, seed=seed,
                         token_init=token_init)

    stats_raw = synthcorpus.impression_stat_features(corpus)
    train_idx, _ = time_split(corpus, tc.test_frac)
    model.fit_stat_norm(stats_raw[train_idx])

    opt = dk.AdamW(model.trainable_params(), lr=tc.lr, weight_decay=tc.weight_decay)
    curve = []
    for epoch in range(tc.epochs):
        order = train_idx[np.random.default_rng([seed, 7000 + epoch]).permutation(train_idx.size)]
        total = 0.0
        for step, lo in enumerate(range(0, order.size, tc.batch_size)):
            batch = make_batch(corpus, stats_raw, order[lo:lo + tc.batch_size])
            with dk.Tape() as tape:
                loss, _ = model.loss(batch)
                value = float(loss.values)
                if not np.isfinite(value):  # before the step: keep NaN out of AdamW
                    raise DivergenceError(f"variant {model_config.variant}: non-finite loss "
                                          f"at epoch {epoch} step {step}")
                # last step's gradients are freed only now, after this forward
                # pass allocated around them: freed at the end of the step, the
                # heap top they held went back to the OS and backward faulted it
                # in again (about 1,200 more page faults per desk-sized step)
                opt.zero_grad()
                dk.backward(loss, tape)
            opt.step()
            total += value * len(batch["target_ids"])
        curve.append(total / order.size)
        log.info("variant=%s seed=%d epoch=%d loss=%.5f", model.cfg.variant, seed, epoch, curve[-1])
    opt.zero_grad()
    return model, curve
