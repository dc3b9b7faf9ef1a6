"""Ranking metrics, maturity-bucketed reports (with the gate-age curve),
alignment diagnostics and the ablation harness."""

import dataclasses
import logging

import numpy as np

from . import synthcorpus, train
from .diffkernel import write_csv

log = logging.getLogger("gatesid.evalkit")


# ---------------------------------------------------------------------------
# metrics


def _midranks(x):
    """1-based ranks; each run of tied values shares the mean of its ranks."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], len(sx)] - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auc(scores, labels):
    """P(random positive outranks random negative), ties at 1/2, via rank-sum.

    Returns None when only one class is present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    r = _midranks(scores)
    return float((r[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def gauc(scores, labels, user_ids):
    """Impression-count-weighted mean of per-user AUC; users lacking both
    classes are excluded from numerator and denominator."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    user_ids = np.asarray(user_ids)
    # users in ascending id order, each user's rows in index order
    order = np.argsort(user_ids, kind="stable")
    uid = user_ids[order]
    num = 0.0
    den = 0.0
    for rows in np.split(order, np.flatnonzero(uid[1:] != uid[:-1]) + 1):
        a = auc(scores[rows], labels[rows])
        if a is None:
            continue
        num += rows.size * a
        den += rows.size
    return num / den if den > 0 else None


def alignment_score(e_sid, e_item):
    """Mean paired cosine similarity; zero-norm pairs are skipped.

    Returns (score, n_used, n_skipped).
    """
    a = np.asarray(e_sid, dtype=np.float64)
    b = np.asarray(e_item, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"alignment_score: shape mismatch {a.shape} vs {b.shape}")
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    ok = (na > 0) & (nb > 0)
    if not ok.any():
        return None, 0, int(len(a))
    cos = (a[ok] * b[ok]).sum(axis=1) / (na[ok] * nb[ok])
    return float(cos.mean()), int(ok.sum()), int((~ok).sum())


# ---------------------------------------------------------------------------
# reports


def gate_age_curve(corpus, model):
    """Mean gate weight per item-age bin; the edges are sorted and distinct,
    so the bins partition the age range whatever the maturity thresholds."""
    cfg = corpus.config
    bins = sorted({0, cfg.new_age_days, 60, 150, cfg.popular_age_days, cfg.max_age_days + 1})
    stats = synthcorpus.item_stat_features(corpus)
    w = model.item_gate_weights(stats)
    ages = corpus.item_age
    curve = []
    for lo, hi in zip(bins[:-1], bins[1:]):
        sel = (ages >= lo) & (ages < hi)
        curve.append({
            "age_lo": int(lo),
            "age_hi": int(hi),
            "n": int(sel.sum()),
            "mean_w": float(w[sel].mean()) if sel.any() else None,
        })
    return curve


def evaluate_model(corpus, model, test_frac):
    """Bucketed AUC/GAUC on the ``train.time_split`` test split plus gate and
    alignment diagnostics, as a report dict: "metrics" (task -> bucket ->
    auc, gauc, n), "gate" (bucket -> mean and deciles of w, and "age_curve",
    the ``gate_age_curve`` of every item), "alignment" and "counts"."""
    stats_raw = synthcorpus.impression_stat_features(corpus)
    _, idx = train.time_split(corpus, test_frac)
    batch = train.make_batch(corpus, stats_raw, idx)
    preds = model.predict(batch)

    ages = corpus.item_age[batch["target_ids"] - 1]
    cfg = corpus.config
    by_age = synthcorpus.split_by_maturity(ages, cfg.new_age_days, cfg.popular_age_days)
    buckets = {"all": np.arange(idx.size), "new": by_age["new"], "popular": by_age["popular"]}
    tasks = {"ctr": (preds["pctr"], batch["click"]),
             "ctcvr": (preds["pctcvr"], batch["click"] * batch["pay"])}

    report = {"metrics": {}, "gate": {}}
    for task, (scores, labels) in tasks.items():
        report["metrics"][task] = {}
        for name, sel in buckets.items():
            report["metrics"][task][name] = {
                "auc": auc(scores[sel], labels[sel]),
                "gauc": gauc(scores[sel], labels[sel], batch["user_ids"][sel]),
                "n": int(sel.size),
            }

    for name, sel in buckets.items():
        if sel.size:
            w = preds["w"][sel]
            report["gate"][name] = {
                "mean": float(w.mean()),
                "deciles": [float(v) for v in np.percentile(w, np.arange(10, 100, 10))],
            }
    report["gate"]["age_curve"] = gate_age_curve(corpus, model)

    e_sid, e_item = model.item_embeddings()
    score, used, skipped = alignment_score(e_sid, e_item)
    report["alignment"] = {"mean_paired_cosine": score, "n_used": used, "n_skipped": skipped}
    report["counts"] = {"n_eval": int(idx.size)}
    return report


# ---------------------------------------------------------------------------
# ablation harness


def run_ablation(corpus, sid_table, variants, seeds, model_config, train_config=None,
                 token_init=None):
    """One report dict per (variant, seed), ``model_config`` with the variant
    replaced, plus per-variant means.

    A failing cell is isolated (recorded as an error string), not fatal.
    """
    test_frac = (train_config or train.TrainConfig()).test_frac
    cells = {}
    for variant in variants:
        for seed in seeds:
            key = (variant, seed)
            try:
                model, _ = train.train_model(
                    corpus, sid_table, dataclasses.replace(model_config, variant=variant),
                    seed=seed, train_config=train_config, token_init=token_init)
                cells[key] = evaluate_model(corpus, model, test_frac)
            except Exception as exc:  # isolate the failure to this cell
                log.exception("ablation cell %s failed", key)
                cells[key] = f"error: {exc}"
    summary = aggregate_ablation(cells, variants, seeds)
    return cells, summary


def aggregate_ablation(cells, variants, seeds):
    """Mean metric per variant across seeds, shaped like the comparison tables."""
    summary = {}
    for variant in variants:
        vals = {}
        for task in ("ctr", "ctcvr"):
            for metric in ("auc", "gauc"):
                xs = []
                for seed in seeds:
                    rep = cells.get((variant, seed))
                    if isinstance(rep, dict):
                        v = rep["metrics"][task]["all"][metric]
                        if v is not None:
                            xs.append(v)
                if xs:
                    vals[f"{task}_{metric}"] = float(np.mean(xs))
        summary[variant] = vals
    return summary


def write_ablation_csv(path, summary):
    """One row per variant: each mean as repr prints it, or empty if missing."""
    cols = ["ctr_auc", "ctr_gauc", "ctcvr_auc", "ctcvr_gauc"]
    write_csv(path, ["variant", *cols], list(summary),
              *([repr(vals[c]) if c in vals else "" for vals in summary.values()] for c in cols))
