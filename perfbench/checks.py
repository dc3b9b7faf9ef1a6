"""Checks of the pipeline's outputs, computed apart from the program.

Each check reads the artifacts a pipeline run left in one directory and
returns a list of problems (empty when the outputs are right). Formats are
parsed here rather than through gatesid's loaders, and every reference value
is recomputed from first principles: histories from the impression log,
semantic IDs by a brute-force residual nearest-code search, AUC and GAUC by
counting positive/negative pairs. Only the eval check calls into gatesid, to
load the trained model and score the test split with it.
"""

import csv
import json
import os

import numpy as np


def _numeric_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_impressions(path, l_max):
    """Impression columns plus histories right-aligned into (N, l_max), 0 = pad."""
    with open(path) as f:
        rows = list(csv.reader(f))[1:]
    cols = {k: np.array([int(r[j]) for r in rows], dtype=np.int64)
            for j, k in ((0, "user"), (1, "item"), (3, "click"), (4, "pay"), (5, "ts"))}
    hist = np.zeros((len(rows), l_max), dtype=np.int64)
    lengths = np.zeros(len(rows), dtype=np.int64)
    for i, r in enumerate(rows):
        if r[2]:
            h = [int(v) for v in r[2].split("|")]
            lengths[i] = len(h)
            h = h[-l_max:]
            hist[i, l_max - len(h):] = h
    cols["hist"] = hist
    cols["hist_len"] = lengths
    return cols


def read_arrays(path):
    """The float64 array container (one JSON manifest line, then raw blobs);
    returns the arrays and the count of bytes left after the last blob."""
    with open(path, "rb") as f:
        manifest = json.loads(f.readline())
        arrays = {}
        for entry in manifest["arrays"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            arrays[entry["name"]] = np.frombuffer(f.read(8 * n), dtype="<f8").reshape(shape)
        trailing = f.read()
    return arrays, len(trailing)


# ---------------------------------------------------------------------------
# gen-data


def check_corpus(art, rc):
    """Shapes and ids match the config; every history entry is an item the
    same user clicked at an earlier impression."""
    problems = []
    corpus = os.path.join(art, "corpus")
    items = _numeric_csv(os.path.join(corpus, "items.csv"))
    users = _numeric_csv(os.path.join(corpus, "users.csv"))
    want_items = (rc.n_items, 4 + rc.content_dim + rc.factor_dim)
    want_users = (rc.n_users, 2 + rc.content_dim + rc.factor_dim)
    if items.shape != want_items:
        problems.append(f"items.csv shape {items.shape}, expected {want_items}")
    elif not np.array_equal(items[:, 0], np.arange(1, rc.n_items + 1)):
        problems.append("items.csv ids are not 1..n_items in order")
    if users.shape != want_users:
        problems.append(f"users.csv shape {users.shape}, expected {want_users}")
    elif not np.array_equal(users[:, 0], np.arange(rc.n_users)):
        problems.append("users.csv ids are not 0..n_users-1 in order")

    imp = read_impressions(os.path.join(corpus, "impressions.csv"), rc.l_max)
    n = imp["user"].size
    if n != rc.n_impressions:
        problems.append(f"{n} impressions, expected {rc.n_impressions}")
    if imp["user"].min() < 0 or imp["user"].max() >= rc.n_users:
        problems.append("impression user id out of range")
    if imp["item"].min() < 1 or imp["item"].max() > rc.n_items:
        problems.append("impression item id out of range")
    if imp["ts"].min() < 0 or imp["ts"].max() >= rc.n_days or np.any(np.diff(imp["ts"]) < 0):
        problems.append("impression days out of range or not time-ordered")
    if not (set(np.unique(imp["click"])) <= {0, 1}) or np.any(imp["pay"] > imp["click"]):
        problems.append("click/pay labels are not {0,1} with pay <= click")
    if imp["hist_len"].max(initial=0) > rc.l_max:
        problems.append("a history is longer than l_max")

    clicked = [set() for _ in range(rc.n_users)]
    bad = 0
    for i in range(n):
        seen = clicked[imp["user"][i]]
        h = imp["hist"][i]
        bad += sum(1 for v in h[h > 0] if int(v) not in seen)
        if imp["click"][i]:
            seen.add(int(imp["item"][i]))
    if bad:
        problems.append(f"{bad} history entries were not clicked earlier by the same user")
    return problems


# ---------------------------------------------------------------------------
# encode-sids


def _relu_mlp(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def check_sids(art, rc, chunk=256):
    """Each item once; each SID equals a brute-force residual nearest-code
    search (full distances, ties to the lowest index); code 0 is the zero
    vector at levels 2+; residual norms never grow across levels."""
    problems = []
    arrays, trailing = read_arrays(os.path.join(art, "codebook.rqv"))
    if trailing:
        problems.append(f"codebook.rqv has {trailing} trailing bytes")
    codes = arrays["codes"]
    L = codes.shape[0]
    if codes.shape != (rc.rq_levels, rc.rq_codes, rc.rq_latent_dim):
        problems.append(f"codebook shape {codes.shape} does not match the config")
    for level in range(1, L):
        if np.any(codes[level, 0] != 0.0):
            problems.append(f"code 0 at level {level + 1} is not the zero vector")

    items = _numeric_csv(os.path.join(art, "corpus", "items.csv"))
    x = items[:, 4:4 + rc.content_dim]
    z = _relu_mlp(x, arrays["ae.enc.w1"], arrays["ae.enc.b1"],
                  arrays["ae.enc.w2"], arrays["ae.enc.b2"])

    table = _numeric_csv(os.path.join(art, "sids.csv"))
    table = table.astype(np.int64)
    if table.shape != (rc.n_items, 1 + L):
        problems.append(f"sids.csv shape {table.shape}, expected {(rc.n_items, 1 + L)}")
        return problems
    if not np.array_equal(np.sort(table[:, 0]), np.arange(1, rc.n_items + 1)):
        problems.append("sids.csv does not list each item 1..n exactly once")
        return problems
    saved = np.empty((rc.n_items, L), dtype=np.int64)
    saved[table[:, 0] - 1] = table[:, 1:]

    mismatched = grown = 0
    for lo in range(0, z.shape[0], chunk):
        r = z[lo:lo + chunk]
        norm = np.sqrt((r * r).sum(axis=1))
        for level in range(L):
            dist = ((r[:, None, :] - codes[level][None, :, :]) ** 2).sum(axis=2)
            idx = dist.argmin(axis=1)  # first minimum: ties go to the lowest index
            mismatched += int((idx != saved[lo:lo + chunk, level]).sum())
            r = r - codes[level][idx]
            new_norm = np.sqrt((r * r).sum(axis=1))
            if level > 0:
                grown += int((new_norm > norm * (1.0 + 1e-12)).sum())
            norm = new_norm
    if mismatched:
        problems.append(f"{mismatched} SID codes differ from the brute-force search")
    if grown:
        problems.append(f"{grown} residual norms grew at levels 2+")
    return problems


# ---------------------------------------------------------------------------
# eval


def mann_whitney_auc(scores, labels):
    """Share of (positive, negative) pairs the positive wins, ties 1/2."""
    pos = np.sort(scores[labels == 1])
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        return None
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    wins = below.sum() + 0.5 * (upto - below).sum()
    return float(wins) / (pos.size * neg.size)


def _gauc(scores, labels, users):
    num = den = 0.0
    for u in np.unique(users):
        m = users == u
        a = mann_whitney_auc(scores[m], labels[m])
        if a is not None:
            num += m.sum() * a
            den += m.sum()
    return num / den if den > 0 else None


def _close(a, b, tol=1e-9):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_eval(art, rc):
    """AUC/GAUC in report.json equal pair counts over the model's own test
    predictions; bucket sizes match item ages; outputs lie in [0, 1]."""
    from gatesid import config as runcfg, synthcorpus
    from gatesid.model import GateSidModel

    problems = []
    with open(os.path.join(art, "report.json")) as f:
        report = json.load(f)
    corpus = synthcorpus.load_corpus(os.path.join(art, "corpus"), runcfg.corpus_config(rc))
    stats = synthcorpus.impression_stat_features(corpus)

    imp = read_impressions(os.path.join(art, "corpus", "impressions.csv"), rc.l_max)
    items = _numeric_csv(os.path.join(art, "corpus", "items.csv"))
    cutoff = rc.n_days - max(1, int(round(rc.test_frac * rc.n_days)))
    test = np.flatnonzero(imp["ts"] >= cutoff)
    model = GateSidModel.load(os.path.join(art, "model.ckpt"))
    preds = model.predict({"target_ids": imp["item"][test], "hist_ids": imp["hist"][test],
                           "user_ids": imp["user"][test], "stats_raw": stats[test]})
    for key in ("pctr", "pctcvr", "w"):
        v = preds[key]
        if v.shape != test.shape or not np.all((v >= 0.0) & (v <= 1.0)):
            problems.append(f"prediction '{key}' has values outside [0, 1]")

    ages = items[imp["item"][test] - 1, 1]
    buckets = {"all": np.ones(test.size, dtype=bool),
               "new": ages < rc.new_age_days,
               "popular": ages > rc.popular_age_days}
    click = imp["click"][test]
    tasks = {"ctr": (preds["pctr"], click),
             "ctcvr": (preds["pctcvr"], click * imp["pay"][test])}
    users = imp["user"][test]
    for task, (scores, labels) in tasks.items():
        for name, sel in buckets.items():
            got = report["metrics"][task][name]
            if got["n"] != int(sel.sum()):
                problems.append(f"{task}/{name}: n={got['n']}, counted {int(sel.sum())}")
            want_auc = mann_whitney_auc(scores[sel], labels[sel])
            want_gauc = _gauc(scores[sel], labels[sel], users[sel])
            if not _close(got["auc"], want_auc):
                problems.append(f"{task}/{name}: auc {got['auc']} != pair count {want_auc}")
            if not _close(got["gauc"], want_gauc):
                problems.append(f"{task}/{name}: gauc {got['gauc']} != pair count {want_gauc}")
    ctr_all = report["metrics"]["ctr"]["all"]["auc"]
    if ctr_all is None or ctr_all <= 0.5:
        problems.append(f"CTR AUC on all is {ctr_all}, not above 0.5")
    return problems


# ---------------------------------------------------------------------------
# point-in-time stat features


def point_in_time_mismatch(corpus_dir, corpus_cfg, window_days=7):
    """Share of impressions whose exposures_7d / clicks_7d from
    ``synthcorpus.impression_stat_features`` differ from counts over the
    seven days before the impression's day, recomputed from the saved log."""
    from gatesid import synthcorpus

    imp = read_impressions(os.path.join(corpus_dir, "impressions.csv"), corpus_cfg.l_max)
    n_days = corpus_cfg.n_days
    per_day = np.zeros((corpus_cfg.n_items + 1, n_days + 1, 2))
    np.add.at(per_day, (imp["item"], imp["ts"] + 1, 0), 1.0)
    np.add.at(per_day, (imp["item"], imp["ts"] + 1, 1), imp["click"].astype(float))
    cum = per_day.cumsum(axis=1)  # cum[:, d] sums days < d
    lo = np.maximum(imp["ts"] - window_days, 0)
    want = cum[imp["item"], imp["ts"]] - cum[imp["item"], lo]

    got = synthcorpus.impression_stat_features(
        synthcorpus.load_corpus(corpus_dir, corpus_cfg))[:, 1:3]
    return (got != want).mean(axis=0)
