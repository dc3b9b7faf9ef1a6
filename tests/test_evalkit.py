"""Ranking metrics against brute-force oracles, reports, the ablation
harness and the gate-age curve."""

import dataclasses
import json

import numpy as np
import pytest

from gatesid import diffkernel as dk
from gatesid import evalkit, train
from gatesid.model import GateSidModel, ModelConfig


def brute_force_auc(scores, labels):
    """O(n^2) pair counting: concordant pairs plus half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    num = 0.0
    for p in pos:
        num += (p > neg).sum() + 0.5 * (p == neg).sum()
    return num / (pos.size * neg.size)


# ---------------------------------------------------------------------------
# auc


def test_auc_perfect_order():
    assert evalkit.auc([0.1, 0.9, 0.2, 0.8], [0, 1, 0, 1]) == 1.0


def test_auc_all_ties_is_half():
    assert evalkit.auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_hand_case():
    # one concordant pair and one discordant pair
    assert evalkit.auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5


def test_auc_single_class_is_none():
    assert evalkit.auc([0.1, 0.2], [1, 1]) is None
    assert evalkit.auc([0.1, 0.2], [0, 0]) is None


def test_auc_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(5, 200))
        scores = rng.integers(0, 10, size=n) / 10.0  # forces ties
        labels = (rng.uniform(size=n) < 0.4).astype(int)
        assert evalkit.auc(scores, labels) == brute_force_auc(scores, labels)


# ---------------------------------------------------------------------------
# gauc


def test_gauc_single_user_equals_auc():
    scores = np.array([0.2, 0.9, 0.4, 0.7])
    labels = np.array([0, 1, 1, 0])
    assert evalkit.gauc(scores, labels, np.zeros(4)) == evalkit.auc(scores, labels)


def test_gauc_hand_weighted_composition():
    # user 0: 4 impressions, AUC 1.0; user 1: 2 impressions, AUC 0.5
    scores = np.array([0.9, 0.8, 0.1, 0.2, 0.5, 0.5])
    labels = np.array([1, 1, 0, 0, 1, 0])
    users = np.array([0, 0, 0, 0, 1, 1])
    assert evalkit.gauc(scores, labels, users) == pytest.approx(5.0 / 6.0)


def test_gauc_order_invariance():
    rng = np.random.default_rng(23)
    scores = rng.uniform(size=30)
    labels = (rng.uniform(size=30) < 0.5).astype(int)
    users = rng.integers(0, 4, size=30)
    base = evalkit.gauc(scores, labels, users)
    perm = rng.permutation(30)
    assert evalkit.gauc(scores[perm], labels[perm], users[perm]) == pytest.approx(base)


def test_gauc_excludes_single_class_users():
    scores = np.array([0.9, 0.1, 0.7, 0.6])
    labels = np.array([1, 0, 1, 1])  # user 1 has positives only
    users = np.array([0, 0, 1, 1])
    assert evalkit.gauc(scores, labels, users) == 1.0
    assert evalkit.gauc(np.array([0.5]), np.array([1]), np.array([0])) is None


def gauc_mask_loop(scores, labels, user_ids):
    """One boolean mask per user, in ascending user order."""
    num = den = 0.0
    for u in np.unique(user_ids):
        m = user_ids == u
        a = evalkit.auc(scores[m], labels[m])
        if a is not None:
            num += int(m.sum()) * a
            den += int(m.sum())
    return num / den if den > 0 else None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauc_matches_mask_loop_exactly(seed):
    # scores on a coarse grid tie often; with 3 rows a user on average, many
    # users hold one row or one class and are left out
    rng = np.random.default_rng(seed)
    n = 400
    scores = rng.integers(0, 8, size=n) / 8.0
    labels = (rng.uniform(size=n) < 0.3).astype(int)
    users = rng.choice(rng.permutation(1000)[:130], size=n)
    got = evalkit.gauc(scores, labels, users)
    assert got is not None and got == gauc_mask_loop(scores, labels, users)
    one_class = np.zeros(n, dtype=int)
    assert evalkit.gauc(scores, one_class, users) is None is gauc_mask_loop(scores, one_class, users)


# ---------------------------------------------------------------------------
# alignment


def test_alignment_identical_pairs():
    e = np.random.default_rng(3).normal(size=(5, 8))
    score, used, skipped = evalkit.alignment_score(e, 2.0 * e)
    assert score == pytest.approx(1.0)
    assert used == 5 and skipped == 0


def test_alignment_orthogonal_pairs():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    score, _, _ = evalkit.alignment_score(a, b)
    assert score == pytest.approx(0.0, abs=1e-15)


def test_alignment_skips_zero_norm_rows():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
    b = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    score, used, skipped = evalkit.alignment_score(a, b)
    assert score == pytest.approx(1.0)
    assert used == 2 and skipped == 1
    score2, used2, skipped2 = evalkit.alignment_score(np.zeros((2, 2)), b[:2])
    assert score2 is None and used2 == 0 and skipped2 == 2


def test_alignment_shape_mismatch():
    with pytest.raises(ValueError):
        evalkit.alignment_score(np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# reports and aggregation


def test_eval_report_roundtrip(tmp_path):
    rep = {"metrics": {"ctr": {"all": {"auc": 0.7, "gauc": None, "n": 10}}},
           "gate": {"all": {"mean": 0.5, "deciles": [0.1] * 9}},
           "alignment": {"mean_paired_cosine": 0.3, "n_used": 10, "n_skipped": 0},
           "counts": {"n_eval": 10}}
    path = str(tmp_path / "report.json")
    dk.write_json(path, rep)
    with open(path) as f:
        text = f.read()
    assert text == json.dumps(rep, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == rep


def _fake_report(auc_val):
    return {"metrics": {t: {"all": {"auc": auc_val, "gauc": auc_val, "n": 4}}
                        for t in ("ctr", "ctcvr")}}


def test_aggregate_ablation_means_and_error_cells():
    cells = {("full", 0): _fake_report(0.7), ("full", 1): _fake_report(0.8),
             ("no_gfsa", 0): _fake_report(0.6), ("no_gfsa", 1): "error: boom"}
    summary = evalkit.aggregate_ablation(cells, ["full", "no_gfsa"], [0, 1])
    assert summary["full"]["ctr_auc"] == pytest.approx(0.75)
    assert summary["no_gfsa"]["ctr_auc"] == pytest.approx(0.6)


def test_ablation_csv_layout(tmp_path):
    summary = {"full": {"ctr_auc": 0.75, "ctr_gauc": 0.74, "ctcvr_auc": 0.6,
                        "ctcvr_gauc": 0.1 + 0.2},
               "no_grca": {"ctr_auc": 0.7, "ctcvr_gauc": 0.5},
               "broken": {}}
    path = tmp_path / "ablation.csv"
    evalkit.write_ablation_csv(str(path), summary)
    # floats as repr prints them; a missing mean is an empty cell
    assert path.read_bytes() == (b"variant,ctr_auc,ctr_gauc,ctcvr_auc,ctcvr_gauc\n"
                                 b"full,0.75,0.74,0.6,0.30000000000000004\n"
                                 b"no_grca,0.7,,,0.5\n"
                                 b"broken,,,,\n")


def test_run_ablation_degenerate_matrix(small_corpus, small_sid_table):
    overrides = dict(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                     attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    tc = train.TrainConfig(epochs=1, batch_size=128, test_frac=0.2)
    cells, summary = evalkit.run_ablation(small_corpus, small_sid_table,
                                          ["full"], [0], ModelConfig(**overrides),
                                          train_config=tc)
    assert set(cells) == {("full", 0)}
    assert set(cells[("full", 0)]) == {"metrics", "gate", "alignment", "counts"}
    assert 0.0 < summary["full"]["ctr_auc"] < 1.0


def test_run_ablation_matrix_count_and_isolation(small_corpus, small_sid_table):
    overrides = dict(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                     attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    # a SID table with two levels where the model expects three makes every
    # cell fail; failures must be isolated into the cells, not raised
    cells, summary = evalkit.run_ablation(small_corpus, small_sid_table[:, :2],
                                          ["full", "no_grca"], [0, 1],
                                          ModelConfig(**overrides))
    assert len(cells) == 4
    assert all(isinstance(v, str) and v.startswith("error:") for v in cells.values())
    assert summary == {"full": {}, "no_grca": {}}


def test_run_ablation_replaces_only_the_variant(monkeypatch, small_corpus, small_sid_table):
    # a no_grca base config keeps its lam, so the full cell trains the alignment loss
    seen = []

    def spy(corpus, sid_table, model_config, **kwargs):
        seen.append(model_config)
        raise RuntimeError("not trained")

    monkeypatch.setattr(train, "train_model", spy)
    base = ModelConfig(variant="no_grca", lam=0.3)
    evalkit.run_ablation(small_corpus, small_sid_table, ["full", "no_grca"], [0], base)
    assert seen == [dataclasses.replace(base, variant="full"), base]
    assert seen[0].lam == 0.3


# ---------------------------------------------------------------------------
# evaluate_model on a real (untrained) model


def test_evaluate_model_buckets(small_corpus, small_sid_table):
    cfg = ModelConfig(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                      attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    model = GateSidModel(small_corpus.n_items, small_corpus.n_users,
                         small_sid_table, cfg, seed=0)
    from gatesid import synthcorpus
    model.fit_stat_norm(synthcorpus.impression_stat_features(small_corpus))
    _, test_idx = train.time_split(small_corpus, 0.2)
    rep = evalkit.evaluate_model(small_corpus, model, 0.2)
    assert set(rep["metrics"]) == {"ctr", "ctcvr"}
    assert set(rep["metrics"]["ctr"]) == {"all", "new", "popular"}
    assert rep["metrics"]["ctr"]["all"]["n"] == test_idx.size
    assert rep["counts"]["n_eval"] == test_idx.size
    assert len(rep["gate"]["all"]["deciles"]) == 9
    assert rep["gate"]["age_curve"] == evalkit.gate_age_curve(small_corpus, model)


# ---------------------------------------------------------------------------
# gate-age curve


def test_gate_curve_flat_half_for_zero_gate(small_corpus, small_sid_table):
    cfg = ModelConfig(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                      attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    model = GateSidModel(small_corpus.n_items, small_corpus.n_users,
                         small_sid_table, cfg, seed=0)
    for k in ("gate.w1_item", "gate.w1_stats", "gate.b1", "gate.w2", "gate.b2"):
        model.params[k].values[...] = 0.0
    curve = evalkit.gate_age_curve(small_corpus, model)
    for row in curve:
        if row["mean_w"] is not None:
            assert row["mean_w"] == pytest.approx(0.5)
    # bins partition the age range
    assert curve[0]["age_lo"] == 0
    assert curve[-1]["age_hi"] == small_corpus.config.max_age_days + 1
    for prev, nxt in zip(curve[:-1], curve[1:]):
        assert prev["age_hi"] == nxt["age_lo"]
    assert sum(r["n"] for r in curve) == small_corpus.n_items


@pytest.mark.parametrize("setting, edges", [
    ({"new_age_days": 80}, [0, 60, 80, 150, 300, 366]),
    ({"new_age_days": 60}, [0, 60, 150, 300, 366]),
    ({"popular_age_days": 100}, [0, 20, 60, 100, 150, 366]),
], ids=["new-past-60", "new-on-60", "popular-below-150"])
def test_gate_curve_bins_partition_when_thresholds_move(small_corpus, small_sid_table,
                                                        setting, edges):
    corpus = dataclasses.replace(small_corpus,
                                 config=dataclasses.replace(small_corpus.config, **setting))
    cfg = ModelConfig(sid_levels=3, sid_codes=8, d_token=4, d_user=4,
                      attn_dim=4, gate_hidden=4, head_hidden1=16, head_hidden2=8)
    model = GateSidModel(corpus.n_items, corpus.n_users, small_sid_table, cfg, seed=0)
    curve = evalkit.gate_age_curve(corpus, model)
    # consecutive bins share their edges, and the edges rise strictly
    assert [(r["age_lo"], r["age_hi"]) for r in curve] == list(zip(edges[:-1], edges[1:]))
    assert sum(r["n"] for r in curve) == corpus.n_items  # no item counted twice

