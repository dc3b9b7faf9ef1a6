"""End-to-end acceptance gate.

Each test prints one pass/fail line (visible with ``pytest -s``) and asserts
the same condition. The trained-model criteria share one ablation run (every
variant they compare at every seed) on the golden corpus, so the whole module
runs in a few minutes.
"""

import hashlib
import time

import numpy as np
import pytest

import gatesid.diffkernel as dk
from gatesid import cli, config, evalkit, rqvae, synthcorpus, train
from gatesid.model import ModelConfig, GateSidModel, token_init_from_codebook
from oracle_ops import concat, grad_check, toy_model_and_batch, tsum

GOLDEN_SEED = 0
SEEDS = (0, 1, 2)
ABLATION = ("full", "no_grca", "no_gfsa", "avg_fusion")


def report_line(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared golden-seed artifacts


@pytest.fixture(scope="module")
def golden_corpus():
    return synthcorpus.generate_corpus(seed=GOLDEN_SEED)


@pytest.fixture(scope="module")
def artifacts(golden_corpus):
    rc = config.RunConfig()
    params, codebook, _ = rqvae.train_rqvae(
        golden_corpus.item_content, config.rqvae_config(rc), seed=GOLDEN_SEED)
    sids = rqvae.assign_sids(golden_corpus.item_content, params, codebook)
    table = np.zeros((golden_corpus.n_items + 1, len(codebook)), dtype=np.int64)
    table[1:] = sids
    token_init = token_init_from_codebook(codebook, rc.d_token)
    return {"params": params, "codebook": codebook, "sid_table": table,
            "token_init": token_init, "model_config": config.model_config(rc)}


@pytest.fixture(scope="module")
def trained(golden_corpus, artifacts):
    """One test report per (variant, seed) ablation cell, from one
    ``run_ablation`` call, and that call's CPU time: the process's, not the
    wall clock's, so a second job sharing the host does not count."""
    t0 = time.process_time()
    cells, _ = evalkit.run_ablation(
        golden_corpus, artifacts["sid_table"], ABLATION, SEEDS, artifacts["model_config"],
        train_config=train.TrainConfig(), token_init=artifacts["token_init"])
    seconds = time.process_time() - t0
    failed = [f"{v}:{s}: {rep}" for (v, s), rep in cells.items() if isinstance(rep, str)]
    if failed:
        pytest.fail(f"{len(failed)} ablation cells failed: " + "; ".join(failed))
    return {"cells": cells, "seconds": seconds}


def mean_metric(trained, variant, task, metric):
    vals = [trained["cells"][(variant, s)]["metrics"][task]["all"][metric] for s in SEEDS]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_01_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    def check(tag, fn, arrays):
        params = {f"{tag}{i}": dk.Tensor(a, requires_grad=True)
                  for i, a in enumerate(arrays)}
        rep = grad_check(lambda: fn(*params.values()), params,
                         step=1e-5, tolerance=1e-4)
        return max(rep["max_rel_error"].values())

    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    m = rng.normal(size=(4, 3))
    q = rng.normal(size=(2, 4))
    k3 = rng.normal(size=(2, 5, 4))
    s2 = rng.normal(size=(2, 5))
    h3 = rng.normal(size=(2, 5, 6))
    slots = np.arange(2 * 5).reshape(2, 5)
    w2 = rng.normal(size=(2, 1))
    sq = rng.normal(size=(4, 4))
    y = (rng.uniform(size=(3, 4)) > 0.5).astype(float)
    relu_in = a + np.where(np.abs(a) < 0.05, 0.1, 0.0)
    nce_w = np.array([1.0, 0.0, 0.4])
    errs = {
        "add": check("a", lambda x, z: tsum(dk.add(x, z)), [a, b]),
        "sub": check("b", lambda x, z: tsum(dk.sub(x, z)), [a, b]),
        "affine": check("d", lambda x: tsum(dk.affine(x, 1.7, 0.3)), [a]),
        "square": check("e", lambda x: tsum(dk.square(x)), [a]),
        "sigmoid": check("h", lambda x: tsum(dk.sigmoid(x)), [a]),
        "relu": check("i", lambda x: tsum(dk.relu(x)), [relu_in]),
        "linear_one_part": check("j", lambda x, z: tsum(dk.linear(x, z)), [a, m]),
        "linear": check("k", lambda x, z, v, c: tsum(dk.square(dk.linear(
            [x, z], v, c))), [a, b, rng.normal(size=(8, 3)), rng.normal(size=3)]),
        "concat": check("l", lambda x, z: tsum(dk.square(concat([x, z]))),
                        [a, b]),
        "reshape": check("o", lambda x: tsum(dk.square(dk.reshape(x, (2, 6)))), [a]),
        "gather": check("m", lambda t: tsum(dk.square(
            dk.gather_rows(t, np.array([0, 2, 2])))), [m]),
        "add_rows": check("p", lambda x, t: tsum(dk.square(
            dk.add_rows(x, t, np.array([1, 0, 1])))), [a, b[:2]]),
        "take_col": check("n", lambda x: tsum(dk.square(dk.take_column(x, 1))),
                          [sq]),
        "mean": check("q", lambda x: dk.tmean(dk.square(x)), [a]),
        "softmax": check("r", lambda x: tsum(dk.square(dk.row_softmax(x))), [a]),
        "attn_scores": check("s", lambda x, z: tsum(dk.square(
            dk.attention_scores(x, z, slots))), [q, k3.reshape(-1, 4)]),
        "attn_pool": check("t", lambda x, z: tsum(dk.square(
            dk.attention_pool(x, z, slots))), [s2, h3.reshape(-1, 6)]),
        "scale_rows": check("u", lambda x, z: tsum(dk.square(
            dk.scale_rows(x, z))), [s2, w2]),
        "info_nce": check("v", lambda z: dk.info_nce(dk.constant(a), z, nce_w, 0.5), [b]),
        "bce": check("w", lambda x: tsum(dk.bce_with_logits(x, y)), [a]),
        "add_rows_linear": check("x", lambda x, t, p, z, c: tsum(dk.square(dk.add_rows(
            x, t, np.array([1, 0, 1]), [p], z, c))),
            [a, b[:2], rng.normal(size=(3, 2)), rng.normal(size=(2, 4)), rng.normal(size=4)]),
    }

    # the loss's stop-gradients, InfoNCE's e_sid input and weights, are
    # frozen at the values of the first, unperturbed call, so the finite
    # differences and the tape differentiate one function
    model, batch = toy_model_and_batch(seed=GOLDEN_SEED)
    contrastive, frozen = model.contrastive_loss, []

    def frozen_contrastive(e_sid, e_item, w):
        if not frozen:
            frozen.extend([dk.constant(e_sid.values.copy()), w.copy()])
        return contrastive(frozen[0], e_item, frozen[1])

    model.contrastive_loss = frozen_contrastive
    rep = grad_check(lambda: model.loss(batch)[0], model.params, step=1e-5, tolerance=1e-4)
    errs["toy_model_loss"] = max(rep["max_rel_error"].values())

    elapsed = time.time() - t0
    worst = max(errs.values())
    ok = worst <= 1e-4 and elapsed < 10.0
    report_line(1, ok, f"gradient suite worst rel error {worst:.2e} "
                       f"(tol 1e-4), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: attention invariants on 10,000 randomized cases


def test_criterion_02_attention_invariants():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n, L, d = 10000, 12, 8
    sc_sid = rng.normal(size=(n, L))
    sc_item = rng.normal(size=(n, L))
    mask = rng.uniform(size=(n, L)) > 0.3
    mask[np.arange(n), rng.integers(0, L, size=n)] = True

    s_sid = dk.row_softmax(dk.constant(sc_sid), mask=mask)
    s_item = dk.row_softmax(dk.constant(sc_item), mask=mask)
    w = dk.constant(rng.uniform(size=(n, 1)))
    one_minus = dk.constant(1.0 - w.values)
    s_fused = dk.add(dk.scale_rows(s_sid, w), dk.scale_rows(s_item, one_minus))

    row_err = max(np.abs(t.values.sum(axis=1) - 1.0).max()
                  for t in (s_sid, s_item, s_fused))

    ones = dk.constant(np.ones((n, 1)))
    zeros = dk.constant(np.zeros((n, 1)))
    at_one = dk.add(dk.scale_rows(s_sid, ones), dk.scale_rows(s_item, zeros))
    at_zero = dk.add(dk.scale_rows(s_sid, zeros), dk.scale_rows(s_item, ones))
    boundary_exact = (np.array_equal(at_one.values, s_sid.values)
                      and np.array_equal(at_zero.values, s_item.values))

    h_sid = dk.constant(rng.normal(size=(n, L, d)))
    h_item = dk.constant(rng.normal(size=(n, L, d)))
    slots = np.arange(n * L).reshape(n, L)
    pooled_sid = dk.attention_pool(s_fused, dk.constant(h_sid.values.reshape(-1, d)), slots)
    pooled_item = dk.attention_pool(s_fused, dk.constant(h_item.values.reshape(-1, d)), slots)
    perm = rng.permutation(L)
    pooled_sid_p = dk.attention_pool(dk.constant(s_fused.values[:, perm]),
                                     dk.constant(h_sid.values[:, perm].reshape(-1, d)), slots)
    pooled_item_p = dk.attention_pool(dk.constant(s_fused.values[:, perm]),
                                      dk.constant(h_item.values[:, perm].reshape(-1, d)), slots)
    perm_err = max(np.abs(pooled_sid.values - pooled_sid_p.values).max(),
                   np.abs(pooled_item.values - pooled_item_p.values).max())

    elapsed = time.time() - t0
    ok = (row_err <= 1e-10 and boundary_exact and perm_err <= 1e-12
          and elapsed < 5.0)
    report_line(2, ok, f"10k cases: row-sum err {row_err:.1e} (<=1e-10), "
                       f"boundaries exact {boundary_exact}, permutation err "
                       f"{perm_err:.1e} (<=1e-12), {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 3: residual quantizer vs brute-force oracle


def test_criterion_03_rq_oracle(artifacts):
    t0 = time.time()
    cb = artifacts["codebook"]
    rng = np.random.default_rng(303)
    z = rng.normal(0.0, 0.5, size=(1000, cb.shape[2]))

    idx, res = rqvae.rq_encode_batch(z, cb)
    r = z.copy()
    argmin_exact = True
    for level in range(len(cb)):
        d = ((r[:, None, :] - cb[level][None]) ** 2).sum(axis=2)
        best = d.argmin(axis=1)
        argmin_exact &= np.array_equal(best, idx[:, level])
        r = r - cb[level][best]

    decoded = cb[np.arange(len(cb))[None, :], idx].sum(axis=1)
    telescope_err = np.abs(decoded + res[:, -1] - z).max()

    norms = np.linalg.norm(res, axis=2)
    monotone_frac = float(np.all(norms[:, 2:] <= norms[:, 1:-1] + 1e-12, axis=1).mean())

    elapsed = time.time() - t0
    ok = (argmin_exact and telescope_err <= 1e-10 and monotone_frac == 1.0
          and elapsed < 5.0)
    report_line(3, ok, f"argmin exact {argmin_exact}, telescoping err "
                       f"{telescope_err:.1e} (<=1e-10), monotone refinement "
                       f"{monotone_frac:.0%}, {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 4: ranking metrics vs pair-counting oracles


def test_criterion_04_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(404)
    exact = True
    for _ in range(200):
        n = int(rng.integers(10, 1001))
        scores = rng.integers(0, 50, size=n) / 50.0  # coarse grid forces ties
        labels = (rng.uniform(size=n) < rng.uniform(0.2, 0.8)).astype(int)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        got = evalkit.auc(scores, labels)
        if pos.size == 0 or neg.size == 0:
            exact &= got is None
            continue
        cmp = pos[:, None] - neg[None, :]
        want = ((cmp > 0).sum() + 0.5 * (cmp == 0).sum()) / (pos.size * neg.size)
        exact &= got == want

    hand = evalkit.gauc(np.array([0.9, 0.8, 0.1, 0.2, 0.5, 0.5]),
                        np.array([1, 1, 0, 0, 1, 0]),
                        np.array([0, 0, 0, 0, 1, 1]))
    hand_ok = hand == pytest.approx(5.0 / 6.0, abs=1e-12)
    skip = evalkit.gauc(np.array([0.9, 0.1, 0.7, 0.6]),
                        np.array([1, 0, 1, 1]), np.array([0, 0, 1, 1]))
    skip_ok = skip == 1.0

    elapsed = time.time() - t0
    ok = exact and hand_ok and skip_ok and elapsed < 10.0
    report_line(4, ok, f"200 auc instances exact {exact}, gauc hand case "
                       f"{hand_ok}, single-class exclusion {skip_ok}, "
                       f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 5: contrastive closed forms


def test_criterion_05_contrastive_closed_forms():
    cfg = ModelConfig(sid_levels=4, sid_codes=8, d_token=4, d_user=4,
                      attn_dim=4, gate_hidden=4, head_hidden1=8, head_hidden2=4)
    model = GateSidModel(100, 2, np.zeros((101, 4), dtype=np.int64), cfg, seed=0)
    rng = np.random.default_rng(505)

    e1 = dk.constant(rng.normal(size=(1, 16)))
    single = abs(float(model.contrastive_loss(e1, e1, np.ones(1)).values))

    log_b_err = 0.0
    for b in (2, 8, 64):
        row = rng.normal(size=16)
        e = dk.constant(np.tile(row, (b, 1)))
        got = float(model.contrastive_loss(e, e, np.ones(b)).values)
        log_b_err = max(log_b_err, abs(got - np.log(b)))

    model.cfg.tau = 1.0
    basis = np.zeros((2, 16))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    e = dk.constant(basis)
    got = float(model.contrastive_loss(e, e, np.ones(2)).values)
    orth_err = abs(got - np.log(1.0 + np.exp(-1.0)))

    ok = single == 0.0 and log_b_err <= 1e-10 and orth_err <= 1e-10
    report_line(5, ok, f"batch-1 loss {single:.1e}, log-B err {log_b_err:.1e}, "
                       f"orthogonal-pair err {orth_err:.1e} (all <=1e-10)")


# ---------------------------------------------------------------------------
# criteria 6-9: trained-model trends on the golden corpus


def test_criterion_06_ablation_ordering(trained):
    full = mean_metric(trained, "full", "ctr", "auc")
    no_grca = mean_metric(trained, "no_grca", "ctr", "auc")
    no_gfsa = mean_metric(trained, "no_gfsa", "ctr", "auc")
    elapsed = trained["seconds"]
    ok = (full >= no_grca >= no_gfsa and full - no_gfsa >= 0.002
          and elapsed < 600.0)
    report_line(6, ok, f"mean test CTR AUC full {full:.4f} >= no_grca "
                       f"{no_grca:.4f} >= no_gfsa {no_gfsa:.4f}, margin "
                       f"{full - no_gfsa:.4f} (>=0.002), {len(trained['cells'])} cells "
                       f"{elapsed:.0f} CPU s (< 600 s)")


def test_criterion_07_gate_beats_average(trained):
    full = mean_metric(trained, "full", "ctcvr", "gauc")
    avg = mean_metric(trained, "avg_fusion", "ctcvr", "gauc")
    ok = full - avg >= 0.002
    report_line(7, ok, f"mean test CTCVR GAUC full {full:.4f} vs avg_fusion "
                       f"{avg:.4f}, margin {full - avg:.4f} (>=0.002)")


def test_criterion_08_gate_age_trend(trained):
    gate = trained["cells"][("full", GOLDEN_SEED)]["gate"]
    gap = gate["new"]["mean"] - gate["popular"]["mean"]
    means = [r["mean_w"] for r in gate["age_curve"] if r["mean_w"] is not None]
    good_bins = 1 + sum(means[i] <= means[i - 1] + 1e-12
                        for i in range(1, len(means)))
    ok = gap >= 0.15 and good_bins >= 4
    report_line(8, ok, f"gate mean new-popular gap {gap:.3f} (>=0.15), "
                       f"non-increasing in {good_bins}/{len(means)} age bins "
                       f"(>=4), curve {['%.3f' % m for m in means]}")


def test_criterion_09_alignment_effect(trained):
    with_cl = trained["cells"][("full", GOLDEN_SEED)]["alignment"]["mean_paired_cosine"]
    without = trained["cells"][("no_grca", GOLDEN_SEED)]["alignment"]["mean_paired_cosine"]
    ok = with_cl - without >= 0.05
    report_line(9, ok, f"alignment with contrastive term {with_cl:.3f} vs "
                       f"without {without:.3f}, gap {with_cl - without:.3f} (>=0.05)")


# ---------------------------------------------------------------------------
# criterion 10: pipeline determinism


PIPELINE_CFG = """
n_users=40
n_items=150
n_impressions=2500
n_days=10
content_dim=16
n_topics=4
l_max=8
factor_dim=8
factor_clusters=6
rq_latent_dim=8
rq_levels=3
rq_codes=8
rq_hidden=16
rq_epochs=3
d_token=8
d_user=8
attn_dim=8
gate_hidden=8
head_hidden1=32
head_hidden2=16
epochs=1
batch_size=256
"""


def _run_pipeline(root):
    root.mkdir(parents=True, exist_ok=True)
    cfgfile = root / "run.cfg"
    paths = {k: str(root / v) for k, v in
             [("corpus_dir", "corpus"), ("codebook_path", "codebook.rqv"),
              ("sid_table_path", "sids.csv"), ("model_path", "model.ckpt"),
              ("report_path", "report.json")]}
    cfgfile.write_text(PIPELINE_CFG
                       + "".join(f"{k}={v}\n" for k, v in paths.items()))
    for cmd in ("gen-data", "train-rqvae", "encode-sids", "train", "eval"):
        code = cli.main([cmd, "--config", str(cfgfile), "--seed", "13"])
        assert code == 0, cmd
    digests = {}
    for name in sorted(paths.keys() - {"corpus_dir"}):
        with open(paths[name], "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_criterion_10_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    same = [k for k in first if first[k] == second[k]]
    ok = first == second
    report_line(10, ok, f"bitwise-identical artifacts across reruns: "
                        f"{len(same)}/{len(first)} "
                        f"(codebook, SID table, checkpoint, report with its gate "
                        f"curve)")
