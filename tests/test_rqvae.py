"""Nearest-code search, k-means, residual quantization identities, quantizer
training and the codebook / SID-table artifacts."""

import tracemalloc

import numpy as np
import pytest

from gatesid import diffkernel as dk
from gatesid import rqvae


# ---------------------------------------------------------------------------
# nearest-code search


def broadcast_nearest(x, codes):
    """Oracle: the dense (N, K, d) squared distances, argmin to the lowest index."""
    d = ((x[:, None, :] - codes[None, :, :]) ** 2).sum(axis=2)
    idx = d.argmin(axis=1)
    return idx, d[np.arange(x.shape[0]), idx]


NEAREST_CASES = ["random", "exact-hits", "duplicate-codes", "near-ties-1ulp",
                 "offset-1e6", "many-chunks", "k1", "d1"]


def _nearest_case(name):
    rng = np.random.default_rng(NEAREST_CASES.index(name))
    if name == "random":
        return rng.normal(size=(300, 16)), rng.normal(size=(40, 16))
    if name == "exact-hits":
        codes = rng.normal(size=(50, 8))
        return codes[rng.integers(50, size=200)], codes
    if name == "duplicate-codes":
        codes = rng.normal(size=(30, 8))
        codes = np.concatenate([codes, codes])[rng.permutation(60)]
        x = np.concatenate([codes[:20], rng.normal(size=(100, 8))])
        return x, codes
    if name == "near-ties-1ulp":
        # each code next to a copy one ulp away, the nudged copy first; the
        # points sit within 1e-12 of them, far below the GEMM's resolution
        base = rng.normal(size=(32, 8))
        codes = np.empty((64, 8))
        codes[0::2] = np.nextafter(base, np.inf)
        codes[1::2] = base
        x = codes[rng.integers(64, size=400)] + 1e-12 * rng.normal(size=(400, 8))
        return x, codes
    if name == "offset-1e6":
        # |x|^2 and |c|^2 ~ 1e13 cancel in the GEMM; every row is ambiguous
        return (1e6 + 1e-6 * rng.normal(size=(200, 16)),
                1e6 + 1e-6 * rng.normal(size=(24, 16)))
    if name == "many-chunks":
        n = 2 * rqvae._ROW_CHUNK + 37
        return rng.normal(size=(n, 6)), rng.normal(size=(20, 6))
    if name == "k1":
        return rng.normal(size=(50, 5)), rng.normal(size=(1, 5))
    if name == "d1":
        return rng.normal(size=(80, 1)), rng.normal(size=(9, 1))
    raise KeyError(name)


@pytest.mark.parametrize("case", NEAREST_CASES)
def test_nearest_code_matches_broadcast_oracle(case):
    x, codes = _nearest_case(case)
    idx, dist = rqvae.nearest_code(x, codes)
    want_idx, want_dist = broadcast_nearest(x, codes)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(dist.view(np.int64), want_dist.view(np.int64))  # bitwise

    # residual encode through two levels against the level-by-level oracle
    cb = np.stack([codes, codes[::-1]])
    enc_idx, res = rqvae.rq_encode_batch(x, cb)
    r = x.copy()
    for level in range(len(cb)):
        best, _ = broadcast_nearest(r, cb[level])
        assert np.array_equal(enc_idx[:, level], best)
        r = r - cb[level][best]
        assert np.array_equal(res[:, level + 1].view(np.int64), r.view(np.int64))


@pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (1e6, 1e-6)],
                         ids=["random", "all-ambiguous"])
def test_nearest_code_memory_bound(offset, spread):
    # the dense (N, K, d) tensor would take 5000 * 256 * 64 * 8 B = 655 MB
    rng = np.random.default_rng(17)
    x = offset + spread * rng.normal(size=(5000, 64))
    codes = offset + spread * rng.normal(size=(256, 64))
    tracemalloc.start()
    try:
        rqvae.nearest_code(x, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_exact_cover():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    cents = rqvae.kmeans_fit(pts, 4, iters=10, seed=0)
    # with N == K every point becomes its own centroid
    assert rqvae.nearest_code(pts, cents)[1].sum() == pytest.approx(0.0, abs=1e-12)
    got = {tuple(c) for c in cents}
    assert got == {tuple(p) for p in pts}


def test_kmeans_two_separated_clusters():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 0.0], [10.2, 0.0]])
    cents = rqvae.kmeans_fit(pts, 2, iters=10, seed=1)
    got = sorted(cents.tolist())
    assert got[0] == pytest.approx([0.1, 0.0])
    assert got[1] == pytest.approx([10.1, 0.0])


def test_kmeans_beats_random_assignment_baseline():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(100, 5))
    cents = rqvae.kmeans_fit(pts, 8, iters=25, seed=7)
    # baseline: centroids are the means of a random 8-way partition
    assign = rng.integers(0, 8, size=100)
    base = np.stack([pts[assign == j].mean(axis=0) for j in range(8)])
    assert rqvae.nearest_code(pts, cents)[1].sum() <= rqvae.nearest_code(pts, base)[1].sum()


def kmeans_fit_oracle(vectors, k, iters=25, seed=0):
    """The plain k-means loop that ``rqvae.kmeans_fit`` must match bit for
    bit: exact distances to every new k-means++ centre, and each centroid as
    the mean of a boolean-mask selection."""
    x = np.asarray(vectors, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(x.shape[0])]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(x.shape[0], 1.0 / x.shape[0])
        centroids[j] = x[rng.choice(x.shape[0], p=probs)]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))
    for _ in range(iters):
        assign, dmin = rqvae.nearest_code(x, centroids)
        for j in range(k):
            members = x[assign == j]
            if members.shape[0] == 0:
                centroids[j] = x[dmin.argmax()]
            else:
                centroids[j] = members.mean(axis=0)
    return centroids


KMEANS_CASES = ["random", "duplicated-rows", "equidistant-ties", "d1", "magnitudes",
                "offset-1e6", "k-equals-distinct", "many-chunks"]


def _kmeans_case(name):
    """(points, k) for one case of the oracle comparison."""
    rng = np.random.default_rng(100 + KMEANS_CASES.index(name))
    if name == "random":
        return rng.normal(size=(600, 16)), 32
    if name == "duplicated-rows":
        base = rng.normal(size=(40, 8))
        return base[rng.integers(40, size=500)], 24
    if name == "equidistant-ties":
        # integer grid points: many exact distance ties between centres
        return rng.integers(-3, 4, size=(400, 3)).astype(float), 20
    if name == "d1":
        return rng.normal(size=(300, 1)), 16
    if name == "magnitudes":
        # rows scaled by 1e-100 ... 1e100; squares stay finite and normal
        scale = 10.0 ** rng.integers(-100, 101, size=(500, 1))
        return scale * rng.normal(size=(500, 8)), 32
    if name == "offset-1e6":
        # |x|^2 and |c|^2 ~ 1e13 cancel in the GEMM estimate: no point is settled
        return 1e6 + 1e-6 * rng.normal(size=(300, 16)), 24
    if name == "k-equals-distinct":
        base = rng.normal(size=(30, 6))
        return base[np.concatenate([np.arange(30), rng.integers(30, size=90)])], 30
    if name == "many-chunks":
        return rng.normal(size=(2 * rqvae._ROW_CHUNK + 37, 4)), 48
    raise KeyError(name)


@pytest.mark.parametrize("case", KMEANS_CASES)
def test_kmeans_matches_loop_oracle_bitwise(case):
    x, k = _kmeans_case(case)
    for seed in (0, 1):
        got = rqvae.kmeans_fit(x, k, iters=4, seed=seed)
        want = kmeans_fit_oracle(x, k, iters=4, seed=seed)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed


def test_kmeans_needs_enough_distinct_points():
    pts = np.tile(np.array([[1.0, 2.0]]), (10, 1))
    with pytest.raises(ValueError):
        rqvae.kmeans_fit(pts, 3)


def _distinct_rows_case(name):
    rng = np.random.default_rng(7)
    if name == "duplicated-rows":
        base = rng.normal(size=(25, 5))
        return base[rng.integers(25, size=200)]
    if name == "signed-zeros":
        # -0.0 == 0.0 for np.unique; the rows differ only in their zero signs
        signs = rng.choice([-0.0, 0.0], size=(60, 4))
        first_one = signs.copy()
        first_one[:, 0] = 1.0
        return np.vstack([signs, first_one, np.eye(4)])
    if name == "nan-rows":
        # a row with a NaN equals no row, itself included
        x = rng.integers(0, 2, size=(50, 3)).astype(float)
        x[::7, 1] = np.nan
        return x
    raise KeyError(name)


@pytest.mark.parametrize("case", ["duplicated-rows", "signed-zeros", "nan-rows"])
def test_kmeans_counts_distinct_rows_as_unique_rows_does(case):
    x = _distinct_rows_case(case)
    n = np.unique(x, axis=0).shape[0]
    with pytest.raises(ValueError, match=f"need at least {n + 1} distinct vectors, got {n}$"):
        rqvae.kmeans_fit(x, n + 1)
    if not np.isnan(x).any():
        assert rqvae.kmeans_fit(x, n, iters=2).shape == (n, x.shape[1])  # K = distinct count


# ---------------------------------------------------------------------------
# residual encode / decode


def _random_codebook(seed=0, levels=3, k=6, dz=4):
    rng = np.random.default_rng(seed)
    codes = rng.normal(size=(levels, k, dz))
    codes[1:, 0] = 0.0  # pinned zero code at levels 2+
    return codes


def test_encode_exact_code_hits_zero_residual():
    cb = _random_codebook()
    idx, res = rqvae.rq_encode_batch(cb[0, 3][None, :], cb)
    idx, res = idx[0], res[0]
    assert idx[0] == 3
    assert np.all(idx[1:] == 0)  # later levels pick the pinned zero code
    assert np.linalg.norm(res[-1]) == pytest.approx(0.0, abs=1e-12)


def test_encode_matches_brute_force_scan():
    cb = _random_codebook(seed=5)
    rng = np.random.default_rng(11)
    z = rng.normal(size=(200, cb.shape[2]))
    idx, res = rqvae.rq_encode_batch(z, cb)
    r = z.copy()
    for level in range(len(cb)):
        best, _ = broadcast_nearest(r, cb[level])
        assert np.array_equal(idx[:, level], best)
        r = r - cb[level][best]
    assert np.abs(res[:, -1] - r).max() == 0.0


def test_encode_tie_breaks_to_lowest_index():
    codes = np.zeros((1, 3, 2))
    codes[0, 0] = [1.0, 0.0]
    codes[0, 1] = [-1.0, 0.0]
    codes[0, 2] = [0.0, 1.0]
    idx, _ = rqvae.rq_encode_batch(np.zeros((1, 2)), codes)  # equidistant from all three
    assert idx[0, 0] == 0
    near, dist = rqvae.nearest_code(np.zeros((1, 2)), codes[0])
    assert near[0] == 0 and dist[0] == 1.0


def test_decode_zero_codes_equals_level_one():
    # the decoded sum is residuals[0] - residuals[-1], as train_rqvae uses it
    cb = _random_codebook()
    idx, res = rqvae.rq_encode_batch(cb[0, 2][None, :], cb)
    assert idx[0].tolist() == [2, 0, 0]
    assert np.array_equal(res[0, 0] - res[0, -1], cb[0, 2])


def test_decode_plus_residual_recovers_input():
    cb = _random_codebook(seed=9)
    z = np.random.default_rng(13).normal(size=(20, cb.shape[2]))
    idx, res = rqvae.rq_encode_batch(z, cb)
    decoded = res[:, 0] - res[:, -1]
    picked = cb[np.arange(len(cb))[None, :], idx].sum(axis=1)
    assert decoded == pytest.approx(picked, abs=1e-12)
    assert decoded + res[:, -1] == pytest.approx(z, abs=1e-12)


def test_monotone_refinement_with_pinned_zero(small_corpus, small_rq):
    lat = rqvae.encode_latents(small_rq["params"], small_corpus.item_content)
    _, res = rqvae.rq_encode_batch(lat, small_rq["codebook"])
    norms = np.linalg.norm(res, axis=2)
    # the pinned zero code guarantees the residual never grows at levels 2+
    assert np.all(norms[:, 2:] <= norms[:, 1:-1] + 1e-12)


# ---------------------------------------------------------------------------
# training


def test_train_rqvae_loss_decreases(small_rq):
    curve = small_rq["curve"]
    assert curve[1] < curve[0]
    assert curve[2] < curve[1]


def test_train_rqvae_deterministic(small_corpus, small_rq):
    params2, cb2, curve2 = rqvae.train_rqvae(
        small_corpus.item_content, small_rq["config"], seed=3)
    assert np.array_equal(cb2, small_rq["codebook"])
    assert curve2 == small_rq["curve"]
    for k, p in small_rq["params"].items():
        assert np.array_equal(p.values, params2[k].values)


def test_train_rqvae_rejects_bad_shape():
    with pytest.raises(ValueError):
        rqvae.train_rqvae(np.zeros((10, 3)), rqvae.RqVaeConfig(content_dim=16))


def test_train_rqvae_rejects_non_finite_content():
    x = np.random.default_rng(2).normal(size=(50, 8))
    x[17, 3] = np.nan
    x[31, 0] = np.inf
    with pytest.raises(ValueError, match="content row 17 is not finite"):
        rqvae.train_rqvae(x, rqvae.RqVaeConfig(content_dim=8))


def test_train_rqvae_divergence_names_epoch_and_step(monkeypatch):
    real_mlp = rqvae.mlp
    calls = []

    def mlp(params, name, x):
        out = real_mlp(params, name, x)
        calls.append(name)
        return dk.affine(out, np.nan) if name == "dec" and calls.count("dec") == 3 else out

    monkeypatch.setattr(rqvae, "mlp", mlp)
    x = np.random.default_rng(2).normal(size=(200, 8))
    cfg = rqvae.RqVaeConfig(content_dim=8, latent_dim=4, levels=2, codes_per_level=4,
                            hidden_dim=8, epochs=2, batch_size=64, kmeans_iters=2)
    # 4 batches per epoch: the third decode is epoch 0, step 2
    with pytest.raises(rqvae.DivergenceError, match="non-finite loss at epoch 0 step 2"):
        rqvae.train_rqvae(x, cfg, seed=0)


def test_small_sample_falls_back_with_warning():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 8))
    cfg = rqvae.RqVaeConfig(content_dim=8, latent_dim=4, levels=2,
                            codes_per_level=16, hidden_dim=8, epochs=1)
    with pytest.warns(UserWarning, match="falls back"):
        rqvae.train_rqvae(x, cfg, seed=0)


def test_codebook_utilization_range(small_corpus, small_rq):
    util = rqvae.codebook_utilization(small_corpus.item_content,
                                      small_rq["params"], small_rq["codebook"])
    assert util.shape == (len(small_rq["codebook"]),)
    assert np.all(util > 0.0) and np.all(util <= 1.0)


# ---------------------------------------------------------------------------
# SID assignment


def test_assign_sids_row_count_and_determinism(small_corpus, small_rq):
    sids = small_rq["sids"]
    assert sids.shape == (small_corpus.n_items, len(small_rq["codebook"]))
    again = rqvae.assign_sids(small_corpus.item_content,
                              small_rq["params"], small_rq["codebook"])
    assert np.array_equal(sids, again)


def test_assign_sids_duplicates_identical(small_corpus, small_rq):
    x = np.tile(small_corpus.item_content[5:6], (3, 1))
    sids = rqvae.assign_sids(x, small_rq["params"], small_rq["codebook"])
    assert np.array_equal(sids[0], sids[1]) and np.array_equal(sids[0], sids[2])


def test_assign_sids_near_duplicates_share_first_level(small_corpus, small_rq):
    x = small_corpus.item_content[7]
    x2 = x + 1e-5 * np.random.default_rng(0).normal(size=x.shape)
    sids = rqvae.assign_sids(np.stack([x, x2]), small_rq["params"], small_rq["codebook"])
    assert sids[0, 0] == sids[1, 0]


def test_assign_sids_dimension_mismatch(small_rq):
    with pytest.raises(ValueError):
        rqvae.assign_sids(np.zeros((4, 99)), small_rq["params"], small_rq["codebook"])


# ---------------------------------------------------------------------------
# artifacts


def test_codebook_roundtrip_with_params(tmp_path, small_rq):
    path = str(tmp_path / "cb.rqv")
    rqvae.save_codebook(path, small_rq["codebook"], small_rq["config"], seed=3,
                        params=small_rq["params"])
    cb2, params2 = rqvae.load_codebook(path)
    assert np.array_equal(cb2, small_rq["codebook"])
    # the manifest records the codes' shape; the meta holds only what it lacks
    assert dk.load_arrays(path)[1] == {"beta": small_rq["config"].beta, "seed": 3}
    for k, p in small_rq["params"].items():
        assert np.array_equal(params2[k].values, p.values)
    # the reloaded encoder reproduces the same assignments
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, small_rq["config"].content_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    assert np.array_equal(
        rqvae.assign_sids(x, small_rq["params"], small_rq["codebook"]),
        rqvae.assign_sids(x, params2, cb2))


def test_load_codebook_requires_encoder_weights(tmp_path, small_rq):
    path = str(tmp_path / "cb.rqv")
    dk.save_arrays(path, {"codes": small_rq["codebook"]}, {"beta": 0.25, "seed": 3})
    with pytest.raises(ValueError, match="cb.rqv lacks encoder weights"):
        rqvae.load_codebook(path)


def test_sid_table_roundtrip(tmp_path, small_rq):
    path = str(tmp_path / "sids.csv")
    ids = np.arange(1, small_rq["sids"].shape[0] + 1)
    rqvae.save_sid_table(path, ids, small_rq["sids"])
    table = rqvae.load_sid_table(path, ids.size, small_rq["config"].codes_per_level,
                                 small_rq["config"].levels)
    assert table.dtype == np.int64 and table.shape == (ids.size + 1, 3)
    assert np.array_equal(table[1:], small_rq["sids"])
    assert not table[0].any()  # the pad id
