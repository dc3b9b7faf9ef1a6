"""Residual-quantized autoencoder over item content vectors.

An encoder MLP maps content vectors to a latent space; stacked codebooks
quantize the latent residually (each level encodes the residual left by
the previous one); the sum of selected codes is decoded back. The chosen
code indices form each item's hierarchical semantic ID.

Training recipe: MSE reconstruction + commitment loss with a
straight-through estimator past the quantizer, EMA codebook updates,
k-means initialization per level, and dead-code re-seeding. At levels 2+
code index 0 is pinned to the zero vector so the residual norm can never
increase across levels.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import diffkernel as dk


class DivergenceError(RuntimeError):
    pass


@dataclass
class RqVaeConfig:
    content_dim: int = 64
    latent_dim: int = 16        # reference scale: 64
    levels: int = 4
    codes_per_level: int = 64   # reference scale: 256
    hidden_dim: int = 32
    beta: float = 0.25          # commitment coefficient
    epochs: int = 10
    batch_size: int = 256
    lr: float = 1e-3
    ema_decay: float = 0.99
    kmeans_iters: int = 25


# ---------------------------------------------------------------------------
# nearest-code search and k-means


_ROW_CHUNK = 1024          # rows per GEMM block: extra memory is O(_ROW_CHUNK * K)
_RERANK_ELEMS = 1 << 17    # float64s per exact re-rank block (1 MiB)


def _gemm_slack(d, x_norm, c_norm):
    """Rounding bound of the GEMM distance |x|^2 - 2 x.c + |c|^2 of d-dim
    vectors of norms at most x_norm and c_norm: a code whose GEMM distance
    exceeds another's by more than this is strictly farther under the exact
    ``((x - c) ** 2).sum()`` too.

    With u = eps/2 and S = x_norm + c_norm, the three dot products move the
    GEMM distance by at most gamma_d*S^2 (gamma_d = d*u/(1 - d*u), in any
    summation order, FMA included) and its two additions by u*S^2 each; the
    exact formula rounds by at most (d + 2)*u*S^2 too. So each distance is
    within E = (d + 2)*eps*S^2 of the exact one, and 2*(d + 4)*eps*S^2 keeps
    4*eps*S^2 over 2E for the O(d^2 u^2) terms and the rounding of S (ample
    for d far below 1/sqrt(u) ~ 1e8); ``tiny`` covers underflow.
    """
    fin = np.finfo(np.float64)
    return 2 * (d + 4) * fin.eps * (x_norm + c_norm) ** 2 + fin.tiny


def nearest_code(x, codes):
    """Nearest row of ``codes`` (K, d) for each row of ``x`` (N, d) by squared
    Euclidean distance ``((x - c) ** 2).sum(-1)``, ties going to the lowest
    index.

    A GEMM shortlist, ``|x|^2 - 2 x.c + |c|^2`` over blocks of rows, picks
    the code; rows whose runner-up lies within ``_gemm_slack`` of the
    minimum are re-ranked with the exact formula. The result equals the
    argmin of the exact formula over all codes, bit for bit. NaN and inf
    distances fail the test and go to the exact path.

    Returns (indices (N,), squared distance to the chosen code (N,)).
    """
    n = x.shape[0]
    k, d = codes.shape
    cc = (codes * codes).sum(axis=1)
    c_max = np.sqrt(cc.max())  # the norm bound of every code
    step = max(1, _RERANK_ELEMS // (k * d))
    idx = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _ROW_CHUNK):
        xs = x[lo:lo + _ROW_CHUNK]
        xx = (xs * xs).sum(axis=1)
        dist = xs @ codes.T
        dist *= -2.0
        dist += xx[:, None]
        dist += cc
        rows = np.arange(xs.shape[0])
        best = dist.argmin(axis=1)
        first = dist[rows, best]
        dist[rows, best] = np.inf
        second = dist.min(axis=1)  # inf when K == 1
        ambiguous = np.flatnonzero(~(second - first > _gemm_slack(d, np.sqrt(xx), c_max)))
        for a in range(0, ambiguous.size, step):
            sel = ambiguous[a:a + step]
            exact = ((xs[sel, None, :] - codes[None, :, :]) ** 2).sum(axis=2)
            best[sel] = exact.argmin(axis=1)
        idx[lo:lo + xs.shape[0]] = best
    return idx, ((x - codes[idx]) ** 2).sum(axis=1)


def kmeans_fit(vectors, k, iters=25, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Empty clusters are re-seeded to the point farthest from its centroid,
    which keeps the within-cluster squared error non-increasing.
    """
    x = np.asarray(vectors, dtype=np.float64)
    # distinct rows as np.unique(x, axis=0) counts them, by one sort of whole
    # rows as bytes: + 0.0 makes -0.0 the bytes of +0.0, and a row with a NaN
    # equals no row
    nan = np.isnan(x).any(axis=1)
    rows = x[~nan]
    rows += 0.0
    n_distinct = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))).size
    n_distinct += int(nan.sum())
    if n_distinct < k:
        raise ValueError(f"kmeans_fit: need at least {k} distinct vectors, got {n_distinct}")
    rng = np.random.default_rng(seed)
    n, d = x.shape

    # k-means++ init. d2 is each point's exact squared distance
    # ((x - c) ** 2).sum() to its nearest centre so far. A new centre's GEMM
    # estimate settles every point that it leaves farther than d2 by more than
    # ``_gemm_slack``; only the rest take the exact formula, so d2 keeps the
    # bits of the exact minimum over all centres.
    xx = (x * x).sum(axis=1)
    xn = np.sqrt(xx)
    centroids = np.empty((k, d))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        c = centroids[j] = x[rng.choice(n, p=probs)]
        cc = c @ c
        est = x @ c
        est *= -2.0
        est += xx
        est += cc
        est -= _gemm_slack(d, xn, np.sqrt(cc))
        near = np.flatnonzero(~(est > d2))
        d2[near] = np.minimum(d2[near], ((x[near] - c) ** 2).sum(axis=1))

    for _ in range(iters):
        assign, dmin = nearest_code(x, centroids)
        # the points cluster by cluster, each cluster in index order
        xs = x[np.argsort(assign, kind="stable")]
        counts = np.bincount(assign, minlength=k)
        ends = np.cumsum(counts)
        for j, (lo, hi) in enumerate(zip(ends - counts, ends)):
            centroids[j] = xs[lo:hi].mean(axis=0) if hi > lo else x[dmin.argmax()]
    return centroids


# ---------------------------------------------------------------------------
# residual quantization


def rq_encode_batch(z, codebook):
    """Vectorized residual encode with the (L, K, d_z) codebook: z (N, d_z)
    -> (indices (N, L), residuals (N, L+1, d_z)).

    residuals[:, 0] is z itself; residuals[:, l] is what is left after
    subtracting the level-l code. Argmin ties break toward the lowest index.
    """
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    L, _, dz = codebook.shape
    indices = np.empty((n, L), dtype=np.int64)
    residuals = np.empty((n, L + 1, dz))
    r = z.copy()
    residuals[:, 0] = r
    for level, codes in enumerate(codebook):
        idx, _ = nearest_code(r, codes)
        indices[:, level] = idx
        r = r - codes[idx]
        residuals[:, level + 1] = r
    return indices, residuals


# ---------------------------------------------------------------------------
# autoencoder


def init_autoencoder(config, rng):
    """Two-layer relu MLPs for encoder and decoder."""
    c, h, z = config.content_dim, config.hidden_dim, config.latent_dim
    return {
        "enc.w1": dk.glorot(rng, c, h), "enc.b1": dk.Tensor(np.zeros(h), requires_grad=True),
        "enc.w2": dk.glorot(rng, h, z), "enc.b2": dk.Tensor(np.zeros(z), requires_grad=True),
        "dec.w1": dk.glorot(rng, z, h), "dec.b1": dk.Tensor(np.zeros(h), requires_grad=True),
        "dec.w2": dk.glorot(rng, h, c), "dec.b2": dk.Tensor(np.zeros(c), requires_grad=True),
    }


def mlp(params, name, x):
    """The two-layer relu MLP ``name`` ("enc" or "dec") applied to x."""
    h = dk.relu(dk.linear(x, params[name + ".w1"], params[name + ".b1"]))
    return dk.linear(h, params[name + ".w2"], params[name + ".b2"])


def encode_latents(params, contents, batch_size=1024):
    out = []
    for lo in range(0, contents.shape[0], batch_size):
        out.append(mlp(params, "enc", dk.constant(contents[lo:lo + batch_size])).values)
    return np.concatenate(out, axis=0)


# ---------------------------------------------------------------------------
# training


def _init_codebook(latents, config, seed):
    """Per-level k-means on the running residuals; index 0 at levels 2+ is
    the pinned zero code, so those levels get K-1 learned centroids. One
    nearest-code step per level picks codes as ``rq_encode_batch`` would; the
    next level fits the latents minus the running sum of the picked codes."""
    L, K, dz = config.levels, config.codes_per_level, config.latent_dim
    n = latents.shape[0]
    k_eff = K
    if n < 10 * K:
        k_eff = max(2, n // 10)
        warnings.warn(f"only {n} vectors for K={K}; k-means falls back to effective K={k_eff}")
    rng = np.random.default_rng([seed, 0x5EED])
    codes = np.zeros((L, K, dz))
    walk, chosen = latents, None  # walk: residual reduced one level at a time
    for level in range(L):
        r = latents if chosen is None else latents - chosen
        learned = k_eff if level == 0 else k_eff - 1
        offset = 0 if level == 0 else 1
        cents = kmeans_fit(r, learned, iters=config.kmeans_iters, seed=seed + level)
        codes[level, offset:offset + learned] = cents
        # any remaining slots: jittered random residuals so they stay distinct
        for j in range(offset + learned, K):
            codes[level, j] = r[rng.integers(r.shape[0])] + rng.normal(0, 1e-3, dz)
        idx, _ = nearest_code(walk, codes[level])
        picked = codes[level][idx]
        walk = walk - picked
        chosen = picked if chosen is None else chosen + picked
    return codes


def train_rqvae(content_vectors, config=None, seed=0):
    """Returns (autoencoder params, (L, K, d_z) codebook, per-epoch loss curve)."""
    config = config or RqVaeConfig()
    x = np.asarray(content_vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.content_dim:
        raise ValueError(f"train_rqvae: expected (N, {config.content_dim}) content matrix")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"train_rqvae: content row {bad[0]} is not finite "
                         f"({bad.size} non-finite rows)")
    rng = np.random.default_rng([seed, 0xC0DE])
    params = init_autoencoder(config, rng)
    opt = dk.AdamW(params, lr=config.lr)

    codebook = _init_codebook(encode_latents(params, x), config, seed)
    L, K = config.levels, config.codes_per_level
    ema_n = np.ones((L, K))
    ema_m = codebook.copy()

    curve = []
    n = x.shape[0]
    for epoch in range(config.epochs):
        order = np.random.default_rng([seed, 1000 + epoch]).permutation(n)
        epoch_loss = 0.0
        epoch_counts = np.zeros((L, K), dtype=np.int64)
        last_residuals = None
        for step, lo in enumerate(range(0, n, config.batch_size)):
            batch = x[order[lo:lo + config.batch_size]]
            with dk.Tape() as tape:
                z = mlp(params, "enc", dk.constant(batch))
                idx, residuals = rq_encode_batch(z.values, codebook)
                q = residuals[:, 0] - residuals[:, -1]  # sum of selected codes
                # straight-through: decoder sees q, gradient flows to z
                z_q = dk.add(z, dk.constant(q - z.values))
                x_hat = mlp(params, "dec", z_q)
                recon = dk.tmean(dk.square(dk.sub(x_hat, dk.constant(batch))))
                commit = dk.tmean(dk.square(dk.sub(z, dk.constant(q))))
                loss = dk.add(recon, dk.affine(commit, config.beta))
                if not np.isfinite(loss.values):
                    raise DivergenceError(f"train_rqvae: non-finite loss "
                                          f"at epoch {epoch} step {step}")
                dk.backward(loss, tape)
            opt.step()
            opt.zero_grad()
            epoch_loss += float(loss.values) * batch.shape[0]

            # EMA codebook update from assigned residual inputs
            for level in range(L):
                counts = np.bincount(idx[:, level], minlength=K).astype(np.float64)
                sums = dk.scatter_rows(K, idx[:, level], residuals[:, level])
                d = config.ema_decay
                ema_n[level] = d * ema_n[level] + (1 - d) * counts
                ema_m[level] = d * ema_m[level] + (1 - d) * sums
                start = 0 if level == 0 else 1  # keep pinned zero code frozen
                codebook[level, start:] = (
                    ema_m[level, start:] / np.maximum(ema_n[level, start:], 1e-8)[:, None]
                )
                epoch_counts[level] += counts.astype(np.int64)
            last_residuals = residuals

        # dead-code re-seeding from the last batch's residuals
        reseed_rng = np.random.default_rng([seed, 2000 + epoch])
        for level in range(L):
            start = 0 if level == 0 else 1
            for j in range(start, K):
                if epoch_counts[level, j] == 0:
                    pick = reseed_rng.integers(last_residuals.shape[0])
                    codebook[level, j] = (
                        last_residuals[pick, level] + reseed_rng.normal(0, 1e-4, config.latent_dim)
                    )
                    ema_n[level, j] = 1.0
                    ema_m[level, j] = codebook[level, j]
        curve.append(epoch_loss / n)

    return params, codebook, curve


def codebook_utilization(contents, params, codebook):
    idx, _ = rq_encode_batch(encode_latents(params, contents), codebook)
    return np.array([len(np.unique(col)) / codebook.shape[1] for col in idx.T])


def assign_sids(content_vectors, params, codebook):
    """One semantic ID per item, deterministic given trained artifacts."""
    x = np.asarray(content_vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params["enc.w1"].shape[0]:
        raise ValueError(f"assign_sids: content dimension mismatch, got {x.shape}")
    z = encode_latents(params, x)
    idx, _ = rq_encode_batch(z, codebook)
    return idx


# ---------------------------------------------------------------------------
# artifacts


def save_codebook(path, codebook, config, seed, params):
    """The (L, K, d_z) quantizer codes plus the trained autoencoder weights."""
    arrays = {"codes": codebook, **{"ae." + k: v.values for k, v in params.items()}}
    dk.save_arrays(path, arrays, {"beta": config.beta, "seed": seed})


def load_codebook(path):
    """Returns (codebook, autoencoder params) of a ``save_codebook`` file."""
    arrays, _ = dk.load_arrays(path)
    params = {k[3:]: dk.Tensor(v) for k, v in arrays.items() if k.startswith("ae.")}
    if not params:
        raise ValueError(f"codebook file {path} lacks encoder weights; "
                         "regenerate it with train-rqvae")
    return arrays["codes"], params


def save_sid_table(path, item_ids, sids):
    dk.write_csv(path, ["item_id", *(f"s{k+1}" for k in range(sids.shape[1]))], item_ids, sids)


def load_sid_table(path, n_items, n_codes):
    """The (n_items + 1, L) SID table of a ``save_sid_table`` file, row i
    for item i and row 0, the pad id, zeros. The file must hold items
    1..n_items, one line each, with codes in [0, n_codes)."""
    _, data = dk.read_csv(path, np.int64)
    item_ids, sids = data[:, 0], data[:, 1:]
    ids, counts = np.unique(item_ids, return_counts=True)
    bad = {"out-of-range": ids[(ids < 1) | (ids > n_items)],
           "duplicate": ids[counts > 1],
           "missing": np.setdiff1d(np.arange(1, n_items + 1), ids)}
    for what, found in bad.items():
        if found.size:
            raise ValueError(f"{path}: {what} item ids {found[:5].tolist()} "
                             f"(the corpus has items 1..{n_items}, one row each)")
    bad_code = ((sids < 0) | (sids >= n_codes)).any(axis=1)
    if bad_code.any():
        raise ValueError(f"{path}: SID codes outside [0, {n_codes}) at item ids "
                         f"{np.sort(item_ids[bad_code])[:5].tolist()}")
    table = np.zeros((n_items + 1, sids.shape[1]), dtype=np.int64)
    table[item_ids] = sids
    return table
