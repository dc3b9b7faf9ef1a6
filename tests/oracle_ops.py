"""Tape ops that only the tests use, built on diffkernel's recording
helpers: the scalar sum and the elementwise product that test losses are
made of, the bias op that ``diffkernel.linear`` absorbed, kept as the
reference of its one-part call, the concatenation that ``linear``'s parts
and the model's one SID token table replaced, kept as the reference of
both, and the dense InfoNCE composition that
``diffkernel.info_nce`` replaced, kept as its reference implementation,
and the gather whose output carries no recipe, so its consumers save the
gathered copy, as they all did before ``diffkernel.gather_rows`` carried one.
Like diffkernel's ops, each backward closure holds its inputs' slots and
the arrays it reads, never a Tensor. The composition's three ops
(cosine_matrix, softmax_diag, tlog) each hold an (N, N) array. Also the
out-of-place AdamW update, the reference for ``AdamW.step``'s in-place
one."""

import numpy as np

import gatesid.diffkernel as dk
from gatesid.diffkernel.tensor import _accum, _check_finite, _check_rows, _make


def mul(a, b):
    if a.shape != b.shape:
        raise dk.ShapeError("mul", a.shape, b.shape)

    sa, sb, av, bv = a.slot, b.slot, a.values, b.values

    def bw(g):
        _accum(sa, g * bv)
        _accum(sb, g * av)

    return _make(a.values * b.values, (a, b), bw)


def tsum(x):
    sx = x.slot

    def bw(g):
        _accum(sx, np.full(sx.shape, float(g)))

    return _make(np.asarray(x.values.sum()), (x,), bw)


def add_bias(x, b):
    """x + b broadcasting b over all leading axes of x."""
    if b.values.ndim != 1 or x.shape[-1] != b.shape[0]:
        raise dk.ShapeError("add_bias", x.shape, b.shape)

    sx, sb = x.slot, b.slot

    def bw(g):
        _accum(sx, g)
        _accum(sb, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _make(x.values + b.values, (x, b), bw)


def concat(parts):
    """Concatenation along the last axis; the leading shapes must agree."""
    parts = list(parts)
    lead = parts[0].shape[:-1]
    if any(p.shape[:-1] != lead for p in parts):
        raise dk.ShapeError("concat", *[p.shape for p in parts])
    offs = np.cumsum([0] + [p.shape[-1] for p in parts])
    slots = [p.slot for p in parts]

    def bw(g):
        for sp, lo, hi in zip(slots, offs[:-1], offs[1:]):
            _accum(sp, g[..., lo:hi])

    return _make(np.concatenate([p.values for p in parts], axis=-1), parts, bw)


def gather_rows(table, idx):
    """table[idx] for a 2-D table, without a recipe: the reference for
    ``diffkernel.gather_rows``."""
    if table.values.ndim != 2:
        raise dk.ShapeError("gather_rows", table.shape)
    idx = np.asarray(idx)
    _check_rows("gather_rows", idx, table.shape[0])
    st = table.slot

    def bw(g):
        _accum(st, dk.scatter_rows(st.shape[0], idx, g))

    return _make(table.values[idx], (table,), bw)


def cosine_matrix(a, b):
    """Pairwise cosine similarities: a (N,d), b (M,d) -> (N,M)."""
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise dk.ShapeError("cosine_matrix", a.shape, b.shape)
    na = np.linalg.norm(a.values, axis=1, keepdims=True)
    nb = np.linalg.norm(b.values, axis=1, keepdims=True)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine_matrix: zero-norm embedding")
    an = a.values / na
    bn = b.values / nb
    sa, sb = a.slot, b.slot

    def bw(g):
        gan = g @ bn
        gbn = g.T @ an
        _accum(sa, (gan - (gan * an).sum(axis=1, keepdims=True) * an) / na)
        _accum(sb, (gbn - (gbn * bn).sum(axis=1, keepdims=True) * bn) / nb)

    return _make(an @ bn.T, (a, b), bw)


def softmax_diag(x):
    """Diagonal of ``row_softmax(x)`` for a square x: (N,N) -> (N,)."""
    if x.values.ndim != 2 or x.shape[0] != x.shape[1]:
        raise dk.ShapeError("softmax_diag", x.shape)
    _check_finite("softmax_diag", x)
    e = np.exp(x.values - np.max(x.values, axis=1, keepdims=True))
    s = np.divide(e, e.sum(axis=1, keepdims=True), out=e)
    d = np.diagonal(s).copy()
    sx = x.slot

    def bw(g):
        gd = g + 0.0
        inner = gd * d + 0.0
        gx = s * (0.0 - inner)[:, None]
        np.fill_diagonal(gx, d * (gd - inner))
        _accum(sx, gx)

    return _make(d, (x,), bw)


def tlog(x):
    if np.any(x.values <= 0):
        raise ValueError("log: input must be strictly positive")
    sx, xv = x.slot, x.values

    def bw(g):
        _accum(sx, g / xv)

    return _make(np.log(x.values), (x,), bw)


def composed_info_nce(a, b, w, tau):
    """sum_i w[i] * -log softmax(cos(a, b) / tau)[i, i], as the model composed
    it before the fused kernel."""
    sims = dk.affine(cosine_matrix(a, b), 1.0 / tau)
    ell = dk.affine(tlog(softmax_diag(sims)), -1.0)
    return tsum(mul(ell, dk.constant(w)))


def adamw_step(values, grad, m, v, t, lr, b1, b2, eps, weight_decay):
    """One AdamW update of a parameter, out of place, as ``AdamW.step`` ran
    it before it worked in place; returns the new (values, m, v)."""
    values = values.copy()
    if weight_decay:
        values *= 1.0 - lr * weight_decay
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    values -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values, m, v
