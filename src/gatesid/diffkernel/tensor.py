"""Dense float64 tensors with reverse-mode autodiff on an explicit tape.

Each Tensor keeps its gradient in a separate ``Slot`` (grad, shape,
requires_grad). Ops record ``(output slot, backward closure)`` on the
currently active Tape, and a closure holds its inputs' slots plus only the
arrays its backward reads, never a Tensor. So the tape holds gradient
slots, not values: an op output's values die with their last reference
unless some backward reads them. ``backward(loss, tape)`` replays the tape
in reverse, once, and accumulates gradients into every ``requires_grad``
leaf. It drops each closure as it runs it, so the arrays an op saved die as
soon as its gradient is done; a consumed tape takes no second backward. The
tape is rebuilt for every forward pass -- there is no graph caching.
Gradients are owned, not copied (see ``_accum``), and ``backward`` frees
each op output's gradient once its op has consumed it: after ``backward``
only leaves keep ``.grad``.

A ``gather_rows`` output carries its recipe ``(table values, idx)``, and
``reshape`` passes it on. An op that saves an input for its backward
(``linear``'s and ``add_rows``' linear term, ``attention_scores``' query)
saves a gathered input's recipe instead of its values, and the backward
gathers the rows again. Contract: a table that a recipe reads must not
change between a forward pass and its backward. ``AdamW.step`` runs after
``backward``, and the test suite's finite-difference checker
(``tests/oracle_ops.py``) takes its analytic gradients before it perturbs
anything.
"""

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes do not conform for an op."""

    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {', '.join(str(s) for s in shapes)}")


class NonFiniteError(ValueError):
    def __init__(self, op):
        super().__init__(f"{op}: non-finite input")


class Tape:
    """Ordered record of backward closures for one forward pass."""

    _active = None

    def __init__(self):
        self._ops = []  # list of (out_slot, closure(grad))

    def __enter__(self):
        if Tape._active is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None
        return False


class Slot:
    """A tensor's gradient, apart from its values: what the tape and the
    backward closures hold."""

    __slots__ = ("grad", "shape", "requires_grad")

    def __init__(self, shape, requires_grad):
        self.grad = None
        self.shape = shape
        self.requires_grad = requires_grad


class Tensor:
    """Row-major float64 array with a gradient slot."""

    __slots__ = ("values", "slot", "recipe")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.slot = Slot(self.values.shape, bool(requires_grad))
        self.recipe = None  # (table values, idx): a gather's output, or a view of one

    @property
    def shape(self):
        return self.values.shape

    @property
    def requires_grad(self):
        return self.slot.requires_grad

    @property
    def grad(self):
        return self.slot.grad

    @grad.setter
    def grad(self, g):
        self.slot.grad = g

    def zero_grad(self):
        self.slot.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def constant(values):
    return Tensor(values, requires_grad=False)


def glorot(rng, fan_in, fan_out):
    """Trainable (fan_in, fan_out) weight, normal with Glorot scale, drawn from ``rng``."""
    s = np.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, s, size=(fan_in, fan_out)), requires_grad=True)


def _accum(slot, g):
    """Add gradient ``g`` into ``slot.grad``. Ownership rule: an op hands each
    input a ``g`` that nothing else holds (a fresh array, or a view of one
    that no other input shares), so a first ``g`` of the slot's shape becomes
    ``slot.grad`` itself; ``+ 0.0`` in place turns -0.0 into +0.0 as a copy would."""
    if not slot.requires_grad:
        return
    if slot.grad is not None:
        slot.grad += g
    elif isinstance(g, np.ndarray) and g.dtype == np.float64 and g.shape == slot.shape:
        slot.grad = np.add(g, 0.0, out=g)
    else:
        slot.grad = np.add(g, 0.0, out=np.empty(slot.shape))


def _make(values, inputs, backward_fn):
    """Wrap an op's output; record its slot and ``backward_fn`` on the active
    tape. ``backward_fn`` must reach its inputs through their slots and the
    arrays its backward reads, never through a Tensor, so that no output's
    values outlive their last use."""
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    tape = Tape._active
    if out.slot.requires_grad and tape is not None:
        tape._ops.append((out.slot, backward_fn))
    return out


def _saved(t):
    """What a backward keeps of t's values: its gather recipe, if it has one."""
    return t.values if t.recipe is None else t.recipe


def _restore(saved, shape):
    """The values ``_saved`` kept, viewed as ``shape``: a recipe is gathered again."""
    values = saved if isinstance(saved, np.ndarray) else saved[0][saved[1]]
    return values.reshape(shape)


def _check_finite(op, t):
    if not np.all(np.isfinite(t.values)):
        raise NonFiniteError(op)


# ---------------------------------------------------------------------------
# elementwise / arithmetic


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError("add", a.shape, b.shape)

    sa, sb = a.slot, b.slot

    def bw(g):
        _accum(sa, g)
        _accum(sb, g + 0.0)  # its own array: a may have adopted g

    return _make(a.values + b.values, (a, b), bw)


def sub(a, b):
    if a.shape != b.shape:
        raise ShapeError("sub", a.shape, b.shape)

    sa, sb = a.slot, b.slot

    def bw(g):
        _accum(sa, g)
        _accum(sb, -g)

    return _make(a.values - b.values, (a, b), bw)


def affine(x, scale=1.0, shift=0.0):
    """scale * x + shift, with float constants."""

    sx = x.slot

    def bw(g):
        _accum(sx, scale * g)

    return _make(scale * x.values + shift, (x,), bw)


def square(x):
    sx, xv = x.slot, x.values

    def bw(g):
        _accum(sx, 2.0 * g * xv)

    return _make(x.values * x.values, (x,), bw)


def sigmoid(x):
    _check_finite("sigmoid", x)
    z = np.exp(-np.abs(x.values))
    v = np.where(x.values >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    sx = x.slot

    def bw(g):
        _accum(sx, g * v * (1.0 - v))

    return _make(v, (x,), bw)


def relu(x):
    """max(x, 0), NaN to 0; the backward reads the output: out > 0 iff x > 0."""
    out, sx = np.where(x.values > 0, x.values, 0.0), x.slot

    def bw(g):  # g is relu's own (see _accum): masked in place
        _accum(sx, np.multiply(g, out > 0, out=g))

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra


def _linear_parts(parts, w, b):
    """linear's part list and its row offsets into w, after linear's shape checks."""
    parts = [parts] if isinstance(parts, Tensor) else list(parts)
    offs = np.cumsum([0] + [p.shape[-1] for p in parts])
    lead = parts[0].shape[:-1]
    if (w.values.ndim != 2 or not lead or offs[-1] != w.shape[0]
            or any(p.shape[:-1] != lead for p in parts)
            or (b is not None and b.shape != w.shape[1:])):
        raise ShapeError("linear", *[p.shape for p in parts], w.shape,
                         None if b is None else b.shape)
    return parts, offs


def _linear_values(parts, offs, w, b, rows=slice(None)):
    """concat(parts)[rows] @ w (+ b): one product per part, summed in part
    order into the first, so the concatenation is never built."""
    wv = w.values
    out = np.matmul(parts[0].values[rows], wv[offs[0]:offs[1]])
    for p, lo, hi in zip(parts[1:], offs[1:], offs[2:]):
        out += np.matmul(p.values[rows], wv[lo:hi])
    if b is not None:
        out += b.values
    return out


def _linear_backward(parts, offs, w, b):
    """linear's backward closure; it only reads g. The weight gradient is one
    array, one row block written per part, built before the parts' values
    (often the largest arrays saved) are dropped."""
    slots, saved = [p.slot for p in parts], [_saved(p) for p in parts]
    sw, sb, wv = w.slot, None if b is None else b.slot, w.values

    def bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        if sb is not None:
            _accum(sb, g2.sum(axis=0))
        if sw.requires_grad:
            gw = np.empty(sw.shape)
            # by index: a loop name bound to a part would keep it past clear()
            for i, (lo, hi) in enumerate(zip(offs, offs[1:])):
                np.matmul(_restore(saved[i], (-1, hi - lo)).T, g2, out=gw[lo:hi])
            _accum(sw, gw)
        saved.clear()
        for s, lo, hi in zip(slots, offs, offs[1:]):
            if s.requires_grad:
                _accum(s, np.matmul(g, wv[lo:hi].T))

    return bw


def linear(parts, w, b=None):
    """(parts joined on the last axis) @ w (+ b): part i multiplies its own
    block of w's rows, in part order, and w has exactly as many rows as the
    parts are wide together. A single Tensor is one part; the parts have
    ndim >= 2 and one leading shape, w is 2-D, b is optional.

    One product per part, summed in part order, so the concatenation is never
    built. Backward builds the weight gradient first, drops the parts'
    values, then builds the input gradient of each part that needs one.
    """
    parts, offs = _linear_parts(parts, w, b)
    return _make(_linear_values(parts, offs, w, b), parts + [w] + ([] if b is None else [b]),
                 _linear_backward(parts, offs, w, b))


def reshape(x, shape):
    """x viewed as ``shape``; the gradient is viewed back as x's shape."""
    sx = x.slot

    def bw(g):
        _accum(sx, g.reshape(sx.shape))

    out = _make(x.values.reshape(shape), (x,), bw)
    out.recipe = x.recipe
    return out


def _check_rows(op, idx, n_rows):
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise IndexError(f"{op}: index out of range for table with {n_rows} rows")


def scatter_rows(n_rows, idx, g):
    """Row-indexed sum: out[idx[i]] += g[i] for the rows i of g (idx.size, D).

    One bincount over idx * D + column; it adds in index order, as
    ``np.add.at`` does, so the two agree bitwise.
    """
    d = g.shape[-1]
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def gather_rows(table, idx):
    """table[idx] for a 2-D table and an integer index array of any shape."""
    if table.values.ndim != 2:
        raise ShapeError("gather_rows", table.shape)
    idx = np.asarray(idx)
    _check_rows("gather_rows", idx, table.shape[0])
    st = table.slot

    def bw(g):
        _accum(st, scatter_rows(st.shape[0], idx, g))

    out = _make(table.values[idx], (table,), bw)
    out.recipe = (table.values, idx)
    return out


def add_rows(x, t, pos, parts=(), w=None, b=None):
    """x + t[pos] for x (B, D), t (V, D) and an integer index pos (B,): row i
    of x plus row pos[i] of t. With ``parts`` it also adds linear(parts, w,
    b), as add_rows(add(x, linear(parts, w, b)), t, pos) would, with the
    same checks and additions, the products summed in blocks of ``_BLOCK``
    rows. The output is the only (B, D) array built; the backward passes
    ``scatter_rows`` of g to t, g to the linear term's backward, then g to x.
    """
    pos = np.asarray(pos)
    inputs = [x, t]
    if parts:
        parts, offs = _linear_parts(parts, w, b)
        if x.shape != parts[0].shape[:-1] + w.shape[1:]:
            raise ShapeError("add_rows", x.shape, parts[0].shape[:-1] + w.shape[1:])
        inputs += parts + [w] + ([] if b is None else [b])
    if (x.values.ndim != 2 or t.values.ndim != 2 or x.shape[1] != t.shape[1]
            or pos.shape != x.shape[:1]):
        raise ShapeError("add_rows", x.shape, t.shape, pos.shape)
    _check_rows("add_rows", pos, t.shape[0])
    out = np.take(t.values, pos, axis=0)
    if not parts:
        out += x.values
    else:
        for lo in range(0, out.shape[0], _BLOCK):
            blk = slice(lo, lo + _BLOCK)
            part_sum = _linear_values(parts, offs, w, b, blk)
            part_sum += x.values[blk]
            out[blk] += part_sum
    sx, st = x.slot, t.slot
    linear_bw = _linear_backward(parts, offs, w, b) if parts else None

    def bw(g):
        _accum(st, scatter_rows(st.shape[0], pos, g))  # before x may adopt g
        if linear_bw is not None:
            linear_bw(g)
        _accum(sx, g)

    return _make(out, inputs, bw)


def take_column(x, j):
    if x.values.ndim != 2 or not (0 <= j < x.shape[1]):
        raise ShapeError("take_column", x.shape)

    sx = x.slot

    def bw(g):
        gx = np.zeros(sx.shape)
        gx[:, j] = g
        _accum(sx, gx)

    return _make(x.values[:, j], (x,), bw)


# ---------------------------------------------------------------------------
# reductions


def tmean(x):
    n, sx = x.values.size, x.slot

    def bw(g):
        _accum(sx, np.full(sx.shape, float(g) / n))

    return _make(np.asarray(x.values.mean()), (x,), bw)


# ---------------------------------------------------------------------------
# softmax / attention / similarity


def row_softmax(x, mask=None):
    """Softmax over the last axis of a 2-D input with max-subtraction.

    ``mask`` (boolean, True = keep) zeroes out positions via -inf logits;
    a fully masked row yields an all-zero row.
    """
    if x.values.ndim != 2:
        raise ShapeError("row_softmax", x.shape)
    _check_finite("row_softmax", x)
    shifted = x.values
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        if keep.shape != x.shape:
            raise ShapeError("row_softmax mask", x.shape, keep.shape)
        shifted = np.where(keep, shifted, -np.inf)
    m = np.max(shifted, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(shifted - m)
    denom = e.sum(axis=1, keepdims=True)
    s = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0)
    sx = x.slot

    def bw(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        _accum(sx, s * (g - inner))

    return _make(s, (x,), bw)


# Batch rows per block in the history kernels, whose block's gathered rows are
# (_BLOCK, L, D), so no per-slot array of the whole batch is ever built; and
# in add_rows' linear term, whose products are (_BLOCK, D).
_BLOCK = 64


def _indexed_dots(a, rows, idx):
    """out[b, l] = rows[idx[b, l]] . a[b] for a (B,D), rows (U,D), idx (B,L)."""
    out = np.empty(idx.shape + (1,))
    for lo in range(0, idx.shape[0], _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        np.matmul(rows[idx[blk]], a[blk, :, None], out=out[blk])
    return out[:, :, 0]


def _indexed_pool(s, rows, idx):
    """out[b] = sum_l s[b, l] * rows[idx[b, l]] for s (B,L), rows (U,D), idx (B,L)."""
    out = np.empty((idx.shape[0], 1, rows.shape[1]))
    for lo in range(0, idx.shape[0], _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        np.matmul(s[blk, None, :], rows[idx[blk]], out=out[blk])
    return out[:, 0]


def _scatter_outer(n_rows, idx, w, v):
    """Row-indexed sum of outer products: out[idx[b, l]] += w[b, l] * v[b]
    for w (B,L) and v (B,D) -> (n_rows, D).

    One bincount per column j, over the (B,L) products w * v[:, j]: every
    bin adds the same products in slot order as ``scatter_rows`` on the
    (B,L,D) products does, so the two agree bitwise. For a finite v, slots
    of weight ±0 (the pad slots) are left out: their products are ±0, and
    adding ±0 changes no bin sum, which starts at +0.0 and so is never -0.0.
    """
    w = w.ravel()
    keep = np.flatnonzero(w) if np.isfinite(v).all() else np.arange(w.size)
    flat, w, rows = idx.ravel()[keep], w[keep], keep // idx.shape[1]
    prod = np.empty(w.shape)
    out = np.empty((n_rows, v.shape[1]))
    for lo in range(0, v.shape[1], 16):  # contiguous columns gather faster; no (D, B) copy
        for j, col in enumerate(v[:, lo:lo + 16].T.copy(), lo):
            np.multiply(w, np.take(col, rows, out=prod), out=prod)
            out[:, j] = np.bincount(flat, weights=prod, minlength=n_rows)
    return out


def attention_scores(q, keys, idx):
    """Dot products with row-indexed keys: q (B,d), keys (U,d), idx (B,L)
    -> (B,L), out[b, l] = q[b] . keys[idx[b, l]]."""
    idx = np.asarray(idx)
    if (q.values.ndim != 2 or keys.values.ndim != 2 or q.shape[1] != keys.shape[1]
            or idx.ndim != 2 or idx.shape[0] != q.shape[0]):
        raise ShapeError("attention_scores", q.shape, keys.shape, idx.shape)
    _check_rows("attention_scores", idx, keys.shape[0])
    sq, sk, qs, kv = q.slot, keys.slot, _saved(q), keys.values

    def bw(g):
        _accum(sq, _indexed_pool(g, kv, idx))
        _accum(sk, _scatter_outer(kv.shape[0], idx, g, _restore(qs, sq.shape)))

    return _make(_indexed_dots(q.values, kv, idx), (q, keys), bw)


def attention_pool(s, rows, idx):
    """Weighted pooling of row-indexed values: s (B,L), rows (U,D), idx (B,L)
    -> (B,D), out[b] = sum_l s[b, l] * rows[idx[b, l]]."""
    idx = np.asarray(idx)
    if s.values.ndim != 2 or rows.values.ndim != 2 or idx.shape != s.shape:
        raise ShapeError("attention_pool", s.shape, rows.shape, idx.shape)
    _check_rows("attention_pool", idx, rows.shape[0])
    ss, sr, sv, rv = s.slot, rows.slot, s.values, rows.values

    def bw(g):
        _accum(ss, _indexed_dots(g, rv, idx))
        _accum(sr, _scatter_outer(rv.shape[0], idx, sv, g))

    return _make(_indexed_pool(sv, rv, idx), (s, rows), bw)


def scale_rows(s, w):
    """Row-wise scaling: s (B,L) scaled by w (B,1)."""
    if s.values.ndim != 2 or w.shape != (s.shape[0], 1):
        raise ShapeError("scale_rows", s.shape, w.shape)

    ss, sw, sv, wv = s.slot, w.slot, s.values, w.values

    def bw(g):
        _accum(ss, g * wv)
        _accum(sw, (g * sv).sum(axis=1, keepdims=True))

    return _make(s.values * w.values, (s, w), bw)


# Rows per score panel in info_nce: a panel is (_NCE_BLOCK, N), so no (N, N)
# array is ever built.
_NCE_BLOCK = 256


def _unit_norm_grad(g, xn, norm):
    """In place: d/d(x / norm) to d/dx by rows, (g - (g . xn) xn) / norm."""
    g -= (g * xn).sum(axis=1, keepdims=True) * xn
    g /= norm


def info_nce(a, b, w, tau):
    """Weighted in-batch InfoNCE of paired rows a, b (N,d) with constant
    weights w (N,): sum_i w[i] * -log softmax(cos(a, b) / tau)[i, i].

    Per row panel: the scores, their row softmax p, its diagonal, and
    d loss / d cos = w[i] / tau * (p[i, j] - [i == j]) pushed through the
    GEMMs, each panel's rows of a's gradient finished at once and its part
    of b's through one reused (N, d) buffer. The input gradients are done
    in the forward pass; the backward pass only scales them, in place.
    """
    w = np.asarray(w, dtype=np.float64)
    if a.values.ndim != 2 or a.shape != b.shape or w.shape != a.shape[:1]:
        raise ShapeError("info_nce", a.shape, b.shape, w.shape)
    for t in (a, b):
        _check_finite("info_nce", t)
    na, nb = (np.linalg.norm(t.values, axis=1, keepdims=True) for t in (a, b))
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("info_nce: zero-norm embedding")
    an, bn = a.values / na, b.values / nb
    c, diag = w / tau, np.empty(a.shape[0])
    ga, gb, panel = np.empty_like(an), np.zeros_like(bn), np.empty_like(bn)
    for lo in range(0, a.shape[0], _NCE_BLOCK):
        blk = slice(lo, lo + _NCE_BLOCK)
        p = an[blk] @ bn.T
        p *= 1.0 / tau
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        rows = np.arange(p.shape[0])
        diag[blk] = p[rows, lo + rows]
        p *= c[blk, None]
        p[rows, lo + rows] -= c[blk]
        _unit_norm_grad(np.matmul(p, bn, out=ga[blk]), an[blk], na[blk])
        gb += np.matmul(p.T, an[blk], out=panel)
        del p  # before the next panel is built
    if np.any(diag <= 0):
        raise ValueError("info_nce: a diagonal probability underflows to 0")
    for lo in range(0, a.shape[0], _NCE_BLOCK):
        blk = slice(lo, lo + _NCE_BLOCK)
        _unit_norm_grad(gb[blk], bn[blk], nb[blk])
    sa, sb = a.slot, b.slot

    def bw(g):  # nothing else holds ga and gb: scaled in place, then adopted
        _accum(sa, np.multiply(ga, g, out=ga))
        _accum(sb, np.multiply(gb, g, out=gb))

    return _make(np.asarray(((0.0 - np.log(diag)) * w).sum()), (a, b), bw)


def bce_with_logits(logits, labels):
    """Per-element binary cross entropy from logits; labels are constants."""
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError("bce_with_logits", logits.shape, y.shape)
    z = logits.values
    v = np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))
    sl = logits.slot

    def bw(g):
        zpos = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0 / (1.0 + zpos), zpos / (1.0 + zpos))
        _accum(sl, g * (p - y))

    return _make(v, (logits,), bw)


# ---------------------------------------------------------------------------
# backward driver


def backward(loss, tape):
    """Seed d(loss)/d(loss)=1 and replay ``tape`` in reverse, once.

    Each op output's gradient is taken out of its slot before the op's
    closure runs, so it is freed once consumed and only leaves keep
    ``.grad``. Each entry ``(slot, fn)`` becomes ``(slot, None)`` before
    ``fn`` runs, so an op's saved arrays die as soon as its gradient is
    done. The tape keeps one entry per recorded op; a second call on it
    raises ``RuntimeError``.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.values.shape}")
    ops = tape._ops
    if any(fn is None for _, fn in ops):
        raise RuntimeError("backward: the tape was consumed by an earlier backward")
    for slot, _ in ops:
        slot.grad = None
    loss.grad = np.ones_like(loss.values)
    for i in range(len(ops) - 1, -1, -1):
        slot, fn = ops[i]
        ops[i] = (slot, None)
        g, slot.grad = slot.grad, None
        if g is not None:
            fn(g)

