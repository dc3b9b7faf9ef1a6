"""Autodiff ops against finite differences, optimizer arithmetic, and the
checkpoint format."""

import os
import tracemalloc
import weakref

import numpy as np
import pytest

import gatesid.diffkernel as dk
import oracle_ops
from gatesid.diffkernel import tensor
from gatesid.diffkernel.checkpoint import atomic_write_text
from gatesid.diffkernel.optim import _STEP_BLOCK
from gatesid.diffkernel.tensor import _NCE_BLOCK
from gatesid.model import VARIANTS, GateSidModel, ModelConfig
from oracle_ops import (adamw_step, add_bias, composed_info_nce, concat, cosine_matrix,
                        grad_check, mul, softmax_diag, tlog, tsum)


RNG = np.random.default_rng(12345)


def fd_check(fn, arrays, tol=1e-6):
    """Finite-difference check of a scalar-valued tensor function."""
    params = {f"p{i}": dk.Tensor(a, requires_grad=True) for i, a in enumerate(arrays)}
    report = grad_check(lambda: fn(*params.values()), params, tolerance=tol)
    assert report["passed"], report


# ---------------------------------------------------------------------------
# elementwise ops


def test_add_sub_mul_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(3, 4))
    fd_check(lambda x, y: tsum(dk.add(x, y)), [a, b])
    fd_check(lambda x, y: tsum(dk.sub(x, y)), [a, b])
    fd_check(lambda x, y: tsum(mul(x, y)), [a, b])


def test_affine_square_neg_grads():
    a = RNG.normal(size=(4, 3))
    fd_check(lambda x: tsum(dk.affine(x, 2.5, -1.0)), [a])
    fd_check(lambda x: tsum(dk.square(x)), [a])


def test_exp_log_sigmoid_relu_grads():
    a = RNG.normal(size=(3, 3))
    pos = np.abs(a) + 0.5
    off = a + np.where(np.abs(a) < 0.05, 0.1, 0.0)  # stay away from the kink
    fd_check(lambda x: tsum(tlog(x)), [pos])
    fd_check(lambda x: tsum(dk.sigmoid(x)), [a])
    fd_check(lambda x: tsum(dk.relu(x)), [off])


def test_relu_matches_the_mask_formulation_on_edge_values():
    # relu's backward reads its output, out > 0, where it read the mask x > 0
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
                  [tiny, -tiny, 2.0 * tiny, 1e-310, 1.5, -1.5]])
    g = np.array([[1.0, -2.0, 3.0, -0.0, np.inf, -np.inf],
                  [np.inf, -0.0, -1.0, 2.0, -np.inf, 0.5]])
    mask = x > 0
    with np.errstate(invalid="ignore"):  # inf * 0 in both formulations
        y, (gx,) = run_op(dk.relu, [x], g)
        want = g * mask + 0.0
    assert same_bits(y, np.where(mask, x, 0.0))
    assert same_bits(gx, want)


def test_relu_backward_masks_its_own_gradient_in_place():
    # relu owns the gradient backward hands it (the _accum ownership rule),
    # so it masks that array and x adopts it; the bits are those of the
    # out-of-place g * (out > 0) on ±0.0, NaN and ±inf, in x and in g
    x = dk.Tensor(np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 2.0, -2.0]] * 4),
                  requires_grad=True)
    g = np.array([0.0, -0.0, np.nan, -np.inf, np.inf, 1.5, -1.5, -0.0])
    g = np.stack([g, np.roll(g, 1), np.roll(g, 3), -g[::-1]])
    with dk.Tape() as tape:
        y = dk.relu(x)
    (_, bw), = tape._ops
    own = g.copy()
    with np.errstate(invalid="ignore"):  # inf * 0, as in the out-of-place product
        want = g * (y.values > 0) + 0.0
        bw(own)
    assert x.grad is own
    assert same_bits(x.grad, want)


def test_sigmoid_zero_is_half():
    assert dk.sigmoid(dk.constant(np.zeros(3))).values == pytest.approx([0.5] * 3)


def test_square_grad_analytic():
    x = dk.Tensor(np.asarray(3.0), requires_grad=True)
    with dk.Tape() as tape:
        y = mul(x, x)
        dk.backward(y, tape)
    assert x.grad == pytest.approx(6.0)


def test_softmax_sum_grad_is_zero():
    x = dk.Tensor(RNG.normal(size=(2, 5)), requires_grad=True)
    with dk.Tape() as tape:
        y = tsum(dk.row_softmax(x))
        dk.backward(y, tape)
    assert np.abs(x.grad).max() < 1e-12


def test_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        tlog(dk.constant(np.array([1.0, 0.0])))


def test_nonfinite_input_rejected():
    bad = dk.constant(np.array([1.0, np.inf]))
    with pytest.raises(dk.NonFiniteError):
        dk.row_softmax(dk.constant(bad.values[None, :]))
    with pytest.raises(dk.NonFiniteError):
        dk.sigmoid(bad)


def test_shape_mismatch_rejected():
    a = dk.constant(np.zeros((2, 3)))
    for b in (dk.constant(np.zeros((3, 2))), dk.constant(np.asarray(0.5))):
        for op in (dk.add, dk.sub, mul):
            with pytest.raises(dk.ShapeError):
                op(a, b)  # no broadcasting, not even of a scalar


# ---------------------------------------------------------------------------
# linear algebra / indexing ops


# a matrix product is linear's one-part call without bias


def test_matmul_grads():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    c = RNG.normal(size=(2, 3, 4))
    fd_check(lambda x, y: tsum(dk.linear(x, y)), [a, b])
    fd_check(lambda x, y: tsum(dk.linear(x, y)), [c, b])


def test_matmul_shape_error():
    with pytest.raises(dk.ShapeError):
        dk.linear(dk.constant(np.zeros((2, 3))), dk.constant(np.zeros((2, 3))))


def _linear_run(fn, parts, ws, b, g, constant_part=None):
    """Output and the gradients of the parts, the weights ws and b of fn(parts, ws, b)."""
    leaves = [dk.constant(p) if i == constant_part else dk.Tensor(p, requires_grad=True)
              for i, p in enumerate(parts)]
    wts, bt = [dk.Tensor(w, requires_grad=True) for w in ws], dk.Tensor(b, requires_grad=True)
    with dk.Tape() as tape:
        y = fn(leaves, wts, bt)
        dk.backward(tsum(mul(y, dk.constant(g))), tape)
    return y.values, [t.grad for t in leaves + wts + [bt]]


# (constant part, two weights)
LINEAR_CASES = {"plain": (None, False), "constant-part": (1, False),
                "constant-first-part": (0, False), "two-weights": (None, True)}


@pytest.mark.parametrize("case", sorted(LINEAR_CASES))
def test_linear_parts_match_linear_of_concat(case):
    constant_part, split = LINEAR_CASES[case]
    rng = np.random.default_rng(len(case))
    parts = [rng.normal(size=(5, k)) for k in (3, 1, 4)]
    w = rng.normal(size=(8, 6))
    ws = [w[:3], w[3:]] if split else [w]  # the rows of the first part, of the rest
    b, g = rng.normal(size=6), rng.normal(size=(5, 6))

    def by_parts(ps, wts, bt):
        if not split:
            return dk.linear(ps, wts[0], bt)
        # the model's split of one layer: a weight per input block
        return dk.add(dk.linear(ps[:1], wts[0]), dk.linear(ps[1:], wts[1], bt))

    got, grads = _linear_run(by_parts, parts, ws, b, g, constant_part)
    want, want_grads = _linear_run(lambda ps, wts, bt: dk.linear(concat(ps), wts[0], bt),
                                   parts, [w], b, g, constant_part)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    grads[len(parts):-1] = [np.concatenate(grads[len(parts):-1])]  # w's rows, in order
    for i, (a, e) in enumerate(zip(grads, want_grads)):
        if i == constant_part:
            assert a is None and e is None
        else:
            np.testing.assert_allclose(a, e, rtol=0, atol=1e-12, err_msg=str(i))
    fd_check(lambda *ts: tsum(dk.square(by_parts(list(ts[:3]), list(ts[3:-1]), ts[-1]))),
             parts + ws + [b])


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_linear_one_part_is_bitwise_add_bias_of_matmul(shape):
    rng = np.random.default_rng(len(shape))
    x, w, b = rng.normal(size=shape), rng.normal(size=(4, 3)), rng.normal(size=3)
    g = rng.normal(size=shape[:-1] + (3,))
    g.flat[::4] = -0.0
    got, grads = _linear_run(lambda ps, wts, bt: dk.linear(ps[0], wts[0], bt), [x], [w], b, g)
    # the operations of a matmul op followed by an add_bias op, in numpy:
    # add_bias hands matmul its gradient after a first accumulation (+ 0.0)
    g2 = (g * 1.0 + 0.0).reshape(-1, 3)
    assert same_bits(got, np.matmul(x, w) + b)
    assert same_bits(grads[0], np.matmul(g2.reshape(g.shape), w.T) + 0.0)
    assert same_bits(grads[1], x.reshape(-1, 4).T @ g2 + 0.0)
    assert same_bits(grads[2], g2.sum(axis=0) + 0.0)


def test_linear_shape_errors():
    x, w, b = dk.constant(np.zeros((2, 3))), dk.constant(np.zeros((5, 4))), dk.constant(np.zeros(4))
    with pytest.raises(dk.ShapeError):
        dk.linear([x, dk.constant(np.zeros((3, 2)))], w, b)
    with pytest.raises(dk.ShapeError):
        dk.linear([x, dk.constant(np.zeros((2, 2)))], w, dk.constant(np.zeros(5)))
    with pytest.raises(dk.ShapeError):
        dk.linear([dk.constant(np.zeros(5))], w)


@pytest.mark.parametrize("widths", [(3,), (6,), (3, 1), (4, 2)], ids=[
    "one-part-narrower", "one-part-wider", "two-parts-narrower", "two-parts-wider"])
def test_linear_rejects_a_weight_whose_rows_are_not_the_parts_width(widths):
    # w (5, 4) has one row per input column: parts narrower or wider than
    # that, one part or several, are a ShapeError, not a window of w's rows
    w, b = dk.Tensor(np.zeros((5, 4)), requires_grad=True), dk.constant(np.zeros(4))
    with pytest.raises(dk.ShapeError):
        dk.linear([dk.Tensor(np.zeros((2, k)), requires_grad=True) for k in widths], w, b)


def test_linear_builds_no_gradient_for_a_constant_part():
    # the (n, d) gradient of the constant input x would be the largest array
    # of the backward pass; the trainable part z gets its (n, 1) gradient
    rng = np.random.default_rng(6)
    n, d, k = 4096, 128, 4
    x = dk.constant(rng.normal(size=(n, d)))
    z = dk.Tensor(rng.normal(size=(n, 1)), requires_grad=True)
    w, w2 = (dk.Tensor(rng.normal(size=(r, k)), requires_grad=True) for r in (d, d + 1))
    for op, leaves in ((lambda: dk.linear(x, w), [w]), (lambda: dk.linear([x, z], w2), [w2, z])):
        with dk.Tape() as tape:
            loss = dk.tmean(op())
            tracemalloc.start()
            try:
                dk.backward(loss, tape)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert x.grad is None and all(t.grad.shape == t.shape for t in leaves)
        assert peak < n * d * 8 // 4, f"peak {peak} B"


def test_add_bias_concat_grads():
    x = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=4)
    fd_check(lambda u, v: tsum(add_bias(u, v)), [x, b])
    p1 = RNG.normal(size=(3, 2))
    p2 = RNG.normal(size=(3, 5))
    fd_check(lambda u, v: tsum(mul(concat([u, v]), concat([u, v]))), [p1, p2])


def test_concat_shape_error():
    with pytest.raises(dk.ShapeError):
        concat([dk.constant(np.zeros((2, 3))), dk.constant(np.zeros((3, 3)))])


def test_gather_rows_grads_with_repeats():
    table = RNG.normal(size=(5, 3))
    idx = np.array([[0, 2], [2, 4]])
    fd_check(lambda t: tsum(dk.square(dk.gather_rows(t, idx))), [table])


def test_gather_rows_backward_equals_add_at_bitwise():
    table = dk.Tensor(RNG.normal(size=(6, 5)), requires_grad=True)
    idx = RNG.integers(0, 6, size=(40, 3))
    g = RNG.normal(size=(40, 3, 5))
    with dk.Tape() as tape:
        dk.backward(tsum(mul(dk.gather_rows(table, idx), dk.constant(g))), tape)
    want = np.zeros((6, 5))
    np.add.at(want, idx.ravel(), g.reshape(-1, 5))
    assert np.array_equal(table.grad, want)
    # the row sum itself, on strided views as the quantizer's EMA update passes them
    res, col = RNG.normal(size=(120, 2, 5)), RNG.integers(0, 6, size=(120, 2))
    want = np.zeros((6, 5))
    np.add.at(want, col[:, 1], res[:, 1])
    assert np.array_equal(dk.scatter_rows(6, col[:, 1], res[:, 1]).view(np.int64),
                          want.view(np.int64))


def test_gather_rows_out_of_range():
    with pytest.raises(IndexError):
        dk.gather_rows(dk.constant(np.zeros((3, 2))), np.array([3]))


def test_add_rows_grads_with_repeats():
    pos = np.array([2, 0, 2, 2, 1])
    fd_check(lambda x, t: tsum(dk.square(dk.add_rows(x, t, pos))),
             [RNG.normal(size=(5, 3)), RNG.normal(size=(3, 3))])


def test_add_rows_matches_add_of_gather_bitwise():
    x, t = RNG.normal(size=(40, 5)), RNG.normal(size=(7, 5))
    pos, g = RNG.integers(0, 7, size=40), RNG.normal(size=(40, 5))
    got, got_grads = run_op(dk.add_rows, [x, t], g, pos)
    want, want_grads = run_op(lambda a, b: dk.add(a, dk.gather_rows(b, pos)), [x, t], g)
    assert same_bits(got, want)
    assert all(same_bits(a, b) for a, b in zip(got_grads, want_grads))


def test_add_rows_builds_one_output_array():
    # x + gather_rows(t, pos) would also build the (B, D) gather
    x, t = RNG.normal(size=(4096, 128)), RNG.normal(size=(1700, 128))
    pos = RNG.integers(0, 1700, size=4096)
    tracemalloc.start()
    try:
        y = dk.add_rows(dk.constant(x), dk.constant(t), pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.values.nbytes + 2**16, f"peak {peak / 2**20:.2f} MiB"


def test_add_rows_shape_and_range_errors():
    x, t = dk.constant(np.zeros((3, 2))), dk.constant(np.zeros((2, 2)))
    with pytest.raises(dk.ShapeError):
        dk.add_rows(x, dk.constant(np.zeros((2, 3))), np.zeros(3, dtype=np.int64))
    with pytest.raises(dk.ShapeError):
        dk.add_rows(x, t, np.zeros(2, dtype=np.int64))
    with pytest.raises(IndexError):
        dk.add_rows(x, t, np.array([0, 2, 1]))


# add_rows with a linear term: the head's first layer summed in one array;
# case -> (part widths, constant part, bias)
ADD_ROWS_LINEAR_CASES = {"head": ((8, 16), 0, True), "one-part": ((5,), None, True),
                         "three-parts-no-bias": ((3, 1, 4), None, False)}


def _add_rows_linear_run(case, fused, b_rows=150, v=40, d=7):
    """Output and every input gradient of the fused op or of the chain
    add_rows(add(x, linear(parts, w, b)), t, pos) it replaces; more rows
    than one ``_BLOCK`` and a ragged last block."""
    widths, constant_part, with_bias = ADD_ROWS_LINEAR_CASES[case]
    rng = np.random.default_rng(len(case))
    x, t = rng.normal(size=(b_rows, d)), rng.normal(size=(v, d))
    parts = [rng.normal(size=(b_rows, k)) for k in widths]
    w, b = rng.normal(size=(sum(widths), d)), rng.normal(size=d)
    pos, g = rng.integers(0, v, size=b_rows), rng.normal(size=(b_rows, d))
    g.flat[::5] = -0.0
    leaves = [dk.Tensor(a, requires_grad=True) for a in (x, t, w, b)]
    lx, lt, lw, lb = leaves[0], leaves[1], leaves[2], leaves[3] if with_bias else None
    lp = [dk.constant(p) if i == constant_part else dk.Tensor(p, requires_grad=True)
          for i, p in enumerate(parts)]
    with dk.Tape() as tape:
        if fused:
            y = dk.add_rows(lx, lt, pos, lp, lw, lb)
        else:
            y = dk.add_rows(dk.add(lx, dk.linear(lp, lw, lb)), lt, pos)
        dk.backward(tsum(mul(y, dk.constant(g))), tape)
    bound = 4 * np.finfo(float).eps * (np.abs(x) + np.abs(t[pos]) + np.abs(b)
                                       + sum(np.abs(p) @ np.abs(w[lo:lo + p.shape[1]])
                                             for p, lo in zip(parts, np.cumsum([0, *widths]))))
    return y.values, [t.grad for t in leaves + lp], bound


@pytest.mark.parametrize("case", sorted(ADD_ROWS_LINEAR_CASES))
def test_add_rows_linear_term_matches_the_chain_it_replaces(case):
    # the backward runs the chain's operations on the same g: bitwise. The
    # forward adds in the chain's order, ((linear + x) + t[pos]), but its
    # products are taken per block of rows, where a BLAS may round a row
    # differently from the whole-array product: within a few ulp
    got, grads, bound = _add_rows_linear_run(case, fused=True)
    want, want_grads, _ = _add_rows_linear_run(case, fused=False)
    assert np.all(np.abs(got - want) <= bound)
    for a, e in zip(grads, want_grads):
        assert (a is None and e is None) or same_bits(a, e)
    widths, _, with_bias = ADD_ROWS_LINEAR_CASES[case]
    rng = np.random.default_rng(3)
    pos = np.array([2, 0, 2, 2, 1])
    arrays = [rng.normal(size=s) for s in [(5, 3), (3, 3)] + [(5, k) for k in widths]
              + [(sum(widths), 3)] + ([(3,)] if with_bias else [])]
    n = len(widths)
    fd_check(lambda x, t, *r: tsum(dk.square(dk.add_rows(x, t, pos, list(r[:n]), r[n],
                                                         r[n + 1] if with_bias else None))),
             arrays)


def test_add_rows_linear_term_builds_one_output_array():
    # the chain built the (B, D) linear term and the (B, D) sum as well; the
    # fused op builds its output and one block of products at a time
    rng = np.random.default_rng(4)
    b_rows, v, d = 4096, 1700, 128
    x, t = dk.constant(rng.normal(size=(b_rows, d))), dk.constant(rng.normal(size=(v, d)))
    parts = [dk.constant(rng.normal(size=(b_rows, k))) for k in (8, 16)]
    w, b = dk.constant(rng.normal(size=(24, d))), dk.constant(rng.normal(size=d))
    pos = rng.integers(0, v, size=b_rows)
    tracemalloc.start()
    try:
        y = dk.add_rows(x, t, pos, parts, w, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < y.values.nbytes + 2**18, f"peak {peak / 2**20:.2f} MiB"


def test_add_rows_linear_term_shape_and_range_errors():
    # linear's checks on the parts, w and b, add's on x against the linear
    # term, and add_rows' on x, t, pos and the range of pos
    x, t, pos = dk.constant(np.zeros((3, 4))), dk.constant(np.zeros((2, 4))), np.zeros(3, int)
    p, w, b = dk.constant(np.zeros((3, 2))), dk.constant(np.zeros((2, 4))), dk.constant(np.zeros(4))
    dk.add_rows(x, t, pos, [p], w, b)
    bad_linear = [([dk.constant(np.zeros((3, 3)))], w, b),  # w's rows are not the parts' width
                  ([p, dk.constant(np.zeros((2, 1)))], dk.constant(np.zeros((3, 4))), b),
                  ([dk.constant(np.zeros(2))], w, b), ([p], dk.constant(np.zeros(8)), b),
                  ([p], w, dk.constant(np.zeros(3)))]
    for args in bad_linear:
        with pytest.raises(dk.ShapeError, match="linear"):
            dk.add_rows(x, t, pos, *args)
    for x_bad, w_bad in ((dk.constant(np.zeros((4, 4))), w), (x, dk.constant(np.zeros((2, 5))))):
        with pytest.raises(dk.ShapeError):  # x is not the linear term's shape
            dk.add_rows(x_bad, t, np.zeros(x_bad.shape[0], int), [p], w_bad, None)
    with pytest.raises(dk.ShapeError):
        dk.add_rows(x, dk.constant(np.zeros((2, 3))), pos, [p], w, b)
    with pytest.raises(dk.ShapeError):
        dk.add_rows(x, t, np.zeros(2, int), [p], w, b)
    for bad_pos in ([0, 2, 1], [0, -1, 1]):
        with pytest.raises(IndexError):
            dk.add_rows(x, t, np.array(bad_pos), [p], w, b)


def test_take_column_transpose_diag_grads():
    x = RNG.normal(size=(4, 4))
    fd_check(lambda u: tsum(dk.square(dk.take_column(u, 2))), [x])
    fd_check(lambda u: tsum(dk.square(softmax_diag(u))), [x])


def test_reductions_grads():
    x = RNG.normal(size=(3, 5))
    fd_check(lambda u: tsum(dk.square(u)), [x])
    fd_check(lambda u: dk.tmean(dk.square(u)), [x])


# ---------------------------------------------------------------------------
# softmax / attention ops


def test_row_softmax_symmetric_input():
    s = dk.row_softmax(dk.constant(np.zeros((1, 2))))
    assert s.values[0] == pytest.approx([0.5, 0.5])


def test_row_softmax_closed_form():
    s = dk.row_softmax(dk.constant(np.array([[np.log(2.0), 0.0]])))
    assert s.values[0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-12)


def test_row_softmax_mask_and_grads():
    x = RNG.normal(size=(4, 6))
    mask = RNG.uniform(size=(4, 6)) > 0.3
    mask[:, 0] = True
    fd_check(lambda u: tsum(dk.square(dk.row_softmax(u, mask=mask))), [x])
    s = dk.row_softmax(dk.constant(x), mask=mask)
    assert np.all(s.values[~mask] == 0.0)
    assert s.values.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)


def test_row_softmax_fully_masked():
    x = dk.Tensor(np.zeros((2, 3)), requires_grad=True)
    mask = np.array([[True, False, False], [False, False, False]])
    with dk.Tape() as tape:
        s = dk.row_softmax(x, mask=mask)
        dk.backward(tsum(dk.square(s)), tape)
    assert np.all(s.values[1] == 0.0)  # a fully masked row attends to nothing
    assert s.values[0].sum() == pytest.approx(1.0)
    assert np.all(x.grad[1] == 0.0)


def test_attention_ops_grads():
    q = RNG.normal(size=(3, 4))
    k = RNG.normal(size=(3, 5, 4))
    s = RNG.normal(size=(3, 5))
    h = RNG.normal(size=(3, 5, 6))
    w = RNG.normal(size=(3, 1))
    slots = np.arange(3 * 5).reshape(3, 5)
    fd_check(lambda a, b: tsum(dk.square(dk.attention_scores(a, b, slots))),
             [q, k.reshape(-1, 4)])
    fd_check(lambda a, b: tsum(dk.square(dk.attention_pool(a, b, slots))),
             [s, h.reshape(-1, 6)])
    fd_check(lambda a, b: tsum(dk.square(dk.scale_rows(a, b))), [s, w])


def test_row_indexed_attention_grads_with_repeats_and_pad():
    # row 0 plays the pad id; rows repeat within and across batch rows,
    # and row 3 is indexed by no slot (its gradient must be zero)
    idx = np.array([[0, 0, 1, 2], [2, 2, 2, 0], [1, 4, 1, 4]])
    q = RNG.normal(size=(3, 4))
    keys = RNG.normal(size=(5, 4))
    s = RNG.normal(size=(3, 4))
    rows = RNG.normal(size=(5, 6))
    fd_check(lambda a, b: tsum(dk.square(dk.attention_scores(a, b, idx))), [q, keys])
    fd_check(lambda a, b: tsum(dk.square(dk.attention_pool(a, b, idx))), [s, rows])

    got_s = dk.attention_scores(dk.constant(q), dk.constant(keys), idx).values
    assert np.allclose(got_s, np.einsum("bd,bld->bl", q, keys[idx]), rtol=0, atol=1e-14)
    got_p = dk.attention_pool(dk.constant(s), dk.constant(rows), idx).values
    assert np.allclose(got_p, np.einsum("bl,bld->bd", s, rows[idx]), rtol=0, atol=1e-14)

    r = dk.Tensor(rows, requires_grad=True)
    with dk.Tape() as tape:
        dk.backward(tsum(dk.attention_pool(dk.constant(s), r, idx)), tape)
    assert np.all(r.grad[3] == 0.0)


def test_row_indexed_attention_shape_and_range_errors():
    q = dk.constant(np.zeros((2, 3)))
    keys = dk.constant(np.zeros((4, 3)))
    with pytest.raises(dk.ShapeError):
        dk.attention_scores(q, keys, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(dk.ShapeError):
        dk.attention_pool(dk.constant(np.zeros((2, 5))), keys, np.zeros((2, 4), dtype=np.int64))
    with pytest.raises(IndexError):
        dk.attention_scores(q, keys, np.array([[0, 4], [1, 2]]))
    with pytest.raises(IndexError):
        dk.attention_pool(dk.constant(np.zeros((2, 2))), keys, np.array([[0, -1], [1, 2]]))


# Oracles: the whole-batch formulas the blocked kernels replace. Each takes
# the upstream gradient g and returns (output, input gradients); a gradient
# is compared after "+ 0.0", the first accumulation into a fresh leaf.


def flat_scatter_rows(n_rows, idx, g):
    """out[idx[i]] += g[i]: one bincount over idx * D + column."""
    d = g.shape[-1]
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=n_rows * d).reshape(n_rows, d)


def whole_batch_scores(q, keys, idx, g):
    out = np.matmul(keys[idx], q[:, :, None])[:, :, 0]
    dq = np.matmul(g[:, None, :], keys[idx])[:, 0]
    dkeys = flat_scatter_rows(keys.shape[0], idx, g[:, :, None] * q[:, None, :])
    return out, (dq, dkeys)


def whole_batch_pool(s, rows, idx, g):
    out = np.matmul(s[:, None, :], rows[idx])[:, 0]
    ds = np.matmul(rows[idx], g[:, :, None])[:, :, 0]
    drows = flat_scatter_rows(rows.shape[0], idx, s[:, :, None] * g[:, None, :])
    return out, (ds, drows)


def diag_of_row_softmax(x, g):
    """diag_part(row_softmax(x)): a dense softmax, a dense diagonal gradient."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    gs = np.zeros_like(x)
    np.fill_diagonal(gs, g)
    gs = 0.0 + gs  # the first accumulation into the softmax output's grad
    inner = (gs * s).sum(axis=1, keepdims=True)
    return np.diagonal(s).copy(), (s * (gs - inner),)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_op(op, inputs, g, *args):
    """Output and leaf gradients of op(*inputs, *args) under upstream g."""
    leaves = [dk.Tensor(a, requires_grad=True) for a in inputs]
    with dk.Tape() as tape:
        y = op(*leaves, *args)
        dk.backward(tsum(mul(y, dk.constant(g))), tape)
    return y.values, [t.grad for t in leaves]


def _history_case(b, length, n_rows, seed):
    """Repeated ids; row 0 is the pad id and batch row 1 is all pad; the
    last table row is indexed by no slot when there are two or more."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, max(n_rows - 1, 1), size=(b, length))
    if b > 1:
        idx[1] = 0
    return rng, idx


def same_bits_or_nan(a, b):
    """NaN in the same places, and the same bits everywhere else."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and same_bits(a[~nan], b[~nan])


def _slot_weights_case(rng, b, length, n_rows, weights):
    """Inputs of the two history kernels. ``weights`` sets the slot weights w
    of their key and row scatters (the upstream gradient of
    attention_scores, the input s of attention_pool) and the rows v that w
    scales (q, and the upstream gradient of attention_pool): "non-finite"
    puts inf and NaN in v at a slot of weight 0, which must give NaN as the
    whole-batch formula does."""
    q, keys, g = rng.normal(size=(b, 5)), rng.normal(size=(n_rows, 5)), rng.normal(size=(b, length))
    s, rows, g_pool = rng.uniform(size=(b, length)), rng.normal(size=(n_rows, 6)), rng.normal(size=(b, 6))
    if b > 1:
        s[1] = 0.0  # the softmax over an all-pad row
    if weights == "signed-zeros":
        for w in (g, s):
            w[rng.uniform(size=w.shape) < 0.2] = 0.0
            w[rng.uniform(size=w.shape) < 0.2] = -0.0
    elif weights == "all-zero":
        g[:], s[:] = 0.0, -0.0
    elif weights == "non-finite":
        q[0, 0], g[0, 0] = np.inf, 0.0
        g_pool[0, 1], s[0, 0] = np.nan, -0.0
    return (q, keys, g), (s, rows, g_pool)


@pytest.mark.parametrize("n_rows", [1, 7, 300])
@pytest.mark.parametrize("length", [1, 20])
@pytest.mark.parametrize("b", [1, 63, 64, 65, 130])
def test_blocked_attention_matches_whole_batch_bitwise(b, length, n_rows):
    rng, idx = _history_case(b, length, n_rows, seed=b * 1000 + length * 10 + n_rows)
    for weights in ("uniform", "signed-zeros", "all-zero", "non-finite"):
        (q, keys, g), (s, rows, g_pool) = _slot_weights_case(rng, b, length, n_rows, weights)
        with np.errstate(invalid="ignore" if weights == "non-finite" else "warn"):
            got, grads = run_op(dk.attention_scores, [q, keys], g, idx)
            want, want_grads = whole_batch_scores(q, keys, idx, g)
            assert same_bits_or_nan(got, want), weights
            assert all(same_bits_or_nan(a, w + 0.0) for a, w in zip(grads, want_grads)), weights

            got, grads = run_op(dk.attention_pool, [s, rows], g_pool, idx)
            want, want_grads = whole_batch_pool(s, rows, idx, g_pool)
            assert same_bits_or_nan(got, want), weights
            assert all(same_bits_or_nan(a, w + 0.0) for a, w in zip(grads, want_grads)), weights
        if weights == "non-finite":
            assert np.isnan(grads[1]).any()
        if n_rows > 1:
            assert np.all(grads[1][-1] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_softmax_diag_matches_diag_of_row_softmax_bitwise(n):
    rng = np.random.default_rng(n)
    x = 10.0 * rng.normal(size=(n, n))
    g = rng.normal(size=n)
    g[::3] = -0.0  # the signed zeros of the dense path
    got, grads = run_op(softmax_diag, [x], g)
    want, want_grads = diag_of_row_softmax(x, g)
    assert same_bits(got, want)
    assert same_bits(grads[0], want_grads[0] + 0.0)
    with pytest.raises(dk.ShapeError):
        softmax_diag(dk.constant(np.zeros((2, 3))))


def _traced_peak(op, inputs, g, *args):
    """tracemalloc peak of one forward plus backward through op."""
    tracemalloc.start()
    try:
        run_op(op, inputs, g, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_attention_pool_memory_bound():
    # one (B*L, D) float64 temporary alone is 4096 * 20 * 128 * 8 B = 84 MB.
    # Measured: 18.3 MiB with a transposed copy of the whole (B, D) gradient
    # in the row scatter, 16.0 MiB with 16 columns transposed at a time; the
    # bound is about 15% above
    rng = np.random.default_rng(5)
    b, length, n_rows, d = 4096, 20, 2000, 128
    idx = rng.integers(0, n_rows, size=(b, length))
    peak = _traced_peak(dk.attention_pool, [rng.uniform(size=(b, length)),
                        rng.normal(size=(n_rows, d))], rng.normal(size=(b, d)), idx)
    assert peak < 18.4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_attention_scores_memory_bound():
    # one (B*L, d) float64 temporary alone is 4096 * 20 * 32 * 8 B = 21 MB
    rng = np.random.default_rng(6)
    b, length, n_rows, d = 4096, 20, 2000, 32
    idx = rng.integers(0, n_rows, size=(b, length))
    peak = _traced_peak(dk.attention_scores, [rng.normal(size=(b, d)),
                        rng.normal(size=(n_rows, d))], rng.normal(size=(b, length)), idx)
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# InfoNCE: the fused kernel against the composed reference (oracle_ops)


def test_cosine_matrix_grads_and_values():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(5, 4))
    fd_check(lambda u, v: tsum(dk.square(cosine_matrix(u, v))), [a, b])
    c = cosine_matrix(dk.constant(a), dk.constant(a)).values
    assert np.diagonal(c) == pytest.approx(np.ones(3), abs=1e-12)
    with pytest.raises(ValueError):
        cosine_matrix(dk.constant(np.zeros((1, 3))), dk.constant(a))


def rel_err(got, want):
    """Largest absolute difference over the largest magnitude of ``want``."""
    diff = np.abs(np.asarray(got) - want).max()
    return 0.0 if diff == 0 else diff / np.abs(want).max()


def _nce_case(n, case, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 16))
    b = a + 0.5 * rng.normal(size=(n, 16))
    w = rng.uniform(0.1, 2.0, size=n)
    tau = 1.0 if case == "tau_1" else 0.1
    if case == "duplicates":  # row 4k+1 repeats row 4k
        dup = np.arange(1, n, 4)
        a[dup], b[dup] = a[dup - 1], b[dup - 1]
    elif case == "zero_weights":
        w[::3] = 0.0
    elif case == "all_zero_weights":
        w[:] = 0.0
    return a, b, w, tau


@pytest.mark.parametrize("case", ["plain", "duplicates", "zero_weights",
                                  "all_zero_weights", "tau_1"])
@pytest.mark.parametrize("n", [1, _NCE_BLOCK - 1, _NCE_BLOCK, _NCE_BLOCK + 1,
                               2 * _NCE_BLOCK + 37])
def test_info_nce_matches_composed_reference(n, case):
    a, b, w, tau = _nce_case(n, case, seed=n)
    got, grads = run_op(dk.info_nce, [a, b], np.asarray(0.7), w, tau)
    want, want_grads = run_op(composed_info_nce, [a, b], np.asarray(0.7), w, tau)
    assert rel_err(got, want) <= 1e-12
    for g, wg in zip(grads, want_grads):
        assert rel_err(g, wg) <= 1e-12


def test_info_nce_grads_and_closed_forms():
    a, b, w, tau = _nce_case(5, "zero_weights", seed=9)
    fd_check(lambda u, v: dk.info_nce(u, v, w, tau), [a, b])
    e = dk.constant(np.eye(3))  # orthogonal pairs at tau 1: each term is log(1 + 2/e)
    got = float(dk.info_nce(e, e, np.ones(3), 1.0).values)
    assert got == pytest.approx(3 * np.log(1 + 2 / np.e), rel=1e-14)


def test_info_nce_errors():
    a = dk.constant(RNG.normal(size=(3, 4)))
    zero = dk.constant(np.vstack([a.values[:2], np.zeros((1, 4))]))
    with pytest.raises(ValueError, match="zero-norm"):
        dk.info_nce(zero, a, np.ones(3), 0.1)
    with pytest.raises(ValueError, match="zero-norm"):
        dk.info_nce(a, zero, np.ones(3), 0.1)
    for bad in (np.inf, np.nan):
        x = a.values.copy()
        x[1, 2] = bad
        with pytest.raises(dk.NonFiniteError):
            dk.info_nce(dk.constant(x), a, np.ones(3), 0.1)
        with pytest.raises(dk.NonFiniteError):
            dk.info_nce(a, dk.constant(x), np.ones(3), 0.1)
    # every pair is orthogonal while another row scores cosine 1: at tau 1e-3
    # each diagonal probability is exp(-1000), which underflows to 0
    e = dk.constant(np.eye(4)[:, ::-1])
    with pytest.raises(ValueError, match="underflows"):
        dk.info_nce(e, dk.constant(np.eye(4)), np.ones(4), 1e-3)
    with pytest.raises(dk.ShapeError):
        dk.info_nce(a, dk.constant(np.ones((2, 4))), np.ones(3), 0.1)
    with pytest.raises(dk.ShapeError):
        dk.info_nce(a, a, np.ones(2), 0.1)


def test_info_nce_memory_bound():
    # one (N, N) float64 array alone is 1,700**2 * 8 B = 23 MB; the composed
    # reference peaks at about 140 MB. Measured: 13.9 MiB with whole-matrix
    # input-gradient temporaries and two score panels alive at once, 12.0 MiB
    # with each panel's gradient rows finished in the panel loop, one reused
    # (N, d) buffer for b's part and one panel at a time; the bound is about
    # 15% above
    rng = np.random.default_rng(7)
    n, d = 1700, 128
    a = rng.normal(size=(n, d))
    peak = _traced_peak(dk.info_nce, [a, a + 0.3 * rng.normal(size=(n, d))],
                        np.asarray(1.0), rng.uniform(size=n), 0.1)
    assert peak < 13.8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_bce_with_logits_grads_and_values():
    z = RNG.normal(size=8)
    y = (RNG.uniform(size=8) > 0.5).astype(float)
    fd_check(lambda u: tsum(dk.bce_with_logits(u, y)), [z])
    big = dk.bce_with_logits(dk.constant(np.array([30.0, -30.0])), np.array([1.0, 0.0]))
    assert np.abs(big.values).max() < 1e-12  # confident correct predictions


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_requires_scalar():
    x = dk.Tensor(np.zeros((2, 2)), requires_grad=True)
    with dk.Tape() as tape:
        y = dk.square(x)
        with pytest.raises(ValueError):
            dk.backward(y, tape)


def test_tapes_do_not_nest():
    with dk.Tape():
        with pytest.raises(RuntimeError):
            with dk.Tape():
                pass


def test_second_backward_on_a_consumed_tape_raises():
    rng = np.random.default_rng(3)
    x = dk.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = dk.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    with dk.Tape() as tape:
        loss = tsum(dk.square(dk.linear(x, w)))
        dk.backward(loss, tape)
        grads = [x.grad, w.grad]
        kept = [g.copy() for g in grads]
        with pytest.raises(RuntimeError):
            dk.backward(loss, tape)
    assert x.grad is grads[0] and w.grad is grads[1]
    assert all(same_bits(g, k) for g, k in zip(grads, kept))


def test_backward_consumes_the_tape_in_place(monkeypatch):
    # one (slot, None) entry per recorded op stays, in record order: a tracer
    # counts the tape's ops after backward returns
    rng = np.random.default_rng(4)
    x = dk.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w = dk.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    outputs = _record_outputs(monkeypatch)
    with dk.Tape() as tape:
        h = dk.relu(add_bias(dk.linear(dk.affine(x, 2.0), w), dk.constant(np.ones(2))))
        loss = tsum(mul(h, dk.constant(rng.normal(size=(6, 2)))))
        slots = [slot for slot, _ in tape._ops]
        dk.backward(loss, tape)
    assert len(tape._ops) == len(outputs) == 6
    assert all(s is slot and fn is None for s, (slot, fn) in zip(slots, tape._ops))


def test_matmul_backward_frees_its_input_before_the_input_gradient():
    # h is held by linear's closure alone; its bytes are gone before the
    # (n, d) gradient of h is built, so h and that gradient never coexist
    rng = np.random.default_rng(5)
    n, d, k = 2048, 256, 4
    parts = [dk.Tensor(rng.normal(size=(n, d // 2)), requires_grad=True) for _ in range(2)]
    w = dk.Tensor(rng.normal(size=(d, k)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with dk.Tape() as tape:
            h = concat(parts)
            loss = dk.tmean(dk.linear(h, w))
            del h
            dk.backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(p.grad.shape == p.shape for p in parts + [w])
    bound = 2 * n * d * 8 + d * k * 8  # input + input gradient + weight gradient
    assert peak < bound, f"peak {peak} B, bound {bound} B"


def test_tape_frees_op_outputs_that_no_backward_reads():
    # with the tape alive: dropping an op output that no backward reads frees
    # its bytes, a linear input stays for linear's backward, and the
    # gradients keep their bits
    rng = np.random.default_rng(11)
    arrays = rng.normal(size=(512, 64)), rng.normal(size=(64, 256)), rng.normal(size=256)
    c = dk.constant(rng.normal(size=(512, 256)))

    def step(drop):
        x, w, b = (dk.Tensor(a, requires_grad=True) for a in arrays)
        tracemalloc.start()
        try:
            with dk.Tape() as tape:
                h = dk.affine(x, 2.0)
                u = dk.linear(h, w)  # add_bias's backward keeps nothing of it
                loss = tsum(mul(dk.relu(add_bias(u, b)), c))
                kept, freed = weakref.ref(h.values), weakref.ref(u.values)
                live = tracemalloc.get_traced_memory()[0]
                if drop:
                    del h, u
                    assert kept() is not None and freed() is None
                    assert live - tracemalloc.get_traced_memory()[0] >= 512 * 256 * 8
                dk.backward(loss, tape)
        finally:
            tracemalloc.stop()
        return [t.grad for t in (x, w, b)]

    assert all(same_bits(g, k) for g, k in zip(step(drop=True), step(drop=False)))


def _weighted_sum(y):
    return tsum(mul(y, dk.constant(np.random.default_rng(8).normal(size=y.shape))))


def _history_table_loss(t, q):
    idx = np.array([[1, 2], [2, 2], [0, 5]])
    s = dk.row_softmax(dk.attention_scores(q, t, idx))
    return _weighted_sum(add_bias(dk.attention_pool(s, t, idx), dk.gather_rows(t, 3)))


# case -> (leaf shapes, loss over the leaves); "add-of-the-seed" hands the
# loss's own seed gradient to add, "table" reaches one leaf by three ops,
# "linear-two-calls" writes one weight's gradient from two calls, each a row
# block per part
OWNERSHIP_CASES = {
    "add": ([(3, 4), (3, 4)], lambda a, b: _weighted_sum(dk.add(a, b))),
    "add-of-the-seed": ([(), ()], dk.add),
    "add-to-itself": ([(3, 4), (3, 4)], lambda x, y: _weighted_sum(dk.add(dk.add(x, x), y))),
    "add-rows": ([(3, 4), (2, 4)],
                 lambda x, t: _weighted_sum(dk.add_rows(x, t, np.array([1, 0, 1])))),
    "add-rows-linear": ([(3, 4), (2, 4), (3, 2), (2, 4), (4,)], lambda x, t, p, w, b:
                        _weighted_sum(dk.add_rows(x, t, np.array([1, 0, 1]), [p], w, b))),
    "concat-parts": ([(3, 2), (3, 5)], lambda u, v: _weighted_sum(concat([u, v]))),
    "two-paths": ([(3, 4), (4, 2)],
                  lambda x, w: _weighted_sum(concat([x, dk.linear(x, w)]))),
    "table": ([(6, 4), (3, 4)], _history_table_loss),
    "linear-two-calls": ([(3, 2), (3, 3), (5, 4)], lambda x, y, w: _weighted_sum(
        dk.add(dk.linear([y, x], w), dk.linear([x, y], w)))),
}


def _record_outputs(monkeypatch):
    """Every op output made from now on, in the order made: the tape holds
    slots only, so the outputs are collected where ``_make`` builds them."""
    outputs, make = [], tensor._make

    def recording_make(*args):
        outputs.append(make(*args))
        return outputs[-1]

    for module in (tensor, oracle_ops):
        monkeypatch.setattr(module, "_make", recording_make)
    return outputs


@pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
def test_backward_leaves_owned_grads_on_leaves_only(case, monkeypatch):
    shapes, loss_fn = OWNERSHIP_CASES[case]
    rng = np.random.default_rng(9)
    leaves = [dk.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    outputs = _record_outputs(monkeypatch)
    with dk.Tape() as tape:
        dk.backward(loss_fn(*leaves), tape)
    assert tape._ops and all(slot.grad is None for slot, _ in tape._ops)
    assert len(outputs) == len(tape._ops)
    grads = [t.grad for t in leaves]
    assert all(g.shape == t.shape for g, t in zip(grads, leaves))
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
        assert not any(np.shares_memory(g, t.values) for t in leaves)
        assert not any(np.shares_memory(g, out.values) for out in outputs)
    kept = [g.copy() for g in grads]
    for i, g in enumerate(grads):
        g += 1.0
        assert all(same_bits(h, k) for j, (h, k) in enumerate(zip(grads, kept)) if j != i)
        g[...] = kept[i]


def test_add_to_itself_doubles_the_gradient():
    x = dk.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    c = RNG.normal(size=(2, 3))
    with dk.Tape() as tape:
        dk.backward(tsum(mul(dk.add(x, x), dk.constant(c))), tape)
    assert same_bits(x.grad, c + c)


def test_adopted_first_gradient_has_no_negative_zero():
    # mul hands x the fresh array 1.0 * c, whose -0.0 entries stay -0.0;
    # adopting it must still give the +0.0 that a copy through g + 0.0 gives
    x = dk.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    c = np.array([[-0.0, 1.5, 0.0], [-2.0, -0.0, 3.0]])
    with dk.Tape() as tape:
        dk.backward(tsum(mul(x, dk.constant(c))), tape)
    assert same_bits(x.grad, c + 0.0)
    assert not np.signbit(x.grad[c == 0]).any()


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_is_fixed_point():
    p = dk.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = dk.AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.values == pytest.approx([1.0, -2.0], abs=1e-15)


def test_adamw_decoupled_decay_scales_parameter():
    p = dk.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = dk.AdamW({"p": p}, lr=0.1, weight_decay=0.1)
    opt.step()
    assert p.values == pytest.approx([0.99, -1.98], abs=1e-15)


def test_adamw_matches_scalar_oracle():
    p = dk.Tensor(np.asarray(0.5), requires_grad=True)
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.01
    opt = dk.AdamW({"p": p}, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)

    # independent step-by-step reimplementation of the update rule
    x, m, v = 0.5, 0.0, 0.0
    for t in range(1, 101):
        g = 1.0
        x *= 1.0 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        p.grad = np.asarray(1.0)
        opt.step()
        assert float(p.values) == pytest.approx(x, rel=1e-14)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adamw_in_place_step_matches_out_of_place_oracle_bitwise(weight_decay):
    # "big" spans two update blocks and a remainder; "view0" is a 0-d and
    # "strided" a strided view into a larger array, where every write must land
    rng = np.random.default_rng(10)
    bases = {"view0": rng.normal(size=3), "strided": rng.normal(size=(10, 6))}
    values = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4), "s": rng.normal(size=()),
              "big": rng.normal(size=(2 * (_STEP_BLOCK // 7) + 5, 7)),
              "view0": bases["view0"][1, ...], "strided": bases["strided"][::2, 1:4]}
    params = {k: dk.Tensor(v, requires_grad=True) for k, v in values.items()}
    assert all(np.shares_memory(params[k].values, bases[k]) for k in bases)
    hyper = dict(lr=5e-3, b1=0.9, b2=0.999, eps=1e-8, weight_decay=weight_decay)
    opt = dk.AdamW(params, lr=hyper["lr"], beta1=hyper["b1"], beta2=hyper["b2"],
                   eps=hyper["eps"], weight_decay=weight_decay)
    want = {k: (p.values.copy(), np.zeros(p.shape), np.zeros(p.shape)) for k, p in params.items()}
    for t in range(1, 6):
        for k, p in params.items():
            g = rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 4, size=p.shape)
            if g.ndim:
                g.flat[::3] = -0.0
                g.flat[1::5] = 0.0
                g.flat[-1] = (-1) ** t * 1e150  # g * g stays finite
            p.grad = g
            values, m, v = want[k]
            want[k] = adamw_step(values, g.copy(), m, v, t, **hyper)
        opt.step()
        for k, p in params.items():
            assert same_bits(p.values, want[k][0]), (k, t)
            assert same_bits(opt.m[k], want[k][1]), (k, t)
            assert same_bits(opt.v[k], want[k][2]), (k, t)
    assert same_bits(bases["view0"][1], want["view0"][0])
    assert same_bits(bases["strided"][::2, 1:4], want["strided"][0])


def test_adamw_scratch_does_not_grow_with_the_largest_table():
    # the step's two scratch buffers hold one update block, so the memory
    # AdamW takes beyond its moments m and v is the same for 1 MB and 10 MB
    # tables (it was two buffers the size of the largest table)
    extra = []
    for rows in (2_000, 20_000):
        p = dk.Tensor(np.zeros((rows, 64)), requires_grad=True)
        p.grad = np.ones(p.shape)
        tracemalloc.start()
        try:
            opt = dk.AdamW({"p": p}, lr=1e-3, weight_decay=0.01)
            opt.step()
            extra.append(tracemalloc.get_traced_memory()[1] - 2 * p.values.nbytes)
        finally:
            tracemalloc.stop()
    assert max(extra) < 2 * 8 * _STEP_BLOCK + 2**16, extra
    assert abs(extra[1] - extra[0]) < 2**12, extra


def test_adamw_step_accepts_a_strided_grad():
    # a leaf fed by concat adopts a column view of the op's gradient
    p = dk.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    ref = p.values.copy()
    opt = dk.AdamW({"p": p}, lr=0.1, weight_decay=0.1)
    g = RNG.normal(size=(4, 7))
    p.grad = g[:, 2:5]
    opt.step()
    assert same_bits(p.values, adamw_step(ref, g[:, 2:5].copy(), np.zeros((4, 3)),
                                          np.zeros((4, 3)), 1, 0.1, 0.9, 0.999, 1e-8, 0.1)[0])


def _ref_batch_step_case(b=4096, n_items=2000, n_users=170, l_max=20, seed=0, variant="full"):
    """A model and batch at the ref_batch benchmark shapes: B=4096 on 2,000
    items, default model widths, a random SID table and random histories."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(variant=variant)
    table = np.zeros((n_items + 1, cfg.sid_levels), dtype=np.int64)
    table[1:] = rng.integers(0, cfg.sid_codes, size=(n_items, cfg.sid_levels))
    model = GateSidModel(n_items, n_users, table, cfg, seed=seed)
    hist = rng.integers(1, n_items + 1, size=(b, l_max))
    hist[np.arange(l_max) < rng.integers(0, l_max + 1, size=(b, 1))] = 0  # right-aligned
    click = rng.integers(0, 2, size=b)
    batch = {"target_ids": rng.integers(1, n_items + 1, size=b), "hist_ids": hist,
             "user_ids": rng.integers(0, n_users, size=b),
             "stats_raw": rng.uniform(0, 40, size=(b, cfg.n_stat)),
             "click": click, "pay": click * rng.integers(0, 2, size=b)}
    model.fit_stat_norm(batch["stats_raw"])
    return model, batch


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", [{"b": 256, "n_items": 800, "n_users": 100}, {}],
                         ids=["desk", "ref_batch"])
def test_gather_recipes_keep_loss_and_gradients_bitwise(variant, shape, monkeypatch):
    # the backward gathers rows again from a recipe where the tape saved the
    # gathered copy: the same values through the same operations
    def loss_and_grads():
        model, batch = _ref_batch_step_case(variant=variant, **shape)
        with dk.Tape() as tape:
            loss, _ = model.loss(batch)
            dk.backward(loss, tape)
        return loss.values, {k: p.grad for k, p in model.params.items()}

    loss, grads = loss_and_grads()
    monkeypatch.setattr(dk, "gather_rows", oracle_ops.gather_rows)
    want_loss, want_grads = loss_and_grads()
    assert same_bits(loss, want_loss)
    assert grads.keys() == want_grads.keys()
    for k, g in grads.items():
        assert same_bits(g, want_grads[k]), k


def _closure_tensors(fn):
    """Tensors that a backward closure holds, directly or in a list or tuple."""
    cells = [c.cell_contents for c in fn.__closure__ or ()]
    items = cells + [v for c in cells if isinstance(c, (list, tuple)) for v in c]
    return [v for v in items if isinstance(v, dk.Tensor)]


def ref_batch_step_memory():
    """One training step (loss, backward, AdamW step) of
    ``_ref_batch_step_case`` under tracemalloc. Returns the bytes live after
    the forward pass, each phase's peak bytes (``forward``, ``backward`` and
    ``adamw``; all above what was live before the step, the peak reset
    between phases), the step's tape and the number of its closures that held
    a Tensor before backward consumed them. CI's size summary prints the
    byte figures."""
    model, batch = _ref_batch_step_case()
    opt = dk.AdamW(model.params, lr=5e-3, weight_decay=1e-5)
    peaks = {}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with dk.Tape() as tape:
            loss, _ = model.loss(batch)
            forward_live, peaks["forward"] = tracemalloc.get_traced_memory()
            holders = sum(bool(_closure_tensors(fn)) for _, fn in tape._ops)
            tracemalloc.reset_peak()
            dk.backward(loss, tape)
        peaks["backward"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        opt.step()
        peaks["adamw"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward_live - base, {k: v - base for k, v in peaks.items()}, tape, holders


def test_training_step_memory_bound():
    # Measured: live after the forward pass, 85.8 MiB when the tape held every
    # op output, 49.9 MiB with slots only, and 31.7 MiB with the history
    # pooled once after head.w1's projection and no concatenated head or gate
    # input, and 27.1 MiB with each of the batch's 1,758 distinct targets
    # embedded and projected once instead of per impression (B = 4,096),
    # and 26.2 MiB with relu saving its output instead of a bool mask, and
    # 17.2 MiB with gathered inputs saved as their recipes (table, idx) and
    # gathered again in the backward: e_item, e_sid, both history-row blocks,
    # e_user, and each (B, 32) query copy, now its (V, 32) projection.
    # The step's peak: 122.1, then 87.4 MiB, 65.1 MiB with each closure
    # dropped once it has run, 46.9 MiB with one pool, 38.8 MiB with one
    # row per distinct target, and 35.2 MiB with InfoNCE's gradient rows
    # finished per panel and one score panel alive at a time; that peak was
    # the forward pass's, InfoNCE's working arrays on top of every saved
    # activation. With InfoNCE run before the history pool and the head's
    # first layer summed in one array, the forward pass peaks at 30.0 MiB
    # and the step at 33.0 MiB, in attention_pool's backward (32.7 MiB
    # before: InfoNCE's saved gradients now live until its backward, after
    # the pool's, and _scatter_outer no longer builds a (B * L,) row array).
    # With the gather recipes the forward pass peaks at 24.9 MiB, the step's
    # peak again, and the backward pass at 24.5 MiB.
    # The peak above the forward pass's live memory: 95 MiB when backward
    # kept every intermediate gradient and AdamW built its temporaries,
    # 37.5 MiB with gradients freed once consumed and the step in place,
    # 15.2 MiB with each op's saved arrays freed once its gradient is done,
    # 11.7 MiB with one row per distinct target, 9.0 MiB with those InfoNCE
    # panels and relu's output saved, 6.8 MiB with InfoNCE moved and
    # relu masking its gradient in place, and 7.7 MiB with the gather
    # recipes, which cut the forward pass's live memory more than its peak.
    # (AdamW's scratch, now one update block, is built before tracing
    # starts.) The bounds leave about 15% above the last figures, except
    # this last one, kept at its earlier bound.
    forward_live, peaks, tape, holders = ref_batch_step_memory()
    assert holders == 0
    assert tape._ops and all(slot.grad is None and fn is None for slot, fn in tape._ops)
    mib, peak = 2**20, max(peaks.values())
    assert forward_live < 20 * mib, f"forward live {forward_live / mib:.1f} MiB"
    assert peaks["forward"] < 28.6 * mib, f"forward peak {peaks['forward'] / mib:.1f} MiB"
    assert peak < 28.6 * mib, f"step peak {peak / mib:.1f} MiB"
    assert peak - forward_live < 7.8 * mib, f"{(peak - forward_live) / mib:.1f} MiB"


def test_adamw_missing_grad_raises():
    p = dk.Tensor(np.zeros(2), requires_grad=True)
    opt = dk.AdamW({"p": p}, lr=0.1)
    with pytest.raises(dk.MissingGradError):
        opt.step()


def test_grad_check_quadratic_is_near_exact():
    x = RNG.normal(size=(3, 3))
    params = {"x": dk.Tensor(x, requires_grad=True)}
    report = grad_check(lambda: tsum(dk.square(params["x"])), params)
    assert report["passed"]
    assert report["max_rel_error"]["x"] <= 1e-8


# ---------------------------------------------------------------------------
# checkpoint format


def test_save_load_arrays_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    arrays = {"a": RNG.normal(size=(3, 4)), "b": RNG.normal(size=7),
              "c": np.asarray(2.5)}
    meta = {"note": "x", "n": 3}
    dk.save_arrays(path, arrays, meta)
    loaded, meta2 = dk.load_arrays(path)
    assert meta2 == meta
    for k in arrays:
        assert loaded[k].shape == arrays[k].shape
        assert np.array_equal(loaded[k], arrays[k])


def test_load_arrays_truncated_file(tmp_path):
    path = str(tmp_path / "ckpt.bin")
    dk.save_arrays(path, {"a": np.zeros(16)})
    with open(path, "rb") as f:
        data = f.read()
    with open(path, "wb") as f:
        f.write(data[:-8])
    with pytest.raises(IOError):
        dk.load_arrays(path)
    with open(path, "wb") as f:
        f.write(data + b"garbage")
    with pytest.raises(IOError, match="trailing bytes"):
        dk.load_arrays(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    with open(path) as f:
        assert f.read() == "hello\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_writers_give_the_mode_the_umask_allows(tmp_path, umask, mode):
    # the mode open(path, "w") gives a new file: 0o666 masked by the umask
    old = os.umask(umask)
    try:
        dk.write_csv(str(tmp_path / "a.csv"), ["x"], np.arange(3))
        dk.write_json(str(tmp_path / "b.json"), {"x": 1})
        dk.save_arrays(str(tmp_path / "c.bin"), {"x": np.zeros(2)})
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["a.csv", "b.json", "c.bin"], mode)
