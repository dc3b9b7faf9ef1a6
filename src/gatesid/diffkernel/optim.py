"""AdamW with decoupled weight decay, plus a finite-difference gradient checker."""

import numpy as np

from .tensor import Tape, backward

_STEP_BLOCK = 1 << 15  # elements per AdamW update block (at least one row)


class MissingGradError(RuntimeError):
    def __init__(self, name):
        super().__init__(f"parameter '{name}' has no gradient")


class AdamW:
    """Decoupled weight decay: the decay shrinks the parameter directly and
    never enters the moment estimates."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in self.params.items()}
        self._rows, n = {}, 0  # leading-axis rows per block; the largest block
        for k, p in self.params.items():
            row = int(np.prod(p.shape[1:]))
            self._rows[k] = max(1, _STEP_BLOCK // max(1, row))
            n = max(n, min(p.values.size, self._rows[k] * row))
        self._scratch = (np.empty(n), np.empty(n))  # a block's intermediates

    def step(self):
        """Update in place, in blocks of leading-axis rows (views for any
        layout): the out-of-place formula's operations in the same order, so
        the same bits, with block-sized scratch instead of temporaries."""
        self.t += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradError(name)
            arrays = [np.atleast_1d(a) for a in (p.values, p.grad, self.m[name], self.v[name])]
            for lo in range(0, len(arrays[0]), self._rows[name]):
                x, g, m, v = (a[lo:lo + self._rows[name]] for a in arrays)
                s1, s2 = (buf[:m.size].reshape(m.shape) for buf in self._scratch)
                if self.weight_decay:
                    x *= 1.0 - lr * self.weight_decay
                m *= b1  # m = b1 * m + (1 - b1) * g
                m += np.multiply(1.0 - b1, g, out=s1)
                v *= b2  # v = b2 * v + (1 - b2) * g * g
                v += np.multiply(np.multiply(1.0 - b2, g, out=s1), g, out=s1)
                np.divide(m, 1.0 - b1**self.t, out=s1)  # m_hat
                np.divide(v, 1.0 - b2**self.t, out=s2)  # v_hat
                s1 *= lr  # p -= lr * m_hat / (sqrt(v_hat) + eps)
                np.add(np.sqrt(s2, out=s2), self.eps, out=s2)
                x -= np.divide(s1, s2, out=s1)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def grad_check(model_fn, params, step=1e-5, tolerance=1e-4):
    """Compare tape gradients of ``model_fn()`` against central differences.

    ``model_fn`` must be deterministic and read the parameters in ``params``
    (a name -> Tensor dict) by reference. Returns a report dict with the max
    relative error per parameter; relative error uses a unit floor so that
    near-zero gradients are compared absolutely.
    """
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = model_fn()
        backward(loss, tape)
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
                for k, p in params.items()}

    errors = {}
    for name, p in params.items():
        flat = p.values.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = float(model_fn().values)
            flat[i] = orig - step
            dn = float(model_fn().values)
            flat[i] = orig
            numeric = (up - dn) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
        errors[name] = worst

    return {
        "max_rel_error": errors,
        "tolerance": tolerance,
        "failed": sorted(k for k, e in errors.items() if e > tolerance),
        "passed": all(e <= tolerance for e in errors.values()),
    }
