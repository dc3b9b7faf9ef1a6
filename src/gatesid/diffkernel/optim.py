"""AdamW with decoupled weight decay, plus a finite-difference gradient checker."""

import numpy as np

from .tensor import Tape, backward


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

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradError(name)
            g = p.grad
            if self.weight_decay:
                p.values *= 1.0 - self.lr * self.weight_decay
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / (1.0 - b1**self.t)
            v_hat = self.v[name] / (1.0 - b2**self.t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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
