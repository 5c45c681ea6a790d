"""Frozen copy of the positive-MPS trainer, used only by tests.

``train_positive_mps`` and ``_sum_step`` are ``tneda.models``'s as they
were before the trainer was cut to fewer numpy calls, together with the
helpers they called then (``_merge``, ``_pair_amplitudes``,
``_pair_data_gradient``, ``pair_onehots``, ``_left_step``, the sweep
schedule and the data check), copied here so that the reference does not
move with the code under test. The library must reproduce its tensors bit
for bit, or fail with the same :class:`DegenerateModelError` message.
"""

import math

import numpy as np

from tneda.mps import DegenerateModelError, EncodingMode, Mps

_AMP_FLOOR = 1e-290


def _as_data(data):
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, N) bit array")
    if not ((data == 0) | (data == 1)).all():
        raise ValueError("training data must be binary")
    return np.ascontiguousarray(data, dtype=np.int8)


def _left_step(v, t, is_one):
    return np.where(is_one, t[:, 1, :].T @ v, t[:, 0, :].T @ v)


def _merge(a, b):
    return (a.reshape(-1, a.shape[2]) @ b.reshape(b.shape[0], -1)).reshape(a.shape[0], 2, 2, b.shape[2])


def pair_onehots(bits):
    return (2 * bits[:, :-1] + bits[:, 1:]).T[:, None, None, :] == np.arange(4)[:, None, None]


def _pair_data_gradient(lx, weighted, onehot):
    chi_r, n = weighted.shape
    scattered = np.where(onehot, weighted, 0.0).reshape(4 * chi_r, n)
    return (lx @ scattered.T).reshape(lx.shape[0], 2, 2, chi_r)


def _pair_amplitudes(theta, lx, rx, onehot):
    chi_l, _, _, chi_r = theta.shape
    per_code = (theta.reshape(chi_l, 4 * chi_r).T @ lx).reshape(4, chi_r, lx.shape[1])
    return np.where(onehot[:, 0], (per_code * rx).sum(axis=1), 0.0).sum(axis=0)


def _sweep_pair_schedule(n_sites):
    last = n_sites - 2
    for i in range(last):
        yield i, "right"
    yield last, "left"
    for i in range(last - 1, -1, -1):
        yield i, "left"


def _sum_step(v, t, is_one):
    out = _left_step(v, t, is_one)
    out[:, -1] += t[:, 1, :].T @ v[:, -1]
    scale = out.max(axis=0)
    if not scale.all():
        raise DegenerateModelError("a training sample has zero value under the model")
    return out / scale


def train_positive_mps(data, cfg, init):
    bits = _as_data(data)
    n, width = bits.shape
    if init is None or init.mode is not EncodingMode.DIRECT_POSITIVE:
        raise ValueError("positive-MPS training starts from a direct-positive init")
    if init.n_sites != width:
        raise ValueError("init size does not match data width")
    if width < 2:
        raise ValueError("two-site training needs at least 2 sites")
    tensors = [t.copy() for t in init.tensors]
    is_one = np.append(bits.T == 1, np.zeros((width, 1), dtype=bool), axis=1)[:, None, :]
    onehots = np.append(pair_onehots(bits), np.ones((width - 1, 4, 1, 1), dtype=bool), axis=3)
    column_scale = np.append(np.full(n, float(n)), -1.0)
    lr = cfg.learning_rate

    for _ in range(cfg.sweeps):
        rx = [None] * width + [np.ones((1, n + 1))]
        for j in range(width - 1, 1, -1):
            rx[j] = _sum_step(rx[j + 1], tensors[j].transpose(2, 1, 0), is_one[j])
        lx = [np.ones((1, n + 1))] + [None] * (width - 1)

        for i, absorb in _sweep_pair_schedule(width):
            ti, tj = tensors[i], tensors[i + 1]
            amps = _pair_amplitudes(_merge(ti, tj), lx[i], rx[i + 2], onehots[i])
            if amps[n] <= 0.0:
                raise DegenerateModelError("normalization vanished during training")
            safe = np.maximum(amps, _AMP_FLOOR)
            grad_theta = _pair_data_gradient(lx[i], rx[i + 2] / (safe * column_scale), onehots[i])

            grad_flat = grad_theta.reshape(2 * ti.shape[0], 2 * tj.shape[2])
            grad_i = (grad_flat @ tj.reshape(tj.shape[0], -1).T).reshape(ti.shape)
            grad_j = (ti.reshape(-1, ti.shape[2]).T @ grad_flat).reshape(tj.shape)
            tensors[i] = np.maximum(ti + lr * grad_i, 0.0)
            tensors[i + 1] = np.maximum(tj + lr * grad_j, 0.0)
            if not (math.isfinite(tensors[i].max()) and math.isfinite(tensors[i + 1].max())):
                raise DegenerateModelError(f"pair {i}: site tensor is non-finite after a gradient step")

            if absorb == "right":
                lx[i + 1] = _sum_step(lx[i], tensors[i], is_one[i])
            else:
                rx[i + 1] = _sum_step(rx[i + 2], tensors[i + 1].transpose(2, 1, 0), is_one[i + 1])

    return Mps(tuple(tensors), EncodingMode.DIRECT_POSITIVE, init.chi_max)
