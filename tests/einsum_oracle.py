"""Reference contractions written with ``np.einsum``, used only by tests.

These are the library's kernels as they were before the contraction core
moved to fixed matmul steps: the same algorithms, step for step, but each
contraction spelled as an einsum over gathered ``(chi_l, B, chi_r)``
selections. The kernel-agreement tests compare the library against them
to about 1e-12 relative. ``gram_left`` and ``gram_right`` keep the Born
transfers' nested ``np.tensordot`` form, which the library's matmul form
must equal exactly.

Environments are kept one string per row, (B, chi), as the kernels were
written then. The helpers below are the oracle's own copies, not imports
from ``tneda.models``, so the reference does not move with the layout of
the code under test.
"""

import math

import numpy as np

from tneda.mps import (
    DegenerateModelError,
    EncodingMode,
    Mps,
    canonicalize_split,
    random_init,
)

_AMP_FLOOR = 1e-290


def _normalize_rows(a):
    scale = a.max(axis=1)
    if not scale.all():
        raise DegenerateModelError("a training sample has zero value under the model")
    return a / scale[:, None]


def _normalize_vec(v):
    scale = v.max()
    if scale == 0.0:
        raise DegenerateModelError("normalization vanished during training")
    return v / scale


def _sweep_pair_schedule(n_sites):
    last = n_sites - 2
    for i in range(last):
        yield i, "right", "right"
    yield last, "left", "left"
    for i in range(last - 1, -1, -1):
        yield i, "left", "left"


def _select(t, bits_col):
    return t[:, bits_col, :]


def gram_left(env, t):
    """sum_s T[:, s, :]^T env T[:, s, :] as nested tensordots."""
    return np.tensordot(np.tensordot(env, t, axes=(0, 0)), t, axes=([0, 1], [0, 1]))


def gram_right(t, env):
    """sum_s T[:, s, :] env T[:, s, :]^T as nested tensordots."""
    return np.tensordot(np.tensordot(t, env, axes=(2, 0)), t, axes=([1, 2], [1, 2]))


def log_partition_function(m):
    logscale = 0.0
    if m.mode is EncodingMode.AMPLITUDE:
        env = np.ones((1, 1))
        for t in m.tensors:
            env = np.einsum("ab,asc,bsd->cd", env, t, t, optimize=True)
            scale = np.abs(env).max()
            env /= scale
            logscale += np.log(scale)
        value = env[0, 0]
    else:
        env = np.ones(1)
        for t in m.tensors:
            env = env @ t.sum(axis=1)
            scale = np.abs(env).max()
            env /= scale
            logscale += np.log(scale)
        value = env[0]
    return logscale + np.log(value)


def log_values(m, bits):
    n = bits.shape[0]
    vec = np.ones((n, 1))
    logabs = np.zeros(n)
    sign = np.ones(n)
    for i, t in enumerate(m.tensors):
        vec = np.einsum("bl,lbr->br", vec, _select(t, bits[:, i]), optimize=True)
        scale = np.abs(vec).max(axis=1)
        dead = scale == 0.0
        sign[dead] = 0.0
        safe = np.where(dead, 1.0, scale)
        vec /= safe[:, None]
        with np.errstate(divide="ignore"):
            logabs += np.where(dead, -np.inf, np.log(safe))
    final = vec[:, 0]
    sign *= np.sign(final)
    with np.errstate(divide="ignore"):
        logabs += np.where(final == 0.0, -np.inf, np.log(np.abs(np.where(final == 0.0, 1.0, final))))
    return logabs, sign


def log_probability(m, bits):
    bits = np.asarray(bits, dtype=np.intp)
    log_z = log_partition_function(m)
    logabs, sign = log_values(m, bits)
    if m.mode is EncodingMode.AMPLITUDE:
        return np.where(sign == 0.0, -np.inf, 2.0 * logabs - log_z)
    return np.where(sign <= 0.0, -np.inf, logabs - log_z)


def _right_sum_envs(m):
    n = m.n_sites
    envs = [None] * (n + 1)
    if m.mode is EncodingMode.AMPLITUDE:
        envs[n] = np.ones((1, 1))
        for i in range(n - 1, -1, -1):
            t = m.tensors[i]
            env = np.einsum("asb,csd,bd->ac", t, t, envs[i + 1], optimize=True)
            envs[i] = env / np.abs(env).max()
    else:
        envs[n] = np.ones(1)
        for i in range(n - 1, -1, -1):
            env = m.tensors[i].sum(axis=1) @ envs[i + 1]
            envs[i] = env / np.abs(env).max()
    return envs


def perfect_sample(m, rng, size):
    """Ancestral sampler; Born mode carries the (B, chi, chi) matrix v v^T."""
    envs = _right_sum_envs(m)
    bits = np.empty((size, m.n_sites), dtype=np.int8)
    if m.mode is EncodingMode.AMPLITUDE:
        left = np.ones((size, 1, 1))
        for i, t in enumerate(m.tensors):
            kernel = np.einsum("ksm,lsn,mn->kls", t, t, envs[i + 1], optimize=True)
            weights = np.einsum("bkl,kls->bs", left, kernel, optimize=True)
            np.maximum(weights, 0.0, out=weights)
            total = weights.sum(axis=1)
            drawn = (rng.random(size) < weights[:, 1] / total).astype(np.int8)
            bits[:, i] = drawn
            sel = _select(t, drawn)
            half = np.einsum("bkl,kbm->blm", left, sel, optimize=True)
            left = np.einsum("blm,lbn->bmn", half, sel, optimize=True)
            left /= np.abs(left).max(axis=(1, 2))[:, None, None]
    else:
        left = np.ones((size, 1))
        for i, t in enumerate(m.tensors):
            kernel = np.einsum("lsr,r->ls", t, envs[i + 1], optimize=True)
            weights = left @ kernel
            np.maximum(weights, 0.0, out=weights)
            total = weights.sum(axis=1)
            drawn = (rng.random(size) < weights[:, 1] / total).astype(np.int8)
            bits[:, i] = drawn
            left = np.einsum("bl,lbr->br", left, _select(t, drawn), optimize=True)
            left /= np.abs(left).max(axis=1)[:, None]
    return bits


def apply_diffusion(m, p_flip):
    d = np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
    if m.mode is EncodingMode.AMPLITUDE:
        squared = []
        for t in m.tensors:
            chi_l, _, chi_r = t.shape
            p = np.einsum("ayb,cyd->acybd", t, t).reshape(chi_l * chi_l, 2, chi_r * chi_r)
            squared.append(np.einsum("xy,lyr->lxr", d, p))
        return Mps(tuple(squared), EncodingMode.DIRECT, max(m.chi_max**2, 1))
    return Mps(tuple(np.einsum("xy,lyr->lxr", d, t) for t in m.tensors), m.mode, m.chi_max)


def pair_nll_gradient(theta, lx, rx, xi, xj, la=None, rb=None):
    n = lx.shape[0]
    amps = np.einsum("bl,lbr,br->b", lx, theta[:, xi, xj, :], rx, optimize=True)
    safe = np.where(np.abs(amps) < _AMP_FLOOR, _AMP_FLOOR, amps)
    if la is None:
        z = float(np.vdot(theta, theta))
        half = theta
    else:
        half = np.einsum("ab,bstd,cd->astc", la, theta, rb, optimize=True)
        z = float(np.einsum("astc,astc->", half, theta, optimize=True))
    grad_data = np.zeros_like(theta)
    weighted = rx / safe[:, None]
    for s in (0, 1):
        for t in (0, 1):
            mask = (xi == s) & (xj == t)
            if np.any(mask):
                grad_data[:, s, t, :] = lx[mask].T @ weighted[mask]
    nll = -2.0 * float(np.mean(np.log(np.abs(safe)))) + math.log(z)
    return nll, -(2.0 / n) * grad_data + (2.0 / z) * half


def born_pair_environments(m, i, bits):
    n = bits.shape[0]
    lx, la = np.ones((n, 1)), np.ones((1, 1))
    for j in range(i):
        t = m.tensors[j]
        lx = np.einsum("bl,lbr->br", lx, _select(t, bits[:, j]), optimize=True)
        la = np.einsum("ab,asc,bsd->cd", la, t, t, optimize=True)
    rx, rb = np.ones((n, 1)), np.ones((1, 1))
    for j in range(m.n_sites - 1, i + 1, -1):
        t = m.tensors[j]
        rx = np.einsum("lbr,br->bl", _select(t, bits[:, j]), rx, optimize=True)
        rb = np.einsum("asb,csd,bd->ac", t, t, rb, optimize=True)
    return lx, rx, la, rb


def _right_canonicalize(tensors):
    out = [t.copy() for t in tensors]
    for i in range(len(out) - 1, 0, -1):
        chi_l, _, chi_r = out[i].shape
        q, r = np.linalg.qr(out[i].reshape(chi_l, 2 * chi_r).T)
        out[i] = np.ascontiguousarray(q.T.reshape(q.shape[1], 2, chi_r))
        out[i - 1] = np.ascontiguousarray(np.einsum("lsa,ma->lsm", out[i - 1], r))
    out[0] = out[0] / np.linalg.norm(out[0])
    return out


def train_born_machine(bits, cfg, rng):
    """Born-machine sweeps from a fresh random start."""
    n, width = bits.shape
    start = random_init(width, cfg.chi_max, EncodingMode.AMPLITUDE, rng)
    tensors = _right_canonicalize(list(start.tensors))
    for _ in range(cfg.sweeps):
        rx = [None] * (width + 1)
        rx[width] = np.ones((n, 1))
        for j in range(width - 1, 1, -1):
            rx[j] = np.einsum("lbr,br->bl", _select(tensors[j], bits[:, j]), rx[j + 1], optimize=True)
        lx = [None] * width
        lx[0] = np.ones((n, 1))
        for i, absorb, moving in _sweep_pair_schedule(width):
            theta = np.einsum("lsk,ktr->lstr", tensors[i], tensors[i + 1])
            _, grad = pair_nll_gradient(theta, lx[i], rx[i + 2], bits[:, i], bits[:, i + 1])
            theta = theta - cfg.learning_rate * grad
            theta /= np.linalg.norm(theta)
            left, right = canonicalize_split(theta, cfg.chi_max, cfg.svd_cutoff, absorb=absorb)
            tensors[i], tensors[i + 1] = left, right
            if moving == "right":
                lx[i + 1] = np.einsum("bl,lbr->br", lx[i], _select(left, bits[:, i]), optimize=True)
            else:
                rx[i + 1] = np.einsum(
                    "lbr,br->bl", _select(right, bits[:, i + 1]), rx[i + 2], optimize=True
                )
    return Mps(tuple(tensors), EncodingMode.AMPLITUDE, cfg.chi_max)


def train_positive_mps(bits, cfg, init):
    """Tandem projected-ascent sweeps of a direct-positive MPS."""
    n, width = bits.shape
    tensors = [t.copy() for t in init.tensors]
    lr = cfg.learning_rate
    for _ in range(cfg.sweeps):
        rx, rsum = [None] * (width + 1), [None] * (width + 1)
        rx[width], rsum[width] = np.ones((n, 1)), np.ones(1)
        for j in range(width - 1, 1, -1):
            rx[j] = _normalize_rows(
                np.einsum("lbr,br->bl", _select(tensors[j], bits[:, j]), rx[j + 1], optimize=True)
            )
            rsum[j] = _normalize_vec(tensors[j].sum(axis=1) @ rsum[j + 1])
        lx, lsum = [None] * width, [None] * width
        lx[0], lsum[0] = np.ones((n, 1)), np.ones(1)
        for i, _, moving in _sweep_pair_schedule(width):
            ti, tj = tensors[i], tensors[i + 1]
            mid = np.einsum("bl,lbk->bk", lx[i], _select(ti, bits[:, i]), optimize=True)
            amps = np.einsum(
                "bk,kbr,br->b", mid, _select(tj, bits[:, i + 1]), rx[i + 2], optimize=True
            )
            safe = np.maximum(amps, _AMP_FLOOR)
            z = float(lsum[i] @ ti.sum(axis=1) @ tj.sum(axis=1) @ rsum[i + 2])
            if z <= 0.0:
                raise DegenerateModelError("normalization vanished during training")
            grad_theta = np.zeros((ti.shape[0], 2, 2, tj.shape[2]))
            weighted = rx[i + 2] / safe[:, None]
            for s in (0, 1):
                for t in (0, 1):
                    mask = (bits[:, i] == s) & (bits[:, i + 1] == t)
                    if np.any(mask):
                        grad_theta[:, s, t, :] = lx[i][mask].T @ weighted[mask]
            grad_theta /= n
            grad_theta -= np.einsum("l,r->lr", lsum[i], rsum[i + 2])[:, None, None, :] / z
            grad_i = np.einsum("lstr,ktr->lsk", grad_theta, tj, optimize=True)
            grad_j = np.einsum("lstr,lsk->ktr", grad_theta, ti, optimize=True)
            tensors[i] = np.maximum(ti + lr * grad_i, 0.0)
            tensors[i + 1] = np.maximum(tj + lr * grad_j, 0.0)
            if moving == "right":
                lx[i + 1] = _normalize_rows(
                    np.einsum("bl,lbr->br", lx[i], _select(tensors[i], bits[:, i]), optimize=True)
                )
                lsum[i + 1] = _normalize_vec(lsum[i] @ tensors[i].sum(axis=1))
            else:
                rx[i + 1] = _normalize_rows(
                    np.einsum(
                        "lbr,br->bl", _select(tensors[i + 1], bits[:, i + 1]), rx[i + 2], optimize=True
                    )
                )
                rsum[i + 1] = _normalize_vec(tensors[i + 1].sum(axis=1) @ rsum[i + 2])
    return Mps(tuple(tensors), EncodingMode.DIRECT_POSITIVE, init.chi_max)
