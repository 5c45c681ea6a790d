"""Generative models fitted inside the optimization loop.

Three model families:

* an MPS Born machine trained by two-site sweeps of gradient descent on
  the negative log-likelihood (merge a neighboring pair, step the merged
  tensor, split back by truncated SVD),
* a direct-positive MPS updated incrementally by tandem two-site gradient
  ascent on the log-likelihood with projection onto nonnegative entries,
* a chain Bayesian network (Markov chain over bits) fitted by smoothed
  maximum likelihood.

Born sweeps keep the chain in mixed-canonical form so the normalization at
the active pair is exactly the Frobenius norm of the merged tensor; the
positive trainer carries Z as an all-strings column (arXiv:1907.03741).

The Born machine fits the empirical distribution of its training rows
(Han et al., arXiv:1709.01662): its NLL is ``-sum_x w(x) log p(x)`` with
``w(x)`` the fraction of rows equal to ``x``. The trainer keeps one row
per distinct string, weighted by its multiplicity, so every environment
step runs on distinct rows only, and the fit does not depend on the order
of the rows. A pair's amplitudes and data gradient share one copy of the
left environments scattered by pair code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mps import (
    DegenerateModelError,
    EncodingMode,
    Mps,
    _gram_left,
    _gram_right,
    _left_step,
    _qr,
    _random_tensors,
    _right_step,
    canonicalize_split,
    log_probability,
)

_AMP_FLOOR = 1e-290  # guards 1/psi in gradients when a sample has ~zero value


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the two-site sweep trainers.

    One sweep is a down-and-back pass over all neighboring pairs. Bond
    dimensions adapt during Born-machine splits: singular values below
    ``svd_cutoff`` (relative to the largest) are dropped and the rank is
    capped at ``chi_max``.
    """

    learning_rate: float
    chi_max: int
    sweeps: int = 1
    svd_cutoff: float = 1e-6

    def __post_init__(self):
        if not self.learning_rate >= 0:  # NaN too
            raise ValueError("learning_rate must be >= 0")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        if not self.svd_cutoff >= 0:
            raise ValueError("svd_cutoff must be >= 0")


def _as_data(data) -> np.ndarray:
    """C-contiguous int8 rows of a nonempty (n, N) array of exact 0s and 1s.

    Values are checked as given, before any cast, so 0.5 or 256 is rejected
    rather than truncated or wrapped; int8 rows come back uncopied. Read as
    unsigned bytes, int8 rows are binary when their largest byte is at most 1
    (-1 reads as 255): the bank's check, a few times faster than comparing.
    """
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("training data must be a nonempty (n, N) bit array")
    if data.dtype == np.int8:
        binary = not data.size or np.maximum.reduce(data.view(np.uint8), axis=None) <= 1
    else:
        binary = ((data == 0) | (data == 1)).all()
    if not binary:
        raise ValueError("training data must be binary")
    return np.ascontiguousarray(data, dtype=np.int8)


def _right_canonicalize(tensors: list[np.ndarray]) -> list[np.ndarray]:
    """Make sites 1..N-1 right-isometric and normalize the chain to Z = 1."""
    out = list(tensors)  # sites are only rebound below, so no copies
    for i in range(len(out) - 1, 0, -1):
        chi_l, _, chi_r = out[i].shape
        mat = out[i].reshape(chi_l, 2 * chi_r)
        q, r = _qr(mat.T)
        k = q.shape[1]
        out[i] = np.ascontiguousarray(q.T.reshape(k, 2, chi_r))
        out[i - 1] = out[i - 1] @ r.T
    flat = out[0].reshape(-1)
    norm = math.sqrt(flat.dot(flat))
    if norm == 0.0:
        raise DegenerateModelError("cannot canonicalize an all-zero network")
    out[0] = out[0] / norm
    return out


def _merge(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sites a (chi_l, 2, chi_k) and b (chi_k, 2, chi_r) as matrices, and their merged pair.

    Returns ``(A, B, A @ B)`` with A (chi_l*2, chi_k) and B (chi_k, 2*chi_r):
    the two-site tensor sum_k a[:, s, k] b[k, t, :] as a (chi_l*2, 2*chi_r)
    matrix, and the site matrices a pair update reuses.
    """
    a, b = a.reshape(-1, a.shape[2]), b.reshape(b.shape[0], -1)
    return a, b, a @ b


def pair_onehots(bits: np.ndarray) -> np.ndarray:
    """One-hots of every pair's codes ``2 x_i + x_{i+1}``, shape (N-1, 4, 1, n).

    Entry ``[i, c, 0, b]`` says that row b has code c at pair (i, i+1).
    """
    return (2 * bits[:, :-1] + bits[:, 1:]).T[:, None, None, :] == np.arange(4)[:, None, None]


def _pair_data_gradient(lx: np.ndarray, weighted: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """sum_b lx[:, b] (x) weighted[:, b] scattered to the pair's bits, a (chi_l*2, 2*chi_r) matrix.

    ``lx`` is (chi_l, n) and ``weighted`` (chi_r, n), one string per column.
    ``onehot`` (4, 1, n) is the pair's entry of :func:`pair_onehots`; string
    b contributes only to the block ``[:, x_i, x_{i+1}, :]`` its bits select.
    Only the positive trainer uses this and :func:`_pair_amplitudes`: it is frozen bit for
    bit against ``tests/positive_oracle.py``, and the Born kernel's products sum in another order.
    """
    chi_r, n = weighted.shape
    scattered = np.where(onehot, weighted, 0.0).reshape(4 * chi_r, n)
    return (lx @ scattered.T).reshape(2 * lx.shape[0], 2 * chi_r)


def _pair_amplitudes(theta: np.ndarray, lx: np.ndarray, rx: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Sum over the true codes of ``onehot`` (4, 1, n) of lx^T theta rx, one value per column.

    ``theta`` is the merged pair as a (chi_l, 2, 2, chi_r) tensor or as its (chi_l*2, 2*chi_r) matrix.
    """
    per_code = (theta.reshape(lx.shape[0], -1).T @ lx).reshape(4, rx.shape[0], lx.shape[1])
    per_code *= rx
    return np.add.reduce(np.where(onehot[:, 0], np.add.reduce(per_code, 1), 0.0), 0)


def _coded_amplitudes(theta: np.ndarray, lx: np.ndarray, rx: np.ndarray, onehot: np.ndarray):
    """Born amplitudes of a pair, and ``coded`` (4*chi_l, n): string b's ``lx`` column in the
    block of its code ``2 x_i + x_{i+1}``, zeros elsewhere, so one product with theta gives every psi.
    """
    coded = np.where(onehot, lx, 0.0).reshape(-1, lx.shape[1])
    y = theta.reshape(lx.shape[0], 4, -1).transpose(2, 1, 0).reshape(rx.shape[0], -1) @ coded
    y *= rx
    return np.add.reduce(y, 0), coded


def pair_nll_gradient(
    theta: np.ndarray,
    lx: np.ndarray,
    rx: np.ndarray,
    onehot: np.ndarray,
    la: np.ndarray | None = None,
    rb: np.ndarray | None = None,
    w: np.ndarray | None = None,
) -> np.ndarray:
    """Analytic gradient of the Born-machine NLL w.r.t. a merged pair.

    The NLL is over the empirical distribution of the rows,
    ``-2 sum_b w[b] log|psi(x_b)| + log Z``. Rows with weights summing to
    1 give the same gradient as the rows repeated in proportion to their
    weights, in any order; the data term is one product of the weighted
    right environments with the coded left ones of :func:`_coded_amplitudes`.

    Args:
        theta: merged two-site tensor (chi_l, 2, 2, chi_r).
        lx, rx: per-string left/right environments, one string per column,
            shapes (chi_l, n) and (chi_r, n).
        onehot: the pair's one-hot codes, shape (4, 1, n), its entry of
            :func:`pair_onehots`; ``onehot[c, 0, b]`` says that string b
            has bits ``(x_i, x_j) = divmod(c, 2)``.
        la, rb: bond Gram matrices of the rest of the chain; ``None`` means
            identity (mixed-canonical gauge), in which case Z = ||theta||^2.
        w: per-row weights summing to 1; ``None`` means uniform ``1/n``.
    """
    chi_l, n = lx.shape
    if w is None:
        w = np.full(n, 1.0 / n)
    amps, coded = _coded_amplitudes(theta, lx, rx, onehot)
    safe = np.where(np.abs(amps) < _AMP_FLOOR, _AMP_FLOOR, amps)

    if la is None:
        z = float(np.vdot(theta, theta))
        half = theta
    else:
        half = np.tensordot(la, theta, axes=(1, 0)) @ rb.T
        z = float(np.vdot(half, theta))
    if z <= 0.0:
        raise DegenerateModelError("normalization vanished during training")
    grad_z = (2.0 / z) * half

    grad_data = (coded @ (rx * (w / safe)).T).reshape(4, chi_l, -1).transpose(1, 0, 2).reshape(theta.shape)
    return -2.0 * grad_data + grad_z


def merge_pair(m: Mps, i: int) -> np.ndarray:
    """Merged tensor of sites (i, i+1), shape (chi_l, 2, 2, chi_r)."""
    if not 0 <= i < m.n_sites - 1:
        raise ValueError(f"pair index {i} out of range")
    a, b = m.tensors[i], m.tensors[i + 1]
    return _merge(a, b)[2].reshape(a.shape[0], 2, 2, b.shape[2])


def born_pair_environments(
    m: Mps, i: int, data
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact environments (lx, rx, la, rb) around pair (i, i+1), any gauge.

    Unscaled, for small chains: lx (chi_l, n) and rx (chi_r, n) hold one
    string per column; la and rb are the (chi, chi) bond Gram matrices.
    """
    bits = _as_data(data)
    n = bits.shape[0]
    is_one = (bits.T == 1)[:, None, :]
    lx, la = np.ones((1, n)), np.ones((1, 1))
    for j in range(i):
        lx = _left_step(lx, m.tensors[j], is_one[j])
        la = _gram_left(la, m.tensors[j])
    rx, rb = np.ones((1, n)), np.ones((1, 1))
    for j in range(m.n_sites - 1, i + 1, -1):
        rx = _right_step(m.tensors[j], is_one[j], rx)
        rb = _gram_right(m.tensors[j], rb)
    return lx, rx, la, rb


def born_pair_gradient(m: Mps, i: int, data) -> tuple[float, np.ndarray]:
    """NLL and analytic gradient w.r.t. the merged tensor of pair (i, i+1).

    The NLL, ``-2 mean_b log|psi(x_b)| + log Z``, is read at the pair, so
    it is the model's mean NLL over the rows in any gauge.
    """
    if m.mode is not EncodingMode.AMPLITUDE:
        raise ValueError("Born-machine gradients require an amplitude-mode model")
    bits = _as_data(data)
    lx, rx, la, rb = born_pair_environments(m, i, bits)
    theta = merge_pair(m, i)
    onehot = pair_onehots(bits[:, i : i + 2])[0]
    grad = pair_nll_gradient(theta, lx, rx, onehot, la, rb)
    amps = np.abs(_coded_amplitudes(theta, lx, rx, onehot)[0])
    z = float(np.vdot(np.tensordot(la, theta, axes=(1, 0)) @ rb.T, theta))
    return -2.0 * float(np.mean(np.log(np.maximum(amps, _AMP_FLOOR)))) + math.log(z), grad


def born_nll(m: Mps, data) -> float:
    """Mean negative log-likelihood of the data under a Born machine."""
    bits = _as_data(data)
    return -float(np.mean(log_probability(m, bits)))


def _sweep_pair_schedule(n_sites: int):
    """Down-and-back pair visits with the SVD-weight direction for each.

    Yields (pair_index, absorb_side). The side that keeps the singular
    values is also the way the sweep moves, so it names the cached
    environment to advance after the split.
    """
    last = n_sites - 2
    for i in range(last):
        yield i, "right"
    yield last, "left"
    for i in range(last - 1, -1, -1):
        yield i, "left"


def train_born_machine(data, cfg: TrainConfig, init: Mps | None = None, rng=None) -> Mps:
    """Fit an MPS Born machine by DMRG-style two-site NLL descent.

    Each sweep walks all neighboring pairs down and back; at every pair the
    two tensors are merged, one gradient step is applied to the merged
    tensor, the network is renormalized to Z = 1, and the pair is split by
    truncated SVD (``cfg.chi_max``, ``cfg.svd_cutoff``).

    The rows are reduced once to their distinct strings, in byte order,
    each weighted by its share of the rows, so the fit is the same for any
    order of the rows and its environments cost O(distinct rows). Their
    bit masks and pair one-hots are built once per fit, not once per pair.

    Args:
        data: (n, N) bit array, n >= 1.
        cfg: training settings.
        init: starting model, for a warm start; ``None`` starts from
            ``random_init(width, cfg.chi_max, AMPLITUDE, rng)``.
        rng: generator or seed for the fresh random start.

    Returns:
        Trained amplitude-mode model with Z = 1.

    Raises:
        DegenerateModelError: a gradient step left the merged tensor of a
            pair zero or non-finite; the message names the pair.
    """
    bits = _as_data(data)
    n, width = bits.shape
    if width < 2:
        raise ValueError("two-site training needs at least 2 sites")
    keys = bits.view(f"V{width}").ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    bits, w = bits[first], counts / n
    n = bits.shape[0]
    is_one = (bits.T == 1)[:, None, :]
    onehots = pair_onehots(bits)
    if init is None:
        start = _random_tensors(width, cfg.chi_max, EncodingMode.AMPLITUDE, np.random.default_rng(rng))
    else:
        if init.mode is not EncodingMode.AMPLITUDE:
            raise ValueError("init must be an amplitude-mode model")
        if init.n_sites != width:
            raise ValueError("init size does not match data width")
        start = list(init.tensors)
    tensors = _right_canonicalize(start)
    with np.errstate(over="ignore"):  # an overflowing step fails the finiteness check below
        for _ in range(cfg.sweeps):
            # right environments over sites j.. for the current tensors
            rx = [None] * width + [np.ones((1, n))]
            for j in range(width - 1, 1, -1):
                rx[j] = _right_step(tensors[j], is_one[j], rx[j + 1])
            lx = [np.ones((1, n))] + [None] * (width - 1)

            for i, absorb in _sweep_pair_schedule(width):
                a, b = tensors[i], tensors[i + 1]
                theta = _merge(a, b)[2].reshape(a.shape[0], 2, 2, b.shape[2])
                theta = theta - cfg.learning_rate * pair_nll_gradient(theta, lx[i], rx[i + 2], onehots[i], w=w)
                flat = theta.reshape(-1)
                norm = math.sqrt(flat.dot(flat))  # np.linalg.norm's own formula, without its wrapper
                if not math.isfinite(norm):
                    raise DegenerateModelError(f"pair {i}: merged tensor is non-finite after a gradient step")
                if norm == 0.0:
                    raise DegenerateModelError(f"pair {i}: merged tensor trained to zero")
                theta /= norm
                left, right = canonicalize_split(theta, cfg.chi_max, cfg.svd_cutoff, absorb=absorb)
                tensors[i], tensors[i + 1] = left, right
                if absorb == "right":
                    lx[i + 1] = _left_step(lx[i], left, is_one[i])
                elif i:  # the sweep ends at pair 0, and nothing reads rx[1]
                    rx[i + 1] = _right_step(right, is_one[i + 1], rx[i + 2])

    return Mps(tuple(tensors), EncodingMode.AMPLITUDE, cfg.chi_max)


def _sum_step(v: np.ndarray, t: np.ndarray, is_one: np.ndarray) -> np.ndarray:
    """:func:`_left_step` of the positive trainer, each column scaled to largest entry 1.

    The last column, the all-strings sum whose pair amplitude is Z, is
    masked as bit 0 and also takes bit 1. Through ``t.transpose(2, 1, 0)``
    it is :func:`_right_step` through ``t``, bit for bit.
    """
    out = _left_step(v, t, is_one)
    z = out[:, -1]
    z += t[:, 1, :].T @ v[:, -1]
    scale = np.maximum.reduce(out, 0)  # environments are nonnegative: a column's largest entry is its scale
    if np.count_nonzero(scale) < scale.size:
        raise DegenerateModelError("a training sample has zero value under the model")
    out /= scale
    return out


def train_positive_mps(data, cfg: TrainConfig, init: Mps, *, held: list | None = None) -> Mps:
    """Incrementally update a direct-positive MPS by log-likelihood ascent.

    Each sweep visits neighboring pairs down and back and updates the two
    site tensors in tandem: both gradients are evaluated at the current
    parameters, both tensors are stepped, and entries are clamped at zero
    (projected ascent). Bond dimensions never change and a zero learning
    rate leaves the model untouched, so the update is genuinely
    incremental.

    Z sums the chain over all strings, so every (chi, n + 1) environment
    carries it as column n beside the rows, masked as bit 0 in a step that
    also adds its bit-1 product; its pair amplitude is Z. The gradient's -Z
    term is column n of the data product, weighted -1/Z at all four codes.

    The sites live in one fresh flat buffer, so the two sites of a pair are
    adjacent and are stepped, clamped and checked as one array.

    A sweep's back pass leaves the right environments of the tensors it
    returns, the very values the next sweep's opening pass would compute;
    a second sweep reuses them. ``held``, the caller's run state, carries
    them to the next fit: a list ``[model, rows, rx]`` that a successful
    fit overwrites with the model it returns, a copy of its checked int8
    rows and those environments. The next fit reuses them only when
    ``init`` is that very model and its rows are equal to those, in the
    same order; otherwise (or with ``held=None``) it recomputes them. Either
    way the result is the same, bit for bit.

    Raises:
        DegenerateModelError: Z or a row's value vanished, or a step left a
            site tensor non-finite; the latter names the pair.
    """
    bits = _as_data(data)
    n, width = bits.shape
    if init is None or init.mode is not EncodingMode.DIRECT_POSITIVE:
        raise ValueError("positive-MPS training starts from a direct-positive init")
    if init.n_sites != width:
        raise ValueError("init size does not match data width")
    if width < 2:
        raise ValueError("two-site training needs at least 2 sites")
    # sites are views into one fresh buffer; site i spans buf[bounds[i]:bounds[i + 1]]
    buf = np.concatenate([t.ravel() for t in init.tensors])
    bounds = [0]
    for t in init.tensors:
        bounds.append(bounds[-1] + t.size)
    tensors = [buf[lo:hi].reshape(t.shape) for lo, hi, t in zip(bounds, bounds[1:], init.tensors)]
    scratch = np.empty(max(hi - lo for lo, hi in zip(bounds, bounds[2:])))
    is_one = np.append(bits.T == 1, np.zeros((width, 1), dtype=bool), axis=1)[:, None, :]
    onehots = np.append(pair_onehots(bits), np.ones((width - 1, 4, 1, 1), dtype=bool), axis=3)
    column_scale = np.append(np.full(n, float(n)), -1.0)  # rows weigh 1/(n psi), the sum -1/Z
    lr = cfg.learning_rate
    # a copy, so a failed fit leaves the held list as it was
    rx = list(held[2]) if held is not None and held[0] is init and np.array_equal(held[1], bits) else None

    for _ in range(cfg.sweeps):
        if rx is None:  # right environments over sites j.. for the current tensors
            rx = [None] * width + [np.ones((1, n + 1))]
            for j in range(width - 1, 1, -1):
                rx[j] = _sum_step(rx[j + 1], tensors[j].transpose(2, 1, 0), is_one[j])
        lx = [np.ones((1, n + 1))] + [None] * (width - 1)

        for i, absorb in _sweep_pair_schedule(width):
            ti, tj = tensors[i], tensors[i + 1]
            a, b, theta = _merge(ti, tj)
            amps = _pair_amplitudes(theta, lx[i], rx[i + 2], onehots[i])
            if amps[n] <= 0.0:
                raise DegenerateModelError("normalization vanished during training")
            weights = np.maximum(amps, _AMP_FLOOR)
            weights *= column_scale
            grad = _pair_data_gradient(lx[i], rx[i + 2] / weights, onehots[i])

            # chain rule through theta = T_i T_j, then the projected step T + lr * grad, clamped at 0,
            # on both sites at once: their entries are adjacent in buf and in the scratch array
            lo, mid, hi = bounds[i], bounds[i + 1], bounds[i + 2]
            step = scratch[: hi - lo]
            np.matmul(grad, b.T, out=step[: mid - lo].reshape(a.shape))
            np.matmul(a.T, grad, out=step[mid - lo :].reshape(b.shape))
            step *= lr
            step += buf[lo:hi]
            np.maximum(step, 0.0, out=step)
            # Entries are now nonnegative, +inf or NaN, so a finite largest entry means finite entries.
            if not math.isfinite(np.maximum.reduce(step, None)):
                raise DegenerateModelError(f"pair {i}: site tensor is non-finite after a gradient step")
            buf[lo:hi] = step  # ti and tj are views into buf: they now hold the stepped sites

            # The last step, rx[1], is never read but its check is: it fails a fit whose
            # final update zeroes a training row, so it is not skipped.
            if absorb == "right":
                lx[i + 1] = _sum_step(lx[i], ti, is_one[i])
            else:
                rx[i + 1] = _sum_step(rx[i + 2], tj.transpose(2, 1, 0), is_one[i + 1])

    out = Mps(tuple(tensors), EncodingMode.DIRECT_POSITIVE, init.chi_max)
    if held is not None:
        held[:] = out, bits.copy(), rx
    return out


# --- chain Bayesian network --------------------------------------------------


@dataclass(frozen=True)
class ChainBayes:
    """Markov chain over bits: p(x) = p(x_1) prod_i p(x_{i+1} | x_i).

    ``conditionals[i, a, b]`` is p(x_{i+2} = a | x_{i+1} = b); every column
    of every table sums to 1.
    """

    p_first: np.ndarray
    conditionals: np.ndarray
    smoothing: float

    def __post_init__(self):
        p_first = np.asarray(self.p_first, dtype=np.float64)
        cond = np.asarray(self.conditionals, dtype=np.float64)
        if p_first.shape != (2,):
            raise ValueError("p_first must have shape (2,)")
        if cond.ndim != 3 or cond.shape[1:] != (2, 2):
            raise ValueError("conditionals must have shape (N-1, 2, 2)")
        # every check is written so that NaN fails it
        if not self.smoothing >= 0:
            raise ValueError("smoothing must be >= 0")
        for arr, what in ((p_first, "p_first"), (cond, "conditionals")):
            if not ((arr >= -1e-12) & (arr <= 1 + 1e-12)).all():
                raise ValueError(f"{what} entries must lie in [0, 1]")
        if not abs(p_first.sum() - 1.0) <= 1e-9:
            raise ValueError("p_first must sum to 1")
        if cond.size and not np.abs(cond.sum(axis=1) - 1.0).max() <= 1e-9:
            raise ValueError("conditional table columns must sum to 1")
        object.__setattr__(self, "p_first", p_first)
        object.__setattr__(self, "conditionals", cond)

    @property
    def n_sites(self) -> int:
        return self.conditionals.shape[0] + 1


def fit_chain_bayes(data, smoothing: float = 1.0) -> ChainBayes:
    """Maximum-likelihood chain fit with additive (Laplace) smoothing.

    With smoothing 0 this is the exact MLE; a conditioning value that never
    occurs gets a uniform column.
    """
    bits = _as_data(data)
    n, width = bits.shape
    ones_first = bits[:, 0].sum()
    p_first = np.array([n - ones_first + smoothing, ones_first + smoothing], dtype=np.float64)
    p_first /= n + 2.0 * smoothing

    cond = np.empty((width - 1, 2, 2))
    # column sums of the 0/1 bytes, in the narrowest type n cannot overflow
    on = bits.view(np.uint8)
    acc = np.uint16 if n < 2**16 else np.int64
    ones = np.add.reduce(on, axis=0, dtype=acc).astype(np.float64)
    n_11 = np.add.reduce(on[:, :-1] & on[:, 1:], axis=0, dtype=acc).astype(np.float64)  # x_i = x_{i+1} = 1
    ones_prev, ones_next = ones[:-1], ones[1:]
    # (count of x_i = b, count of x_i = b and x_{i+1} = 1), for b = 0 and 1; exact integers
    counts = ((n - ones_prev, ones_next - n_11), (ones_prev, n_11))
    for b, (n_b, n_b1) in enumerate(counts):
        denom = n_b + 2.0 * smoothing
        with np.errstate(invalid="ignore", divide="ignore"):
            p1 = np.where(denom > 0, (n_b1 + smoothing) / denom, 0.5)
        cond[:, 1, b] = p1
        cond[:, 0, b] = 1.0 - p1
    return ChainBayes(p_first, cond, smoothing)


def sample_chain_bayes(b: ChainBayes, rng, size: int | None = None) -> np.ndarray:
    """Ancestral sampling along the chain."""
    rng = np.random.default_rng(rng)
    batch = 1 if size is None else int(size)
    if batch < 1:
        raise ValueError("size must be >= 1")
    # one draw in site-major order is the same stream as one draw per site
    u = rng.random((b.n_sites, batch))
    p1 = np.vstack((b.p_first[[1, 1]], b.conditionals[:, 1, :]))  # p(x_i = 1 | x_{i-1} = 0, 1)
    # 8 strings per byte: site i's bit if the previous bit is 0, and where a previous 1 flips it
    bits_t = np.packbits(u < p1[:, :1], axis=1)
    flip = bits_t ^ np.packbits(u < p1[:, 1:], axis=1)
    # x_i = bits_t_i ^ (flip_i & x_{i-1}). Compose these maps by doubling: after the pass
    # of stride s, entry i maps x_{i-2s} to x_i. Site 0 has flip 0, so once a map
    # reaches back to it, it is constant: the drawn bits.
    s = 1
    while s < b.n_sites:
        bits_t[s:] ^= flip[s:] & bits_t[:-s]
        flip[s:] &= flip[:-s]
        s *= 2
    bits = np.ascontiguousarray(np.unpackbits(bits_t, axis=1, count=batch).T).view(np.int8)
    return bits[0] if size is None else bits


def chain_bayes_log_probability(b: ChainBayes, x) -> np.ndarray | float:
    bits = np.asarray(x)
    single = bits.ndim == 1
    if single:
        bits = bits[None, :]
    if bits.shape[1] != b.n_sites:
        raise ValueError(f"expected bit strings of length {b.n_sites}")
    bits = bits.astype(np.intp, copy=False)
    with np.errstate(divide="ignore"):
        logp = np.log(b.p_first[bits[:, 0]])
        for i in range(b.n_sites - 1):
            logp += np.log(b.conditionals[i, bits[:, i + 1], bits[:, i]])
    return float(logp[0]) if single else logp


# --- finite target distributions ----------------------------------------------


@dataclass(frozen=True)
class FiniteDistribution:
    """Distribution with finite support: unique strings plus probabilities."""

    strings: np.ndarray  # (M, N)
    probs: np.ndarray  # (M,)

    def __post_init__(self):
        strings = np.asarray(self.strings)
        probs = np.asarray(self.probs, dtype=np.float64)
        if strings.ndim != 2 or probs.ndim != 1 or strings.shape[0] != probs.shape[0]:
            raise ValueError("need (M, N) strings with M probabilities")
        if not (probs >= 0).all():  # NaN fails this
            raise ValueError("probs must be nonnegative numbers")
        if not abs(probs.sum() - 1.0) <= 1e-9:
            raise ValueError("target distribution is not normalized")
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "probs", probs)

    def entropy(self) -> float:
        """Shannon entropy in nats over the support."""
        p = self.probs[self.probs > 0]
        return -float(np.sum(p * np.log(p)))


def model_log_probability(model, x) -> np.ndarray | float:
    """log p(x) under an MPS (either encoding) or a ChainBayes model."""
    if isinstance(model, Mps):
        return log_probability(model, x)
    if isinstance(model, ChainBayes):
        return chain_bayes_log_probability(model, x)
    raise TypeError(f"unsupported model type {type(model).__name__}")
