"""Matrix product states over binary variables.

An MPS factorizes a function on {0,1}^N into a chain of order-3 tensors
``T[i]`` with shapes ``(chi_{i-1}, 2, chi_i)`` and ``chi_0 = chi_N = 1``.
Depending on the encoding mode the chain represents either amplitudes
(probability = squared value / Z) or probabilities directly (value / Z).

All operations treat :class:`Mps` values as immutable and return new
instances. Contractions run site by site with interleaved renormalization
so partition functions and per-string probabilities stay finite in log
space at any chain length.

Every per-string contraction goes through two fixed matmul steps. A bit
selects the transfer matrix ``T[:, bit, :]`` of its site. A batch is
carried batch-last: left vectors ``v`` (chi_l, B), one string per column,
advance as ``T[:, 0, :].T @ v`` or ``T[:, 1, :].T @ v`` (:func:`_left_step`),
right vectors through the untransposed matrices (:func:`_right_step`), and
a per-string rescale is an elementwise reduction over chi rows. A step
takes its bits as a (1, B) mask "bit is 1", built for all sites once per
call as ``(bits.T == 1)[:, None, :]``. Born-rule sampling carries one
amplitude vector per sample, not ``v v^T``: O(chi^2) per sample and site.

log Z and ancestral sampling share one right-to-left pass over the chain
summed over all strings (:func:`_right_sum_envs`). Only :func:`_summed_chain`
knows the encoding: a Born site sums into a (chi, chi) environment E as
``sum_s T_s E T_s^T`` and weighs a step's left vectors w by ``w^T E w``; a
first-power site sums into a vector e as ``(T_0 + T_1) e``, weighing w by ``e . w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

try:  # numpy 2 names; numpy 1.x splits these gufuncs by shape, so it goes through np.linalg
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced, svd_s as _svd_s
except ImportError:
    _svd_s = _qr_r_raw = _qr_reduced = None
_UPPER: dict[tuple[int, int], np.ndarray] = {}  # upper-triangle masks of R, by shape


class EncodingMode(Enum):
    """How the tensor chain encodes a probability distribution."""

    #: Born rule: p(x) = psi(x)^2 / Z with real amplitudes psi.
    AMPLITUDE = "amplitude"
    #: Probabilities encoded in first power with nonnegative entries.
    DIRECT_POSITIVE = "direct_positive"
    #: First-power encoding without an entrywise sign constraint. Arises
    #: when :func:`apply_diffusion` writes a diffused Born machine as a
    #: probability network on the symmetric pairs of its squared bonds
    #: (bond chi(chi+1)/2); every full contraction is still nonnegative
    #: even though single entries may not be.
    DIRECT = "direct"


class DegenerateModelError(ValueError):
    """The network does not define a normalizable distribution (Z <= 0)."""


@dataclass(frozen=True)
class Mps:
    """Immutable matrix product state.

    Args:
        tensors: order-3 arrays with shapes ``(chi_{i-1}, 2, chi_i)``,
            boundary bonds of size 1.
        mode: encoding mode.
        chi_max: largest bond dimension the network is allowed to carry.
    """

    tensors: tuple[np.ndarray, ...]
    mode: EncodingMode
    chi_max: int

    def __post_init__(self):
        tensors = tuple(np.ascontiguousarray(t, dtype=np.float64) for t in self.tensors)
        if len(tensors) < 1:
            raise ValueError("an MPS needs at least one site")
        if self.chi_max < 1:
            raise ValueError("chi_max must be >= 1")
        for i, t in enumerate(tensors):
            if t.ndim != 3 or t.shape[1] != 2:
                raise ValueError(f"site {i}: expected shape (chi_l, 2, chi_r), got {t.shape}")
        entries = np.concatenate([t.ravel() for t in tensors])
        if not np.isfinite(entries).all():
            bad = next(i for i, t in enumerate(tensors) if not np.isfinite(t).all())
            raise ValueError(f"site {bad}: non-finite entries")
        if tensors[0].shape[0] != 1 or tensors[-1].shape[2] != 1:
            raise ValueError("boundary bond dimensions must be 1")
        for i in range(len(tensors) - 1):
            if tensors[i].shape[2] != tensors[i + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {i} and {i + 1}")
        if any(max(t.shape[0], t.shape[2]) > self.chi_max for t in tensors):
            raise ValueError("bond dimension exceeds chi_max")
        if self.mode is EncodingMode.DIRECT_POSITIVE and (entries < 0).any():
            raise ValueError("direct-positive mode requires nonnegative entries")
        for t in tensors:
            t.flags.writeable = False
        object.__setattr__(self, "tensors", tensors)

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Bond sizes ``(chi_0, chi_1, ..., chi_N)`` including boundaries."""
        return (1,) + tuple(t.shape[2] for t in self.tensors)


def random_init(n_sites: int, chi: int, mode: EncodingMode, seed) -> Mps:
    """Random MPS with all interior bonds of size ``chi``.

    Amplitude entries are iid uniform on [-1, 1]; direct-positive entries
    iid uniform on (0, 1]. Deterministic for a fixed seed.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if chi < 1:
        raise ValueError("chi must be >= 1")
    return Mps(tuple(_random_tensors(n_sites, chi, mode, np.random.default_rng(seed))), mode, chi)


def _random_tensors(n_sites: int, chi: int, mode: EncodingMode, rng: np.random.Generator) -> list[np.ndarray]:
    """The site tensors :func:`random_init` draws from ``rng``, unvalidated."""
    dims = [1] + [chi] * (n_sites - 1) + [1]
    tensors = []
    for i in range(n_sites):
        shape = (dims[i], 2, dims[i + 1])
        if mode is EncodingMode.AMPLITUDE:
            t = rng.uniform(-1.0, 1.0, size=shape)
        else:
            # 1 - U[0,1) lands in (0, 1], keeping entries strictly positive.
            t = 1.0 - rng.random(size=shape)
        tensors.append(t)
    return tensors


def _bits_2d(x, n_sites: int) -> tuple[np.ndarray, bool]:
    """Validate bit input and return it as an int (B, N) array."""
    bits = np.asarray(x)
    single = bits.ndim == 1
    if single:
        bits = bits[None, :]
    if bits.ndim != 2 or bits.shape[1] != n_sites:
        raise ValueError(f"expected bit strings of length {n_sites}, got shape {np.asarray(x).shape}")
    bits = bits.astype(np.intp, copy=False)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bit strings must contain only 0s and 1s")
    return bits, single


def _left_step(v: np.ndarray, t: np.ndarray, is_one: np.ndarray) -> np.ndarray:
    """Advance left vectors (chi_l, B) through site ``t``; ``is_one`` (1, B) marks bit 1: (chi_r, B)."""
    return np.where(is_one, t[:, 1, :].T @ v, t[:, 0, :].T @ v)


def _right_step(t: np.ndarray, is_one: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Advance right vectors (chi_r, B) through site ``t``; ``is_one`` (1, B) marks bit 1: (chi_l, B)."""
    return np.where(is_one, t[:, 1, :] @ v, t[:, 0, :] @ v)


def _gram_left(env: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_s T[:, s, :]^T env T[:, s, :], the Born left transfer, (chi_r, chi_r)."""
    chi_r = t.shape[2]
    return (env.T @ t.reshape(t.shape[0], -1)).reshape(-1, chi_r).T @ t.reshape(-1, chi_r)


def _gram_right(t: np.ndarray, env: np.ndarray) -> np.ndarray:
    """sum_s T[:, s, :] env T[:, s, :]^T, the Born right transfer, (chi_l, chi_l)."""
    chi_l = t.shape[0]
    return (t.reshape(-1, t.shape[2]) @ env).reshape(chi_l, -1) @ t.reshape(chi_l, -1).T


def _summed_chain(mode: EncodingMode):
    """Right transfer, boundary and step weight of the chain summed over all strings.

    ``weight(env, w)`` turns a site's stacked left vectors w (2, chi_r, B) and
    the right environment past the site into the marginals (2, B) of its bits.
    """
    if mode is EncodingMode.AMPLITUDE:
        return _gram_right, np.ones((1, 1)), lambda env, w: ((env @ w) * w).sum(axis=1)
    return lambda t, env: t.sum(axis=1) @ env, np.ones(1), lambda env, w: env @ w


def _right_sum_envs(m: Mps) -> tuple[list[np.ndarray], float]:
    """Right environments of the summed chain, each scaled to largest entry 1, and log Z.

    The logs of the scales add up to log Z. Raises :class:`DegenerateModelError` when Z <= 0.
    """
    transfer, env, _ = _summed_chain(m.mode)
    envs = [env]
    log_z = 0.0
    for t in reversed(m.tensors):
        env = transfer(t, env)
        scale = np.abs(env).max()
        if scale == 0.0:
            raise DegenerateModelError("partition function is zero")
        env /= scale
        log_z += np.log(scale)
        envs.append(env)
    if env.flat[0] <= 0.0:
        raise DegenerateModelError("partition function is not positive")
    return envs[::-1], log_z


def log_partition_function(m: Mps) -> float:
    """log Z by sequential transfer contraction, O(N chi^3); Z <= 0 raises :class:`DegenerateModelError`.

    Runs right to left, in the same pass that gives the sampling environments.
    """
    return _right_sum_envs(m)[1]


def partition_function(m: Mps) -> float:
    """Z = sum over all 2^N strings of the encoded (squared) values."""
    return float(np.exp(log_partition_function(m)))


def _log_values(m: Mps, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-string chain values in log space.

    Returns (log|v|, sign) with sign in {-1, 0, 1}; log|v| is -inf where
    the value is exactly zero.
    """
    n = bits.shape[0]
    is_one = (bits.T == 1)[:, None, :]
    vec = np.ones((1, n))
    logabs = np.zeros(n)
    sign = np.ones(n)
    for i, t in enumerate(m.tensors):
        vec = _left_step(vec, t, is_one[i])
        scale = np.abs(vec).max(axis=0)
        if not scale.all():  # rare: strings of value zero are marked and divided by 1
            dead = scale == 0.0
            sign[dead] = 0.0
            logabs[dead] = -np.inf
            scale[dead] = 1.0
        vec /= scale
        logabs += np.log(scale)
    final = vec[0]
    sign *= np.sign(final)
    logabs += np.where(final == 0.0, -np.inf, np.log(np.abs(np.where(final == 0.0, 1.0, final))))
    return logabs, sign


def log_probability(m: Mps, x) -> np.ndarray | float:
    """log p(x); -inf for strings of probability zero.

    Accepts a single length-N bit string or a (B, N) batch.
    """
    bits, single = _bits_2d(x, m.n_sites)
    log_z = log_partition_function(m)
    logabs, sign = _log_values(m, bits)
    if m.mode is EncodingMode.AMPLITUDE:
        logp = 2.0 * logabs - log_z
        logp = np.where(sign == 0.0, -np.inf, logp)
    else:
        # Tiny negative chain values in DIRECT mode are contraction
        # round-off of a mathematically nonnegative function.
        logp = np.where(sign <= 0.0, -np.inf, logabs - log_z)
    return float(logp[0]) if single else logp


def probability(m: Mps, x) -> np.ndarray | float:
    """p(x) in [0, 1] for one bit string or a (B, N) batch."""
    out = np.exp(log_probability(m, x))
    return float(out) if np.isscalar(out) or out.ndim == 0 else out


def perfect_sample(m: Mps, rng, size: int | None = None) -> np.ndarray:
    """Exact ancestral sampling via sequential conditional marginals.

    Each returned string x is drawn with probability exactly
    ``probability(m, x)``; there is no Markov chain and no burn-in.

    Args:
        rng: :class:`numpy.random.Generator` or an int seed.
        size: number of samples; ``None`` returns a single (N,) string,
            otherwise a (size, N) array.

    Returns:
        int8 array of bits.

    Raises:
        DegenerateModelError: Z <= 0, or a marginal vanishes while sampling.
    """
    rng = np.random.default_rng(rng)
    batch = 1 if size is None else int(size)
    if batch < 1:
        raise ValueError("size must be >= 1")
    envs, _ = _right_sum_envs(m)
    weight = _summed_chain(m.mode)[2]
    bits = np.empty((batch, m.n_sites), dtype=np.int8)
    v = np.ones((1, batch))
    for i, t in enumerate(m.tensors):
        # w[s] = T[:, s, :]^T v for both bits in one product; p(s | prefix) ~ weight(env, w)[s]
        w = np.ascontiguousarray(t.transpose(1, 2, 0)) @ v
        weights = weight(envs[i + 1], w)
        np.maximum(weights, 0.0, out=weights)
        total = weights[0] + weights[1]
        if (total <= 0.0).any():
            raise DegenerateModelError("zero conditional marginal while sampling")
        drawn = rng.random(batch) < weights[1] / total
        bits[:, i] = drawn
        v = np.where(drawn, w[1], w[0])
        scale = np.abs(v).max(axis=0)
        if (scale == 0.0).any():
            raise DegenerateModelError("zero left environment while sampling")
        v /= scale
    return bits[0] if size is None else bits


def _symmetric_fold(chi: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs a <= b of a chi bond, and ``Q^T (x) D``; Q (chi^2, k) adds rows (a, b) and (b, a)."""
    a, b = np.triu_indices(chi)
    q = np.zeros((chi * chi, a.size))
    q[a * chi + b, np.arange(a.size)] = 1.0
    q[b * chi + a, np.arange(a.size)] = 1.0
    return a, b, (q.T[:, None, :, None] * d[None, :, None, :]).reshape(2 * a.size, 2 * chi * chi)


def apply_diffusion(m: Mps, p_flip: float) -> Mps:
    """Model of "sample, then flip each bit independently with p_flip".

    Contracts the column-stochastic matrix ``D = [[1-p, p], [p, 1-p]]``
    into every physical leg of the probability-space network, preserving
    normalization. An amplitude model comes back as the DIRECT network of
    its exact diffused distribution, with bond chi(chi+1)/2 (15 for chi 5)
    instead of chi^2: the squared site ``T[(a,a'), x, (b,b')] = sum_y
    D[x,y] t[a,y,b] t[a',y,b']`` maps a symmetric left environment V to the
    symmetric ``sum_y D[x,y] t_y^T V t_y``, so V's upper triangle suffices.
    Each site is ``Q_l^T T[:, :, upper_r]``, one matmul of ``Q_l^T (x) D``
    (:func:`_symmetric_fold`) with the products on the upper columns.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must lie in [0, 1]")
    d = np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
    if m.mode is not EncodingMode.AMPLITUDE:
        return Mps(tuple(d @ t for t in m.tensors), m.mode, m.chi_max)
    folds = {chi: _symmetric_fold(chi, d) for chi in set(m.bond_dims)}
    sites = []
    for t in m.tensors:
        chi_l, _, chi_r = t.shape
        fold_l, (b, b2, _) = folds[chi_l][2], folds[chi_r]
        # rows (a, a', y), columns b <= b': t[a, y, b] t[a', y, b']
        pairs = np.take(t, b, axis=2)[:, None] * np.take(t, b2, axis=2)[None]
        sites.append((fold_l @ pairs.reshape(2 * chi_l * chi_l, b.size)).reshape(-1, 2, b.size))
    return Mps(tuple(sites), EncodingMode.DIRECT, m.chi_max * (m.chi_max + 1) // 2)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(a, full_matrices=False)`` of a 2-D float64 array: same bits, no wrapper."""
    if _svd_s is None:
        return np.linalg.svd(a, full_matrices=False)
    u, s, vh = _svd_s(a, signature="d->ddd")
    if s[0] != s[0]:  # no convergence: the gufunc filled NaN and warned of an invalid value
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vh


def _qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.qr(a)`` (reduced) of a 2-D float64 array: same bits, no wrapper, ``a`` untouched."""
    if _qr_r_raw is None:
        return np.linalg.qr(a)
    a = a.copy(order="K")  # as np.linalg.qr: LAPACK overwrites it with R and the reflectors
    tau = _qr_r_raw(a, signature="d->d")
    q = _qr_reduced(a, tau, signature="dd->d")
    shape = (q.shape[1], a.shape[1])
    upper = _UPPER.get(shape)
    if upper is None:
        upper = _UPPER[shape] = np.triu(np.ones(shape, dtype=bool))
    return q, np.where(upper, a[: shape[0]], 0.0)


def canonicalize_split(
    theta: np.ndarray,
    chi_max: int | None,
    cutoff: float,
    absorb: str = "right",
) -> tuple[np.ndarray, np.ndarray]:
    """Split a merged two-site tensor back into two sites by truncated SVD.

    Singular values with ``sigma/sigma_max < cutoff`` are discarded and the
    retained rank is capped at ``chi_max``; the reconstruction error equals
    the Frobenius norm of the dropped values.

    Args:
        theta: merged tensor of shape (chi_l, 2, 2, chi_r).
        chi_max: rank cap, or ``None`` for no cap.
        cutoff: relative singular-value cutoff, >= 0.
        absorb: which factor keeps the singular values ("left" or "right");
            the other factor is an isometry.

    Returns:
        (left, right) tensors of shapes (chi_l, 2, k) and (k, 2, chi_r).

    Raises:
        DegenerateModelError: ``theta`` is all zero.
        numpy.linalg.LinAlgError: the SVD did not converge, as on a NaN entry.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 4 or theta.shape[1] != 2 or theta.shape[2] != 2:
        raise ValueError(f"expected shape (chi_l, 2, 2, chi_r), got {theta.shape}")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if absorb not in ("left", "right"):
        raise ValueError("absorb must be 'left' or 'right'")
    chi_l, _, _, chi_r = theta.shape
    mat = theta.reshape(chi_l * 2, 2 * chi_r)
    u, s, vh = _svd(mat)
    if s[0] == 0.0:  # the largest singular value is zero only for an all-zero tensor
        raise DegenerateModelError("cannot split an all-zero tensor")
    keep = np.count_nonzero(s >= cutoff * s[0])
    if chi_max is not None:
        keep = min(keep, int(chi_max))
    keep = max(keep, 1)
    if absorb == "right":
        left = u[:, :keep]
        right = s[:keep, None] * vh[:keep]
    else:
        left = u[:, :keep] * s[:keep]
        right = vh[:keep]
    return left.reshape(chi_l, 2, keep), right.reshape(keep, 2, chi_r)

