"""Bit-for-bit guards for TN3's positive-MPS trainer and for the sampler's stream.

TN3 run records do not show a slip of one ulp in a fitted tensor: the
golden runs stay byte-identical under such a perturbation. So the trainer
is compared with the frozen copy in ``positive_oracle`` with
``np.array_equal``, failures included, and ``perfect_sample`` with a
reference loop that draws ``rng.random(B)`` once per site, down to the
state its generator is left in.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import positive_oracle as frozen
from tneda.models import TrainConfig, train_positive_mps
from tneda.mps import (
    DegenerateModelError,
    EncodingMode,
    _gram_right,
    apply_diffusion,
    perfect_sample,
    random_init,
)


def fit_or_message(train, bits, cfg, init):
    """The fitted tensors, or the message of the DegenerateModelError the fit raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return train(bits, cfg, init).tensors
    except DegenerateModelError as err:
        return str(err)


def assert_same_fit(bits, cfg, init):
    got, expected = fit_or_message(train_positive_mps, bits, cfg, init), fit_or_message(
        frozen.train_positive_mps, bits, cfg, init
    )
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert len(got) == len(expected)
    for t, r in zip(got, expected):
        assert t.shape == r.shape and np.array_equal(t, r)


@settings(max_examples=300, deadline=None, database=None)
@given(
    n_sites=st.integers(2, 12),
    chi=st.integers(1, 4),
    n_rows=st.integers(1, 60),
    learning_rate=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    sweeps=st.integers(1, 2),
    density=st.floats(0.0, 1.0),
    copies=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(n_sites=10, chi=2, n_rows=10, learning_rate=0.15, sweeps=1, density=0.5, copies=True, seed=3)
def test_positive_fit_is_bitwise_the_frozen_copy(n_sites, chi, n_rows, learning_rate, sweeps, density, copies, seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((n_rows, n_sites)) < density).astype(np.int8)
    if copies:  # ten copies of one row: the TN3 late-run case
        bits = np.repeat(bits[:1], 10, axis=0)
    init = random_init(n_sites, chi, EncodingMode.DIRECT_POSITIVE, seed=seed)
    assert_same_fit(bits, TrainConfig(learning_rate, chi, sweeps=sweeps), init)


@pytest.mark.parametrize("seed, ranges, learning_rate, sweeps, message", [
    # TN3's own settings: the projected step clamps away a parent's value
    (229, ((2, 11), (1, 61), (1, 5)), 0.15, 1, "a training sample has zero value under the model"),
    # the same, found by the environment step after the sweep's last pair: rx[1] is never
    # read, but its check is, so that step cannot be skipped
    (1238, ((2, 11), (1, 61), (1, 5)), 0.15, 1, "a training sample has zero value under the model"),
    # rate 1 overflows the tensors of pair 0 in the second sweep
    (74, ((2, 35), (1, 60), (1, 5)), 1.0, 2, "pair 0: site tensor is non-finite after a gradient step"),
])
def test_positive_failures_are_the_frozen_copys(seed, ranges, learning_rate, sweeps, message):
    r = np.random.default_rng(seed)
    n_sites, n_rows, chi = (int(r.integers(lo, hi)) for lo, hi in ranges)
    bits = r.random((n_rows, n_sites)) < r.random()
    init = random_init(n_sites, chi, EncodingMode.DIRECT_POSITIVE, seed)
    cfg = TrainConfig(learning_rate, chi, sweeps=sweeps)
    assert fit_or_message(frozen.train_positive_mps, bits, cfg, init) == message
    assert_same_fit(bits, cfg, init)


def reference_sample(m, rng, size):
    """``perfect_sample`` as a loop that draws ``rng.random(B)`` once per site."""
    batch = 1 if size is None else size
    if m.mode is EncodingMode.AMPLITUDE:
        transfer, env, weight = _gram_right, np.ones((1, 1)), lambda env, w: ((env @ w) * w).sum(axis=1)
    else:
        transfer, env, weight = (lambda t, env: t.sum(axis=1) @ env), np.ones(1), (lambda env, w: env @ w)
    envs = [env]
    for t in reversed(m.tensors):
        env = transfer(t, env)
        env /= np.abs(env).max()
        envs.append(env)
    envs.reverse()
    bits = np.empty((batch, m.n_sites), dtype=np.int8)
    v = np.ones((1, batch))
    for i, t in enumerate(m.tensors):
        w = np.ascontiguousarray(t.transpose(1, 2, 0)) @ v
        weights = np.maximum(weight(envs[i + 1], w), 0.0)
        drawn = rng.random(batch) < weights[1] / (weights[0] + weights[1])
        bits[:, i] = drawn
        v = np.where(drawn, w[1], w[0])
        v /= np.abs(v).max(axis=0)
    return bits[0] if size is None else bits


def sampler_models():
    born = random_init(12, 3, EncodingMode.AMPLITUDE, seed=11)
    return {
        "amplitude": born,
        "direct_positive": random_init(12, 3, EncodingMode.DIRECT_POSITIVE, seed=12),
        "direct": apply_diffusion(born, 0.05),
    }


@pytest.mark.parametrize("size", [None, 1, 2, 100])
@pytest.mark.parametrize("name", ["amplitude", "direct_positive", "direct"])
def test_sampler_draws_the_reference_bits_and_stream(name, size):
    m = sampler_models()[name]
    rng, ref_rng, plain = (np.random.default_rng(2024) for _ in range(3))
    drawn = perfect_sample(m, rng, size=size)
    expected = reference_sample(m, ref_rng, size)
    assert drawn.dtype == expected.dtype and drawn.shape == expected.shape
    assert np.array_equal(drawn, expected)
    # the generator is left where N * B doubles leave it, so what draws next sees the same stream
    plain.random(m.n_sites * (1 if size is None else size))
    assert rng.bit_generator.state == plain.bit_generator.state == ref_rng.bit_generator.state
