"""TN3's held right environments: reused or recomputed, a fit is the same bit for bit.

``PositiveMpsSampler`` hands its last fit's model, rows and right
environments back to ``train_positive_mps``, which reuses them only when
it starts from that model on equal rows in the same order. Each sequence
below drives the sampler through hits and misses and compares every fit
with the frozen trainer in ``positive_oracle``, chained on its own
outputs, with ``np.array_equal``, failures included.
"""

import numpy as np
import pytest

import positive_oracle as frozen
from tneda import models
from tneda.evolve import PositiveMpsSampler
from tneda.models import TrainConfig
from tneda.mps import DegenerateModelError, EncodingMode, random_init

CFG = TrainConfig(0.15, 2)  # TN3's own settings


def outcome(fit):
    """The fitted model, or the message of the DegenerateModelError the fit raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fit()
    except DegenerateModelError as err:
        return str(err)


def assert_same(got, expected):
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert len(got.tensors) == len(expected.tensors)
    for t, r in zip(got.tensors, expected.tensors):
        assert t.shape == r.shape and np.array_equal(t, r)


def sampler_fit(sampler, rows):
    sampler.fit(rows, rng=None)
    return sampler.model


def run_sequence(steps, init, cfg=CFG):
    """Fit a sampler and the frozen trainer through ``steps``, comparing every fit.

    A step is a row array, or a callable that edits the sampler (and may
    return a new starting model for both) before the next fit.
    """
    sampler = PositiveMpsSampler(cfg)
    sampler.model = ref = init
    outcomes = []
    for step in steps:
        if callable(step):
            ref = step(sampler) or ref
            continue
        rows = step
        got = outcome(lambda: sampler_fit(sampler, rows))
        expected = outcome(lambda: frozen.train_positive_mps(rows, cfg, ref))
        assert_same(got, expected)
        if not isinstance(expected, str):
            ref = expected
        outcomes.append(expected)
    return outcomes


def random_rows(rng, n, width):
    return (rng.random((n, width)) < 0.5).astype(np.int8)


def test_twenty_fits_on_ten_copies_of_one_row():
    rng = np.random.default_rng(0)
    rows = np.repeat(random_rows(rng, 1, 30), 10, axis=0)
    run_sequence([rows.copy() for _ in range(20)], random_init(30, 2, EncodingMode.DIRECT_POSITIVE, seed=1))


@pytest.mark.parametrize("sweeps", [1, 2])
def test_parents_that_change_every_few_fits(sweeps):
    rng = np.random.default_rng(2)
    steps = []
    for _ in range(5):
        rows = random_rows(rng, 10, 12)
        steps += [rows.copy() for _ in range(int(rng.integers(1, 4)))]
    init = random_init(12, 2, EncodingMode.DIRECT_POSITIVE, seed=3)
    run_sequence(steps, init, TrainConfig(0.15, 2, sweeps=sweeps))


def test_the_same_rows_reordered():
    rng = np.random.default_rng(4)
    rows = random_rows(rng, 10, 15)
    run_sequence([rows, rows[::-1].copy(), rows[::-1].copy(), rows[rng.permutation(10)]],
                 random_init(15, 2, EncodingMode.DIRECT_POSITIVE, seed=5))


def test_rows_the_caller_mutates_in_place_after_the_fit():
    rows = random_rows(np.random.default_rng(6), 10, 15)

    def flip(sampler):
        rows[3, 7] ^= 1

    # int8 C-contiguous rows reach the trainer uncopied, so the held rows must be a copy
    run_sequence([rows, flip, rows, rows, flip, rows], random_init(15, 2, EncodingMode.DIRECT_POSITIVE, seed=7))


def test_model_replaced_from_outside():
    rows = random_rows(np.random.default_rng(8), 10, 15)
    other = random_init(15, 2, EncodingMode.DIRECT_POSITIVE, seed=9)

    def replace(sampler):
        sampler.model = other
        return other

    run_sequence([rows, rows, replace, rows, rows], random_init(15, 2, EncodingMode.DIRECT_POSITIVE, seed=10))


@pytest.mark.parametrize("seed, learning_rate", [(812, 0.15), (3300, 1.0)])
def test_a_failed_fit_and_one_more_on_the_same_rows(seed, learning_rate):
    # The second fit on these rows (a reuse) clamps away a row's value, at seed 3300
    # after its back pass rebound some environments. The failed fit must leave the
    # held state of the first fit, so the third fails the same way.
    r = np.random.default_rng(seed)
    n_sites, n_rows, chi = int(r.integers(3, 11)), int(r.integers(1, 12)), int(r.integers(1, 3))
    rows = (r.random((n_rows, n_sites)) < r.random()).astype(np.int8)
    init = random_init(n_sites, chi, EncodingMode.DIRECT_POSITIVE, seed=seed)
    snapshots = []

    def snapshot(sampler):
        model, held_rows, rx = sampler._held
        snapshots.append((model, held_rows, list(rx)))

    steps = [rows, snapshot, rows, snapshot, rows]
    outcomes = run_sequence(steps, init, TrainConfig(learning_rate, chi))
    message = "a training sample has zero value under the model"
    assert not isinstance(outcomes[0], str) and outcomes[1:] == [message, message]
    (model, held_rows, rx), after = snapshots
    assert after[0] is model and after[1] is held_rows
    assert all(a is b for a, b in zip(after[2], rx, strict=True))


def test_repeated_parents_skip_the_opening_pass(monkeypatch):
    """A hit makes N - 2 fewer ``_sum_step`` calls; a second sweep reuses the first's back pass."""
    calls = []
    sum_step = models._sum_step
    monkeypatch.setattr(models, "_sum_step", lambda *args: calls.append(1) or sum_step(*args))

    def count(fit):
        calls.clear()
        fit()
        return len(calls)

    width = 30
    rows = np.repeat(random_rows(np.random.default_rng(11), 1, width), 10, axis=0)
    sampler = PositiveMpsSampler(CFG)
    sampler.model = random_init(width, 2, EncodingMode.DIRECT_POSITIVE, seed=12)
    fresh = count(lambda: sampler.fit(rows, rng=None))
    held = count(lambda: sampler.fit(rows.copy(), rng=None))
    assert fresh - held == width - 2
    assert held == 2 * width - 3  # one step per pair visit, and no opening pass

    init = sampler.model
    one = count(lambda: models.train_positive_mps(rows, CFG, init))
    two = count(lambda: models.train_positive_mps(rows, TrainConfig(0.15, 2, sweeps=2), init))
    assert (one, two) == (fresh, fresh + held)
