"""Training a Born machine on two-cluster data.

The data mixes noisy copies of two template strings. After a few two-site
sweeps the model assigns most of its mass near the templates and perfect
samples look like the training set.

Run: python3 demos/02_train_born_machine.py
"""

import numpy as np

from tneda import TrainConfig, born_nll, mutate, perfect_sample, probability, train_born_machine

rng = np.random.default_rng(7)
n_bits = 16

template_a = np.array([1, 1, 1, 1, 0, 0, 0, 0] * 2, dtype=np.int8)
template_b = 1 - template_a
data = np.concatenate(
    [
        mutate(np.tile(template_a, (300, 1)), 0.05, rng),
        mutate(np.tile(template_b, (300, 1)), 0.05, rng),
    ]
)
print(f"training set: {data.shape[0]} noisy copies of two templates, N = {n_bits}")

cfg = TrainConfig(learning_rate=0.1, chi_max=5, sweeps=1, svd_cutoff=1e-6)
model = None
for sweep in range(6):
    model = train_born_machine(data, cfg, init=model, rng=rng)  # the first sweep starts fresh
    print(f"after sweep {sweep + 1}: NLL = {born_nll(model, data):.4f}")

print("\nmodel probability of template A:", probability(model, template_a))
print("model probability of template B:", probability(model, template_b))
print("(a uniform model would give %.2e per string)" % 2**-n_bits)

print("\nperfect samples from the trained model:")
for row in perfect_sample(model, rng, size=6):
    closest = "A" if (row == template_a).sum() >= (row == template_b).sum() else "B"
    print("  ", "".join(map(str, row)), f"  (closer to template {closest})")
