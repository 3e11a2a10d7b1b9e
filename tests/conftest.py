"""Shared fixtures for the test suite.

Expensive resources (trained models, datasets) are session-scoped so that
the many tests exercising the verification pipeline share them.
"""

import numpy as np
import pytest

from repro.datasets.gaussian import make_gaussian_mixture
from repro.mondeq.model import MonDEQ
from repro.mondeq.training import TrainingConfig, train


@pytest.fixture
def rng():
    """A deterministic random generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def stack_inverses(monkeypatch):
    """Shapes of the stacked ``(B, n, n)`` ``np.linalg.inv`` calls the test makes."""
    shapes = []
    inverse = np.linalg.inv

    def counting(matrices):
        if np.ndim(matrices) == 3:
            shapes.append(np.shape(matrices))
        return inverse(matrices)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return shapes


@pytest.fixture(scope="session")
def toy_data():
    """A small, separable Gaussian-mixture classification problem."""
    xs, ys = make_gaussian_mixture(num_samples=160, input_dim=5, num_classes=3, seed=7)
    return xs, ys


@pytest.fixture(scope="session")
def small_mondeq():
    """An untrained small monDEQ used by structural tests."""
    return MonDEQ.random(input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=3)


@pytest.fixture(scope="session")
def trained_mondeq(toy_data):
    """A trained small monDEQ shared by verification tests."""
    xs, ys = toy_data
    model = MonDEQ.random(input_dim=5, latent_dim=8, output_dim=3, monotonicity=8.0, seed=5)
    config = TrainingConfig(epochs=15, batch_size=32, learning_rate=5e-3, solver_tol=1e-6)
    train(model, xs[:120], ys[:120], config, seed=0)
    return model


@pytest.fixture(scope="session")
def trained_sample(trained_mondeq, toy_data):
    """A correctly classified test sample of the trained monDEQ."""
    xs, ys = toy_data
    for x, y in zip(xs[120:], ys[120:]):
        if trained_mondeq.predict(x) == int(y):
            return x, int(y)
    pytest.skip("the trained toy model classifies no held-out sample correctly")
