import math

import numpy as np
import pytest

from wildbregman.geometry import Box
from wildbregman.potentials import builtin_loss

# the three built-in losses at small dimension, with samplers for their domains
BUILTINS = {
    "squared_l2": dict(kwargs={}, dim=3),
    "sqrt_bernoulli": dict(kwargs={"eps0": 0.05}, dim=3),
    "clipped_simplex_kl": dict(kwargs={"eta0": 0.1}, dim=3),
}


def make_loss(kind, dim=None, **extra):
    cfg = BUILTINS[kind]
    return builtin_loss(kind, dim or cfg["dim"], **{**cfg["kwargs"], **extra})


def sample_domain(loss, rng, size):
    """Uniform-ish points strictly inside the loss domain, shape (size, d)."""
    dom = loss.domain
    kind = loss.kind
    if kind == "squared_l2":
        return rng.uniform(-2.0, 2.0, size=(size, dom.dim))
    if kind == "sqrt_bernoulli":
        eps0 = float(dom.lo[0])
        return rng.uniform(eps0, 1.0 - eps0, size=(size, dom.dim))
    raw = rng.uniform(0.0, 1.0, size=(size, dom.dim))
    return dom.project(raw)


def box(d, b):
    """The box [-b, b]^d."""
    return Box(np.full(d, -b), np.full(d, b))


def simplex_grid(eta0, d, N):
    """Every point of the clipped simplex on a barycentric grid with N
    divisions, and the largest distance from the set to the grid."""
    mass = 1.0 - d * eta0
    if d == 2:
        k = np.arange(N + 1)[:, None]
        B = np.hstack([k, N - k]) / N
    else:
        i, j = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
        keep = i + j <= N
        i, j = i[keep], j[keep]
        B = np.stack([i, j, N - i - j], axis=1) / N
    return eta0 + mass * B, mass * math.sqrt(2.0) / N


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
