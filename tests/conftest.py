"""Shared brute-force oracles, independent of the library's storage scheme."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from tensorratio.spectral import ANTIPODAL_TOL
from tensorratio.symtensor import SymTensor

# Solver calls take tens of milliseconds and vary with the host's load, so no
# hypothesis example gets a deadline.
settings.register_profile("tensorratio", deadline=None)
settings.load_profile("tensorratio")


def to_dense(A: SymTensor) -> np.ndarray:
    """Full d-way array from exponent storage (desk-scale dims only)."""
    out = np.zeros((A.dim,) * A.order)
    for idx in itertools.product(range(A.dim), repeat=A.order):
        e = tuple(idx.count(i) for i in range(A.dim))
        out[idx] = A.coeff(e)
    return out


def dense_sym_outer(u, k, v, l) -> np.ndarray:
    """Symmetrization by explicit averaging over all (k+l)! slot orders."""
    d = k + l
    vecs = [np.asarray(u, float)] * k + [np.asarray(v, float)] * l
    out = np.zeros((len(u),) * d)
    for perm in itertools.permutations(range(d)):
        arr = np.ones(())
        for idx in perm:
            arr = np.multiply.outer(arr, vecs[idx])
        out += arr
    return out / math.factorial(d)


def dense_pow(u, k) -> np.ndarray:
    out = np.ones(())
    for _ in range(k):
        out = np.multiply.outer(out, np.asarray(u, float))
    return out


def circle_grid_max(coeffs, n_points=1_000_000) -> float:
    """Max of |p(cos t, sin t)| over a uniform grid of the half-circle."""
    c = np.asarray(coeffs, float)
    d = len(c) - 1
    theta = np.linspace(0.0, np.pi, n_points, endpoint=False)
    X, Y = np.cos(theta), np.sin(theta)
    acc = np.zeros_like(X)
    xk = np.ones_like(X)
    # running powers: X^k * Y^(d-k)
    for k in range(d + 1):
        acc += c[k] * xk * Y ** (d - k)
        xk *= X
    return float(np.max(np.abs(acc)))


def antipodal_classes_reference(points) -> list:
    """One representative per antipodal class, one point at a time.

    Each point is flipped so its first coordinate above 1e-12 in size is
    positive, and kept unless it lies within ANTIPODAL_TOL, up to sign, of a
    point kept before it; the kept points come back in tuple order.
    """
    out = []
    for w in points:
        w = np.asarray(w, dtype=float)
        w = next((w if x > 0 else -w for x in w if abs(x) > 1e-12), w)
        if all(min(np.linalg.norm(w - o), np.linalg.norm(w + o)) > ANTIPODAL_TOL for o in out):
            out.append(w)
    out.sort(key=tuple)
    return out


def random_binary(rng, d, normalize=True) -> SymTensor:
    coeffs = {(k, d - k): rng.standard_normal() for k in range(d + 1)}
    A = SymTensor(d, 2, coeffs)
    if normalize:
        from tensorratio.symtensor import frob_norm

        A = A * (1.0 / frob_norm(A))
    return A


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
