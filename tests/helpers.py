"""Shared test utilities: random factorization generators and dense reference
constructions that are deliberately independent of the library internals."""

import numpy as np
from scipy.special import ndtri

from bltnoise.params import BltFactorization, RationalBlt
from bltnoise.streaming import _uniform_chunk


def random_rational(rng, degree, theta_lo=0.05, theta_hi=0.98, omega_scale=0.8):
    """A RationalBlt with distinct poles in (theta_lo, theta_hi) and bounded residues."""
    while True:
        theta = np.sort(rng.uniform(theta_lo, theta_hi, size=degree))
        if degree < 2 or np.min(np.diff(theta)) > 1e-3:
            break
    omega = rng.uniform(-omega_scale, omega_scale, size=degree)
    return RationalBlt(theta=theta, omega=omega, t=1.0)


def random_factorization(rng, degree, n=64):
    """A BltFactorization with interlaced theta < theta_hat (both in (0,1))."""
    while True:
        theta = np.sort(rng.uniform(0.05, 0.95, size=degree))
        if degree < 2 or np.min(np.diff(theta)) > 5e-3:
            break
    upper = np.append(theta[1:], 1.0)
    theta_hat = theta + rng.uniform(0.2, 0.8, size=degree) * (upper - theta)
    return BltFactorization(theta=theta, theta_hat=theta_hat, n=n)


def reciprocal_coeffs_direct(fact, n):
    """O(n) pole-space oracle: the first ``n`` coefficients of C's generator 1/r.

    Iterates the reciprocal recurrence ``s_k = -theta.y / r0``,
    ``y <- theta*y - v (theta.y)`` on the exact (theta, omega) parameters the
    streamer uses, one coefficient per step.  ``sensitivity_of`` evaluates the
    same recurrence's sum of squares by doubling; this is its reference.
    """
    theta = np.append(fact.theta, 0.0)
    v = np.append(fact.omega / fact.theta, 1.0 - np.sum(fact.omega / fact.theta))
    r0 = float(v.sum())
    v = v / r0
    s = np.empty(n)
    s[0] = 1.0 / r0
    y = v.copy()
    for k in range(1, n):
        c = theta @ y
        s[k] = -c / r0
        y = theta * y - v * c
    return s


def consumption_perm(n1, levels):
    """Map noise-consumption order to the column order of the dense combined B.

    The dense combined matrix puts all inner-block columns first and carry
    columns last, while the streamer interleaves each block's inner draws with
    one carry draw.
    """
    if levels == 1:
        return list(range(n1))
    inner = consumption_perm(n1, levels - 1)
    cols_inner = len(inner)
    perm = []
    for b in range(n1):
        perm.extend(b * cols_inner + j for j in inner)
        perm.append(n1 * cols_inner + b)
    return perm


def bintree_dense(levels):
    """Dense binary-tree factorization (B, C) for n = 2^levels.

    Built by the doubling recursion: starting from B = C = [[1]], each level
    keeps two copies of the previous tree side by side and adds one coarse
    node covering the first half, so

        B_2n = [[B, 0, 0], [0, B, 1]],   C_2n = [[C, 0], [0, C], [1^T, 0]].

    MaxErr of the result is levels + 1: every row of B selects at most one
    node per level plus the leaf, and every column of C touches one node per
    level plus the root copy.
    """
    B = np.ones((1, 1))
    C = np.ones((1, 1))
    for _ in range(levels):
        n, nc = B.shape
        zero_col = np.zeros((n, nc))
        top = np.hstack([B, zero_col, np.zeros((n, 1))])
        bottom = np.hstack([zero_col, B, np.ones((n, 1))])
        B = np.vstack([top, bottom])
        C = np.vstack(
            [
                np.hstack([C, np.zeros((nc, n))]),
                np.hstack([np.zeros((nc, n)), C]),
                np.hstack([np.ones((1, n)), np.zeros((1, n))]),
            ]
        )
    return B, C


def reference_normals(seed, n, m):
    """Regenerate the stream's Gaussian draws from scratch (same construction)."""
    bitgen = np.random.Philox(key=seed)
    u = _uniform_chunk(bitgen, n * m)
    return ndtri(u).reshape(n, m)
