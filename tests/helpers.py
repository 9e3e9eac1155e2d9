"""Shared test utilities: random factorization generators and dense reference
constructions that are deliberately independent of the library internals."""

import functools

import mpmath
import numpy as np
from scipy.special import ndtri

from bltnoise import streaming
from bltnoise.params import BltFactorization, RationalBlt, blt_coeffs
from bltnoise.seq import ToeplitzSeq, ltt_dense, optimal_coeffs
from bltnoise.streaming import _uniform_chunk


def random_rational(rng, degree, theta_lo=0.05, theta_hi=0.98, omega_scale=0.8):
    """A RationalBlt with distinct poles in (theta_lo, theta_hi) and bounded residues."""
    while True:
        theta = np.sort(rng.uniform(theta_lo, theta_hi, size=degree))
        if degree < 2 or np.min(np.diff(theta)) > 1e-3:
            break
    omega = rng.uniform(-omega_scale, omega_scale, size=degree)
    return RationalBlt(theta=theta, omega=omega)


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


def mp_residues(poles, zeros, dps=50):
    """Residues ``p_i prod_k (1 - z_k/p_i) / prod_{j != i} (1 - p_j/p_i)`` in mpmath.

    ``mp_residues(theta, theta_hat)`` are B's residues omega and
    ``mp_residues(theta_hat, theta)`` C's residues omega_hat.
    """
    with mpmath.workdps(dps):
        poles = [mpmath.mpf(p) for p in poles]
        zeros = [mpmath.mpf(z) for z in zeros]
        return [
            p
            * mpmath.fprod(1 - z / p for z in zeros)
            / mpmath.fprod(1 - q / p for j, q in enumerate(poles) if j != i)
            for i, p in enumerate(poles)
        ]


def _mp_gamma(t, n):
    """Geometric prefix sum ``gamma_n(t) = sum_{i<n} t^i``."""
    return (1 - t**n) / (1 - t) if t != 1 else mpmath.mpf(n)


def mp_sensitivity(omega_hat, theta_hat, n, dps=50):
    """C-side residue-form oracle of ``||C||_{1->2}`` over ``n`` steps, in mpmath.

    C's generator is ``1/r = 1 + sum_j w_j x / (1 - t_j x)`` with the C-side
    residues w = omega_hat and roots t = theta_hat, so its squared column
    norm is ``1 + sum_{j,k} w_j w_k gamma_{n-1}(t_j t_k)``.  This is the
    residue form the library evaluated before its single Stein-sum evaluator.
    """
    with mpmath.workdps(dps):
        w = [mpmath.mpf(x) for x in omega_hat]
        t = [mpmath.mpf(x) for x in theta_hat]
        total = mpmath.fsum(
            w[j] * w[k] * _mp_gamma(t[j] * t[k], n - 1)
            for j in range(len(w))
            for k in range(len(w))
        )
        return float(mpmath.sqrt(1 + total))


def mp_rownorm(omega, theta, n, dps=50):
    """B-side residue-form oracle of ``||B||_{2->inf}`` over ``n`` steps, in mpmath.

    With ``b_i = 1 + sum_j w_j gamma_i(t_j)`` the squared norm is
    ``n + 2 sum_j w_j G1(t_j) + sum_{j,k} w_j w_k G2(t_j, t_k)``, where
    ``G1(t) = sum_{i<n} gamma_i(t)`` and ``G2(a, b) = sum_{i<n} gamma_i(a)
    gamma_i(b)`` in closed form.  A pole at exactly 1 is summed term by term.
    """
    with mpmath.workdps(dps):
        w = [mpmath.mpf(x) for x in omega]
        t = [mpmath.mpf(x) for x in theta]
        if any(x == 1 for x in t):
            assert n <= 10**4, "term-by-term sum"
            b = (1 + mpmath.fsum(wj * _mp_gamma(tj, i) for wj, tj in zip(w, t)) for i in range(n))
            return float(mpmath.sqrt(mpmath.fsum(x * x for x in b)))

        def g1(a):
            return (n - _mp_gamma(a, n)) / (1 - a)

        def g2(a, b):
            return (n - _mp_gamma(a, n) - _mp_gamma(b, n) + _mp_gamma(a * b, n)) / ((1 - a) * (1 - b))

        d = len(w)
        total = (
            n
            + 2 * mpmath.fsum(w[j] * g1(t[j]) for j in range(d))
            + mpmath.fsum(w[j] * w[k] * g2(t[j], t[k]) for j in range(d) for k in range(d))
        )
        return float(mpmath.sqrt(total))


def opt_lt_toe_direct(n):
    """O(n) oracle of ``opt_lt_toe``: the float prefix sum ``sum_{k<n} f_k^2``
    of the optimal coefficients at any n, bitwise equal to ``opt_lt_toe`` up
    to ``_EXACT_MAX``."""
    f = optimal_coeffs(n).coeffs
    return float(np.cumsum(f * f)[n - 1])


def mathias_ub_direct(n):
    """O(n) oracle of ``mathias_ub``: ``1/2 + T(n) / (2n)`` as a float sum of
    the midpoint cosecants ``T(N) = sum_{j=1}^N csc(pi (2j-1) / (2N))``."""
    j = np.arange(1, n + 1)
    return float(0.5 + np.sum(1.0 / np.sin(np.pi * (2 * j - 1) / (2 * n))) / (2 * n))


def matousek_lb_direct(n):
    """O(n) oracle of ``matousek_lb``: the float sum of the first n of the
    ``2n + 1`` midpoint cosecants, ``(T(2n+1) - 1) / (4n)`` by symmetry."""
    j = np.arange(1, n + 1)
    return float(np.sum(1.0 / np.sin(np.pi * (2 * j - 1) / (4 * n + 2))) / (2 * n))


def mp_opt_lt_toe(n, dps=45):
    """``sum_{k<n} f_k^2`` summed term by term in mpmath, O(n)."""
    with mpmath.workdps(dps):
        f = s = mpmath.mpf(1)
        for k in range(1, n):
            f = f * (2 * k - 1) / (2 * k)
            s += f * f
        return s


def mp_csc_sum(N, dps=45):
    """The midpoint cosecant sum ``T(N)`` in mpmath, O(N): twice its first
    half by the symmetry j <-> N + 1 - j, plus csc(pi/2) = 1 when N is odd."""
    with mpmath.workdps(dps):
        half = mpmath.fsum(mpmath.csc(mpmath.pi * (2 * j - 1) / (2 * N)) for j in range(1, N // 2 + 1))
        return 2 * half + N % 2


@functools.lru_cache(maxsize=None)
def optimized_d5():
    """``optimize_blt`` at d=5, n=10^5, the benchmark's configuration (run once)."""
    from bltnoise.optimizer import OptConfig, optimize_blt

    return optimize_blt(OptConfig(degree=5, n=10**5)).factorization


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
    """Regenerate the stream's Gaussian draws from the same uniforms through
    ``scipy.special.ndtri``, an inverse CDF independent of the package's AS 241."""
    bitgen = np.random.Philox(key=seed)
    u = _uniform_chunk(bitgen, n * m)
    return ndtri(u).reshape(n, m)


def serial_noise_chunks(cfg, columns=None):
    """Oracle of ``streaming._noise_chunks``: the same ``_uniform_chunk``,
    ``ndtri`` and ``lfilter`` steps run batch by batch on the calling thread.

    Every column tile is computed and a shard is sliced from the full width,
    so no worker thread and no column selection stand between the draws and
    the rows.  Yields the same (start_row, rows) batches as the engine.
    """
    L, W = streaming._BLOCK, streaming._TILE
    r = cfg.factorization.rational()
    T = ltt_dense(blt_coeffs(r, L))
    powers = r.theta ** np.arange(L + 1)[:, None]
    P, decay = powers[1:], powers[L]
    Q = (r.omega / r.theta * powers[L - 1 :: -1]).T
    states = [np.zeros((r.degree, min(W, cfg.m - c0))) for c0 in range(0, cfg.m, W)]
    bitgen = np.random.Philox(key=cfg.seed)
    batch = streaming._batch_rows(cfg.m)
    prefix = 0.0
    for start in range(0, cfg.n, batch):
        rows = min(batch, cfg.n - start)
        z = streaming.ndtri(_uniform_chunk(bitgen, rows * cfg.m).reshape(rows, cfg.m))
        z *= cfg.sigma
        y = z.copy()
        for i, S in enumerate(states):
            part = slice(i * W, (i + 1) * W)
            streaming.lfilter(T, P, Q, decay, y[:, part], S)
        if cfg.output_kind == streaming.PREFIX:
            y[0] += prefix
            y = np.cumsum(y, axis=0)
            prefix = y[-1]
        yield start, (y if columns is None else y[:, columns])


def cauchy_product(a, b) -> ToeplitzSeq:
    """Oracle: truncated product ``h_k = sum_{i<=k} a_i b_{k-i}`` of two
    equal-length coefficient sequences, the first column of ``LTT(a) @ LTT(b)``."""
    a, b = (x if isinstance(x, ToeplitzSeq) else ToeplitzSeq(x) for x in (a, b))
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} != {b.n}")
    return ToeplitzSeq(np.convolve(a.coeffs, b.coeffs)[: a.n])


def weighted_parseval_check(f_eval, g_eval, f_coeffs, g_coeffs, tau: float, M: int):
    """Oracle: compare (1/2pi) int |f-g|^2 on the circle of radius e^{-tau}
    against the damped coefficient sum sum_k |f_k - g_k|^2 e^{-2 tau k}.

    Returns (quadrature_value, coefficient_sum); for analytic f, g and
    coefficient sequences long enough, the two agree.
    """
    if M < 16:
        raise ValueError("M must be >= 16")
    if tau <= 0:
        raise ValueError("tau must be positive")
    phi = 2.0 * np.pi * np.arange(M) / M
    x = np.exp(1j * phi - tau)
    diff = np.asarray(f_eval(x)) - np.asarray(g_eval(x))
    quad = float(np.mean(np.abs(diff) ** 2))
    fc = np.atleast_1d(np.asarray(f_coeffs, dtype=np.complex128))
    gc = np.atleast_1d(np.asarray(g_coeffs, dtype=np.complex128))
    size = max(fc.size, gc.size)
    fc = np.pad(fc, (0, size - fc.size))
    gc = np.pad(gc, (0, size - gc.size))
    damp = np.exp(-2.0 * tau * np.arange(size))
    csum = float(np.sum(np.abs(fc - gc) ** 2 * damp))
    return quad, csum
