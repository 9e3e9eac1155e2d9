"""Shared test utilities: random factorization generators and dense reference
constructions that are deliberately independent of the library internals."""

import functools
import math

import mpmath
import numpy as np
from scipy.special import ndtri

from bltnoise import streaming
from bltnoise.params import BltFactorization, RationalBlt, blt_coeffs
from bltnoise.recursive import comb_dense
from bltnoise.seq import MATRIX_CAP, ToeplitzSeq, ltt_dense, optimal_coeffs
from bltnoise.streaming import _uniform_chunk


# --- oracles of the paper's lemmas and of the engine, which only tests call ----


def newman_error_bound(d: int) -> float:
    """Uniform error bound 8*exp(-(pi/2)*sqrt(d-2)) on the closed unit disc."""
    if d < 3:
        raise ValueError("d must be >= 3")
    return 8.0 * math.exp(-0.5 * math.pi * math.sqrt(d - 2))


def rational_sqrt_free(x, d_plus: int, d_minus: int, h: float):
    """Free-step approximant (2h/pi) sum_k x e^{hk}/(x + e^{2hk}) to sqrt(x).

    Test-only building block: the unit-disc approximant equals
    sqrt(2) * rational_sqrt_free((1-x)/2, ...) at the canonical step.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.complex128)
    k = np.arange(-d_minus, d_plus + 1)
    e1 = np.exp(h * k)
    e2 = np.exp(2.0 * h * k)
    vals = (2.0 * h / math.pi) * np.sum(
        x[..., None] * e1 / (x[..., None] + e2), axis=-1
    )
    return vals if vals.shape else vals[()]


def rational_sqrt_free_bound(x, d_plus: int, d_minus: int, h: float):
    """Error bound for the free-step approximant at Re(x) >= 0.

    Splits into discretization terms (depending on the phase of x through
    c = arg(x)/pi) and two truncation terms from the finite ladder.
    """
    x = np.asarray(x, dtype=np.complex128)
    c = np.angle(x) / math.pi
    disc = 1.0 / np.expm1((1.0 - c) * math.pi**2 / h) + 1.0 / np.expm1(
        (1.0 + c) * math.pi**2 / h
    )
    trunc = (2.0 * h / (math.pi * math.expm1(h))) * (
        np.abs(x) * math.exp(-h * d_plus) + math.exp(-h * d_minus)
    )
    vals = 2.0 * np.sqrt(np.abs(x)) * disc + trunc
    return vals if vals.shape else vals[()]


def series_reciprocal(a: ToeplitzSeq) -> ToeplitzSeq:
    """Coefficients of ``1/a(x)`` by long division.

    ``r_0 = 1/a_0`` and ``r_k = -(1/a_0) * sum_{j=1..k} a_j r_{k-j}``; requires
    ``a_0 != 0``.
    """
    c = a.coeffs if isinstance(a, ToeplitzSeq) else np.asarray(a, dtype=np.float64)
    if c[0] == 0.0:
        raise ValueError("constant term is zero; series has no reciprocal")
    n = c.size
    r = np.zeros(n)
    r[0] = 1.0 / c[0]
    for k in range(1, n):
        r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
    return ToeplitzSeq(r)


def comc_dense(C1, C2) -> np.ndarray:
    """Dense combined C factor [I (x) C2 ; C1 (x) 1^T] (test-scale only)."""
    C1 = np.atleast_2d(np.asarray(C1, dtype=np.float64))
    C2 = np.atleast_2d(np.asarray(C2, dtype=np.float64))
    n1 = C1.shape[1]
    rows = n1 * C2.shape[0] + C1.shape[0]
    if rows > MATRIX_CAP:
        raise ValueError(f"combined row count {rows} exceeds cap {MATRIX_CAP}")
    top = np.kron(np.eye(n1), C2)
    bottom = np.kron(C1, np.ones((1, C2.shape[1])))
    return np.vstack([top, bottom])


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
    """O(n) oracle: the first ``n`` coefficients of C's generator 1/r.

    Sums ``s_0 = 1`` and ``s_k = sum_j omega_hat_j theta_hat_j^(k-1)`` from
    the C-side residues and roots the factorization carries, one power per
    step.  ``sensitivity_of`` sums the same coefficients' squares in closed
    form; this is its reference.
    """
    s = np.empty(n)
    s[0] = 1.0
    y = fact.omega_hat.copy()
    for k in range(1, n):
        s[k] = y.sum()
        y = y * fact.theta_hat
    return s


# Stored roots of default ``optimize_blt(OptConfig(d, 10**6))`` runs at d = 12
# and d = 16: several pairs agree to 9-12 digits next to 1, where a ratio
# ``1 - z/p`` of two roots keeps only a few digits.
CLUSTERED_ROOTS = {
    12: (
        [
            0.23139048878207572, 0.841799717150478, 0.9998878647981108,
            0.9974084751128017, 0.9996814471073849, 0.9790886711039307,
            0.9999610776633538, 0.9999958805826127, 0.9999991553024573,
            0.9999991167956039, 0.9999999997366709, 0.99999999977325,
        ],
        [
            0.6103987939352784, 0.9414695245904643, 0.9998870303096279,
            0.9926221599939865, 0.9990911571084707, 0.9998892949565471,
            0.9999867231740419, 0.9999991543326301, 0.9999991135850109,
            0.9999991585258985, 0.9999999997367568, 0.9999999997746523,
        ],
    ),
    16: (
        [
            0.33645010325692837, 0.9309889669128045, 0.9999104297190505,
            0.998721267875913, 0.9996611051808107, 0.9951648049913855,
            0.9999763283001344, 0.9999987670483319, 0.9999999997578071,
            0.9999999992502235, 0.9999999996453734, 0.9999999997589657,
            0.9999999999348681, 0.9999999999829532, 0.9999999999957068,
            0.9999999999989326,
        ],
        [
            0.7573605887440757, 0.9816549329692624, 0.9999103754750577,
            0.9987201657213809, 0.9987234231908797, 0.9999104313277228,
            0.9999938476364681, 0.9999999997530771, 0.9999999992741788,
            0.9999999408252389, 0.9999999997589655, 0.9999999997742022,
            0.9999999999455045, 0.9999999999869116, 0.9999999999967475,
            0.999999999999182,
        ],
    ),
}


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
    residue form ``sensitivity_closed`` evaluates in float.
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


def serial_search(cfg):
    """Oracle of ``optimize_blt``'s iterates: the same BFGS loop, with the
    Armijo backtracking run serially, one ``loss`` call per halving from
    alpha = 1.  Returns ``(trace, theta, theta_hat, stop_reason)``."""
    from bltnoise import optimizer as o

    d, n, w = cfg.degree, cfg.n, cfg.barrier_weight

    def f_of(x):
        p = o._sigmoid(x)
        return o.loss(p[:d], p[d:], n, w)

    x = o._logit(np.concatenate(o.geometric_ladder(d, n)))
    f_cur = f_of(x)
    H = np.eye(2 * d)
    prev_x = prev_g = None
    stop_reason, trace = "max_iters", []
    for _ in range(cfg.max_iters):
        p = o._sigmoid(x)
        try:
            g_p = o.gradient(p[:d], p[d:], n, w)
        except ValueError:
            trace.append((f_cur, math.nan, 0.0, 0))
            stop_reason = "gradient_failed"
            break
        g_x = g_p * p * (1.0 - p)
        g_max = float(np.max(np.abs(g_x)))
        if g_max <= o._GRAD_TOL:
            trace.append((f_cur, g_max, 0.0, 0))
            stop_reason = "grad_tol"
            break
        if prev_x is not None:
            s, yv = x - prev_x, g_x - prev_g
            sy = s @ yv
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(yv):
                rho = 1.0 / sy
                V = np.eye(2 * d) - rho * np.outer(s, yv)
                H = V @ H @ V.T + rho * np.outer(s, s)
        direction = -H @ g_x
        slope = direction @ g_x
        if slope >= 0.0:
            H = np.eye(2 * d)
            direction = -g_x
            slope = -(g_x @ g_x)
        alpha = 1.0
        for backtracks in range(o._MAX_BACKTRACKS):
            x_new = x + alpha * direction
            f_new = f_of(x_new)
            if f_new <= f_cur + o._ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
        else:
            trace.append((f_cur, g_max, 0.0, o._MAX_BACKTRACKS))
            stop_reason = "line_search_failed"
            break
        if f_new >= f_cur:
            trace.append((f_cur, g_max, 0.0, backtracks))
            stop_reason = "no_decrease"
            break
        trace.append((f_cur, g_max, alpha, backtracks))
        prev_x, prev_g = x, g_x
        x, f_cur = x_new, f_new
    p = o._sigmoid(x)
    return trace, p[:d], p[d:], stop_reason


def blt_dense_pair(fact, n):
    """Dense (B, C) of a BLT factorization at horizon n."""
    r = blt_coeffs(fact.rational(), n).coeffs
    return ltt_dense(np.cumsum(r)), ltt_dense(series_reciprocal(r))


def dense_recursion(B1, C1, levels):
    """Iterate the combine step against its own output."""
    B, C = B1, C1
    for _ in range(levels - 1):
        B = comb_dense(B1, B)
        C = comc_dense(C1, C)
    return B, C


def dense_norms(B, C):
    """(max column norm of C, max row norm of B)."""
    return np.sqrt(np.max(np.sum(C * C, axis=0))), np.sqrt(np.max(np.sum(B * B, axis=1)))


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
