"""Rational approximation of sqrt(1-x) with explicit real poles, and the
factorization factory built on it.

The approximant is a trapezoid discretization of an integral representation
of the square root,

    rt(x) = (2h*sqrt(2)/pi) * sum_{k=-d_minus}^{d_plus}
            [e^{hk} - 2 e^{3hk} / (1 + 2 e^{2hk} - x)],

whose poles 1 + 2e^{2hk} all exceed 1 and whose error on the closed unit disc
is at most 8*exp(-(pi/2)*sqrt(d-2)) for degree d = d_plus + d_minus + 1.
Setting the C-generator to 1/rt (and B's to rt/(1-x)) gives a factorization
whose MaxErr exceeds the optimal Toeplitz value only by an additive term
controlled by that approximation error.

rt(1) = 0 analytically, and the remaining d-1 zeros strictly interlace the
poles (the pole weights are all positive, so rt is decreasing between
consecutive poles), which lets bisection locate every zero with guaranteed
brackets.  At large degree the extreme poles are closer to 1 than float64
spacing; stored roots are then separated by ulp-sized nudges while the
analytically exact residues are carried alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import BltFactorization, _int_arg

_BISECT_ITERS = 90


@dataclass(frozen=True)
class SqrtApproxTerms:
    """The exponentially spaced pole ladder k = -d_minus..d_plus at step h.

    ``offsets`` are the ascending pole offsets 2 e^{2hk}, ``weights`` the
    pole weights (4h sqrt(2)/pi) e^{3hk} and ``constant`` is
    (2h sqrt(2)/pi) sum_k e^{hk}, so that the degree-d approximant to
    sqrt(1-x) is rt(1 + y) = constant - sum_k weight_k / (offset_k - y).
    All poles 1 + offset_k exceed 1 (up to float collapse at extreme degrees).
    """

    d_plus: int
    d_minus: int
    h: float
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    constant: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = 2.0 * self.h * math.sqrt(2.0) / math.pi
        k = np.arange(-self.d_minus, self.d_plus + 1)
        object.__setattr__(self, "offsets", 2.0 * np.exp(2.0 * self.h * k))
        object.__setattr__(self, "weights", scale * 2.0 * np.exp(3.0 * self.h * k))
        object.__setattr__(self, "constant", float(scale * np.exp(self.h * k).sum()))

    def evaluate(self, x):
        """Evaluate the approximant at (arrays of) complex or real ``x``."""
        x = np.asarray(x)
        vals = self.constant - np.sum(
            self.weights / ((1.0 + self.offsets) - x[..., None]), axis=-1
        )
        return vals if vals.shape else vals[()]


def newman_sqrt(d: int) -> SqrtApproxTerms:
    """Degree-d rational approximation of sqrt(1-x) with real simple poles;
    d >= 3, since the two-sided pole ladder needs d_plus >= 1."""
    d = _int_arg("degree", d, least=3)
    d_plus = (d - 1) // 2
    return SqrtApproxTerms(d_plus, d - 1 - d_plus, math.pi / math.sqrt(2.0 * d_plus))


def _degree_a(n: int) -> int:
    """The least degree meeting accuracy condition (a) at horizon n."""
    return math.ceil(2.0 + ((12.0 + 4.0 * math.log(n)) / math.pi) ** 2)


def degree_for_error(n: int, mu: float) -> int:
    """Smallest degree meeting both accuracy conditions for horizon n, slack mu.

    Condition (a): d >= 2 + ((12 + 4 ln n)/pi)^2.
    Condition (b): 16 sqrt(n) exp(-(pi/2) sqrt(d-2)) <= mu/(4 + ln n).
    """
    n = _int_arg("n", n, least=5)
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    ln_n = math.log(n)
    d_b = math.ceil(
        2.0 + (2.0 / math.pi * math.log(16.0 * math.sqrt(n) * (4.0 + ln_n) / mu)) ** 2
    )
    return int(max(_degree_a(n), d_b, 3))


def _nudge_descending(arr: np.ndarray) -> np.ndarray:
    """Force strict decrease by stepping collided entries down one ulp each."""
    out = arr.copy()
    for i in range(1, out.size):
        if out[i] >= out[i - 1]:
            out[i] = np.nextafter(out[i - 1], -np.inf)
    return out


def _interlaced_zeros(offs: np.ndarray, weights: np.ndarray, A: float) -> np.ndarray:
    """Zeros of the approximant other than x = 1, as offsets y = x - 1.

    In the y coordinate the approximant is A - sum_k w_k/(offs_k - y), the
    ``SqrtApproxTerms`` form, with all w_k > 0, hence strictly decreasing between
    consecutive ascending pole offsets; one bisection in log y resolves every
    bracket at once.  ``math.exp`` and ``math.log`` map between y and log y:
    numpy's vectorized ``exp`` rounds differently and moves zeros by ulps.
    """
    logs = np.array([math.log(o) for o in offs])
    lo, hi = logs[:-1], logs[1:]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        y = np.array([math.exp(t) for t in mid])
        above = A - np.sum(weights / (offs - y[:, None]), axis=1) > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.array([math.exp(t) for t in 0.5 * (lo + hi)])


def ra_blt_build(d: int, n: int) -> BltFactorization:
    """Factorization whose inverse-C generator is the degree-d approximant
    to sqrt(1-x), normalized to constant term 1.

    The poles of ``newman_sqrt(d)`` give theta_k = 1/center_k with exact
    residues -weight_k * theta_k^2 / rt(0); the zeros give theta_hat
    (including the exact zero at x = 1).  C's residues are exact too:
    ``omega_hat_k = -theta_hat_k^2 / r'(1/theta_hat_k)``, and with the zeros
    as offsets y_k, ``r'(1 + y_k) = -sum_i weight_i / (offset_i - y_k)^2 /
    rt(0)``, a sum of terms of one sign.  The construction depends on n only
    through the stored target horizon.  ``newman_sqrt`` checks d and
    ``BltFactorization`` checks n.
    """
    ladder = newman_sqrt(d)
    offsets, weights, constant = ladder.offsets, ladder.weights, ladder.constant
    theta = 1.0 / (1.0 + offsets)  # the offsets ascend, so theta is descending
    t_raw = constant - float(np.sum(weights * theta))
    omega = -(weights * theta * theta) / t_raw
    ys = np.concatenate(([0.0], _interlaced_zeros(offsets, weights, constant)))
    theta_hat = 1.0 / (1.0 + ys)
    slope = np.sum(weights / (offsets - ys[:, None]) ** 2, axis=1)
    omega_hat = t_raw * theta_hat * theta_hat / slope
    return BltFactorization(
        _nudge_descending(theta), _nudge_descending(theta_hat), n,
        method="ra", omega=omega, omega_hat=omega_hat,
    )
