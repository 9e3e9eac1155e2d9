"""Degree-d rational generating functions and factorization parameterizations.

A factorization A = B C of the all-ones lower-triangular matrix is stored by
the 2d real parameters (theta, theta_hat): the inverse-C generator is

    r(x) = prod_i (1 - theta_hat_i x) / prod_i (1 - theta_i x)
         = 1 + x * sum_i omega_i / (1 - theta_i x),

with residues omega derived in closed form.  C's own generator is 1/r and B's
is r(x)/(1 - x), so B-side coefficients are prefix sums of r's.  This module
converts the root form to the pole/residue form, the one form the streaming
engine and the evaluators read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seq import ToeplitzSeq

_METHODS = ("ra", "opt", "degree1", "manual")

# Above this degree, real-input residue products switch to log-space to avoid
# overflow of individual factors (the result itself stays representable).
_LOGSPACE_DEGREE = 32

_COEFF_CHUNK = 1 << 16

# The largest horizon n: stream row indices and array dimensions must fit a
# signed 64-bit integer.
_N_MAX = 2**63 - 1


@dataclass(frozen=True)
class RationalBlt:
    """Pole/residue form of a degree-d rational generator.

    Coefficients follow ``r_0 = 1`` and ``r_k = sum_j omega_j theta_j^{k-1}``
    for ``k >= 1``.
    """

    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        omega = np.atleast_1d(np.asarray(self.omega, dtype=np.float64))
        if theta.shape != omega.shape or theta.ndim != 1:
            raise ValueError("theta and omega must be 1-d arrays of equal length")
        if theta.size:
            if not (np.all(theta > 0.0) and np.all(theta <= 1.0)):
                raise ValueError("theta entries must lie in (0, 1]")
            if np.unique(theta).size != theta.size:
                raise ValueError("theta entries must be pairwise distinct")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega entries must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)

    @property
    def degree(self) -> int:
        return self.theta.size


def blt_coeffs(b: RationalBlt, n: int) -> ToeplitzSeq:
    """First ``n`` coefficients of ``b`` from the pole/residue closed form, O(n d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n)
    out[0] = 1.0
    for k0 in range(1, n, _COEFF_CHUNK):
        k1 = min(k0 + _COEFF_CHUNK, n)
        powers = b.theta[None, :] ** np.arange(k0 - 1, k1 - 1)[:, None]
        out[k0:k1] = powers @ b.omega
    return ToeplitzSeq(out)


def residues_from_roots(theta, theta_hat):
    """Residues of ``r = prod(1 - theta_hat x)/prod(1 - theta x)`` and of ``1/r``.

    Closed form: ``omega_i = theta_i * prod_k (1 - theta_hat_k/theta_i)
    / prod_{j != i} (1 - theta_j/theta_i)``, and symmetrically for
    ``omega_hat`` with the two root sets swapped.  Repeated roots within a
    vector are rejected (the denominator vanishes); a shared root *between*
    the vectors simply zeroes the corresponding residue.

    Accepts complex inputs (used by step-differentiation) and batches over
    leading axes, one root set per row; real inputs of degree > 32 are
    evaluated in log-space so that individual factors cannot overflow.
    """
    theta = np.atleast_1d(np.asarray(theta))
    theta_hat = np.atleast_1d(np.asarray(theta_hat))
    if theta.shape != theta_hat.shape:
        raise ValueError("theta and theta_hat must be arrays of equal shape")
    for name, arr in (("theta", theta), ("theta_hat", theta_hat)):
        if np.any(arr == 0):
            raise ValueError(f"{name} contains a zero root")
        if np.any(np.diff(np.sort(arr, axis=-1), axis=-1) == 0):
            raise ValueError(f"{name} contains repeated roots")
    omega = _residues_one_side(theta, theta_hat)
    omega_hat = _residues_one_side(theta_hat, theta)
    return omega, omega_hat


def _residues_one_side(poles, zeros):
    d = poles.shape[-1]
    num = 1.0 - zeros[..., None, :] / poles[..., :, None]
    den = 1.0 - poles[..., None, :] / poles[..., :, None]
    den[..., range(d), range(d)] = 1.0
    if d <= _LOGSPACE_DEGREE or np.iscomplexobj(poles) or np.iscomplexobj(zeros):
        return poles * num.prod(axis=-1) / den.prod(axis=-1)
    sign = np.prod(np.sign(num), axis=-1) * np.prod(np.sign(den), axis=-1)
    zero_num = np.any(num == 0.0, axis=-1)
    with np.errstate(divide="ignore"):
        log_mag = (
            np.log(np.abs(poles))
            + np.log(np.abs(num)).sum(axis=-1)
            - np.log(np.abs(den)).sum(axis=-1)
        )
    out = sign * np.exp(log_mag)
    out[zero_num] = 0.0
    return out


@dataclass(eq=False)
class BltFactorization:
    """A matched factor pair stored by its 2d root parameters plus a target n.

    ``theta`` are the inverse-C generator's pole reciprocals (B side),
    ``theta_hat`` its zeros (C side); the B-side residues ``omega`` are
    derived from the roots at construction.  Constructions whose roots cannot
    be resolved at float64 (the rational approximation at large degree) pass
    their analytically exact residues instead; residues are never serialized.
    """

    theta: np.ndarray
    theta_hat: np.ndarray
    n: int
    method: str = "manual"
    omega: np.ndarray = None
    meta: dict = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        theta_hat = np.atleast_1d(np.asarray(self.theta_hat, dtype=np.float64))
        if theta.ndim != 1 or theta.shape != theta_hat.shape:
            raise ValueError("theta and theta_hat must be 1-d arrays of equal length")
        for name, arr in (("theta", theta), ("theta_hat", theta_hat)):
            if arr.size and not (np.all(arr > 0.0) and np.all(arr <= 1.0)):
                raise ValueError(f"{name} entries must lie in (0, 1]")
            if np.unique(arr).size != arr.size:
                raise ValueError(f"{name} entries must be pairwise distinct")
        n = self.n
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and 1 <= n <= _N_MAX):
            raise ValueError(f"n must be a positive integer <= 2**63 - 1, got {n!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.theta = theta
        self.theta_hat = theta_hat
        self.n = int(n)
        self.meta = dict(self.meta or {})
        if self.omega is None:
            self.omega = residues_from_roots(theta, theta_hat)[0]
        else:
            self.omega = np.asarray(self.omega, dtype=np.float64)

    @property
    def degree(self) -> int:
        return self.theta.size

    def rational(self) -> RationalBlt:
        """Pole/residue form of the inverse-C generator r(x)."""
        return RationalBlt(self.theta, self.omega)

    def to_json_dict(self) -> dict:
        meta = {"method": self.method, "version": 1}
        meta.update(self.meta)
        return {
            "degree": self.degree,
            "theta": self.theta.tolist(),
            "theta_hat": self.theta_hat.tolist(),
            "n": self.n,
            "meta": meta,
        }

    def __repr__(self):
        return (
            f"BltFactorization(degree={self.degree}, n={self.n}, method={self.method!r})"
        )


def degree1_closed_form(n: int) -> BltFactorization:
    """Closed-form single-pole factorization for a target horizon ``n``.

    Sets the C-generator to ``1 + a^2 x / (1 - lam x)`` with
    ``lam = 1 - n^(-2/3)`` and ``a^2 = n^(-1/3) (1 - n^(-1/3))``; its inverse
    is ``1 - a^2 x / (1 - (lam - a^2) x)``, so theta = lam - a^2 and
    theta_hat = lam.  Squared sensitivity is bounded by 1 + a^4/(1 - lam^2).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lam = 1.0 - n ** (-2.0 / 3.0)
    a2 = n ** (-1.0 / 3.0) * (1.0 - n ** (-1.0 / 3.0))
    return BltFactorization([lam - a2], [lam], n, method="degree1")


def save_factorization(fact: BltFactorization, path) -> None:
    payload = fact.to_json_dict()
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    """A flat JSON list of finite numbers."""
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in value
    )


def load_factorization(path) -> BltFactorization:
    """Load a factorization, regenerating exact parameters for constructions.

    Files with ``meta.method == "ra"`` are rebuilt from (degree, n) so the
    analytically exact residues are available, then checked against the stored
    roots.  A malformed file raises ``ValueError`` naming the file and the field.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))

    def malformed(what):
        return ValueError(f"factorization file {path}: {what}")

    if not isinstance(payload, dict):
        raise malformed("must hold a JSON object")
    for key in ("degree", "theta", "theta_hat", "n", "meta"):
        if key not in payload:
            raise malformed(f"missing field {key!r}")
    meta, n, degree = payload["meta"], payload["n"], payload["degree"]
    if not isinstance(meta, dict):
        raise malformed(f"meta must be a JSON object, got {meta!r}")
    if not (_is_int(n) and 1 <= n <= _N_MAX):
        raise malformed(f"n must be a positive integer <= 2**63 - 1, got {n!r}")
    if not (_is_int(degree) and degree >= 0):
        raise malformed(f"degree must be a non-negative integer, got {degree!r}")
    for key in ("theta", "theta_hat"):
        if not _is_number_list(payload[key]):
            raise malformed(f"{key} must be a flat list of finite numbers")
    method = meta.get("method", "manual")
    if method not in _METHODS:
        raise malformed(f"meta.method must be one of {', '.join(_METHODS)}, got {method!r}")
    if method == "ra" and degree < 3:
        raise malformed(f"degree must be >= 3 for an ra file, got {degree}")
    theta = np.asarray(payload["theta"], dtype=np.float64)
    theta_hat = np.asarray(payload["theta_hat"], dtype=np.float64)
    if len(theta) != degree or len(theta_hat) != degree:
        raise malformed("degree field does not match stored roots")
    extra = {k: v for k, v in meta.items() if k not in ("method", "version")}
    if method == "ra":
        from .rational import ra_blt_build

        fact = ra_blt_build(degree, n)
        if not np.allclose(fact.theta, theta, rtol=0, atol=1e-12):
            raise malformed("stored roots do not match the regenerated construction")
        fact.meta.update(extra)
        return fact
    return BltFactorization(theta, theta_hat, n, method=method, meta=extra)
