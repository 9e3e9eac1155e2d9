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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seq import ToeplitzSeq

_METHODS = ("ra", "opt", "degree1", "manual")

# Above this degree, residue products switch to log-space to avoid overflow
# of partial products (the result itself stays representable).
_LOGSPACE_DEGREE = 32

_COEFF_CHUNK = 1 << 16

# The largest horizon n: stream row indices and array dimensions must fit a
# signed 64-bit integer.
_N_MAX = 2**63 - 1


@dataclass(frozen=True)
class RationalBlt:
    """Pole/residue form of a degree-d rational generator.

    Coefficients follow ``r_0 = 1`` and ``r_k = sum_j omega_j theta_j^{k-1}``
    for ``k >= 1``.  Checks shapes and finite residues only: the poles come
    from ``BltFactorization.rational()``, which has checked them.
    """

    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        omega = np.atleast_1d(np.asarray(self.omega, dtype=np.float64))
        if theta.shape != omega.shape or theta.ndim != 1:
            raise ValueError("theta and omega must be 1-d arrays of equal length")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega entries must be finite")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "omega", omega)

    @property
    def degree(self) -> int:
        return self.theta.size


def blt_coeffs(b: RationalBlt, n: int) -> ToeplitzSeq:
    """First ``n >= 1`` coefficients of ``b`` from the pole/residue closed form, O(n d)."""
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
    ``omega_hat`` with the two root sets swapped.  A shared root *between*
    the vectors simply zeroes the corresponding residue.  The checked entry
    for library callers: repeated roots within a vector (the denominator
    vanishes) and zero roots are refused.  Package code calls
    ``_residues_one_side`` instead: ``BltFactorization`` has checked its
    roots, and the optimizer's ``_screen`` refuses the rows whose residues
    come out non-finite.

    Accepts complex inputs and batches over leading axes, one root set per
    row; above degree 32 the factors' magnitudes are summed in log-space so
    that no partial product can overflow.
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
    return _residues_one_side(theta, theta_hat), _residues_one_side(theta_hat, theta)


def _residues_one_side(poles, zeros):
    """The residues at ``poles`` of ``prod(1 - zeros x) / prod(1 - poles x)``.

    Each factor ``1 - z/p`` is formed as the difference ``(p - z) / p``: the
    difference of two roots next to 1 is exact (Sterbenz), where the quotient
    rounds at one ulp of 1 and keeps only a few digits of ``1 - z/p``.
    """
    d = poles.shape[-1]
    p = poles[..., :, None]
    num = (p - zeros[..., None, :]) / p
    den = (p - poles[..., None, :]) / p
    den[..., range(d), range(d)] = 1.0
    if d <= _LOGSPACE_DEGREE:
        return poles * num.prod(axis=-1) / den.prod(axis=-1)
    # the same factors with magnitudes summed in log-space, so that no partial
    # product overflows; x / |x| is a real factor's sign and a complex step's
    # phase, so real and complex inputs take this one expression
    num_abs, den_abs = np.abs(num), np.abs(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(num_abs == 0.0, 1.0, num / num_abs).prod(axis=-1) / (den / den_abs).prod(axis=-1)
        mag = np.exp(np.log(num_abs).sum(axis=-1) - np.log(den_abs).sum(axis=-1))
    return poles * phase * mag


@dataclass(eq=False)
class BltFactorization:
    """A matched factor pair stored by its 2d root parameters plus a target n.

    ``theta`` are the inverse-C generator's pole reciprocals (B side),
    ``theta_hat`` its zeros (C side); the B-side residues ``omega`` and the
    C-side ones ``omega_hat`` are derived from the roots at construction.
    Constructions whose roots cannot be resolved at float64 (the rational
    approximation at large degree) pass their analytically exact residues
    instead; residues are never serialized.
    The constructor owns the checks on the roots (1-d, of equal length, in
    (0, 1], pairwise distinct), n and the method, also for a loaded file.
    """

    theta: np.ndarray
    theta_hat: np.ndarray
    n: int
    method: str = "manual"
    omega: np.ndarray = None
    meta: dict = None
    omega_hat: np.ndarray = None

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        theta_hat = np.atleast_1d(np.asarray(self.theta_hat, dtype=np.float64))
        if theta.ndim != 1 or theta.shape != theta_hat.shape:
            raise ValueError("theta and theta_hat must be 1-d arrays of equal length")
        for name, arr in (("theta", theta), ("theta_hat", theta_hat)):
            if not (np.all(arr > 0.0) and np.all(arr <= 1.0)):
                raise ValueError(f"{name} entries must lie in (0, 1]")
            if np.any(np.diff(np.sort(arr)) == 0):
                raise ValueError(f"{name} entries must be pairwise distinct")
        self.n = _int_arg("n", self.n)
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {', '.join(_METHODS)}, got {self.method!r}")
        self.theta = theta
        self.theta_hat = theta_hat
        self.meta = dict(self.meta or {})
        if self.omega is None:
            self.omega = _residues_one_side(theta, theta_hat)
        else:
            self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.omega_hat is None:
            self.omega_hat = _residues_one_side(theta_hat, theta)
        else:
            self.omega_hat = np.asarray(self.omega_hat, dtype=np.float64)

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
    n = _int_arg("n", n, least=2)
    lam = 1.0 - n ** (-2.0 / 3.0)
    a2 = n ** (-1.0 / 3.0) * (1.0 - n ** (-1.0 / 3.0))
    return BltFactorization([lam - a2], [lam], n, method="degree1")


def save_factorization(fact: BltFactorization, path) -> None:
    payload = fact.to_json_dict()
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _int_arg(name: str, value, least: int = 1, most: int = _N_MAX) -> int:
    """The one rule for an integer argument: an ``int`` or numpy integer, not
    a ``bool``, in [least, most], returned as a Python int so that counts
    cannot wrap.  A horizon that rows or arrays are formed over keeps the
    default ``most``; one that degree1 and opt are tuned to starts at 2,
    since at n = 1 their poles fall on 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not least <= value <= most:
        raise ValueError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
    return int(value)


def load_factorization(path) -> BltFactorization:
    """Load a factorization, regenerating exact parameters for constructions.

    Files with ``meta.method == "ra"`` are rebuilt from (degree, n) so the
    analytically exact residues are available, then checked against the
    stored roots.  Checks here only what JSON can get wrong (types, missing
    fields, degree against the lengths); ``BltFactorization`` and
    ``newman_sqrt`` check the values.  A malformed file raises one
    ``ValueError`` naming the file and the field.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("must hold a JSON object")
        for key in ("degree", "theta", "theta_hat", "n", "meta"):
            if key not in payload:
                raise ValueError(f"missing field {key!r}")
        meta, degree = payload["meta"], payload["degree"]
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, got {meta!r}")
        method = meta.get("method", "manual")
        if not isinstance(method, str):
            raise ValueError(f"meta.method must be a string, got {method!r}")
        degree = _int_arg("degree", degree, least=0)
        for key in ("theta", "theta_hat"):
            # np.asarray would read a numeric string as a number
            value = payload[key]
            if not (isinstance(value, list) and all(type(x) in (int, float) for x in value)):
                raise ValueError(f"{key} must be a flat list of numbers")
            if len(value) != degree:
                raise ValueError("degree field does not match stored roots")
        extra = {k: v for k, v in meta.items() if k not in ("method", "version")}
        if method != "ra":
            return BltFactorization(payload["theta"], payload["theta_hat"], payload["n"], method, meta=extra)
        from .rational import ra_blt_build

        fact = ra_blt_build(degree, payload["n"])
        for key in ("theta", "theta_hat"):
            if not np.allclose(getattr(fact, key), payload[key], rtol=0, atol=1e-12):
                raise ValueError(f"stored {key} does not match the regenerated construction")
        fact.meta.update(extra)
        return fact
    except ValueError as exc:
        raise ValueError(f"factorization file {path}: {exc}") from exc
