"""Student-t primitives, the degrees-of-freedom schedule nu(k) and reproducible random streams.

The blocked Monte Carlo loop of procedures.estimate_pcs cuts its
replications into the blocks of ``chunks`` and draws block b from
substream b, in order and in the caller's thread: no code of the package
starts a thread, and no result depends on the CPU count.

The critical-constant solver propagates any CDF error straight into its
residual, so the t functions evaluate ``scipy.special.stdtr`` on the
lower tail, where it keeps full relative precision, and reach the upper
tail by symmetry.  All of them are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri, poch, stdtr, stdtrit

__all__ = [
    "RandomStream",
    "ScheduleSpec",
    "chunks",
    "t_pdf",
    "t_logcdf",
    "t_quantile",
]

# Longest array a command may hold in memory (replications, populations or
# draws in one row): one float array of this length is 128 MiB.
_ARRAY_LIMIT = 2**24


def _check_count(value, name: str, least: int = 1, most: int | None = None) -> int:
    """The one check of a count (k, N0, nu, replications, draws): a Python int in [least, most].

    A non-integer raises TypeError and a value out of range ValueError; both
    name the argument.  numpy integers are accepted, a bool is not (as
    numpy's own bool is not).
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


def _check_choice(value, choices: tuple, name: str):
    """The one check of an argument taking one of a closed set of names: ValueError naming it."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    return value


SCHEDULE_KINDS = ("constant", "log-growth", "power-growth", "linear")


@dataclass(frozen=True)
class ScheduleSpec:
    """Degrees of freedom nu(k) for k populations; the pilot size is nu(k) + 1.

    constant: nu(k) = nu.  log-growth: ceil(ln k) + 1.  power-growth:
    ceil(k^(1/4)) + 1.  linear: k.  Every kind is nondecreasing in k.
    """

    kind: str
    nu: int | None = None

    def __post_init__(self):
        _check_choice(self.kind, SCHEDULE_KINDS, "schedule kind")
        if self.kind == "constant":
            if self.nu is None:
                raise ValueError("constant schedule needs nu (--nu)")
            object.__setattr__(self, "nu", _check_count(self.nu, "degrees of freedom"))
        elif self.nu is not None:
            raise ValueError(f"{self.kind} schedule takes no nu")

    def nu_at(self, k: int) -> int:
        k = _check_count(k, "k")
        if self.kind == "constant":
            return self.nu
        if self.kind == "log-growth":
            return math.ceil(math.log(k)) + 1
        if self.kind == "power-growth":
            return math.ceil(k ** 0.25) + 1
        return k

    def grid(self, ks: Iterable[int]) -> list[tuple[int, int]]:
        """``(k, nu_at(k))`` for each k of a non-empty, strictly ascending list of integers.

        The one check of a k list: every table walks its rows through it.
        """
        ks = [_check_count(k, "k") for k in ks]
        if not ks:
            raise ValueError("ks must be non-empty")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("ks must be strictly ascending")
        return [(k, self.nu_at(k)) for k in ks]


def _log_gamma_ratio(nu: int) -> float:
    """log Gamma((nu+1)/2) - log Gamma(nu/2), to a few ulps of its size.

    Not as a difference of two lgamma values, which loses 5e-10 to
    cancellation at nu = 1e6.  ``poch`` is within 4.8e-14 below nu = 100 but
    up to 5.7e-12 off above it (nu = 12345), where the asymptotic series in
    a = nu/2 is within 1.8e-15.
    """
    a = nu / 2.0
    if nu < 100:
        return math.log(poch(a, 0.5))
    return 0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3) - 1.0 / (640.0 * a**5)


def _t_logpdf(x: np.ndarray, nu: int) -> np.ndarray:
    lognorm = _log_gamma_ratio(nu) - 0.5 * math.log(nu * math.pi)
    with np.errstate(over="ignore"):  # x * x overflows past |x| = 1.3e154, where g < 2e-309
        return lognorm - ((nu + 1) / 2.0) * np.log1p(x * x / nu)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def t_pdf(x, nu: int):
    """Density of the t distribution with ``nu`` degrees of freedom.

    Accepts a scalar or an ndarray and returns the same shape.
    """
    nu = _check_count(nu, "degrees of freedom")
    arr, scalar = _as_array(x)
    res = np.exp(_t_logpdf(arr, nu))
    return float(res) if scalar else res


def t_logcdf(x, nu: int):
    """log of the t CDF, accurate in both tails.

    One ``stdtr`` call on -|x| gives the lower tail at every point: for
    x <= 0 it is the CDF itself, well-scaled, so the log is direct; for
    x > 0 it is the (exactly computed) upper tail, taken through log1p.
    """
    nu = _check_count(nu, "degrees of freedom")
    arr, scalar = _as_array(x)
    lower = stdtr(nu, -np.abs(arr))
    with np.errstate(divide="ignore"):  # a CDF that underflows to 0 has log -inf
        res = np.where(arr <= 0, np.log(lower), np.log1p(-lower))
    return float(res) if scalar else res


def t_quantile(q: float, nu: int) -> float:
    """Inverse t CDF: ``stdtrit`` below the median, Brent's method above.

    The upper half brackets from the normal quantile, doubling until it
    straddles.  It stays a root search because the solver's integration
    cutoff is this quantile at q = 1 - 1e-12: -stdtrit(nu, 1 - q) lies 1.7e-5
    relative off it at nu = 1 and 2, and as that cutoff it moves h_rinott at
    nu = 2, p = 0.99, k = 1e5 by 5.3e-7, past the bench reference's 1e-9.
    """
    nu = _check_count(nu, "degrees of freedom")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {q}")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return float(stdtrit(nu, q))
    hi = max(2.0, 2.0 * float(ndtri(q)))
    while stdtr(nu, hi) <= q:  # ends by hi = inf at the latest, where stdtr is 1 > q
        hi *= 2.0
    root = brentq(lambda v: stdtr(nu, v) - q, 0.0, hi, xtol=1e-12, rtol=8.9e-16)
    return float(root)


@dataclass
class RandomStream:
    """Reproducible random source keyed by a master seed and an integer path.

    ``substream(*ids)`` derives statistically independent children; two
    streams built from the same ``(seed, path)`` replay the identical draw
    sequence, so work split over substreams gives the same draws whatever
    order it runs in.  Splitting goes through numpy's
    ``SeedSequence`` spawn keys.  The seed must be an integer >= 0 and every
    id an integer in [0, 2^32): TypeError or ValueError naming it otherwise.
    """

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        self.seed = _check_count(self.seed, "seed", least=0)
        self.path = tuple(_check_count(i, "stream id", least=0, most=2**32 - 1) for i in self.path)

    def substream(self, *ids: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + ids)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen


def chunks(total: int, per_item: int, budget: int) -> list[int]:
    """Item counts of the blocks that cover ``total`` items in order.

    Each block holds ``budget // per_item`` items (at least one), the last
    what is left, so a block of items costing ``per_item`` elements each
    stays within ``budget`` elements.
    """
    size = max(1, budget // per_item)
    return [min(size, total - start) for start in range(0, total, size)]

