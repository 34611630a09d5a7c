"""Student-t primitives plus reproducible random streams.

The critical-constant solver propagates any CDF error straight into its
residual, so the t functions evaluate ``scipy.special.stdtr`` on the
lower tail, where it keeps full relative precision, and reach the upper
tail by symmetry.  All of them are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtri, poch, stdtr, stdtrit

__all__ = [
    "RandomStream",
    "chunks",
    "map_blocks",
    "t_pdf",
    "t_cdf",
    "t_logcdf",
    "t_quantile",
]

T = TypeVar("T")

# Longest array a command may hold in memory (replications, populations or
# draws in one row): one float array of this length is 128 MiB.
_ARRAY_LIMIT = 2**24


def _check_nu(nu) -> int:
    if not isinstance(nu, (int, np.integer)):
        raise TypeError(f"degrees of freedom must be an integer, got {nu!r}")
    if nu < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {nu}")
    return int(nu)


def _t_logpdf(x: np.ndarray, nu: int) -> np.ndarray:
    # log Gamma((nu+1)/2) - log Gamma(nu/2) as one ratio: the difference of
    # two lgamma values loses 5e-10 to cancellation at nu = 1e6
    lognorm = math.log(poch(nu / 2.0, 0.5)) - 0.5 * math.log(nu * math.pi)
    return lognorm - ((nu + 1) / 2.0) * np.log1p(x * x / nu)


def _as_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def t_pdf(x, nu: int):
    """Density of the t distribution with ``nu`` degrees of freedom.

    Accepts a scalar or an ndarray and returns the same shape.
    """
    nu = _check_nu(nu)
    arr, scalar = _as_array(x)
    res = np.exp(_t_logpdf(arr, nu))
    return float(res) if scalar else res


def t_cdf(x, nu: int):
    """CDF of the t distribution with ``nu`` degrees of freedom.

    Full relative precision in the lower tail (no ``1 - tiny``
    cancellation).  Accepts a scalar or an ndarray and returns the same
    shape.
    """
    nu = _check_nu(nu)
    arr, scalar = _as_array(x)
    res = stdtr(nu, arr)
    return float(res) if scalar else res


def t_logcdf(x, nu: int):
    """log of the t CDF, accurate in both tails.

    One ``stdtr`` call on -|x| gives the lower tail at every point: for
    x <= 0 it is the CDF itself, well-scaled, so the log is direct; for
    x > 0 it is the (exactly computed) upper tail, taken through log1p.
    """
    nu = _check_nu(nu)
    arr, scalar = _as_array(x)
    lower = stdtr(nu, -np.abs(arr))
    with np.errstate(divide="ignore"):  # a CDF that underflows to 0 has log -inf
        res = np.where(arr <= 0, np.log(lower), np.log1p(-lower))
    return float(res) if scalar else res


def t_quantile(q: float, nu: int) -> float:
    """Inverse t CDF: ``stdtrit`` below the median, Brent's method above.

    The upper half brackets from the normal quantile, doubling until it
    straddles.  It stays a root search because the solver's integration
    cutoff is this quantile and the printed constants depend on its bits.
    """
    nu = _check_nu(nu)
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
    sequence, so parallel work scheduled over substreams is order-free.
    Splitting goes through numpy's ``SeedSequence`` spawn keys.
    """

    seed: int
    path: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def substream(self, *ids: int) -> "RandomStream":
        clean = []
        for i in ids:
            i = int(i)
            if not 0 <= i < 2**32:
                raise ValueError(f"stream id out of range: {i}")
            clean.append(i)
        return RandomStream(self.seed, self.path + tuple(clean))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen


def chunks(total: int, per_item: int, budget: int) -> Iterator[tuple[int, int]]:
    """``(start, count)`` runs covering ``range(total)`` in order.

    Each run holds ``budget // per_item`` items (at least one), so a run of
    items costing ``per_item`` elements each stays within ``budget``
    elements.  A caller that draws every run from one generator in this
    order gets results that do not depend on ``budget``.
    """
    size = max(1, budget // per_item)
    for start in range(0, total, size):
        yield start, min(size, total - start)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def map_blocks(
    fn: Callable[[RandomStream, int], T],
    total: int,
    per_item: int,
    budget: int,
    rng: RandomStream,
) -> list[T]:
    """``fn(rng.substream(b), count)`` for each block b of ``chunks(total, per_item, budget)``.

    Results come back in block order.  The blocks run on a thread pool with
    one worker per CPU this process may use (at most one per block), or
    serially when that is one; numpy's samplers release the interpreter lock,
    so large blocks draw in parallel.  Block b draws only from substream b,
    so the results depend on the inputs and the budget, never on the CPU
    count or the order in which blocks finish.
    """
    counts = [n for _, n in chunks(total, per_item, budget)]

    def block(b: int) -> T:
        return fn(rng.substream(b), counts[b])

    workers = min(_worker_count(), len(counts))
    if workers <= 1:
        return [block(b) for b in range(len(counts))]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(block, range(len(counts))))


def _check_array_limit(length: int, what: str) -> None:
    if length > _ARRAY_LIMIT:
        raise ValueError(f"{what} must be at most {_ARRAY_LIMIT}, got {length}")
