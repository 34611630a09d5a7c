"""Two-stage selection procedures and probability-of-correct-selection runs.

Both procedures share the same skeleton: a pilot stage of N0 draws per
population estimates each variance, the second-stage size is

    N_i = max{N0 + 1, ceil((h / delta)^2 * S_i^2)},

and the population with the highest summary statistic wins.  They differ
in the critical constant h and in the summary statistic: the
Dudewicz-Dalal variant averages with a two-block weight vector tuned so
that (weighted mean - true mean) * h / delta is exactly t-distributed
with N0 - 1 degrees of freedom, while the Rinott variant uses the plain
mean of all N_i observations.

Population variances can themselves be random, drawn from a prior;
VariancePrior covers the degenerate, inverse-gamma and lognormal cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import stats

from ranksel.distributions import RandomStream
from ranksel.hconst import (
    DD,
    HConstant,
    HEquationSpec,
    _check_probability,
    _check_variant,
    solve_h,
)

__all__ = [
    "ProcedureParams",
    "VariancePrior",
    "ProblemInstance",
    "Stage1Summary",
    "ProcedureOutcome",
    "PCSEstimate",
    "make_slippage_instance",
    "run_stage1",
    "second_stage_size",
    "dd_weights",
    "run_procedure",
    "estimate_pcs",
]

EXACT = "exact"
CHI2 = "chi2"
_METHODS = (EXACT, CHI2)

PRIOR_KINDS = ("fixed", "inverse-gamma", "lognormal")


@dataclass(frozen=True)
class ProcedureParams:
    """Shared knobs of one selection run: confidence p, gap delta, k, N0."""

    p: float
    delta: float
    k: int
    n0: int
    variant: str

    def __post_init__(self):
        _check_probability(self.p)
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n0 < 2:
            raise ValueError(f"N0 must be >= 2, got {self.n0}")
        _check_variant(self.variant)

    @property
    def nu(self) -> int:
        return self.n0 - 1


@dataclass(frozen=True)
class VariancePrior:
    """Distribution of a population variance; all draws positive a.s.

    The inverse-gamma case requires shape > 2 so the variance draw has a
    finite second moment.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"prior kind must be one of {PRIOR_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        if self.kind == "fixed":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("fixed prior takes one positive value")
        elif self.kind == "inverse-gamma":
            if len(self.params) != 2:
                raise ValueError("inverse-gamma prior takes (shape, scale)")
            shape, scale = self.params
            if shape <= 2:
                raise ValueError(
                    f"inverse-gamma shape must exceed 2 for a finite second moment, got {shape}"
                )
            if scale <= 0:
                raise ValueError(f"inverse-gamma scale must be positive, got {scale}")
        else:
            if len(self.params) != 2 or self.params[1] <= 0:
                raise ValueError("lognormal prior takes (mu, sigma) with sigma > 0")

    @classmethod
    def fixed(cls, value: float) -> "VariancePrior":
        return cls("fixed", (value,))

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float) -> "VariancePrior":
        return cls("inverse-gamma", (shape, scale))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "VariancePrior":
        return cls("lognormal", (mu, sigma))

    @classmethod
    def from_string(cls, text: str) -> "VariancePrior":
        """Parse 'fixed:2.0', 'inverse-gamma:3,4' or 'lognormal:0,0.5'."""
        kind, sep, rest = text.partition(":")
        if not sep or not rest:
            raise ValueError(f"prior spec must look like 'kind:a,b', got {text!r}")
        return cls(kind.strip(), tuple(float(v) for v in rest.split(",")))

    def describe(self) -> str:
        return self.kind + ":" + ",".join(repr(v) for v in self.params)

    def _frozen(self):
        if self.kind == "inverse-gamma":
            shape, scale = self.params
            return stats.invgamma(shape, scale=scale)
        mu, sigma = self.params
        return stats.lognorm(sigma, scale=math.exp(mu))

    def mean(self) -> float:
        if self.kind == "fixed":
            return self.params[0]
        return float(self._frozen().mean())

    def second_moment(self) -> float:
        if self.kind == "fixed":
            return self.params[0] ** 2
        frozen = self._frozen()
        return float(frozen.var() + frozen.mean() ** 2)

    def sf(self, x) -> float | np.ndarray:
        if self.kind == "fixed":
            return np.where(np.asarray(x, dtype=float) < self.params[0], 1.0, 0.0)
        return self._frozen().sf(x)

    def sample(self, count: int, rng: RandomStream) -> np.ndarray:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self.kind == "fixed":
            return np.full(count, self.params[0])
        return np.asarray(self._frozen().rvs(size=count, random_state=rng.generator))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Concrete population means and variances; best_index = argmax mean."""

    means: np.ndarray
    variances: np.ndarray
    best_index: int = field(init=False)

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        if means.ndim != 1 or means.shape != variances.shape:
            raise ValueError("means and variances must be 1-d arrays of equal length")
        if means.size < 2:
            raise ValueError("an instance needs at least two populations")
        if np.any(variances <= 0):
            raise ValueError("all variances must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "best_index", int(np.argmax(means)))

    @property
    def size(self) -> int:
        return self.means.size

    def min_gap(self) -> float:
        """Smallest pairwise mean gap; the instance is in Theta(delta) iff this exceeds delta."""
        srt = np.sort(self.means)
        return float(np.min(np.diff(srt)))


@dataclass(frozen=True, eq=False)
class Stage1Summary:
    means: np.ndarray
    variances: np.ndarray
    n0: int


@dataclass(frozen=True, eq=False)
class ProcedureOutcome:
    selected_index: int
    sample_sizes: np.ndarray
    total_samples: int
    correct: bool
    statistics: np.ndarray


@dataclass(frozen=True)
class PCSEstimate:
    pcs: float
    std_error: float
    replications: int
    mean_total: float
    h_used: HConstant | float


def make_slippage_instance(
    params: ProcedureParams, gap: float, variances: Sequence[float]
) -> ProblemInstance:
    """Means 0, -gap, -2*gap, ...: every pairwise gap is at least `gap` > delta.

    This is the hardest legal configuration when gap is just above delta;
    the best population always sits at index 0.
    """
    if gap <= params.delta:
        raise ValueError(
            f"gap must strictly exceed delta={params.delta} to stay inside the "
            f"indifference zone, got {gap}"
        )
    variances = np.asarray(variances, dtype=float)
    if variances.shape != (params.k + 1,):
        raise ValueError(
            f"need {params.k + 1} variances for k={params.k}, got shape {variances.shape}"
        )
    means = -gap * np.arange(params.k + 1, dtype=float)
    return ProblemInstance(means, variances)


def run_stage1(
    instance: ProblemInstance, n0: int, rng: RandomStream, method: str = EXACT
) -> Stage1Summary:
    """Pilot stage: per-population mean and unbiased sample variance.

    The exact path simulates all n0 observations.  The chi2 path draws the
    sufficient statistics directly (mean ~ N(theta, sigma^2/n0), S^2 ~
    sigma^2 * chi2_{n0-1} / (n0-1)); the two are distributionally
    indistinguishable and the latter is O(k) instead of O(k * n0).
    """
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    gen = rng.generator
    sd = np.sqrt(instance.variances)
    if method == EXACT:
        obs = gen.standard_normal((instance.size, n0)) * sd[:, None] + instance.means[:, None]
        means = obs.mean(axis=1)
        variances = obs.var(axis=1, ddof=1)
    else:
        means = instance.means + sd * gen.standard_normal(instance.size) / math.sqrt(n0)
        variances = instance.variances * gen.chisquare(n0 - 1, size=instance.size) / (n0 - 1)
    return Stage1Summary(means, variances, n0)


def second_stage_size(s2: float, h: float, delta: float, n0: int) -> int:
    """max{N0 + 1, ceil((h/delta)^2 * S^2)}: the common sample-size rule.

    S^2 = 0 (impossible under the model, reachable with degenerate inputs)
    falls through to the N0 + 1 floor.
    """
    if s2 < 0:
        raise ValueError(f"S^2 must be nonnegative, got {s2}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    return max(n0 + 1, math.ceil((h / delta) ** 2 * s2))


def dd_weights(n0: int, n: int, s2: float, h: float, delta: float) -> np.ndarray:
    """Two-block weight vector for the Dudewicz-Dalal weighted mean.

    Weights are constant within stage 1 (first n0 entries) and within
    stage 2, and solve

        sum(a) = 1,   S^2 * sum(a^2) = (delta / h)^2,

    which pins the weighted mean's standardized error to an exact t
    distribution with n0 - 1 degrees of freedom.  The quadratic has two
    mirror-image roots around the uniform vector; the classical branch
    with the larger stage-1 weight is returned.
    """
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    if n < n0 + 1:
        raise ValueError(f"need N >= N0 + 1, got N={n}, N0={n0}")
    if s2 <= 0:
        raise ValueError(f"S^2 must be positive, got {s2}")
    if h <= 0:
        raise ValueError(f"weights need a positive critical constant, got h={h}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    q = (delta / h) ** 2 / s2
    n2 = n - n0
    # q * n >= 1 iff n >= (h/delta)^2 S^2, which second_stage_size guarantees;
    # tolerate roundoff at the exact boundary.
    disc = n0 * (q * n - 1.0) / n2
    if disc < 0:
        if disc < -1e-9:
            raise ValueError(
                f"infeasible weights: N={n} below (h/delta)^2*S^2={(h / delta) ** 2 * s2}"
            )
        disc = 0.0
    d = math.sqrt(disc)
    c = (1.0 - d) / n
    b = (1.0 - n2 * c) / n0
    weights = np.empty(n)
    weights[:n0] = b
    weights[n0:] = c
    return weights


def _h_value(h) -> float:
    return float(h.value) if isinstance(h, HConstant) else float(h)


def run_procedure(
    instance: ProblemInstance,
    params: ProcedureParams,
    h,
    rng: RandomStream,
    method: str = CHI2,
) -> ProcedureOutcome:
    """One full two-stage run; returns selection, sizes and the statistics.

    The chi2 default simulates sufficient statistics only (needed when k
    runs into the thousands); the exact per-observation path is retained
    for validation.  Argmax ties break to the lowest index.
    """
    if instance.size != params.k + 1:
        raise ValueError(
            f"instance has {instance.size} populations, params expect {params.k + 1}"
        )
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    hval = _h_value(h)
    if params.variant == DD and hval <= 0:
        raise ValueError(
            f"the weighted-mean variant needs h > 0, got h={hval} "
            "(p at or below the symmetry point)"
        )
    stage1 = run_stage1(instance, params.n0, rng, method)
    sizes = np.array(
        [
            second_stage_size(s2, hval, params.delta, params.n0)
            for s2 in stage1.variances
        ],
        dtype=np.int64,
    )
    gen = rng.generator
    sd = np.sqrt(instance.variances)
    statistics = np.empty(instance.size)
    for i in range(instance.size):
        n2 = int(sizes[i]) - params.n0
        if method == EXACT:
            obs2 = gen.standard_normal(n2) * sd[i] + instance.means[i]
            mean2 = obs2.mean()
        else:
            mean2 = instance.means[i] + sd[i] * gen.standard_normal() / math.sqrt(n2)
        if params.variant == DD:
            w = dd_weights(params.n0, int(sizes[i]), stage1.variances[i], hval, params.delta)
            statistics[i] = (
                w[0] * params.n0 * stage1.means[i] + w[-1] * n2 * mean2
            )
        else:
            statistics[i] = (
                params.n0 * stage1.means[i] + n2 * mean2
            ) / sizes[i]
    selected = int(np.argmax(statistics))
    return ProcedureOutcome(
        selected_index=selected,
        sample_sizes=sizes,
        total_samples=int(sizes.sum()),
        correct=selected == instance.best_index,
        statistics=statistics,
    )


def estimate_pcs(
    params: ProcedureParams,
    instance: ProblemInstance,
    replications: int,
    rng: RandomStream,
    h=None,
    method: str = CHI2,
) -> PCSEstimate:
    """Monte Carlo probability of correct selection on a fixed instance.

    Each replication runs on its own substream, so the estimate does not
    depend on execution order.  h is solved from params when not supplied.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if h is None:
        h = solve_h(HEquationSpec(params.k, params.nu, params.p, params.variant))
    hits = 0
    total = 0
    for rep in range(replications):
        outcome = run_procedure(instance, params, h, rng.substream(rep), method)
        hits += outcome.correct
        total += outcome.total_samples
    pcs = hits / replications
    std_error = math.sqrt(pcs * (1.0 - pcs) / replications)
    return PCSEstimate(pcs, std_error, replications, total / replications, h)
