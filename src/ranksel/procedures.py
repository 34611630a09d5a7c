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

The simulation layers are vectorized over a leading replication axis:
run_stage1 and run_procedure run R replications as one batch of (R, k+1)
arrays, second_stage_size and dd_weights work elementwise, and
estimate_pcs runs fixed-size replication blocks, each on its own
substream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import gammainc, gammaincc, ndtr

from ranksel.distributions import _ARRAY_LIMIT, RandomStream, _check_array_limit, chunks
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

# Stage-1 random variates per replication block of estimate_pcs.  Blocks
# are sized from k + 1 (and n0 on the exact path) only, so the streams, and
# with them the estimates, never depend on the thread count.
_BLOCK_ELEMENTS = 2**14
# Sample sizes are int64; anything at or above this does not fit.
_INT64_LIMIT = 2.0**63
# |mu| below this keeps a lognormal prior's scale exp(mu) finite and nonzero.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # every run holds arrays with one entry per population
        _check_array_limit(self.k + 1, "the population count k + 1")
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
        if not all(math.isfinite(v) for v in self.params):
            raise ValueError(f"{self.kind} prior parameters must be finite, got {self.params}")
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
            if not abs(self.params[0]) < _LOG_FLOAT_MAX:
                raise ValueError(
                    f"lognormal mu must keep exp(mu) a finite nonzero float, got {self.params[0]}"
                )

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

    def mean(self) -> float:
        if self.kind == "fixed":
            return self.params[0]
        if self.kind == "inverse-gamma":
            shape, scale = self.params
            return scale / (shape - 1.0)
        mu, sigma = self.params
        with np.errstate(over="ignore"):
            return float(np.exp(mu + 0.5 * sigma * sigma))

    def expected_max(self, L: float) -> float:
        """E max{L, sigma^2} = L * P(sigma^2 <= L) + E[sigma^2; sigma^2 > L], for L >= 0."""
        if self.kind == "fixed":
            return max(L, self.params[0])
        if L == 0:
            return self.mean()
        if self.kind == "inverse-gamma":
            shape, scale = self.params
            x = scale / L
            return float(L * gammaincc(shape, x) + self.mean() * gammainc(shape - 1.0, x))
        mu, sigma = self.params
        z = (math.log(L) - mu) / sigma
        return float(L * ndtr(z) + self.mean() * ndtr(sigma - z))

    def sample(self, count: int, rng: RandomStream) -> np.ndarray:
        """`count` variance draws from rng's generator, with numpy's own samplers.

        Inverse-gamma is scale / Gamma(shape); lognormal is
        exp(sigma * Z) * exp(mu), the same bits as scipy's lognorm.rvs on
        the same generator; fixed consumes no randomness.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if self.kind == "fixed":
            return np.full(count, self.params[0])
        gen = rng.generator
        if self.kind == "inverse-gamma":
            shape, scale = self.params
            return scale / gen.standard_gamma(shape, count)
        mu, sigma = self.params
        return np.exp(sigma * gen.standard_normal(count)) * math.exp(mu)


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
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise ValueError("all means and variances must be finite")
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
    """Stage-1 means and S^2, each of shape (replications, k + 1)."""

    means: np.ndarray
    variances: np.ndarray
    n0: int


@dataclass(frozen=True, eq=False)
class ProcedureOutcome:
    """A batch of R runs: (R,) selections, totals and hits; (R, k + 1) sizes and statistics."""

    selected_index: np.ndarray
    sample_sizes: np.ndarray
    total_samples: np.ndarray
    correct: np.ndarray
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
    if not math.isfinite(gap * params.k):
        raise ValueError(f"the means 0, -gap, ..., -k*gap must be finite, got gap={gap}")
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
    instance: ProblemInstance,
    n0: int,
    rng: RandomStream,
    method: str = EXACT,
    replications: int = 1,
) -> Stage1Summary:
    """Pilot stage of `replications` runs: per-population mean and S^2.

    Both fields have shape (replications, k + 1).  The exact path draws
    all (replications, k + 1, n0) observations in one call.  The chi2 path
    draws the sufficient statistics directly: (replications, k + 1)
    normals for the means (mean ~ N(theta, sigma^2/n0)), then as many
    chi-squares for S^2 ~ sigma^2 * chi2_{n0-1} / (n0-1).  The two are
    distributionally indistinguishable and the latter is O(k) instead of
    O(k * n0) per run.
    """
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    gen = rng.generator
    shape = (replications, instance.size)
    sd = np.sqrt(instance.variances)
    if method == EXACT:
        obs = gen.standard_normal(shape + (n0,)) * sd[:, None] + instance.means[:, None]
        means = obs.mean(axis=2)
        variances = obs.var(axis=2, ddof=1)
    else:
        means = instance.means + sd * gen.standard_normal(shape) / math.sqrt(n0)
        variances = instance.variances * gen.chisquare(n0 - 1, size=shape) / (n0 - 1)
    return Stage1Summary(means, variances, n0)


def second_stage_size(s2, h: float, delta: float, n0: int):
    """max{N0 + 1, ceil((h/delta)^2 * S^2)}: the common sample-size rule.

    Elementwise over an array of S^2 values.  S^2 = 0 (impossible under
    the model, reachable with degenerate inputs) falls through to the
    N0 + 1 floor; a size that does not fit int64 raises ValueError.
    """
    s2 = np.asarray(s2, dtype=float)
    if not np.all(s2 >= 0):
        raise ValueError(f"S^2 must be nonnegative, got {np.min(s2)}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    raw = np.ceil(_size_factor(h, delta) * s2)
    _check_sizes_fit(raw)
    return np.maximum(raw.astype(np.int64), n0 + 1)


def _squared_ratio(a: float, b: float) -> float:
    """(a / b)^2, inf where Python's power would raise OverflowError."""
    try:
        return (a / b) ** 2
    except OverflowError:
        return math.inf


def _size_factor(h: float, delta: float) -> float:
    """(h/delta)^2, the factor of S^2 in the sample-size rule; ValueError when infinite."""
    factor = _squared_ratio(h, delta)
    if not math.isfinite(factor):
        raise ValueError(
            f"second-stage size factor (h/delta)^2 = ({h}/{delta})^2 does not fit a 64-bit integer"
        )
    return factor


def _check_sizes_fit(raw) -> None:
    """ValueError unless every raw size ceil((h/delta)^2 * S^2) fits int64."""
    if not np.all(raw < _INT64_LIMIT):
        raise ValueError(
            f"second-stage size (h/delta)^2*S^2 = {np.max(raw)} does not fit a 64-bit integer"
        )


def dd_weights(n0: int, n, s2, h: float, delta: float):
    """Stage-1 and stage-2 weights (b, c) of the Dudewicz-Dalal weighted mean.

    The weight vector is b on the n0 stage-1 observations and c on the
    N - n0 stage-2 ones; (b, c) solve

        n0 * b + (N - n0) * c = 1,   S^2 * (n0 * b^2 + (N - n0) * c^2) = (delta / h)^2,

    which pins the weighted mean's standardized error to an exact t
    distribution with n0 - 1 degrees of freedom.  The quadratic has two
    mirror-image roots around the uniform vector; the classical branch
    with the larger stage-1 weight is returned.  N and S^2 broadcast.
    """
    n = np.asarray(n)
    s2 = np.asarray(s2, dtype=float)
    if n0 < 2:
        raise ValueError(f"N0 must be >= 2, got {n0}")
    if not np.all(n >= n0 + 1):
        raise ValueError(f"need N >= N0 + 1, got N={np.min(n)}, N0={n0}")
    if not np.all(s2 > 0):
        raise ValueError(f"S^2 must be positive, got {np.min(s2)}")
    if h <= 0:
        raise ValueError(f"weights need a positive critical constant, got h={h}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    target = _squared_ratio(delta, h)
    if not math.isfinite(target):
        raise ValueError(
            f"weights need a finite (delta/h)^2, got ({delta}/{h})^2: delta is too large"
        )
    q = target / s2
    n2 = n - n0
    # q * n >= 1 iff n >= (h/delta)^2 S^2, which second_stage_size guarantees;
    # tolerate roundoff at the exact boundary.
    disc = n0 * (q * n - 1.0) / n2
    if np.any(disc < -1e-9):
        raise ValueError(
            f"infeasible weights: N below (h/delta)^2*S^2 (discriminant {np.min(disc)})"
        )
    c = (1.0 - np.sqrt(np.maximum(disc, 0.0))) / n
    b = (1.0 - n2 * c) / n0
    return b, c


def _h_value(h) -> float:
    return float(h.value) if isinstance(h, HConstant) else float(h)


def _normal_sums(gen: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """Sum of counts[j] fresh standard normals for every entry j (all >= 1).

    The normals are one sequence in row-major order of `counts`; it is drawn
    in pieces of about _BLOCK_ELEMENTS variates (whole entries each), which
    keeps memory bounded when the second-stage sizes are huge.
    """
    flat = counts.ravel()
    ends = np.cumsum(flat)
    sums = np.empty(flat.size)
    start = 0
    while start < flat.size:
        offset = ends[start] - flat[start]
        stop = max(start + 1, int(np.searchsorted(ends, offset + _BLOCK_ELEMENTS, "right")))
        draws = gen.standard_normal(int(ends[stop - 1] - offset))
        sums[start:stop] = np.add.reduceat(draws, ends[start:stop] - flat[start:stop] - offset)
        start = stop
    return sums.reshape(counts.shape)


def run_procedure(
    instance: ProblemInstance,
    params: ProcedureParams,
    h,
    rng: RandomStream,
    method: str = CHI2,
    replications: int = 1,
) -> ProcedureOutcome:
    """`replications` full two-stage runs; every outcome field has a leading R axis.

    The chi2 default simulates sufficient statistics only (needed when k
    runs into the thousands); the exact per-observation path is retained
    for validation.  Argmax ties break to the lowest index.

    Draw order from rng's one generator: stage 1 as in run_stage1, then
    stage 2.  On the chi2 path stage 2 is one (R, k + 1) array of normals
    (mean2 = theta + sigma * z / sqrt(N - n0)); on the exact path it is
    the N - n0 observations of every (replication, population) in
    row-major order, one normal sequence whose runs are summed.  The exact
    path refuses second-stage sizes above _ARRAY_LIMIT (ValueError).
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
    stage1 = run_stage1(instance, params.n0, rng, method, replications)
    sizes = second_stage_size(stage1.variances, hval, params.delta, params.n0)
    if np.max(sizes.sum(axis=1, dtype=float)) >= _INT64_LIMIT:
        raise ValueError("the total sample size of a run does not fit a 64-bit integer")
    if method == EXACT and np.max(sizes) > _ARRAY_LIMIT:
        raise ValueError(
            f"second-stage size {np.max(sizes)} exceeds the exact method's limit of "
            f"{_ARRAY_LIMIT} observations per population; use the chi2 method "
            "(--method chi2)"
        )
    n2 = sizes - params.n0
    gen = rng.generator
    sd = np.sqrt(instance.variances)
    if method == EXACT:
        mean2 = instance.means + sd * (_normal_sums(gen, n2) / n2)
    else:
        mean2 = instance.means + sd * gen.standard_normal(n2.shape) / np.sqrt(n2)
    if params.variant == DD:
        b, c = dd_weights(params.n0, sizes, stage1.variances, hval, params.delta)
        statistics = b * params.n0 * stage1.means + c * n2 * mean2
    else:
        statistics = (params.n0 * stage1.means + n2 * mean2) / sizes
    selected = np.argmax(statistics, axis=1)
    return ProcedureOutcome(
        selected_index=selected,
        sample_sizes=sizes,
        total_samples=sizes.sum(axis=1),
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

    Replications run in blocks of about _BLOCK_ELEMENTS stage-1 variates
    (k + 1 per replication, times n0 on the exact path); block b runs as
    one run_procedure batch on rng.substream(b).  The block size follows
    from the inputs alone, so the estimate does not depend on execution
    order or thread count.  h is solved from params when not supplied.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if h is None:
        h = solve_h(HEquationSpec(params.k, params.nu, params.p, params.variant))
    per_rep = instance.size * (params.n0 if method == EXACT else 1)
    hits = 0
    total = 0.0
    for block, (_, count) in enumerate(chunks(replications, per_rep, _BLOCK_ELEMENTS)):
        outcome = run_procedure(instance, params, h, rng.substream(block), method, count)
        hits += int(np.count_nonzero(outcome.correct))
        total += float(outcome.total_samples.sum(dtype=float))
    pcs = hits / replications
    std_error = math.sqrt(pcs * (1.0 - pcs) / replications)
    return PCSEstimate(pcs, std_error, replications, total / replications, h)
