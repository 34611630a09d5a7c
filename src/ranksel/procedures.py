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
substream.  Calls that share a stream, N0, method, replication count and
variances (the Dudewicz-Dalal and Rinott runs of one pcs command) share each
block's stage 1: it is drawn once, kept read-only, and the block generator
resumes from its state after stage 1, so every result has the same bits as
a fresh draw and the two procedures are compared on common random numbers.

The exact method draws every observation of both stages.  The chi2 method
draws stage 1 only, as sufficient statistics, and rescales the stage-1
error X1 - theta, which is independent of S^2, to the statistic's exact
error law given S^2 (Rinott N(0, sigma^2 / N), Dudewicz-Dalal
N(0, sigma^2 (delta/h)^2 / S^2)).  Both carry errors, never means, and add
theta once, at the end, so an error below theta's ulp is not rounded away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import betaincinv, gammainc, gammaincc, ndtr

from ranksel.distributions import _ARRAY_LIMIT, RandomStream, _check_count, chunks
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
# with them the estimates, never depend on the CPU count.  Not mc_oracle's
# 2^19, which made an estimate at k = 100 or 1000 20-30 % slower and 4 MB larger.
_BLOCK_ELEMENTS = 2**14
# estimate_pcs keeps a run's stage 1 while replications * (k + 1) is at most
# this: its errors and S^2 together hold 2^24 floats, 128 MiB, at most.
_STAGE1_MEMO_LIMIT = 2**23
# Sample sizes are int64; anything at or above this does not fit.
_INT64_LIMIT = 2.0**63
# |mu| below this keeps a lognormal prior's scale exp(mu) finite and nonzero.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
# The exact method's stage-1 draws of one replication are one array
_EXACT_STAGE1 = "the exact method's stage-1 draws per replication (k + 1) * N0 (use --method chi2)"
# Refusals of an overflowing (h/delta)^2 and (delta/h)^2, for _finite_square
_SIZE_TOO_LARGE = "second-stage size factor (h/delta)^2 = ({a}/{b})^2 does not fit a 64-bit integer"
_WEIGHTS_TOO_LARGE = "weights need a finite (delta/h)^2, got ({a}/{b})^2: delta is too large"


def _check_delta(delta: float) -> None:
    """The one check of the indifference gap delta: positive and finite."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _check_method(method: str) -> None:
    """The one check of a stage-sampling method name."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")


def _check_instance(instance: ProblemInstance, params: ProcedureParams) -> None:
    """The one check that an instance holds the k + 1 populations params expect."""
    if instance.size != params.k + 1:
        raise ValueError(
            f"instance has {instance.size} populations, params expect {params.k + 1}"
        )


def _finite_square(a: float, b: float, message: str) -> float:
    """(a / b)^2, or ValueError(message.format(a=a, b=b)) when that is not a finite float."""
    try:
        square = (a / b) ** 2
    except OverflowError:
        square = math.inf
    if not math.isfinite(square):
        raise ValueError(message.format(a=a, b=b))
    return square


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
        _check_delta(self.delta)
        object.__setattr__(self, "k", _check_count(self.k, "k"))
        # every run holds arrays with one entry per population
        _check_count(self.k + 1, "the population count k + 1", most=_ARRAY_LIMIT)
        object.__setattr__(self, "n0", _check_count(self.n0, "N0", least=2))
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
        try:
            params = tuple(float(v) for v in rest.split(","))
        except ValueError:
            raise ValueError(f"prior parameters must be numbers, got {text!r}") from None
        return cls(kind.strip(), params)

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
        if not L >= 0:  # also refuses NaN
            raise ValueError(f"L must be nonnegative, got {L}")
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
        count = _check_count(count, "count")
        if self.kind == "fixed":
            return np.full(count, self.params[0])
        gen = rng.generator
        if self.kind == "inverse-gamma":
            shape, scale = self.params
            draws = gen.standard_gamma(shape, count)
            return np.divide(scale, draws, out=draws)
        mu, sigma = self.params
        draws = gen.standard_normal(count)
        np.exp(np.multiply(draws, sigma, out=draws), out=draws)
        return np.multiply(draws, math.exp(mu), out=draws)


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
    """Stage-1 errors X1 - theta of the means, and S^2; each of shape (replications, k + 1)."""

    errors: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True, eq=False)
class ProcedureOutcome:
    """A batch of R runs: (R,) selections, totals and hits; (R, k + 1) sizes and statistics.

    Each statistic is theta plus its error: on the exact method the error of
    the weighted (Dudewicz-Dalal) or plain (Rinott) mean of the drawn
    observations, on the chi2 method a draw from that error's law given S^2.
    """

    selected_index: np.ndarray
    sample_sizes: np.ndarray
    total_samples: np.ndarray
    correct: np.ndarray
    statistics: np.ndarray


@dataclass(frozen=True)
class PCSEstimate:
    """Hit fraction pcs over `replications` runs, its standard error and 95 % interval.

    std_error is the plug-in sqrt(pcs (1 - pcs) / replications), which reads
    0 at pcs 0 or 1; [pcs_lo, pcs_hi] is the exact two-sided 95 %
    Clopper-Pearson interval, which does not collapse there.
    """

    pcs: float
    std_error: float
    replications: int
    mean_total: float
    h_used: HConstant | float
    pcs_lo: float
    pcs_hi: float


def _clopper_pearson(hits: int, trials: int) -> tuple[float, float]:
    """Exact two-sided 95 % Clopper-Pearson bounds on a binomial success probability.

    The lower bound is the beta(hits, trials - hits + 1) quantile at 0.025,
    the upper the beta(hits + 1, trials - hits) quantile at 0.975; they are
    0 at hits = 0 and 1 at hits = trials.
    """
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, 0.025))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 0.975))
    return lo, hi


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
    """Pilot stage of `replications` runs: per-population error X1 - theta and S^2.

    Both fields have shape (replications, k + 1) and are free of theta.
    The exact path draws all (replications, k + 1, n0) deviations
    z * sigma from theta in one call.  The chi2 path draws the sufficient
    statistics directly: (replications, k + 1) normals for the errors
    (~ N(0, sigma^2/n0)), then as many chi-squares for
    S^2 ~ sigma^2 * chi2_{n0-1} / (n0-1).  The two are distributionally
    indistinguishable and the latter is O(k) instead of O(k * n0) per run;
    the exact path refuses more than 2^24 draws per replication (ValueError).
    """
    n0 = _check_count(n0, "N0", least=2)
    _check_method(method)
    replications = _check_count(replications, "replications")
    gen = rng.generator
    shape = (replications, instance.size)
    sd = np.sqrt(instance.variances)
    with np.errstate(over="ignore"):  # an S^2 beyond the float range reads inf, refused as a size
        if method == EXACT:
            _check_count(instance.size * n0, _EXACT_STAGE1, most=_ARRAY_LIMIT)
            deviations = gen.standard_normal(shape + (n0,)) * sd[:, None]
            errors, variances = deviations.mean(axis=2), deviations.var(axis=2, ddof=1)
        else:
            errors = sd * gen.standard_normal(shape) / math.sqrt(n0)
            variances = instance.variances * gen.chisquare(n0 - 1, size=shape) / (n0 - 1)
    return Stage1Summary(errors, variances)


def second_stage_size(s2, h: float, delta: float, n0: int):
    """max{N0 + 1, ceil((h/delta)^2 * S^2)}: the common sample-size rule.

    Elementwise over an array of S^2 values, which is never written to;
    a scalar or 0-d S^2 gives an int64 scalar.  S^2 = 0 (impossible under
    the model, reachable with degenerate inputs) falls through to the
    N0 + 1 floor; a size that does not fit int64 raises ValueError.
    """
    s2 = np.asarray(s2, dtype=float)
    if not np.all(s2 >= 0):
        raise ValueError(f"S^2 must be nonnegative, got {np.min(s2)}")
    _check_delta(delta)
    n0 = _check_count(n0, "N0", least=2)
    # a fresh float buffer, so that the caller's S^2 is left as it is
    raw = _ceil_sizes(s2, _finite_square(h, delta, _SIZE_TOO_LARGE), np.empty_like(s2))
    sizes = raw.astype(np.int64)
    # the floor after the cast: N0 + 1 stays exact past 2^53
    np.maximum(sizes, n0 + 1, out=sizes)
    return sizes[()]


def _ceil_sizes(s2: np.ndarray, r2: float, out: np.ndarray) -> np.ndarray:
    """ceil(r2 * S^2) into ``out``, as floats: second_stage_size's rule before its N0 + 1 floor.

    ``out`` may be S^2 itself.  ValueError when a size does not fit int64;
    an overflow reads inf and is refused with it.
    """
    with np.errstate(over="ignore"):
        np.multiply(r2, s2, out=out)
    np.ceil(out, out=out)
    if not np.all(out < _INT64_LIMIT):
        raise ValueError(
            f"second-stage size (h/delta)^2*S^2 = {np.max(out)} does not fit a 64-bit integer"
        )
    return out


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
    n0 = _check_count(n0, "N0", least=2)
    if not np.all(n >= n0 + 1):
        raise ValueError(f"need N >= N0 + 1, got N={np.min(n)}, N0={n0}")
    if h <= 0:
        raise ValueError(f"weights need a positive critical constant, got h={h}")
    _check_delta(delta)
    n2 = n - n0
    # q * n >= 1 iff n >= (h/delta)^2 S^2, which second_stage_size guarantees;
    # tolerate roundoff at the exact boundary.
    with np.errstate(divide="ignore", over="ignore"):  # S^2 = 0 or an overflow: refused below
        q = _finite_square(delta, h, _WEIGHTS_TOO_LARGE) / s2
        disc = n0 * (q * n - 1.0) / n2
    if not (np.all(s2 > 0) and np.all(np.isfinite(disc))):
        raise ValueError(f"S^2 must be positive with (delta/h)^2/S^2 finite, got {np.min(s2)}")
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
    stage1: Stage1Summary | None = None,
) -> ProcedureOutcome:
    """`replications` full two-stage runs; every outcome field has a leading R axis.

    The chi2 default simulates sufficient statistics only (needed when k
    runs into the thousands); the exact per-observation path is retained
    as its oracle.  Argmax ties break to the lowest index.

    Draw order from rng's one generator: stage 1 as in run_stage1, then,
    on the exact path only, the N - n0 stage-2 observations of every
    (replication, population) in row-major order, one normal sequence
    whose runs are summed.  Each statistic is theta + error, with theta
    added once, after the error is formed from stage 1's errors e1.  The
    chi2 path draws nothing after stage 1: the error is e1 * scale, with
    scale sqrt(n0 / N) for Rinott and sqrt(n0) * (delta / h) / S for
    Dudewicz-Dalal, a draw from the error's exact law given S^2.  The exact
    path weights the two stages, b * n0 * e1 + c * sigma * (sum of the
    stage-2 normals), with the Dudewicz-Dalal weights (b, c) or Rinott's
    b = c = 1 / N.  It refuses second-stage sizes above _ARRAY_LIMIT
    (ValueError).

    ``stage1``, when given, is that pilot stage already drawn by run_stage1
    with the same instance, N0, method and replication count; it is read,
    never written, and rng must stand where its draw left the generator.
    The run then draws only what follows stage 1, the same bits as a run
    that draws both stages.
    """
    _check_instance(instance, params)
    hval = _h_value(h)
    if params.variant == DD and hval <= 0:
        raise ValueError(
            f"the weighted-mean variant needs h > 0, got h={hval} "
            "(p at or below the symmetry point)"
        )
    if stage1 is None:
        stage1 = run_stage1(instance, params.n0, rng, method, replications)
    elif stage1.errors.shape != (replications, instance.size):
        raise ValueError(
            f"stage 1 has shape {stage1.errors.shape}, the run needs "
            f"{(replications, instance.size)}"
        )
    sizes = second_stage_size(stage1.variances, hval, params.delta, params.n0)
    if np.max(sizes.sum(axis=1, dtype=float)) >= _INT64_LIMIT:
        raise ValueError("the total sample size of a run does not fit a 64-bit integer")
    if method == CHI2:
        if params.variant == DD:
            # delta / h, refused where dd_weights would refuse its square
            ratio = math.sqrt(_finite_square(params.delta, hval, _WEIGHTS_TOO_LARGE))
            if not np.all(stage1.variances > 0):
                raise ValueError(f"S^2 must be positive, got {np.min(stage1.variances)}")
            scale = math.sqrt(params.n0) * ratio / np.sqrt(stage1.variances)
        else:
            scale = np.sqrt(params.n0 / sizes)
        errors = stage1.errors * scale
    else:
        if np.max(sizes) > _ARRAY_LIMIT:
            raise ValueError(
                f"second-stage size {np.max(sizes)} exceeds the exact method's limit of "
                f"{_ARRAY_LIMIT} observations per population; use the chi2 method "
                "(--method chi2)"
            )
        sums2 = np.sqrt(instance.variances) * _normal_sums(rng.generator, sizes - params.n0)
        if params.variant == DD:
            b, c = dd_weights(params.n0, sizes, stage1.variances, hval, params.delta)
        else:
            b = c = 1.0 / sizes
        errors = b * params.n0 * stage1.errors + c * sums2
    statistics = instance.means + errors
    selected = np.argmax(statistics, axis=1)
    return ProcedureOutcome(
        selected_index=selected,
        sample_sizes=sizes,
        total_samples=sizes.sum(axis=1),
        correct=selected == instance.best_index,
        statistics=statistics,
    )


# Each block's stage 1 of the last estimate_pcs run, read-only, with the
# block generator's state after it, under (seed, stream path, N0, method,
# replications, variances, block budget): the two procedures of one pcs
# command share it.
_STAGE1_MEMO: dict[tuple, list[tuple[Stage1Summary, dict]]] = {}


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
    order.  h is solved from params when not supplied, after the method,
    the instance's size, the replication count and the exact method's
    stage-1 draws per replication are checked.

    Each block's stage 1 is drawn once per (stream, N0, method,
    replications, variances) and kept, read-only, with its generator's
    state after the draw: a later call with the same key, such as the
    other variant's, restores that state and reuses the draw, so its
    result has the same bits as a fresh draw would give.  A new key forgets
    the kept draw before its own.  Only runs with replications * (k + 1)
    at most _STAGE1_MEMO_LIMIT are kept; larger runs draw on every call.
    The interval [pcs_lo, pcs_hi] is the exact 95 % Clopper-Pearson one.
    """
    _check_method(method)
    _check_instance(instance, params)
    replications = _check_count(replications, "replications")
    per_rep = instance.size * (params.n0 if method == EXACT else 1)
    if method == EXACT:
        _check_count(per_rep, _EXACT_STAGE1, most=_ARRAY_LIMIT)
    if h is None:
        h = solve_h(HEquationSpec(params.k, params.nu, params.p, params.variant))
    key = None  # a run too large to keep has no key: it copies no variances into one
    if replications * instance.size <= _STAGE1_MEMO_LIMIT:
        key = (rng.seed, rng.path, params.n0, method, replications,
               instance.variances.tobytes(), _BLOCK_ELEMENTS)
    kept = _STAGE1_MEMO.get(key)
    if kept is None:
        _STAGE1_MEMO.clear()  # first, so that two runs' draws are never alive at once
        if key is not None:
            kept = _STAGE1_MEMO[key] = []
    hits = 0
    total = 0.0
    for block, count in enumerate(chunks(replications, per_rep, _BLOCK_ELEMENTS)):
        stream = rng.substream(block)
        if kept is not None and block < len(kept):
            stage1, state = kept[block]
            stream.generator.bit_generator.state = state
        else:
            stage1 = run_stage1(instance, params.n0, stream, method, count)
            if kept is not None:
                stage1.errors.flags.writeable = False
                stage1.variances.flags.writeable = False
                kept.append((stage1, stream.generator.bit_generator.state))
        outcome = run_procedure(instance, params, h, stream, method, count, stage1)
        hits += int(np.count_nonzero(outcome.correct))
        total += float(outcome.total_samples.sum(dtype=float))
    pcs = hits / replications
    std_error = math.sqrt(pcs * (1.0 - pcs) / replications)
    return PCSEstimate(pcs, std_error, replications, total / replications, h,
                       *_clopper_pearson(hits, replications))
