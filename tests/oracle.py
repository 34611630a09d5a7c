"""Brute-force Monte Carlo reference for the critical-constant equations.

Kept independent of the quadrature and t-CDF path: the DD event draws k
competitors plus a reference and compares the maximum, the Rinott event
draws k independent pairs and requires every difference under h.
Replications run in blocks of about 2^19 variates, in order, block b from
``rng.substream(b)``, so an estimate depends on its inputs alone.
"""

import math

import numpy as np

from ranksel.distributions import chunks
from ranksel.hconst import DD

BLOCK_ELEMENTS = 2**19


def oracle_hits(spec, h, gen, n):
    """Replications out of ``n`` whose selection event holds at h, drawn from ``gen``.

    DD rows hold k competitors and a reference, Rinott rows k pairs.
    """
    if spec.variant == DD:
        draws = gen.standard_t(spec.nu, size=(n, spec.k + 1))
        return int(np.count_nonzero(draws[:, : spec.k].max(axis=1) <= draws[:, spec.k] + h))
    draws = gen.standard_t(spec.nu, size=(n, spec.k, 2))
    return int(np.count_nonzero((draws[:, :, 0] - draws[:, :, 1]).max(axis=1) <= h))


def oracle(spec, h, replications, rng):
    """Estimate and standard error of ``spec``'s selection probability at h."""
    per_rep = spec.k + 1 if spec.variant == DD else 2 * spec.k
    hits = sum(oracle_hits(spec, h, rng.substream(b).generator, n)
               for b, n in enumerate(chunks(replications, per_rep, BLOCK_ELEMENTS)))
    value = hits / replications
    return value, math.sqrt(value * (1.0 - value) / replications)
