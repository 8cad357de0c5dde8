"""The law of what the oracle sees.

Uniform random points mod the plan's prime go through the expansion
decomposition into the counting oracle's kernel path, as `to_er_count`
sends its curve points (in one chunk here), and the 0/1 rows and
within-part bits that reach the kernel are captured.  Their frequencies
are checked by binomial and chi-square tests against the law the plan
certifies: bit b of every expansion is Ber(c'_b), enumerated here over all
bit patterns, with c'_b = 1/2 exactly at c = 1/2; the within-part bits are
Ber(c); and the enumerated law of one query is within gamma of
Erdos-Renyi.
"""

from math import comb

import numpy as np
import pytest
from scipy.stats import binomtest, chi2

from erclique import reduction
from erclique.expansion import bit_marginals
from erclique.fields import PrimeFieldCtx
from erclique.polynomial import pipeline_expansion_spec, weighted_to_unweighted_batch
from erclique.reduction import (AverageCaseOracle, _kp_counts_batch,
                                _kp_layout, reduction_plan)
from test_expansion import enumerate_marginals

GAMMA = 0.2
ROWS = 60_000  # rows per cell reaching the kernel
ALPHA = 1e-3   # family-wise significance per cell, split over its tests


def capture_queries(n, k, s, c, seed, monkeypatch):
    """(plan, p, T, expansions, within) for uniform points mod the plan's
    first prime pushed through the counting path: expansions[point, edge, b]
    is bit b of the entry's expansion as the kernel rows show it, and
    within the (W, rows) within-part bits.  Also checks that every kernel
    row is the coloring it stands for."""
    plan = reduction_plan(n, k, s, c, GAMMA)
    p, t = plan.prime_bits[0]
    layout = _kp_layout(n, k, s)
    n_col = t ** plan.d
    m = max(1, ROWS // n_col)
    seen_bits, seen_within = [], []
    kernel = reduction._subset_clique_counts

    def spy(bits, within, layout, parity):
        seen_bits.append(bits.copy())
        seen_within.append(np.unpackbits(within, axis=1, count=len(bits)))
        return kernel(bits, within, layout, parity)

    monkeypatch.setattr(reduction, "_subset_clique_counts", spy)
    rng = np.random.default_rng(seed)
    oracle = AverageCaseOracle()

    def er_eval(rows):
        return _kp_counts_batch(rows.astype(np.uint8, copy=False), layout,
                                oracle, c, rng, parity=False) % p

    points = rng.integers(0, p, (m, layout.index.size))
    # one chunk holds every coloring of every point, so rows arrive
    # point-major, colorings in `_coloring_sum` order
    weighted_to_unweighted_batch(points, layout.index, PrimeFieldCtx(p), c,
                                 GAMMA, er_eval, rng, row_budget=m * n_col)
    assert oracle.calls == m * n_col * plan.queries
    rows = np.concatenate(seen_bits).reshape(m, n_col, -1)
    within = np.concatenate(seen_within, axis=1)
    digits = np.unravel_index(np.arange(n_col), (t,) * plan.d)
    block = n ** s
    # the all-b coloring reads bit b of every entry
    diagonal = np.ravel_multi_index((np.arange(t),) * plan.d, (t,) * plan.d)
    expansions = rows[:, diagonal, :].transpose(0, 2, 1)
    # every row reads, in label-set r, the bit its coloring gives r
    for r, a in enumerate(digits):
        edges = slice(r * block, (r + 1) * block)
        assert (rows[:, :, edges]
                == expansions[:, edges, :][:, :, a].transpose(0, 2, 1)).all()
    return plan, p, t, expansions, within


@pytest.mark.parametrize("c", [0.3, 0.5])
@pytest.mark.parametrize("n,k,s", [(3, 2, 2), (4, 3, 2)])
def test_oracle_sees_certified_law(n, k, s, c, monkeypatch):
    plan, p, t, expansions, within = capture_queries(
        n, k, s, c, (n, k, s, round(10 * c)), monkeypatch)
    want = enumerate_marginals(p, (c,) * t)
    spec = pipeline_expansion_spec(p, c, plan.n_edges, GAMMA)
    assert spec.n_bits == t
    assert np.allclose(bit_marginals(spec), want, rtol=0, atol=1e-12)
    if c == 0.5:
        assert np.allclose(want, 0.5, rtol=0, atol=1e-15)
    # the enumerated law of a query meets gamma: a query is a product of
    # N bits Ber(c'_b) and the Bhattacharyya coefficient bounds its TV
    bc = np.sqrt(want * c) + np.sqrt((1 - want) * (1 - c))
    assert np.sqrt(1 - bc.min() ** (2 * plan.n_edges)) <= GAMMA

    # each (label-set, bit position) frequency against c'_b; the entries
    # of a point are independent, so each label-set gives points * n^s trials
    block = n ** s
    pvalues = {}
    for r in range(plan.d):
        ones = expansions[:, r * block:(r + 1) * block, :]
        trials = ones.shape[0] * ones.shape[1]
        for b in range(t):
            hits = int(ones[:, :, b].sum())
            pvalues[r, b] = binomtest(hits, trials, want[b]).pvalue

    # within-part bits: density c overall and in every slot
    hits = within.sum(axis=1)
    total = within.shape[1]
    assert len(hits) == comb(n * k, s) - plan.n_edges
    pvalues["within"] = binomtest(int(hits.sum()), within.size, c).pvalue
    stat = ((hits - total * c) ** 2 / (total * c * (1 - c))).sum()
    pvalues["within slots"] = chi2.sf(stat, len(hits))
    worst = min(pvalues, key=pvalues.get)
    assert pvalues[worst] > ALPHA / len(pvalues), (worst, pvalues[worst])
