"""The law of what the oracle sees.

Uniform random curve-like points go through a pipeline's decomposition
into its oracle's kernel path.  The 0/1 rows of every kernel call and the
one within-part sample its rows share are captured; the decomposition's
batches are cut into kernel calls of a few rows, so that each cell draws
thousands of within-part samples.  Their frequencies are checked by
binomial and chi-square tests against the law the plan certifies; the
within-part samples are Ber(c) in both pipelines.

- Counting: points mod the plan's prime through the expansion
  decomposition.  Bit b of every expansion is Ber(c'_b), enumerated here
  over all bit patterns, with c'_b = 1/2 exactly at c = 1/2, and the
  enumerated law of one query is within gamma of Erdos-Renyi.
- Parity: points over GF(2^kappa) through the product-alphabet
  decomposition.  Bit b of the mod-2 expansion of every normal-basis
  coordinate is Ber(c'_b) (`bit_marginals` of the mod-2 spec, checked
  against the closed form of a parity conditioning); at c = 1/2 each
  coordinate is its own one-bit expansion, exactly Ber(1/2).
"""

from math import comb

import numpy as np
import pytest
from scipy.stats import binomtest, chi2

from erclique import reduction
from erclique.cliques import parity_count
from erclique.expansion import (ExpansionSpec, bit_marginals, bit_weights,
                                parity_zero_probability)
from erclique.fields import PrimeFieldCtx, find_normal_basis
from erclique.polynomial import (ext_to_base_reduce, pipeline_expansion_spec,
                                 weighted_to_unweighted_batch)
from erclique.reduction import (AverageCaseOracle, _kp_counts_batch,
                                _kp_layout, reduction_plan)
from test_expansion import enumerate_marginals

GAMMA = 0.2
ROWS = 60_000  # rows per cell reaching the kernel
PIECE = 16     # rows per kernel call, so a cell makes over 3,700 calls
ALPHA = 1e-3   # family-wise significance per cell, split over its tests


def capture_queries(layout, c, parity, rng, push, monkeypatch):
    """Run push(evaluate), where `evaluate` is the pipeline's oracle
    callback (`_kp_counts_batch` through an exact oracle, PIECE rows per
    call), and return the (rows, N) 0/1 rows that reached the kernel, the
    (calls, W) within-part samples, one per kernel call, and the oracle's
    calls."""
    seen_bits, seen_within = [], []
    kernel = reduction._subset_clique_counts

    def spy(bits, within, layout, parity):
        assert within.shape == (layout.n_within,)
        seen_bits.append(bits.copy())
        seen_within.append(within.copy())
        return kernel(bits, within, layout, parity)

    monkeypatch.setattr(reduction, "_subset_clique_counts", spy)
    oracle = AverageCaseOracle(counter=parity_count if parity else None)

    def evaluate(rows):
        return np.concatenate([
            _kp_counts_batch(rows[lo:lo + PIECE], layout, oracle, c, rng,
                             parity=parity)
            for lo in range(0, len(rows), PIECE)])

    push(evaluate)
    return np.concatenate(seen_bits), np.stack(seen_within), oracle.calls


def alphabet_values(rows, m, n_colors, d, block):
    """(M, N, A) value of every entry of M points at each of the A colors,
    read off rows that arrive coloring-major, point-minor, with all A^D
    colorings in `_coloring_sum` order; also checks that every row is its
    coloring."""
    n_col = n_colors ** d
    rows = rows.reshape(n_col, m, -1)
    digits = np.unravel_index(np.arange(n_col), (n_colors,) * d)
    # the all-a coloring reads color a of every entry
    diagonal = np.ravel_multi_index((np.arange(n_colors),) * d, (n_colors,) * d)
    values = rows[diagonal].transpose(1, 2, 0)
    # every row reads, in label-set r, the color its coloring gives r
    for r, a in enumerate(digits):
        edges = slice(r * block, (r + 1) * block)
        assert (rows[:, :, edges]
                == values[:, edges, :][:, :, a].transpose(2, 0, 1)).all()
    return values


def color_pvalues(values, want, d, block):
    """Binomial p-value of each (label-set, color) frequency against
    want[color]; the entries of a point are independent, so each
    label-set gives points * block trials."""
    pvalues = {}
    for r in range(d):
        ones = values[:, r * block:(r + 1) * block, :]
        trials = ones.shape[0] * ones.shape[1]
        for a, q in enumerate(want):
            pvalues[r, a] = binomtest(int(ones[:, :, a].sum()), trials, q).pvalue
    return pvalues


def within_pvalues(within, c, n_within):
    """Within-part samples, one per kernel call: density c overall
    (binomial) and in every slot (chi-square)."""
    calls, width = within.shape
    assert width == n_within
    assert calls >= 2000
    hits = within.sum(axis=0)
    stat = ((hits - calls * c) ** 2 / (calls * c * (1 - c))).sum()
    return {"within": binomtest(int(hits.sum()), within.size, c).pvalue,
            "within slots": chi2.sf(stat, width)}


def assert_no_outlier(pvalues):
    worst = min(pvalues, key=pvalues.get)
    assert pvalues[worst] > ALPHA / len(pvalues), (worst, pvalues[worst])


@pytest.mark.parametrize("c", [0.3, 0.5])
@pytest.mark.parametrize("n,k,s", [(3, 2, 2), (4, 3, 2)])
def test_oracle_sees_certified_law(n, k, s, c, monkeypatch):
    rng = np.random.default_rng((n, k, s, round(10 * c)))
    plan = reduction_plan(n, k, s, c, GAMMA)
    p, t = plan.prime_bits[0]
    layout = _kp_layout(n, k, s)
    n_col = t ** plan.d
    m = max(1, ROWS // n_col)
    points = rng.integers(0, p, (m, layout.index.size))

    def push(er_eval):
        # chunks split the colorings, so all rows arrive coloring-major
        weighted_to_unweighted_batch(points, layout.index, PrimeFieldCtx(p), c,
                                     GAMMA, er_eval, rng)

    rows, within, calls = capture_queries(layout, c, False, rng, push, monkeypatch)
    assert calls == m * n_col * plan.queries
    expansions = alphabet_values(rows, m, t, plan.d, n ** s)
    # the colors of every entry are its expansion: sum_b 2^b Y_b = x mod p
    assert (expansions @ bit_weights(p, t) % p == points).all()

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

    pvalues = color_pvalues(expansions, want, plan.d, n ** s)
    pvalues.update(within_pvalues(within, c, comb(n * k, s) - plan.n_edges))
    assert_no_outlier(pvalues)


@pytest.mark.parametrize("c", [0.3, 0.5])
def test_parity_oracle_sees_certified_law(c, monkeypatch):
    n, k, s = 3, 2, 2
    rng = np.random.default_rng((n, k, s, round(10 * c), 2))
    plan = reduction_plan(n, k, s, c, GAMMA)
    ctx = find_normal_basis(2, plan.kappa)
    layout = _kp_layout(n, k, s)
    n_bits = plan.mod_2_bits
    n_col = (plan.kappa * n_bits) ** plan.d
    assert 12 * plan.d * n_col == (336 if c == 0.3 else 48)  # rows per curve
    m = max(1, ROWS // n_col)
    points = rng.integers(0, ctx.order, (m, layout.index.size))

    def push(base_eval):
        # chunks split the colorings, so all rows arrive coloring-major
        ext_to_base_reduce(points, layout.index, ctx, c, GAMMA, base_eval, rng)

    rows, within, calls = capture_queries(layout, c, True, rng, push, monkeypatch)
    assert calls == m * n_col * plan.queries
    # color i * B + b reads bit b of normal-basis coordinate i
    bits = alphabet_values(rows, m, plan.kappa * n_bits, plan.d, n ** s)
    # and the bits of coordinate i sum to it mod 2
    coords = ctx.decompose_vec(points.ravel()).reshape(m, -1, plan.kappa)
    assert (bits.reshape(*coords.shape, n_bits).sum(axis=-1) % 2 == coords).all()

    if c == 0.5:
        assert n_bits == 1
        want = np.array([0.5])
    else:
        qs = (c,) * n_bits
        want = bit_marginals(ExpansionSpec(p=2, c=min(c, 1 - c), t=n_bits - 1, qs=qs))
        # conditioned on a uniform parity, a bit is 1 with probability
        # c * (P[rest odd] / P[all even] + P[rest even] / P[all odd]) / 2
        whole = parity_zero_probability(qs)
        rest = parity_zero_probability(qs[1:])
        closed = c * ((1 - rest) / whole + rest / (1 - whole)) / 2
        assert np.allclose(want, closed, rtol=0, atol=1e-12)

    pvalues = color_pvalues(bits, np.tile(want, plan.kappa), plan.d, n ** s)
    pvalues.update(within_pvalues(within, c, comb(n * k, s) - plan.n_edges))
    assert_no_outlier(pvalues)
