from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erclique.cliques import brute_force_count_kpartite
from erclique.fields import PrimeFieldCtx, find_normal_basis
from erclique.hypergraph import KPartiteHypergraph, edge_index
from erclique.polynomial import (WeightedKPartiteInput, eval_clique_poly,
                                 ext_to_base_reduce, pipeline_expansion_spec,
                                 random_self_reduce, recombine_expansions,
                                 weighted_to_unweighted_batch)

F13 = PrimeFieldCtx(13)
F73 = PrimeFieldCtx(73)


def brute_poly(index, values, modulus=None):
    """Oracle: enumerate all n^k label-complete tuples directly."""
    n, k = index.n, index.k
    total = 0
    for tup in product(range(n), repeat=k):
        term = 1
        for parts in index.label_sets:
            edge = tuple((tup[j], j) for j in parts)
            term *= int(values[index.index_of(edge)])
        total += term
    return total if modulus is None else total % modulus


def test_eval_all_ones():
    idx = edge_index(3, 3, 2)
    x = WeightedKPartiteInput(idx, np.ones(idx.size, dtype=np.int64), F13)
    assert eval_clique_poly(x) == 27 % 13


def test_eval_single_entry():
    idx = edge_index(1, 2, 2)
    assert eval_clique_poly(WeightedKPartiteInput(idx, np.array([9]), F13)) == 9


def test_eval_zero_one_equals_kpartite_count():
    idx = edge_index(3, 3, 2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        bits = (rng.random(idx.size) < 0.5).astype(np.int64)
        val = eval_clique_poly(WeightedKPartiteInput(idx, bits, None))
        g = KPartiteHypergraph.from_bits(idx, bits)
        assert val == brute_force_count_kpartite(g)
        assert val == brute_poly(idx, bits)


def test_eval_matches_enumeration_over_field():
    rng = np.random.default_rng(1)
    for n, k, s in [(2, 3, 2), (2, 4, 3), (3, 3, 3)]:
        idx = edge_index(n, k, s)
        for _ in range(10):
            vals = rng.integers(0, 13, idx.size)
            x = WeightedKPartiteInput(idx, vals, F13)
            assert eval_clique_poly(x) == brute_poly(idx, vals, 13)


def _lagrange_value(points, at, p):
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = num * (at - xj) % p
                den = den * (xi - xj) % p
        total = (total + yi * num * pow(den, -1, p)) % p
    return total


def test_curve_restriction_degree_bound():
    # values on the quadratic curve interpolate as a degree <= 2D polynomial
    idx = edge_index(2, 3, 2)
    d = comb(3, 2)
    p = 73
    ctx = PrimeFieldCtx(p)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.integers(0, p, idx.size)
        y1 = rng.integers(0, p, idx.size)
        y2 = rng.integers(0, p, idx.size)

        def at(t):
            pt = (x + t * y1 + t * t * y2) % p
            return eval_clique_poly(WeightedKPartiteInput(idx, pt, ctx))

        base = [(t, at(t)) for t in range(1, 2 * d + 2)]
        for t in range(2 * d + 2, 2 * d + 7):
            assert _lagrange_value(base, t, p) == at(t)


def per_row(f, x):
    """random_self_reduce's batched eval_at from a per-point function: f
    sees each curve point, in order, as an input over x's field."""
    def eval_at(points):
        return [f(WeightedKPartiteInput(x.index, row, x.field)) for row in points]
    return eval_at


def test_random_self_reduce_exact_oracle():
    idx = edge_index(2, 4, 2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        vals = rng.integers(0, 73, idx.size)
        x = WeightedKPartiteInput(idx, vals, F73)
        assert random_self_reduce(x, per_row(eval_clique_poly, x), rng) == \
            eval_clique_poly(x)


def test_random_self_reduce_zero_input():
    idx = edge_index(2, 4, 2)
    x = WeightedKPartiteInput(idx, np.zeros(idx.size, dtype=np.int64), F73)
    assert random_self_reduce(x, per_row(eval_clique_poly, x),
                              np.random.default_rng(0)) == 0


def test_random_self_reduce_corruption_bound():
    # D = 6, m = 72: up to floor((72-12-1)/2) = 29 wrong answers are corrected
    idx = edge_index(2, 4, 2)
    rng = np.random.default_rng(4)

    def corrupting(n_bad):
        state = {"left": n_bad}

        def f(pt):
            v = eval_clique_poly(pt)
            if state["left"] > 0:
                state["left"] -= 1
                return (v + 1 + state["left"]) % 73
            return v

        return f

    for _ in range(5):
        vals = rng.integers(0, 73, idx.size)
        x = WeightedKPartiteInput(idx, vals, F73)
        assert random_self_reduce(x, per_row(corrupting(29), x), rng) == \
            eval_clique_poly(x)


def test_random_self_reduce_success_rate():
    # with the exact callback every decode must succeed
    idx = edge_index(2, 4, 2)
    rng = np.random.default_rng(5)
    ok = 0
    for _ in range(1000):
        vals = rng.integers(0, 73, idx.size)
        x = WeightedKPartiteInput(idx, vals, F73)
        ok += random_self_reduce(x, per_row(eval_clique_poly, x), rng) == \
            eval_clique_poly(x)
    assert ok >= 990
    assert ok == 1000


@pytest.mark.parametrize("p,t", [(2, 6), (3, 3)])
def test_random_self_reduce_extension_field(p, t):
    # the whole curve is built at once with the field's vector operations
    idx = edge_index(2, 2, 2)
    ctx = find_normal_basis(p, t)
    rng = np.random.default_rng(16)
    for _ in range(20):
        x = WeightedKPartiteInput(idx, rng.integers(0, ctx.order, idx.size), ctx)
        assert random_self_reduce(x, per_row(eval_clique_poly, x), rng) == \
            eval_clique_poly(x)


def test_random_self_reduce_needs_large_field():
    idx = edge_index(2, 3, 2)
    x = WeightedKPartiteInput(idx, np.zeros(idx.size, dtype=np.int64),
                              PrimeFieldCtx(13))
    with pytest.raises(ValueError):
        random_self_reduce(x, per_row(eval_clique_poly, x), np.random.default_rng(0))


def exact_er_eval(idx, field):
    def f(rows):
        return np.array([eval_clique_poly(WeightedKPartiteInput(idx, r, field))
                         for r in np.asarray(rows)], dtype=np.int64)
    return f


def test_recombination_identity():
    # weighted recombination over all colorings equals direct evaluation of
    # the reconstructed weighted vector (exact algebra, no sampling)
    idx = edge_index(2, 3, 2)
    rng = np.random.default_rng(6)
    for n_bits in (2, 5):
        bits = (rng.random((idx.size, n_bits)) < 0.4).astype(np.uint8)
        pow2 = np.array([pow(2, i, 13) for i in range(n_bits)])
        recon = (bits.astype(np.int64) @ pow2) % 13
        lhs = recombine_expansions(bits, idx, F13, exact_er_eval(idx, F13))
        rhs = eval_clique_poly(WeightedKPartiteInput(idx, recon, F13))
        assert lhs == rhs


def test_recombination_single_color_degenerate():
    # one bit position: the only coloring reproduces the 0/1 input itself
    idx = edge_index(2, 3, 2)
    rng = np.random.default_rng(7)
    bits01 = (rng.random(idx.size) < 0.5).astype(np.uint8)
    lhs = recombine_expansions(bits01[:, None], idx, F13, exact_er_eval(idx, F13))
    assert lhs == eval_clique_poly(WeightedKPartiteInput(idx, bits01, F13))


def test_recombination_mod2_unweighted():
    idx = edge_index(2, 3, 2)
    f2 = PrimeFieldCtx(2)
    rng = np.random.default_rng(8)
    bits = (rng.random((idx.size, 3)) < 0.5).astype(np.uint8)
    recon = bits.sum(axis=1) % 2
    lhs = recombine_expansions(bits, idx, f2, exact_er_eval(idx, f2))
    assert lhs == eval_clique_poly(WeightedKPartiteInput(idx, recon, f2))


def test_weighted_to_unweighted_exact():
    idx = edge_index(2, 3, 2)
    rng = np.random.default_rng(9)
    for _ in range(100):
        vals = rng.integers(0, 13, idx.size)
        x = WeightedKPartiteInput(idx, vals, F13)
        got = weighted_to_unweighted_batch(vals[None], idx, F13, 0.5, 0.02,
                                           exact_er_eval(idx, F13), rng)
        assert got.tolist() == [eval_clique_poly(x)]


def test_weighted_to_unweighted_batch_matches_single_semantics():
    idx = edge_index(2, 3, 2)
    rng = np.random.default_rng(10)
    pts = rng.integers(0, 13, (20, idx.size))
    got = weighted_to_unweighted_batch(pts, idx, F13, 0.4, 0.02,
                                       exact_er_eval(idx, F13), rng)
    want = [eval_clique_poly(WeightedKPartiteInput(idx, row, F13)) for row in pts]
    assert got.tolist() == want


def test_weighted_to_unweighted_mod2():
    idx = edge_index(2, 3, 2)
    f2 = PrimeFieldCtx(2)
    rng = np.random.default_rng(11)
    for _ in range(30):
        vals = rng.integers(0, 2, idx.size)
        x = WeightedKPartiteInput(idx, vals, f2)
        got = weighted_to_unweighted_batch(vals[None], idx, f2, 0.3, 0.1,
                                           exact_er_eval(idx, f2), rng)
        assert got.tolist() == [eval_clique_poly(x)]


def test_pipeline_spec_certificate():
    # the certified per-query TV is within gamma, and one bit fewer either
    # misses a residue or breaks the bound
    from erclique.expansion import (ExpansionSpec, query_tv_bound,
                                    reaches_every_residue)
    for p, c in [(37, 0.5), (41, 0.3), (13, 0.5), (61, 0.7)]:
        spec = pipeline_expansion_spec(p, c, 108, 0.05)
        assert spec.qs == (c,) * spec.n_bits
        assert reaches_every_residue(spec)
        assert query_tv_bound(spec, 108) <= 0.05
        shorter = ExpansionSpec(p=p, c=spec.c, t=spec.t - 1, qs=spec.qs[1:])
        assert not (reaches_every_residue(shorter)
                    and query_tv_bound(shorter, 108) <= 0.05)


def test_ext_to_base_trivial_extension():
    # t = 1: single coloring with weight beta; dividing it out recovers the
    # base evaluation
    idx = edge_index(2, 2, 2)
    ctx = find_normal_basis(2, 1)
    f2 = PrimeFieldCtx(2)
    rng = np.random.default_rng(12)
    for _ in range(20):
        vals = rng.integers(0, 2, idx.size)
        x = WeightedKPartiteInput(idx, vals, ctx)
        got = ext_to_base_reduce(x, exact_er_eval(idx, f2), ctx)
        base = eval_clique_poly(WeightedKPartiteInput(idx, vals, f2))
        beta = ctx.pack(ctx.beta)
        assert got == ctx.mul(beta, ctx.embed_base(int(base)))


def test_ext_to_base_f4():
    idx = edge_index(2, 2, 2)
    ctx = find_normal_basis(2, 2)
    f2 = PrimeFieldCtx(2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        vals = rng.integers(0, 4, idx.size)
        x = WeightedKPartiteInput(idx, vals, ctx)
        got = ext_to_base_reduce(x, exact_er_eval(idx, f2), ctx)
        assert got == eval_clique_poly(x)


def test_ext_to_base_f9_and_embedding():
    idx = edge_index(2, 2, 2)
    ctx = find_normal_basis(3, 2)
    f3 = PrimeFieldCtx(3)
    rng = np.random.default_rng(14)
    for _ in range(50):
        vals = rng.integers(0, 9, idx.size)
        x = WeightedKPartiteInput(idx, vals, ctx)
        assert ext_to_base_reduce(x, exact_er_eval(idx, f3), ctx) == \
            eval_clique_poly(x)
    # base-field-embedded inputs evaluate to the embedded base value
    for _ in range(20):
        base_vals = rng.integers(0, 3, idx.size)
        x = WeightedKPartiteInput(idx, base_vals, ctx)
        got = ext_to_base_reduce(x, exact_er_eval(idx, f3), ctx)
        want = eval_clique_poly(WeightedKPartiteInput(idx, base_vals, f3))
        assert got == ctx.embed_base(int(want))


@pytest.mark.parametrize("p,t", [(2, 6), (3, 2)])
def test_ext_to_base_three_label_sets(p, t):
    # (n, k, s) = (3, 3, 2): D = 3 label-sets, so colorings mix coordinates
    # across label-sets; GF(2^6) is the parity pipeline's field at k = 3
    idx = edge_index(3, 3, 2)
    ctx = find_normal_basis(p, t)
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = WeightedKPartiteInput(idx, rng.integers(0, ctx.order, idx.size), ctx)
        got = ext_to_base_reduce(x, exact_er_eval(idx, PrimeFieldCtx(p)), ctx)
        assert got == eval_clique_poly(x)


def test_input_validation():
    idx = edge_index(2, 3, 2)
    with pytest.raises(ValueError):
        WeightedKPartiteInput(idx, np.zeros(idx.size - 1, dtype=np.int64), F13)
    ctx = find_normal_basis(2, 2)
    with pytest.raises(ValueError):
        WeightedKPartiteInput(idx, np.full(idx.size, 9), ctx)


# ---------------------------------------------------------------------------
# the coloring sum behind all three decompositions, over random small cells
# ---------------------------------------------------------------------------

def fast_er_eval(idx, p):
    """Batched oracle for rows over F_p: for every label-complete k-tuple,
    the product of the entries its label-sets pick, summed mod p."""
    cols = np.array([[idx.index_of(tuple((tup[j], j) for j in parts))
                      for parts in idx.label_sets]
                     for tup in product(range(idx.n), repeat=idx.k)])

    def f(rows):
        return np.asarray(rows, dtype=np.int64)[:, cols].prod(axis=2).sum(axis=1) % p
    return f


@st.composite
def small_indices(draw):
    """Edge indices with D = C(k,s) <= 3 label-sets."""
    s, k = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    return edge_index(draw(st.integers(1, 3)), k, s)


PROPERTY = settings(max_examples=100, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@PROPERTY
@given(small_indices(), st.sampled_from([2, 3, 5, 13]), st.integers(1, 4), SEEDS)
def test_recombine_expansions_equals_polynomial(idx, p, n_bits, seed):
    field = PrimeFieldCtx(p)
    bits = np.random.default_rng(seed).integers(0, 2, (idx.size, n_bits), dtype=np.uint8)
    weights = [1 if p == 2 else pow(2, b, p) for b in range(n_bits)]
    recon = bits.astype(np.int64) @ np.array(weights) % p
    got = recombine_expansions(bits, idx, field, fast_er_eval(idx, p))
    assert got == eval_clique_poly(WeightedKPartiteInput(idx, recon, field))


@PROPERTY
@given(small_indices(), st.sampled_from([2, 3, 5, 13]), st.sampled_from([0.3, 0.5]),
       st.integers(1, 3), SEEDS)
def test_weighted_to_unweighted_batch_equals_polynomial(idx, p, c, m, seed):
    field = PrimeFieldCtx(p)
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, p, (m, idx.size))
    got = weighted_to_unweighted_batch(pts, idx, field, c, 0.2,
                                       fast_er_eval(idx, p), rng)
    want = [eval_clique_poly(WeightedKPartiteInput(idx, row, field)) for row in pts]
    assert got.tolist() == want


@PROPERTY
@given(small_indices(), st.integers(1, 6), SEEDS)
def test_ext_to_base_reduce_equals_polynomial(idx, kappa, seed):
    ctx = find_normal_basis(2, kappa)
    vals = np.random.default_rng(seed).integers(0, ctx.order, idx.size)
    x = WeightedKPartiteInput(idx, vals, ctx)
    assert ext_to_base_reduce(x, fast_er_eval(idx, 2), ctx) == eval_clique_poly(x)
