import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erclique.expansion import (ExpansionSpec, bit_marginals,
                                closed_form_tv_unbiased, exact_distribution,
                                min_t_for_tv, parity_zero_probability,
                                query_tv_bound, reaches_every_residue,
                                required_t_mod_2, required_t_mod_p,
                                sample_expansion_mod_2_batch,
                                sample_expansion_mod_p_batch, tv_to_uniform)


def enumerate_distribution(p, qs):
    """Oracle: exhaust all bit vectors and accumulate probabilities mod p."""
    f = [0.0] * p
    for bits in product((0, 1), repeat=len(qs)):
        pr = 1.0
        for b, q in zip(bits, qs):
            pr *= q if b else 1 - q
        f[sum(b << i for i, b in enumerate(bits)) % p] += pr
    return np.array(f)


def test_exact_distribution_single_bit():
    spec = ExpansionSpec(p=3, c=0.5, t=0)
    assert np.allclose(exact_distribution(spec), [0.5, 0.5, 0.0])


def test_exact_distribution_unbiased_p5():
    spec = ExpansionSpec(p=5, c=0.5, t=3)
    d = exact_distribution(spec)
    assert np.allclose(d, np.array([4, 3, 3, 3, 3]) / 16)
    assert tv_to_uniform(d) == pytest.approx(0.05, abs=1e-12)
    assert closed_form_tv_unbiased(5, 3) == pytest.approx(0.05, abs=1e-15)


def test_exact_distribution_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.choice([3, 5, 7]))
        t = int(rng.integers(0, 6))
        c = float(rng.uniform(0.05, 0.5))
        qs = tuple(float(rng.uniform(c, 1 - c)) for _ in range(t + 1))
        spec = ExpansionSpec(p=p, c=c, t=t, qs=qs)
        assert np.allclose(exact_distribution(spec), enumerate_distribution(p, qs),
                           atol=1e-12)


def test_distribution_sums_to_one_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = int(rng.choice([5, 13, 31]))
        t = int(rng.integers(0, 40))
        spec = ExpansionSpec(p=p, c=0.3, t=t)
        d = exact_distribution(spec)
        assert (d >= 0).all()
        assert math.fsum(d) == pytest.approx(1.0, abs=1e-12)


def test_tv_monotone_in_appended_bits():
    # appending any bit with bias inside [c, 1-c] cannot increase TV
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = int(rng.choice([5, 7, 13]))
        c = float(rng.uniform(0.05, 0.5))
        t = int(rng.integers(0, 10))
        qs = [float(rng.uniform(c, 1 - c)) for _ in range(t + 2)]
        shorter = ExpansionSpec(p=p, c=c, t=t, qs=tuple(qs[:-1]))
        longer = ExpansionSpec(p=p, c=c, t=t + 1, qs=tuple(qs))
        assert tv_to_uniform(exact_distribution(longer)) <= \
            tv_to_uniform(exact_distribution(shorter)) + 1e-12


def test_unbiased_closed_form_matches_dp():
    for p in (5, 7, 13, 31):
        for t in (3, 7, 12, 20):
            spec = ExpansionSpec(p=p, c=0.5, t=t)
            assert tv_to_uniform(exact_distribution(spec)) == \
                pytest.approx(closed_form_tv_unbiased(p, t), abs=1e-12)


def test_required_t_example():
    assert required_t_mod_p(5, 0.5, 0.01) == 14
    assert required_t_mod_p(5, 0.5, 0.001) >= required_t_mod_p(5, 0.5, 0.01)
    t = required_t_mod_p(31, 0.1, 0.01)
    tv = tv_to_uniform(exact_distribution(ExpansionSpec(p=31, c=0.1, t=t)))
    assert tv <= 0.01
    with pytest.raises(ValueError):
        required_t_mod_p(2, 0.5, 0.01)
    with pytest.raises(ValueError):
        required_t_mod_p(5, 0.5, 0.0)


def test_required_t_mod_2():
    assert required_t_mod_2(0.5, 0.01) == 1
    t = required_t_mod_2(0.3, 0.05)
    assert t == math.ceil(math.log(0.025) / math.log(0.4)) + 1
    # conclusion check: parity TV to uniform is |1-2c|^(t+1) / 2
    assert 0.4 ** (t + 1) / 2 <= 0.05


def test_min_t_for_tv_is_minimal_certificate():
    for p, c, target in [(13, 0.5, 1e-3), (37, 0.3, 1e-4), (7, 0.2, 1e-2)]:
        t = min_t_for_tv(p, c, target)
        assert tv_to_uniform(exact_distribution(ExpansionSpec(p=p, c=min(c, 1 - c),
                                                              t=t, qs=(c,) * (t + 1)))) <= target
        if t > 0:
            shorter = ExpansionSpec(p=p, c=min(c, 1 - c), t=t - 1, qs=(c,) * t)
            assert tv_to_uniform(exact_distribution(shorter)) > target


def test_parity_identity_enumerated():
    # exhaustive oracle over 16 outcomes at q = 0.3 each: P[even] = 0.5128
    qs = [0.3] * 4
    p_even = sum(math.prod(q if b else 1 - q for b, q in zip(bits, qs))
                 for bits in product((0, 1), repeat=4) if sum(bits) % 2 == 0)
    assert p_even == pytest.approx(0.5128, abs=1e-12)
    assert parity_zero_probability(qs) == pytest.approx(p_even, abs=1e-12)


def test_mod_p_sampler_congruence():
    spec = ExpansionSpec(p=3, c=0.5, t=required_t_mod_p(3, 0.5, 0.05))
    rng = np.random.default_rng(0)
    for x in range(3):
        for _ in range(30):
            bits = sample_expansion_mod_p_batch(np.array([x]), spec, rng)[0]
            assert sum(int(b) << i for i, b in enumerate(bits)) % 3 == x


def test_mod_p_sampler_congruence_batch():
    p = 7
    spec = ExpansionSpec(p=p, c=0.3, t=min_t_for_tv(p, 0.3, 0.01))
    rng = np.random.default_rng(1)
    xs = np.tile(np.arange(p), 300)
    bits = sample_expansion_mod_p_batch(xs, spec, rng)
    pow2 = np.array([pow(2, i, p) for i in range(bits.shape[1])])
    assert ((bits.astype(np.int64) @ pow2) % p == xs).all()


def test_mod_p_sampler_requires_tv_margin():
    # the precondition is reachability: two bits cannot cover F_13
    spec = ExpansionSpec(p=13, c=0.5, t=1)
    with pytest.raises(ValueError):
        sample_expansion_mod_p_batch(np.array([1]), spec,
                                     np.random.default_rng(0))
    # two bits miss 4 mod 5 (TV exactly 1/p)
    spec = ExpansionSpec(p=5, c=0.5, t=1)
    with pytest.raises(ValueError):
        sample_expansion_mod_p_batch(np.array([4]), spec,
                                     np.random.default_rng(0))


@pytest.mark.parametrize("p,t,c,x", [(5, 4, 0.3, 2), (2, 4, 0.3, 1)])
def test_mod_p_conditional_law(p, t, c, x):
    # empirical law of the samples vs the enumerated conditional law; p = 2
    # conditions the parity, through the mod-2 sampler
    weight = (lambda i: 1) if p == 2 else (lambda i: 2 ** i)
    target = {}
    for bits in product((0, 1), repeat=t + 1):
        if sum(b * weight(i) for i, b in enumerate(bits)) % p == x:
            target[bits] = math.prod(c if b else 1 - c for b in bits)
    z = sum(target.values())
    target = {k: v / z for k, v in target.items()}
    rng = np.random.default_rng(7)
    n = 100_000
    xs = np.full(n, x)
    if p == 2:
        samples = sample_expansion_mod_2_batch(xs, c, t, 0.2, rng)
    else:
        samples = sample_expansion_mod_p_batch(xs, ExpansionSpec(p=p, c=c, t=t), rng)
    seen = {}
    for row in samples:
        key = tuple(int(v) for v in row)
        seen[key] = seen.get(key, 0) + 1
    assert set(seen) <= set(target)  # congruence never violated
    tv = 0.5 * sum(abs(seen.get(k, 0) / n - pr) for k, pr in target.items())
    assert tv <= 0.02


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 13]), t=st.integers(0, 12),
       c=st.floats(0.05, 0.5), eps=st.floats(0.01, 0.5), data=st.data())
def test_samplers_keep_every_congruence(p, t, c, eps, data):
    # every residue, biases in [c, 1 - c]: each row sums to its residue
    # under weights 2^i mod p (1 for p = 2), and a call raises exactly
    # when its precondition fails
    bias = st.floats(c, 1 - c)
    xs = np.tile(np.arange(p), 50)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if p == 2:
        q = data.draw(bias)
        holds = t >= required_t_mod_2(min(q, 1 - q), eps)
        sample = lambda: sample_expansion_mod_2_batch(xs, q, t, eps, rng)
        weights = np.ones(t + 1, dtype=np.int64)
    else:
        spec = ExpansionSpec(p=p, c=c, t=t,
                             qs=tuple(data.draw(bias) for _ in range(t + 1)))
        holds = (enumerate_distribution(p, spec.qs) > 0).all()
        sample = lambda: sample_expansion_mod_p_batch(xs, spec, rng)
        weights = np.array([pow(2, i, p) for i in range(t + 1)])
    if not holds:
        with pytest.raises(ValueError):
            sample()
        return
    bits = sample()
    assert bits.shape == (len(xs), t + 1)
    assert set(np.unique(bits)) <= {0, 1}
    assert ((bits.astype(np.int64) @ weights) % p == xs).all()


def enumerate_marginals(p, qs):
    """Oracle: P[Z_b = 1] for each b when the residue is uniform and the bits
    follow their law conditioned on it, over all 2^(t+1) bit patterns."""
    n_bits = len(qs)
    z = (np.arange(2 ** n_bits)[:, None] >> np.arange(n_bits)) & 1
    q = np.asarray(qs)
    prob = np.prod(np.where(z == 1, q, 1 - q), axis=1)
    res = (z @ np.array([pow(2, i, p) for i in range(n_bits)])) % p
    law = np.bincount(res, weights=prob, minlength=p)
    return (prob / (p * law[res])) @ z


def product_tv(a, b, n):
    """Exact TV between n independent Ber(a) bits and n independent Ber(b)
    bits, through the binomial count, which is sufficient for both."""
    j = np.arange(n + 1)
    binom = np.array([math.comb(n, i) for i in j], dtype=float)
    return 0.5 * np.abs(binom * (a ** j * (1 - a) ** (n - j)
                                 - b ** j * (1 - b) ** (n - j))).sum()


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([3, 5, 7, 13, 31]), c=st.floats(0.05, 0.95),
       data=st.data())
def test_query_certificate_matches_enumeration(p, c, data):
    # the backward pass equals brute force, and the certified bound covers
    # the exact TV of every single-position query on small N
    t = data.draw(st.integers((p - 1).bit_length() - 1, 10))
    spec = ExpansionSpec(p=p, c=min(c, 1 - c), t=t, qs=(c,) * (t + 1))
    assert reaches_every_residue(spec)
    want = enumerate_marginals(p, spec.qs)
    got = bit_marginals(spec)
    assert np.allclose(got, want, rtol=0, atol=1e-12), (got, want)
    for n in (1, 2, 3, 8):
        worst = max(product_tv(cb, c, n) for cb in want)
        assert query_tv_bound(spec, n) >= worst - 1e-12


def test_unbiased_marginals_are_exactly_half():
    # flipping every bit keeps a uniform residue uniform, so the bound is
    # rounding error even for a million entries
    for p in (3, 13, 61, 127):
        for t in range((p - 1).bit_length() - 1, 12):
            spec = ExpansionSpec(p=p, c=0.5, t=t)
            assert np.allclose(bit_marginals(spec), 0.5, rtol=0, atol=1e-15)
            assert query_tv_bound(spec, 10 ** 6) < 1e-9


def test_mod_p_uniform_composition():
    # with uniform residues the joint bit law is within Delta + delta of the
    # product law
    p, t, c = 5, 4, 0.3
    spec = ExpansionSpec(p=p, c=c, t=t)
    delta_tv = tv_to_uniform(exact_distribution(spec))
    assert delta_tv < 1 / p
    rng = np.random.default_rng(11)
    n = 200_000
    xs = rng.integers(0, p, n)
    samples = sample_expansion_mod_p_batch(xs, spec, rng)
    seen = np.zeros(2 ** (t + 1))
    weights = 1 << np.arange(t + 1)
    np.add.at(seen, samples.astype(np.int64) @ weights, 1)
    seen /= n
    prod_law = np.array([math.prod(c if (v >> i) & 1 else 1 - c for i in range(t + 1))
                         for v in range(2 ** (t + 1))])
    emp_tv = 0.5 * np.abs(seen - prod_law).sum()
    mc_noise = 3 * (2 ** (t + 1) / n) ** 0.5
    assert emp_tv <= delta_tv + 1e-9 + mc_noise


def test_mod_2_sampler():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = sample_expansion_mod_2_batch(np.array([1]), 0.5, 1, 0.01, rng)[0]
        assert int(bits.sum()) % 2 == 1
    rs = np.tile(np.array([0, 1]), 2000)
    t = required_t_mod_2(0.3, 0.05)
    out = sample_expansion_mod_2_batch(rs, 0.3, t, 0.05, rng)
    assert ((out.sum(axis=1) & 1) == rs).all()
    with pytest.raises(ValueError):
        sample_expansion_mod_2_batch(np.array([1]), 0.3, 1, 0.001, rng)


def test_mod_2_joint_law():
    c, eps = 0.3, 0.05
    t = required_t_mod_2(c, eps)
    rng = np.random.default_rng(3)
    n = 100_000
    rs = rng.integers(0, 2, n)
    out = sample_expansion_mod_2_batch(rs, c, t, eps, rng)
    assert ((out.sum(axis=1) & 1) == rs).all()  # hard parity, 1e5 samples
    weights = 1 << np.arange(t + 1)
    seen = np.zeros(2 ** (t + 1))
    np.add.at(seen, out.astype(np.int64) @ weights, 1)
    seen /= n
    prod_law = np.array([math.prod(c if (v >> i) & 1 else 1 - c for i in range(t + 1))
                         for v in range(2 ** (t + 1))])
    mc_noise = 3 * (2 ** (t + 1) / n) ** 0.5
    assert 0.5 * np.abs(seen - prod_law).sum() <= eps + mc_noise


def test_spec_validation():
    with pytest.raises(ValueError):
        ExpansionSpec(p=4, c=0.5, t=1)
    with pytest.raises(ValueError):
        ExpansionSpec(p=5, c=0.7, t=1)
    with pytest.raises(ValueError):
        ExpansionSpec(p=5, c=0.3, t=1, qs=(0.1, 0.3))
    with pytest.raises(ValueError):
        ExpansionSpec(p=5, c=0.3, t=2, qs=(0.3, 0.3))
