import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erclique.fields import (DecodeFailure, PrimeFieldCtx,
                             ResidueVector, berlekamp_welch_decode,
                             crt_combine, find_normal_basis, select_primes)


def test_select_primes_examples():
    # oracle: independent sieve + unbounded product check, frozen values
    assert select_primes(10, 4, 2) == [73, 79, 83]
    assert select_primes(2, 2, 2) == [13]
    assert select_primes(6, 3, 3) == [13, 17]


@pytest.mark.parametrize("n,k,s", [(10, 4, 2), (2, 2, 2), (6, 3, 3),
                                   (8, 3, 2), (30, 5, 3), (12, 4, 4)])
def test_select_primes_properties(n, k, s):
    from math import comb, prod
    primes = select_primes(n, k, s)
    assert all(p > 12 * comb(k, s) for p in primes)
    assert primes == sorted(set(primes))
    assert prod(primes) > n ** k
    assert prod(primes[:-1]) <= n ** k  # minimality


def test_crt_examples():
    # 8 is the unique value in 0..14 hitting (2 mod 3, 3 mod 5): scan oracle
    assert all((x % 3, x % 5) != (2, 3) for x in range(15) if x != 8)
    assert crt_combine(ResidueVector((3, 5), (2, 3))) == 8
    assert crt_combine(ResidueVector((7,), (0,))) == 0
    v = 10000
    primes = (73, 79, 83)
    assert crt_combine(ResidueVector(primes, tuple(v % p for p in primes))) == v


def test_crt_roundtrip_random():
    rng = np.random.default_rng(0)
    primes = (13, 17, 19, 23)
    mod = 13 * 17 * 19 * 23
    for _ in range(200):
        x = int(rng.integers(0, mod))
        rv = ResidueVector(primes, tuple(x % p for p in primes))
        y = crt_combine(rv)
        assert y == x
        assert all(y % p == r for p, r in zip(rv.primes, rv.residues))


def test_residue_vector_validation():
    with pytest.raises(ValueError):
        ResidueVector((3, 3), (1, 2))
    with pytest.raises(ValueError):
        ResidueVector((3, 5), (1,))
    with pytest.raises(ValueError):
        ResidueVector((3, 5), (3, 0))


def test_normal_basis_trivial_degree():
    ctx = find_normal_basis(2, 1)
    assert ctx.beta == (1,)
    assert ctx.basis_matrix == ((1,),)


def test_normal_basis_f4():
    # enumerated oracle: in F_4 = F_2[g]/(g^2+g+1), candidates 1 then g;
    # (1, 1^2) is dependent, (g, g^2) = (g, g+1) is independent
    ctx = find_normal_basis(2, 2)
    assert ctx.modulus == (1, 1, 1)
    assert ctx.pack(ctx.beta) == 2
    assert ctx.mul(2, 2) == 3  # g*g = g+1


@pytest.mark.parametrize("p,t", [(2, 2), (2, 6), (3, 2), (5, 2), (7, 3)])
def test_normal_basis_invertible_and_roundtrip(p, t):
    ctx = find_normal_basis(p, t)
    b = np.array(ctx.basis_matrix)
    i = np.array(ctx.inverse_matrix)
    assert ((b @ i) % p == np.eye(t, dtype=int)).all()
    rng = np.random.default_rng(p * 100 + t)
    for _ in range(1000):
        x = int(rng.integers(0, ctx.order))
        assert ctx.recompose(ctx.decompose(x)) == x


@pytest.mark.parametrize("ctx", [PrimeFieldCtx(2), PrimeFieldCtx(13),
                                 find_normal_basis(2, 6), find_normal_basis(3, 2),
                                 find_normal_basis(2, 10), find_normal_basis(3, 6)],
                         ids=repr)
def test_vector_ops_match_scalar_ops(ctx):
    # the last two fields are above the lookup-table limit
    rng = np.random.default_rng(ctx.order)
    a = rng.integers(0, ctx.order, (4, 7))
    b = rng.integers(0, ctx.order, 7)
    assert ctx.mul_vec(a, b).tolist() == [[ctx.mul(int(x), int(y)) for x, y in zip(row, b)]
                                          for row in a]
    assert ctx.sub_vec(a, b).tolist() == [[ctx.sub(int(x), int(y)) for x, y in zip(row, b)]
                                          for row in a]
    sums = []
    for row in a:
        acc = ctx.zero
        for x in row:
            acc = ctx.add(acc, int(x))
        sums.append(acc)
    assert ctx.sum_vec(a).tolist() == sums


def test_decompose_semantics():
    # coordinates recombine through the Frobenius powers of beta
    ctx = find_normal_basis(3, 2)
    for x in range(ctx.order):
        coords = ctx.decompose(x)
        acc = ctx.zero
        for c, fb in zip(coords, ctx.frob_beta):
            acc = ctx.add(acc, ctx.mul(ctx.embed_base(c), fb))
        assert acc == x
    assert ctx.decompose(0) == (0, 0)
    beta_packed = ctx.pack(ctx.beta)
    assert ctx.decompose(beta_packed) == (1, 0)


def test_ext_field_arithmetic_consistency():
    ctx = find_normal_basis(3, 2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        if a:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one
        assert ctx.sub(ctx.add(a, b), b) == a
    # Frobenius is the p-power map and fixes the base field
    for a in range(9):
        assert ctx.frobenius(a) == ctx.pow(a, 3)
    for a in range(3):
        assert ctx.frobenius(ctx.embed_base(a)) == ctx.embed_base(a)


def _poly_eval_mod(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def test_bw_examples_f13():
    pts = [(t, (t + 1) % 13) for t in range(1, 13)]
    assert berlekamp_welch_decode(pts, 2, 13) == 1
    bad = [(t, (y + 5) % 13 if i < 4 else y) for i, (t, y) in enumerate(pts)]
    assert berlekamp_welch_decode(bad, 2, 13) == 1
    const = [(t, 7) for t in range(1, 13)]
    assert berlekamp_welch_decode(const, 2, 13) == 7


@pytest.mark.parametrize("p,D,m", [(127, 3, 36), (131, 6, 72)])
def test_bw_random_with_max_corruptions(p, D, m):
    rng = np.random.default_rng(p + D)
    e = (m - 2 * D - 1) // 2
    for trial in range(100):
        coeffs = [int(v) for v in rng.integers(0, p, 2 * D + 1)]
        pts = [[t, _poly_eval_mod(coeffs, t, p)] for t in range(1, m + 1)]
        for i in rng.permutation(m)[:e]:
            pts[i][1] = (pts[i][1] + 1 + int(rng.integers(0, p - 1))) % p
        got = berlekamp_welch_decode([tuple(q) for q in pts], 2 * D, p)
        assert got == coeffs[0]


def test_bw_detects_overload():
    # corrupt everything: decoding must fail, not return silently
    p, D, m = 131, 3, 36
    rng = np.random.default_rng(1)
    coeffs = [int(v) for v in rng.integers(0, p, 2 * D + 1)]
    pts = [(t, (_poly_eval_mod(coeffs, t, p) + 1 + int(rng.integers(0, p - 1))) % p)
           for t in range(1, m + 1)]
    with pytest.raises(DecodeFailure):
        berlekamp_welch_decode(pts, 2 * D, p)


def test_bw_rejects_bad_points():
    with pytest.raises(ValueError):
        berlekamp_welch_decode([(0, 1), (1, 2), (2, 3)], 0, 13)
    with pytest.raises(ValueError):
        berlekamp_welch_decode([(1, 1), (1, 2), (2, 3)], 0, 13)


def _horner(ctx, coeffs, t):
    acc = ctx.zero
    for c in reversed(coeffs):
        acc = ctx.add(ctx.mul(acc, t), c)
    return acc


def test_bw_extension_field():
    ctx = find_normal_basis(2, 6)
    rng = np.random.default_rng(3)
    D, m = 3, 36
    e = (m - 2 * D - 1) // 2
    for _ in range(20):
        coeffs = [int(v) for v in rng.integers(0, 64, 2 * D + 1)]
        pts = [[t, _horner(ctx, coeffs, t)] for t in range(1, m + 1)]
        for i in rng.permutation(m)[:e]:
            pts[i][1] ^= 1 + int(rng.integers(0, 62))
        assert berlekamp_welch_decode([tuple(q) for q in pts], 2 * D, ctx) == coeffs[0]


@pytest.mark.parametrize("ctx,d,m", [
    (PrimeFieldCtx(13), 2, 12), (PrimeFieldCtx(41), 6, 36), (PrimeFieldCtx(127), 6, 36),
    (find_normal_basis(2, 6), 6, 36), (find_normal_basis(2, 10), 2, 12),
    (find_normal_basis(3, 2), 2, 8),
], ids=["F13", "F41", "F127", "GF(2^6)", "GF(2^10)", "GF(3^2)"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bw_decodes_within_corruption_bound(ctx, d, m, data):
    # any degree <= d polynomial, any m distinct nonzero points and up to
    # e = (m - d - 1) // 2 corrupted values decode to h(0); GF(2^10) is above
    # the lookup-table limit
    e = (m - d - 1) // 2
    coeffs = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=d + 1,
                                max_size=d + 1))
    ts = data.draw(st.lists(st.integers(1, ctx.order - 1), min_size=m, max_size=m,
                            unique=True))
    ys = [_horner(ctx, coeffs, t) for t in ts]
    for i in data.draw(st.lists(st.integers(0, m - 1), max_size=e, unique=True)):
        ys[i] = ctx.add(ys[i], data.draw(st.integers(1, ctx.order - 1)))
    assert berlekamp_welch_decode(list(zip(ts, ys)), d, ctx) == coeffs[0]


def test_prime_field_ctx():
    ctx = PrimeFieldCtx(13)
    assert ctx.mul(7, 8) == 56 % 13
    assert ctx.inv(5) * 5 % 13 == 1
    with pytest.raises(ValueError):
        PrimeFieldCtx(12)
