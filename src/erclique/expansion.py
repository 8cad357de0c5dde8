"""Random biased binary expansions modulo p: exact distributions by dynamic
programming, explicit length bounds, and exact samplers of an expansion
conditioned on its residue mod p or its parity.

A spec with parameter t describes t+1 bits Z_0..Z_t; the represented value
is sum_i w_i Z_i mod p with bit weights w_i = 2^i mod p, or w_i = 1 for
p = 2, where the expansion is a plain sum of bits (`bit_weights`).

The samplers draw the bits backwards from the prefix laws F_i (the law of
sum_{j<i} w_j Z_j mod p): given the residue r of bits 0..i, bit i is 1 with
probability q_i F_i(r - w_i) / F_{i+1}(r) (`_conditional_ones`).  This is
exactly the conditional law of the expansion given its residue, uses t+1
uniforms per entry and cannot fail on a residue the law reaches.

The same table gives the law the reduction hands on: with a uniform
residue, bit b of the sampled expansion is Ber(c'_b) (`bit_marginals`),
and a query that reads N such bits, each from an independent entry, is
within `query_tv_bound` of N independent Ber(q_b) bits.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, fsum, log, log2, prod, sqrt

import numpy as np

from .fields import is_prime
from .util import as_rng


@dataclass(frozen=True)
class ExpansionSpec:
    """Bits Z_0..Z_t with P[Z_i = 1] = qs[i], all biases inside [c, 1-c]."""

    p: int
    c: float
    t: int
    qs: tuple[float, ...] = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not 0 < self.c <= 0.5:
            raise ValueError("bias bound c must be in (0, 1/2]")
        if self.t < 0:
            raise ValueError("t must be >= 0")
        qs = self.qs if self.qs is not None else (self.c,) * (self.t + 1)
        qs = tuple(float(q) for q in qs)
        if len(qs) != self.t + 1:
            raise ValueError(f"need {self.t + 1} biases, got {len(qs)}")
        eps = 1e-12
        if any(not self.c - eps <= q <= 1 - self.c + eps for q in qs):
            raise ValueError("every bias must lie in [c, 1-c]")
        object.__setattr__(self, "qs", qs)

    @property
    def n_bits(self) -> int:
        return self.t + 1


def _bit_weight(p: int, b: int) -> int:
    return 1 if p == 2 else pow(2, b, p)


def bit_weights(p: int, n_bits: int) -> np.ndarray:
    """Weight of expansion bit b: 2^b mod p, or 1 for p = 2, where the
    expansion is a plain sum of bits."""
    return np.array([_bit_weight(p, b) for b in range(n_bits)], dtype=np.int64)


def _shift(f: np.ndarray, w: int) -> np.ndarray:
    """Law of R + w mod p for R ~ f: np.roll(f, w), without the generality
    that costs more than the arithmetic on laws this short."""
    cut = len(f) - w % len(f)
    return np.concatenate((f[cut:], f[:cut]))


def _law_step(f: np.ndarray, q: float, w: int) -> np.ndarray:
    """Law of R + w Z mod p for R ~ f and an independent Z ~ Ber(q)."""
    return (1.0 - q) * f + q * _shift(f, w)


@lru_cache(maxsize=4096)
def _prefix_laws(p: int, qs: tuple[float, ...]) -> np.ndarray:
    """(t+2, p) read-only table whose row i is the law F_i of
    sum_{j<i} w_j Z_j mod p, Z_j ~ Ber(qs[j]); the last row is the law of
    the whole expansion."""
    laws = np.zeros((len(qs) + 1, p))
    laws[0, 0] = 1.0
    for i, q in enumerate(qs):
        laws[i + 1] = _law_step(laws[i], q, _bit_weight(p, i))
    laws.flags.writeable = False
    return laws


@lru_cache(maxsize=4096)
def _conditional_ones(p: int, qs: tuple[float, ...]) -> np.ndarray:
    """(t+1, p) read-only table whose entry [i, r] is
    P[Z_i = 1 | sum_{j<=i} w_j Z_j = r] = q_i F_i(r - w_i) / F_{i+1}(r).
    A residue the prefix never reaches (F_{i+1}(r) = 0) gets 0, not 0/0."""
    laws = _prefix_laws(p, qs)
    weights = bit_weights(p, len(qs))
    # below[i, r] = F_i(r - w_i)
    below = np.take_along_axis(laws[:-1], (np.arange(p) - weights[:, None]) % p,
                               axis=1)
    ones = np.divide(np.asarray(qs)[:, None] * below, laws[1:],
                     out=np.zeros_like(below), where=laws[1:] > 0)
    ones.flags.writeable = False
    return ones


def exact_distribution(spec: ExpansionSpec) -> np.ndarray:
    """P[sum_i w_i Z_i = x mod p] for every residue x, exact up to fp error."""
    return _prefix_laws(spec.p, spec.qs)[-1].copy()


def reaches_every_residue(spec: ExpansionSpec) -> bool:
    """Whether every residue mod p has positive probability under the
    spec's law, so that the expansion can be conditioned on any of them."""
    return bool(_prefix_laws(spec.p, spec.qs)[-1].min() > 0)


def bit_marginals(spec: ExpansionSpec) -> np.ndarray:
    """c'_b = P[Z_b = 1] for b = 0..t when the residue is uniform mod p and
    the bits are drawn from the spec's law conditioned on it, as the
    samplers draw them; meaningful when the spec reaches every residue.

    One backward pass over the sampler's own table: pi, the law of the
    residue still to be drawn, starts uniform; at bit i its part pi_1 =
    pi * ones[i] takes the bit, c'_i = sum(pi_1), and that part moves down
    by w_i.  At c = 1/2 every c'_b is 1/2: flipping every bit maps residue
    r to sum(w) - r, which keeps the residue uniform."""
    ones = _conditional_ones(spec.p, spec.qs)
    weights = bit_weights(spec.p, spec.n_bits)
    pi = np.full(spec.p, 1.0 / spec.p)
    out = np.empty(spec.n_bits)
    for i in range(spec.t, -1, -1):
        took = pi * ones[i]
        out[i] = took.sum()
        pi = _shift(took, -weights[i]) + (pi - took)
    return out


def query_tv_bound(spec: ExpansionSpec, n_entries: int) -> float:
    """Certified bound on the total variation distance between the law of
    one query and n_entries independent bits, entry e Ber(q_{b_e}), for a
    query that reads bit b_e of the sampled expansion of entry e, the
    entries being independent and uniform mod p.

    Such a query is a product of Ber(c'_{b_e}) bits (`bit_marginals`).  The
    Bhattacharyya coefficient BC_b = sqrt(c'_b q_b) + sqrt((1-c'_b)(1-q_b))
    multiplies over independent entries, and TV <= sqrt(1 - BC^2), so
    every choice of positions is within sqrt(1 - min_b BC_b^(2 n_entries)).
    1 - BC_b is computed as the squared Hellinger distance
    ((sqrt(c'_b) - sqrt(q_b))^2 + (sqrt(1-c'_b) - sqrt(1-q_b))^2) / 2, with
    each difference of roots as a quotient, because BC_b is within rounding
    of 1 where the bound is tightest.  A NaN marginal yields NaN, which no
    `<=` test passes."""
    cb = bit_marginals(spec)
    q = np.asarray(spec.qs)
    hellinger2 = 0.5 * (((cb - q) / (np.sqrt(cb) + np.sqrt(q))) ** 2
                        + ((q - cb) / (np.sqrt(1.0 - cb) + np.sqrt(1.0 - q))) ** 2)
    return sqrt(-np.expm1(2 * n_entries * np.log1p(-hellinger2.max())))


def tv_to_uniform(dist) -> float:
    """Total variation distance of a probability vector to uniform."""
    dist = np.asarray(dist, dtype=float)
    u = 1.0 / dist.size
    return 0.5 * fsum(abs(v - u) for v in dist)


def closed_form_tv_unbiased(p: int, t: int) -> float:
    """TV to uniform for all-unbiased bits: a(p-a) / (2^(t+1) p), where
    a = 2^(t+1) mod p."""
    a = pow(2, t + 1, p)
    return a * (p - a) / (2 ** (t + 1) * p)


def required_t_mod_p(p: int, c: float, eps: float) -> int:
    """Constructive expansion length: with t at least
    ceil(log(4 eps^2 / p) / log(1 - 3c(1-c))) * ceil(1 + log2(p/3))
    the expansion of t+1 bits with biases in [c, 1-c] is within eps of
    uniform mod p."""
    if p <= 2:
        raise ValueError("requires an odd prime")
    if not 0 < c <= 0.5:
        raise ValueError("c must be in (0, 1/2]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    outer = ceil(1 + log2(p / 3))
    inner = ceil(log(4 * eps ** 2 / p) / log(1 - 3 * c * (1 - c)))
    return max(inner, 1) * max(outer, 1)


def required_t_mod_2(c: float, eps: float) -> int:
    """Expansion length making the parity of t+1 bits eps-close to uniform:
    ceil(log(eps/2) / log(|1-2c|)) + 1, with unbiased bits short-circuiting
    to t = 1 (their parity is exactly uniform)."""
    if not 0 < c <= 0.5:
        raise ValueError("c must be in (0, 1/2]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c == 0.5:
        return 1
    return max(1, ceil(log(eps / 2) / log(abs(1 - 2 * c)))) + 1


def min_t_for_tv(p: int, c: float, target: float, max_t: int = 4096) -> int:
    """Smallest t whose exact t+1 bit distribution (all biases c) has TV to
    uniform at most `target`.  Used by the reduction pipeline, which needs
    the certified exact value rather than the analytic bound."""
    if target <= 0:
        raise ValueError("target must be positive")
    f = np.zeros(p)
    f[0] = 1.0
    u = 1.0 / p
    for i in range(max_t + 1):
        f = _law_step(f, c, _bit_weight(p, i))
        if 0.5 * np.abs(f - u).sum() <= target:
            return i
    raise ValueError(f"no t <= {max_t} reaches TV {target} for p={p}, c={c}")


def parity_zero_probability(qs) -> float:
    """P[sum of independent Ber(q_i) bits is even] = (1 + prod(1-2q_i)) / 2."""
    return 0.5 * (1.0 + prod(1.0 - 2.0 * q for q in qs))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_conditioned(residues: np.ndarray, p: int, qs: tuple[float, ...],
                        rng) -> np.ndarray:
    """(len(residues), t+1) bits with P[Z_i = 1] = qs[i], drawn from their
    joint law conditioned on sum_i w_i Z_i = r (mod p) for each residue r.

    Backward pass over the conditional table (`_conditional_ones`): bit i
    is 1 with probability ones[i, r], then r drops by w_i when it is.  A
    residue the law never reaches gets probability 0, so its row is all
    zeros and misses the congruence; callers check reachability first.
    """
    ones = _conditional_ones(p, qs)
    weights = bit_weights(p, len(qs))
    r = np.asarray(residues, dtype=np.int64) % p
    u = rng.random((len(qs), len(r)))
    out = np.empty((len(r), len(qs)), dtype=np.uint8)
    for i in range(len(qs) - 1, -1, -1):
        bit = u[i] < ones[i, r]
        out[:, i] = bit
        r = (r - weights[i] * bit) % p
    return out


def sample_expansion_mod_p_batch(xs: np.ndarray, spec: ExpansionSpec,
                                 rng=None) -> np.ndarray:
    """Bits X_0..X_t with sum 2^i X_i = x (mod p) for every residue x of
    xs, each row drawn exactly from the spec's expansion conditioned on
    its residue.

    Returns an (len(xs), t+1) 0/1 array whose rows satisfy their
    congruences.  Requires only that the spec reaches every residue; how
    close the sampled bits are to the spec's product law is a separate
    certificate (`query_tv_bound`), which may hold at a TV to uniform well
    above 1/p.
    """
    if not reaches_every_residue(spec):
        raise ValueError(f"the spec's {spec.n_bits} bits miss a residue mod {spec.p}")
    return _sample_conditioned(xs, spec.p, spec.qs, as_rng(rng))


def sample_expansion_mod_2_batch(rs: np.ndarray, c: float, t: int,
                                 eps: float, rng=None) -> np.ndarray:
    """Bits X_0..X_t of bias c for every parity r of rs, whose parity
    equals r, drawn from the product of Ber(c) bits conditioned on that
    parity; with uniform parities the joint law is within eps of the
    product law.  Requires t >= required_t_mod_2 at the bias bound
    min(c, 1 - c)."""
    need = required_t_mod_2(min(c, 1.0 - c), eps)
    if t < need:
        raise ValueError(f"t={t} below required_t_mod_2={need}")
    return _sample_conditioned(rs, 2, (float(c),) * (t + 1), as_rng(rng))
