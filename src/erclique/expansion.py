"""Random biased binary expansions modulo p: exact distributions by dynamic
programming, explicit length bounds, and exact samplers of an expansion
conditioned on its residue mod p or its parity.

A spec with parameter t describes t+1 bits Z_0..Z_t; the represented value
is sum_i w_i Z_i mod p with bit weights w_i = 2^i mod p, or w_i = 1 for
p = 2, where the expansion is a plain sum of bits (`bit_weights`).

The samplers draw the bits backwards from the prefix laws F_i (the law of
sum_{j<i} w_j Z_j mod p): given the residue r of bits 0..i, bit i is 1 with
probability q_i F_i(r - w_i) / F_{i+1}(r).  This is exactly the conditional
law of the expansion given its residue, uses t+1 uniforms per entry and
cannot fail.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, fsum, log, log2, prod

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


def _law_step(f: np.ndarray, q: float, w: int) -> np.ndarray:
    """Law of R + w Z mod p for R ~ f and an independent Z ~ Ber(q)."""
    return (1.0 - q) * f + q * np.roll(f, w)


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


def exact_distribution(spec: ExpansionSpec) -> np.ndarray:
    """P[sum_i w_i Z_i = x mod p] for every residue x, exact up to fp error."""
    return _prefix_laws(spec.p, spec.qs)[-1].copy()


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

    Backward pass over the prefix laws: bit i is 1 with probability
    q_i F_i(r - w_i) / F_{i+1}(r), then r drops by w_i when it is.  A
    residue the law never reaches (F_{t+1}(r) = 0) gets probability 0
    instead of 0/0, so its row is all zeros and misses the congruence;
    callers check reachability first.
    """
    laws = _prefix_laws(p, qs)
    weights = bit_weights(p, len(qs))
    # below[i, r] = F_i(r - w_i)
    below = np.take_along_axis(laws[:-1], (np.arange(p) - weights[:, None]) % p,
                               axis=1)
    ones = np.divide(np.asarray(qs)[:, None] * below, laws[1:],
                     out=np.zeros_like(below), where=laws[1:] > 0)
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
    congruences.  Requires the spec's TV to uniform below 1/p, which
    makes every residue reachable.  Both are checked: a law that misses a
    residue has TV at least 1/p, but rounding can put it just below.
    """
    dist = exact_distribution(spec)
    tv = tv_to_uniform(dist)
    if not (tv < 1.0 / spec.p and dist.min() > 0):
        raise ValueError(f"spec TV {tv:.3g} is not below 1/p = {1 / spec.p:.3g}")
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
