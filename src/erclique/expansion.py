"""Random biased binary expansions modulo p: exact distributions by dynamic
programming, explicit length bounds, and rejection samplers for residues
mod p and parities mod 2.

A spec with parameter t describes t+1 bits Z_0..Z_t; the represented value
is sum_i 2^i Z_i.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, fsum, log, log2, prod

import numpy as np

from .fields import is_prime
from .util import as_rng


class SamplerFailure(Exception):
    """Rejection sampling exhausted its round budget."""


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


@lru_cache(maxsize=4096)
def _distribution(p: int, qs: tuple[float, ...]) -> tuple[float, ...]:
    f = np.zeros(p)
    f[0] = 1.0
    for i, q in enumerate(qs):
        f = (1.0 - q) * f + q * np.roll(f, pow(2, i, p))
    return tuple(f)


def exact_distribution(spec: ExpansionSpec) -> np.ndarray:
    """P[sum_i 2^i Z_i = x mod p] for every residue x, exact up to fp error."""
    return np.array(_distribution(spec.p, spec.qs))


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
        f = (1.0 - c) * f + c * np.roll(f, pow(2, i, p))
        if 0.5 * np.abs(f - u).sum() <= target:
            return i
    raise ValueError(f"no t <= {max_t} reaches TV {target} for p={p}, c={c}")


def parity_zero_probability(qs) -> float:
    """P[sum of independent Ber(q_i) bits is even] = (1 + prod(1-2q_i)) / 2."""
    return 0.5 * (1.0 + prod(1.0 - 2.0 * q for q in qs))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _mod_p_cutoff(p: int, delta: float, tv: float) -> int:
    if not tv < 1.0 / p:
        raise ValueError(f"spec TV {tv:.3g} is not below 1/p = {1 / p:.3g}")
    return max(1, ceil(log(delta) / log(1.0 - 1.0 / p + tv)))


def sample_expansion_mod_p_batch(xs: np.ndarray, spec: ExpansionSpec,
                                 delta: float, rng=None) -> np.ndarray:
    """Bits X_0..X_t with sum 2^i X_i = x (mod p) for every residue x of
    xs, by rejection from the unconditioned biased expansion.

    Returns an (len(xs), t+1) 0/1 array whose rows satisfy their congruences.
    Each row fails with probability at most delta, after
    ceil(log delta / log(1 - 1/p + TV)) rounds; SamplerFailure is raised if
    any row exhausts that budget.
    """
    rng = as_rng(rng)
    p = spec.p
    xs = np.asarray(xs, dtype=np.int64) % p
    tv = tv_to_uniform(exact_distribution(spec))
    cutoff = _mod_p_cutoff(p, delta, tv)
    nb = spec.n_bits
    qs = np.array(spec.qs)
    pow2 = np.array([pow(2, i, p) for i in range(nb)], dtype=np.int64)
    out = np.zeros((len(xs), nb), dtype=np.uint8)
    active = np.arange(len(xs))
    rounds_left = cutoff
    while active.size and rounds_left > 0:
        chunk = min(rounds_left, max(4, int(2.5 * p)))
        draws = (rng.random((chunk, active.size, nb), dtype=np.float32)
                 < qs.astype(np.float32)).astype(np.uint8)
        residues = (draws.astype(np.int64) @ pow2) % p  # (chunk, active)
        hit = residues == xs[active]
        anyhit = hit.any(axis=0)
        first = hit.argmax(axis=0)
        taken = active[anyhit]
        out[taken] = draws[first[anyhit], np.nonzero(anyhit)[0]]
        active = active[~anyhit]
        rounds_left -= chunk
    if active.size:
        raise SamplerFailure(f"{active.size} residues unmatched after {cutoff} rounds")
    return out


def sample_expansion_mod_2_batch(rs: np.ndarray, c: float, t: int,
                                 eps: float, rng=None) -> np.ndarray:
    """Bits X_0..X_t for every parity r of rs, whose parity equals r, with
    joint law within eps of the product of Ber(c) bits.  Requires
    t >= required_t_mod_2(c, eps)."""
    rng = as_rng(rng)
    if t < required_t_mod_2(c, eps):
        raise ValueError(f"t={t} below required_t_mod_2={required_t_mod_2(c, eps)}")
    rs = np.asarray(rs, dtype=np.int64) & 1
    nb = t + 1
    # acceptance probability per round, exact
    pi = prod((1.0 - 2.0 * c) for _ in range(nb))
    p_even = 0.5 * (1.0 + pi)
    p_acc = min(p_even, 1.0 - p_even)
    cutoff = max(60, ceil(log(eps / 2) / log(1 - p_acc))) if p_acc < 1 else 1
    out = np.zeros((len(rs), nb), dtype=np.uint8)
    active = np.arange(len(rs))
    rounds_left = cutoff
    chunk = 2
    while active.size and rounds_left > 0:
        chunk = min(rounds_left, chunk)
        draws = (rng.random((chunk, active.size, nb), dtype=np.float32)
                 < np.float32(c)).astype(np.uint8)
        par = draws.sum(axis=2) & 1
        hit = par == rs[active]
        anyhit = hit.any(axis=0)
        first = hit.argmax(axis=0)
        taken = active[anyhit]
        out[taken] = draws[first[anyhit], np.nonzero(anyhit)[0]]
        active = active[~anyhit]
        rounds_left -= chunk
        chunk = min(32, chunk * 2)
    if active.size:
        raise SamplerFailure(f"{active.size} parities unmatched after {cutoff} rounds")
    return out
