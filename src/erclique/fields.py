"""Prime-field and extension-field arithmetic, prime selection, Chinese
remaindering, and a Berlekamp-Welch decoder.

One Gauss-Jordan elimination, written once over the field contexts' vector
operations, serves both the decoder (over any field) and the inverse of the
normal-basis change of basis (over F_p).

Field elements are plain Python ints.  Prime-field elements live in
``[0, p)``.  Extension-field elements are packed ints: the element with
power-basis coefficients ``(a_0, ..., a_{t-1})`` over F_p is encoded as
``a_0 + a_1*p + ... + a_{t-1}*p^(t-1)``.  The packed encoding doubles as
the canonical enumeration order of field elements, so "the i-th element"
is simply the int ``i``.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np


class DecodeFailure(Exception):
    """Berlekamp-Welch could not recover a polynomial (too many corruptions)."""


# ---------------------------------------------------------------------------
# primes / CRT
# ---------------------------------------------------------------------------

def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def primes_greater_than(bound: int):
    """Yield primes > bound in increasing order."""
    m = bound + 1
    while True:
        if is_prime(m):
            yield m
        m += 1


def select_primes(n: int, k: int, s: int) -> list[int]:
    """Minimal increasing list of primes > 12*C(k,s) whose product exceeds n**k."""
    if not n >= k >= s >= 2:
        raise ValueError(f"need n >= k >= s >= 2, got n={n} k={k} s={s}")
    target = n ** k
    primes, running = [], 1
    for p in primes_greater_than(12 * comb(k, s)):
        primes.append(p)
        running *= p
        if running > target:
            return primes


@dataclass(frozen=True)
class ResidueVector:
    primes: tuple[int, ...]
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "residues", tuple(int(r) for r in self.residues))
        if len(self.primes) != len(self.residues):
            raise ValueError("primes and residues must have equal length")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be pairwise distinct")
        for p, r in zip(self.primes, self.residues):
            if not 0 <= r < p:
                raise ValueError(f"residue {r} out of range for modulus {p}")


def crt_combine(rv: ResidueVector) -> int:
    """The unique x in [0, prod(primes)) with x = residues[i] mod primes[i]."""
    modulus = prod(rv.primes)
    x = 0
    for p, r in zip(rv.primes, rv.residues):
        rest = modulus // p
        x += r * rest * pow(rest, -1, p)
    return x % modulus


# ---------------------------------------------------------------------------
# prime field
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeFieldCtx:
    """Arithmetic context for F_p, p prime (p = 2 allowed)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def order(self) -> int:
        return self.p

    @property
    def char(self) -> int:
        return self.p

    zero = 0
    one = 1

    def reduce(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def pow(self, a, e):
        return pow(a, e, self.p)

    def element(self, i: int) -> int:
        return i % self.p

    def rand(self, rng) -> int:
        return int(rng.integers(0, self.p))

    def rand_vec(self, m: int, rng) -> np.ndarray:
        return rng.integers(0, self.p, size=m, dtype=np.int64)

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise a * b of (broadcast) arrays of field elements."""
        return np.asarray(a, dtype=np.int64) * b % self.p

    def sum_vec(self, elems) -> np.ndarray:
        """Field sum of an array of elements along its last axis."""
        return np.asarray(elems, dtype=np.int64).sum(axis=-1) % self.p

    def sub_vec(self, a, b) -> np.ndarray:
        """Elementwise a - b of (broadcast) arrays of field elements."""
        return (np.asarray(a, dtype=np.int64) - b) % self.p


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_sub(a, b, p):
    m = max(len(a), len(b))
    out = [0] * m
    for i in range(m):
        va = a[i] if i < len(a) else 0
        vb = b[i] if i < len(b) else 0
        out[i] = (va - vb) % p
    return _poly_trim(out)


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic, little-endian
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = list(_poly_trim(a)), list(_poly_trim(b))
    while b:
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        r = _poly_mod(a, bm, p)
        a, b = b, list(_poly_trim(r))
    return a


def _poly_powmod(base, e, m, p):
    result = [1]
    b = _poly_mod(base, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, b, p), m, p)
        b = _poly_mod(_poly_mul(b, b, p), m, p)
        e >>= 1
    return result


def _prime_divisors(t):
    out, d, m = [], 2, t
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def _is_irreducible(modpoly, p, t):
    """Rabin test for a monic degree-t polynomial."""
    x = [0, 1]
    frobs = {0: list(x)}
    g = list(x)
    for i in range(1, t + 1):
        g = _poly_powmod(g, p, modpoly, p)
        frobs[i] = list(g)
    if _poly_sub(frobs[t], x, p):
        return False
    for r in _prime_divisors(t):
        diff = _poly_sub(frobs[t // r], x, p)
        if len(_poly_gcd(diff, modpoly, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _find_irreducible(p: int, t: int) -> tuple[int, ...]:
    """Monic irreducible of degree t over F_p with the smallest packed encoding
    of its low coefficients (c_0 + c_1*p + ...).  Little-endian, length t+1."""
    if t == 1:
        return (0, 1)
    for code in range(p ** t):
        coeffs = []
        c = code
        for _ in range(t):
            coeffs.append(c % p)
            c //= p
        modpoly = coeffs + [1]
        if _is_irreducible(modpoly, p, t):
            return tuple(modpoly)
    raise RuntimeError(f"no irreducible polynomial of degree {t} over F_{p}")


def _ext_unpack(x, p, t):
    out = []
    for _ in range(t):
        out.append(x % p)
        x //= p
    return out


def _ext_pack(coeffs, p):
    x = 0
    for c in reversed(list(coeffs)):
        x = x * p + (c % p)
    return x


def _ext_mul_raw(a, b, modulus, p, t):
    prod_ = _poly_mul(_ext_unpack(a, p, t), _ext_unpack(b, p, t), p)
    red = _poly_mod(prod_, list(modulus), p)
    return _ext_pack(red + [0] * (t - len(red)), p)


def _ext_pow_raw(a, e, modulus, p, t):
    result, b = 1, a
    while e:
        if e & 1:
            result = _ext_mul_raw(result, b, modulus, p, t)
        b = _ext_mul_raw(b, b, modulus, p, t)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# extension field
# ---------------------------------------------------------------------------

_MUL_TABLE_LIMIT = 512  # build lookup tables for fields up to this order


class ExtFieldCtx:
    """Arithmetic context for F_{p^t} with a normal-basis change of basis.

    Elements are packed ints (see module docstring).  ``basis_matrix`` maps
    normal-basis coordinates to power-basis coordinates; ``inverse_matrix``
    is its inverse mod p.  Small fields get multiplication and decomposition
    lookup tables, which also back the vectorized helpers used by the
    reduction pipeline.
    """

    def __init__(self, base: PrimeFieldCtx, t: int, modulus, beta,
                 basis_matrix, inverse_matrix):
        self.base = base
        self.t = t
        self.modulus = tuple(int(c) for c in modulus)
        self.beta = tuple(int(c) for c in beta)
        self.basis_matrix = tuple(tuple(int(v) for v in row) for row in basis_matrix)
        self.inverse_matrix = tuple(tuple(int(v) for v in row) for row in inverse_matrix)
        self.order = base.p ** t
        self.char = base.p
        self.zero = 0
        self.one = 1
        self._frob_beta = None
        self._mul_table = None
        self._decompose_table = None
        self._inv_table = None

    # -- packing ---------------------------------------------------------
    def pack(self, coeffs) -> int:
        return _ext_pack(coeffs, self.base.p)

    def unpack(self, x: int) -> tuple[int, ...]:
        return tuple(_ext_unpack(x, self.base.p, self.t))

    # -- arithmetic -------------------------------------------------------
    def reduce(self, a):
        return a % self.order

    def add(self, a, b):
        if self.char == 2:
            return a ^ b
        return self.pack(x + y for x, y in zip(self.unpack(a), self.unpack(b)))

    def sub(self, a, b):
        if self.char == 2:
            return a ^ b
        return self.pack(x - y for x, y in zip(self.unpack(a), self.unpack(b)))

    def mul(self, a, b):
        table = self._tables()[0] if self.order <= _MUL_TABLE_LIMIT else None
        if table is not None:
            return int(table[a, b])
        return _ext_mul_raw(a, b, self.modulus, self.base.p, self.t)

    def pow(self, a, e):
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        result, b = 1, a
        while e:
            if e & 1:
                result = self.mul(result, b)
            b = self.mul(b, b)
            e >>= 1
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.order <= _MUL_TABLE_LIMIT:
            return int(self._tables()[2][a])
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        return self.pow(a, self.char)

    def element(self, i: int) -> int:
        return i % self.order

    def rand(self, rng) -> int:
        return int(rng.integers(0, self.order))

    def rand_vec(self, m: int, rng) -> np.ndarray:
        return rng.integers(0, self.order, size=m, dtype=np.int64)

    def embed_base(self, a: int) -> int:
        """Embed a base-field scalar as a constant power-basis element."""
        return a % self.base.p

    # -- normal-basis coordinates ------------------------------------------
    def decompose(self, x: int) -> tuple[int, ...]:
        """Coordinates (x0, ..., x_{t-1}) with x = sum_i xi * beta^(p^i)."""
        if self.order <= _MUL_TABLE_LIMIT:
            return tuple(int(v) for v in self._tables()[1][x])
        p = self.base.p
        power = self.unpack(x)
        return tuple(sum(self.inverse_matrix[r][c] * power[c] for c in range(self.t)) % p
                     for r in range(self.t))

    def recompose(self, coords) -> int:
        p = self.base.p
        power = [sum(self.basis_matrix[r][c] * coords[c] for c in range(self.t)) % p
                 for r in range(self.t)]
        return self.pack(power)

    @property
    def frob_beta(self) -> tuple[int, ...]:
        """(beta, beta^p, ..., beta^(p^(t-1))) as packed ints."""
        if self._frob_beta is None:
            frobs = [self.pack(self.beta)]
            for _ in range(self.t - 1):
                frobs.append(self.frobenius(frobs[-1]))
            self._frob_beta = tuple(frobs)
        return self._frob_beta

    # -- lookup tables -----------------------------------------------------
    def _tables(self):
        if self._mul_table is None:
            q, p, t = self.order, self.base.p, self.t
            table = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(a, q):
                    v = _ext_mul_raw(a, b, self.modulus, p, t)
                    table[a, b] = v
                    table[b, a] = v
            inv = np.array(self.inverse_matrix, dtype=np.int64)
            coords = np.zeros((q, t), dtype=np.min_scalar_type(p - 1))
            for x in range(q):
                coords[x] = (inv @ np.array(self.unpack(x), dtype=np.int64)) % p
            self._mul_table = table
            self._decompose_table = coords
            self._inv_table = np.argmax(table == 1, axis=1)  # entry 0 unused
        return self._mul_table, self._decompose_table, self._inv_table

    def mul_vec(self, a, b) -> np.ndarray:
        """Elementwise a * b of (broadcast) arrays of packed elements."""
        if self.order <= _MUL_TABLE_LIMIT:
            return self._tables()[0][a, b]
        return np.vectorize(self.mul, otypes=[np.int64])(a, b)

    def sum_vec(self, elems) -> np.ndarray:
        """Field sum of packed elements along the last axis: XOR in
        characteristic 2, otherwise power-basis coordinates summed mod p."""
        elems = np.asarray(elems, dtype=np.int64)
        if self.char == 2:
            return np.bitwise_xor.reduce(elems, axis=-1)
        p = self.base.p
        place = p ** np.arange(self.t, dtype=np.int64)
        coords = elems[..., None] // place % p
        return (coords.sum(axis=-2) % p) @ place

    def sub_vec(self, a, b) -> np.ndarray:
        """Elementwise a - b of (broadcast) arrays of packed elements: XOR in
        characteristic 2, otherwise power-basis coordinates subtracted mod p."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.char == 2:
            return a ^ b
        p = self.base.p
        place = p ** np.arange(self.t, dtype=np.int64)
        return (a[..., None] // place - b[..., None] // place) % p @ place

    def decompose_vec(self, vec: np.ndarray) -> np.ndarray:
        """(m, t) matrix of normal-basis coordinates of packed elements, in
        the smallest unsigned dtype that holds p - 1 (bytes for p = 2)."""
        if self.order <= _MUL_TABLE_LIMIT:
            return self._tables()[1][vec]
        return np.array([self.decompose(int(v)) for v in vec],
                        dtype=np.min_scalar_type(self.base.p - 1))

    def __repr__(self):
        return f"ExtFieldCtx(p={self.base.p}, t={self.t}, beta={self.beta})"


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _solve(ctx, aug, n_unknowns: int):
    """Gauss-Jordan over the field ctx on the augmented matrix [A | B], A
    being its first n_unknowns columns: some X with A @ X = B (free
    variables 0), or None when the system is inconsistent.

    X is read off the reduced row echelon form, which does not depend on
    the pivot rows chosen.  Row operations go through the context's vector
    arithmetic; only the pivots are inverted one by one.
    """
    a = np.array(aug, dtype=np.int64)
    pivots = []
    for c in range(n_unknowns):
        r = len(pivots)
        if r == len(a):
            break
        if not a[r, c]:
            nz = np.flatnonzero(a[r:, c])
            if not nz.size:
                continue
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        # clear column c in every other row; row r's factor 1 - 1/pivot
        # scales it to a unit pivot in the same update.  Columns left of c
        # are zero in row r, so they do not change.
        inv = ctx.inv(int(a[r, c]))
        factors = ctx.mul_vec(a[:, c], inv)
        factors[r] = ctx.sub(ctx.one, inv)
        a[:, c:] = ctx.sub_vec(a[:, c:], ctx.mul_vec(factors[:, None], a[r, c:]))
        pivots.append(c)
    # rows past the last pivot have A-part zero: they must have B-part zero
    if a[len(pivots):, n_unknowns:].any():
        return None
    x = np.zeros((n_unknowns, a.shape[1] - n_unknowns), dtype=np.int64)
    x[pivots] = a[:len(pivots), n_unknowns:]
    return x


@lru_cache(maxsize=None)
def find_normal_basis(p: int, t: int) -> ExtFieldCtx:
    """First field element beta (in packed order) whose Frobenius orbit
    beta, beta^p, ..., beta^(p^(t-1)) is linearly independent over F_p.

    Deterministic given (p, t): the modulus is the smallest irreducible
    (packed order) and candidates are scanned in packed order.
    """
    if t < 1:
        raise ValueError("extension degree must be >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    base = PrimeFieldCtx(p)
    modulus = _find_irreducible(p, t)
    for cand in range(1, p ** t):
        frobs = [cand]
        for _ in range(t - 1):
            frobs.append(_ext_pow_raw(frobs[-1], p, modulus, p, t))
        # column i holds the power-basis coordinates of beta^(p^i)
        cols = [_ext_unpack(f, p, t) for f in frobs]
        mat = [[cols[i][r] for i in range(t)] for r in range(t)]
        # mat @ X = I is solvable exactly when mat is invertible
        inv = _solve(base, np.concatenate([mat, np.eye(t, dtype=np.int64)], axis=1), t)
        if inv is not None:
            return ExtFieldCtx(base, t, modulus, _ext_unpack(cand, p, t), mat, inv)
    raise RuntimeError(f"no normal basis generator found in F_{p}^{t}; "
                       "this indicates an arithmetic bug")


# ---------------------------------------------------------------------------
# Berlekamp-Welch
# ---------------------------------------------------------------------------

def _as_field(field):
    if isinstance(field, int):
        return PrimeFieldCtx(field)
    return field


def berlekamp_welch_decode(points, deg_bound: int, field) -> int:
    """Recover h(0) for the degree <= deg_bound polynomial h that agrees with
    the (t_i, y_i) pairs up to floor((m - deg_bound - 1)/2) corruptions.

    ``field`` is a prime p, a PrimeFieldCtx, or an ExtFieldCtx.  Raises
    :class:`DecodeFailure` when the linear system is inconsistent, the trial
    division leaves a remainder, or the recovered polynomial disagrees with
    more points than the corruption bound allows.
    """
    ctx = _as_field(field)
    m = len(points)
    d = deg_bound
    e = (m - d - 1) // 2
    if e < 0:
        raise ValueError(f"need at least deg_bound+1={d + 1} points, got {m}")
    ts = [ctx.reduce(t) for t, _ in points]
    if len(set(ts)) != m or ctx.zero in ts:
        raise ValueError("evaluation points must be distinct and nonzero")
    ts = np.array(ts, dtype=np.int64)
    ys = np.array([ctx.reduce(y) for _, y in points], dtype=np.int64)

    # Q has d + e + 1 unknown coefficients; E is monic of degree e with e
    # unknowns.  Row i of the system is Q(t_i) - y_i (E(t_i) - t_i^e) = y_i t_i^e.
    nq = d + e + 1
    tpow = np.ones((m, nq), dtype=np.int64)
    for j in range(1, nq):
        tpow[:, j] = ctx.mul_vec(tpow[:, j - 1], ts)
    ytpow = ctx.mul_vec(ys[:, None], tpow[:, :e + 1])
    system = np.concatenate([tpow, ctx.sub_vec(0, ytpow[:, :e]), ytpow[:, e:]], axis=1)
    sol = _solve(ctx, system, nq + e)
    if sol is None:
        raise DecodeFailure("error-locator system inconsistent")
    q_coeffs, e_coeffs = sol[:nq, 0], np.append(sol[nq:, 0], ctx.one)

    # synthetic division Q = h E + rem by the monic E, from the top down
    h = np.empty(d + 1, dtype=np.int64)
    for i in range(d, -1, -1):
        h[i] = q_coeffs[i + e]
        q_coeffs[i:i + e + 1] = ctx.sub_vec(q_coeffs[i:i + e + 1],
                                            ctx.mul_vec(h[i], e_coeffs))
    if q_coeffs[:e].any():
        raise DecodeFailure("locator does not divide numerator")
    bad = int(np.count_nonzero(ctx.sum_vec(ctx.mul_vec(tpow[:, :d + 1], h)) != ys))
    if bad > e:
        raise DecodeFailure(f"{bad} disagreements exceed corruption bound {e}")
    return int(h[0])
