"""The k-partite clique-count polynomial over N = C(k,s)*n^s edge variables,
its random self-reduction through curve evaluations and decoding, and the
two decompositions that evaluate it from simpler inputs.

Both decompositions are one coloring sum: write every entry as
sum_a w_a * y_a over an alphabet of colors; because the polynomial takes
one entry from each of its D = C(k,s) label-sets, its value is the sum
over all colorings a of the label-sets of prod_S w_{a(S)} times its value
on the coloring's input (`_coloring_sum`).  The binary-expansion
decomposition (`recombine_expansions`, `weighted_to_unweighted_batch`)
colors by bit positions with weights 2^b mod p (1 for p = 2); the
extension-to-base decomposition (`ext_to_base_reduce`) colors by pairs of
a normal-basis coordinate i and an expansion bit b, with weights
beta^(p^i) * w_b.

Callback contracts: every callback is batched.  `random_self_reduce`'s
`eval_at` takes the (12D, N) matrix of curve points over the field, one
point per row, and returns their 12D claimed values.  `er_eval`/`base_eval`
take an (M, N) matrix of 0/1 rows, one input per row, and return a
length-M integer vector of polynomial values.  The rows arrive
coloring-major and point-minor, as the transposed view of an edge-major
buffer (see `_coloring_sum`), so a callback must not assume C order.
Scalar usage is the M = 1 case.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

# min_t_for_tv is no longer called here, but perfbench/spans.py wraps it
# under this module's name
from .expansion import (ExpansionSpec, bit_weights, min_t_for_tv,  # noqa: F401
                        query_tv_bound, reaches_every_residue,
                        required_t_mod_2, sample_expansion_mod_2_batch,
                        sample_expansion_mod_p_batch)
from .fields import ExtFieldCtx, PrimeFieldCtx, berlekamp_welch_decode
from .hypergraph import EdgeIndex
from .util import as_rng


@dataclass
class WeightedKPartiteInput:
    """A vector of field elements indexed by the label-respecting s-subsets.

    `field` is a PrimeFieldCtx or ExtFieldCtx; None means plain integers
    (used for exact 0/1 counting checks).
    """

    index: EdgeIndex
    values: np.ndarray
    field: object = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.shape != (self.index.size,):
            raise ValueError(f"expected {self.index.size} entries, got {vals.shape}")
        if self.field is not None:
            if isinstance(self.field, PrimeFieldCtx):
                vals = vals % self.field.p
            elif np.any((vals < 0) | (vals >= self.field.order)):
                raise ValueError("entries must be reduced into the field")
        self.values = vals


def _label_set_groups(index: EdgeIndex):
    """For each part j, the label-set ranks whose maximum part is j."""
    groups = [[] for _ in range(index.k)]
    for rank, parts in enumerate(index.label_sets):
        groups[parts[-1]].append((rank, parts))
    return groups


def eval_clique_poly(x: WeightedKPartiteInput):
    """Sum over label-complete k-tuples of the product of the C(k,s) entries
    picked out by each label-set.

    On 0/1 inputs over the integers this is the k-clique count of the
    k-partite hypergraph; over a field it is that count mod char.
    """
    index = x.index
    n, k, s = index.n, index.k, index.s
    ctx = x.field
    if ctx is None:
        mul = lambda a, b: a * b
        add = lambda a, b: a + b
        zero, one = 0, 1
    else:
        mul, add, zero, one = ctx.mul, ctx.add, ctx.zero, ctx.one
    vals = x.values
    groups = _label_set_groups(index)
    stride = n ** s
    total = zero

    def extend(part, chosen, acc):
        nonlocal total
        if part == k:
            total = add(total, acc)
            return
        for u in range(n):
            tup = chosen + (u,)
            acc2 = acc
            dead = False
            for rank, parts in groups[part]:
                off = 0
                for j in parts:
                    off = off * n + tup[j]
                v = int(vals[rank * stride + off])
                if v == zero:
                    dead = True
                    break
                acc2 = mul(acc2, v)
            if not dead:
                extend(part + 1, tup, acc2)

    extend(0, (), one)
    return total


# ---------------------------------------------------------------------------
# the coloring sum
# ---------------------------------------------------------------------------

def _coloring_sum(alpha: np.ndarray, weights: np.ndarray, field,
                  index: EdgeIndex, evaluate, row_budget: int = 1 << 14) -> np.ndarray:
    """Per point, the field sum over all colorings a of the D = C(k,s)
    label-sets by the A colors of prod_r weights[a_r] * evaluate(row_a).

    alpha: (M, N, A) alphabet values of every edge of each of M points;
    row_a takes, for each edge of label-set r, its value at color a_r.
    weights: (A,) field elements.  `evaluate` maps an (rows, N) batch to
    base-field values, reduced here mod the characteristic.  Colorings are
    enumerated with the first label-set as the most significant digit, in
    chunks of at most `row_budget` rows (at least one coloring per chunk).
    A chunk is gathered edge-major into an (N, colorings, M) buffer, so each
    copy is a run of M values and the kernel packs its bit-planes without a
    copy; `evaluate` receives its transpose, rows coloring-major and
    point-minor (row j * M + i is coloring j of point i).  Returns the
    length-M vector of field elements.
    """
    m, n_edges, n_colors = alpha.shape
    d = comb(index.k, index.s)
    block = index.n ** index.s  # label-set r owns edges [r*block, (r+1)*block)
    by_color = np.ascontiguousarray(alpha.transpose(1, 2, 0))  # (N, A, M)
    n_col = n_colors ** d
    step = max(1, row_budget // m)
    buf = np.empty(n_edges * min(step, n_col) * m, dtype=alpha.dtype)
    parts = []
    for lo in range(0, n_col, step):
        digits = np.unravel_index(np.arange(lo, min(lo + step, n_col)), (n_colors,) * d)
        cur = buf[:n_edges * len(digits[0]) * m].reshape(n_edges, -1, m)
        w = weights[digits[0]]
        for r, a in enumerate(digits):
            edges = slice(r * block, (r + 1) * block)
            # digits are valid colors; mode="clip" spares the buffered copy
            # that out= costs under the default mode="raise"
            np.take(by_color[edges], a, axis=1, out=cur[edges], mode="clip")
            if r:
                w = field.mul_vec(w, weights[a])
        vals = np.asarray(evaluate(cur.reshape(n_edges, -1).T), dtype=np.int64)
        parts.append(field.sum_vec(field.mul_vec(w, vals.reshape(-1, m).T % field.char)))
    return field.sum_vec(np.stack(parts, axis=-1))


# ---------------------------------------------------------------------------
# random self-reduction
# ---------------------------------------------------------------------------

def random_self_reduce(x: WeightedKPartiteInput, eval_at, rng=None):
    """Evaluate the clique polynomial at a worst-case point from 12*D claimed
    evaluations along a random quadratic curve, D = C(k,s).

    `eval_at` receives the (12D, N) matrix whose row i - 1 is the curve
    point at t = i, over x's field, and returns the 12D claimed values;
    up to floor((12D - 2D - 1)/2) wrong answers are corrected by decoding.
    The curve passes through x at 0, so the decoded constant term is the
    value.
    """
    rng = as_rng(rng)
    ctx = x.field
    index = x.index
    d = comb(index.k, index.s)
    m = 12 * d
    if ctx.order <= m:
        raise ValueError(f"field of order {ctx.order} too small for {m} nonzero points")
    y1 = ctx.rand_vec(index.size, rng)
    y2 = ctx.rand_vec(index.size, rng)
    ts = np.array([ctx.element(i) for i in range(1, m + 1)], dtype=np.int64)[:, None]
    points = ctx.sum_vec(np.stack(np.broadcast_arrays(
        x.values, ctx.mul_vec(ts, y1), ctx.mul_vec(ctx.mul_vec(ts, ts), y2)), axis=-1))
    values = np.asarray(eval_at(points), dtype=np.int64)
    if values.shape != (m,):
        raise ValueError(f"eval_at returned shape {values.shape} for {m} points")
    return berlekamp_welch_decode(list(zip(ts[:, 0].tolist(), values.tolist())),
                                  2 * d, ctx)


# ---------------------------------------------------------------------------
# weighted -> unweighted (binary expansion) over F_p
# ---------------------------------------------------------------------------

_MAX_T = 4096  # longest expansion the planner tries


@lru_cache(maxsize=1024)
def pipeline_expansion_spec(p: int, c: float, n_edges: int, gamma: float) -> ExpansionSpec:
    """Expansion used by the reduction mod p: t + 1 bits of bias c, for the
    smallest t that reaches every residue and whose certified per-query
    bound (`query_tv_bound`) is at most gamma.

    What is certified is the law of each oracle query, not of each entry:
    a query reads one expansion bit of each of the N = n_edges entries of a
    uniform curve point, and its law is within gamma of N independent
    Ber(c) bits, the label-respecting edges of Erdos-Renyi.  A union bound
    over the queries of a curve point then bounds the oracle's error.  At
    c = 1/2 every expansion bit is exactly Ber(1/2), so t + 1 is the bit
    length of p - 1.

    Memoised: every curve point of a prime asks for the same spec, and the
    frozen ExpansionSpec is safe to share."""
    c_eff = min(c, 1.0 - c)
    # t + 1 bits take at most 2^(t+1) values, too few below this length
    for t in range((p - 1).bit_length() - 1, _MAX_T + 1):
        spec = ExpansionSpec(p=p, c=c_eff, t=t, qs=(c,) * (t + 1))
        if reaches_every_residue(spec) and query_tv_bound(spec, n_edges) <= gamma:
            return spec
    raise ValueError(f"no t <= {_MAX_T} certifies gamma={gamma} for p={p}, c={c}")


def pipeline_mod_2_bits(c: float, n_edges: int, gamma: float) -> int:
    """Bits per entry of the reduction's mod-2 expansions: t + 1 bits of
    bias c whose parity is within gamma/N of uniform, so each of the N
    entries adds at most gamma/N to the TV of a query to Erdos-Renyi.  At
    c = 1/2 a uniform entry is already an exact Ber(1/2) bit, so one bit."""
    if c == 0.5:
        return 1
    return required_t_mod_2(min(c, 1.0 - c), gamma / n_edges) + 1


def _sample_expansions(points: np.ndarray, field: PrimeFieldCtx, c: float,
                       gamma: float, rng) -> np.ndarray:
    """(..., N, B) expansion bits of a (..., N) array over F_p, whose last
    axis holds the N entries of a point: Ber(c) bits conditioned on their
    `bit_weights`-weighted sum being each entry, with B chosen so that the
    expansion of a uniform entry is within gamma/N of independent Ber(c)
    bits.  Over F_2 a one-bit expansion is the entry itself."""
    p = field.p
    n_edges = points.shape[-1]
    if p == 2:
        n_bits = pipeline_mod_2_bits(c, n_edges, gamma)
        if n_bits == 1:
            return points[..., None].astype(np.uint8)
        bits = sample_expansion_mod_2_batch(points.ravel(), c, n_bits - 1,
                                            gamma / n_edges, rng)
    else:
        spec = pipeline_expansion_spec(p, c, n_edges, gamma)
        bits = sample_expansion_mod_p_batch(points.ravel(), spec, rng)
    return bits.reshape(*points.shape, -1)


def recombine_expansions(per_edge_bits: np.ndarray, index: EdgeIndex,
                         field: PrimeFieldCtx, er_eval,
                         chunk: int = 1 << 14) -> int:
    """Weighted sum over all colorings of er_eval on the coloring's 0/1 input.

    per_edge_bits: (N, B) matrix of expansion bits per edge.  Each coloring
    assigns one bit position to every label-set; its weight is
    2^(sum of assigned positions) mod p (weight 1 for p = 2).  This is the
    coloring sum of one point; er_eval sees one (M, N) batch of at most
    `chunk` colorings at a time.
    """
    bits = np.asarray(per_edge_bits)[None]
    return int(_coloring_sum(bits, bit_weights(field.p, bits.shape[2]), field,
                             index, er_eval, chunk)[0])


def weighted_to_unweighted_batch(points: np.ndarray, index: EdgeIndex,
                                 field: PrimeFieldCtx, c: float, gamma: float,
                                 er_eval, rng=None,
                                 row_budget: int = 1 << 14) -> np.ndarray:
    """Evaluate the polynomial at a batch of field points using a callback
    that only evaluates 0/1 points.

    points: (M, N) matrix over F_p; returns the length-M vector of polynomial
    values.  Each entry is decomposed as sum_b w_b Y_b (mod p) with bits
    close to Ber(c) (w_b = 2^b mod p, or 1 for p = 2), drawn exactly from
    their law conditioned on the entry, so the decomposition never fails.
    A point's value is the weighted sum over all bit-position colorings of
    er_eval on the coloring's 0/1 vector.  Expansions for all rows are
    sampled at once and the coloring sums of all rows are evaluated in
    shared er_eval batches of at most `row_budget` rows.
    """
    rng = as_rng(rng)
    points = np.asarray(points, dtype=np.int64) % field.p
    if points.shape[1] != index.size:
        raise ValueError("points width does not match the edge index")
    bits = _sample_expansions(points, field, c, gamma, rng)
    return _coloring_sum(bits, bit_weights(field.p, bits.shape[2]), field,
                         index, er_eval, row_budget)


# ---------------------------------------------------------------------------
# extension field -> base field
# ---------------------------------------------------------------------------

def ext_to_base_reduce(points: np.ndarray, index: EdgeIndex, ctx: ExtFieldCtx,
                       c: float, gamma: float, base_eval, rng=None) -> np.ndarray:
    """Evaluate the polynomial at a batch of points over F_{p^t} using a
    callback that only evaluates 0/1 points.

    points: (M, N) matrix of packed elements; returns the length-M vector
    of polynomial values.  Each entry is x = sum_i x_i beta^(p^i) in the
    normal basis, and each coordinate is expanded once into B bits as in
    `weighted_to_unweighted_batch`, so a query still reads one bit of each
    of N independent entries.  The colors are the pairs (i, b): color
    i*B + b reads bit b of coordinate i, of weight beta^(p^i) * w_b.  Over
    GF(2^t) at c = 1/2, B = 1 and the colors are the coordinates.
    """
    if not isinstance(ctx, ExtFieldCtx):
        raise ValueError("ext_to_base_reduce needs an extension field context")
    m, n_edges = np.shape(points)
    if n_edges != index.size:
        raise ValueError("points width does not match the edge index")
    coords = ctx.decompose_vec(np.ravel(points)).reshape(m, n_edges, ctx.t)
    # (M, t, N, B): each coordinate position is a batch of points
    bits = _sample_expansions(coords.transpose(0, 2, 1), ctx.base, c, gamma,
                              as_rng(rng))
    alpha = bits.transpose(0, 2, 1, 3).reshape(m, n_edges, -1)
    weights = ctx.mul_vec(np.array(ctx.frob_beta, dtype=np.int64)[:, None],
                          bit_weights(ctx.char, bits.shape[3])).ravel()
    return _coloring_sum(alpha, weights, ctx, index, base_eval)
