"""The k-partite clique-count polynomial over N = C(k,s)*n^s edge variables,
its random self-reduction through curve evaluations and decoding, the
weighted-to-unweighted decomposition through random binary expansions, and
the extension-to-base-field decomposition through a normal basis.

Callback contracts: `er_eval`/`base_eval` callbacks are batched; they take an
(M, N) 0/1 (resp. base-field) matrix, one input per row, and return a length-M
integer vector of polynomial values.  Scalar usage is the M = 1 case.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .expansion import (ExpansionSpec, min_t_for_tv, required_t_mod_2,
                        sample_expansion_mod_2_batch, sample_expansion_mod_p_batch)
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
# colorings
# ---------------------------------------------------------------------------

def coloring_table(n_colors: int, d: int) -> np.ndarray:
    """All maps from the d label-sets to {0..n_colors-1}, one per row,
    enumerated with the first label-set as the most significant digit."""
    rows = n_colors ** d
    cols = np.unravel_index(np.arange(rows), (n_colors,) * d)
    return np.stack(cols, axis=1).astype(np.int64)


def colored_inputs(per_edge: np.ndarray, colorings: np.ndarray,
                   label_rank: np.ndarray) -> np.ndarray:
    """Row a of the result selects, for every edge j, column colorings[a, r_j]
    of per_edge, where r_j is edge j's label-set rank.

    per_edge: (N, n_colors) matrix; result: (n_colorings, N).  Edges sharing
    a label-set occupy contiguous index ranges, so the gather runs block by
    block as whole-row copies.
    """
    cc, d = colorings.shape
    out = np.empty((cc, per_edge.shape[0]), dtype=per_edge.dtype)
    for r in range(d):
        idx = np.nonzero(label_rank == r)[0]
        block = np.ascontiguousarray(per_edge[idx].T)  # (n_colors, seg)
        taken = block[colorings[:, r]]
        if idx.size and idx[-1] - idx[0] == idx.size - 1:
            out[:, idx[0]:idx[-1] + 1] = taken
        else:
            out[:, idx] = taken
    return out


# ---------------------------------------------------------------------------
# random self-reduction
# ---------------------------------------------------------------------------

def random_self_reduce(x: WeightedKPartiteInput, eval_at, rng=None):
    """Evaluate the clique polynomial at a worst-case point from 12*D claimed
    evaluations along a random quadratic curve, D = C(k,s).

    `eval_at` receives a WeightedKPartiteInput at an arbitrary point of the
    field vector space and returns a claimed field value; up to
    floor((12D - 2D - 1)/2) wrong answers are corrected by decoding.  The
    curve passes through x at 0, so the decoded constant term is the value.
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
    points = []
    for i in range(1, m + 1):
        t = ctx.element(i)
        if isinstance(ctx, PrimeFieldCtx):
            g = (x.values + t * y1 + (t * t % ctx.p) * y2) % ctx.p
        elif ctx.char == 2:
            t2 = ctx.mul(t, t)
            g = x.values ^ ctx.mul_vec(t, y1) ^ ctx.mul_vec(t2, y2)
        else:
            t2 = ctx.mul(t, t)
            g = np.array(
                [ctx.add(int(a), ctx.add(ctx.mul(t, int(b)), ctx.mul(t2, int(v))))
                 for a, b, v in zip(x.values, y1, y2)], dtype=np.int64)
        points.append((t, int(eval_at(WeightedKPartiteInput(index, g, ctx)))))
    return berlekamp_welch_decode(points, 2 * d, ctx)


# ---------------------------------------------------------------------------
# weighted -> unweighted (binary expansion) over F_p
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def pipeline_expansion_spec(p: int, c: float, n_edges: int, gamma: float) -> ExpansionSpec:
    """Expansion length used by the reduction: the smallest t whose exact
    distribution is within min(gamma/N, 1/(2p)) of uniform.  The exact
    certificate replaces the analytic length bound, which is loose by enough
    to matter to the coloring fan-out; rejection failures are budgeted
    separately and floored far below gamma/N.

    Memoised: every curve point of a prime asks for the same spec, and the
    frozen ExpansionSpec is safe to share."""
    c_eff = min(c, 1.0 - c)
    target = min(gamma / n_edges, 1.0 / (2 * p))
    t = min_t_for_tv(p, c, target)
    return ExpansionSpec(p=p, c=c_eff, t=t, qs=(c,) * (t + 1))


def recombine_expansions(per_edge_bits: np.ndarray, index: EdgeIndex,
                         field: PrimeFieldCtx, er_eval,
                         chunk: int = 1 << 14) -> int:
    """Weighted sum over all colorings of er_eval on the coloring's 0/1 input.

    per_edge_bits: (N, B) matrix of expansion bits per edge.  Each coloring
    assigns one bit position to every label-set; its weight is
    2^(sum of assigned positions) mod p (weight 1 for p = 2).  Colorings are
    evaluated in chunks to bound memory; er_eval sees one (M, N) batch per
    chunk.
    """
    p = field.p
    n_bits = per_edge_bits.shape[1]
    d = comb(index.k, index.s)
    rank = index.label_rank_array()
    n_rows = n_bits ** d
    pow2 = np.array([pow(2, e, p) for e in range(d * (n_bits - 1) + 1)],
                    dtype=np.int64)
    acc = 0
    for lo in range(0, n_rows, chunk):
        ids = np.arange(lo, min(lo + chunk, n_rows))
        colorings = np.stack(np.unravel_index(ids, (n_bits,) * d), axis=1)
        inputs = colored_inputs(per_edge_bits, colorings, rank)
        vals = np.asarray(er_eval(inputs), dtype=np.int64) % p
        if p == 2:
            acc = (acc + int(vals.sum())) % 2
        else:
            weights = pow2[colorings.sum(1)]
            acc = (acc + int((weights * vals % p).sum())) % p
    return acc


def weighted_to_unweighted(x: WeightedKPartiteInput, c: float, gamma: float,
                           er_eval, rng=None) -> int:
    """Evaluate the polynomial at an arbitrary field point using a callback
    that only evaluates 0/1 points.

    Each entry is decomposed as sum_b 2^b Y_b (mod p) with bits close to
    Ber(c); the polynomial value is recovered as the weighted sum over all
    bit-position colorings of the callback on the coloring's 0/1 vector.
    Sampler failures (probability at most gamma in total) propagate as
    SamplerFailure.  For p = 2 the decomposition is a plain sum of bits and
    the recombination is unweighted.
    """
    rng = as_rng(rng)
    field = x.field
    if not isinstance(field, PrimeFieldCtx):
        raise ValueError("weighted_to_unweighted runs over a prime field")
    p = field.p
    n_edges = x.index.size
    delta = min(gamma / (2 * n_edges), 1e-9)
    if p == 2:
        c_eff = min(c, 1.0 - c)
        t2 = required_t_mod_2(c_eff, gamma / n_edges)
        bits = sample_expansion_mod_2_batch(x.values, c, t2, gamma / n_edges, rng)
    else:
        spec = pipeline_expansion_spec(p, c, n_edges, gamma)
        bits = sample_expansion_mod_p_batch(x.values, spec, delta, rng)
    return recombine_expansions(bits, x.index, field, er_eval)


def weighted_to_unweighted_batch(points: np.ndarray, index: EdgeIndex,
                                 field: PrimeFieldCtx, c: float, gamma: float,
                                 er_eval, rng=None,
                                 row_budget: int = 1 << 14) -> np.ndarray:
    """Apply the expansion decomposition to a whole batch of field points.

    points: (M, N) matrix over F_p; returns the length-M vector of polynomial
    values.  Expansions for all rows are sampled at once and the coloring
    fan-outs of all rows are evaluated in shared er_eval batches, which is
    what makes the parity pipeline's extension-field fan-out tractable.
    """
    rng = as_rng(rng)
    p = field.p
    points = np.asarray(points, dtype=np.int64) % p
    m, n_edges = points.shape
    if n_edges != index.size:
        raise ValueError("points width does not match the edge index")
    if p == 2:
        c_eff = min(c, 1.0 - c)
        t2 = required_t_mod_2(c_eff, gamma / n_edges)
        bits = sample_expansion_mod_2_batch(points.ravel(), c, t2,
                                            gamma / n_edges, rng)
    else:
        spec = pipeline_expansion_spec(p, c, n_edges, gamma)
        bits = sample_expansion_mod_p_batch(points.ravel(), spec,
                                            min(gamma / (2 * n_edges), 1e-9), rng)
    n_bits = bits.shape[1]
    bits = bits.reshape(m, n_edges, n_bits)
    d = comb(index.k, index.s)
    rank = index.label_rank_array()
    n_col = n_bits ** d
    col_chunk = max(1, row_budget // m)
    pow2 = np.array([pow(2, e, p) for e in range(d * (n_bits - 1) + 1)],
                    dtype=np.int64)
    acc = np.zeros(m, dtype=np.int64)
    segments = [np.nonzero(rank == r)[0] for r in range(d)]
    bounds = [(int(seg[0]), int(seg[-1]) + 1) for seg in segments]
    y = np.empty((m, col_chunk, n_edges), dtype=bits.dtype)
    for lo in range(0, n_col, col_chunk):
        ids = np.arange(lo, min(lo + col_chunk, n_col))
        colorings = np.stack(np.unravel_index(ids, (n_bits,) * d), axis=1)
        yv = y[:, :len(ids)]
        for r, (a, b) in enumerate(bounds):
            yv[:, :, a:b] = bits[:, a:b, :][:, :, colorings[:, r]].transpose(0, 2, 1)
        vals = np.asarray(er_eval(yv.reshape(-1, n_edges)), dtype=np.int64)
        vals = vals.reshape(m, len(ids)) % p
        if p == 2:
            acc = (acc + vals.sum(axis=1)) % 2
        else:
            weights = pow2[colorings.sum(1)]
            acc = (acc + (vals * weights % p).sum(axis=1)) % p
    return acc


# ---------------------------------------------------------------------------
# extension field -> base field
# ---------------------------------------------------------------------------

def ext_to_base_reduce(x: WeightedKPartiteInput, base_eval, ctx: ExtFieldCtx) -> int:
    """Evaluate the polynomial over F_{p^t} using a base-field callback.

    Every entry is decomposed in the normal basis; for each coloring a of the
    label-sets by {0..t-1}, the coordinate-selected base vector is evaluated
    by the callback and weighted by prod_S beta^(p^a(S)).  Deterministic:
    all t^D colorings are evaluated.
    """
    if not isinstance(ctx, ExtFieldCtx):
        raise ValueError("ext_to_base_reduce needs an extension field context")
    index = x.index
    d = comb(index.k, index.s)
    coords = ctx.decompose_vec(x.values)  # (N, t)
    colorings = coloring_table(ctx.t, d)
    rank = index.label_rank_array()
    base_rows = colored_inputs(coords, colorings, rank)
    vals = np.asarray(base_eval(base_rows), dtype=np.int64) % ctx.char
    frob = ctx.frob_beta
    total = ctx.zero
    for a, v in zip(colorings, vals):
        w = ctx.one
        for color in a:
            w = ctx.mul(w, frob[int(color)])
        total = ctx.add(total, ctx.mul(w, ctx.embed_base(int(v))))
    return total
