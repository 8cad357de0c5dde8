"""End-to-end counting and parity reductions from worst-case hypergraphs to
an average-case clique-counting oracle, the k-partite to general
inclusion-exclusion step, the decide-from-parity search, and the slowdown
formulas.

The pipeline evaluates the clique polynomial on a worst-case input through
three nested reductions: random curve evaluations (decoded against oracle
errors), the coloring sum that decomposes weighted inputs into near-ER 0/1
inputs, and inclusion-exclusion over vertex-label subsets that converts
k-partite counting into plain counting on induced subhypergraphs.  The
coloring sum (see `polynomial`) colors the label-sets by binary-expansion
bits for counting, and by (normal-basis coordinate, mod-2 expansion bit)
pairs for parity.  One memoised `ReductionPlan` per (n, k, s, c, gamma)
fixes the fields, the expansion lengths and the predicted oracle calls of
both pipelines.  Oracle calls are issued in coloring batches so that
desk-scale parameter grids are tractable; batch and single-call semantics
agree.

The rows of one oracle batch share one within-part sample of density c
(`_kp_counts_batch`).  Oracle queries are answered by one of two routes,
chosen by the oracle's counter.  The default counters
(`cliques.brute_force_count` and `cliques.parity_count`) go through one
bit-plane clique kernel for every (s, k): a batch of rows is packed into
one bit-plane per label-respecting edge, the k-sets with an absent
within-part s-set are dropped, the C(k, s) planes of every other k-set are
ANDed (a within-part s-set reads an all-ones plane), and the results are
summed (or XORed) per part subset.  Any other counter is a blackbox and
receives one Hypergraph per query.
"""

import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations, takewhile
from math import comb, log, prod

import numpy as np

from . import cliques
from .expansion import query_tv_bound
from .fields import (DecodeFailure, PrimeFieldCtx, ResidueVector, crt_combine,
                     find_normal_basis, primes_greater_than, select_primes)
from .hypergraph import (Hypergraph, KPartiteHypergraph,
                         blow_up_k_partite, edge_index)
from .polynomial import (WeightedKPartiteInput, ext_to_base_reduce,
                         pipeline_expansion_spec, pipeline_mod_2_bits,
                         random_self_reduce, weighted_to_unweighted_batch)
from .util import as_rng


# ---------------------------------------------------------------------------
# oracle harness
# ---------------------------------------------------------------------------

class AverageCaseOracle:
    """A clique counter wrapped with an error model and call accounting.

    Error models: "exact"; "flip" answers +1 with probability `rate`;
    "calls" answers +1 exactly on the 0-based call indices in `error_calls`.
    Counters: any (Hypergraph, k) -> int callable.  The default brute force
    and parity counters are answered in batches by the bit-plane clique
    kernel for every (s, k); any other counter is a blackbox that receives
    one Hypergraph per query.
    """

    def __init__(self, counter=None, error: str = "exact", rate: float = 0.0,
                 error_calls=None, seed=0):
        if error not in ("exact", "flip", "calls"):
            raise ValueError(f"unknown error model {error!r}")
        self.counter = counter if counter is not None else cliques.brute_force_count
        self.error = error
        self.rate = float(rate)
        self.error_calls = frozenset(error_calls or ())
        self._rng = as_rng(seed)
        self._lock = threading.Lock()
        self.calls = 0
        self.injected = 0

    def _apply_errors(self, answers: np.ndarray) -> np.ndarray:
        m = len(answers)
        with self._lock:
            start = self.calls
            self.calls += m
            if self.error == "flip":
                flips = self._rng.random(m) < self.rate
            elif self.error == "calls":
                flips = np.array([start + i in self.error_calls for i in range(m)])
            else:
                flips = np.zeros(m, dtype=bool)
            self.injected += int(flips.sum())
        return answers + flips.astype(np.int64)

    def count(self, g: Hypergraph, k: int) -> int:
        ans = np.array([self.counter(g, k)], dtype=np.int64)
        return int(self._apply_errors(ans)[0])

    @property
    def default_counting(self) -> bool:
        return self.counter is cliques.brute_force_count

    @property
    def default_parity(self) -> bool:
        return self.counter is cliques.parity_count

    def record_batch(self, answers: np.ndarray) -> np.ndarray:
        """Account a batch of raw answers from a vectorized counter path and
        apply the error model; semantically one oracle call per entry."""
        return self._apply_errors(np.asarray(answers, dtype=np.int64))

    def count_batch_adj(self, adj: np.ndarray, k: int) -> np.ndarray:
        """Counts for a batch of graphs given as a (M, v, v) 0/1 adjacency
        tensor (s = 2 only)."""
        if self.default_counting or self.default_parity:
            ans = _adj_clique_counts(adj, k, parity=self.default_parity)
        else:
            ans = np.array([self.counter(_graph_from_adj(a), k) for a in adj],
                           dtype=np.int64)
        return self._apply_errors(ans)

    def count_batch_graphs(self, graphs, k: int) -> np.ndarray:
        ans = np.array([self.counter(g, k) for g in graphs], dtype=np.int64)
        return self._apply_errors(ans)


def _graph_from_adj(a: np.ndarray) -> Hypergraph:
    u, v = np.nonzero(np.triu(a, 1))
    return Hypergraph(a.shape[0], 2, list(zip(u.tolist(), v.tolist())))


# ---------------------------------------------------------------------------
# the bit-plane clique kernel
# ---------------------------------------------------------------------------

# bytes of k-set bit-planes combined per kernel step (unpacked bytes when
# counting), so the working set stays at a few MB for any table size
_KERNEL_BUDGET = 1 << 22


def _subsets_array(nv: int, r: int) -> np.ndarray:
    """The r-subsets of range(nv) in lexicographic order, one per row."""
    rows = comb(nv, r)
    flat = np.fromiter(chain.from_iterable(combinations(range(nv), r)),
                       dtype=np.int64, count=rows * r)
    return flat.reshape(rows, r)


def _colex_rank(sets: np.ndarray) -> np.ndarray:
    """Position of each sorted row among the sets of its size in
    colexicographic order: sum_i C(v_i, i + 1)."""
    top = int(sets.max()) + 1 if sets.size else 0
    rank = np.zeros(len(sets), dtype=np.int64)
    for i in range(sets.shape[1]):
        binom = np.array([comb(v, i + 1) for v in range(top)], dtype=np.int64)
        rank += binom[sets[:, i]]
    return rank


def _position_by_colex(sets: np.ndarray) -> np.ndarray:
    """For rows that are all the r-subsets of a range, in any order: the row
    position of each colex rank."""
    pos = np.empty(len(sets), dtype=np.int64)
    pos[_colex_rank(sets)] = np.arange(len(sets))
    return pos


def _kset_slots(nv: int, k: int, s: int, slot_of_colex: np.ndarray):
    """Every k-subset of range(nv), lexicographic, and for each the slots of
    its C(k, s) s-subsets; `slot_of_colex` maps an s-set's colex rank to its
    slot."""
    ksets = _subsets_array(nv, k)
    cols = [slot_of_colex[_colex_rank(ksets[:, list(pos)])]
            for pos in combinations(range(k), s)]
    table = (np.stack(cols, axis=1) if cols
             else np.empty((len(ksets), 0), dtype=np.int64))
    return ksets, table


def _clique_planes(planes: np.ndarray, table: np.ndarray, starts: np.ndarray,
                   m: int, parity: bool) -> np.ndarray:
    """Per-segment clique counts (or parities) of a batch of m rows given as
    bit-planes.

    planes: (slots, ceil(m/8)) uint8, np.packbits of each slot's column, so
    bit r of a plane is that slot in row r.  table: (K, D) slots of each
    k-set; a k-set is a clique of row r when bit r is set in all D of its
    planes (in every row when D = 0).  starts: segment starts into table.
    Returns a (len(starts), m) int64 array.
    """
    n_sets, d = table.shape
    nbytes = planes.shape[1]
    if parity:
        step = max(1, _KERNEL_BUDGET // max(1, nbytes))
    else:  # unpacked bytes; at most 255 bits are summed per entry in uint8
        step = max(1, min(_KERNEL_BUDGET // max(1, 8 * nbytes), 0xFF))
    acc = np.empty((min(step, n_sets), nbytes), dtype=np.uint8)
    tmp = np.empty_like(acc)
    out = np.zeros((len(starts), m), dtype=np.int64)
    ends = np.append(starts[1:], n_sets)
    for seg, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        odd = np.zeros(nbytes, dtype=np.uint8)
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            cur, scratch = acc[:b - a], tmp[:b - a]
            # table entries are valid slots; mode="clip" spares the
            # buffered copy that out= costs under the default mode="raise"
            if d == 0:
                cur.fill(0xFF)
            else:
                np.take(planes, table[a:b, 0], axis=0, out=cur, mode="clip")
            for j in range(1, d):
                np.take(planes, table[a:b, j], axis=0, out=scratch, mode="clip")
                cur &= scratch
            if parity:
                odd ^= np.bitwise_xor.reduce(cur, axis=0)
            else:
                out[seg] += np.add.reduce(
                    np.unpackbits(cur, axis=1, count=m), axis=0, dtype=np.uint8)
        if parity:
            out[seg] = np.unpackbits(odd, count=m)
    return out


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """(M, S) 0/1 rows as (S, ceil(M/8)) row-contiguous bit-planes, which
    the kernel's row gathers need to run at memory speed.  Rows given as the
    transpose of a C-ordered (S, M) array, as the coloring sum writes them,
    are packed without a copy; C-ordered rows are transposed first."""
    return np.packbits(np.ascontiguousarray(rows.T), axis=1)


def _adj_clique_counts(adj: np.ndarray, k: int, parity: bool) -> np.ndarray:
    """k-clique counts (or parities) of a (M, v, v) adjacency tensor, as a
    kernel table over all k-sets of the v vertices in one segment."""
    m, v, _ = adj.shape
    pairs = _subsets_array(v, 2)
    _, table = _kset_slots(v, k, 2, _position_by_colex(pairs))
    planes = _pack_rows(adj[:, pairs[:, 0], pairs[:, 1]])
    return _clique_planes(planes, table, np.zeros(1, dtype=np.int64), m, parity)[0]


# ---------------------------------------------------------------------------
# k-partite -> general inclusion-exclusion
# ---------------------------------------------------------------------------

def _part_subsets(k: int):
    """Nonempty subsets of the k parts, by size then lexicographic order."""
    out = []
    for d in range(1, k + 1):
        out.extend(combinations(range(k), d))
    return out


def _label_inclusion_exclusion(counts_by_subset: dict, k: int):
    """Recover the count of k-cliques with k distinct labels from per-subset
    k-clique counts of the augmented hypergraph."""
    some = np.asarray(next(iter(counts_by_subset.values())), dtype=np.int64)
    levels = [np.zeros_like(some)]  # cliques spanning 0 distinct labels: none
    for d in range(k):
        total = np.zeros_like(some)
        for t in combinations(range(k), d + 1):
            total += np.asarray(counts_by_subset[t], dtype=np.int64)
        for i in range(d + 1):
            total -= comb(k - i, d + 1 - i) * levels[i]
        levels.append(total)
    return levels[k]


_MAX_BATCH = 1 << 14  # rows per vectorized counting pass
# rows per oracle batch of a counting curve: 4096-row batches run as fast as
# 16384-row ones there, with a smaller peak working set
_CURVE_CHUNK = 1 << 12


class _KPLayout:
    """Precomputed geometry for batched pipeline evaluation of one (n, k, s).

    Vertex (i, part j) is flat vertex j*n + i.  Every s-set of the n*k flat
    vertices is a slot: slots 0..N-1 are the label-respecting edges in
    EdgeIndex order, the rest are the within-part s-sets that the
    inclusion-exclusion step samples at density c.
    """

    def __init__(self, n: int, k: int, s: int):
        self.n, self.k, self.s = n, k, s
        self.index = edge_index(n, k, s)
        self.nk = n * k
        self.subsets = _part_subsets(k)
        self.subset_vertices = {
            t: np.array([j * n + i for j in t for i in range(n)])
            for t in self.subsets}
        ssets = _subsets_array(self.nk, s)
        is_edge = np.all(np.diff(ssets // n, axis=1) > 0, axis=1)
        label_pos = _position_by_colex(_subsets_array(k, s))
        edges = ssets[is_edge]
        slot = np.empty(len(ssets), dtype=np.int64)
        slot[is_edge] = (label_pos[_colex_rank(edges // n)] * n ** s
                         + (edges % n) @ (n ** np.arange(s - 1, -1, -1)))
        self.n_within = len(ssets) - len(edges)
        slot[~is_edge] = self.index.size + np.arange(self.n_within)
        self.slot_sets = np.empty_like(ssets)  # flat vertices of each slot
        self.slot_sets[slot] = ssets

    @cached_property
    def kernel(self):
        """(table, starts, members) for the bit-plane kernel.  The table has
        every k-set of the flat vertices once, as its C(k, s) slots, grouped
        into one segment per set of parts the k-set touches.  members[i, g]
        is True when segment g's part set lies inside part subset i, so a
        subset's count is the sum of its members' segment counts."""
        ksets, table = _kset_slots(self.nk, self.k, self.s,
                                   _position_by_colex(self.slot_sets))
        touched = np.bitwise_or.reduce(1 << (ksets // self.n), axis=1)
        order = np.argsort(touched, kind="stable")
        groups, starts = np.unique(touched[order], return_index=True)
        masks = np.array([sum(1 << j for j in t) for t in self.subsets])
        members = (groups[None, :] & ~masks[:, None]) == 0
        return table[order], starts, members


@lru_cache(maxsize=None)
def _kp_layout(n: int, k: int, s: int) -> _KPLayout:
    """Memoised: every reduction call on one (n, k, s) shares the layout and
    its kernel table, which cost more to build than a small trial."""
    return _KPLayout(n, k, s)


def _subset_clique_counts(bits: np.ndarray, within: np.ndarray,
                          layout: _KPLayout, parity: bool) -> np.ndarray:
    """k-clique counts (or parities) of every part subset's induced
    sub-hypergraph of the augmented rows, one row per subset: (2^k - 1, M).

    bits: (M, N) label-respecting edge indicators, packed into bit-planes
    here; within: (W,) bool, the within-part s-sets present in every row.
    A k-set with an absent within-part slot is a clique of no row, so the
    kernel runs on the k-sets whose within-part slots are all present, and
    those slots read one all-ones plane after the N edge planes.  Emptied
    segments stay in place and count 0, so `members` still lines up.
    """
    table, starts, members = layout.kernel
    n_edges = layout.index.size
    present = np.concatenate([np.ones(n_edges, dtype=bool), within])
    kept = np.flatnonzero(present[table].all(axis=1))
    edge_planes = _pack_rows(bits)
    planes = np.concatenate(
        [edge_planes, np.full((1, edge_planes.shape[1]), 0xFF, dtype=np.uint8)])
    per_group = _clique_planes(planes, np.minimum(table[kept], n_edges),
                               np.searchsorted(kept, starts), len(bits), parity)
    # a count is at most the table's length, far below 2^53, so the float64
    # product, which runs in BLAS unlike an integer one, is exact
    out = (members.astype(np.float64) @ per_group).astype(np.int64)
    return out & 1 if parity else out


def _kp_counts_batch(bits: np.ndarray, layout: _KPLayout, oracle, c: float,
                     rng, parity: bool) -> np.ndarray:
    """Counts (or parities) of label-complete k-cliques for a batch of
    k-partite bit rows, going through the oracle on every part subset.

    Default counters are answered by the bit-plane kernel; any other
    counter gets one Hypergraph per (row, subset).  The rows of a batch
    share one within-part sample of density c: every query's within-part
    s-sets are still Ber(c), and inclusion-exclusion is exact for any
    sample.
    """
    m = bits.shape[0]
    if m > _MAX_BATCH:
        return np.concatenate(
            [_kp_counts_batch(bits[lo:lo + _MAX_BATCH], layout, oracle, c, rng,
                              parity) for lo in range(0, m, _MAX_BATCH)])
    within = rng.random(layout.n_within) < c
    if oracle.default_counting or oracle.default_parity:
        raw = _subset_clique_counts(bits, within, layout, oracle.default_parity)
        counts = {t: oracle.record_batch(raw[i])
                  for i, t in enumerate(layout.subsets)}
    else:
        present = np.concatenate(
            [bits.astype(bool), np.broadcast_to(within, (m, layout.n_within))],
            axis=1)
        graphs = [Hypergraph(layout.nk, layout.s,
                             layout.slot_sets[np.nonzero(row)[0]].tolist())
                  for row in present]
        counts = {t: oracle.count_batch_graphs(
                      [g.induced(layout.subset_vertices[t]) for g in graphs],
                      layout.k)
                  for t in layout.subsets}
    result = np.asarray(_label_inclusion_exclusion(counts, layout.k), dtype=np.int64)
    return result & 1 if parity else result


def _kpartite_to_general(g: KPartiteHypergraph, oracle: AverageCaseOracle,
                         c: float, rng, parity: bool) -> int:
    layout = _kp_layout(g.n, g.k, g.s)
    bits = g.to_bits(layout.index)[None, :].astype(np.uint8)
    return int(_kp_counts_batch(bits, layout, oracle, c, as_rng(rng), parity)[0])


def kpartite_to_general_count(g: KPartiteHypergraph, oracle: AverageCaseOracle,
                              c: float, rng=None) -> int:
    """Count the label-complete k-cliques of a k-partite hypergraph using an
    oracle for plain counting: augment with within-part edges at density c,
    query every nonempty part subset's induced subhypergraph, and peel the
    label spectrum by inclusion-exclusion.  Exact whenever every one of the
    2^k - 1 oracle answers is exact."""
    return _kpartite_to_general(g, oracle, c, rng, parity=False)


def kpartite_to_general_parity(g: KPartiteHypergraph, oracle: AverageCaseOracle,
                               c: float, rng=None) -> int:
    """Parity variant of :func:`kpartite_to_general_count`."""
    return _kpartite_to_general(g, oracle, c, rng, parity=True)


# ---------------------------------------------------------------------------
# reduction parameters and reports
# ---------------------------------------------------------------------------

@dataclass
class ReductionParams:
    """Knobs of the reduction: repetitions per prime (majority voted) and
    gamma, the total variation budget of the expansions.  What is
    certified is the law of each single oracle query: its label-respecting
    edges are within gamma of independent Ber(c) bits, and its within-part
    edges are exactly Ber(c), so each query is within gamma of
    Erdos-Renyi.  The queries of one oracle batch share their within-part
    edges; a union bound over queries needs no independence between them.
    The counting pipeline certifies this per prime (`ReductionPlan.query_tv`);
    a larger gamma allows shorter expansions and so fewer oracle calls."""

    repetitions: int = 5
    gamma: float = 0.05


@dataclass
class SlowdownParams:
    upsilon_sharp: float
    upsilon_p1: float
    upsilon_p2: float


@dataclass
class ReductionReport:
    count: int
    residues: ResidueVector
    oracle_calls: int
    injected_errors: int
    succeeded: bool
    prime_bits: dict = field(default_factory=dict)
    # prime -> certified bound on the TV of each query to Erdos-Renyi
    query_tv: dict = field(default_factory=dict)
    vote_margins: dict = field(default_factory=dict)
    failed_primes: tuple = ()
    # (prime, repetition, message) of every repetition whose decode failed
    decode_failures: tuple = ()

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "primes": list(self.residues.primes),
            "residues": list(self.residues.residues),
            "oracle_calls": self.oracle_calls,
            "injected_errors": self.injected_errors,
            "succeeded": self.succeeded,
            "prime_bits": {str(p): b for p, b in self.prime_bits.items()},
            "query_tv": {str(p): tv for p, tv in self.query_tv.items()},
            "vote_margins": {str(p): m for p, m in self.vote_margins.items()},
            "failed_primes": list(self.failed_primes),
            "decode_failures": [{"prime": p, "repetition": r, "error": msg}
                                for p, r, msg in self.decode_failures],
        }


@dataclass
class ParityReport:
    parity: int
    oracle_calls: int
    injected_errors: int
    succeeded: bool
    votes: tuple = ()
    # (repetition, message) of every repetition whose decode failed
    decode_failures: tuple = ()

    def to_json(self) -> dict:
        return {
            "parity": self.parity,
            "oracle_calls": self.oracle_calls,
            "injected_errors": self.injected_errors,
            "succeeded": self.succeeded,
            "votes": list(self.votes),
            "decode_failures": [{"repetition": r, "error": msg}
                                for r, msg in self.decode_failures],
        }


def compute_slowdowns(n: int, c: float, k: int, s: int, c_const: float = 1.0) -> SlowdownParams:
    """The three slowdown / inverse error-tolerance parameters.

    upsilon_sharp = (C/(c(1-c)) * (s ln k + s lnln n) * ln n)^C(k,s)
    upsilon_p1    = (C/(c(1-c)) * s ln k * (s ln n + C(k,s) lnln C(k,s)))^C(k,s)
    upsilon_p2    = (C s ln k)^C(k,s)

    Natural logs; lnln terms are clamped at 0 when their argument drops
    below e (only relevant for degenerate k = s cases).
    """
    if c_const <= 0:
        raise ValueError("constant must be positive")
    d = comb(k, s)

    def lnln(x):
        return max(0.0, log(max(log(x), 1e-300))) if x > 1 else 0.0

    inv_c = 1.0 / (c * (1.0 - c))
    sharp = (c_const * inv_c * (s * log(k) + s * lnln(n)) * log(n)) ** d
    p1 = (c_const * inv_c * (s * log(k)) * (s * log(n) + d * lnln(d))) ** d
    p2 = (c_const * s * log(k)) ** d
    return SlowdownParams(upsilon_sharp=sharp, upsilon_p1=p1, upsilon_p2=p2)


# ---------------------------------------------------------------------------
# the reduction plan
# ---------------------------------------------------------------------------

def _fewest_call_primes(bits: dict, target: int, d: int) -> tuple:
    """The set of primes, from the keys of `bits` (prime -> expansion
    length T_p), whose product exceeds `target` and that minimises
    sum_p T_p^d; ties go to fewer primes, then to the larger product.
    Returned in increasing order.

    A set's cost depends only on how many primes it takes of each length,
    and for given counts the largest primes of each length give the largest
    product.  So the exact search runs over those counts alone, taking the
    largest primes of each length.
    """
    by_length = {}
    for p in sorted(bits, reverse=True):
        by_length.setdefault(bits[p], []).append(p)
    levels = sorted(by_length.items())
    best = None  # ((cost, size, -product), primes)

    def search(level, chosen, product, cost):
        nonlocal best
        if product > target:
            key = (cost, len(chosen), -product)
            if best is None or key < best[0]:
                best = key, chosen
            return
        # not yet past the target: any completion adds a prime, so it costs
        # more than `cost` and cannot beat `best`
        if level == len(levels) or (best is not None and cost >= best[0][0]):
            return
        t, primes = levels[level]
        for j in range(len(primes) + 1):
            more = prod(primes[:j])
            search(level + 1, chosen + primes[:j], product * more, cost + j * t ** d)
            if product * more > target:  # more primes of this length only add cost
                break

    search(0, [], 1, 0)
    return tuple(sorted(best[1]))


@dataclass(frozen=True)
class ReductionPlan:
    """What the counting and parity pipelines fix before their first oracle
    call, for one (n, k, s, c, gamma): their fields, expansion lengths,
    oracle calls per repetition and, for counting, the certified per-query
    TV.  `reduction_plan` builds and memoises it.

    Counting works mod a set of primes, each above 12D (D = C(k,s)) so that
    the curve has 12D distinct nonzero points, and with product above
    C(n,k), the largest possible count.  Among such sets it takes the one
    with the fewest oracle calls (`prime_bits`).  Parity works over
    GF(2^kappa), the smallest binary field with more than 12D elements.
    """

    n: int
    k: int
    s: int
    c: float
    gamma: float

    @property
    def d(self) -> int:
        """Label-sets, and the degree of the clique polynomial."""
        return comb(self.k, self.s)

    @property
    def n_edges(self) -> int:
        return self.d * self.n ** self.s

    @property
    def queries(self) -> int:
        """Oracle calls per evaluation at a 0/1 point: 2^k - 1 part subsets."""
        return 2 ** self.k - 1

    @cached_property
    def prime_bits(self) -> tuple:
        """((p, T_p), ...) in increasing p: the counting primes and their
        expansion lengths, minimising sum_p T_p^D.  The candidates are the
        primes in (12D, 72D], widened up to `select_primes`' largest prime
        where that is larger, so they always hold a set whose product passes
        n^k >= C(n,k).  Computed on first use, so the parity pipeline does
        not pay for it."""
        d = self.d
        top = max(72 * d, select_primes(self.n, self.k, self.s)[-1])
        bits = {p: pipeline_expansion_spec(p, self.c, self.n_edges, self.gamma).n_bits
                for p in takewhile(lambda p: p <= top, primes_greater_than(12 * d))}
        primes = _fewest_call_primes(bits, comb(self.n, self.k), d)
        return tuple((p, bits[p]) for p in primes)

    @property
    def primes(self) -> tuple:
        return tuple(p for p, _ in self.prime_bits)

    @cached_property
    def query_tv(self) -> tuple:
        """((p, bound), ...) in increasing p: for each counting prime, the
        certified bound on the TV between the law of one oracle query and
        Erdos-Renyi (`expansion.query_tv_bound`), at most gamma."""
        return tuple(
            (p, query_tv_bound(pipeline_expansion_spec(p, self.c, self.n_edges,
                                                       self.gamma), self.n_edges))
            for p in self.primes)

    @property
    def count_calls(self) -> int:
        """Oracle calls of one counting repetition when its decodes succeed:
        sum over primes of 12D * T_p^D * (2^k - 1)."""
        return sum(12 * self.d * t ** self.d * self.queries
                   for _, t in self.prime_bits)

    @property
    def kappa(self) -> int:
        return max(1, (12 * self.d - 1).bit_length())

    @property
    def mod_2_bits(self) -> int:
        """Bits per normal-basis coordinate of the parity pipeline's mod-2
        expansions (`pipeline_mod_2_bits`)."""
        return pipeline_mod_2_bits(self.c, self.n_edges, self.gamma)

    @property
    def parity_calls(self) -> int:
        """Oracle calls of one parity repetition: 12D curve points, each with
        (kappa * mod_2_bits)^D colorings by (normal-basis coordinate, mod-2
        expansion bit) pairs, each costing 2^k - 1 calls."""
        return (12 * self.d * (self.kappa * self.mod_2_bits) ** self.d
                * self.queries)


@lru_cache(maxsize=256)
def reduction_plan(n: int, k: int, s: int, c: float, gamma: float) -> ReductionPlan:
    """The memoised plan of one (n, k, s, c, gamma)."""
    return ReductionPlan(n, k, s, c, gamma)


def flip_rate_for_tolerance(n: int, k: int, s: int, c: float,
                            gamma: float = 0.05) -> float:
    """Oracle error rate 1 / (4 t^D 2^k) with t the largest per-prime
    expansion bit count used by the pipeline.  The rate rises as t falls:
    a curve point costs t^D (2^k - 1) oracle calls, so the expected number
    of errors per curve point stays below 1/4."""
    plan = reduction_plan(n, k, s, c, gamma)
    return 1.0 / (4 * max(t for _, t in plan.prime_bits) ** plan.d * 2 ** k)


def predicted_oracle_calls(n: int, k: int, s: int, c: float,
                           params: ReductionParams = None) -> int:
    """Oracle calls to_er_count will issue when no repetition aborts:
    sum over primes of R * 12D * bits^D * (2^k - 1)."""
    params = params or ReductionParams()
    return params.repetitions * reduction_plan(n, k, s, c, params.gamma).count_calls


def predicted_parity_calls(n: int, k: int, s: int, c: float,
                           params: ReductionParams = None) -> int:
    """Oracle calls to_er_parity will issue when no repetition aborts:
    R * 12D * (kappa * mod_2_bits)^D * (2^k - 1)."""
    params = params or ReductionParams()
    return params.repetitions * reduction_plan(n, k, s, c, params.gamma).parity_calls


# ---------------------------------------------------------------------------
# repetitions and votes, shared by both pipelines
# ---------------------------------------------------------------------------

def _self_reduce_votes(x: WeightedKPartiteInput, eval_at, repetitions: int, rng):
    """The decoded values of `repetitions` random self-reductions of x, and
    the (repetition, message) of every one whose decode failed."""
    votes, failures = [], []
    for rep in range(repetitions):
        try:
            votes.append(random_self_reduce(x, eval_at, rng))
        except DecodeFailure as exc:
            failures.append((rep, str(exc)))
    return votes, failures


def _majority(votes):
    """(winner, margin): most common vote and its lead over the runner-up;
    (0, 0) without votes."""
    if not votes:
        return 0, 0
    tally = {}
    for v in votes:
        tally[v] = tally.get(v, 0) + 1
    ranked = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))
    margin = ranked[0][1] - (ranked[1][1] if len(ranked) > 1 else 0)
    return ranked[0][0], margin


# ---------------------------------------------------------------------------
# the counting pipeline
# ---------------------------------------------------------------------------


def to_er_count(g: Hypergraph, k: int, oracle: AverageCaseOracle, c: float,
                params: ReductionParams = None, rng=None,
                reference=None) -> ReductionReport:
    """Count k-cliques of a worst-case hypergraph using only the oracle.

    Blow up to a k-partite instance and evaluate the clique polynomial mod
    each prime of the plan (`reduction_plan`) by random self-reduction.  The
    12D points of a curve are evaluated together by the expansion
    decomposition (`weighted_to_unweighted_batch`), whose 0/1 rows reach the
    oracle through inclusion-exclusion in shared batches.  The repeated
    per-prime residues are majority-voted and recombined by Chinese
    remaindering.  With an exact oracle the output equals the true count
    whenever every decode succeeds; a failed decode is recorded in the
    report with its prime, repetition and cause.
    """
    params = params or ReductionParams()
    rng = as_rng(rng)
    if not 0 < c < 1:
        raise ValueError("c must be in (0,1)")
    n, s = g.n, g.s
    plan = reduction_plan(n, k, s, c, params.gamma)
    layout = _kp_layout(n, k, s)
    xbits = blow_up_k_partite(g, k).to_bits(layout.index)
    calls_before = oracle.calls
    injected_before = oracle.injected

    residues, margins, failed, failures = [], {}, [], []
    for p in plan.primes:
        ctx = PrimeFieldCtx(p)
        x = WeightedKPartiteInput(layout.index, xbits % p, ctx)

        def er_eval(rows):
            return _kp_counts_batch(rows, layout, oracle, c, rng, parity=False) % p

        def eval_at(points):
            return weighted_to_unweighted_batch(points, layout.index, ctx, c,
                                                params.gamma, er_eval, rng,
                                                _CURVE_CHUNK)

        votes, fails = _self_reduce_votes(x, eval_at, params.repetitions, rng)
        failures.extend((p, rep, msg) for rep, msg in fails)
        winner, margins[p] = _majority(votes)
        residues.append(winner)
        if not votes:
            failed.append(p)

    rv = ResidueVector(plan.primes, tuple(residues))
    count = crt_combine(rv)
    succeeded = not failed and (reference is None or count == reference)
    return ReductionReport(
        count=count, residues=rv,
        oracle_calls=oracle.calls - calls_before,
        injected_errors=oracle.injected - injected_before,
        succeeded=succeeded, prime_bits=dict(plan.prime_bits),
        query_tv=dict(plan.query_tv),
        vote_margins=margins, failed_primes=tuple(failed),
        decode_failures=tuple(failures))


# ---------------------------------------------------------------------------
# the parity pipeline
# ---------------------------------------------------------------------------

def to_er_parity(g: Hypergraph, k: int, oracle: AverageCaseOracle, c: float,
                 params: ReductionParams = None, rng=None,
                 reference=None) -> ParityReport:
    """Parity of the k-clique count of a worst-case hypergraph using a parity
    oracle on near-ER inputs.

    The polynomial is evaluated over the plan's binary extension field
    GF(2^kappa), of order above 12 C(k,s), by random self-reduction.  The
    12D points of a curve are evaluated together by one coloring sum over
    pairs of a normal-basis coordinate and a mod-2 expansion bit
    (`ext_to_base_reduce`), whose 0/1 rows reach the oracle through
    inclusion-exclusion in shared batches.  A failed decode is recorded in
    the report with its repetition and cause.
    """
    params = params or ReductionParams()
    rng = as_rng(rng)
    if not 0 < c < 1:
        raise ValueError("c must be in (0,1)")
    n, s = g.n, g.s
    plan = reduction_plan(n, k, s, c, params.gamma)
    ctx = find_normal_basis(2, plan.kappa)
    layout = _kp_layout(n, k, s)
    xbits = blow_up_k_partite(g, k).to_bits(layout.index)
    x = WeightedKPartiteInput(layout.index, xbits, ctx)
    calls_before = oracle.calls
    injected_before = oracle.injected

    def parity_eval(rows):
        return _kp_counts_batch(rows, layout, oracle, c, rng, parity=True)

    def eval_at(points):
        return ext_to_base_reduce(points, layout.index, ctx, c, params.gamma,
                                  parity_eval, rng)

    values, failures = _self_reduce_votes(x, eval_at, params.repetitions, rng)
    votes = [0 if v == 0 else 1 for v in values]
    parity = _majority(votes)[0]
    succeeded = bool(votes) and (reference is None or parity == reference)
    return ParityReport(parity=parity,
                        oracle_calls=oracle.calls - calls_before,
                        injected_errors=oracle.injected - injected_before,
                        succeeded=succeeded, votes=tuple(votes),
                        decode_failures=tuple(failures))


# ---------------------------------------------------------------------------
# decide from parity
# ---------------------------------------------------------------------------

def decide_via_parity(g: Hypergraph, k: int, parity_solver, rng=None,
                      trials_factor: int = 8) -> bool:
    """Decide k-clique existence from a parity solver.

    Evaluates the clique indicator polynomial at trials_factor * 2^k random
    0/1 points; each evaluation is the parity of the count on the induced
    subhypergraph of a uniform vertex subset.  Accepts iff any parity is odd,
    so a correct solver never yields a false accept.
    """
    rng = as_rng(rng)
    for _ in range(trials_factor * 2 ** k):
        keep = np.nonzero(rng.random(g.n) < 0.5)[0]
        if len(keep) < k:
            continue
        if parity_solver(g.induced(keep), k) & 1:
            return True
    return False
