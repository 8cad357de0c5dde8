"""s-uniform hypergraphs, Erdos-Renyi samplers, the k-partite blow-up, and
the text file formats.

Vertices are 0-based in memory and 1-based in files.  A hyperedge is a
strictly increasing tuple of vertex labels.  K-partite vertices are pairs
``(index, part)``; the part is the vertex label used by the pipeline.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .util import as_rng


class Hypergraph:
    """Immutable s-uniform hypergraph on vertices 0..n-1."""

    __slots__ = ("n", "s", "edges", "_adj")

    def __init__(self, n: int, s: int, edges):
        if s < 2:
            raise ValueError("uniformity s must be >= 2")
        canon = set()
        for e in edges:
            e = tuple(sorted(int(v) for v in e))
            if len(e) != s or len(set(e)) != s:
                raise ValueError(f"edge {e} is not an s-set for s={s}")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"edge {e} out of range for n={n}")
            canon.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "edges", frozenset(canon))
        adj = {}
        for e in canon:
            for i in range(s):
                rest = e[:i] + e[i + 1:]
                adj.setdefault(rest, set()).add(e[i])
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, *_):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other):
        return (isinstance(other, Hypergraph) and self.n == other.n
                and self.s == other.s and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.s, self.edges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, s={self.s}, m={len(self.edges)})"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, e) -> bool:
        return tuple(sorted(e)) in self.edges

    def neighbors(self, subset) -> set:
        """Vertices v with subset+{v} an edge; subset has s-1 vertices."""
        return set(self._adj.get(tuple(sorted(subset)), ()))

    def induced(self, vertices) -> "Hypergraph":
        """Induced subhypergraph, relabeled to 0..len(vertices)-1 in sorted order."""
        verts = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(verts)}
        keep = [tuple(pos[v] for v in e) for e in self.edges
                if all(v in pos for v in e)]
        return Hypergraph(len(verts), self.s, keep)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (graphs only, s=2)."""
        if self.s != 2:
            raise ValueError("adjacency_matrix requires s=2")
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    @classmethod
    def complete(cls, n: int, s: int) -> "Hypergraph":
        return cls(n, s, combinations(range(n), s))

    @classmethod
    def empty(cls, n: int, s: int) -> "Hypergraph":
        return cls(n, s, ())


def common_neighbors(g: Hypergraph, subset) -> set:
    """{v not in subset : B + {v} is an edge for every (s-1)-subset B}."""
    a = sorted(set(subset))
    if len(a) < g.s - 1:
        raise ValueError(f"need at least s-1={g.s - 1} vertices")
    result = None
    for b in combinations(a, g.s - 1):
        nb = g.neighbors(b)
        result = set(nb) if result is None else result & nb
        if not result:
            return set()
    return result - set(a)


def sample_er(n: int, c: float, s: int, rng=None) -> Hypergraph:
    """G(n, c, s): each of the C(n,s) hyperedges present independently w.p. c."""
    if not 0 < c < 1:
        raise ValueError("edge probability must be in (0,1)")
    if n < s:
        raise ValueError("need n >= s")
    rng = as_rng(rng)
    pool = list(combinations(range(n), s))
    mask = rng.random(len(pool)) < c
    return Hypergraph(n, s, [e for e, m in zip(pool, mask) if m])


# ---------------------------------------------------------------------------
# k-partite hypergraphs
# ---------------------------------------------------------------------------

def _canon_kedge(e):
    """Canonical form of a label-distinct edge: sorted by part."""
    e = tuple(sorted(((int(i), int(j)) for i, j in e), key=lambda v: v[1]))
    parts = [j for _, j in e]
    if len(set(parts)) != len(parts):
        raise ValueError(f"edge {e} does not have distinct part labels")
    return e


class KPartiteHypergraph:
    """Immutable s-uniform hypergraph on [n] x [k] with label-distinct edges.

    A vertex is a pair (index, part) with index in 0..n-1, part in 0..k-1;
    the part is the vertex label.
    """

    __slots__ = ("n", "k", "s", "edges")

    def __init__(self, n: int, k: int, s: int, edges):
        if k < s:
            raise ValueError("need k >= s")
        canon = set()
        for e in edges:
            e = _canon_kedge(e)
            if len(e) != s:
                raise ValueError(f"edge {e} is not an s-set")
            for i, j in e:
                if not (0 <= i < n and 0 <= j < k):
                    raise ValueError(f"vertex {(i, j)} out of range")
            canon.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "edges", frozenset(canon))

    def __setattr__(self, *_):
        raise AttributeError("KPartiteHypergraph is immutable")

    def __eq__(self, other):
        return (isinstance(other, KPartiteHypergraph) and self.n == other.n
                and self.k == other.k and self.s == other.s
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.k, self.s, self.edges))

    def __repr__(self):
        return (f"KPartiteHypergraph(n={self.n}, k={self.k}, s={self.s}, "
                f"m={len(self.edges)})")

    def flatten(self) -> Hypergraph:
        """Same hypergraph on flat vertex ids part*n + index."""
        n = self.n
        return Hypergraph(n * self.k, self.s,
                          [tuple(j * n + i for i, j in e) for e in self.edges])

    def to_bits(self, index: "EdgeIndex") -> np.ndarray:
        """0/1 indicator vector of length N under the canonical edge order."""
        bits = np.zeros(index.size, dtype=np.int64)
        for e in self.edges:
            bits[index.index_of(e)] = 1
        return bits

    @classmethod
    def from_bits(cls, index: "EdgeIndex", bits) -> "KPartiteHypergraph":
        edges = [index.edge_at(i) for i, b in enumerate(bits) if b]
        return cls(index.n, index.k, index.s, edges)


class EdgeIndex:
    """Canonical bijection between [N] and label-respecting s-subsets of
    [n] x [k], N = C(k,s) * n^s.

    Order: label-sets S in lexicographic order; within a label-set, the
    per-part index tuples in lexicographic order.
    """

    def __init__(self, n: int, k: int, s: int):
        self.n, self.k, self.s = n, k, s
        self.label_sets = list(combinations(range(k), s))
        self._lset_rank = {S: r for r, S in enumerate(self.label_sets)}
        self.size = comb(k, s) * n ** s

    def index_of(self, edge) -> int:
        e = _canon_kedge(edge)
        parts = tuple(j for _, j in e)
        rank = self._lset_rank[parts]
        offset = 0
        for i, _ in e:
            offset = offset * self.n + i
        return rank * self.n ** self.s + offset

    def edge_at(self, m: int):
        rank, offset = divmod(m, self.n ** self.s)
        parts = self.label_sets[rank]
        idx = []
        for _ in range(self.s):
            offset, i = divmod(offset, self.n)
            idx.append(i)
        idx.reverse()
        return tuple(zip(idx, parts))


@lru_cache(maxsize=None)
def edge_index(n: int, k: int, s: int) -> EdgeIndex:
    return EdgeIndex(n, k, s)


def sample_er_kpartite(n: int, k: int, c: float, s: int, rng=None) -> KPartiteHypergraph:
    """G(nk, c, s, k): each label-distinct edge present independently w.p. c."""
    if not 0 < c < 1:
        raise ValueError("edge probability must be in (0,1)")
    rng = as_rng(rng)
    idx = edge_index(n, k, s)
    mask = rng.random(idx.size) < c
    return KPartiteHypergraph.from_bits(idx, mask)


def blow_up_k_partite(g: Hypergraph, k: int) -> KPartiteHypergraph:
    """Worst-case blow-up with identical k-clique count.

    Every edge {v_1 < ... < v_s} is copied once per increasing label tuple
    t_1 < ... < t_s as {(v_1,t_1), ..., (v_s,t_s)}.
    """
    if k < g.s:
        raise ValueError("need k >= s")
    edges = []
    for e in sorted(g.edges):
        for parts in combinations(range(k), g.s):
            edges.append(tuple(zip(e, parts)))
    return KPartiteHypergraph(g.n, k, g.s, edges)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

class FormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def write_hypergraph(g: Hypergraph, path):
    """`s n m` header, then one sorted edge per line, 1-based ids, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{g.s} {g.n} {len(g.edges)}\n")
        for e in sorted(g.edges):
            fh.write(" ".join(str(v + 1) for v in e) + "\n")


def read_hypergraph(path) -> Hypergraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(1, f"expected 's n m', got {lines[0]!r}")
    try:
        s, n, m = (int(v) for v in head)
    except ValueError:
        raise FormatError(1, f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(len(lines), f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != s:
            raise FormatError(no, f"expected {s} vertex ids, got {len(fields)}")
        try:
            e = tuple(int(v) - 1 for v in fields)
        except ValueError:
            raise FormatError(no, f"non-integer vertex id in {line!r}") from None
        if any(not 0 <= v < n for v in e):
            raise FormatError(no, f"vertex id out of range 1..{n}")
        if list(e) != sorted(set(e)):
            raise FormatError(no, "vertex ids must be strictly increasing")
        edges.append(e)
    return Hypergraph(n, s, edges)


def write_kpartite(g: KPartiteHypergraph, path):
    """`s n k m` header, then edges as `part:index` tokens, 1-based."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{g.s} {g.n} {g.k} {len(g.edges)}\n")
        for e in sorted(g.edges):
            fh.write(" ".join(f"{j + 1}:{i + 1}" for i, j in e) + "\n")


def read_kpartite(path) -> KPartiteHypergraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError(1, f"expected 's n k m', got {lines[0]!r}")
    try:
        s, n, k, m = (int(v) for v in head)
    except ValueError:
        raise FormatError(1, f"non-integer header field in {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(len(lines), f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if len(fields) != s:
            raise FormatError(no, f"expected {s} vertices, got {len(fields)}")
        edge = []
        for tok in fields:
            try:
                part, idx = tok.split(":")
                part, idx = int(part) - 1, int(idx) - 1
            except ValueError:
                raise FormatError(no, f"malformed vertex token {tok!r}") from None
            if not (0 <= idx < n and 0 <= part < k):
                raise FormatError(no, f"vertex {tok!r} out of range")
            edge.append((idx, part))
        try:
            edges.append(_canon_kedge(edge))
        except ValueError as exc:
            raise FormatError(no, str(exc)) from None
    return KPartiteHypergraph(n, k, s, edges)


# ---------------------------------------------------------------------------
# worst-case input suite
# ---------------------------------------------------------------------------

def adversarial_suite(n: int, s: int, k: int, count: int, rng=None) -> list[Hypergraph]:
    """Deterministic worst-case inputs padded with random graphs to `count`.

    The fixed prefix: complete, empty, planted single k-clique, complete minus
    a perfect matching of edges, and a star-like graph.
    """
    rng = as_rng(rng)
    fixed = [Hypergraph.complete(n, s), Hypergraph.empty(n, s)]
    fixed.append(Hypergraph(n, s, combinations(range(k), s)))  # planted clique
    full = sorted(combinations(range(n), s))
    matching = {tuple(range(i * s, (i + 1) * s)) for i in range(n // s)}
    fixed.append(Hypergraph(n, s, [e for e in full if e not in matching]))
    star = [e for e in full if 0 in e]
    fixed.append(Hypergraph(n, s, star))
    out = fixed[:count]
    while len(out) < count:
        out.append(sample_er(n, float(rng.uniform(0.2, 0.8)), s, rng))
    return out
