"""Property tests for the bit-plane clique kernel and the inclusion-exclusion
step it feeds, over random small (s, k, n, c).

The reference for every kernel answer is `brute_force_count` on a
Hypergraph built independently from the same augmented rows: each row's
label-respecting edges plus the within-part sample its batch shares.

    PYTHONPATH=src python -m pytest -q tests/test_kernel_properties.py
"""

from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erclique import reduction
from erclique.cliques import brute_force_count, brute_force_count_kpartite, parity_count
from erclique.hypergraph import Hypergraph, sample_er_kpartite
from erclique.reduction import (AverageCaseOracle, _KPLayout, _kp_counts_batch,
                                _subset_clique_counts,
                                kpartite_to_general_count,
                                kpartite_to_general_parity)

SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def cells(draw):
    """(s, k, n, c) with s in {2, 3, 4} and s <= k <= s + 2, kept small
    enough for brute force."""
    s = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(s, s + 2))
    n = draw(st.integers(1, 4 if s == 2 else 3 if k <= 5 else 2))
    c = draw(st.sampled_from([0.2, 0.5, 0.8]))
    return s, k, n, c


def flat_vertex_sets(layout):
    """The label-respecting edges in EdgeIndex order and every other s-set of
    the flat vertices, derived from EdgeIndex alone."""
    n = layout.n
    edges = [tuple(sorted(j * n + i for i, j in layout.index.edge_at(m)))
             for m in range(layout.index.size)]
    within = {e for e in combinations(range(layout.nk), layout.s)
              if len({v // n for v in e}) < layout.s}
    return edges, within


@SETTINGS
@given(cell=cells(), rows=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       fill=st.sampled_from([None, False, True]))
@example(cell=(2, 4, 8, 0.5), rows=3, seed=0, fill=None)  # n*k >= 32
@example(cell=(2, 4, 2, 0.5), rows=3, seed=1, fill=False)  # no within-part slot
@example(cell=(2, 4, 2, 0.5), rows=3, seed=1, fill=True)   # every one present
@example(cell=(3, 5, 2, 0.8), rows=2, seed=2, fill=True)
def test_kernel_matches_brute_force_per_subset(cell, rows, seed, fill):
    s, k, n, c = cell
    layout = _KPLayout(n, k, s)
    edges, within_sets = flat_vertex_sets(layout)
    slots = [tuple(v) for v in layout.slot_sets.tolist()]
    assert slots[:layout.index.size] == edges
    assert set(slots[layout.index.size:]) == within_sets
    assert len(slots) == len(edges) + len(within_sets)

    rng = np.random.default_rng(seed)
    bits = (rng.random((rows, layout.index.size)) < c).astype(np.uint8)
    # one within-part sample for the whole call; `fill` pins every slot
    within = (rng.random(layout.n_within) < c if fill is None
              else np.full(layout.n_within, fill))
    counts = _subset_clique_counts(bits, within, layout, parity=False)
    parities = _subset_clique_counts(bits, within, layout, parity=True)
    assert counts.shape == parities.shape == (2 ** k - 1, rows)
    for r in range(rows):
        present = np.concatenate([bits[r].astype(bool), within])
        g = Hypergraph(layout.nk, s, [slots[i] for i in np.nonzero(present)[0]])
        for i, t in enumerate(layout.subsets):
            want = brute_force_count(g.induced(layout.subset_vertices[t]), k)
            assert counts[i, r] == want, (t, r)
            assert parities[i, r] == want % 2, (t, r)


@SETTINGS
@given(cell=cells(), seed=st.integers(0, 2 ** 32 - 1))
@example(cell=(2, 4, 8, 0.5), seed=0)  # n*k >= 32
def test_inclusion_exclusion_exact_with_call_accounting(cell, seed):
    s, k, n, c = cell
    g = sample_er_kpartite(n, k, c, s, seed)
    want = brute_force_count_kpartite(g)
    oracle = AverageCaseOracle(seed=seed)
    assert kpartite_to_general_count(g, oracle, c, seed) == want
    assert oracle.calls == 2 ** k - 1
    parity_oracle = AverageCaseOracle(counter=parity_count, seed=seed)
    assert kpartite_to_general_parity(g, parity_oracle, c, seed) == want % 2
    assert parity_oracle.calls == 2 ** k - 1


@SETTINGS
@given(cell=cells(), rows=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_exact_for_any_within_part_sample(cell, rows, seed):
    s, k, n, c = cell
    layout = _KPLayout(n, k, s)
    graphs = [sample_er_kpartite(n, k, c, s, seed + r) for r in range(rows)]
    bits = np.stack([g.to_bits(layout.index) for g in graphs]).astype(np.uint8)
    oracle = AverageCaseOracle(seed=0)
    got = _kp_counts_batch(bits, layout, oracle, c, np.random.default_rng(seed),
                           parity=False)
    assert got.tolist() == [brute_force_count_kpartite(g) for g in graphs]
    assert oracle.calls == rows * (2 ** k - 1)


def test_kernel_chunks_agree_with_one_pass(monkeypatch):
    # a tiny budget splits every segment into many AND steps
    layout = _KPLayout(3, 4, 3)
    rng = np.random.default_rng(5)
    bits = (rng.random((20, layout.index.size)) < 0.7).astype(np.uint8)
    within = rng.random(layout.n_within) < 0.7
    whole = [_subset_clique_counts(bits, within, layout, parity)
             for parity in (False, True)]
    monkeypatch.setattr(reduction, "_KERNEL_BUDGET", 8)
    for parity, want in zip((False, True), whole):
        got = _subset_clique_counts(bits, within, layout, parity)
        assert got.tolist() == want.tolist()
    assert whole[0].max() > 1  # the counts are not all trivial

