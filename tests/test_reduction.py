import math

import numpy as np
import pytest

from erclique.cliques import (brute_force_count, brute_force_count_kpartite,
                              parity_count)
from erclique.hypergraph import (Hypergraph, adversarial_suite,
                                 blow_up_k_partite, sample_er,
                                 sample_er_kpartite)
from erclique.reduction import (AverageCaseOracle, ReductionParams,
                                compute_slowdowns, decide_via_parity,
                                flip_rate_for_tolerance,
                                kpartite_to_general_count,
                                kpartite_to_general_parity,
                                pipeline_bit_counts, predicted_oracle_calls,
                                to_er_count, to_er_parity)

FAST = ReductionParams(repetitions=1, gamma=0.2)


def test_oracle_exact_model():
    oracle = AverageCaseOracle(seed=0)
    k5 = Hypergraph.complete(5, 2)
    assert oracle.count(k5, 3) == 10
    assert oracle.calls == 1 and oracle.injected == 0


def test_oracle_flip_model_rate():
    oracle = AverageCaseOracle(error="flip", rate=0.25, seed=1)
    g = Hypergraph.complete(5, 2)
    answers = [oracle.count(g, 3) for _ in range(2000)]
    wrong = sum(a != 10 for a in answers)
    assert all(a in (10, 11) for a in answers)
    assert abs(wrong / 2000 - 0.25) < 3 * (0.25 * 0.75 / 2000) ** 0.5
    assert oracle.injected == wrong
    assert oracle.calls == 2000


def test_oracle_call_list_model():
    oracle = AverageCaseOracle(error="calls", error_calls=[1, 3], seed=0)
    g = Hypergraph.complete(4, 2)
    got = [oracle.count(g, 3) for _ in range(5)]
    assert got == [4, 5, 4, 5, 4]


def test_oracle_batch_matches_single():
    rng = np.random.default_rng(2)
    graphs = [sample_er(8, 0.5, 2, int(s)) for s in range(30)]
    adj = np.stack([g.adjacency_matrix() for g in graphs])
    for k in (3, 4):
        oracle = AverageCaseOracle(seed=0)
        batch = oracle.count_batch_adj(adj, k)
        want = [brute_force_count(g, k) for g in graphs]
        assert batch.tolist() == want
        assert oracle.calls == 30


def test_kp2g_blowup_of_k4():
    g = blow_up_k_partite(Hypergraph.complete(4, 2), 3)
    oracle = AverageCaseOracle(seed=0)
    got = kpartite_to_general_count(g, oracle, 0.5, np.random.default_rng(0))
    assert got == 4
    assert oracle.calls == 2 ** 3 - 1


def test_kp2g_smallest_case():
    # k = 2, s = 2: the recursion reduces to counting label-distinct edges
    for seed in range(20):
        g = sample_er_kpartite(2, 2, 0.5, 2, seed)
        oracle = AverageCaseOracle(seed=seed)
        got = kpartite_to_general_count(g, oracle, 0.5, np.random.default_rng(seed))
        assert got == brute_force_count_kpartite(g)
        assert oracle.calls == 3


@pytest.mark.parametrize("n,k,s,c", [(2, 3, 2, 0.5), (2, 4, 3, 0.5),
                                     (2, 4, 3, 0.3), (3, 3, 3, 0.5)])
def test_kp2g_random(n, k, s, c):
    for seed in range(50):
        g = sample_er_kpartite(n, k, c, s, seed)
        oracle = AverageCaseOracle(seed=seed)
        got = kpartite_to_general_count(g, oracle, c, np.random.default_rng(seed))
        assert got == brute_force_count_kpartite(g)


def test_kp2g_parity_random():
    for seed in range(30):
        g = sample_er_kpartite(2, 3, 0.5, 2, seed)
        oracle = AverageCaseOracle(counter=parity_count, seed=seed)
        got = kpartite_to_general_parity(g, oracle, 0.5, np.random.default_rng(seed))
        assert got == brute_force_count_kpartite(g) % 2


def test_kp2g_n8_k4_no_overflow():
    # n*k = 32 vertices: past the width of an int32 vertex mask
    for seed in range(5):
        g = sample_er_kpartite(8, 4, 0.5, 2, seed)
        want = brute_force_count_kpartite(g)
        got = kpartite_to_general_count(g, AverageCaseOracle(seed=seed), 0.5,
                                        np.random.default_rng(seed))
        assert got == want
        po = AverageCaseOracle(counter=parity_count, seed=seed)
        assert kpartite_to_general_parity(g, po, 0.5,
                                          np.random.default_rng(seed)) == want % 2


@pytest.mark.parametrize("n,k,s", [(3, 3, 2), (2, 4, 3)])
def test_custom_counter_gets_a_hypergraph_per_query(n, k, s):
    received = []

    def counter(g, kk):
        received.append(g)
        return brute_force_count(g, kk)

    for seed in range(3):
        g = sample_er_kpartite(n, k, 0.5, s, seed)
        custom = AverageCaseOracle(counter=counter, seed=seed)
        default = AverageCaseOracle(seed=seed)
        got = kpartite_to_general_count(g, custom, 0.5, np.random.default_rng(seed))
        want = kpartite_to_general_count(g, default, 0.5, np.random.default_rng(seed))
        assert got == want == brute_force_count_kpartite(g)
        assert custom.calls == default.calls == 2 ** k - 1
    assert len(received) == 3 * (2 ** k - 1)
    assert all(isinstance(h, Hypergraph) and h.s == s for h in received)


def test_kp2g_independent_of_within_part_sample():
    # the label-complete count never depends on the augmentation randomness
    g = sample_er_kpartite(2, 3, 0.5, 2, 99)
    vals = {kpartite_to_general_count(g, AverageCaseOracle(seed=s), 0.5,
                                      np.random.default_rng(s))
            for s in range(10)}
    assert len(vals) == 1


def test_to_er_count_k6():
    rep = to_er_count(Hypergraph.complete(6, 2), 3, AverageCaseOracle(seed=1),
                      0.5, FAST, np.random.default_rng(1), reference=20)
    assert rep.count == 20
    assert rep.succeeded
    assert rep.residues.primes == (37, 41)
    assert [rep.count % p for p in rep.residues.primes] == list(rep.residues.residues)


def test_to_er_count_adversarial_n8():
    rng = np.random.default_rng(7)
    graphs = adversarial_suite(8, 2, 3, 8, rng)
    for i, g in enumerate(graphs):
        ref = brute_force_count(g, 3)
        rep = to_er_count(g, 3, AverageCaseOracle(seed=i), 0.5, FAST,
                          np.random.default_rng(i), reference=ref)
        assert rep.succeeded and rep.count == ref


def test_to_er_count_deterministic():
    g = sample_er(6, 0.5, 2, 5)
    reps = [to_er_count(g, 3, AverageCaseOracle(seed=3), 0.5, FAST,
                        np.random.default_rng(3)) for _ in range(2)]
    assert reps[0] == reps[1]


def test_to_er_count_call_accounting():
    # exactly sum_p R * 12D * bits_p^D * (2^k - 1) oracle calls, no retries
    g = sample_er(6, 0.5, 2, 8)
    params = ReductionParams(repetitions=2, gamma=0.2)
    oracle = AverageCaseOracle(seed=4)
    rep = to_er_count(g, 3, oracle, 0.5, params, np.random.default_rng(4))
    d = math.comb(3, 2)
    want = sum(params.repetitions * 12 * d * b ** d * (2 ** 3 - 1)
               for b in rep.prime_bits.values())
    assert rep.oracle_calls == want == oracle.calls
    assert rep.prime_bits == pipeline_bit_counts(6, 3, 2, 0.5, params.gamma)
    assert want == predicted_oracle_calls(6, 3, 2, 0.5, params)


def test_to_er_count_majority_margin_recorded():
    g = sample_er(6, 0.5, 2, 9)
    rep = to_er_count(g, 3, AverageCaseOracle(seed=5), 0.5,
                      ReductionParams(repetitions=3, gamma=0.2),
                      np.random.default_rng(5))
    assert all(m == 3 for m in rep.vote_margins.values())


def test_to_er_count_flip_oracle_failure_observable():
    # overwhelming error rate: the report must not claim success
    g = Hypergraph.complete(6, 2)
    oracle = AverageCaseOracle(error="flip", rate=0.5, seed=6)
    rep = to_er_count(g, 3, oracle, 0.5, FAST, np.random.default_rng(6),
                      reference=20)
    assert not rep.succeeded
    assert rep.injected_errors > 0


def test_to_er_parity_k5():
    po = AverageCaseOracle(counter=parity_count, seed=0)
    rep = to_er_parity(Hypergraph.complete(5, 2), 3, po, 0.5, FAST,
                       np.random.default_rng(0))
    assert rep.parity == 0
    assert rep.succeeded


# c = 0.6: the mod-2 expansion sizes and checks its length at the bias
# bound min(c, 1 - c), so densities above 1/2 run too
@pytest.mark.parametrize("c,gamma", [(0.5, 0.2), (0.3, 0.5), (0.6, 0.5)])
def test_to_er_parity_random(c, gamma):
    params = ReductionParams(repetitions=1, gamma=gamma)
    for seed in (3, 4):
        g = sample_er(7, 0.5, 2, 100 + seed)
        po = AverageCaseOracle(counter=parity_count, seed=seed)
        rep = to_er_parity(g, 3, po, c, params, np.random.default_rng(seed))
        assert rep.parity == parity_count(g, 3)


def test_decide_via_parity_examples():
    rng = np.random.default_rng(0)
    assert not decide_via_parity(Hypergraph.empty(8, 2), 3, parity_count, rng)
    planted = Hypergraph(10, 2, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert decide_via_parity(planted, 4, parity_count, rng)
    # triangle-free graph is never accepted for k = 3
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Hypergraph(10, 2, outer + spokes + inner)
    for seed in range(50):
        assert not decide_via_parity(petersen, 3, parity_count,
                                     np.random.default_rng(seed))


def test_decide_soundness_thousand_trials():
    # an exact parity solver can never produce a false accept
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Hypergraph(10, 2, outer + spokes + inner)
    empty = Hypergraph.empty(9, 2)
    accepts = 0
    for seed in range(500):
        accepts += decide_via_parity(petersen, 3, parity_count,
                                     np.random.default_rng(seed))
        accepts += decide_via_parity(empty, 3, parity_count,
                                     np.random.default_rng(seed))
    assert accepts == 0


def test_slowdown_formulas():
    sd = compute_slowdowns(100, 0.5, 4, 2, 1.0)
    assert sd.upsilon_p2 == pytest.approx((2 * math.log(4)) ** 6)
    # monotone in k for fixed n, c, s
    ups = [compute_slowdowns(50, 0.5, k, 2, 1.0).upsilon_sharp for k in (3, 4, 5)]
    assert ups[0] < ups[1] < ups[2]
    # c-sensitivity: 1/(c(1-c)) is minimized at c = 1/2
    assert compute_slowdowns(50, 0.5, 4, 2, 1.0).upsilon_sharp < \
        compute_slowdowns(50, 0.1, 4, 2, 1.0).upsilon_sharp
    # p2 independent of n and c by construction
    assert compute_slowdowns(10, 0.1, 4, 2, 1.0).upsilon_p2 == \
        compute_slowdowns(1000, 0.9, 4, 2, 1.0).upsilon_p2
    assert all(v > 0 for v in (sd.upsilon_sharp, sd.upsilon_p1, sd.upsilon_p2))


def test_flip_rate_for_tolerance():
    rate = flip_rate_for_tolerance(6, 3, 2, 0.5, gamma=0.2)
    bits = max(pipeline_bit_counts(6, 3, 2, 0.5, 0.2).values())
    assert rate == 1.0 / (4 * bits ** 3 * 2 ** 3)


def test_oracle_rejects_unknown_model():
    with pytest.raises(ValueError):
        AverageCaseOracle(error="weird")
