import math
from itertools import combinations, takewhile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erclique.cliques import (brute_force_count, brute_force_count_kpartite,
                              parity_count)
from erclique.expansion import required_t_mod_2
from erclique.fields import primes_greater_than, select_primes
from erclique.hypergraph import (Hypergraph, adversarial_suite,
                                 blow_up_k_partite, sample_er,
                                 sample_er_kpartite)
from erclique.polynomial import pipeline_expansion_spec
from erclique.reduction import (AverageCaseOracle, ReductionParams,
                                ReductionPlan, compute_slowdowns,
                                decide_via_parity, flip_rate_for_tolerance,
                                kpartite_to_general_count,
                                kpartite_to_general_parity,
                                predicted_oracle_calls, predicted_parity_calls,
                                reduction_plan, to_er_count, to_er_parity)

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
    assert rep.residues.primes == (41,)
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
    assert rep.prime_bits == dict(reduction_plan(6, 3, 2, 0.5, params.gamma).prime_bits)
    assert want == predicted_oracle_calls(6, 3, 2, 0.5, params)


@pytest.mark.parametrize("c", [0.5, 0.4])
def test_to_er_parity_call_accounting(c):
    # R * 12D * kappa^D * (2^k - 1) calls, times bits2^D when c != 1/2
    g = sample_er(3, 0.5, 2, 8)
    params = ReductionParams(repetitions=1, gamma=0.5)
    oracle = AverageCaseOracle(counter=parity_count, seed=4)
    rep = to_er_parity(g, 3, oracle, c, params, np.random.default_rng(4))
    d = math.comb(3, 2)
    kappa = (12 * d - 1).bit_length()
    bits2 = 1 if c == 0.5 else required_t_mod_2(c, params.gamma / (d * 3 ** 2)) + 1
    want = params.repetitions * 12 * d * (kappa * bits2) ** d * (2 ** 3 - 1)
    assert rep.oracle_calls == oracle.calls == want
    assert want == predicted_parity_calls(3, 3, 2, c, params)


@st.composite
def small_cells(draw):
    """(n, k, s, c, pipeline) with few predicted calls per repetition."""
    s, k = draw(st.sampled_from([(2, 2), (3, 3), (2, 3)]))
    return (draw(st.integers(k, k + 1)), k, s, draw(st.sampled_from([0.5, 0.4])),
            draw(st.sampled_from(["count", "parity"])))


@settings(max_examples=20, deadline=None)
@given(small_cells(), st.integers(0, 2 ** 32 - 1))
def test_predicted_calls_equal_oracle_calls(cell, seed):
    n, k, s, c, pipeline = cell
    params = ReductionParams(repetitions=1, gamma=0.5)
    predict = predicted_oracle_calls if pipeline == "count" else predicted_parity_calls
    want = predict(n, k, s, c, params)
    assume(want <= 2_000_000)
    g = sample_er(n, 0.5, s, seed)
    rng = np.random.default_rng(seed)
    if pipeline == "count":
        oracle = AverageCaseOracle(seed=seed)
        rep = to_er_count(g, k, oracle, c, params, rng)
        assert rep.count == brute_force_count(g, k)
    else:
        oracle = AverageCaseOracle(counter=parity_count, seed=seed)
        rep = to_er_parity(g, k, oracle, c, params, rng)
        assert rep.parity == parity_count(g, k)
    assert rep.oracle_calls == oracle.calls == want


def exhaustive_primes(n, k, s, c, gamma):
    """The plan's prime set by brute force: every subset of the plan's
    candidates small enough to be minimal, ranked by (sum_p T_p^D, size,
    -product)."""
    d = math.comb(k, s)
    top = max(72 * d, select_primes(n, k, s)[-1])
    cands = list(takewhile(lambda p: p <= top, primes_greater_than(12 * d)))
    bits = {p: pipeline_expansion_spec(p, c, d * n ** s, gamma).n_bits for p in cands}
    target = math.comb(n, k)
    # any `size` candidates multiply past the target, so a larger set has a
    # cheaper subset that does too
    size = next(j for j in range(1, len(cands) + 1) if cands[0] ** j > target)
    ranked = [(sum(bits[p] ** d for p in subset), r, -math.prod(subset), subset)
              for r in range(1, size + 1) for subset in combinations(cands, r)
              if math.prod(subset) > target]
    return min(ranked)[-1]


WORKLOAD_CELLS = [(6, 3, 2, 0.5), (5, 3, 3, 0.5), (7, 3, 2, 0.5), (6, 3, 2, 0.4)]
AC1_CELLS = [(n, k, s, c) for s, k in [(2, 3), (2, 4), (3, 4)]
             for n in (6, 8) for c in (0.3, 0.5)]


@pytest.mark.parametrize("n,k,s,c", WORKLOAD_CELLS + AC1_CELLS)
def test_plan_primes_match_exhaustive_search(n, k, s, c):
    plan = ReductionPlan(n, k, s, c, 0.2)
    d = math.comb(k, s)
    assert all(p > 12 * d for p in plan.primes)
    assert math.prod(plan.primes) > math.comb(n, k)
    assert plan.primes == exhaustive_primes(n, k, s, c, 0.2)
    assert ReductionPlan(n, k, s, c, 0.2).prime_bits == plan.prime_bits


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
    # every failed decode is recorded with its prime, repetition and cause
    assert rep.failed_primes == rep.residues.primes
    assert [(p, r) for p, r, _ in rep.decode_failures] == \
        [(p, 0) for p in rep.failed_primes]
    assert all(msg for _, _, msg in rep.decode_failures)
    assert rep.to_json()["decode_failures"] == [
        {"prime": p, "repetition": r, "error": msg}
        for p, r, msg in rep.decode_failures]
    po = AverageCaseOracle(counter=parity_count, error="flip", rate=0.5, seed=6)
    prep = to_er_parity(g, 3, po, 0.5, ReductionParams(repetitions=2, gamma=0.2),
                        np.random.default_rng(6), reference=0)
    assert not prep.succeeded and prep.votes == ()
    assert [r for r, _ in prep.decode_failures] == [0, 1]
    assert prep.to_json()["decode_failures"] == [
        {"repetition": r, "error": msg} for r, msg in prep.decode_failures]


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
    bits = max(t for _, t in reduction_plan(6, 3, 2, 0.5, 0.2).prime_bits)
    assert rate == 1.0 / (4 * bits ** 3 * 2 ** 3)


def test_oracle_rejects_unknown_model():
    with pytest.raises(ValueError):
        AverageCaseOracle(error="weird")
