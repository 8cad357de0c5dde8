"""Acceptance suite.  Each test prints one PASS/FAIL line (visible with
pytest -s or in failure output) and pins its tolerances inline.

Criterion 1 includes a hard wall-clock budget; the test enforces it by
projecting each parameter combination's oracle-call count (a closed-form
function of the selected primes and expansion lengths) against the call
throughput measured on the combination's own (s, k, n), refusing to start
combinations that cannot finish inside the budget, and failing if anything
had to be skipped.
"""

import math
import time

import numpy as np

from erclique.cliques import (CutoffExceeded, brute_force_count,
                              brute_force_count_kpartite, greedy_random_sampling,
                              it_gen_cliques, matrix_mult_count, parity_count,
                              required_iterations, highprob_cutoffs)
from erclique.expansion import (ExpansionSpec, closed_form_tv_unbiased,
                                exact_distribution, required_t_mod_p,
                                tv_to_uniform)
from erclique.fields import PrimeFieldCtx, berlekamp_welch_decode
from erclique.hypergraph import (Hypergraph, adversarial_suite, sample_er,
                                 sample_er_kpartite)
from erclique.polynomial import weighted_to_unweighted_batch
from erclique.reduction import (AverageCaseOracle, ReductionParams, _KPLayout,
                                _kp_counts_batch, decide_via_parity,
                                flip_rate_for_tolerance,
                                kpartite_to_general_count,
                                predicted_oracle_calls, reduction_plan,
                                to_er_count, to_er_parity)
from erclique.util import trial_rng


def report(name: str, ok: bool, detail: str = "") -> str:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else "")
    print(line)
    return line


class _FirstBatchDone(Exception):
    """Ends a calibration after its first oracle batch."""


def calibration_point(s, k, n, c, params, rng):
    """Oracle calls per second of the first oracle batch of one curve point
    of the cell: the expansion decomposition of a random point mod the
    first prime of the cell's plan, so at the expansion length its trials
    use, its first batch of colored rows answered through the oracle as
    to_er_count answers it.  A batch holds at most 2^14 rows, so the
    calibration costs at most 2^14 * (2^k - 1) calls, even where a whole
    curve point costs ~1e8."""
    p = reduction_plan(n, k, s, c, params.gamma).primes[0]
    field = PrimeFieldCtx(p)
    layout = _KPLayout(n, k, s)
    oracle = AverageCaseOracle()
    point = field.rand_vec(layout.index.size, rng)[None]

    def er_eval(rows):
        _kp_counts_batch(rows.astype(np.uint8), layout, oracle, c, rng,
                         parity=False)
        raise _FirstBatchDone

    t1 = time.monotonic()
    try:
        weighted_to_unweighted_batch(point, layout.index, field, c,
                                     params.gamma, er_eval, rng)
    except _FirstBatchDone:
        pass
    return oracle.calls / (time.monotonic() - t1)


def test_ac1_end_to_end_counting():
    """Exact-oracle reduction equals brute force across the parameter grid,
    success rate >= 0.95 per combination, all inside a 600 s budget."""
    budget = 600.0
    n_inputs = 20
    params = ReductionParams(repetitions=1, gamma=0.2)
    grid = [(s, k, n, c)
            for (s, k) in [(2, 3), (2, 4), (3, 4)]
            for n in (6, 8) for c in (0.3, 0.5)]
    grid.sort(key=lambda g: predicted_oracle_calls(g[2], g[1], g[0], g[3], params))

    t0 = time.monotonic()
    # calls/s per (s, k, n): from the trials run on it, or from one
    # calibration point until a trial has run; the kernel's cost per call
    # differs several-fold between (s, k) paths, and about 4x between
    # n = 6 and n = 8 at (3, 4)
    speed, done = {}, {}
    mismatches, rates, skipped = [], {}, []
    for combo_id, (s, k, n, c) in enumerate(grid):
        per_trial = predicted_oracle_calls(n, k, s, c, params)
        if (s, k, n) not in speed:
            speed[(s, k, n)] = calibration_point(s, k, n, c, params,
                                                 trial_rng(1500, combo_id))
        projected = n_inputs * per_trial / speed[(s, k, n)]
        if time.monotonic() - t0 + projected > budget:
            skipped.append((s, k, n, c, per_trial, projected))
            continue
        calls_secs = done.setdefault((s, k, n), [0, 0.0])
        successes = 0
        for i, g in enumerate(adversarial_suite(n, s, k, n_inputs,
                                                trial_rng(1000, combo_id))):
            ref = brute_force_count(g, k)
            oracle = AverageCaseOracle(seed=i)
            t1 = time.monotonic()
            rep = to_er_count(g, k, oracle, c, params, trial_rng(i, 0),
                              reference=ref)
            calls_secs[0] += rep.oracle_calls
            calls_secs[1] += time.monotonic() - t1
            if rep.succeeded:
                successes += 1
                if rep.count != ref:
                    mismatches.append((s, k, n, c, i, rep.count, ref))
        rate = successes / n_inputs
        rates[(s, k, n, c)] = rate
        speed[(s, k, n)] = calls_secs[0] / calls_secs[1]

    elapsed = time.monotonic() - t0
    agree_ok = not mismatches
    rate_ok = all(r >= 0.95 for r in rates.values())
    complete_ok = not skipped and elapsed < budget
    detail = (f"{len(rates)}/{len(grid)} combos in {elapsed:.0f}s, "
              f"success rates {sorted(set(rates.values()))}; "
              f"skipped {[(s, k, n, c) for s, k, n, c, *_ in skipped]}")
    report("AC1", agree_ok and rate_ok and complete_ok, detail)
    assert agree_ok, f"successful trials disagreed with brute force: {mismatches}"
    assert rate_ok, f"success rate below 0.95: {rates}"
    assert complete_ok, (
        "criterion runtime bound is not attainable: the per-trial oracle-call "
        "count sum_p 12*C(k,s)*bits_p^C(k,s)*(2^k-1) is structural, and at the "
        "throughput measured per (s,k,n) ("
        + ", ".join(f"{skn}: {v:.2e} calls/s" for skn, v in speed.items())
        + f") the following combinations cannot finish inside {budget:.0f}s: "
        + "; ".join(
            f"(s={s},k={k},n={n},c={c}): {pt:.2e} calls/trial, "
            f"~{proj / 60:.0f} min for 20 trials"
            for s, k, n, c, pt, proj in skipped))


def test_ac2_error_tolerance():
    """Flip rate 1/(4 t^D 2^k) keeps success rate >= 2/3; flip rate 0.2
    collapses it below 0.5."""
    n, k, s, c = 6, 3, 2, 0.5
    params = ReductionParams(repetitions=3, gamma=0.2)
    delta = flip_rate_for_tolerance(n, k, s, c, params.gamma)
    inputs = adversarial_suite(n, s, k, 60, trial_rng(2000, 0))

    def run_arm(rate, reps):
        arm_params = ReductionParams(repetitions=reps, gamma=params.gamma)
        ok = 0
        for i, g in enumerate(inputs):
            oracle = AverageCaseOracle(error="flip", rate=rate, seed=3000 + i)
            rep = to_er_count(g, k, oracle, c, arm_params, trial_rng(100 + i, 0),
                              reference=brute_force_count(g, k))
            ok += rep.succeeded
        return ok / len(inputs)

    tolerant = run_arm(delta, 3)
    broken = run_arm(0.2, 1)
    ok = tolerant >= 2 / 3 and broken < 0.5
    report("AC2", ok, f"delta={delta:.3g}: rate {tolerant:.3f} (>=2/3); "
                      f"delta=0.2: rate {broken:.3f} (<0.5)")
    assert tolerant >= 2 / 3
    assert broken < 0.5


def test_ac3_parity_reduction():
    """Exact parity oracle reproduces the clique-count parity on both the
    c = 1/2 fast path and the c = 0.3 full path, 20 instances each."""
    n, k, s = 7, 3, 2
    results = {}
    for c, gamma in ((0.5, 0.2), (0.3, 0.5)):
        params = ReductionParams(repetitions=1, gamma=gamma)
        ok = 0
        for i in range(20):
            g = sample_er(n, 0.5, s, trial_rng(4000, i))
            ref = parity_count(g, k)
            oracle = AverageCaseOracle(counter=parity_count, seed=500 + i)
            rep = to_er_parity(g, k, oracle, c, params, trial_rng(200 + i, 0))
            ok += rep.parity == ref
        results[c] = ok
    passed = results[0.5] == 20 and results[0.3] == 20
    report("AC3", passed, f"agreement 20 required: {results}")
    assert results[0.5] == 20
    assert results[0.3] == 20


def test_ac4_expansion_tv():
    """Exact-DP TV at the constructive length is <= 0.01 on the whole grid;
    unbiased bits match the closed form to 1e-12."""
    eps = 0.01
    worst_residual = 0.0
    for p in (5, 7, 13, 31):
        for c in (0.1, 0.3, 0.5):
            t = required_t_mod_p(p, c, eps)
            tv = tv_to_uniform(exact_distribution(ExpansionSpec(p=p, c=c, t=t)))
            assert tv <= eps, (p, c, t, tv)
            if c == 0.5:
                residual = abs(tv - closed_form_tv_unbiased(p, t))
                worst_residual = max(worst_residual, residual)
                assert residual <= 1e-12, (p, t, residual)
    report("AC4", True, f"12 grid points, worst closed-form residual "
                        f"{worst_residual:.2e}")


def test_ac5_berlekamp_welch():
    """100/100 recoveries over F_131 with the maximal adversarial corruption
    count, for both degree regimes."""
    p = 131
    for D in (3, 6):
        m = 12 * D
        e = (m - 2 * D - 1) // 2
        rng = np.random.default_rng(D)
        good = 0
        for _ in range(100):
            coeffs = [int(v) for v in rng.integers(0, p, 2 * D + 1)]

            def h(t):
                acc = 0
                for cf in reversed(coeffs):
                    acc = (acc * t + cf) % p
                return acc

            pts = [[t, h(t)] for t in range(1, m + 1)]
            for i in rng.permutation(m)[:e]:
                pts[i][1] = (pts[i][1] + 1 + int(rng.integers(0, p - 1))) % p
            good += berlekamp_welch_decode([tuple(q) for q in pts], 2 * D, p) == h(0)
        assert good == 100, (D, good)
    report("AC5", True, "100/100 at D=3 (14 errors) and D=6 (29 errors)")


def test_ac6_algorithm_equivalence():
    """Greedy sampling and the iterative generator match brute force on at
    least 99/100 seeds in both regimes; the matrix method is exact 50/50."""
    greedy_hits = {}
    itgen_hits = {}
    for n, c, s, k, tag in ((20, 0.4, 2, 3, "graph"), (15, 0.5, 3, 4, "hyper")):
        t = required_iterations(n, c, k, s, 0.5)
        cutoffs = highprob_cutoffs(n, c, k, s)
        gh = ih = 0
        for seed in range(100):
            g = sample_er(n, c, s, trial_rng(5000 + k, seed))
            ref = brute_force_count(g, k)
            gh += len(greedy_random_sampling(g, k, t, trial_rng(6000 + k, seed))) == ref
            try:
                ih += len(it_gen_cliques(g, k, cutoffs)) == ref
            except CutoffExceeded:
                pass
        greedy_hits[tag] = gh
        itgen_hits[tag] = ih
    mm_hits = {}
    for k in (3, 4, 5):
        hits = 0
        for seed in range(50):
            g = sample_er(20, 0.5, 2, trial_rng(7000 + k, seed))
            hits += matrix_mult_count(g, k) == brute_force_count(g, k)
        mm_hits[k] = hits
    ok = (all(v >= 99 for v in greedy_hits.values())
          and all(v >= 99 for v in itgen_hits.values())
          and all(v == 50 for v in mm_hits.values()))
    report("AC6", ok, f"greedy {greedy_hits}, itgen {itgen_hits}, matmul {mm_hits}")
    assert all(v >= 99 for v in greedy_hits.values()), greedy_hits
    assert all(v >= 99 for v in itgen_hits.values()), itgen_hits
    assert all(v == 50 for v in mm_hits.values()), mm_hits


def test_ac7_expectation_formula():
    """Monte-Carlo mean triangle count of G(30, 0.5, 2) within 3 standard
    errors of C(30,3) * 0.5^3 = 507.5."""
    counts = [brute_force_count(sample_er(30, 0.5, 2, trial_rng(8000, i)), 3)
              for i in range(500)]
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(500)
    ok = abs(mean - 507.5) <= 3 * se
    report("AC7", ok, f"mean {mean:.2f}, target 507.5, 3se {3 * se:.2f}")
    assert ok


def test_ac8_inclusion_exclusion():
    """The label inclusion-exclusion recursion with an exact oracle equals
    direct label-distinct counting, 50 samples per shape."""
    for n, k, s in ((2, 3, 2), (2, 4, 3)):
        for seed in range(50):
            g = sample_er_kpartite(n, k, 0.5, s, trial_rng(9000 + k, seed))
            oracle = AverageCaseOracle(seed=seed)
            got = kpartite_to_general_count(g, oracle, 0.5,
                                            trial_rng(9100 + k, seed))
            assert got == brute_force_count_kpartite(g), (n, k, s, seed)
    report("AC8", True, "exact agreement on 100 k-partite samples")


def test_ac9_decide_via_parity():
    """Planted cliques are detected at rate >= 0.99; bipartite (hence
    K4-free) inputs are never accepted."""
    detected = 0
    for i in range(200):
        rng = trial_rng(10_000, i)
        extra = sample_er(10, 0.2, 2, rng)
        planted = Hypergraph(10, 2, set(extra.edges)
                             | {(a, b) for a in range(4) for b in range(a + 1, 4)})
        detected += decide_via_parity(planted, 4, parity_count, rng)
    false_accepts = 0
    for i in range(200):
        rng = trial_rng(11_000, i)
        left = rng.random((5, 5)) < 0.6
        edges = [(u, 5 + v) for u in range(5) for v in range(5) if left[u, v]]
        bipartite = Hypergraph(10, 2, edges)
        assert brute_force_count(bipartite, 4) == 0
        false_accepts += decide_via_parity(bipartite, 4, parity_count, rng)
    ok = detected >= 198 and false_accepts == 0
    report("AC9", ok, f"detected {detected}/200 (>=198), "
                      f"false accepts {false_accepts}/200 (=0)")
    assert detected >= 0.99 * 200
    assert false_accepts == 0
