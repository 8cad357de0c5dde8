"""Workloads, trial loop and metrics of the erclique benchmark.

One process, one client, closed loop: each trial starts when the previous
one has been verified.  A trial is one call of the public pipeline entry
point `reduction.to_er_count` or `reduction.to_er_parity` with an exact
`AverageCaseOracle` and `ReductionParams(repetitions=1, gamma=0.2)`, on an
input from `hypergraph.adversarial_suite`.  The workload seed reaches the
package only as those inputs and as per-trial `util.trial_rng` generators.

Importing this module does not import numpy; creating a Package does, so
the caller pins the BLAS/OpenMP thread count before that.
"""

import importlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from math import comb

import spans as spans_mod

# Inputs per run.  Trials cycle through the suite, each with its own
# generator, so a run never repeats a (input, randomness) pair.
SUITE_SIZE = 1024
# Set-up samples per untraced run (fresh package import + warm-up trial):
# at least SETUP_MIN, more while they fit in SETUP_BUDGET_S, so the median
# of a cheap set-up rests on more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 3.0
# A tail percentile needs at least this many trials beyond it.
TAIL_BEYOND = 10
# spawn keys of util.trial_rng(seed, key): 0 for the suite, 1 + i for
# measured trial i, WARMUP_KEY + j for warm-up j
WARMUP_KEY = 1 << 20


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "count" or "parity"
    s: int
    k: int
    n: int
    c: float


WORKLOADS = {w.name: w for w in (
    # packed-popcount kernel, mod-p expansion sampler and coloring gather
    Workload("count-s2k3", "count", 2, 3, 6, 0.5),
    # generic path: one Hypergraph per row, blackbox counter per subset
    Workload("count-s3k3", "count", 3, 3, 5, 0.5),
    # no expansion step: extension-field work and small parity batches
    Workload("parity-half", "parity", 2, 3, 7, 0.5),
    # mod-2 expansion and full 16384-row parity batches
    Workload("parity-biased", "parity", 2, 3, 6, 0.4),
)}

PACKAGE_MODULES = ("cliques", "expansion", "fields", "hypergraph",
                   "polynomial", "reduction", "util")


class Package:
    """The imported erclique modules, as attributes."""

    def __init__(self):
        importlib.import_module("erclique")
        for name in PACKAGE_MODULES:
            setattr(self, name, sys.modules["erclique." + name])


def fresh_package() -> Package:
    """Import erclique anew: every module is executed again, so module-level
    caches start empty.  Only the benchmark process uses this; a test
    process keeps the modules other tests already bound."""
    for name in [m for m in sys.modules if m == "erclique" or m.startswith("erclique.")]:
        del sys.modules[name]
    return Package()


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

@dataclass
class Trial:
    index: int          # suite input
    seconds: float
    answer: object = None
    reference: object = None
    calls: int = 0
    decoded: bool = False
    error: str = ""

    @property
    def verified(self) -> bool:
        return not self.error and self.decoded and self.answer == self.reference


class Workbench:
    """One workload bound to one imported package and one seed."""

    def __init__(self, pkg: Package, workload: Workload, seed: int):
        self.pkg, self.workload, self.seed = pkg, workload, seed
        w = workload
        parity = w.pipeline == "parity"
        self.params = pkg.reduction.ReductionParams(repetitions=1, gamma=0.2)
        # the oracle's counter, also the reference for its pipeline
        self.counter = pkg.cliques.parity_count if parity else pkg.cliques.brute_force_count
        self.entry = pkg.reduction.to_er_parity if parity else pkg.reduction.to_er_count
        self.suite = pkg.hypergraph.adversarial_suite(
            w.n, w.s, w.k, SUITE_SIZE, pkg.util.trial_rng(seed, 0))
        # references are computed here, outside every timed region
        self.references = [self.counter(g, w.k) for g in self.suite]

    def predicted_calls(self) -> int:
        """Oracle calls per trial when no repetition aborts.  Counting uses
        the package's `predicted_oracle_calls`; the package has no parity
        predictor, so parity uses the same closed form: R * 12D * kappa^D
        extension colorings (times bits2^D mod-2 colorings when c != 1/2),
        each costing 2^k - 1 queries."""
        w, pkg, params = self.workload, self.pkg, self.params
        if w.pipeline == "count":
            return pkg.reduction.predicted_oracle_calls(w.n, w.k, w.s, w.c, params)
        d = comb(w.k, w.s)
        kappa = max(1, (12 * d - 1).bit_length())
        rows = kappa ** d
        if w.c != 0.5:
            n_edges = d * w.n ** w.s
            bits2 = pkg.expansion.required_t_mod_2(min(w.c, 1 - w.c),
                                                   params.gamma / n_edges) + 1
            rows *= bits2 ** d
        return params.repetitions * 12 * d * rows * (2 ** w.k - 1)

    def run_trial(self, index: int, key: int, instrumentation=None) -> Trial:
        """Run one trial on suite input `index` with generator `key`, time
        the pipeline call alone and verify its answer.  Every exception is
        recorded on the trial, which then counts as a failure."""
        w = self.workload
        g = self.suite[index % len(self.suite)]
        oracle = self.pkg.reduction.AverageCaseOracle(counter=self.counter)
        rng = self.pkg.util.trial_rng(self.seed, key)
        entry = self.entry
        if instrumentation is not None:
            instrumentation.instrument_oracle(oracle)
            instrumentation.install()
            rec = instrumentation.rec
            entry = lambda *args: rec.call(spans_mod.ROOT, self.entry, args)  # noqa: E731
        trial = Trial(index, 0.0, reference=self.references[index % len(self.suite)])
        t0 = time.perf_counter()
        try:
            rep = entry(g, w.k, oracle, w.c, self.params, rng)
        except Exception as exc:  # a failure: counted, never dropped
            trial.error = "".join(traceback.format_exception_only(exc)).strip()
            trial.calls = oracle.calls
            return trial
        finally:
            trial.seconds = time.perf_counter() - t0
            if instrumentation is not None:
                instrumentation.uninstall()
        trial.answer = rep.parity if w.pipeline == "parity" else rep.count
        trial.calls = rep.oracle_calls
        trial.decoded = rep.succeeded
        return trial


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_trials(bench: Workbench, seconds=None, max_trials=None,
               instrumentation=None, min_trials: int = 1):
    """Closed loop over suite inputs 0, 1, 2, ...  Stops after `max_trials`,
    or before a trial that would end past `seconds` by the median so far.
    With instrumentation, odd trials are traced and even ones are not, so
    the tracing overhead is measured on interleaved trials; the traced
    trials' spans are in `instrumentation.rec.trials`.

    Returns (trials, loop wall seconds).
    """
    trials = []
    t_start = time.perf_counter()
    while max_trials is None or len(trials) < max_trials:
        elapsed = time.perf_counter() - t_start
        if (seconds is not None and len(trials) >= min_trials and elapsed
                + statistics.median(t.seconds for t in trials) > seconds):
            break
        i = len(trials)
        inst = instrumentation if i % 2 else None
        if inst is not None:
            inst.rec.begin(i)
        trials.append(bench.run_trial(i, 1 + i, inst))
    return trials, time.perf_counter() - t_start


def setup(workload: Workload, seed: int, min_samples: int = SETUP_MIN,
          max_samples: int = SETUP_MAX, budget: float = SETUP_BUDGET_S):
    """Set up repeatedly: import erclique afresh (numpy is already loaded)
    and run one warm-up trial on the first suite input.  Takes at least
    `min_samples`, and more, up to `max_samples`, while their total stays
    within `budget` seconds.  Generating the suite and its references is
    benchmark preparation and is not timed.
    Returns (bench, warm-up trials, set-up seconds per sample)."""
    seconds, warmups, bench = [], [], None
    # go on while one more sample, at the mean so far, stays within budget
    while len(seconds) < min_samples or (
            len(seconds) < max_samples
            and sum(seconds) * (len(seconds) + 1) / len(seconds) <= budget):
        t0 = time.perf_counter()
        pkg = fresh_package()
        imported = time.perf_counter() - t0
        bench = Workbench(pkg, workload, seed)
        t1 = time.perf_counter()
        warmups.append(bench.run_trial(0, WARMUP_KEY + len(warmups)))
        seconds.append(imported + time.perf_counter() - t1)
    return bench, warmups, seconds


def tail(values):
    """(value, percentile): the highest percentile, not below the median,
    with at least TAIL_BEYOND samples beyond it.  With fewer than
    2 * TAIL_BEYOND samples there is none, and the slowest sample (p100)
    stands in for it."""
    xs = sorted(values)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    rank = n - TAIL_BEYOND  # samples xs[rank:] lie beyond xs[rank - 1]
    return xs[rank - 1], 100.0 * rank / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
