"""Layered benchmark of erclique's counting and parity reductions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy, and the run fails without it.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 is a
separate run that interleaves untraced and traced trials and reports the
per-layer metrics (per-trial medians over the traced trials) and the
tracing overhead; its spans are written to perfbench/out/ at the end.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report.  Workloads and metrics are described in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import harness as h  # imports no numpy; the package import does
import spans as sp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# span name -> per-layer self-time metric "<name>.s"
SELF_TIME_LAYERS = (
    "reduction.oracle_eval", "reduction.harness", "polynomial.random_self_reduce",
    "polynomial.recombine", "polynomial.w2u_batch", "polynomial.ext_to_base",
    "expansion.sample_mod_p", "expansion.sample_mod_2", "expansion.min_t_for_tv",
    "fields.bw_decode", "fields.crt", "fields.select_primes", "fields.normal_basis",
    "hypergraph.blow_up", "hypergraph.build", "cliques.count")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(h.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment():
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds, lines):
    bench, warmups, setup_s = h.setup(workload, seed)
    trials, wall = h.run_trials(bench, seconds)
    times = [t.seconds for t in trials]
    tail_s, tail_pct = h.tail(times)
    every = warmups + trials
    verified = sum(t.verified for t in every)
    calls = statistics.median_low(t.calls for t in trials)
    predicted = bench.predicted_calls()
    metrics = {
        "trial_s.mean": metric(statistics.fmean(times), "s"),
        "trial_s.tail": metric(tail_s, "s"),
        "answers_per_s": metric(sum(t.verified for t in trials) / wall, "1/s"),
        "oracle_calls_per_trial": metric(calls, "count"),
        "verified_rate": metric(verified / len(every), "ratio"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(h.peak_rss_mb(), "MB"),
    }
    lines += [
        f"trials: {len(trials)} measured in {wall:.3f} s, {len(warmups)} warm-up",
        f"trial_s.p50: {statistics.median(times):.6f} s (median, not bounded: "
        "it jumps between the host's speed modes)",
        f"trial_s.tail is p{tail_pct:.1f} of {len(trials)} trials"
        + ("" if tail_pct < 100 else
           f" (fewer than {2 * h.TAIL_BEYOND}: the slowest trial)"),
        f"fail_rate: {len(every) - verified}/{len(every)} = "
        f"{(len(every) - verified) / len(every):.4f}",
        f"oracle calls per trial: {calls} (predicted {predicted})",
        "setup samples (s): " + ", ".join(f"{v:.4f}" for v in setup_s),
    ]
    return every, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer(workload, seed, seconds, lines):
    bench, warmups, _ = h.setup(workload, seed, min_samples=1, max_samples=1)
    rec = sp.Recorder()
    trials, wall = h.run_trials(bench, seconds, min_trials=2,
                                instrumentation=sp.Instrumentation(bench.pkg, rec))
    traced = rec.trials
    predicted = bench.predicted_calls()
    rows, remainders, totals = [], [], {}
    for i, spans in traced.items():
        calls = trials[i].calls
        remainders.append(sp.check_self_times(spans, trials[i].seconds))
        layers, colorings = sp.trial_layers(spans)
        for name, agg in list(layers.items()):
            totals[name] = totals.get(name, 0.0) + agg["self"]
        rsr = layers["polynomial.random_self_reduce"]
        row = {f"{name}.s": layers[name]["self"] for name in SELF_TIME_LAYERS}
        row.update({
            "reduction.trial_self.s": layers[sp.ROOT]["self"],
            "reduction.oracle_eval.calls": layers[sp.ORACLE_EVAL]["calls"],
            "reduction.oracle_eval.rows": layers[sp.ORACLE_EVAL]["rows"],
            "reduction.oracle.calls_per_s": calls / layers[sp.ORACLE_EVAL]["incl"],
            "reduction.calls_vs_predicted": calls / predicted,
            "reduction.repetitions_decoded":
                (rsr["calls"] - sum(rsr["failures"].values())) / rsr["calls"],
            "polynomial.curve_points": rec.counts[(i, "curve_points")],
            "polynomial.colorings": colorings,
            "expansion.min_t_for_tv.calls": layers["expansion.min_t_for_tv"]["calls"],
            "expansion.sampler_failures": sum(
                layers[n]["failures"]["SamplerFailure"]
                for n in ("expansion.sample_mod_p", "expansion.sample_mod_2")),
            "fields.decode_failures": layers["fields.bw_decode"]["failures"]["DecodeFailure"],
        })
        rows.append(row)
    untraced = [t.seconds for i, t in enumerate(trials) if i not in traced]
    traced_s = [trials[i].seconds for i in traced]
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if all(isinstance(v, int) for v in values):  # exact counts stay counts
            metrics[name] = metric(statistics.median_low(values), "count")
        else:
            unit = "s" if name.endswith(".s") else \
                "1/s" if name.endswith("_per_s") else "ratio"
            metrics[name] = metric(statistics.median(values), unit)
    metrics["trace.overhead"] = metric(
        statistics.median(traced_s) / statistics.median(untraced) - 1, "ratio")

    n_traced = len(traced)
    lines += [f"trials: {len(untraced)} untraced and {n_traced} traced in {wall:.3f} s",
              f"oracle calls predicted per trial: {predicted}",
              "self time per traced trial by span (mean over traced trials):"]
    total = sum(totals.values())
    for name, v in sorted(totals.items(), key=lambda kv: -kv[1]):
        if v:
            lines.append(f"  {name:32s} {v / n_traced:10.6f} s  {100 * v / total:5.1f} %")
    lines.append("largest wall time outside the root span in a traced trial: "
                 f"{max(remainders) * 1e6:.1f} us")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for spans in traced.values():
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    lines.append(f"spans written to {path.relative_to(ROOT)}")
    return warmups + trials, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    src = ROOT / "src"
    if not (src / "erclique" / "__init__.py").is_file():
        print(f"erclique source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    workload = h.WORKLOADS[args.workload]
    lines = [f"workload {workload.name}: {workload.pipeline} "
             f"(s={workload.s}, k={workload.k}, n={workload.n}, c={workload.c}), "
             f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}"]
    if args.trace:
        trials, metrics = per_layer(workload, args.seed, args.seconds, lines)
    else:
        trials, metrics = end_to_end(workload, args.seed, args.seconds, lines)
    nproc = len(os.sched_getaffinity(0))
    threads = os_threads()
    lines.append(f"env: nproc {nproc}, threads {threads}, numpy {numpy.__version__}, "
                 f"python {sys.version.split()[0]}")
    if threads > nproc:
        print(f"{threads} threads exceed nproc = {nproc}", file=sys.stderr)
        return 3
    failures = [t for t in trials if not t.verified]
    for t in failures:
        why = t.error or (f"answer {t.answer} != reference {t.reference}"
                          if t.decoded else "not every prime decoded")
        lines.append(f"FAILED trial on input {t.index}: {why}")
    for name, m in metrics.items():
        lines.append(f"  {name:36s} {m['value']!s:>22} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": len(trials),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
