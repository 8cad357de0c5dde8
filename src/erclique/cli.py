"""Experiment runner.

Subcommands: sample, count, reduce, parity-reduce, decide, verify-expansion,
bench.  Configuration comes from an optional JSON document (--config) whose
keys are long option names with dashes replaced by underscores; explicit
flags win.  Tabular results are CSV (LF endings, fixed column order); each
reduction trial additionally emits one JSON report.

Reproducibility: the global seed expands to per-trial seeds via
SeedSequence(seed, spawn_key=(trial,)).  Identical config and seed give
byte-identical CSV unless --timings adds wall-clock columns.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import cliques, expansion, reduction
from .fields import is_prime
from .hypergraph import (FormatError, adversarial_suite, read_hypergraph,
                         sample_er, sample_er_kpartite, write_hypergraph,
                         write_kpartite)
from .util import trial_rng

OUT_DIR_ENV = "ERCLIQUE_OUT"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Validated numeric ranges shared by the subcommands."""

    n: int = None
    k: int = None
    s: int = None
    c: float = None

    def validate(self, part_sized: bool = False):
        """part_sized: n counts vertices per part, so n >= k is not required."""
        if self.c is not None and not 0 < self.c < 1:
            raise ConfigError(f"c must be in (0,1), got {self.c}")
        if self.s is not None and self.s < 2:
            raise ConfigError(f"s must be >= 2, got {self.s}")
        if self.k is not None and self.s is not None and self.k < self.s:
            raise ConfigError(f"need k >= s, got k={self.k} s={self.s}")
        if (not part_sized and self.n is not None and self.k is not None
                and self.n < self.k):
            raise ConfigError(f"need n >= k, got n={self.n} k={self.k}")
        return self


def _require_positive(args, *names):
    """Reject each named option that is set but not positive (for an
    integer option, below 1)."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not value > 0:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be positive, got {value}")


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(args, name: str, header, rows) -> int:
    """Write the header and rows to stdout (--output -) or to a file, named
    by --output or `name`, whose path is then printed.  Returns 0."""
    if args.output == "-":
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return 0
    path = os.path.join(_out_dir(args), args.output or name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    print(path)
    return 0


def _trial_inputs(args) -> list:
    """One hypergraph per trial: a file input is reused, generated inputs are
    drawn per trial (adversarial suite first when requested)."""
    _require_positive(args, "trials")
    if args.input:
        g = read_hypergraph(args.input)
        return [g] * args.trials
    cfg = ExperimentConfig(n=args.n, k=args.k, s=args.s, c=args.c).validate()
    if cfg.n is None or cfg.s is None:
        raise ConfigError("need --input or --n/--s")
    if getattr(args, "adversarial", False):
        return adversarial_suite(cfg.n, cfg.s, cfg.k or cfg.s, args.trials,
                                 trial_rng(args.seed, 0))
    c = cfg.c if cfg.c is not None else 0.5
    return [sample_er(cfg.n, c, cfg.s, trial_rng(args.seed, 10_000 + i))
            for i in range(args.trials)]


def _map_trials(args, fn, n_trials):
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            return list(pool.map(fn, range(n_trials)))
    return [fn(i) for i in range(n_trials)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args):
    cfg = ExperimentConfig(n=args.n, k=args.k, s=args.s,
                           c=args.c).validate(part_sized=args.kpartite)
    if cfg.n is None or cfg.c is None or cfg.s is None:
        raise ConfigError("sample needs --n, --c and --s")
    rng = trial_rng(args.seed, 0)
    path = os.path.join(_out_dir(args), args.output or "sample.txt")
    if args.kpartite:
        if cfg.k is None:
            raise ConfigError("--kpartite needs --k")
        write_kpartite(sample_er_kpartite(cfg.n, cfg.k, cfg.c, cfg.s, rng), path)
    else:
        write_hypergraph(sample_er(cfg.n, cfg.c, cfg.s, rng), path)
    print(path)
    return 0


COUNT_HEADER = ["trial", "algorithm", "n", "k", "s", "c", "count", "budget",
                "agree_brute", "wall_ms"]


def _run_one_count(algo, g, k, args, rng):
    budget = ""
    if algo == "brute":
        value = cliques.brute_force_count(g, k)
    elif algo == "greedy":
        if args.iterations is not None:
            t = args.iterations
        else:
            if args.c is None:
                raise ConfigError("greedy needs --c (for the iteration bound) or --iterations")
            t = cliques.required_iterations(g.n, args.c, k, g.s, args.eps)
        budget = t
        value = len(cliques.greedy_random_sampling(g, k, t, rng))
    elif algo == "itgen":
        if args.c is None:
            raise ConfigError("itgen needs --c for the cutoffs")
        cutoffs = cliques.highprob_cutoffs(g.n, args.c, k, g.s)
        if args.cutoff_scale != 1.0:
            cutoffs = {t: v * args.cutoff_scale for t, v in cutoffs.items()}
        budget = f"{min(cutoffs.values()):.6g}"
        value = len(cliques.it_gen_cliques(g, k, cutoffs))
    elif algo == "matmul":
        value = cliques.matrix_mult_count(g, k)
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    return value, budget


def cmd_count(args):
    algos = args.algo.split(",")
    inputs = _trial_inputs(args)
    k = args.k
    if k is None:
        raise ConfigError("count needs --k")
    _require_positive(args, "eps", "iterations", "cutoff_scale")

    def run(i):
        g = inputs[i]
        rows = []
        brute = cliques.brute_force_count(g, k) if args.compare_brute else None
        for algo in algos:
            t0 = time.perf_counter()
            value, budget = _run_one_count(algo, g, k, args, trial_rng(args.seed, i))
            ms = (time.perf_counter() - t0) * 1e3
            agree = "" if brute is None else str(value == brute).lower()
            rows.append([i, algo, g.n, k, g.s,
                         "" if args.c is None else args.c, value, budget,
                         agree, f"{ms:.3f}" if args.timings else ""])
        return rows

    all_rows = _map_trials(args, run, len(inputs))
    return _write_csv(args, "count.csv", COUNT_HEADER, chain.from_iterable(all_rows))


REDUCE_HEADER = ["trial", "n", "k", "s", "c", "oracle", "flip_rate", "count",
                 "reference", "succeeded", "oracle_calls", "injected_errors",
                 "wall_ms"]


def _make_oracle(args, i, parity=False):
    counter = cliques.parity_count if parity else cliques.brute_force_count
    if args.oracle == "exact":
        return reduction.AverageCaseOracle(counter=counter, seed=args.seed + 7_000 + i)
    if args.oracle == "flip":
        rate = args.flip_rate
        if rate is None:
            raise ConfigError("flip oracle needs --flip-rate (or 'auto')")
        return reduction.AverageCaseOracle(counter=counter, error="flip", rate=rate,
                                           seed=args.seed + 7_000 + i)
    raise ConfigError(f"unknown oracle {args.oracle!r}")


def cmd_reduce(args, parity=False):
    if args.k is None or args.c is None:
        raise ConfigError("reduce needs --k and --c")
    _require_positive(args, "repetitions", "gamma")
    inputs = _trial_inputs(args)
    if isinstance(args.flip_rate, str):
        if args.flip_rate == "auto":
            args.flip_rate = reduction.flip_rate_for_tolerance(
                inputs[0].n, args.k, inputs[0].s, args.c, args.gamma)
        else:
            try:
                args.flip_rate = float(args.flip_rate)
            except ValueError:
                raise ConfigError(f"--flip-rate must be a number or 'auto', "
                                  f"got {args.flip_rate!r}") from None
    if args.flip_rate is not None and not 0 <= args.flip_rate <= 1:
        raise ConfigError(f"--flip-rate must be in [0,1], got {args.flip_rate}")
    params = reduction.ReductionParams(repetitions=args.repetitions,
                                       gamma=args.gamma)
    out_dir = _out_dir(args)

    def run(i):
        g = inputs[i]
        oracle = _make_oracle(args, i, parity=parity)
        rng = trial_rng(args.seed, i)
        t0 = time.perf_counter()
        if parity:
            ref = cliques.parity_count(g, args.k)
            rep = reduction.to_er_parity(g, args.k, oracle, args.c, params, rng,
                                         reference=ref)
            value = rep.parity
        else:
            ref = cliques.brute_force_count(g, args.k)
            rep = reduction.to_er_count(g, args.k, oracle, args.c, params, rng,
                                        reference=ref)
            value = rep.count
        ms = (time.perf_counter() - t0) * 1e3
        if args.reports:
            name = f"{'parity' if parity else 'reduce'}_trial{i:04d}.json"
            with open(os.path.join(out_dir, name), "w") as jf:
                json.dump(rep.to_json(), jf, indent=2, sort_keys=True)
                jf.write("\n")
        return [i, g.n, args.k, g.s, args.c, args.oracle,
                "" if args.flip_rate is None else args.flip_rate,
                value, ref, str(rep.succeeded).lower(), rep.oracle_calls,
                rep.injected_errors, f"{ms:.3f}" if args.timings else ""]

    rows = _map_trials(args, run, len(inputs))
    n_ok = sum(r[9] == "true" for r in rows)
    summary = ["summary", "", "", "", "", "", "", "", "",
               f"{n_ok / len(rows):.4f}",
               f"{np.mean([r[10] for r in rows]):.1f}",
               f"{np.mean([r[11] for r in rows]):.1f}", ""]
    return _write_csv(args, "parity.csv" if parity else "reduce.csv",
                      REDUCE_HEADER, [*rows, summary])


DECIDE_HEADER = ["trial", "n", "k", "s", "accepted", "reference", "wall_ms"]


def cmd_decide(args):
    if args.k is None:
        raise ConfigError("decide needs --k")
    _require_positive(args, "trials_factor")
    inputs = _trial_inputs(args)

    def run(i):
        g = inputs[i]
        rng = trial_rng(args.seed, i)
        t0 = time.perf_counter()
        got = reduction.decide_via_parity(g, args.k, cliques.parity_count, rng,
                                          trials_factor=args.trials_factor)
        ms = (time.perf_counter() - t0) * 1e3
        ref = cliques.brute_force_count(g, args.k) > 0
        return [i, g.n, args.k, g.s, str(got).lower(), str(ref).lower(),
                f"{ms:.3f}" if args.timings else ""]

    return _write_csv(args, "decide.csv", DECIDE_HEADER,
                      _map_trials(args, run, len(inputs)))


VERIFY_HEADER = ["p", "c", "eps", "required_t", "dp_tv", "pass",
                 "closed_form_residual"]


def cmd_verify_expansion(args):
    triples = []
    for spec_str in args.grid.split(";"):
        parts = spec_str.split(",")
        if len(parts) != 3:
            raise ConfigError(f"grid entry {spec_str!r} is not 'p,c,eps'")
        try:
            p, c, eps = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigError(f"grid entry {spec_str!r} is not 'p,c,eps'") from None
        if p == 2 or not is_prime(p) or not eps > 0 or not 0 < c <= 0.5:
            raise ConfigError(f"invalid grid entry {spec_str!r}: need p an odd prime, "
                              "eps > 0, c in (0,0.5]")
        triples.append((p, c, eps))
    rows = []
    for p, c, eps in triples:
        t = expansion.required_t_mod_p(p, c, eps)
        spec = expansion.ExpansionSpec(p=p, c=c, t=t)
        tv = expansion.tv_to_uniform(expansion.exact_distribution(spec))
        residual = ""
        if c == 0.5:
            residual = f"{abs(tv - expansion.closed_form_tv_unbiased(p, t)):.3e}"
        rows.append([p, c, eps, t, f"{tv:.6e}", str(tv <= eps).lower(), residual])
    return _write_csv(args, "verify_expansion.csv", VERIFY_HEADER, rows)


def cmd_bench(args):
    """Wall-clock sweep of the counting algorithms on generated inputs."""
    args.compare_brute = True
    args.timings = True
    return cmd_count(args)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-dir", default=None,
                    help=f"output directory (default ${OUT_DIR_ENV} or '.')")
    sp.add_argument("--output", default=None, help="output file name, or - for stdout")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--timings", action="store_true",
                    help="fill wall-clock columns (breaks byte determinism)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--c", type=float)


def _add_trials(sp):
    sp.add_argument("--input", help="hypergraph file (overrides the generator)")
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--adversarial", action="store_true",
                    help="use the worst-case suite instead of random inputs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="erclique",
        description="Clique counting on ER hypergraphs and the worst-case "
                    "to average-case reduction, at desk scale.")
    ap.add_argument("--config", help="JSON file of option defaults; flags win")
    sub = ap.add_subparsers(dest="command", required=True)
    ap.subcommand_parsers = {}

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        ap.subcommand_parsers[name] = sp
        return sp

    sp = add_parser("sample", help="write a sampled hypergraph file")
    _add_common(sp)
    sp.add_argument("--kpartite", action="store_true")

    sp = add_parser("count", help="run counting algorithms")
    _add_common(sp)
    _add_trials(sp)
    sp.add_argument("--algo", default="brute",
                    help="comma list of brute,greedy,itgen,matmul")
    sp.add_argument("--eps", type=float, default=0.5,
                    help="epsilon in the greedy iteration bound")
    sp.add_argument("--iterations", type=int, help="explicit greedy budget")
    sp.add_argument("--cutoff-scale", type=float, default=1.0)
    sp.add_argument("--compare-brute", action="store_true")

    for name in ("reduce", "parity-reduce"):
        sp = add_parser(name, help=f"run the {name} pipeline")
        _add_common(sp)
        _add_trials(sp)
        sp.add_argument("--oracle", default="exact", choices=["exact", "flip"])
        sp.add_argument("--flip-rate", default=None,
                        help="flip probability, or 'auto' for the tolerance bound")
        sp.add_argument("--repetitions", "-R", type=int, default=5)
        sp.add_argument("--gamma", type=float, default=0.05)
        sp.add_argument("--reports", action="store_true",
                        help="write one JSON report per trial")

    sp = add_parser("decide", help="decide k-clique existence via parity")
    _add_common(sp)
    _add_trials(sp)
    sp.add_argument("--trials-factor", type=int, default=8)

    sp = add_parser("verify-expansion", help="check expansion TV bounds")
    _add_common(sp)
    sp.add_argument("--grid", required=True,
                    help="semicolon list of p,c,eps triples")

    sp = add_parser("bench", help="count with timings and brute comparison")
    _add_common(sp)
    _add_trials(sp)
    sp.add_argument("--algo", default="brute,greedy,itgen,matmul")
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--iterations", type=int)
    sp.add_argument("--cutoff-scale", type=float, default=1.0)
    return ap


COMMANDS = {
    "sample": cmd_sample,
    "count": cmd_count,
    "reduce": lambda a: cmd_reduce(a, parity=False),
    "parity-reduce": lambda a: cmd_reduce(a, parity=True),
    "decide": cmd_decide,
    "verify-expansion": cmd_verify_expansion,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    # apply config-file defaults before the real parse; flags win
    probe, _ = ap.parse_known_args(argv)
    if probe.config:
        try:
            with open(probe.config) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
        ap.set_defaults(**overrides)
        for sp in ap.subcommand_parsers.values():
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in overrides.items() if k in known})
    args = ap.parse_args(argv)
    try:
        _require_positive(args, "workers")
        return COMMANDS[args.command](args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cliques.CutoffExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
