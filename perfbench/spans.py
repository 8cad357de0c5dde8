"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: public names are wrapped
where the calling module binds them, the callbacks the pipeline passes
between layers are wrapped where they are handed over, and the oracle's
batch methods are wrapped on each oracle instance.  The package source is
not edited.

`cliques.brute_force_count` and `cliques.parity_count` are never wrapped:
the oracle picks its vectorised counting paths by the identity of its
counter, so a wrapper would silently reroute every query to the slow path.
The counter's busy time is instead the time spent inside the oracle's
`count_batch_*`/`count` methods outside the error model.
"""

import inspect
import time
from collections import defaultdict

ROOT = "reduction.trial"
ORACLE_EVAL = "reduction.oracle_eval"
BASE_EVAL = "reduction.base_eval"
W2U_BATCH = "polynomial.w2u_batch"
# layers that fan one input point out into colored rows; colorings per call
# are the rows their callback children received divided by the points in
COLORING_LAYERS = ("polynomial.recombine", "polynomial.ext_to_base", W2U_BATCH)

# span record fields
NAME, START, END, PARENT, TRIAL, STATUS, ROWS = range(7)


class Recorder:
    """Keeps spans in memory, per trial: [name, start, end, parent, trial,
    status, rows].

    `parent` is the index of the enclosing span in the same trial's list (-1
    for the root), `status` is "ok" or the name of the exception that left
    the span, `rows` is the batch size a callback received (or the points a
    batch layer received).
    """

    def __init__(self):
        self.trials = {}                # trial -> its spans
        self.counts = defaultdict(int)  # (trial, key) -> count
        self.trial = None
        self._spans = []
        self._stack = []

    def begin(self, trial):
        self.trial = trial
        self._spans = self.trials[trial] = []

    def call(self, name, fn, args=(), kwargs=None, rows=0):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.trial, "ok", rows]
        self._stack.append(len(self._spans))
        self._spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            rec[STATUS] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def count(self, key):
        self.counts[(self.trial, key)] += 1


class Instrumentation:
    """Installs and removes the wrappers on one imported package.

    `pkg` holds the package's modules as attributes (see harness.Package).
    Module patches are installed around each traced trial and removed after
    it, so untraced trials in the same process run the package unchanged.
    """

    def __init__(self, pkg, recorder: Recorder):
        self.pkg = pkg
        self.rec = recorder
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, callbacks=None, rows_of=None):
        """Wrap fn in a span; `callbacks` maps a parameter name to a function
        that wraps the callback passed in it."""
        rec = self.rec
        if not callbacks and rows_of is None:
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, args, kwargs)
            return wrapper
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for param, wrap_cb in (callbacks or {}).items():
                bound.arguments[param] = wrap_cb(bound.arguments[param])
            rows = rows_of(bound.arguments) if rows_of else 0
            return rec.call(name, fn, bound.args, bound.kwargs, rows)
        return wrapper

    def _callback(self, name):
        rec = self.rec

        def wrap_cb(cb):
            def traced(rows):
                return rec.call(name, cb, (rows,), None, len(rows))
            return traced
        return wrap_cb

    def _counted(self, key):
        rec = self.rec

        def wrap_cb(cb):
            def counted(*args, **kwargs):
                rec.count(key)
                return cb(*args, **kwargs)
            return counted
        return wrap_cb

    def _patch(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        pkg, S = self.pkg, self._span
        red, poly = pkg.reduction, pkg.polynomial
        oracle_eval = self._callback(ORACLE_EVAL)
        # names bound in reduction
        for attr, name in (("select_primes", "fields.select_primes"),
                           ("crt_combine", "fields.crt"),
                           ("find_normal_basis", "fields.normal_basis"),
                           ("blow_up_k_partite", "hypergraph.blow_up"),
                           ("Hypergraph", "hypergraph.build")):
            self._patch(red, attr, S(name, getattr(red, attr)))
        self._patch(red, "random_self_reduce",
                    S("polynomial.random_self_reduce", red.random_self_reduce,
                      {"eval_at": self._counted("curve_points")}))
        self._patch(red, "weighted_to_unweighted_batch",
                    S(W2U_BATCH, red.weighted_to_unweighted_batch,
                      {"er_eval": oracle_eval},
                      rows_of=lambda a: len(a["points"])))
        self._patch(red, "ext_to_base_reduce",
                    S("polynomial.ext_to_base", red.ext_to_base_reduce,
                      {"base_eval": self._callback(BASE_EVAL)}))
        # names bound in polynomial
        for attr, name in (("berlekamp_welch_decode", "fields.bw_decode"),
                           ("sample_expansion_mod_p_batch", "expansion.sample_mod_p"),
                           ("sample_expansion_mod_2_batch", "expansion.sample_mod_2"),
                           ("min_t_for_tv", "expansion.min_t_for_tv")):
            self._patch(poly, attr, S(name, getattr(poly, attr)))
        self._patch(poly, "recombine_expansions",
                    S("polynomial.recombine", poly.recombine_expansions,
                      {"er_eval": oracle_eval}))
        # sub-hypergraph builds on the generic (s >= 3) counting path
        hg = pkg.hypergraph.Hypergraph
        self._patch(hg, "induced", S("hypergraph.build", hg.induced))

    def uninstall(self):
        for obj, attr, old in reversed(self._saved):
            setattr(obj, attr, old)
        self._saved.clear()

    def instrument_oracle(self, oracle):
        """Wrap one oracle's batch methods on the instance.  The counter
        itself stays untouched (see the module docstring)."""
        for attr in ("record_batch", "_apply_errors"):
            setattr(oracle, attr, self._span("reduction.harness", getattr(oracle, attr)))
        for attr in ("count", "count_batch_adj", "count_batch_graphs"):
            setattr(oracle, attr, self._span("cliques.count", getattr(oracle, attr)))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _children(spans):
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        children[sp[PARENT]].append(i)
    return children


def _self_times(spans, children):
    """A span's self time is its duration minus its children's durations
    (spans of one thread nest, so children never overlap)."""
    return [sp[END] - sp[START]
            - sum(spans[c][END] - spans[c][START] for c in children[i])
            for i, sp in enumerate(spans)]


def trial_layers(spans):
    """Per-name aggregates of one trial's spans, and its coloring count.

    A base-field callback that evaluates 0/1 rows itself (no mod-2 expansion
    under it) is the 0/1-evaluation callback and is counted as one.  Returns
    ({name: {"self", "incl", "calls", "rows", "failures": {exc: n}}},
    colorings); names without spans read as zeros.
    """
    children = _children(spans)
    names = [sp[NAME] for sp in spans]
    for i, name in enumerate(names):
        if name == BASE_EVAL and not any(names[c] == W2U_BATCH for c in children[i]):
            names[i] = ORACLE_EVAL
    selfs = _self_times(spans, children)
    out = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0, "rows": 0,
                               "failures": defaultdict(int)})
    colorings = 0
    for i, sp in enumerate(spans):
        agg = out[names[i]]
        agg["incl"] += sp[END] - sp[START]
        agg["self"] += selfs[i]
        agg["calls"] += 1
        agg["rows"] += sp[ROWS]
        if sp[STATUS] != "ok":
            agg["failures"][sp[STATUS]] += 1
        if names[i] in COLORING_LAYERS:
            out_rows = sum(spans[c][ROWS] for c in children[i]
                           if names[c] in (ORACLE_EVAL, BASE_EVAL))
            colorings += out_rows // (sp[ROWS] if names[i] == W2U_BATCH else 1)
    return out, colorings


def check_self_times(spans, wall: float, tolerance: float = 0.01):
    """Self times of one trial's spans must sum to the trial's wall time,
    up to the recorder's bookkeeping outside the root span."""
    roots = [sp for sp in spans if sp[PARENT] == -1]
    if len(roots) != 1 or roots[0][NAME] != ROOT:
        raise RuntimeError(f"trial has {len(roots)} root spans, expected one {ROOT!r}")
    selfs = _self_times(spans, _children(spans))
    total_self, worst = sum(selfs), min(selfs)
    remainder = wall - total_self
    if worst < -1e-6 or not -1e-6 <= remainder <= max(1e-3, tolerance * wall):
        raise RuntimeError(
            f"span self times sum to {total_self:.6f}s against a traced trial of "
            f"{wall:.6f}s (smallest self time {worst:.3g}s)")
    return remainder
