"""Per-layer metrics: which spans belong to which layer, and the hooks that
read dimensions, verdicts and sizes off the traced calls.

Times named `<layer>_ms` are self time per traced job, `*_ops`/`calls`/
`terms_out`/kernel-cache counts are per traced job, and the per-call times
(`automata.equal_ms.*`, `chen.*_ms`, `cli.*_ms`) are means over the calls
made.  A layer the workload never calls reads 0.
"""

import statistics
from collections import defaultdict

from spans import Tracer

SUBCOMMANDS = ("expand", "op", "star", "bases", "minimize", "classify", "check-identity", "chen", "pair", "derive-ode")
EQUAL_DIMS = range(2, 9)
CHEN_BOUNDS = (7, 8, 10, 11, 12, 13)

PRODUCTS = {
    f"series.{n}"
    for n in (
        "NCPolynomial._word_product",
        "NCPolynomial.__mul__",
        "NCPolynomial.__rmul__",
        "NCPolynomial.shuffle",
        "NCPolynomial.stuffle",
        "TruncatedSeries.__mul__",
        "TruncatedSeries.__rmul__",
        "TruncatedSeries.shuffle",
        "TruncatedSeries.stuffle",
        "TensorPoly.mul",
        "shuffle_words",
        "stuffle_words",
        "conc_words",
    )
}
EXPLOG = {"series.TruncatedSeries.exp", "series.TruncatedSeries.log"}
STAR = {"series.TruncatedSeries.star"}
COPRODUCTS = {"series.unshuffle", "series.unstuffle", "series.deconcat"}
# span names whose results count toward series.terms_out (kernels excluded)
KERNELS = {"series.shuffle_words", "series.stuffle_words", "series.conc_words"}
TERMS_OUT = (PRODUCTS | EXPLOG | STAR | COPRODUCTS) - KERNELS


def _is_poly(n):
    return n.startswith(("rings.Poly.", "rings.PolynomialRing.", "rings.poly_", "rings.parse_poly"))


def _is_ratfun(n):
    return n.startswith(("rings.RatFun.", "rings.RationalFunctionRing.", "rings.parse_ratfun"))


def _is_lyndon(n):
    return n.startswith("words.") and ("lyndon" in n or "standard_factorization" in n)


def _is_table(n):
    return n.startswith(("bases.BasisTable.", "bases.basis_", "bases.eulerian_pi1", "bases.phi_pi1"))


def _is_construct(n):
    return n.startswith(("automata.rep_", "automata.LinearRepresentation."))


class LayerTracer(Tracer):
    """A tracer that also counts the shuffle kernel's cache hits and misses
    made while tracing is on."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel
        self.kernel_hits = self.kernel_misses = 0
        self.lists = defaultdict(list)  # values the hooks read off traced calls
        self.terms_out = 0

    def __enter__(self):
        self._before = self.kernel.cache_info()
        return super().__enter__()

    def __exit__(self, *exc):
        after = self.kernel.cache_info()
        self.kernel_hits += after.hits - self._before.hits
        self.kernel_misses += after.misses - self._before.misses
        return super().__exit__(*exc)


def make_tracer(api):
    # kernel cache counters are read from the unwrapped lru_cache object
    tracer = LayerTracer(api.series.shuffle_words)
    tracer.build()
    add = tracer.lists

    def terms(tracer, frame, parent, args, result, dur):
        poly = getattr(result, "poly", result)
        tracer.terms_out += len(getattr(poly, "terms", ()))

    def minimize(tracer, frame, parent, args, result, dur):
        add["dim_in"].append(args[0].dim)
        add["dim_out"].append(result.dim)
        if parent is not None and parent.name == "automata.equal":
            parent.notes = (parent.notes or []) + [result.dim]

    def equal(tracer, frame, parent, args, result, dur):
        add["equal.holds" if result else "equal.fails"].append(dur)
        if frame.notes:
            add[f"equal.d{sum(frame.notes[:2])}"].append(dur)

    def to_representation(tracer, frame, parent, args, result, dur):
        if parent is None or parent.name != "exprs.to_representation":
            add["compiled_dim"].append(result.dim)

    def chen_series(tracer, frame, parent, args, result, dur):
        bound = args[2] if len(args) > 2 else result.bound
        add["chen.series"].append(dur)
        add[f"chen.series.b{bound}"].append(dur)
        add["chen.words"].append(len(result.values))
        add["chen.excluded"].append(len(result.excluded))
        add["chen.max_err"].append(max(result.errors.values(), default=0.0))

    def pair_series(tracer, frame, parent, args, result, dur):
        add["chen.pair_series"].append(dur)
        add["chen.certified"].append(1.0 if result.certified else 0.0)

    def timed(key):
        return lambda tracer, frame, parent, args, result, dur: add[key].append(dur)

    def derive(tracer, frame, parent, args, result, dur):
        add["chen.derive_ode"].append(dur)
        add["chen.ode_order"].append(len(result) - 1)

    tracer.hooks.update({name: terms for name in TERMS_OUT})
    tracer.hooks.update(
        {
            "automata.minimize": minimize,
            "automata.equal": equal,
            "exprs.to_representation": to_representation,
            "chen.chen_series": chen_series,
            "chen.pair_series": pair_series,
            "chen.pair_ode": timed("chen.pair_ode"),
            "chen.derive_scalar_ode": derive,
        }
    )
    return tracer


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer, api, outcomes, traced, untraced, imports, interps, defects):
    """`traced` and `untraced` are the outcomes of the same in-process runs,
    with and without tracing."""
    jobs = max(len(traced), 1)
    lists = tracer.lists

    def self_ms(pred):
        return 1000 * tracer.self_time(pred) / jobs, "ms/job"

    def per_job(pred):
        return tracer.call_count(pred) / jobs, "count/job"

    def mean_ms(key):
        return 1000 * _mean(lists[key]), "ms"

    kernel = tracer.kernel.cache_info()
    memo = {"_QL_CACHE", "_DERIV_CACHE"}
    m = {
        "words.lyndon_ms": self_ms(_is_lyndon),
        "rings.poly_ms": self_ms(_is_poly),
        "rings.ratfun_ms": self_ms(_is_ratfun),
        "rings.poly_ops": per_job(_is_poly),
        "rings.ratfun_ops": per_job(_is_ratfun),
        "series.product_ms": self_ms(PRODUCTS.__contains__),
        "series.explog_ms": self_ms(EXPLOG.__contains__),
        "series.star_ms": self_ms(STAR.__contains__),
        "series.coproduct_ms": self_ms(COPRODUCTS.__contains__),
        "series.terms_out": (tracer.terms_out / jobs, "count/job"),
        "series.kernel_cache_hits": (tracer.kernel_hits / jobs, "count/job"),
        "series.kernel_cache_misses": (tracer.kernel_misses / jobs, "count/job"),
        "series.kernel_cache_entries": (kernel.currsize, "count"),
        "bases.table_ms": self_ms(_is_table),
        "bases.msr_ms": self_ms("bases.msr_check".__eq__),
        "exprs.parse_ms": self_ms(
            lambda n: n in ("exprs.parse_expression", "exprs.expression_letters", "exprs.infer_alphabet")
        ),
        "exprs.compile_ms": self_ms(
            lambda n: n in ("exprs.to_series", "exprs.to_representation", "exprs.series_of", "exprs.representation_of")
        ),
        "exprs.compiled_dim": (_mean(lists["compiled_dim"]), "count"),
        "automata.construct_ms": self_ms(_is_construct),
        "automata.minimize_ms": self_ms("automata.minimize".__eq__),
        "automata.dim_in": (_mean(lists["dim_in"]), "count"),
        "automata.dim_out": (_mean(lists["dim_out"]), "count"),
        "automata.equal_ms.holds": mean_ms("equal.holds"),
        "automata.equal_ms.fails": mean_ms("equal.fails"),
    }
    for k in EQUAL_DIMS:
        m[f"automata.equal_ms.d{k}"] = mean_ms(f"equal.d{k}")
    m.update(
        {
            "linalg.ms": self_ms(lambda n: n.startswith("linalg.")),
            "linalg.calls": per_job(lambda n: n.startswith("linalg.")),
            "diffring.q_l_ms": self_ms(lambda n: n in ("diffring.q_l", "diffring.q_l_explicit")),
            "diffring.cache_entries": (sum(len(getattr(api.diffring, t, ())) for t in memo), "count"),
            "chen.series_ms": mean_ms("chen.series"),
        }
    )
    for b in CHEN_BOUNDS:
        m[f"chen.series_ms.b{b}"] = mean_ms(f"chen.series.b{b}")
    m.update(
        {
            "chen.words": (_mean(lists["chen.words"]), "count"),
            "chen.excluded": (_mean(lists["chen.excluded"]), "count"),
            "chen.max_err": (max(lists["chen.max_err"], default=0.0), "abs"),
            "chen.pair_series_ms": mean_ms("chen.pair_series"),
            "chen.pair_ode_ms": mean_ms("chen.pair_ode"),
            "chen.derive_ode_ms": mean_ms("chen.derive_ode"),
            "chen.ode_order": (_mean(lists["chen.ode_order"]), "count"),
            "chen.certified_share": (_mean(lists["chen.certified"]), "ratio"),
            "cli.interp_ms": (1000 * statistics.median(interps), "ms"),
            "cli.import_ms": (1000 * statistics.median(imports), "ms"),
        }
    )
    by_sub = defaultdict(list)
    for o in outcomes:
        if o.shape in SUBCOMMANDS:
            by_sub[o.shape].append(o.seconds)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = (1000 * _mean(by_sub[sub]), "ms")
    m["cli.inproc_ms"] = (1000 * _mean([o.seconds for o in untraced if o.shape in SUBCOMMANDS]), "ms")
    m["cli.known_defects"] = (defects, "count")
    spent = sum(o.scaled for o in untraced)
    m["trace.overhead_ratio"] = (sum(o.scaled for o in traced) / spent if spent else 0.0, "ratio")
    return m
