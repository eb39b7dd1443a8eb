"""Spans around the calls into each fibercurve module, from outside it.

`install()` runs inside a worker process: it replaces each traced
public function by a timing wrapper at every import site (the defining
module and every module that imported the name, for instance both
`projline.cartan_nonsplit` and `atlas.cartan_nonsplit`).  Spans are kept
in memory as [name, start, end, parent, failed, extra] lists, handed to
the client with each response, and written out by the client when the
run ends.  `layer_metrics()` derives the per-layer table from them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

TRACED = {
    "cli": ("main", "checks_for_prime", "cached_payload", "fiber_payload",
            "drinfeld_payload", "orbits_payload", "neron_payload", "_emit_json",
            "fiber_text", "drinfeld_text", "orbits_text", "neron_text"),
    "atlas": ("special_fiber", "total_genus", "genus_oracle", "supersingular_data",
              "brute_supersingular_data", "hasse_supersingular_data",
              "consistency_report", "family_group_image"),
    "projline": ("cartan_nonsplit", "cartan_split", "borel", "generate_subgroup",
                 "orbits", "coset_cycle_counts"),
    "exceptional": ("build_exceptional", "orbit_table"),
    "drinfeld": ("cartan_drinfeld", "exceptional_drinfeld", "verify_quotient_maps",
                 "count_points_fp2"),
    "ffield": ("field_create", "solve_affine_mod_p"),
    "neron": ("component_group", "smith_normal_form_diagonal", "spanning_tree_count",
              "component_group_prediction"),
}
LAYERS = tuple(TRACED) + ("verify",)
RENDER = ("cli._emit_json", "cli.fiber_text", "cli.drinfeld_text", "cli.orbits_text",
          "cli.neron_text")
GROUP_BUILD = ("projline.cartan_nonsplit", "projline.cartan_split", "projline.borel",
               "projline.generate_subgroup")

# per-layer metric -> (unit, span names summed); times are seconds per pass
SUMMED = {
    "atlas.total_genus_s": ("atlas.total_genus",),
    "atlas.ss_oracle_s": ("atlas.brute_supersingular_data", "atlas.hasse_supersingular_data"),
    "atlas.consistency_s": ("atlas.consistency_report",),
    "projline.group_build_s": GROUP_BUILD,
    "projline.orbits_s": ("projline.orbits",),
    "projline.cycle_count_s": ("projline.coset_cycle_counts",),
    "exceptional.build_s": ("exceptional.build_exceptional",),
    "exceptional.orbit_table_s": ("exceptional.orbit_table",),
    "drinfeld.exceptional_s": ("drinfeld.exceptional_drinfeld",),
    "drinfeld.quotient_maps_s": ("drinfeld.verify_quotient_maps",),
    "drinfeld.count_points_s": ("drinfeld.count_points_fp2",),
    "ffield.field_create_s": ("ffield.field_create",),
    "ffield.solve_affine_s": ("ffield.solve_affine_mod_p",),
    "neron.snf_s": ("neron.smith_normal_form_diagonal",),
    "neron.kirchhoff_s": ("neron.spanning_tree_count",),
}

# name -> unit, in the order the table is printed
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER["%s.calls" % _layer] = "count"
    PER_LAYER["%s.failures" % _layer] = "count"
PER_LAYER.update({
    "cli.cache_hit_ratio": "ratio",
    "cli.cache_read_ms": "ms",
    "cli.cache_write_ms": "ms",
    "cli.render_ms": "ms",
    "atlas.special_fiber_self_s": "s",
})
PER_LAYER.update({name: "s" for name in SUMMED})
PER_LAYER.update({
    "ffield.solve_affine_calls": "count",
    "neron.laplacian_dim_p50": "count",
    "neron.laplacian_dim_max": "count",
    "neron.deadline_misses": "count",
    "verify.busy_s": "s",
    "verify.queue_wait_s": "s",
    "verify.worker_utilization": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.latency_p50_ms": "ms",
    "trace.latency_p90_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
})


# what a span records of its call's arguments: the Laplacian's dimension,
# and whether a cache lookup had a cache at all (without one it is a bypass)
EXTRA = {
    "smith_normal_form_diagonal": lambda args: len(args[0]),
    "cached_payload": lambda args: args[0] is not None,
}


class Recorder:
    """In-worker span store; one list per operation."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def take(self) -> list:
        out = list(self.spans)
        del self.spans[:]
        del self.stack[:]
        return out

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0,
                   extra(args) if extra else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def calibrate(self, n=20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""
        def noop():
            return None

        wrapped = self.wrap("calibrate", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        t1 = clock()
        for _ in range(n):
            wrapped()
        t2 = clock()
        self.take()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def install() -> Recorder:
    """Wrap every traced function at every fibercurve import site."""
    import fibercurve  # noqa: F401  (loads every submodule)

    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "fibercurve" or name.startswith("fibercurve."))]
    for layer, names in TRACED.items():
        home = sys.modules["fibercurve." + layer]
        for fname in names:
            original = getattr(home, fname)
            extra = EXTRA.get(fname)
            wrapper = rec.wrap("%s.%s" % (layer, fname), original, extra)
            if fname == "cached_payload":
                wrapper = _wrap_cache(rec, wrapper)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    return rec


def _wrap_cache(rec, traced_lookup):
    """Mark a cache lookup's compute step with a child span, so a miss
    (compute ran) splits into read, compute and write."""

    @functools.wraps(traced_lookup)
    def lookup(cache_dir, subcommand, selector, p, args, compute):
        return traced_lookup(cache_dir, subcommand, selector, p, args,
                             rec.wrap("cli.compute", compute))

    return lookup


# ---------------------------------------------------------------------------
# client side: per-layer table
# ---------------------------------------------------------------------------


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    out = []
    for s in spans:
        if s[0] not in names:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(s)
    return out


def layer_metrics(ops, passes, wall_s, workers, span_cost_s) -> dict:
    """Per-layer metrics from the ops of a traced run.

    `ops` are dicts with keys req, status, failure, spans, busy_s and
    wait_s.  Times and counts are per pass.
    """
    per = 1.0 / max(passes, 1)
    m = {name: 0.0 for name in PER_LAYER}
    snf_dims, hits, lookups, reads, writes, renders = [], 0, 0, [], [], []
    n_spans = 0
    for op in ops:
        spans = op["spans"]
        n_spans += len(spans)
        for s in spans:
            layer = s[0].split(".", 1)[0]
            m["%s.calls" % layer] += per
            m["%s.failures" % layer] += per * s[4]
        for name, span_names in SUMMED.items():
            m[name] += per * sum(s[2] - s[1] for s in _outermost(spans, span_names))
        for i, s in enumerate(spans):
            if s[0] == "atlas.special_fiber":
                children = sum(c[2] - c[1] for c in spans if c[3] == i)
                m["atlas.special_fiber_self_s"] += per * (s[2] - s[1] - children)
            elif s[0] == "neron.smith_normal_form_diagonal":
                snf_dims.append(s[5])
            elif s[0] == "ffield.solve_affine_mod_p":
                m["ffield.solve_affine_calls"] += per
            elif s[0] in RENDER:
                renders.append(s[2] - s[1])
            elif s[0] == "cli.cached_payload" and s[5] and not s[4]:
                kids = [c for c in spans if c[3] == i and c[0] == "cli.compute"]
                lookups += 1
                if not kids:
                    hits += 1
                    reads.append(s[2] - s[1])
                else:
                    reads.append(kids[0][1] - s[1])
                    writes.append(s[2] - kids[0][2])
        # a miss is neron's when the interrupted call stack was in neron
        if op["status"] == "deadline" and (op["req"][0] == "neron" or any(
                s[4] and s[0].startswith("neron.") for s in spans)):
            m["neron.deadline_misses"] += per
        m["verify.calls"] += per
        m["verify.failures"] += per * bool(op["failure"])
        m["verify.busy_s"] += per * op["busy_s"]
        m["verify.queue_wait_s"] += op["wait_s"] / len(ops)
    mean_ms = lambda xs: 1000.0 * statistics.fmean(xs) if xs else 0.0  # noqa: E731
    m["cli.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["cli.cache_read_ms"] = mean_ms(reads)
    m["cli.cache_write_ms"] = mean_ms(writes)
    m["cli.render_ms"] = mean_ms(renders)
    if snf_dims:
        m["neron.laplacian_dim_p50"] = statistics.median(snf_dims)
        m["neron.laplacian_dim_max"] = max(snf_dims)
    busy = sum(op["busy_s"] for op in ops)
    m["verify.worker_utilization"] = busy / (workers * wall_s) if wall_s else 0.0
    m["trace.spans"] = n_spans * per
    m["trace.overhead_frac"] = n_spans * span_cost_s / busy if busy else 0.0
    return m
