"""Per-layer metrics from the span files of traced zsner commands.

A layer is a module of src/zsner. Durations are totals over every traced
command of a run, divided by the work done (documents, jobs, calls) or by
the number of calls; counts are per command that made them, so they do
not depend on how many repetitions fit in a run. Self time is a span's
duration minus the part of its interval that its child spans cover.
"""

import statistics
from collections import defaultdict

# per-layer metric names and units, in the order they are reported
UNITS = {
    "process.startup_s": "s",
    "cli.run.self_s": "s",
    "cli.score.self_s": "s",
    "corpus.parse_bio.us_per_doc": "us",
    "corpus.save_dataset.us_per_doc": "us",
    "corpus.assemble_benchmark.s": "s",
    "corpus.load_benchmark.s": "s",
    "corpus.load_dataset.us_per_doc": "us",
    "corpus.load_dataset.docs": "count",
    "guidelines.load_store.s": "s",
    "guidelines.validate_store.s": "s",
    "resources.load.s": "s",
    "prompts.expand_benchmark_jobs.us_per_job": "us",
    "prompts.render.us_per_call": "us",
    "prompts.wrap.us_per_call": "us",
    "prompts.benchmark_grid_jobs.us_per_job": "us",
    "inference.run.self_us_per_job": "us",
    "inference.HttpBackend.complete.calls": "count",
    "inference.HttpBackend.complete.ms_p50": "ms",
    "inference.HttpBackend.complete.ms_p99": "ms",
    "inference.HttpBackend.complete.errors": "count",
    "inference.ResponseCache.get.us_per_call": "us",
    "inference.ResponseCache.get.hit_ratio": "ratio",
    "inference.ResponseCache.put.us_per_call": "us",
    "inference.ResponseCache.put.calls": "count",
    "inference.cache_key.us_per_call": "us",
    "inference.persist_run.s": "s",
    "inference.load_run.s": "s",
    "endpoint.requests": "count",
    "endpoint.requests_per_job": "ratio",
    "endpoint.connections": "count",
    "endpoint.max_in_flight": "count",
    "endpoint.busy_share": "ratio",
    "parsing.extract_list.us_per_call": "us",
    "parsing.extract_list.ok": "count",
    "parsing.extract_list.recovered": "count",
    "parsing.extract_list.failed": "count",
    "parsing.to_extraction.us_per_call": "us",
    "evaluation.build_gold.s": "s",
    "evaluation.tier_report.s": "s",
    "evaluation.score_pair.us_per_call": "us",
    "evaluation.delta_report.s": "s",
    "trace.overhead_ratio": "ratio",
}

ENDPOINT_METRICS = [name for name in UNITS if name.startswith("endpoint.")]


def self_time(span, children) -> float:
    """Duration of `span` not covered by the union of its children."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c[2]):
        lo, hi = max(c[2], span[2]), min(c[3], span[3])
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return (span[3] - span[2]) - covered


class _Agg:
    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.info_sum = 0
        self.errors = 0
        self.durations: list[float] = []
        self.commands = 0  # commands with at least one call
        self.infos: dict = defaultdict(int)  # info value -> calls (timed phase)


SELF_TIMED = {"cli.run", "cli.score", "inference.run"}


def aggregate(commands) -> tuple[dict[str, _Agg], list[float]]:
    """commands: (phase, launch time, span file) per traced command."""
    aggs: dict[str, _Agg] = defaultdict(_Agg)
    startups = []
    for phase, launch, data in commands:
        startups.append(data["main_entered"] - launch)
        children = defaultdict(list)
        for s in data["spans"]:
            children[s[4]].append(s)
        seen = set()
        for s in data["spans"]:
            _, name, start, end, _, _, info, error = s
            if name.startswith("resources."):
                name = "resources.load"  # one layer for all asset loaders
            a = aggs[name]
            a.calls += 1
            a.total_s += end - start
            a.errors += error
            if name == "inference.HttpBackend.complete":
                a.durations.append(end - start)
            if isinstance(info, int) and not isinstance(info, bool):
                a.info_sum += info
            if phase == "timed":
                a.infos[info] += 1
            if name in SELF_TIMED:
                a.self_s += self_time(s, children[s[0]])
            seen.add(name)
        for name in seen:
            aggs[name].commands += 1
    return aggs, startups


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(commands, endpoint: dict[str, float], overhead_ratio: float) -> dict:
    aggs, startups = aggregate(commands)
    a = aggs.__getitem__
    m = {
        "process.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.run.self_s": _div(a("cli.run").self_s, a("cli.run").calls),
        "cli.score.self_s": _div(a("cli.score").self_s, a("cli.score").calls),
        "corpus.parse_bio.us_per_doc":
            _div(a("corpus.parse_bio").total_s * 1e6, a("corpus.parse_bio").info_sum),
        "corpus.save_dataset.us_per_doc":
            _div(a("corpus.save_dataset").total_s * 1e6,
                 a("corpus.save_dataset").info_sum),
    }
    for name in ("corpus.assemble_benchmark", "corpus.load_benchmark",
                 "guidelines.load_store", "guidelines.validate_store",
                 "inference.persist_run", "inference.load_run",
                 "evaluation.build_gold", "evaluation.tier_report",
                 "evaluation.delta_report"):
        m[f"{name}.s"] = _div(a(name).total_s, a(name).calls)
    ld = a("corpus.load_dataset")
    m["corpus.load_dataset.us_per_doc"] = _div(ld.total_s * 1e6, ld.info_sum)
    m["corpus.load_dataset.docs"] = _div(ld.info_sum, ld.commands)
    m["resources.load.s"] = _div(a("resources.load").total_s,
                                 a("resources.load").commands)
    for name in ("prompts.expand_benchmark_jobs", "prompts.benchmark_grid_jobs"):
        m[f"{name}.us_per_job"] = _div(a(name).total_s * 1e6, a(name).info_sum)
    for name in ("prompts.render", "prompts.wrap", "inference.ResponseCache.get",
                 "inference.ResponseCache.put", "inference.cache_key",
                 "parsing.extract_list", "parsing.to_extraction",
                 "evaluation.score_pair"):
        m[f"{name}.us_per_call"] = _div(a(name).total_s * 1e6, a(name).calls)
    m["inference.run.self_us_per_job"] = _div(
        a("inference.run").self_s * 1e6, a("inference.run").info_sum)
    hc = a("inference.HttpBackend.complete")
    m["inference.HttpBackend.complete.calls"] = _div(hc.calls, hc.commands)
    m["inference.HttpBackend.complete.ms_p50"] = _quantile(hc.durations, 50) * 1e3
    m["inference.HttpBackend.complete.ms_p99"] = _quantile(hc.durations, 99) * 1e3
    m["inference.HttpBackend.complete.errors"] = _div(hc.errors, hc.commands)
    get = a("inference.ResponseCache.get")
    m["inference.ResponseCache.get.hit_ratio"] = _div(
        get.infos[1], get.infos[0] + get.infos[1])
    put = a("inference.ResponseCache.put")
    m["inference.ResponseCache.put.calls"] = _div(put.calls, put.commands)
    el = a("parsing.extract_list")
    for status in ("ok", "recovered", "failed"):
        m[f"parsing.extract_list.{status}"] = _div(el.infos[status], el.commands)
    m.update(endpoint)
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": m[name], "unit": unit} for name, unit in UNITS.items()}


def missing_names(commands) -> list[str]:
    return sorted({name for _, _, data in commands for name in data["missing"]})
