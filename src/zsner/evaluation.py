"""Entity-level micro-F1 scoring over the benchmark's (document, tag) grid.

Matching is exact string equality on normalized surfaces, multiset
semantics by default (a duplicated prediction can only match a duplicated
gold mention; extras count as false positives). Tier headline numbers pool
counts across documents and tags; macro-F1 is reported alongside.
"""

import math
from collections import Counter, defaultdict
from typing import Iterable, NamedTuple

from zsner import corpus
from zsner.corpus import WITH_DG, WITHOUT_DG, Benchmark, Document
from zsner.errors import ComparisonError, ConfigError, CoverageError, PairingError
from zsner.errors import RunDirectoryError, check_field

MULTISET = "multiset"
SET = "set"


class Counts(NamedTuple("Counts", [("tp", int), ("fp", int), ("fn", int)])):
    __slots__ = ()

    def __new__(cls, tp: int = 0, fp: int = 0, fn: int = 0):
        self = super().__new__(cls, tp, fp, fn)
        if tp < 0 or fp < 0 or fn < 0:
            raise ValueError(f"negative counts: {self}")
        return self

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def micro_f1(counts: Counts) -> tuple[float, float, float]:
    """(precision, recall, f1) from pooled counts, 0/0 -> 0."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def build_gold(docs: Iterable[Document]) -> dict[str, dict[str, list[str]]]:
    """Normalized gold surfaces of the given documents: {doc_id: {tag: [surface]}}.

    A document with no mention of a tag has no entry for it.
    """
    from zsner.parsing import normalize_surface  # here: report parses nothing
    by_doc: dict[str, dict[str, list[str]]] = {}
    for doc in docs:
        # the gold-side mirror of the reply parser, once per document
        by_tag = by_doc[doc.doc_id] = {}
        for m in doc.mentions:
            surface = normalize_surface(m.surface)
            if surface:
                by_tag.setdefault(m.tag_id, []).append(surface)
    return by_doc


def _cell_counts(gold: list[str], pred: list[str], semantics: str) -> tuple[int, int, int]:
    """(tp, fp, fn) of one cell's surface lists."""
    if semantics == SET:
        gold, pred = set(gold), set(pred)
        tp = len(gold & pred)
    elif semantics != MULTISET:
        raise ConfigError(f"unknown matching semantics {semantics!r}")
    elif not gold or not pred:  # more than half of all cells: nothing to match
        tp = 0
    elif len(pred) == 1:  # one predicted surface matches at most one gold one
        tp = 1 if pred[0] in gold else 0
    else:
        tp = sum((Counter(gold) & Counter(pred)).values())
    return tp, len(pred) - tp, len(gold) - tp


def score_pair(gold: "parsing.Extraction", pred: "parsing.Extraction",
               semantics: str = MULTISET) -> Counts:
    """TP/FP/FN for one (document, tag) cell."""
    if (gold.doc_id, gold.tag_id) != (pred.doc_id, pred.tag_id):
        raise PairingError(
            f"gold cell ({gold.doc_id},{gold.tag_id}) vs "
            f"pred cell ({pred.doc_id},{pred.tag_id})"
        )
    return Counts(*_cell_counts(gold.surfaces, pred.surfaces, semantics))


def _score(counts: Counts) -> dict:
    """A score of score.json: the counts and the rates micro_f1 gives them."""
    p, r, f1 = micro_f1(counts)
    return {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn,
            "precision": p, "recall": r, "f1": f1}


def check_score_report(data: dict, where: str = "score report") -> dict:
    """data, a score.json object, once every field is checked; a field missing
    or of the wrong type, or an unknown semantics, is a ConfigError naming
    where and the field. A missing variant, semantics or run_manifest is set
    to its default."""
    def check_score(obj: dict, key: str, what: str) -> None:
        what = f"{what} {key!r}"
        d = check_field(obj, dict, what, key=key)
        for k in ("tp", "fp", "fn"):
            check_field(d, int, f"{what} {k!r}", key=k, minimum=0)
        for k in ("precision", "recall", "f1"):
            check_field(d, float, f"{what} {k!r}", key=k)

    for name, t in check_field(data, dict, f"{where}: 'tiers'", key="tiers").items():
        what = f"{where}: tier {name!r}"
        t = check_field(t, dict, what)
        per_tag = check_field(t, dict, f"{what} 'per_tag'", key="per_tag")
        check_field(t, str, f"{what} 'kind'", key="kind")
        for tag in per_tag:
            check_score(per_tag, tag, what)
        check_score(t, "micro", what)
        check_field(t, float, f"{what} 'macro_f1'", key="macro_f1")
    for k, d in (("variant", ""), ("semantics", MULTISET), ("run_manifest", "")):
        check_field(data.setdefault(k, d), str, f"{where}: {k!r}")
    if data["semantics"] not in (MULTISET, SET):
        raise ConfigError(f"{where}: 'semantics' must be {MULTISET!r} or {SET!r}, "
                          f"got {data['semantics']!r}")
    check_field(data, str, f"{where}: 'benchmark_id'", key="benchmark_id")
    return data


def _lockstep(cells, records, grid):
    """Pair each cell of Benchmark.cells(), in order, with its record: the one
    whose job_id is job_id_for(*cell, *grid).

    Yields (cell, in_tiers, record). `records` is read once, only as far as
    the current cell needs; a record read before its cell waits in a dict,
    and one read in its cell's turn never enters it. Two records for one job
    raise RunDirectoryError; after that, cells with no record or records on
    no cell raise CoverageError.
    """
    early: dict = {}
    records, missing = iter(records), []

    def wait(rec) -> None:
        if rec.job_id in early:
            raise RunDirectoryError(f"duplicate record for job {rec.job_id}")
        early[rec.job_id] = rec

    for k, cell, in_tiers in corpus.grid_job_ids(cells, grid):
        rec = early.pop(k, None) if early else None
        if rec is None:
            for rec in records:  # read on up to k, or to the end
                if rec.job_id == k:
                    break
                wait(rec)
            else:
                missing.append(k)
                continue
        yield cell, in_tiers, rec
    for rec in records:
        wait(rec)
    if early:  # a record whose cell has passed came twice, or is on no cell
        for k, _, _ in corpus.grid_job_ids(cells, grid):
            if k in early:
                raise RunDirectoryError(f"duplicate record for job {k}")
    if missing:
        raise CoverageError(f"run lacks records for {len(missing)} jobs, e.g. {missing[:5]}")
    if early:
        raise CoverageError(f"run has records for {len(early)} jobs on no cell of the "
                            f"benchmark grid, e.g. {list(early)[:5]}")


def tier_report(
    benchmark: Benchmark,
    gold: dict[str, dict[str, list[str]]],
    records: Iterable,
    grid: tuple[str, str, str],
    *,
    semantics: str = MULTISET,
    run_manifest: str = "",
) -> tuple[dict, Counter]:
    """Score a run's CompletionRecords against build_gold's map over every tier:
    the score.json object and the replies per parse status, which it leaves out.

    `grid` is the run's (variant, template_id, adapter_id). Records are read
    once, in one pass over Benchmark.cells(), and may come in any order; each
    is parsed as it is paired with its cell. They must cover the grid
    exactly: a job recorded twice raises RunDirectoryError, and missing or
    stray records raise CoverageError rather than scoring as zeros.
    """
    from zsner import parsing
    # counts are summed per (tiers, tag)
    sums: dict[tuple[tuple[str, ...], str], list[int]] = defaultdict(lambda: [0, 0, 0])
    statuses: Counter[str] = Counter()
    missing_gold: list[tuple[str, str]] = []
    for cell, in_tiers, rec in _lockstep(benchmark.cells(), records, grid):
        pred = parsing.to_extraction(rec, *cell)
        statuses[pred.parse_status] += 1
        by_tag = gold.get(cell[0])
        if by_tag is None:
            missing_gold.append(cell)
            continue
        tp, fp, fn = _cell_counts(by_tag.get(cell[1], []), pred.surfaces, semantics)
        acc = sums[in_tiers, cell[1]]
        acc[0] += tp
        acc[1] += fp
        acc[2] += fn
    if missing_gold:
        missing_gold.sort()
        raise CoverageError(
            f"gold grid mismatch: {len(missing_gold)} missing cells, "
            f"e.g. {missing_gold[:5]}"
        )

    totals: dict[tuple[str, str], Counts] = defaultdict(Counts)
    for (in_tiers, tag), c in sums.items():
        for name in in_tiers:
            totals[name, tag] += Counts(*c)
    tiers = {}
    for tier in benchmark.tiers:
        counts = {tag: totals[tier.name, tag] for tag in tier.tag_ids}
        per_tag = {tag: _score(c) for tag, c in counts.items()}
        macro = math.fsum(s["f1"] for s in per_tag.values()) / len(per_tag) if per_tag else 0.0
        tiers[tier.name] = {"kind": tier.kind, "micro": _score(sum(counts.values(), Counts())),
                            "macro_f1": macro, "per_tag": per_tag}
    report = {"benchmark_id": benchmark.benchmark_id, "variant": grid[0],
              "semantics": semantics, "run_manifest": run_manifest, "tiers": tiers}
    return report, statuses


# --------------------------------------------------------------------------
# delta reports (with-D&G vs without-D&G ablation)


def delta_report(with_report: dict, without_report: dict) -> dict:
    """The delta report of two score reports: per-(tier, tag) and per-tier F1
    of each variant and their difference."""
    for key, what in (("benchmark_id", "benchmarks"), ("semantics", "matching semantics")):
        if with_report[key] != without_report[key]:
            raise ComparisonError(f"reports compare different {what}: "
                                  f"{with_report[key]!r} vs {without_report[key]!r}")
    variants = (with_report["variant"], without_report["variant"])
    if variants[0] not in ("", WITH_DG) or variants[1] not in ("", WITHOUT_DG):
        raise ComparisonError(f"reports must be of variants {WITH_DG!r} and {WITHOUT_DG!r}, "
                              f"in that order: got {variants[0]!r} and {variants[1]!r}")
    if set(with_report["tiers"]) != set(without_report["tiers"]):
        raise ComparisonError(
            f"tier mismatch: {sorted(with_report['tiers'])} vs "
            f"{sorted(without_report['tiers'])}"
        )

    def cell(w: dict, wo: dict) -> dict:
        return {"f1_with": w["f1"], "f1_without": wo["f1"], "delta": w["f1"] - wo["f1"]}

    tiers, micro = {}, {}
    for name, tw in with_report["tiers"].items():
        to = without_report["tiers"][name]
        if set(tw["per_tag"]) != set(to["per_tag"]):
            raise ComparisonError(
                f"tier {name!r}: tag grid mismatch: "
                f"{sorted(tw['per_tag'])} vs {sorted(to['per_tag'])}"
            )
        tiers[name] = {tag: cell(s, to["per_tag"][tag]) for tag, s in tw["per_tag"].items()}
        micro[name] = cell(tw["micro"], to["micro"])
    return {"benchmark_id": with_report["benchmark_id"], "tiers": tiers, "micro": micro}


# --------------------------------------------------------------------------
# rendering


def format_pct(x: float) -> str:
    """F1 on the conventional 0-100 reporting scale, two decimals."""
    return f"{100 * x:.2f}"


def format_delta(delta: float) -> str:
    """Signed-in-parentheses convention, e.g. (+36.13)."""
    return f"({100 * delta:+.2f})"


def render_report(report: dict) -> str:
    lines = [
        f"benchmark: {report['benchmark_id']}   variant: {report['variant']}   "
        f"matching: {report['semantics']}"
    ]
    for name, tier in report["tiers"].items():
        lines.append("")
        lines.append(f"tier: {name} ({tier['kind']})")
        width = max([len("tag"), len("macro F1")] + [len(t) for t in tier["per_tag"]])
        header = f"{'tag':<{width}} {'tp':>6} {'fp':>6} {'fn':>6} {'P':>7} {'R':>7} {'F1':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for tag, s in [*sorted(tier["per_tag"].items()), ("micro", tier["micro"])]:
            lines.append(
                f"{tag:<{width}} {s['tp']:>6} {s['fp']:>6} {s['fn']:>6} "
                f"{format_pct(s['precision']):>7} {format_pct(s['recall']):>7} "
                f"{format_pct(s['f1']):>7}"
            )
        macro = format_pct(tier["macro_f1"])
        lines.append(f"{'macro F1':<{width}} {macro:>{len(header) - width - 1}}")
    return "\n".join(lines) + "\n"


def render_delta(report: dict) -> str:
    lines = [f"benchmark: {report['benchmark_id']}   ablation: with vs without D&G"]
    for name, tags in report["tiers"].items():
        lines.append("")
        lines.append(f"tier: {name}")
        width = max([len("tag"), len("micro")] + [len(t) for t in tags])
        header = f"{'tag':<{width}} {'w/o D&G':>9} {'w/ D&G':>9} {'ΔF1':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for tag, c in [*sorted(tags.items()), ("micro", report["micro"][name])]:
            lines.append(
                f"{tag:<{width}} {format_pct(c['f1_without']):>9} "
                f"{format_pct(c['f1_with']):>9} {format_delta(c['delta']):>10}"
            )
    return "\n".join(lines) + "\n"
