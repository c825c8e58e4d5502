"""Entity-level micro-F1 scoring over the benchmark's (document, tag) grid.

Matching is exact string equality on normalized surfaces, multiset
semantics by default (a duplicated prediction can only match a duplicated
gold mention; extras count as false positives). Tier headline numbers pool
counts across documents and tags; macro-F1 is reported alongside.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from zsner.corpus import Benchmark, Document
from zsner.errors import ComparisonError, ConfigError, CoverageError, PairingError
from zsner.parsing import Extraction, normalize_surface

MULTISET = "multiset"
SET = "set"


@dataclass(frozen=True)
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError(f"negative counts: {self}")

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def micro_f1(counts: Counts) -> tuple[float, float, float]:
    """(precision, recall, f1) from pooled counts, 0/0 -> 0."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def build_gold(
    benchmark: Benchmark, datasets: dict[str, list[Document]]
) -> dict[str, dict[str, list[str]]]:
    """Normalized gold surfaces of every tier document: {doc_id: {tag: [surface]}}.

    A document with no mention of a tag has no entry for it.
    """
    by_doc: dict[str, dict[str, list[str]]] = {}
    for tier in benchmark.tiers:
        for ds in tier.dataset_ids:
            if ds not in datasets:
                raise ConfigError(f"tier {tier.name!r}: dataset {ds!r} not loaded")
            for doc in datasets[ds]:
                if doc.doc_id in by_doc:
                    continue
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
    elif gold and pred:
        tp = sum((Counter(gold) & Counter(pred)).values())
    else:  # more than half of all cells: nothing to match
        tp = 0
    return tp, len(pred) - tp, len(gold) - tp


def score_pair(gold: Extraction, pred: Extraction, semantics: str = MULTISET) -> Counts:
    """TP/FP/FN for one (document, tag) cell."""
    if (gold.doc_id, gold.tag_id) != (pred.doc_id, pred.tag_id):
        raise PairingError(
            f"gold cell ({gold.doc_id},{gold.tag_id}) vs "
            f"pred cell ({pred.doc_id},{pred.tag_id})"
        )
    return Counts(*_cell_counts(gold.surfaces, pred.surfaces, semantics))


@dataclass
class TagScore:
    counts: Counts
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: Counts) -> "TagScore":
        p, r, f1 = micro_f1(counts)
        return cls(counts, p, r, f1)


@dataclass
class TierScore:
    name: str
    kind: str
    per_tag: dict[str, TagScore]
    micro: TagScore
    macro_f1: float


@dataclass
class ScoreReport:
    benchmark_id: str
    variant: str
    tiers: dict[str, TierScore]
    semantics: str = MULTISET
    run_manifest: str = ""

    def to_json(self) -> dict:
        def tag_dict(s: TagScore) -> dict:
            return {
                "tp": s.counts.tp,
                "fp": s.counts.fp,
                "fn": s.counts.fn,
                "precision": s.precision,
                "recall": s.recall,
                "f1": s.f1,
            }

        return {
            "benchmark_id": self.benchmark_id,
            "variant": self.variant,
            "semantics": self.semantics,
            "run_manifest": self.run_manifest,
            "tiers": {
                name: {
                    "kind": t.kind,
                    "micro": tag_dict(t.micro),
                    "macro_f1": t.macro_f1,
                    "per_tag": {tag: tag_dict(s) for tag, s in t.per_tag.items()},
                }
                for name, t in self.tiers.items()
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScoreReport":
        def tag_score(d: dict) -> TagScore:
            return TagScore(
                Counts(d["tp"], d["fp"], d["fn"]), d["precision"], d["recall"], d["f1"]
            )

        tiers = {
            name: TierScore(
                name,
                t["kind"],
                {tag: tag_score(s) for tag, s in t["per_tag"].items()},
                tag_score(t["micro"]),
                t["macro_f1"],
            )
            for name, t in data["tiers"].items()
        }
        return cls(
            benchmark_id=data["benchmark_id"],
            variant=data.get("variant", ""),
            tiers=tiers,
            semantics=data.get("semantics", MULTISET),
            run_manifest=data.get("run_manifest", ""),
        )


def _lockstep(cells, items, key, item_key, *, duplicate, mismatch):
    """Pair each cell of Benchmark.cells(), in order, with the item of its key.

    Yields (cell, in_tiers, item). `items` is read once, only as far as the
    current cell needs; an item read early waits in a dict for its cell.
    Two items with one key raise duplicate(key); after that, cells with no
    item or items on no cell raise mismatch(missing keys in cell order,
    stray keys in read order).
    """
    early: dict = {}

    def read():
        for item in items:
            k = item_key(item)
            if k in early:
                raise duplicate(k)
            early[k] = item
            yield k

    reader, missing = read(), []
    for cell, in_tiers in cells:
        k = key(cell)
        if k in early or k in reader:  # `in` reads on up to k, or to the end
            yield cell, in_tiers, early.pop(k)
        else:
            missing.append(k)
    for _ in reader:
        pass
    if early:  # an item whose cell has passed came twice, or is on no cell
        for k in map(key, (cell for cell, _ in cells)):
            if k in early:
                raise duplicate(k)
    if missing or early:
        raise mismatch(missing, list(early))


def _prediction_mismatch(missing: list, extra: list) -> CoverageError:
    parts = []
    if missing:
        parts.append(f"{len(missing)} missing cells, e.g. {sorted(missing)[:5]}")
    if extra:
        parts.append(f"{len(extra)} extra cells, e.g. {sorted(extra)[:5]}")
    return CoverageError("prediction grid mismatch: " + "; ".join(parts))


def tier_report(
    benchmark: Benchmark,
    gold: dict[str, dict[str, list[str]]],
    predictions: Iterable[Extraction],
    variant: str,
    *,
    semantics: str = MULTISET,
    run_manifest: str = "",
) -> ScoreReport:
    """Score predictions against build_gold's map over every tier.

    Predictions are read once, in one pass over Benchmark.cells(), and may
    come in any order. They must cover the grid exactly: a cell predicted
    twice raises PairingError, and missing or extra cells raise
    CoverageError rather than scoring as zeros.
    """
    # counts are summed per (tiers, tag)
    sums: dict[tuple[tuple[str, ...], str], list[int]] = defaultdict(lambda: [0, 0, 0])
    missing_gold: list[tuple[str, str]] = []
    pairs = _lockstep(
        benchmark.cells(), predictions, lambda cell: cell, lambda e: (e.doc_id, e.tag_id),
        duplicate=lambda cell: PairingError(f"duplicate predicted extraction for cell {cell}"),
        mismatch=_prediction_mismatch,
    )
    for cell, in_tiers, pred in pairs:
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
    tiers: dict[str, TierScore] = {}
    for tier in benchmark.tiers:
        # tier.tag_ids order: macro_f1 sums its floats in this order
        per_tag_counts = {tag: totals[tier.name, tag] for tag in tier.tag_ids}
        per_tag = {tag: TagScore.from_counts(c) for tag, c in per_tag_counts.items()}
        pooled = sum(per_tag_counts.values(), Counts())
        macro = (
            sum(s.f1 for s in per_tag.values()) / len(per_tag) if per_tag else 0.0
        )
        tiers[tier.name] = TierScore(
            tier.name, tier.kind, per_tag, TagScore.from_counts(pooled), macro
        )

    return ScoreReport(
        benchmark_id=benchmark.benchmark_id,
        variant=variant,
        tiers=tiers,
        semantics=semantics,
        run_manifest=run_manifest,
    )


# --------------------------------------------------------------------------
# delta reports (with-D&G vs without-D&G ablation)


@dataclass
class DeltaCell:
    f1_with: float
    f1_without: float

    @property
    def delta(self) -> float:
        return self.f1_with - self.f1_without


@dataclass
class DeltaReport:
    benchmark_id: str
    tiers: dict[str, dict[str, DeltaCell]]  # tier -> tag -> cell
    micro: dict[str, DeltaCell] = field(default_factory=dict)  # tier -> cell

    def to_json(self) -> dict:
        def cell(c: DeltaCell) -> dict:
            return {"f1_with": c.f1_with, "f1_without": c.f1_without, "delta": c.delta}

        return {
            "benchmark_id": self.benchmark_id,
            "tiers": {
                name: {tag: cell(c) for tag, c in tags.items()}
                for name, tags in self.tiers.items()
            },
            "micro": {name: cell(c) for name, c in self.micro.items()},
        }


def delta_report(with_report: ScoreReport, without_report: ScoreReport) -> DeltaReport:
    """Per-(tier, tag) and per-tier F1 differences between the two variants."""
    if with_report.benchmark_id != without_report.benchmark_id:
        raise ComparisonError(
            f"reports compare different benchmarks: "
            f"{with_report.benchmark_id!r} vs {without_report.benchmark_id!r}"
        )
    if set(with_report.tiers) != set(without_report.tiers):
        raise ComparisonError(
            f"tier mismatch: {sorted(with_report.tiers)} vs "
            f"{sorted(without_report.tiers)}"
        )
    tiers: dict[str, dict[str, DeltaCell]] = {}
    micro: dict[str, DeltaCell] = {}
    for name, tw in with_report.tiers.items():
        to = without_report.tiers[name]
        if set(tw.per_tag) != set(to.per_tag):
            raise ComparisonError(
                f"tier {name!r}: tag grid mismatch: "
                f"{sorted(tw.per_tag)} vs {sorted(to.per_tag)}"
            )
        tiers[name] = {
            tag: DeltaCell(tw.per_tag[tag].f1, to.per_tag[tag].f1)
            for tag in tw.per_tag
        }
        micro[name] = DeltaCell(tw.micro.f1, to.micro.f1)
    return DeltaReport(with_report.benchmark_id, tiers, micro)


# --------------------------------------------------------------------------
# rendering


def format_pct(x: float) -> str:
    """F1 on the conventional 0-100 reporting scale, two decimals."""
    return f"{100 * x:.2f}"


def format_delta(delta: float) -> str:
    """Signed-in-parentheses convention, e.g. (+36.13)."""
    return f"({100 * delta:+.2f})"


def render_report(report: ScoreReport) -> str:
    lines = [
        f"benchmark: {report.benchmark_id}   variant: {report.variant}   "
        f"matching: {report.semantics}"
    ]
    for tier in report.tiers.values():
        lines.append("")
        lines.append(f"tier: {tier.name} ({tier.kind})")
        width = max([len("tag")] + [len(t) for t in tier.per_tag])
        header = f"{'tag':<{width}} {'tp':>6} {'fp':>6} {'fn':>6} {'P':>7} {'R':>7} {'F1':>7}"
        lines.append(header)
        lines.append("-" * len(header))
        for tag in sorted(tier.per_tag):
            s = tier.per_tag[tag]
            lines.append(
                f"{tag:<{width}} {s.counts.tp:>6} {s.counts.fp:>6} {s.counts.fn:>6} "
                f"{format_pct(s.precision):>7} {format_pct(s.recall):>7} "
                f"{format_pct(s.f1):>7}"
            )
        m = tier.micro
        lines.append(
            f"{'micro':<{width}} {m.counts.tp:>6} {m.counts.fp:>6} {m.counts.fn:>6} "
            f"{format_pct(m.precision):>7} {format_pct(m.recall):>7} "
            f"{format_pct(m.f1):>7}"
        )
        lines.append(f"{'macro F1':<{width}} {format_pct(tier.macro_f1):>{len(header) - width - 1}}")
    return "\n".join(lines) + "\n"


def render_delta(report: DeltaReport) -> str:
    lines = [f"benchmark: {report.benchmark_id}   ablation: with vs without D&G"]
    for name, tags in report.tiers.items():
        lines.append("")
        lines.append(f"tier: {name}")
        width = max([len("tag"), len("micro")] + [len(t) for t in tags])
        header = f"{'tag':<{width}} {'w/o D&G':>9} {'w/ D&G':>9} {'ΔF1':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for tag in sorted(tags):
            c = tags[tag]
            lines.append(
                f"{tag:<{width}} {format_pct(c.f1_without):>9} "
                f"{format_pct(c.f1_with):>9} {format_delta(c.delta):>10}"
            )
        m = report.micro.get(name)
        if m is not None:
            lines.append(
                f"{'micro':<{width}} {format_pct(m.f1_without):>9} "
                f"{format_pct(m.f1_with):>9} {format_delta(m.delta):>10}"
            )
    return "\n".join(lines) + "\n"

