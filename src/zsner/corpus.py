"""BIO corpus parsing, dataset files, and tiered benchmark assembly.

Documents carry character-offset mentions; BIO input is detokenized by
joining tokens with single spaces (token-level corpora do not preserve the
original spacing). Benchmarks group datasets into in-domain, out-of-domain
and unseen-entity-type tiers with support-based tag filtering.
"""

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from zsner.errors import (
    AssemblyError,
    BioParseError,
    ConfigError,
    DatasetFormatError,
    EncodingAlignmentError,
    read_json,
    write_json,
)

TIER_IN_DOMAIN = "in_domain"
TIER_OUT_OF_DOMAIN = "out_of_domain"
TIER_UNSEEN_NE = "unseen_ne"
TIER_KINDS = (TIER_IN_DOMAIN, TIER_OUT_OF_DOMAIN, TIER_UNSEEN_NE)

DEFAULT_MIN_SUPPORT = 5

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int


@dataclass(frozen=True)
class Mention:
    tag_id: str
    surface: str
    start: int
    end: int


@dataclass
class Document:
    doc_id: str
    text: str
    domain: str = ""
    mentions: list[Mention] = field(default_factory=list)

    def __post_init__(self):
        if not self.doc_id:
            raise DatasetFormatError("document with empty doc_id")
        for m in self.mentions:
            if m.end <= m.start:
                raise DatasetFormatError(
                    f"{self.doc_id}: mention {m.tag_id!r} has empty span {m.start}..{m.end}"
                )
            if self.text[m.start : m.end] != m.surface:
                raise DatasetFormatError(
                    f"{self.doc_id}: mention surface {m.surface!r} does not match "
                    f"text[{m.start}:{m.end}] = {self.text[m.start:m.end]!r}"
                )


def default_detok(tokens: Sequence[str]) -> tuple[str, list[Token]]:
    """Join tokens with single spaces, tracking character offsets."""
    parts: list[str] = []
    offsets: list[Token] = []
    pos = 0
    for tok in tokens:
        if parts:
            parts.append(" ")
            pos += 1
        offsets.append(Token(tok, pos, pos + len(tok)))
        parts.append(tok)
        pos += len(tok)
    return "".join(parts), offsets


def _split_label(label: str, line_no: int | None) -> tuple[str, str]:
    if label == "O":
        return "O", ""
    prefix, sep, tag = label.partition("-")
    if not sep or prefix not in ("B", "I") or not tag:
        raise BioParseError(f"unknown label scheme prefix in {label!r}", line_no)
    return prefix, tag


def _canonical_tag(raw_tag: str, aliases: dict[str, str] | None) -> str:
    if aliases and raw_tag in aliases:
        return aliases[raw_tag]
    return raw_tag.lower()


def parse_bio(
    token_tag_stream: Iterable,
    *,
    aliases: dict[str, str] | None = None,
    domain: str = "",
    doc_id_prefix: str = "doc",
    strict: bool = False,
) -> list[Document]:
    """Decode a BIO token/label stream into offset-annotated documents.

    Items are either text lines (``token<TAB>label``, blank line separating
    documents) or already-split ``(token, label)`` pairs (``None`` separates
    documents). Orphan I- labels open a new entity unless ``strict``.
    """
    docs: list[Document] = []
    tokens: list[str] = []
    labels: list[str] = []
    pending_lines: list[int | None] = []

    def flush():
        if not tokens:
            return
        text, offsets = default_detok(tokens)
        mentions: list[Mention] = []
        open_tag: str | None = None
        span_start = span_end = 0

        def close():
            nonlocal open_tag
            if open_tag is not None:
                mentions.append(
                    Mention(open_tag, text[span_start:span_end], span_start, span_end)
                )
                open_tag = None

        for tok, label, line_no in zip(offsets, labels, pending_lines):
            prefix, raw_tag = _split_label(label, line_no)
            tag = _canonical_tag(raw_tag, aliases) if raw_tag else ""
            if prefix == "O":
                close()
            elif prefix == "B":
                close()
                open_tag = tag
                span_start, span_end = tok.start, tok.end
            else:  # I-
                if open_tag == tag:
                    span_end = tok.end
                else:
                    if strict:
                        raise BioParseError(
                            f"orphan I-{raw_tag} (previous entity is "
                            f"{open_tag or 'none'})",
                            line_no,
                        )
                    close()
                    open_tag = tag
                    span_start, span_end = tok.start, tok.end
        close()
        docs.append(
            Document(f"{doc_id_prefix}-{len(docs):05d}", text, domain, mentions)
        )
        tokens.clear()
        labels.clear()
        pending_lines.clear()

    for line_no, item in enumerate(token_tag_stream, start=1):
        if item is None:
            flush()
            continue
        if isinstance(item, str):
            if not item.strip():
                flush()
                continue
            fields = item.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise BioParseError(
                    f"expected 2 tab-separated columns, got {len(fields)}", line_no
                )
            token, label = fields
        else:
            try:
                token, label = item
            except (TypeError, ValueError):
                raise BioParseError(f"expected (token, label) pair, got {item!r}", line_no)
        if not token:
            raise BioParseError("empty token text", line_no)
        tokens.append(token)
        labels.append(label)
        pending_lines.append(line_no)
    flush()
    return docs


def encode_bio(doc: Document) -> list[tuple[str, str]]:
    """Inverse of parse_bio for documents whose mentions align to tokens."""
    tokens = [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(doc.text)]
    labels = ["O"] * len(tokens)
    for m in sorted(doc.mentions, key=lambda m: m.start):
        covered = [i for i, t in enumerate(tokens) if t.start < m.end and t.end > m.start]
        if (
            not covered
            or tokens[covered[0]].start != m.start
            or tokens[covered[-1]].end != m.end
        ):
            raise EncodingAlignmentError(
                f"{doc.doc_id}: mention {m.tag_id} {m.surface!r} @{m.start}..{m.end} "
                "does not align to token boundaries"
            )
        for j, i in enumerate(covered):
            if labels[i] != "O":
                raise EncodingAlignmentError(
                    f"{doc.doc_id}: mention {m.tag_id} {m.surface!r} overlaps another mention"
                )
            labels[i] = ("B-" if j == 0 else "I-") + m.tag_id
    return [(t.surface, label) for t, label in zip(tokens, labels)]


def tag_inventory(docs: Iterable[Document]) -> dict[str, int]:
    """Mention support count per tag over the given documents."""
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(m.tag_id for m in doc.mentions)
    return dict(counts)


# --------------------------------------------------------------------------
# dataset files (one JSON record per line)


def save_dataset(docs: Sequence[Document], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            rec = {
                "doc_id": d.doc_id,
                "text": d.text,
                "domain": d.domain,
                "mentions": [
                    {"tag": m.tag_id, "surface": m.surface, "start": m.start, "end": m.end}
                    for m in d.mentions
                ],
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_dataset(path: str | Path) -> list[Document]:
    docs: list[Document] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    raise DatasetFormatError(f"{path}:{line_no}: invalid JSON ({e})")
                try:
                    doc = Document(
                        rec["doc_id"],
                        rec["text"],
                        rec.get("domain", ""),
                        [
                            Mention(m["tag"], m["surface"], m["start"], m["end"])
                            for m in rec.get("mentions", [])
                        ],
                    )
                except (KeyError, TypeError) as e:
                    raise DatasetFormatError(f"{path}:{line_no}: missing field ({e})")
                except DatasetFormatError as e:
                    raise DatasetFormatError(f"{path}:{line_no}: {e}")
                if doc.doc_id in seen:
                    raise DatasetFormatError(
                        f"{path}:{line_no}: duplicate doc_id {doc.doc_id!r}"
                    )
                seen.add(doc.doc_id)
                docs.append(doc)
        except UnicodeDecodeError as e:  # raised while reading, not by json.loads
            raise DatasetFormatError(f"{path} is not UTF-8: {e}")
    return docs


# --------------------------------------------------------------------------
# benchmark assembly


@dataclass(frozen=True)
class BenchmarkTier:
    name: str
    kind: str
    dataset_ids: tuple[str, ...]
    tag_ids: tuple[str, ...]


@dataclass
class Benchmark:
    benchmark_id: str
    training_dataset: str
    training_tags: tuple[str, ...]
    tiers: list[BenchmarkTier]
    min_support: int
    dataset_paths: dict[str, str] = field(default_factory=dict)
    doc_ids: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def tier(self, name: str) -> BenchmarkTier:
        for t in self.tiers:
            if t.name == name:
                return t
        raise ConfigError(f"no tier named {name!r}")

    def all_tags(self) -> list[str]:
        seen: dict[str, None] = {}
        for t in self.tiers:
            for tag in t.tag_ids:
                seen.setdefault(tag)
        return list(seen)

    def cells(self) -> "Grid":
        """Each distinct (doc_id, tag) cell of the tier grids once, with the
        names of the tiers it counts in.

        Tier order, then dataset, document and tag order fix the sequence; a
        cell that two tiers share comes where the first of them puts it. The
        view holds an entry per document, a walk a set of one tier's
        documents, and len() counts without walking the cells.
        """
        tiers, doc_ids = self.tiers, self.doc_ids
        held: dict[str, int] = {}  # doc_id -> bit set of the tiers it is in
        for i, tier in enumerate(tiers):
            for ds in tier.dataset_ids:
                for doc_id in doc_ids.get(ds, ()):
                    held[doc_id] = held.get(doc_id, 0) | 1 << i
        # rows[i][bits]: (tag, tier names) of each cell tier i puts first for
        # a document in the tiers of `bits`
        rows: list[dict[int, list]] = [{} for _ in tiers]
        size = 0
        for bits, n_docs in Counter(held.values()).items():
            first: dict[str, tuple[int, tuple[str, ...]]] = {}
            for i, tier in enumerate(tiers):
                for tag in tier.tag_ids if bits >> i & 1 else ():
                    j, names = first.get(tag, (i, ()))
                    if tier.name not in names:
                        first[tag] = (j, names + (tier.name,))
            for i, by_bits in enumerate(rows):
                by_bits[bits] = [(tag, names) for tag, (j, names) in first.items() if j == i]
            size += n_docs * len(first)

        def walk() -> Iterator[tuple[tuple[str, str], tuple[str, ...]]]:
            for tier, by_bits in zip(tiers, rows):
                seen: set[str] = set()
                for ds in tier.dataset_ids:
                    for doc_id in doc_ids.get(ds, ()):
                        if doc_id not in seen:
                            seen.add(doc_id)
                            for tag, names in by_bits[held[doc_id]]:
                                yield (doc_id, tag), names

        return Grid(size, walk)


class Grid:
    """A sized view of a benchmark grid, walked afresh on each pass: len()
    is its size and iter() calls walk()."""

    def __init__(self, size: int, walk: Callable[[], Iterator]):
        self._size = size
        self._walk = walk

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        return self._walk()


def validate_benchmark(benchmark: Benchmark) -> None:
    training = set(benchmark.training_tags)
    for tier in benchmark.tiers:
        if tier.kind not in TIER_KINDS:
            raise AssemblyError(f"tier {tier.name!r}: unknown kind {tier.kind!r}")
        if not tier.tag_ids:
            raise AssemblyError(f"tier {tier.name!r} has no tags")
        missing = [d for d in tier.dataset_ids if d not in benchmark.doc_ids]
        if missing:
            raise AssemblyError(f"tier {tier.name!r} references unloaded datasets {missing}")
        tags = set(tier.tag_ids)
        if tier.kind == TIER_UNSEEN_NE and tags & training:
            raise AssemblyError(
                f"unseen tier {tier.name!r} overlaps training tags: {sorted(tags & training)}"
            )
        if tier.kind == TIER_IN_DOMAIN and not tags <= training:
            raise AssemblyError(
                f"in-domain tier {tier.name!r} has tags outside training: "
                f"{sorted(tags - training)}"
            )


def assemble_benchmark(
    datasets: dict[str, list[Document]], config: dict
) -> Benchmark:
    """Resolve tier tag sets from a benchmark config plus loaded datasets.

    Tag resolution: seen-tag tiers (in_domain, out_of_domain) evaluate the
    training tags; the unseen tier takes every tag present in its datasets
    minus training tags and explicit exclusions. All tiers drop tags whose
    support in the tier's own evaluation data is below min_support.
    """
    try:
        training_dataset = config["training"]["dataset"]
        training_tags = tuple(config["training"]["tags"])
        tier_specs = config["tiers"]
    except (KeyError, TypeError) as e:
        raise ConfigError(f"benchmark config missing field: {e}")
    min_support = int(config.get("min_support", DEFAULT_MIN_SUPPORT))
    excluded = set(config.get("excluded_tags", ()))

    if training_dataset not in datasets:
        raise ConfigError(f"training dataset {training_dataset!r} not loaded")

    referenced = {training_dataset}
    seen_doc_ids: dict[str, str] = {}
    for key, docs in datasets.items():
        for d in docs:
            prev = seen_doc_ids.get(d.doc_id)
            if prev is not None and prev != key:
                raise AssemblyError(
                    f"doc_id {d.doc_id!r} appears in datasets {prev!r} and {key!r}"
                )
            seen_doc_ids[d.doc_id] = key

    tiers: list[BenchmarkTier] = []
    for i, spec in enumerate(tier_specs):
        kind = spec.get("kind")
        if kind not in TIER_KINDS:
            raise ConfigError(f"tier #{i}: kind must be one of {TIER_KINDS}, got {kind!r}")
        ds_keys = tuple(spec.get("datasets", ()))
        if not ds_keys:
            raise ConfigError(f"tier #{i} ({kind}): no datasets listed")
        missing = [k for k in ds_keys if k not in datasets]
        if missing:
            raise ConfigError(f"tier #{i} ({kind}): datasets not loaded: {missing}")
        referenced.update(ds_keys)
        name = spec.get("name") or f"{kind}:{'+'.join(ds_keys)}"

        tier_docs = [d for k in ds_keys for d in datasets[k]]
        support = tag_inventory(tier_docs)
        if kind == TIER_UNSEEN_NE:
            candidates = sorted(set(support) - set(training_tags) - excluded)
        else:
            candidates = [t for t in training_tags if t not in excluded]
        tags = tuple(t for t in candidates if support.get(t, 0) >= min_support)
        if not tags:
            raise AssemblyError(
                f"tier {name!r} is empty after exclusions and min_support={min_support}"
            )
        tiers.append(BenchmarkTier(name, kind, ds_keys, tags))

    names = [t.name for t in tiers]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate tier names: {names}")

    dataset_paths = {k: str(v) for k, v in config.get("datasets", {}).items()}
    benchmark_id = config.get("benchmark_id") or _derive_benchmark_id(
        training_dataset, training_tags, tiers, min_support
    )
    benchmark = Benchmark(
        benchmark_id=benchmark_id,
        training_dataset=training_dataset,
        training_tags=training_tags,
        tiers=tiers,
        min_support=min_support,
        dataset_paths=dataset_paths,
        doc_ids={k: tuple(d.doc_id for d in datasets[k]) for k in sorted(referenced)},
    )
    validate_benchmark(benchmark)
    return benchmark


def _derive_benchmark_id(training_dataset, training_tags, tiers, min_support) -> str:
    payload = json.dumps(
        {
            "training": [training_dataset, list(training_tags)],
            "tiers": [[t.name, t.kind, list(t.dataset_ids), list(t.tag_ids)] for t in tiers],
            "min_support": min_support,
        },
        sort_keys=True,
    )
    return "bench-" + hashlib.sha256(payload.encode()).hexdigest()[:10]


def save_benchmark(benchmark: Benchmark, path: str | Path) -> None:
    """Write the benchmark manifest (tiers, dataset keys, tag ids, min_support)."""
    manifest = {
        "benchmark_id": benchmark.benchmark_id,
        "min_support": benchmark.min_support,
        "training": {
            "dataset": benchmark.training_dataset,
            "tags": list(benchmark.training_tags),
        },
        "datasets": dict(sorted(benchmark.dataset_paths.items())),
        "tiers": [
            {
                "name": t.name,
                "kind": t.kind,
                "dataset_ids": list(t.dataset_ids),
                "tag_ids": list(t.tag_ids),
            }
            for t in benchmark.tiers
        ],
    }
    write_json(manifest, path)


def load_benchmark(path: str | Path) -> tuple[Benchmark, dict[str, Document]]:
    """Read a manifest and the documents of the dataset files its tiers
    evaluate, by doc_id (paths are resolved relative to the manifest's
    directory). A doc_id in two tier datasets is one document if the texts
    agree. The training dataset is needed only for assembly and is not read."""
    path = Path(path)
    manifest = read_json(path, "benchmark manifest")

    def strings(value, field: str) -> tuple[str, ...]:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"benchmark manifest {path}: {field} must be a list of strings")
        return tuple(value)

    try:
        dataset_paths = manifest["datasets"]
        tiers = [
            BenchmarkTier(t["name"], t["kind"],
                          strings(t["dataset_ids"], f"tier {t['name']!r} dataset_ids"),
                          strings(t["tag_ids"], f"tier {t['name']!r} tag_ids"))
            for t in manifest["tiers"]
        ]
        min_support = manifest["min_support"]
        if not isinstance(min_support, int) or isinstance(min_support, bool):
            raise ConfigError(f"benchmark manifest {path}: min_support must be an integer")
        benchmark = Benchmark(
            benchmark_id=manifest["benchmark_id"],
            training_dataset=manifest["training"]["dataset"],
            training_tags=strings(manifest["training"]["tags"], "training tags"),
            tiers=tiers,
            min_support=min_support,
            dataset_paths={k: str(v) for k, v in dataset_paths.items()},
        )
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise ConfigError(f"benchmark manifest {path} missing or bad field: {e!r}")

    docs: dict[str, Document] = {}
    for key in dict.fromkeys(ds for t in benchmark.tiers for ds in t.dataset_ids):
        if key not in benchmark.dataset_paths:
            continue  # validate_benchmark names it
        ds_path = Path(benchmark.dataset_paths[key])
        if not ds_path.is_absolute():
            ds_path = path.parent / ds_path
        if not ds_path.exists():
            raise ConfigError(f"dataset {key!r}: file not found: {ds_path}")
        loaded = load_dataset(ds_path)
        for doc in loaded:
            if docs.setdefault(doc.doc_id, doc).text != doc.text:
                raise DatasetFormatError(
                    f"{ds_path}: doc_id {doc.doc_id!r} has other text in another tier dataset"
                )
        benchmark.doc_ids[key] = tuple(d.doc_id for d in loaded)
    validate_benchmark(benchmark)
    return benchmark, docs
