"""BIO corpus parsing, dataset files, and tiered benchmark assembly.

Documents carry character-offset mentions; BIO input is detokenized by
joining tokens with single spaces (token-level corpora do not preserve the
original spacing). Benchmarks group datasets into in-domain, out-of-domain
and unseen-entity-type tiers with support-based tag filtering.
"""

import json
import re
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from zsner.errors import (
    AssemblyError,
    BioParseError,
    ConfigError,
    DatasetFormatError,
    EncodingAlignmentError,
    check_field,
    read_json,
    read_jsonl,
    write_json,
    write_lines,
)

TIER_IN_DOMAIN = "in_domain"
TIER_OUT_OF_DOMAIN = "out_of_domain"
TIER_UNSEEN_NE = "unseen_ne"
TIER_KINDS = (TIER_IN_DOMAIN, TIER_OUT_OF_DOMAIN, TIER_UNSEEN_NE)

DEFAULT_MIN_SUPPORT = 5

# the two prompt variants of a run: with and without the D&G block
WITH_DG = "with_dg"
WITHOUT_DG = "without_dg"
VARIANTS = (WITH_DG, WITHOUT_DG)

_TOKEN_RE = re.compile(r"\S+")


class Mention(NamedTuple):
    tag_id: str
    surface: str
    start: int
    end: int


class Document:
    __slots__ = ("doc_id", "text", "domain", "mentions")

    def __init__(self, doc_id: str, text: str, domain: str = "",
                 mentions: list[Mention] | None = None):
        self.doc_id, self.text, self.domain = doc_id, text, domain
        self.mentions = [] if mentions is None else mentions
        if not (isinstance(self.doc_id, str) and isinstance(self.text, str)
                and isinstance(self.domain, str)):
            for key in ("doc_id", "text", "domain"):
                check_field(getattr(self, key), str, repr(key), DatasetFormatError)
        if not self.doc_id:
            raise DatasetFormatError("document with empty doc_id")
        for m in self.mentions:
            if not (isinstance(m.tag_id, str) and isinstance(m.surface, str)
                    and type(m.start) is int and type(m.end) is int):
                for key, value, kind in (("tag", m.tag_id, str), ("surface", m.surface, str),
                                         ("start", m.start, int), ("end", m.end, int)):
                    check_field(value, kind, f"{self.doc_id}: mention {key!r}", DatasetFormatError)
            if not 0 <= m.start < m.end <= len(self.text):
                raise DatasetFormatError(
                    f"{self.doc_id}: mention {m.tag_id!r} has span {m.start}..{m.end}, empty "
                    f"or outside the text of {len(self.text)} characters")
            if self.text[m.start : m.end] != m.surface:
                raise DatasetFormatError(
                    f"{self.doc_id}: mention surface {m.surface!r} does not match "
                    f"text[{m.start}:{m.end}] = {self.text[m.start:m.end]!r}"
                )

    def __eq__(self, other) -> bool:
        return type(other) is Document and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


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


def _bio_document(rows: list[tuple[str, str, int]], doc_id: str, domain: str,
                  aliases: dict[str, str] | None, strict: bool) -> Document:
    """One document from its (token, label, line_no) rows: the tokens joined
    with single spaces, the labels decoded into mentions in one walk."""
    text = " ".join(token for token, _, _ in rows)
    spans: list[list] = []  # [tag, start, end]; the last is open while open_tag is set
    open_tag: str | None = None
    pos = 0
    for token, label, line_no in rows:
        start = pos
        pos += len(token) + 1
        prefix, raw_tag = _split_label(label, line_no)
        if prefix == "O":
            open_tag = None
            continue
        tag = _canonical_tag(raw_tag, aliases)
        if prefix == "I" and open_tag == tag:
            spans[-1][2] = pos - 1
            continue
        if prefix == "I" and strict:
            raise BioParseError(
                f"orphan I-{raw_tag} (previous entity is {open_tag or 'none'})", line_no
            )
        open_tag = tag  # B-, or an orphan I- that opens an entity
        spans.append([tag, start, pos - 1])
    return Document(doc_id, text, domain, [Mention(tag, text[s:e], s, e) for tag, s, e in spans])


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
    rows: list[tuple[str, str, int]] = []
    # the None after the last item ends the last document
    for line_no, item in enumerate(chain(token_tag_stream, [None]), start=1):
        if item is None or isinstance(item, str) and not item.strip():
            if rows:
                docs.append(_bio_document(rows, f"{doc_id_prefix}-{len(docs):05d}", domain,
                                          aliases, strict))
                rows = []
            continue
        if isinstance(item, str):
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
            if token and not (isinstance(token, str) and isinstance(label, str)):
                raise BioParseError(f"expected a pair of strings, got {item!r}", line_no)
        if not token:
            raise BioParseError("empty token text", line_no)
        rows.append((token, label, line_no))
    return docs


def encode_bio(doc: Document) -> list[tuple[str, str]]:
    """Inverse of parse_bio for documents whose mentions align to tokens."""
    tokens = list(_TOKEN_RE.finditer(doc.text))
    labels = ["O"] * len(tokens)
    for m in sorted(doc.mentions, key=lambda m: m.start):
        covered = [i for i, t in enumerate(tokens) if t.start() < m.end and t.end() > m.start]
        if (
            not covered
            or tokens[covered[0]].start() != m.start
            or tokens[covered[-1]].end() != m.end
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
    return [(t.group(), label) for t, label in zip(tokens, labels)]


def tag_inventory(docs: Iterable[Document]) -> dict[str, int]:
    """Mention support count per tag over the given documents."""
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(m.tag_id for m in doc.mentions)
    return dict(counts)


# --------------------------------------------------------------------------
# dataset files (one JSON record per line)


def save_dataset(docs: Sequence[Document], path: str | Path) -> None:
    write_lines(path, (json.dumps({
        "doc_id": d.doc_id, "text": d.text, "domain": d.domain,
        "mentions": [{"tag": m.tag_id, "surface": m.surface, "start": m.start, "end": m.end}
                     for m in d.mentions]}, ensure_ascii=False) for d in docs))


def iter_dataset(path: str | Path) -> Iterator[Document]:
    """Each document of a dataset file, in file order, as its line is read;
    the file is opened at the first step. A malformed line, a doc_id seen
    before in the file or a line that is not UTF-8 raises DatasetFormatError
    naming path:line (or the path), an unreadable file a ConfigError."""
    seen: set[str] = set()
    try:
        for line_no, rec in read_jsonl(path, DatasetFormatError):
            try:
                mentions = rec.get("mentions", [])
                if not (type(mentions) is list and all(type(m) is dict for m in mentions)):
                    check_field(mentions, list[dict], "'mentions'", DatasetFormatError)
                doc = Document(rec.get("doc_id"), rec.get("text"), rec.get("domain", ""), [
                    Mention(m.get("tag"), m.get("surface"), m.get("start"), m.get("end"))
                    for m in mentions])
            except DatasetFormatError as e:
                raise DatasetFormatError(f"{path}:{line_no}: {e}") from None
            if doc.doc_id in seen:
                raise DatasetFormatError(f"{path}:{line_no}: duplicate doc_id {doc.doc_id!r}")
            seen.add(doc.doc_id)
            yield doc
    except OSError as e:  # missing, a directory, unreadable
        raise ConfigError(f"cannot read dataset {path}: {e.strerror}") from None


def load_dataset(path: str | Path) -> list[Document]:
    return list(iter_dataset(path))


# --------------------------------------------------------------------------
# benchmark assembly


class BenchmarkTier(NamedTuple):
    name: str
    kind: str
    dataset_ids: tuple[str, ...]
    tag_ids: tuple[str, ...]


class Benchmark:
    __slots__ = ("benchmark_id", "training_dataset", "training_tags", "tiers", "min_support",
                 "dataset_paths", "doc_ids")

    def __init__(self, benchmark_id: str, training_dataset: str, training_tags: tuple[str, ...],
                 tiers: list[BenchmarkTier], min_support: int,
                 dataset_paths: dict[str, str] | None = None,
                 doc_ids: dict[str, tuple[str, ...]] | None = None):
        self.benchmark_id, self.training_dataset = benchmark_id, training_dataset
        self.training_tags, self.tiers, self.min_support = training_tags, tiers, min_support
        self.dataset_paths = {} if dataset_paths is None else dataset_paths
        self.doc_ids = {} if doc_ids is None else doc_ids

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


def job_id_for(doc_id: str, tag_id: str, variant: str, template_id: str, adapter_id: str) -> str:
    import hashlib  # here, as below: most commands hash nothing
    key = "\x1e".join([doc_id, tag_id, variant, template_id, adapter_id])
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def grid_job_ids(cells: Iterable, grid: tuple[str, str, str]) -> Iterator[tuple]:
    """(job_id_for(*cell, *grid), cell, tier names) of each cell of a
    Benchmark.cells() walk, in its order; `grid` is (variant, template_id,
    adapter_id). The key's document part is hashed once per run of one
    document's cells, and the hash copied for each tag."""
    import hashlib
    tails: dict[str, bytes] = {}  # tag -> the key after "<doc_id>\x1e"
    last = None
    for cell, names in cells:
        if cell[0] != last:
            last = cell[0]
            primed = hashlib.sha256(f"{last}\x1e".encode())
        tail = tails.get(cell[1])
        if tail is None:
            tail = tails[cell[1]] = "\x1e".join([cell[1], *grid]).encode()
        digest = primed.copy()
        digest.update(tail)
        yield digest.hexdigest()[:16], cell, names


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
    datasets: dict[str, list[Document]], config: dict, source: str = "benchmark config"
) -> Benchmark:
    """Resolve tier tag sets from a benchmark config plus loaded datasets;
    a field of the wrong type is a ConfigError naming `source`.

    Tag resolution: seen-tag tiers (in_domain, out_of_domain) evaluate the
    training tags; the unseen tier takes every tag present in its datasets
    minus training tags and explicit exclusions. All tiers drop tags whose
    support in the tier's own evaluation data is below min_support.
    """
    training = check_field(config, dict, f"{source}: training", key="training")
    training_dataset = check_field(training, str, f"{source}: training dataset", key="dataset")
    training_tags = check_field(training, list[str], f"{source}: training tags", key="tags")
    tier_specs = check_field(config, list[dict], f"{source}: tiers", key="tiers")
    min_support = check_field(config.get("min_support", DEFAULT_MIN_SUPPORT), int,
                              f"{source}: min_support")
    excluded = set(check_field(config.get("excluded_tags", []), list[str],
                               f"{source}: excluded_tags"))

    if training_dataset not in datasets:
        raise ConfigError(f"{source}: training dataset {training_dataset!r} not loaded")

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
            raise ConfigError(f"{source}: tier #{i}: kind must be one of {TIER_KINDS}, "
                              f"got {kind!r}")
        what = f"{source}: tier #{i} ({kind})"
        ds_keys = check_field(spec.get("datasets", []), list[str], f"{what} datasets")
        if not ds_keys:
            raise ConfigError(f"{what}: no datasets listed")
        missing = [k for k in ds_keys if k not in datasets]
        if missing:
            raise ConfigError(f"{what}: datasets not loaded: {missing}")
        referenced.update(ds_keys)
        name = (check_field(spec.get("name", ""), str, f"{what} name")
                or f"{kind}:{'+'.join(ds_keys)}")

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
        raise ConfigError(f"{source}: duplicate tier names: {names}")

    dataset_paths = {k: str(v) for k, v in config.get("datasets", {}).items()}
    benchmark_id = (check_field(config.get("benchmark_id", ""), str, f"{source}: benchmark_id")
                    or _derive_benchmark_id(training_dataset, training_tags, tiers, min_support))
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
    import hashlib
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


def open_benchmark(path: str | Path) -> tuple[Benchmark, Iterator[Document]]:
    """(benchmark, documents) of a manifest: the manifest is read and checked
    here, the dataset files its tiers evaluate (paths resolved relative to the
    manifest's directory) as the documents are iterated. Each distinct
    document comes once, as its line is read; a doc_id in two tier datasets is
    one document if the texts agree, and a DatasetFormatError if they differ.
    The stream fills benchmark.doc_ids one dataset at a time and validates the
    benchmark after the last. The training dataset is needed only for
    assembly and is not read."""
    path = Path(path)
    manifest = read_json(path, "benchmark manifest")

    where = f"benchmark manifest {path}"
    tiers = []
    for t in check_field(manifest, list[dict], f"{where}: tiers", key="tiers"):
        name = check_field(t, str, f"{where}: tier name", key="name")
        tiers.append(BenchmarkTier(  # validate_benchmark checks the kind
            name, t.get("kind"),
            check_field(t, list[str], f"{where}: tier {name!r} dataset_ids", key="dataset_ids"),
            check_field(t, list[str], f"{where}: tier {name!r} tag_ids", key="tag_ids")))
    training = check_field(manifest, dict, f"{where}: training", key="training")
    datasets = check_field(manifest, dict, f"{where}: datasets", key="datasets")
    benchmark = Benchmark(
        benchmark_id=check_field(manifest, str, f"{where}: benchmark_id", key="benchmark_id"),
        training_dataset=check_field(training, str, f"{where}: training dataset", key="dataset"),
        training_tags=check_field(training, list[str], f"{where}: training tags", key="tags"),
        tiers=tiers,
        min_support=check_field(manifest, int, f"{where}: min_support", key="min_support"),
        dataset_paths={k: check_field(v, str, f"{where}: dataset {k!r}")
                       for k, v in datasets.items()},
    )

    def documents() -> Iterator[Document]:
        texts: dict[str, str] = {}  # doc_id -> text, for the twin check
        for key in dict.fromkeys(ds for t in benchmark.tiers for ds in t.dataset_ids):
            if key not in benchmark.dataset_paths:
                continue  # validate_benchmark names it
            ds_path = Path(benchmark.dataset_paths[key])
            if not ds_path.is_absolute():
                ds_path = path.parent / ds_path
            ids = []
            for doc in iter_dataset(ds_path):
                ids.append(doc.doc_id)
                text = texts.get(doc.doc_id)
                if text is None:
                    texts[doc.doc_id] = doc.text
                    yield doc
                elif text != doc.text:
                    raise DatasetFormatError(f"{ds_path}: doc_id {doc.doc_id!r} has other "
                                             f"text in another tier dataset")
            benchmark.doc_ids[key] = tuple(ids)
        validate_benchmark(benchmark)

    return benchmark, documents()


def load_benchmark(path: str | Path) -> tuple[Benchmark, dict[str, Document]]:
    """open_benchmark's benchmark and its documents read to the end, by doc_id."""
    benchmark, documents = open_benchmark(path)
    return benchmark, {doc.doc_id: doc for doc in documents}
