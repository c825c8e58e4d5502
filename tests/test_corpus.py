import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXTRA_TAGS, TRAINING_TAGS, add_twin, build_benchmark_tree, make_dataset
from oracles import oracle_cells
from zsner import corpus
from zsner.errors import (
    AssemblyError,
    BioParseError,
    ConfigError,
    DatasetFormatError,
    EncodingAlignmentError,
)

BIO_LINES = [
    "Alcide\tB-PER",
    "De\tI-PER",
    "Gasperi\tI-PER",
    "visitò\tO",
    "Roma\tB-LOC",
    ".\tO",
    "",
    "La\tO",
    "FIAT\tB-ORG",
    "di\tO",
    "Torino\tB-LOC",
]


def test_parse_bio_basic():
    docs = corpus.parse_bio(BIO_LINES, aliases={"PER": "person", "ORG": "organization", "LOC": "location"})
    assert len(docs) == 2
    d0 = docs[0]
    assert d0.text == "Alcide De Gasperi visitò Roma ."
    assert [(m.tag_id, m.surface) for m in d0.mentions] == [
        ("person", "Alcide De Gasperi"),
        ("location", "Roma"),
    ]
    for m in d0.mentions:
        assert d0.text[m.start : m.end] == m.surface
    assert docs[1].mentions[0].tag_id == "organization"


def test_parse_bio_unmapped_tag_lowercases():
    docs = corpus.parse_bio(["Po\tB-RIVER"])
    assert docs[0].mentions[0].tag_id == "river"


def test_parse_bio_tuple_stream_with_none_separator():
    docs = corpus.parse_bio([("Roma", "B-LOC"), None, ("Milano", "B-LOC")])
    assert len(docs) == 2


def test_parse_bio_orphan_i_lenient_opens_entity():
    docs = corpus.parse_bio(["Gasperi\tI-PER", "visitò\tO"])
    assert [(m.tag_id, m.surface) for m in docs[0].mentions] == [("per", "Gasperi")]


def test_parse_bio_tag_switch_inside_entity():
    # I- with a different tag than the open entity closes it and opens anew
    docs = corpus.parse_bio(["Roma\tB-LOC", "FIAT\tI-ORG"])
    assert [(m.tag_id, m.surface) for m in docs[0].mentions] == [
        ("loc", "Roma"),
        ("org", "FIAT"),
    ]


def test_parse_bio_strict_rejects_orphan_i():
    with pytest.raises(BioParseError) as exc:
        corpus.parse_bio(["Gasperi\tI-PER"], strict=True)
    assert exc.value.line_no == 1


def test_parse_bio_rejects_bad_prefix_and_columns():
    with pytest.raises(BioParseError):
        corpus.parse_bio(["Roma\tX-LOC"])
    with pytest.raises(BioParseError):
        corpus.parse_bio(["Roma B-LOC"])  # space, not tab
    with pytest.raises(BioParseError):
        corpus.parse_bio(["Roma\tB-LOC\textra"])


def _decoded(stream, **kwargs) -> list:
    """What parse_bio returns for stream, as plain data: each document's
    (doc_id, text, domain, mentions), or the error's class, message and line."""
    try:
        docs = corpus.parse_bio(stream, **kwargs)
    except BioParseError as e:
        return [type(e).__name__, str(e), e.line_no]
    return [[d.doc_id, d.text, d.domain, [[m.tag_id, m.surface, m.start, m.end]
                                          for m in d.mentions]] for d in docs]


def _seeded_bio_stream(rng: random.Random) -> list:
    """Documents of text lines and (token, label) pairs mixed, split by blank
    lines and None; orphan I- labels, tag switches, aliased tags and not."""
    items: list = []
    for _ in range(rng.randint(1, 5)):
        for _ in range(rng.choice([0, 1, 2, 3, 4, 6, 9])):
            token = rng.choice(["Roma", "De", "Gasperi", "città", "«", "l'", "di", "FIAT"])
            label = rng.choice(["O", "O", "O", "B-PER", "I-PER", "B-LOC", "I-LOC",
                                "B-ORG", "I-ORG", "I-Misc", "B-Misc"])
            items.append(f"{token}\t{label}\n" if rng.random() < 0.5 else (token, label))
        items.extend(rng.choice([None, "", "\n", " \t\n"]) for _ in range(rng.randint(0, 2)))
    return items


# Malformed streams; each raises where it is, except that a label error
# waits for the end of its document.
_MALFORMED_BIO = [
    ["Roma\tB-LOC", "Milano"],
    ["Roma\tB-LOC", "Milano\tB-LOC\tx"],
    ["Roma\tB-LOC", "\tO"],
    [("Roma", "B-LOC"), ("", "O")],
    [("Roma", "B-LOC"), (None, "O")],
    [("Roma", "B-LOC", "x")],
    [("Roma",)],
    [5],
    [b"Roma\tO"],
    ["Roma\tB-LOC", "Milano\tX-LOC"],
    ["Roma\tB-", "Milano\tO"],
    ["Roma\tB", "Milano\tO"],
    ["Roma\tO\r\n"],
    [("Roma", "LOC")],
    ["Roma\tX-LOC", "Milano\tO", "Torino\tO\tO"],  # column error first
    ["Roma\tX-LOC", "", "Torino\tO\tO"],  # label error first
    [None, "Roma\tO", None, None, "", "Milano\tI-", "Po\tO"],
]


def test_parse_bio_decodes_a_seeded_stream_as_pinned():
    rng = random.Random(20241019)
    aliases = {"PER": "person", "LOC": "location", "Misc": "miscellaneous"}
    out = []
    for i in range(150):
        stream = _seeded_bio_stream(rng)
        kwargs = {"aliases": aliases} if i % 3 else {}
        if i % 5 == 0:
            kwargs.update(domain="wiki", doc_id_prefix=f"s{i}")
        out.append(_decoded(stream, **kwargs))
        out.append(_decoded(iter(stream), strict=True, **kwargs))
    out.extend(_decoded(stream) for stream in _MALFORMED_BIO)
    out.extend(_decoded(stream, strict=True) for stream in [
        ["Roma\tI-LOC"], ["Roma\tB-LOC", "FIAT\tI-ORG"], ["Roma\tB-LOC", "", "Po\tI-LOC"]])
    errors = [o for o in out if o and isinstance(o[0], str)]
    docs = [d for o in out if o and not isinstance(o[0], str) for d in o]
    assert (len(errors), len(docs), sum(len(d[3]) for d in docs)) == (150, 341, 1169)
    data = json.dumps(out, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == ("6475d85cc643df6d7ac8909fa20f7a74"
                                                "74a74b61c94ae9064a98cc16e5a1d424")


# Pairs that are not two strings. They stay out of _MALFORMED_BIO, whose
# decoding the seeded pin above hashes.
@pytest.mark.parametrize("pair", [("Roma", 5), (5, "O"), b"ab"],
                         ids=["label_number", "token_number", "bytes"])
def test_parse_bio_rejects_a_pair_that_is_not_two_strings(pair):
    with pytest.raises(BioParseError) as exc:
        corpus.parse_bio([("Milano", "B-LOC"), pair])
    assert exc.value.line_no == 2 and "expected a pair of strings" in str(exc.value)


def test_encode_bio_round_trip_small(rng):
    docs = make_dataset(rng, {"person": 9, "location": 7}, "rt")
    for doc in docs:
        pairs = corpus.encode_bio(doc)
        back = corpus.parse_bio(pairs, doc_id_prefix="back")[0]
        assert back.text == doc.text
        assert back.mentions == doc.mentions


def test_encode_bio_misaligned_mention_fails():
    doc = corpus.Document("d", "Roma Milano", mentions=[])
    doc.mentions = [corpus.Mention("loc", "oma", 1, 4)]
    with pytest.raises(EncodingAlignmentError):
        corpus.encode_bio(doc)


def test_document_offset_integrity_enforced():
    with pytest.raises(DatasetFormatError):
        corpus.Document("d", "Roma", mentions=[corpus.Mention("loc", "Milano", 0, 4)])
    with pytest.raises(DatasetFormatError):
        corpus.Document("d", "Roma", mentions=[corpus.Mention("loc", "", 2, 2)])
    # a span outside the text, even one whose slice equals the surface
    for mention in (corpus.Mention("x", "oma", -3, 4), corpus.Mention("x", "", 10, 12)):
        with pytest.raises(DatasetFormatError, match="empty or outside the text of 4 characters"):
            corpus.Document("d", "Roma", mentions=[mention])


def test_tag_inventory(rng):
    docs = make_dataset(rng, {"person": 4, "plant": 2}, "inv", empty_docs=1)
    inv = corpus.tag_inventory(docs)
    assert inv == {"person": 4, "plant": 2}


def test_dataset_round_trip(tmp_path, rng):
    docs = make_dataset(rng, {"person": 5}, "ds", "wikinews", empty_docs=1)
    path = tmp_path / "ds.jsonl"
    corpus.save_dataset(docs, path)
    back = corpus.load_dataset(path)
    assert back == docs
    # a lone surrogate is written as its escape, and the lines after it too
    docs = [corpus.Document(doc_id, "Roma") for doc_id in ("ok", "x\ud800y", "z")]
    corpus.save_dataset(docs, path)
    assert corpus.load_dataset(path) == docs


def test_iter_dataset_yields_the_documents_before_a_bad_line(tmp_path):
    docs = [corpus.Document("a", "Roma"), corpus.Document("b", "Milano")]
    path = tmp_path / "ds.jsonl"
    corpus.save_dataset(docs, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"doc_id": "c", "text": 5}\n{"doc_id": "d", "text": "Pisa"}\n')
    stream = corpus.iter_dataset(path)
    assert [next(stream), next(stream)] == docs
    with pytest.raises(DatasetFormatError) as exc:
        next(stream)
    assert f"{path}:3: 'text'" in str(exc.value)


def test_open_benchmark_reads_a_dataset_only_as_its_documents_are_iterated(tmp_path, rng):
    _, datasets, _ = build_benchmark_tree(tmp_path, rng)
    (tmp_path / "fic_test.jsonl").unlink()  # the second tier dataset
    bench, stream = corpus.open_benchmark(tmp_path / "manifest.json")
    assert bench.doc_ids == {}  # nothing read yet
    got = []
    with pytest.raises(ConfigError, match="cannot read dataset .*fic_test.jsonl"):
        for doc in stream:
            got.append(doc)
    assert got == datasets["wn_test"]
    assert bench.doc_ids == {"wn_test": tuple(d.doc_id for d in datasets["wn_test"])}


def test_load_dataset_rejects_duplicate_ids(tmp_path):
    doc = corpus.Document("same", "Roma", "", [])
    path = tmp_path / "dup.jsonl"
    corpus.save_dataset([doc], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"doc_id": "same", "text": "Milano", "mentions": []}\n')
    with pytest.raises(DatasetFormatError):
        corpus.load_dataset(path)


def test_load_dataset_rejects_bad_offsets(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"doc_id": "d", "text": "Roma", "mentions": '
        '[{"tag": "loc", "surface": "Milano", "start": 0, "end": 4}]}\n',
        encoding="utf-8",
    )
    with pytest.raises(DatasetFormatError):
        corpus.load_dataset(path)
    path.write_text('{"doc_id": "d", "text": "Roma", "mentions": [{"tag": "loc", '
                    '"surface": "Roma", "start": 0, "end": 1' + "0" * 100 + '}]}\n',
                    encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="bad.jsonl:1: d: mention 'loc' has span 0..1"):
        corpus.load_dataset(path)


@pytest.mark.parametrize("key, value", [("start", "0"), ("start", True), ("end", "4"),
                                        ("end", 4.0)])
def test_load_dataset_rejects_an_offset_of_another_type(tmp_path, key, value):
    mention = {"tag": "loc", "surface": "Roma", "start": 0, "end": 4, key: value}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"doc_id": "d", "text": "Roma", "mentions": [mention]}) + "\n",
                    encoding="utf-8")
    with pytest.raises(DatasetFormatError, match=f"bad.jsonl:1: d: mention '{key}' must be"):
        corpus.load_dataset(path)


# --------------------------------------------------------------------------
# benchmark assembly


def test_assemble_resolves_tiers(tmp_path, rng):
    bench, datasets, config = build_benchmark_tree(tmp_path, rng)
    assert [t.kind for t in bench.tiers] == [
        "in_domain",
        "out_of_domain",
        "unseen_ne",
    ]
    seen = bench.tier("in_domain")
    assert set(seen.tag_ids) == set(TRAINING_TAGS)
    unseen = bench.tier("unseen_ne")
    assert set(unseen.tag_ids) & set(TRAINING_TAGS) == set()
    assert "biological_entity" not in unseen.tag_ids  # support 4 < 5
    assert set(unseen.tag_ids) == set(EXTRA_TAGS) - {"biological_entity"}
    assert unseen.tag_ids == tuple(sorted(unseen.tag_ids))


def test_assemble_min_support_prunes_seen_tags(rng):
    train = make_dataset(rng, {"person": 5, "organization": 5}, "tr")
    test = make_dataset(rng, {"person": 6, "organization": 2}, "te")
    bench = corpus.assemble_benchmark(
        {"tr": train, "te": test},
        {
            "training": {"dataset": "tr", "tags": ["person", "organization"]},
            "tiers": [{"kind": "in_domain", "datasets": ["te"]}],
            "min_support": 5,
        },
    )
    assert bench.tiers[0].tag_ids == ("person",)


def test_assemble_excluded_tags(rng):
    train = make_dataset(rng, {"person": 5}, "tr")
    test = make_dataset(rng, {"person": 6, "plant": 6, "animal": 6}, "te")
    bench = corpus.assemble_benchmark(
        {"tr": train, "te": test},
        {
            "training": {"dataset": "tr", "tags": ["person"]},
            "tiers": [{"kind": "unseen_ne", "datasets": ["te"]}],
            "min_support": 5,
            "excluded_tags": ["animal"],
        },
    )
    assert bench.tiers[0].tag_ids == ("plant",)


def test_assemble_empty_tier_fails(rng):
    train = make_dataset(rng, {"person": 5}, "tr")
    test = make_dataset(rng, {"person": 2}, "te")  # below min_support
    with pytest.raises(AssemblyError):
        corpus.assemble_benchmark(
            {"tr": train, "te": test},
            {
                "training": {"dataset": "tr", "tags": ["person"]},
                "tiers": [{"kind": "in_domain", "datasets": ["te"]}],
                "min_support": 5,
            },
        )


def test_assemble_rejects_cross_dataset_duplicate_ids(rng):
    train = make_dataset(rng, {"person": 5}, "tr")
    dupe = make_dataset(rng, {"person": 5}, "tr")  # same id prefix
    with pytest.raises(AssemblyError):
        corpus.assemble_benchmark(
            {"tr": train, "te": dupe},
            {
                "training": {"dataset": "tr", "tags": ["person"]},
                "tiers": [{"kind": "in_domain", "datasets": ["te"]}],
                "min_support": 1,
            },
        )


def test_assemble_rejects_unknown_kind_and_missing_dataset(rng):
    train = make_dataset(rng, {"person": 5}, "tr")
    base = {"training": {"dataset": "tr", "tags": ["person"]}}
    with pytest.raises(ConfigError):
        corpus.assemble_benchmark(
            {"tr": train}, {**base, "tiers": [{"kind": "holdout", "datasets": ["tr"]}]}
        )
    with pytest.raises(ConfigError):
        corpus.assemble_benchmark(
            {"tr": train},
            {**base, "tiers": [{"kind": "in_domain", "datasets": ["missing"]}]},
        )


def test_benchmark_id_deterministic(rng):
    r1, r2 = random.Random(7), random.Random(7)
    a = build_benchmark_tree_id(r1)
    b = build_benchmark_tree_id(r2)
    assert a == b


def build_benchmark_tree_id(rng):
    train = make_dataset(rng, {"person": 5}, "tr")
    test = make_dataset(rng, {"person": 6}, "te")
    bench = corpus.assemble_benchmark(
        {"tr": train, "te": test},
        {
            "training": {"dataset": "tr", "tags": ["person"]},
            "tiers": [{"kind": "in_domain", "datasets": ["te"]}],
            "min_support": 5,
        },
    )
    return bench.benchmark_id


def test_benchmark_manifest_round_trip(tmp_path, rng):
    bench, datasets, _ = build_benchmark_tree(tmp_path, rng)
    loaded, loaded_docs = corpus.load_benchmark(tmp_path / "manifest.json")
    assert loaded.benchmark_id == bench.benchmark_id
    assert loaded.training_tags == bench.training_tags
    assert [t.tag_ids for t in loaded.tiers] == [t.tag_ids for t in bench.tiers]
    # only the tier datasets are read back; training is for assembly alone
    tier_keys = {"wn_test", "fic_test", "mn_test"}
    assert set(loaded.doc_ids) == tier_keys
    assert "train" not in loaded.doc_ids
    assert not set(loaded_docs) & set(bench.doc_ids["train"])
    assert loaded.doc_ids == {k: bench.doc_ids[k] for k in tier_keys}
    assert loaded_docs == {d.doc_id: d for k in tier_keys for d in datasets[k]}


def test_load_benchmark_reads_a_twin_document_once(tmp_path, rng):
    """A doc_id in two tier datasets is one document if the texts agree,
    and a DatasetFormatError naming the file and the id if they differ."""
    build_benchmark_tree(tmp_path, rng)
    twin = add_twin(tmp_path)
    bench, docs = corpus.load_benchmark(tmp_path / "manifest.json")
    assert twin in bench.doc_ids["wn_test"] and twin in bench.doc_ids["mn_test"]
    assert docs[twin].mentions  # wn_test's copy, the first the tiers name
    assert len(docs) == len({d for ids in bench.doc_ids.values() for d in ids})
    add_twin(tmp_path, " altro")
    with pytest.raises(DatasetFormatError) as exc:
        corpus.load_benchmark(tmp_path / "manifest.json")
    assert str(tmp_path / "mn_test.jsonl") in str(exc.value)
    assert repr(twin) in str(exc.value)


def test_load_benchmark_missing_dataset_file(tmp_path, rng):
    build_benchmark_tree(tmp_path, rng)
    (tmp_path / "mn_test.jsonl").unlink()
    with pytest.raises(ConfigError):
        corpus.load_benchmark(tmp_path / "manifest.json")
    # a tier dataset the manifest gives no file for is never loaded
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["datasets"]["mn_test"]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(AssemblyError, match="unloaded datasets.*mn_test"):
        corpus.load_benchmark(path)


@pytest.mark.parametrize("key, value", [("datasets", ["wn_test.jsonl"]),
                                        ("min_support", "five")])
def test_load_benchmark_bad_field_is_config_error(tmp_path, rng, key, value):
    build_benchmark_tree(tmp_path, rng)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        corpus.load_benchmark(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("keys, value", [
    (("tiers", -1, "tag_ids"), "location"),
    (("tiers", -1, "tag_ids"), ["location", 5]),
    (("tiers", -1, "tag_ids"), {"location": 1}),
    (("tiers", 0, "dataset_ids"), "wn_test"),
    (("tiers", 0, "dataset_ids"), [None]),
    (("training", "tags"), "person"),
    (("min_support",), True),
    (("min_support",), 5.0),
    (("min_support",), "5"),
], ids=["tag_ids_text", "tag_ids_number_item", "tag_ids_object", "dataset_ids_text",
        "dataset_ids_null_item", "training_tags_text", "min_support_bool",
        "min_support_float", "min_support_text"])
def test_load_benchmark_rejects_a_field_of_the_wrong_type(tmp_path, rng, keys, value):
    """A string where a list belongs is not split into its characters, and a
    bool or a float is not a min_support."""
    build_benchmark_tree(tmp_path, rng)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    *parents, key = keys
    owner = manifest
    for k in parents:
        owner = owner[k]
    owner[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        corpus.load_benchmark(path)
    assert str(path) in str(exc.value) and key in str(exc.value)


_TIER = st.tuples(
    st.sampled_from(["t0", "t1", "t2"]),  # a name may repeat
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=3),  # "d" has no docs
    st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=3),
)
_DOC_IDS = st.dictionaries(
    st.sampled_from("abc"), st.lists(st.sampled_from([f"d{i}" for i in range(6)]),
                                     max_size=5),
)


@given(tiers=st.lists(_TIER, min_size=1, max_size=4), doc_ids=_DOC_IDS)
@example(  # d1 sits in datasets a and b; dataset b sits in tiers t0 and t1
    tiers=[("t0", ["a", "b"], ["x", "y"]), ("t1", ["b", "c"], ["y", "z"])],
    doc_ids={"a": ["d0", "d1"], "b": ["d1", "d2"], "c": ["d3"]},
)
@settings(max_examples=300, deadline=None)
def test_cells_view_matches_the_dict_it_replaced(tiers, doc_ids):
    bench = corpus.Benchmark(
        benchmark_id="b", training_dataset="train", training_tags=(),
        tiers=[corpus.BenchmarkTier(name, "in_domain", tuple(ds), tuple(tags))
               for name, ds, tags in tiers],
        min_support=1, doc_ids={k: tuple(v) for k, v in doc_ids.items()},
    )
    expected = list(oracle_cells(bench.tiers, bench.doc_ids).items())
    view = bench.cells()
    assert len(view) == len(expected)
    assert list(view) == expected
    assert list(view) == expected  # a second pass walks the grid again


def test_cells_len_does_not_walk_the_grid(tmp_path, rng):
    bench, _, _ = build_benchmark_tree(tmp_path, rng)
    view = bench.cells()
    walks = []
    view._walk = lambda: walks.append(1) or iter(())
    assert len(view) == len(oracle_cells(bench.tiers, bench.doc_ids)) > 0
    assert walks == []


def _two_tier_benchmark() -> corpus.Benchmark:
    """Document "città-1" sits in datasets a and b, so in both tiers, and its
    cells are not all next to each other in the walk."""
    tiers = [corpus.BenchmarkTier("t0", "in_domain", ("a", "b"), ("person", "location")),
             corpus.BenchmarkTier("t1", "unseen_ne", ("b", "c"), ("location", "plant"))]
    return corpus.Benchmark("b", "train", ("person", "location"), tiers, 1,
                            doc_ids={"a": ("d0", "città-1"), "b": ("città-1", "d2"),
                                     "c": ("d3",)})


@pytest.mark.parametrize("grid", [("with_dg", "default_it", "openai_chat"),
                                  ("without_dg", "modèllo", "llama3_headers")])
def test_grid_job_ids_gives_job_id_for_of_each_cell(tmp_path, rng, grid):
    bench, _, _ = build_benchmark_tree(tmp_path, rng)
    for b in (bench, _two_tier_benchmark()):
        cells = list(b.cells())
        walked = list(corpus.grid_job_ids(b.cells(), grid))
        assert [(cell, names) for _, cell, names in walked] == cells
        assert [k for k, _, _ in walked] == [corpus.job_id_for(*c, *grid) for c, _ in cells]
    assert [f"{d}:{t}" for (d, t), _ in _two_tier_benchmark().cells()] == [
        "d0:person", "d0:location", "città-1:person", "città-1:location", "d2:person",
        "d2:location", "città-1:plant", "d2:plant", "d3:location", "d3:plant"]
