"""Acceptance gate: one test per headline guarantee, in pipeline order.

Every test prints a single PASS/FAIL line (visible with -s or on failure;
the -v listing carries the same per-criterion verdict). Expected values
come from independent derivations: the brute-force oracle in oracles.py,
the hand-labeled reply fixture, and closed-form count arithmetic - never
from running the code under test.
"""

import json
import random
import time
import unicodedata
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    EXTRA_TAGS,
    TRAINING_TAGS,
    build_benchmark_tree,
    make_document,
)
from oracles import oracle_cell_counts, oracle_pooled, oracle_prf, random_cell
from zsner import corpus, evaluation as ev, inference as inf, prompts
from zsner import guidelines as dg
from zsner.cli import main
from zsner.parsing import extract_list, normalize_surface
from zsner.resources import (
    load_adapter,
    load_canned_dg,
    load_display_names,
    load_template,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {desc}")
        raise
    print(f"PASS criterion {n}: {desc}")


def run_cli(*args):
    try:
        main([str(a) for a in args])
    except SystemExit as e:
        return e.code
    return 0


def test_criterion_1_scorer_matches_brute_force_oracle():
    """1000 random cells: identical counts and identical P/R/F1 floats,
    pooled micro included, in under ten seconds."""
    with criterion(1, "scorer == brute-force oracle on 1000 random instances"):
        rng = random.Random(42)
        started = time.monotonic()
        cells = []
        for i in range(1000):
            gold, pred = random_cell(rng)
            cells.append((gold, pred))
            c = ev.score_pair(_ext(f"d{i}", gold), _ext(f"d{i}", pred))
            otp, ofp, ofn = oracle_cell_counts(gold, pred)
            assert (c.tp, c.fp, c.fn) == (otp, ofp, ofn)
            assert ev.micro_f1(c) == oracle_prf(otp, ofp, ofn)
        pooled = ev.Counts()
        for i, (gold, pred) in enumerate(cells):
            pooled = pooled + ev.score_pair(_ext(f"d{i}", gold), _ext(f"d{i}", pred))
        otp, ofp, ofn = oracle_pooled(cells)
        assert (pooled.tp, pooled.fp, pooled.fn) == (otp, ofp, ofn)
        assert ev.micro_f1(pooled) == oracle_prf(otp, ofp, ofn)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _ext(doc_id, surfaces):
    from zsner.parsing import Extraction

    return Extraction(doc_id, "t", list(surfaces))


def test_criterion_2_bio_round_trip_5000_documents():
    with criterion(2, "5000-document BIO encode/decode round trip, 0 mismatches"):
        rng = random.Random(7)
        tags = list(TRAINING_TAGS + EXTRA_TAGS)
        mismatches = 0
        for i in range(5000):
            plan = [rng.choice(tags) for _ in range(rng.randint(0, 4))]
            doc = make_document(rng, f"rt-{i:05d}", plan)
            pairs = corpus.encode_bio(doc)
            back = corpus.parse_bio(pairs, doc_id_prefix="back")
            if len(back) != 1:
                mismatches += 1
                continue
            if back[0].text != doc.text or back[0].mentions != doc.mentions:
                mismatches += 1
        assert mismatches == 0


@pytest.fixture
def pipeline_root(tmp_path, rng):
    build_benchmark_tree(tmp_path, rng)
    assert run_cli("guidelines", "gen", "--store", tmp_path / "store.json",
                   "--benchmark", tmp_path / "manifest.json",
                   "--mock", "canned") == 0
    (tmp_path / "run_with.json").write_text(
        json.dumps({"benchmark": "manifest.json", "store": "store.json",
                    "variant": "with_dg"}),
        encoding="utf-8",
    )
    (tmp_path / "run_without.json").write_text(
        json.dumps({"benchmark": "manifest.json", "variant": "without_dg"}),
        encoding="utf-8",
    )
    return tmp_path


def _run_and_score(root, config, run_name, mock):
    assert run_cli("run", root / config, "--run-dir", root / run_name,
                   "--mock", mock, "--quiet") == 0
    assert run_cli("score", root / run_name, "--quiet") == 0
    return json.loads((root / run_name / "score.json").read_text(encoding="utf-8"))


def test_criterion_3_end_to_end_oracle_and_empty_runs(pipeline_root):
    """Through the CLI: a gold-echo backend must score a perfect 1.000 on
    every tier and an always-empty backend exactly 0.000."""
    with criterion(3, "CLI e2e: gold oracle F1=1.000 per tier, empty F1=0.000"):
        gold_scores = _run_and_score(
            pipeline_root, "run_with.json", "run_gold", "gold_oracle"
        )
        assert set(gold_scores["tiers"]) == {"in_domain", "out_of_domain",
                                             "unseen_ne"}
        for tier in gold_scores["tiers"].values():
            assert tier["micro"]["f1"] == 1.0
            assert tier["micro"]["precision"] == 1.0
            assert tier["micro"]["recall"] == 1.0
            assert tier["macro_f1"] == 1.0
        empty_scores = _run_and_score(
            pipeline_root, "run_without.json", "run_empty", "empty"
        )
        for tier in empty_scores["tiers"].values():
            assert tier["micro"]["f1"] == 0.0
            assert tier["micro"]["tp"] == 0 and tier["micro"]["fp"] == 0


def test_criterion_4_drop_one_closed_form(pipeline_root):
    """drop_k(1) omits the first gold mention of every cell, so each tier
    must land exactly on tp=G-C, fp=0, fn=C (G gold mentions, C non-empty
    cells), and the derived P/R/F1 to 1e-12."""
    with criterion(4, "drop_k(1) run matches closed-form counts to 1e-12"):
        scores = _run_and_score(
            pipeline_root, "run_with.json", "run_drop", "drop_k:1"
        )
        bench, docs = corpus.load_benchmark(pipeline_root / "manifest.json")
        for tier in bench.tiers:
            G = 0
            C = 0
            for ds in tier.dataset_ids:
                for doc_id in bench.doc_ids[ds]:
                    for tag in tier.tag_ids:
                        g = sum(
                            1 for m in docs[doc_id].mentions if m.tag_id == tag
                        )
                        G += g
                        C += 1 if g else 0
            tp, fp, fn = G - C, 0, C
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            got = scores["tiers"][tier.name]["micro"]
            assert (got["tp"], got["fp"], got["fn"]) == (tp, fp, fn)
            assert abs(got["precision"] - p) < 1e-12
            assert abs(got["recall"] - r) < 1e-12
            assert abs(got["f1"] - f1) < 1e-12


def test_criterion_5_delta_reporting_convention():
    """Published-scale sanity anchors: F1 pairs on the 0-1 scale must render
    on the conventional 0-100 delta format to exactly two decimals."""
    with criterion(5, "delta formatting: +36.13, -3.01, +23.75 anchors"):
        anchors = [
            (0.4989, 0.1376, "(+36.13)", 36.13),
            (0.7600, 0.7901, "(-3.01)", -3.01),
            (0.5465, 0.3090, "(+23.75)", 23.75),
        ]
        for with_f1, without_f1, rendered, rounded in anchors:
            w = _anchor_report("b", {"plant": with_f1}, "with_dg")
            wo = _anchor_report("b", {"plant": without_f1}, "without_dg")
            cell = ev.delta_report(w, wo)["tiers"]["unseen_ne"]["plant"]
            assert ev.format_delta(cell["delta"]) == rendered
            assert round(100 * cell["delta"], 2) == rounded
        # end to end through report construction and text rendering
        w = _anchor_report("b", {"plant": 0.4989, "media": 0.5465}, "with_dg")
        wo = _anchor_report("b", {"plant": 0.1376, "media": 0.3090},
                            "without_dg")
        text = ev.render_delta(ev.delta_report(w, wo))
        assert "(+36.13)" in text and "(+23.75)" in text


def _anchor_report(benchmark_id, f1_by_tag, variant):
    def score(f1):
        return {"tp": 1, "fp": 0, "fn": 0, "precision": f1, "recall": f1, "f1": f1}

    tier = {"kind": "unseen_ne", "micro": score(0.5), "macro_f1": 0.5,
            "per_tag": {tag: score(f1) for tag, f1 in f1_by_tag.items()}}
    return ev.check_score_report({"benchmark_id": benchmark_id, "variant": variant,
                                  "tiers": {"unseen_ne": tier}})


def test_criterion_6_unseen_tier_assembly(tmp_path, rng):
    """15-tag inventory, 3 training tags, one tag at support 4: the unseen
    tier must resolve to exactly the 11 remaining tags."""
    with criterion(6, "unseen tier = 11 tags, disjoint from training, "
                      "support-4 tag dropped"):
        bench, datasets, _ = build_benchmark_tree(tmp_path, rng, min_support=5)
        support = corpus.tag_inventory(datasets["mn_test"])
        assert len(support) == 15
        assert support["biological_entity"] == 4
        unseen = bench.tier("unseen_ne")
        assert len(unseen.tag_ids) == 11
        assert set(unseen.tag_ids) & set(TRAINING_TAGS) == set()
        assert "biological_entity" not in unseen.tag_ids
        assert set(unseen.tag_ids) == set(EXTRA_TAGS) - {"biological_entity"}
        for tier in bench.tiers:
            if tier.kind != corpus.TIER_UNSEEN_NE:
                assert set(tier.tag_ids) <= set(TRAINING_TAGS)


def test_criterion_7_concurrency_bound_and_warm_cache(tmp_path):
    with criterion(7, "1000 jobs: in-flight <= max_parallel; warm rerun "
                      "makes 0 backend calls"):
        gold = {(f"d{i}", "plant"): [f"s{i}"] for i in range(1000)}
        jobs = [
            prompts.PromptJob(
                job_id=f"j{i:04d}", doc_id=f"d{i}", tag_id="plant",
                variant="with_dg", template_id="t", adapter_id="a",
                payload={"messages": [{"role": "user", "content": str(i)}]},
            )
            for i in range(1000)
        ]
        backend = inf.MockBackend("gold_oracle", gold, delay=0.001)
        cache = inf.ResponseCache(tmp_path / "cache")
        records = list(inf.run(jobs, backend, cache, max_parallel=16))
        assert backend.calls == 1000
        assert backend.max_in_flight <= 16, backend.max_in_flight
        assert all(r.status == "ok" for r in records)

        again = list(inf.run(jobs, backend, cache, max_parallel=16))
        assert backend.calls == 1000  # not one more
        assert all(r.attempt_count == 0 for r in again)
        assert [r.raw_text for r in again] == [r.raw_text for r in records]
        cache.close()


def test_criterion_8_reply_parsing_and_normalization():
    """The 50 hand-labeled reply cases, plus normalization idempotence over
    10^5 random unicode strings."""
    with criterion(8, "50/50 reply cases; normalize idempotent on 100000 "
                      "random strings"):
        cases = json.loads(
            (FIXTURES / "reply_cases.json").read_text(encoding="utf-8")
        )
        assert len(cases) == 50
        for case in cases:
            result = extract_list(case["raw"])
            assert result.status == case["status"], case["name"]
            assert result.surfaces == case["surfaces"], case["name"]
            assert result.dropped == case["dropped"], case["name"]

        rng = random.Random(20260815)
        checked = 0
        while checked < 100_000:
            length = rng.randint(0, 12)
            chars = []
            while len(chars) < length:
                cp = rng.randrange(0x110000)
                if 0xD800 <= cp <= 0xDFFF:
                    continue
                chars.append(chr(cp))
            s = "".join(chars)
            once = normalize_surface(s)
            assert normalize_surface(once) == once, repr(s)
            assert unicodedata.is_normalized("NFC", once), repr(s)
            checked += 1


def test_criterion_9_variant_substring_contracts():
    """For every tag in a fully populated store: the with_dg prompt carries
    that tag's definition and guidelines verbatim, the without_dg prompt
    carries neither, and both carry the display name and document text."""
    with criterion(9, "with_dg/without_dg substring contracts over the "
                      "full store"):
        template = load_template("default_it")
        adapter = load_adapter("openai_chat")
        canned = load_canned_dg()
        display_names = load_display_names("it")
        rng = random.Random(3)
        doc = make_document(rng, "probe", ["plant"])
        assert len(display_names) == 15
        for tag_id, display in sorted(display_names.items()):
            spec = dg.TagSpec(
                tag_id=tag_id,
                display_name=display,
                definition=canned[display]["definizione"],
                guidelines=canned[display]["linee guida"],
            )
            with_text = prompts.render(doc, spec, prompts.WITH_DG, template)
            without_text = prompts.render(doc, spec, prompts.WITHOUT_DG, template)
            assert spec.definition in with_text
            assert spec.guidelines in with_text
            assert spec.definition not in without_text
            assert spec.guidelines not in without_text
            for text in (with_text, without_text):
                assert display in text
                assert doc.text in text
            # the wrapped payload carries the same user text untouched
            payload = prompts.wrap(with_text, adapter)
            assert payload["messages"][-1]["content"] == with_text
