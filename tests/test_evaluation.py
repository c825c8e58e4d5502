import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_benchmark_tree, load_benchmark_tree
from oracles import oracle_cell_counts, oracle_prf, oracle_set_cell_counts, random_cell
from zsner import corpus
from zsner import evaluation as ev
from zsner.errors import ComparisonError, ConfigError, CoverageError, PairingError
from zsner.errors import RunDirectoryError
from zsner.inference import CompletionRecord
from zsner.parsing import Extraction, normalize_surface
from zsner.prompts import job_id_for


def counts(tp, fp, fn):
    return ev.Counts(tp, fp, fn)


def test_counts_add_and_nonnegative():
    assert counts(1, 2, 3) + counts(4, 5, 6) == counts(5, 7, 9)
    with pytest.raises(ValueError):
        counts(-1, 0, 0)


def test_micro_f1_zero_conventions():
    assert ev.micro_f1(counts(0, 0, 0)) == (0.0, 0.0, 0.0)
    assert ev.micro_f1(counts(0, 3, 0)) == (0.0, 0.0, 0.0)
    assert ev.micro_f1(counts(0, 0, 5)) == (0.0, 0.0, 0.0)
    p, r, f1 = ev.micro_f1(counts(2, 1, 3))
    assert (p, r) == (2 / 3, 2 / 5)
    assert f1 == 2 * p * r / (p + r)


def _pair(gold, pred):
    return (
        Extraction("d", "t", gold),
        Extraction("d", "t", pred),
    )


def test_score_pair_multiset_duplicates():
    g, p = _pair(["roma", "roma", "po"], ["roma", "po", "po"])
    c = ev.score_pair(g, p)
    assert (c.tp, c.fp, c.fn) == (2, 1, 1)


def test_score_pair_set_semantics():
    g, p = _pair(["roma", "roma", "po"], ["roma", "po", "po"])
    c = ev.score_pair(g, p, semantics=ev.SET)
    assert (c.tp, c.fp, c.fn) == (2, 0, 0)


def test_score_pair_rejects_mismatched_cells():
    g = Extraction("d1", "t", [])
    p = Extraction("d2", "t", [])
    with pytest.raises(PairingError):
        ev.score_pair(g, p)
    with pytest.raises(ConfigError):
        ev.score_pair(Extraction("d", "t", []), Extraction("d", "t", []), "jaccard")


def test_score_pair_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(500):
        gold, pred = random_cell(rng)
        c = ev.score_pair(*_pair(gold, pred))
        assert (c.tp, c.fp, c.fn) == oracle_cell_counts(gold, pred)
        cs = ev.score_pair(*_pair(gold, pred), semantics=ev.SET)
        assert (cs.tp, cs.fp, cs.fn) == oracle_set_cell_counts(gold, pred)


def test_micro_f1_matches_oracle_formula():
    rng = random.Random(5)
    for _ in range(200):
        tp, fp, fn = rng.randint(0, 20), rng.randint(0, 20), rng.randint(0, 20)
        assert ev.micro_f1(counts(tp, fp, fn)) == oracle_prf(tp, fp, fn)


# --------------------------------------------------------------------------
# tier reports


GRID = ("with_dg", "default_it", "openai_chat")


def _record(cell, surfaces):
    """The ok record of `cell` on GRID whose reply is the JSON array `surfaces`."""
    return CompletionRecord(job_id_for(*cell, *GRID), json.dumps(surfaces), "ok")


def _report_inputs(tmp_path, rng):
    """(benchmark, gold map, (cell, gold surfaces) of each cell in cells() order)."""
    bench, docs = load_benchmark_tree(tmp_path, rng)
    gold = ev.build_gold(docs.values())
    cells = [(cell, gold[cell[0]].get(cell[1], [])) for cell, _ in bench.cells()]
    return bench, gold, cells


def test_build_gold_maps_documents_to_normalized_surfaces(tmp_path, rng):
    _, datasets, _ = build_benchmark_tree(tmp_path, rng)
    _, docs = corpus.load_benchmark(tmp_path / "manifest.json")
    gold = ev.build_gold(docs.values())
    tier_docs = [d for ds in ("wn_test", "fic_test", "mn_test") for d in datasets[ds]]
    assert set(gold) == {d.doc_id for d in tier_docs}  # not the training set
    for doc in tier_docs:
        want: dict[str, list[str]] = {}
        for m in doc.mentions:
            want.setdefault(m.tag_id, []).append(normalize_surface(m.surface))
        assert gold[doc.doc_id] == want


_SURFACES = ("roma", "po", "etna")
_mentions = st.lists(
    st.tuples(st.sampled_from(("person", "location", "plant")), st.sampled_from(_SURFACES)),
    max_size=4,
)


def _doc(doc_id, mentions):
    words = [surface for _, surface in mentions]
    text = " ".join([doc_id] + words)
    out, pos = [], len(doc_id) + 1
    for tag, surface in mentions:
        out.append(corpus.Mention(tag, surface, pos, pos + len(surface)))
        pos += len(surface) + 1
    return corpus.Document(doc_id, text, mentions=out)


@given(
    data=st.data(),
    docs_a=st.lists(_mentions, max_size=4),
    docs_b=st.lists(_mentions, max_size=4),
    semantics=st.sampled_from((ev.MULTISET, ev.SET)),
)
@settings(max_examples=150, deadline=None)
def test_tier_report_sums_oracle_cell_counts(data, docs_a, docs_b, semantics):
    """Dataset "a" sits in both tiers, so its location cells count twice."""
    datasets = {
        "a": [_doc(f"a{i}", m) for i, m in enumerate(docs_a)],
        "b": [_doc(f"b{i}", m) for i, m in enumerate(docs_b)],
    }
    tiers = [
        corpus.BenchmarkTier("t1", "in_domain", ("a",), ("person", "location")),
        corpus.BenchmarkTier("t2", "out_of_domain", ("a", "b"), ("location", "plant")),
    ]
    bench = corpus.Benchmark(
        "b-1", "train", ("person", "location"), tiers, 1,
        doc_ids={k: tuple(d.doc_id for d in docs) for k, docs in datasets.items()},
    )
    pred = {
        cell: data.draw(st.lists(st.sampled_from(_SURFACES), max_size=3))
        for cell, _ in bench.cells()
    }
    report = ev.tier_report(
        bench,
        ev.build_gold(d for docs in datasets.values() for d in docs),
        [_record(cell, surfaces) for cell, surfaces in pred.items()],
        GRID,
        semantics=semantics,
    )
    oracle = oracle_cell_counts if semantics == ev.MULTISET else oracle_set_cell_counts
    for tier in tiers:
        for tag in tier.tag_ids:
            want = [0, 0, 0]
            for doc in (d for ds in tier.dataset_ids for d in datasets[ds]):
                gold = [m.surface for m in doc.mentions if m.tag_id == tag]
                for i, n in enumerate(oracle(gold, pred[doc.doc_id, tag])):
                    want[i] += n
            got = report.tiers[tier.name].per_tag[tag].counts
            assert (got.tp, got.fp, got.fn) == tuple(want)
        assert list(report.tiers[tier.name].per_tag) == list(tier.tag_ids)


def test_tier_report_gold_vs_itself_is_perfect(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    report = ev.tier_report(bench, gold, [_record(c, g) for c, g in cells], GRID)
    for tier in report.tiers.values():
        assert tier.micro.f1 == 1.0
        assert tier.macro_f1 == 1.0
        assert tier.micro.counts.fp == 0 and tier.micro.counts.fn == 0


def test_tier_report_empty_predictions_zero(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    report = ev.tier_report(bench, gold, [_record(c, []) for c, _ in cells], GRID)
    for tier in report.tiers.values():
        assert tier.micro.f1 == 0.0
        assert tier.micro.counts.tp == 0
        assert tier.micro.counts.fn > 0


def test_tier_report_micro_pools_counts_not_averages(tmp_path, rng):
    """Micro-F1 must come from pooled counts; uneven per-tag sizes make the
    pooled value differ from the mean of per-tag F1 (that's the macro)."""
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = []
    flip = True
    for c, g in cells:
        records.append(_record(c, [] if g and flip else g))
        if g:
            flip = not flip
    report = ev.tier_report(bench, gold, records, GRID)
    for tier in report.tiers.values():
        pooled = ev.Counts()
        for s in tier.per_tag.values():
            pooled = pooled + s.counts
        assert tier.micro.counts == pooled
        assert tier.micro.f1 == ev.micro_f1(pooled)[2]
        mean_f1 = sum(s.f1 for s in tier.per_tag.values()) / len(tier.per_tag)
        assert tier.macro_f1 == pytest.approx(mean_f1)


def test_tier_report_coverage_missing_and_extra(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = [_record(c, []) for c, _ in cells]
    with pytest.raises(CoverageError, match="lacks records for 3 jobs"):
        ev.tier_report(bench, gold, records[:-3], GRID)
    stray = records + [CompletionRecord("0000deadbeef0000", "[]", "ok")]
    with pytest.raises(CoverageError, match="records for 1 jobs on no cell"):
        ev.tier_report(bench, gold, stray, GRID)
    with pytest.raises(CoverageError, match=f"lacks records for {len(cells)} jobs"):
        ev.tier_report(bench, gold, records, ("without_dg",) + GRID[1:])  # another grid


def test_tier_report_rejects_duplicate_cells(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = [_record(c, []) for c, _ in cells]
    with pytest.raises(RunDirectoryError, match="duplicate record"):  # after its cell
        ev.tier_report(bench, gold, records + [records[0]], GRID)
    with pytest.raises(RunDirectoryError, match="duplicate record"):  # before its cell
        ev.tier_report(bench, gold, [records[-1]] + records, GRID)
    with pytest.raises(RunDirectoryError, match="duplicate record"):  # outranks a gap
        ev.tier_report(bench, gold, records[1:] + [records[2]], GRID)


def test_tier_report_reads_a_one_shot_generator_in_any_order(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = [_record(c, g[1:]) for c, g in cells]
    want = ev.tier_report(bench, gold, records, GRID).to_json()
    read = []

    def reversed_once():
        for rec in reversed(records):
            read.append(rec)
            yield rec

    got = ev.tier_report(bench, gold, reversed_once(), GRID)
    assert got.to_json() == want
    assert len(read) == len(records)  # each record read exactly once


def test_tier_report_tallies_parse_statuses_outside_score_json(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = [_record(c, g) for c, g in cells]
    records[0] = CompletionRecord(records[0].job_id, 'Ecco: ["roma"]', "ok")
    records[1] = CompletionRecord(records[1].job_id, "", "error")
    records[2] = CompletionRecord(records[2].job_id, "nessuna", "ok")
    report = ev.tier_report(bench, gold, records, GRID)
    assert report.parse_statuses == {"ok": len(cells) - 3, "recovered": 1, "failed": 2}
    assert "parse_statuses" not in json.dumps(report.to_json())


def test_score_report_json_round_trip(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    records = [_record(c, g) for c, g in cells]
    report = ev.tier_report(bench, gold, records, GRID, run_manifest="m.json")
    back = ev.ScoreReport.from_json(report.to_json())
    assert back.benchmark_id == report.benchmark_id
    assert back.variant == "with_dg"
    assert back.run_manifest == "m.json"
    for name, tier in report.tiers.items():
        bt = back.tiers[name]
        assert bt.micro == tier.micro
        assert bt.per_tag == tier.per_tag
        assert bt.macro_f1 == tier.macro_f1


# --------------------------------------------------------------------------
# deltas and formatting


def _mini_report(benchmark_id, f1_by_tag, variant):
    tiers = {
        "t": ev.TierScore(
            "t",
            "in_domain",
            {
                tag: ev.TagScore(ev.Counts(1, 0, 0), f1, f1, f1)
                for tag, f1 in f1_by_tag.items()
            },
            ev.TagScore(ev.Counts(1, 0, 0), 0.5, 0.5, 0.5),
            sum(f1_by_tag.values()) / len(f1_by_tag),
        )
    }
    return ev.ScoreReport(benchmark_id, variant, tiers)


def test_delta_report_values_and_render():
    w = _mini_report("b1", {"plant": 0.4989}, "with_dg")
    wo = _mini_report("b1", {"plant": 0.1376}, "without_dg")
    delta = ev.delta_report(w, wo)
    cell = delta.tiers["t"]["plant"]
    assert cell.delta == pytest.approx(0.3613)
    text = ev.render_delta(delta)
    assert "(+36.13)" in text


def test_delta_report_mismatches():
    w = _mini_report("b1", {"plant": 0.5}, "with_dg")
    with pytest.raises(ComparisonError):
        ev.delta_report(w, _mini_report("b2", {"plant": 0.5}, "without_dg"))
    with pytest.raises(ComparisonError):
        ev.delta_report(w, _mini_report("b1", {"animal": 0.5}, "without_dg"))


def test_format_conventions():
    assert ev.format_pct(0.5465) == "54.65"
    assert ev.format_pct(0.0) == "0.00"
    assert ev.format_pct(1.0) == "100.00"
    assert ev.format_delta(0.2375) == "(+23.75)"
    assert ev.format_delta(-0.0301) == "(-3.01)"
    assert ev.format_delta(0.0) == "(+0.00)"


def test_render_report_mentions_all_tags(tmp_path, rng):
    bench, gold, cells = _report_inputs(tmp_path, rng)
    report = ev.tier_report(bench, gold, [_record(c, g) for c, g in cells], GRID)
    text = ev.render_report(report)
    for tier in bench.tiers:
        assert tier.name in text
        for tag in tier.tag_ids:
            assert tag in text
    assert "micro" in text and "macro" in text
