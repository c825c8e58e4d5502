import ast
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import add_twin, build_benchmark_tree, closed_port, completion
from zsner import cli, corpus, evaluation, inference, prompts
from zsner.cli import main
from zsner.resources import load_canned_dg

FIXTURES = Path(__file__).parent / "fixtures"

BIO = "\n".join(
    [
        "Alcide\tB-PER",
        "De\tI-PER",
        "Gasperi\tI-PER",
        "visitò\tO",
        "Roma\tB-LOC",
        "",
        "La\tO",
        "FIAT\tB-ORG",
        "di\tO",
        "Torino\tB-LOC",
        "",
    ]
)


def run_cli(*args):
    try:
        main([str(a) for a in args])
    except SystemExit as e:
        return e.code
    return 0


@pytest.fixture
def tree(tmp_path, rng):
    bench, datasets, config = build_benchmark_tree(tmp_path, rng)
    return tmp_path, bench


def _gen_store(root):
    assert run_cli("guidelines", "gen", "--store", root / "store.json",
                   "--benchmark", root / "manifest.json", "--mock", "canned") == 0


def _write_run_config(root, variant, with_store=True):
    cfg = {"benchmark": "manifest.json", "variant": variant}
    if with_store:
        cfg["store"] = "store.json"
    path = root / f"run_{variant}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_ingest_and_inventory(tmp_path, capsys):
    bio = tmp_path / "sample.bio"
    bio.write_text(BIO, encoding="utf-8")
    out = tmp_path / "sample.jsonl"
    assert run_cli("ingest", bio, "-o", out, "--aliases", "nermud",
                   "--domain", "wikinews") == 0
    assert "2 documents" in capsys.readouterr().out
    assert run_cli("inventory", out, "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tags"] == {"location": 2, "organization": 1, "person": 1}
    assert run_cli("inventory", out) == 0  # the text table: by support, then by tag
    assert capsys.readouterr().out == (
        "2 documents, 3 tags\n"
        "tag           support\n"
        "location            2\n"
        "organization        1\n"
        "person              1\n")


def test_ingest_bad_bio_is_input_error(tmp_path):
    bad = tmp_path / "bad.bio"
    bad.write_text("Roma\tQ-LOC\n", encoding="utf-8")
    assert run_cli("ingest", bad, "-o", tmp_path / "x.jsonl") == 3


def test_ingest_of_two_files_with_one_stem_asks_for_a_prefix(tmp_path, capsys):
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "x.bio").write_text(BIO, encoding="utf-8")
    assert run_cli("ingest", tmp_path / "a" / "x.bio", tmp_path / "b" / "x.bio",
                   "-o", tmp_path / "d.jsonl") == 2
    err = capsys.readouterr().err
    assert "duplicate doc_id 'x-00000'" in err and "--doc-id-prefix" in err
    assert not (tmp_path / "d.jsonl").exists()


def test_benchmark_command_writes_manifest(tmp_path, rng, capsys):
    build_benchmark_tree(tmp_path, rng)  # reuse its dataset files
    config = {
        "training": {"dataset": "train", "tags": ["person", "organization",
                                                  "location"]},
        "datasets": {k: f"{k}.jsonl" for k in ("train", "wn_test", "fic_test",
                                               "mn_test")},
        "tiers": [
            {"name": "in_domain", "kind": "in_domain", "datasets": ["wn_test"]},
            {"name": "unseen_ne", "kind": "unseen_ne", "datasets": ["mn_test"]},
        ],
    }
    (tmp_path / "bench.json").write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "built" / "manifest.json"
    assert run_cli("benchmark", tmp_path / "bench.json", "-o", out) == 0
    manifest = json.loads(out.read_text(encoding="utf-8"))
    assert manifest["tiers"][1]["kind"] == "unseen_ne"
    # dataset paths in the manifest resolve from the manifest's directory
    assert manifest["datasets"]["train"] == "../train.jsonl"


@pytest.mark.parametrize("edit, field", [
    (lambda c: c.update(min_support="x"), "min_support"),
    (lambda c: c.update(min_support=True), "min_support"),
    (lambda c: c.update(excluded_tags="person"), "excluded_tags"),
    (lambda c: c["tiers"][0].update(datasets="wn_test"), "tier #0 (in_domain) datasets"),
    (lambda c: c["training"].update(tags="person"), "training tags"),
    (lambda c: c.update(tiers={"a": 1}), "tiers"),
    (lambda c: c["tiers"].__setitem__(1, ["fic_test"]), "tiers"),
    (lambda c: c["training"].update(dataset=["train"]), "training dataset"),
    (lambda c: c["tiers"][0].update(name=5), "tier #0 (in_domain) name"),
    (lambda c: c["datasets"].update(train=5), "dataset 'train'"),
], ids=["min_support_text", "min_support_bool", "excluded_tags_text", "tier_datasets_text",
        "training_tags_text", "tiers_object", "tier_list", "training_dataset_list",
        "tier_name_number", "dataset_path_number"])
def test_benchmark_config_field_of_the_wrong_type_exits_2(tmp_path, rng, capsys, edit, field):
    _, _, config = build_benchmark_tree(tmp_path, rng)
    edit(config)
    path = _write(tmp_path / "bench.json", json.dumps(config).encode())
    capsys.readouterr()
    assert run_cli("benchmark", path, "-o", tmp_path / "out.json") == 2
    err = capsys.readouterr().err
    assert f"benchmark config {path}: {field} must be" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_guidelines_gen_validate_and_warm_skip(tree, capsys):
    root, bench = tree
    _gen_store(root)
    out = capsys.readouterr().out
    assert "generated" in out
    store = json.loads((root / "store.json").read_text(encoding="utf-8"))
    assert set(store["records"]) == set(bench.all_tags())
    assert (root / "store.json.replies.jsonl").is_file()

    # second invocation finds everything warm
    _gen_store(root)
    assert "0 generated" in capsys.readouterr().out

    assert run_cli("guidelines", "validate", "--store", root / "store.json",
                   "--benchmark", root / "manifest.json") == 0
    assert "ok" in capsys.readouterr().out


def test_guidelines_validate_missing_tags_is_coverage_error(tree, capsys):
    root, _ = tree
    _gen_store(root)
    assert run_cli("guidelines", "validate", "--store", root / "store.json",
                   "--tags", "person,ghost_tag") == 4
    assert "ghost_tag" in capsys.readouterr().out


def test_canned_generator_answers_by_tag_under_a_custom_meta_prompt(tmp_path, capsys):
    meta = _write(tmp_path / "meta.txt",
                  'Scrivi "definizione" e "linee guida" per il tipo "{display_name}".'.encode())
    store = tmp_path / "store.json"
    assert run_cli("guidelines", "gen", "--store", store, "--tags", "space_ship,plant",
                   "--mock", "canned", "--meta-prompt", meta) == 0
    records = json.loads(store.read_text(encoding="utf-8"))["records"]
    assert records["space_ship"]["definition"] == (
        "'SPACE SHIP' si riferisce a entità del tipo \"space ship\".")
    assert records["plant"]["display_name"] == "pianta"
    assert records["plant"]["definition"] == load_canned_dg()["pianta"]["definizione"]


def test_render_preview_and_export(tree, capsys):
    root, bench = tree
    _gen_store(root)
    doc_id = bench.doc_ids["mn_test"][0]
    tag = bench.tier("unseen_ne").tag_ids[0]
    assert run_cli("render", "--benchmark", root / "manifest.json",
                   "--store", root / "store.json", "--doc", doc_id,
                   "--tag", tag) == 0
    out = capsys.readouterr().out
    assert "Definizione:" in out and "Linee guida:" in out

    assert run_cli("render", "--benchmark", root / "manifest.json",
                   "--store", root / "store.json",
                   "-o", root / "jobs.jsonl") == 0
    capsys.readouterr()
    lines = (root / "jobs.jsonl").read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert first["payload"]["messages"][-1]["role"] == "user"

    # exporting without a destination is a usage problem
    assert run_cli("render", "--benchmark", root / "manifest.json",
                   "--store", root / "store.json") == 2


# A lone surrogate reaches the payload from a run config's system_text (JSON
# "\ud800") or from --system (a byte that is not UTF-8 in argv).
def test_run_with_a_lone_surrogate_in_system_text(tree, capsys):
    root, _ = tree
    cfg = root / "run_surrogate.json"
    cfg.write_text(json.dumps({"benchmark": "manifest.json", "variant": "without_dg",
                               "system_text": "Sei un esperto \ud800"}), encoding="utf-8")
    for extra in ((), ("--overwrite",)):
        assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "empty",
                       "--quiet", *extra) == 0
    manifest = json.loads((root / "r" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["system_text"] == "Sei un esperto \ud800"
    counts = manifest["counts"]
    assert counts["cached"] == counts["jobs"] > 0  # the keys held on the rerun


def test_render_export_with_a_lone_surrogate_in_system_text(tree):
    root, _ = tree
    assert run_cli("render", "--benchmark", root / "manifest.json", "--variant",
                   "without_dg", "--system", "x\udcff", "-o", root / "jobs.jsonl") == 0
    lines = (root / "jobs.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines and all(
        json.loads(line)["payload"]["messages"][0] == {"role": "system", "content": "x\udcff"}
        for line in lines)


def run_and_score(root, variant, mock, run_name, with_store=True):
    cfg = _write_run_config(root, variant, with_store)
    code = run_cli("run", cfg, "--run-dir", root / run_name, "--mock", mock)
    if code:
        return code
    return run_cli("score", root / run_name, "--quiet")


def test_full_pipeline_with_mocks(tree, capsys):
    root, bench = tree
    _gen_store(root)
    assert run_and_score(root, "with_dg", "gold_oracle", "run_w") == 0
    assert run_and_score(root, "without_dg", "empty", "run_wo",
                         with_store=False) == 0
    capsys.readouterr()

    score_w = json.loads((root / "run_w" / "score.json").read_text())
    for tier in score_w["tiers"].values():
        assert tier["micro"]["f1"] == 1.0
    score_wo = json.loads((root / "run_wo" / "score.json").read_text())
    for tier in score_wo["tiers"].values():
        assert tier["micro"]["f1"] == 0.0

    assert run_cli("report",
                   "--with-report", root / "run_w" / "score.json",
                   "--without-report", root / "run_wo" / "score.json",
                   "-o", root / "delta.json") == 0
    out = capsys.readouterr().out
    assert "(+100.00)" in out
    delta = json.loads((root / "delta.json").read_text(encoding="utf-8"))
    assert delta["micro"]["unseen_ne"]["delta"] == 1.0


def test_run_summary_and_cache_reuse(tree, capsys):
    root, _ = tree
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle") == 0
    first = capsys.readouterr().out
    assert "0 cached" in first and "fetched" in first

    # rerun without --overwrite refuses; with it, everything is cached
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock",
                   "gold_oracle") == 2
    capsys.readouterr()
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--overwrite") == 0
    second = capsys.readouterr().out
    assert "0 fetched" in second


def test_run_sizes_http_pool_after_max_parallel_override(tree, endpoint):
    root, _ = tree
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    with_backend = json.loads(cfg.read_text(encoding="utf-8"))
    with_backend["backend"] = {
        "endpoint_url": endpoint.url, "model_name": "m", "max_parallel": 1,
    }
    cfg.write_text(json.dumps(with_backend), encoding="utf-8")
    endpoint.delay = 0.005  # long enough that every worker gets a job
    assert run_cli("run", cfg, "--run-dir", root / "r", "--max-parallel", "3",
                   "--quiet") == 0
    records = list(inference.load_run(root / "r")[0])
    assert [r.status for r in records] == ["ok"] * len(records)
    assert len(endpoint.requests) == len(records)
    # one keep-alive connection per worker: the override, not the config's 1
    assert 1 < endpoint.connections <= 3
    assert endpoint.wait_all_closed()  # the run closed them before exiting


def test_drop_k_run_has_perfect_precision(tree, capsys):
    root, _ = tree
    _gen_store(root)
    assert run_and_score(root, "with_dg", "drop_k:1", "run_dk") == 0
    capsys.readouterr()
    score = json.loads((root / "run_dk" / "score.json").read_text())
    for tier in score["tiers"].values():
        assert tier["micro"]["fp"] == 0
        assert tier["micro"]["precision"] == 1.0
        assert tier["micro"]["recall"] < 1.0


def test_with_dg_run_requires_covering_store(tree):
    root, _ = tree
    cfg = _write_run_config(root, "with_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r",
                   "--mock", "gold_oracle") == 2  # no store configured

    # a store that misses benchmark tags is a coverage failure
    partial = {"records": {"person": {"display_name": "persona",
                                      "definition": "d", "guidelines": "g"}}}
    (root / "store.json").write_text(json.dumps(partial), encoding="utf-8")
    cfg = _write_run_config(root, "with_dg")
    assert run_cli("run", cfg, "--run-dir", root / "r",
                   "--mock", "gold_oracle") == 4


def test_exit_codes_for_bad_inputs(tree, monkeypatch):
    root, _ = tree
    assert run_cli("run", root / "missing.json", "--run-dir", root / "r") == 2
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "chaos") == 2
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "drop_k:x") == 2
    assert run_cli("run", cfg, "--run-dir", root / "r") == 2  # no backend config

    monkeypatch.delenv("ZSNER_MISSING_KEY", raising=False)
    with_backend = json.loads(cfg.read_text(encoding="utf-8"))
    with_backend["backend"] = {
        "endpoint_url": "http://localhost:9/v1/chat/completions",
        "model_name": "m", "auth_env": "ZSNER_MISSING_KEY",
    }
    cfg.write_text(json.dumps(with_backend), encoding="utf-8")
    assert run_cli("run", cfg, "--run-dir", root / "r") == 5

    assert run_cli("guidelines", "validate", "--store", root / "manifest.json",
                   "--tags", "person") == 3  # not a store file


def test_run_refuses_unusable_endpoint_or_proxy(tree, monkeypatch):
    root, _ = tree
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    with_backend = json.loads(cfg.read_text(encoding="utf-8"))
    for url, proxy in [("ftp://localhost/v1", ""),
                       ("http://localhost:9/v1", "http://user:pw@localhost:3128")]:
        monkeypatch.setenv("http_proxy", proxy)
        with_backend["backend"] = {"endpoint_url": url, "model_name": "m"}
        cfg.write_text(json.dumps(with_backend), encoding="utf-8")
        assert run_cli("run", cfg, "--run-dir", root / "r") == 2


def test_score_detects_missing_records(tree, capsys):
    root, _ = tree
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock",
                   "gold_oracle") == 0
    replies = root / "r" / "replies.jsonl"
    lines = replies.read_text(encoding="utf-8").splitlines()
    replies.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    assert run_cli("score", root / "r", "--quiet") == 4


def test_report_benchmark_mismatch(tree, tmp_path_factory, rng, capsys):
    root, _ = tree
    _gen_store(root)
    assert run_and_score(root, "with_dg", "gold_oracle", "run_w") == 0

    other_root = tmp_path_factory.mktemp("other")
    import random

    build_benchmark_tree(other_root, random.Random(7), min_support=4)
    _gen_store(other_root)
    assert run_and_score(other_root, "without_dg", "empty", "run_wo",
                         with_store=False) == 0
    capsys.readouterr()
    assert run_cli("report",
                   "--with-report", root / "run_w" / "score.json",
                   "--without-report", other_root / "run_wo" / "score.json") == 4


def test_report_refuses_scores_of_different_semantics(tree, capsys):
    root, _ = tree
    assert run_and_score(root, "without_dg", "drop_k:1", "r", with_store=False) == 0
    assert run_cli("score", root / "r", "-o", root / "set.json", "--semantics", "set",
                   "--quiet") == 0
    capsys.readouterr()
    assert run_cli("report", "--with-report", root / "r" / "score.json",
                   "--without-report", root / "set.json", "-o", root / "delta.json") == 4
    err = capsys.readouterr().err
    assert "'multiset' vs 'set'" in err and "Traceback" not in err
    assert not (root / "delta.json").exists()


def test_report_refuses_a_score_given_under_the_wrong_option(tree, capsys):
    root, _ = tree
    assert run_and_score(root, "without_dg", "drop_k:1", "r", with_store=False) == 0
    score = root / "r" / "score.json"
    capsys.readouterr()
    assert run_cli("report", "--with-report", score, "--without-report", score,
                   "-o", root / "delta.json") == 4
    err = capsys.readouterr().err
    assert "got 'without_dg' and 'without_dg'" in err and "Traceback" not in err
    assert not (root / "delta.json").exists()


def test_commands_after_assembly_do_not_read_training_data(tmp_path, rng, capsys):
    build_benchmark_tree(tmp_path, rng)  # dataset files and the same tiers
    config = {
        "training": {"dataset": "train", "tags": ["person", "organization",
                                                  "location"]},
        "datasets": {k: f"{k}.jsonl" for k in ("train", "wn_test", "fic_test",
                                               "mn_test")},
        "tiers": [
            {"name": "in_domain", "kind": "in_domain", "datasets": ["wn_test"]},
            {"name": "unseen_ne", "kind": "unseen_ne", "datasets": ["mn_test"]},
        ],
    }
    (tmp_path / "bench.json").write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("benchmark", tmp_path / "bench.json",
                   "-o", tmp_path / "manifest.json") == 0
    (tmp_path / "train.jsonl").unlink()

    cfg = _write_run_config(tmp_path, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", tmp_path / "r", "--mock",
                   "gold_oracle", "--quiet") == 0
    assert run_cli("render", "--benchmark", tmp_path / "manifest.json",
                   "--variant", "without_dg", "-o", tmp_path / "jobs.jsonl") == 0
    assert run_cli("score", tmp_path / "r", "--quiet") == 0
    capsys.readouterr()
    score = json.loads((tmp_path / "r" / "score.json").read_text(encoding="utf-8"))
    assert [t["micro"]["f1"] for t in score["tiers"].values()] == [1.0, 1.0]
    jobs = (tmp_path / "jobs.jsonl").read_text(encoding="utf-8").splitlines()
    records = list(inference.load_run(tmp_path / "r")[0])
    assert len(jobs) == len(records)


def _mixed_reply(i: int, raw: str) -> tuple[str, str]:
    """(status, raw_text) for record i of a gold_oracle run, mixing reply kinds."""
    if i % 11 == 10:
        return "error", ""
    surfaces = json.loads(raw)
    kind = i % 7
    if kind == 1:
        return "ok", f"Ecco le entità:\n{raw}\nFine."
    if kind == 2:
        return "ok", json.dumps(surfaces + ["Zebedeo"], ensure_ascii=False)
    if kind == 3:
        return "ok", raw[: len(raw) // 2]
    if kind == 4:
        return "ok", "Nessuna entità di questo tipo."
    if kind == 5:
        return "ok", json.dumps(surfaces[1:], ensure_ascii=False)
    if kind == 6:
        doubled = surfaces + [f"  {s.upper()} " for s in surfaces[:1]]
        return "ok", json.dumps(doubled, ensure_ascii=False)
    return "ok", raw


def mixed_run(root) -> None:
    """A seeded benchmark tree and a run directory under root whose replies
    mix exact, wrapped, extra, truncated, empty, shortened, duplicated and
    failed ones."""
    import random

    build_benchmark_tree(root, random.Random(4242))
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet") == 0
    replies = root / "r" / "replies.jsonl"
    lines = []
    for i, line in enumerate(replies.read_text(encoding="utf-8").splitlines()):
        rec = json.loads(line)
        rec["status"], rec["raw_text"] = _mixed_reply(i, rec["raw_text"])
        lines.append(json.dumps(rec))
    replies.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _masked(path) -> str:
    text = path.read_text(encoding="utf-8")
    return re.sub(r'"run_manifest": "[^"]*"', '"run_manifest": ""', text)


# The golden files are the score.json this run gave before scoring became one
# pass over Benchmark.cells(), with macro_f1 summed by math.fsum so that every
# interpreter writes the same digits; a change to them is a change of scores.
@pytest.mark.parametrize("semantics", ["multiset", "set"])
def test_score_json_matches_golden_bytes(tmp_path, semantics, capsys):
    mixed_run(tmp_path)
    out = tmp_path / "score.json"
    assert run_cli("score", tmp_path / "r", "-o", out, "--semantics", semantics) == 0
    tally = capsys.readouterr().out.splitlines()[0]
    assert tally == "replies: 363 ok, 91 recovered, 245 failed"
    golden = FIXTURES / f"score_mixed_{semantics}.json"
    assert _masked(out) == golden.read_text(encoding="utf-8")


def _digest(path, mask=False, fields=()) -> dict:
    text = path.read_text(encoding="utf-8")
    if mask:  # the only fields that vary from run to run
        text = re.sub(r'"latency_ms": \d+', '"latency_ms": 0', text)
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
    for name in fields:  # clock times and absolute paths
        text = re.sub(f'"{name}": "[^"]*"', f'"{name}": ""', text)
    return {"lines": text.count("\n"),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def grid_outputs(root) -> dict:
    """Digests of what a seeded tree gives: the benchmark manifest and the
    store, replies.jsonl of a cold and a warm mock run, the sorted cache
    keys the cold run wrote, the run manifest, the render -o export of each
    variant and the delta report of two scored runs."""
    import random

    build_benchmark_tree(root, random.Random(5150))
    _gen_store(root)
    out = {"benchmark_manifest": _digest(root / "manifest.json"),
           "store": _digest(root / "store.json", fields=("created_at",))}
    cfg = _write_run_config(root, "with_dg")
    for name, extra in (("replies_cold", ()), ("replies_warm", ("--overwrite",))):
        assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                       "--max-parallel", "3", "--quiet", *extra) == 0
        out[name] = _digest(root / "r" / "replies.jsonl", mask=True)
        if name == "replies_cold":  # a changed key would orphan every cache
            log = (root / "r" / "cache" / "responses.jsonl").read_text(encoding="utf-8")
            keys = "".join(sorted(line.partition("\t")[0] + "\n"
                                  for line in log.splitlines()))
            out["cache_keys"] = {"lines": keys.count("\n"), "sha256":
                                 hashlib.sha256(keys.encode("utf-8")).hexdigest()}
    out["run_manifest"] = _digest(root / "r" / "manifest.json", fields=(
        "written_at", "benchmark_path", "store_path"))
    assert run_cli("render", "--benchmark", root / "manifest.json", "--store",
                   root / "store.json", "-o", root / "with_dg.jsonl") == 0
    assert run_cli("render", "--benchmark", root / "manifest.json", "--variant",
                   "without_dg", "--adapter", "llama3_headers", "--system",
                   "Sei un annotatore.", "-o", root / "without_dg.jsonl") == 0
    for variant in ("with_dg", "without_dg"):
        out[f"render_{variant}"] = _digest(root / f"{variant}.jsonl")
    assert run_and_score(root, "without_dg", "drop_k:1", "r_wo", with_store=False) == 0
    assert run_cli("score", root / "r", "--quiet") == 0
    assert run_cli("report", "--with-report", root / "r" / "score.json",
                   "--without-report", root / "r_wo" / "score.json",
                   "-o", root / "delta.json", "--quiet") == 0
    out["delta"] = _digest(root / "delta.json")
    return out


# The fixture holds the digests these outputs had while jobs were still
# expanded into a list before the first call; rendering jobs as the runner
# reaches them must not change a byte. The manifest, store and delta digests
# are those of the code before errors.write_json wrote every JSON file.
def test_run_and_render_outputs_match_eager_expansion(tmp_path, capsys, monkeypatch):
    # the smallest window, 16 jobs per worker, so the runner waits on its
    # pending misses several times over the cold run
    monkeypatch.setattr(inference, "MAX_PENDING", 1)
    expected = json.loads((FIXTURES / "grid_outputs.json").read_text(encoding="utf-8"))
    assert grid_outputs(tmp_path) == expected


# The full stdout of score on mixed_run (its path written as <out>) and of
# report on the grid_outputs pair: the tables a user reads, to the byte.
_PRINTED = {
    "score_multiset": {"lines": 38, "sha256": "197b767c68a6ff793fb3d711905faaf0"
                                              "714c0795a1f1eadc3c58be915c1b31f2"},
    "score_set": {"lines": 38, "sha256": "bdcc1530027eda5269113e818c1d2786"
                                         "97d80c648a46d514559da0bb3925d1b5"},
    "report": {"lines": 33, "sha256": "fd59f4a39564f55e22ea7cb03c02ca2b"
                                      "37ea7a9aa6c8f2b936d09a4f40a8a27e"},
}


@pytest.mark.parametrize("name", list(_PRINTED))
def test_printed_tables_match_their_digests(tmp_path, capsys, name):
    if name == "report":
        grid_outputs(tmp_path)
        args = ("report", "--with-report", tmp_path / "r" / "score.json",
                "--without-report", tmp_path / "r_wo" / "score.json")
    else:
        mixed_run(tmp_path)
        args = ("score", tmp_path / "r", "-o", tmp_path / "score.json",
                "--semantics", name.partition("_")[2])
    capsys.readouterr()
    assert run_cli(*args) == 0
    text = capsys.readouterr().out.replace(str(tmp_path / "score.json"), "<out>")
    assert {"lines": text.count("\n"),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()} == _PRINTED[name]


def test_version_from_source_checkout(capsys):
    assert run_cli("--version") == 0
    assert "0.1.0" in capsys.readouterr().out


@pytest.mark.parametrize("args", [("--help",), ("score", "--help")], ids=["zsner", "score"])
def test_help_without_docstrings(args):
    """python -OO strips the docstrings that command help is built from."""
    src = Path(inference.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-OO", "-m", "zsner.cli", *args],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "usage: zsner" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_score_rejects_stray_records(tree, capsys):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "empty",
                   "--quiet") == 0
    assert run_cli("score", root / "r", "--quiet") == 0
    replies = root / "r" / "replies.jsonl"
    stray = json.loads(replies.read_text(encoding="utf-8").splitlines()[0])
    stray["job_id"] = "0000deadbeef0000"
    with open(replies, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(stray) + "\n")
    capsys.readouterr()
    assert run_cli("score", root / "r", "--quiet") == 4
    err = capsys.readouterr().err
    assert "records for 1 jobs" in err and "0000deadbeef0000" in err


def test_render_export_with_uncovered_tag_writes_nothing(tree, capsys):
    root, bench = tree
    _gen_store(root)
    store = json.loads((root / "store.json").read_text(encoding="utf-8"))
    del store["records"][bench.tiers[-1].tag_ids[-1]]
    (root / "store.json").write_text(json.dumps(store), encoding="utf-8")
    assert run_cli("render", "--benchmark", root / "manifest.json",
                   "--store", root / "store.json", "-o", root / "jobs.jsonl") == 4
    assert not (root / "jobs.jsonl").exists()


@pytest.mark.parametrize("gap", ["missing_tag", "empty_display_name"])
def test_run_and_render_refuse_a_store_gap_alike(tree, capsys, gap):
    """One coverage rule: both commands exit 4 with one message, writing nothing."""
    root, bench = tree
    _gen_store(root)
    store = json.loads((root / "store.json").read_text(encoding="utf-8"))
    tag = bench.tiers[-1].tag_ids[-1]
    if gap == "missing_tag":
        del store["records"][tag]
    else:
        store["records"][tag]["display_name"] = " "
    (root / "store.json").write_text(json.dumps(store), encoding="utf-8")
    capsys.readouterr()
    errors = []
    for args in [("run", _write_run_config(root, "with_dg"), "--run-dir", root / "r",
                  "--mock", "empty"),
                 ("render", "--benchmark", root / "manifest.json", "--store",
                  root / "store.json", "-o", root / "jobs.jsonl")]:
        assert run_cli(*args) == 4
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"error: store lacks usable definitions/guidelines for benchmark tags: {tag}\n")
    assert not (root / "r").exists() and not (root / "jobs.jsonl").exists()


def test_run_stops_with_exit_5_on_rejected_credentials(tree, endpoint, capsys):
    root, bench = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    raw = json.loads(cfg.read_text(encoding="utf-8"))
    raw["backend"] = {"endpoint_url": endpoint.url, "model_name": "m",
                      "max_parallel": 3, "retry_base_delay": 0.0}
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    cells = len(bench.cells())
    k = 40
    endpoint.script = [(200, completion("[]"))] * k + [(401, {})] * cells
    assert run_cli("run", cfg, "--run-dir", root / "r", "--quiet") == 5
    assert "rejected the credentials" in capsys.readouterr().err
    assert k < len(endpoint.requests) <= k + 3
    assert not (root / "r" / "manifest.json").exists()
    assert not (root / "r" / "replies.jsonl").exists()
    assert endpoint.wait_all_closed()

    # with the key fixed, the finished cells come from the cache
    endpoint.script = []
    assert run_cli("run", cfg, "--run-dir", root / "r", "--quiet") == 0
    manifest = json.loads((root / "r" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"] == {"jobs": cells, "cached": k,
                                  "fetched": cells - k, "failed": 0}


def test_score_reads_shuffled_replies_to_the_same_bytes(tmp_path, capsys):
    import random

    mixed_run(tmp_path)
    replies = tmp_path / "r" / "replies.jsonl"
    lines = replies.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(6).shuffle(lines)
    replies.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "score.json"
    assert run_cli("score", tmp_path / "r", "-o", out) == 0
    tally = capsys.readouterr().out.splitlines()[0]
    assert tally == "replies: 363 ok, 91 recovered, 245 failed"
    golden = FIXTURES / "score_mixed_multiset.json"
    assert _masked(out) == golden.read_text(encoding="utf-8")


def _edit_replies(replies, fault: str) -> None:
    """Put one fault or several into a run's replies.jsonl."""
    lines = replies.read_text(encoding="utf-8").splitlines(keepends=True)
    stray = json.loads(lines[0])
    stray["job_id"] = "0000deadbeef0000"
    stray = json.dumps(stray) + "\n"
    mid = len(lines) // 2
    if fault == "duplicate_after_its_cell":
        lines.append(lines[mid])
    elif fault == "duplicate_before_its_cell":
        lines.insert(mid, lines[-1])
    elif fault == "missing":
        del lines[mid]
    elif fault == "stray_mid_file":
        lines.insert(mid, stray)
    elif fault == "missing_and_stray":
        lines[mid] = stray
    else:  # the first cell missing, a stray record mid-file, a duplicate last
        lines = lines[1:mid] + [stray] + lines[mid:] + [lines[mid + 3]]
    replies.write_text("".join(lines), encoding="utf-8")


_FAULTS = [
    ("duplicate_after_its_cell", 2, "duplicate record"),
    ("duplicate_before_its_cell", 2, "duplicate record"),
    ("missing", 4, "lacks records for 1 jobs"),
    ("stray_mid_file", 4, "records for 1 jobs on no cell"),
    ("missing_and_stray", 4, "lacks records for 1 jobs"),
    ("duplicate_missing_and_stray", 2, "duplicate record"),
]


@pytest.mark.parametrize("fault, code, message", _FAULTS, ids=[f[0] for f in _FAULTS])
def test_score_faults_exit_codes_and_write_no_report(tree, capsys, fault, code,
                                                     message):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "empty",
                   "--quiet") == 0
    _edit_replies(root / "r" / "replies.jsonl", fault)
    capsys.readouterr()
    assert run_cli("score", root / "r", "--quiet") == code
    assert message in capsys.readouterr().err
    assert not (root / "r" / "score.json").exists()


def test_score_walks_the_grid_once_and_reads_each_record_once(tree, monkeypatch):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet") == 0
    walks, reads = [], []
    cells, load_run = corpus.Benchmark.cells, inference.load_run

    def counted_cells(self):
        grid = cells(self)
        return corpus.Grid(len(grid), lambda: walks.append(1) or iter(grid))

    def counted_load_run(run_dir):
        records, manifest = load_run(run_dir)
        return (reads.append(rec.job_id) or rec for rec in records), manifest

    monkeypatch.setattr(corpus.Benchmark, "cells", counted_cells)
    monkeypatch.setattr(inference, "load_run", counted_load_run)
    assert run_cli("score", root / "r", "--quiet") == 0
    assert walks == [1]
    lines = (root / "r" / "replies.jsonl").read_text(encoding="utf-8").splitlines()
    assert sorted(reads) == sorted(json.loads(line)["job_id"] for line in lines)


def test_render_exports_the_job_ids_that_score_pairs_on(tree, monkeypatch):
    root, _ = tree
    _gen_store(root)
    assert run_cli("render", "--benchmark", root / "manifest.json", "--store",
                   root / "store.json", "-o", root / "jobs.jsonl") == 0
    exported = [json.loads(line)["job_id"]
                for line in (root / "jobs.jsonl").read_text(encoding="utf-8").splitlines()]
    assert run_cli("run", _write_run_config(root, "with_dg"), "--run-dir", root / "r",
                   "--mock", "empty", "--quiet") == 0
    paired, walk = [], corpus.grid_job_ids
    monkeypatch.setattr(corpus, "grid_job_ids", lambda cells, grid: (
        paired.append(k) or (k, cell, names) for k, cell, names in walk(cells, grid)))
    assert run_cli("score", root / "r", "--quiet") == 0
    assert paired == exported and len(set(paired)) == len(paired) > 0


def _masked_replies(run_dir) -> list[dict]:
    """replies.jsonl without the fields a resumed run may change."""
    records = []
    for line in (run_dir / "replies.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        for key in ("timestamp", "latency_ms", "attempt_count"):
            rec.pop(key)
        records.append(rec)
    return records


@pytest.mark.parametrize("sig, code", [(signal.SIGINT, 130),
                                       (signal.SIGKILL, -signal.SIGKILL)],
                         ids=["sigint", "sigkill"])
def test_killed_run_resumes_from_its_cache(tree, endpoint, capsys, sig, code):
    root, bench = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    raw = json.loads(cfg.read_text(encoding="utf-8"))
    raw["backend"] = {"endpoint_url": endpoint.url, "model_name": "m",
                      "max_parallel": 2}
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    # a reply of its own for each prompt, so a misplaced one shows
    endpoint.respond = lambda body: json.dumps([hashlib.sha256(body).hexdigest()[:8]])
    assert run_cli("run", cfg, "--run-dir", root / "whole", "--quiet") == 0

    endpoint.delay = 0.005
    src = Path(inference.__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "zsner.cli", "run", str(cfg), "--run-dir",
         str(root / "r")],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    log = root / "r" / "cache" / "responses.jsonl"
    deadline = time.monotonic() + 30
    while not log.is_file() or log.read_bytes().count(b"\n") < 20:
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)
    proc.send_signal(sig)
    assert proc.wait(timeout=30) == code
    endpoint.delay = 0.0
    assert [p.name for p in (root / "r").iterdir()] == ["cache"]

    cells = len(bench.cells())
    cached = log.read_bytes().count(b"\n")  # a line torn by SIGKILL is a miss
    assert 20 <= cached < cells
    capsys.readouterr()
    assert run_cli("run", cfg, "--run-dir", root / "r") == 0
    out = capsys.readouterr().out
    assert f"{cells} jobs: {cached} cached, {cells - cached} fetched" in out
    assert _masked_replies(root / "r") == _masked_replies(root / "whole")


@pytest.mark.parametrize("fault, code", [("auth", 5), ("backend bug", None)])
def test_run_failing_mid_stream_leaves_only_the_cache(tree, endpoint, monkeypatch,
                                                      fault, code):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    raw = json.loads(cfg.read_text(encoding="utf-8"))
    raw["backend"] = {"endpoint_url": endpoint.url, "model_name": "m",
                      "max_parallel": 1}
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    calls = []
    complete = inference.HttpBackend.complete

    def failing(self, job):
        calls.append(job.job_id)
        if len(calls) > 40:
            if fault == "auth":
                raise inference.BackendError("auth rejected (401)", "auth", False)
            raise RuntimeError(fault)
        return complete(self, job)

    monkeypatch.setattr(inference.HttpBackend, "complete", failing)
    if code is None:
        with pytest.raises(RuntimeError, match=fault):
            run_cli("run", cfg, "--run-dir", root / "r", "--quiet")
    else:
        assert run_cli("run", cfg, "--run-dir", root / "r", "--quiet") == code
    assert [p.name for p in (root / "r").iterdir()] == ["cache"]
    assert [p.name for p in (root / "r" / "cache").iterdir()] == ["responses.jsonl"]
    assert (root / "r" / "cache" / "responses.jsonl").read_bytes().count(b"\n") == 40
    assert endpoint.wait_all_closed()


def test_warm_mock_run_builds_no_gold_index(tree, monkeypatch):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    builds = []
    index = inference.gold_surface_index
    monkeypatch.setattr(inference, "gold_surface_index",
                        lambda docs: builds.append(1) or index(docs))
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet") == 0
    assert builds == [1]
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet", "--overwrite") == 0
    assert builds == [1]  # every job a cache hit: no backend call, no index


def test_all_hit_rerun_builds_no_payload_and_starts_no_thread(tree, monkeypatch):
    root, bench = tree
    _gen_store(root)
    cfg = _write_run_config(root, "with_dg")
    wraps, starts = [], []
    wrap, start = prompts.wrap, threading.Thread.start
    monkeypatch.setattr(prompts, "wrap", lambda *a: wraps.append(1) or wrap(*a))
    monkeypatch.setattr(threading.Thread, "start", lambda t: starts.append(t) or start(t))
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet", "--max-parallel", "3") == 0
    assert sorted(t.name for t in starts) == [f"{inference.WORKER_NAME}-{i}" for i in range(3)]
    del wraps[:], starts[:]
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet", "--overwrite") == 0
    counts = json.loads((root / "r" / "manifest.json").read_text(encoding="utf-8"))["counts"]
    assert counts["cached"] == counts["jobs"] == len(bench.cells())
    assert 0 < len(wraps) <= 2 * len(bench.all_tags())  # per tag, never per job
    assert starts == []


def test_guidelines_gen_backend_retries_then_fails(tmp_path, endpoint, capsys):
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"endpoint_url": endpoint.url, "model_name": "m",
                                   "max_retries": 2, "retry_base_delay": 0.0}),
                       encoding="utf-8")
    reply = completion(json.dumps({"definizione": "d", "linee guida": "g"}))
    endpoint.script = [(503, {}), (503, {}), (200, reply)]
    assert run_cli("guidelines", "gen", "--store", tmp_path / "store.json",
                   "--tags", "plant", "--backend", backend) == 0
    assert len(endpoint.requests) == 3
    endpoint.script = [(503, {})] * 3
    assert run_cli("guidelines", "gen", "--store", tmp_path / "other.json",
                   "--tags", "plant", "--backend", backend, "--max-attempts", "1") == 1
    assert "generator backend failure" in capsys.readouterr().err
    assert len(endpoint.requests) == 6


_DG_REPLY = json.dumps({"definizione": "d", "linee guida": "g"})


def _gen_with_backend(tmp, endpoint, tags, *extra, **knobs):
    """guidelines gen arguments for tags against endpoint, with these runner settings."""
    backend = tmp / "backend.json"
    backend.write_text(json.dumps({"endpoint_url": endpoint.url, "model_name": "m",
                                   "retry_base_delay": 0.0, **knobs}), encoding="utf-8")
    return ("guidelines", "gen", "--store", tmp / "store.json", "--tags", tags,
            "--backend", backend, *extra)


def _asked_tags(endpoint) -> list[str]:
    """The display name each request asked about, in arrival order."""
    return [re.search(r'"([^"]+)"', json.loads(r.body)["messages"][0]["content"])[1]
            for r in endpoint.requests]


def _store_tags(tmp) -> set[str]:
    return set(json.loads((tmp / "store.json").read_text(encoding="utf-8"))["records"])


@pytest.mark.parametrize("fault", ["unparseable", "rejected"])
def test_guidelines_gen_failure_keeps_the_tags_before_it(tmp_path, endpoint, capsys, fault):
    args = _gen_with_backend(tmp_path, endpoint, "aa,bb,cc", "--max-attempts", "2",
                             max_parallel=1)
    endpoint.respond = lambda body: _DG_REPLY
    if fault == "unparseable":
        endpoint.respond = lambda body: "mai utile" if b'\\"cc\\"' in body else _DG_REPLY
    else:
        endpoint.script = [(200, completion(_DG_REPLY))] * 2 + [(400, {})]
    assert run_cli(*args) == 1
    assert "'cc'" in capsys.readouterr().err
    assert _store_tags(tmp_path) == {"aa", "bb"}
    archive = tmp_path / "store.json.replies.jsonl"
    archived = [(e["tag_id"], e["attempt"]) for e in map(
        json.loads, archive.read_text(encoding="utf-8").splitlines())]
    tried_cc = [("cc", 1), ("cc", 2)] if fault == "unparseable" else []
    assert archived == [("aa", 1), ("bb", 1)] + tried_cc

    # the rerun asks only for the tag still missing
    endpoint.respond = lambda body: _DG_REPLY
    endpoint.requests.clear()
    assert run_cli(*args) == 0
    assert _asked_tags(endpoint) == ["cc"]
    assert _store_tags(tmp_path) == {"aa", "bb", "cc"}


def test_guidelines_gen_exits_5_on_rejected_credentials(tmp_path, endpoint, capsys):
    endpoint.script = [(200, completion(_DG_REPLY)), (401, {})]
    assert run_cli(*_gen_with_backend(tmp_path, endpoint, "aa,bb,cc", max_parallel=1)) == 5
    assert "rejected the credentials" in capsys.readouterr().err
    assert _asked_tags(endpoint) == ["aa", "bb"]  # nothing is sent after the 401
    assert _store_tags(tmp_path) == {"aa"}
    assert endpoint.wait_all_closed()


def test_guidelines_gen_opens_max_parallel_connections(tmp_path, endpoint):
    endpoint.respond = lambda body: _DG_REPLY
    endpoint.delay = 0.2  # every tag is in flight before the first reply
    assert run_cli(*_gen_with_backend(tmp_path, endpoint, "aa,bb,cc,dd", max_parallel=4)) == 0
    assert sorted(_asked_tags(endpoint)) == ["aa", "bb", "cc", "dd"]
    assert endpoint.connections == 4
    assert endpoint.wait_all_closed()


def test_guidelines_gen_honours_requests_per_minute(tmp_path, endpoint, monkeypatch):
    acquired = []
    monkeypatch.setattr(inference.RateLimiter, "acquire",
                        lambda self, stop: acquired.append(self.per_minute))
    endpoint.respond = lambda body: _DG_REPLY
    assert run_cli(*_gen_with_backend(tmp_path, endpoint, "aa,bb,cc",
                                      requests_per_minute=1)) == 0
    assert acquired == [1, 1, 1]  # one slot per request, of a limiter at 1 per minute


@pytest.fixture(scope="module")
def shared_tree(tmp_path_factory):
    """A seeded benchmark tree and a BIO file that the tests below only read."""
    import random

    root = tmp_path_factory.mktemp("shared")
    build_benchmark_tree(root, random.Random(31))
    (root / "sample.bio").write_text(BIO, encoding="utf-8")
    return root


def _render_args(root, tmp, *extra):
    return ("render", "--benchmark", root / "manifest.json", "--variant", "without_dg",
            *extra, "-o", tmp / "jobs.jsonl")


# Every input the CLI reads as a JSON object: its exit code and the command
# that reads bad, in a scratch directory tmp beside a seeded tree at root.
_JSON_INPUTS = {
    "run_config": (2, lambda root, tmp, bad: (
        "run", bad, "--run-dir", tmp / "r", "--mock", "empty")),
    "benchmark_config": (2, lambda root, tmp, bad: (
        "benchmark", bad, "-o", tmp / "manifest.json")),
    "backend_config": (2, lambda root, tmp, bad: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--backend", bad)),
    "benchmark_manifest": (2, lambda root, tmp, bad: (
        "render", "--benchmark", bad, "--variant", "without_dg", "-o", tmp / "j.jsonl")),
    "guideline_store": (3, lambda root, tmp, bad: (
        "guidelines", "validate", "--store", bad, "--tags", "person")),
    "run_manifest": (2, lambda root, tmp, bad: ("score", bad.parent)),
    "score_report": (2, lambda root, tmp, bad: (
        "report", "--with-report", bad, "--without-report", bad)),
    "template": (2, lambda root, tmp, bad: _render_args(root, tmp, "--template", bad)),
    "adapter": (2, lambda root, tmp, bad: _render_args(root, tmp, "--adapter", bad)),
    "display_names": (2, lambda root, tmp, bad: _render_args(
        root, tmp, "--display-names", bad)),
    "alias_table": (2, lambda root, tmp, bad: (
        "ingest", root / "sample.bio", "--aliases", bad, "-o", tmp / "d.jsonl")),
}


@pytest.mark.parametrize("content", [None, b'{"benchmark": ', b"[]", b'{"\xff": 1}',
                                     b"[" * 100_000],
                         ids=["missing", "invalid_json", "list", "not_utf8", "deep"])
@pytest.mark.parametrize("name", list(_JSON_INPUTS))
def test_bad_json_input_exits_with_its_code(shared_tree, tmp_path, capsys, name, content):
    code, command = _JSON_INPUTS[name]
    (tmp_path / "run").mkdir()  # a run directory whose manifest is the bad input
    (tmp_path / "run" / "replies.jsonl").write_text("", encoding="utf-8")
    bad = tmp_path / "run" / "manifest.json" if name == "run_manifest" else tmp_path / "in.json"
    if content is not None:
        bad.write_bytes(content)
    capsys.readouterr()
    assert run_cli(*command(shared_tree, tmp_path, bad)) == code
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


def _write(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


def _asset_with(kind: str, name: str, **fields) -> bytes:
    """A packaged JSON asset with `fields` set."""
    from importlib import resources as assets

    asset = assets.files("zsner") / "assets" / kind / f"{name}.json"
    return json.dumps({**json.loads(asset.read_text(encoding="utf-8")), **fields}).encode()


def _run_with_backend(root, tmp, backend, *extra):
    cfg = {"benchmark": str(root / "manifest.json"), "variant": "without_dg",
           "backend": backend}
    return ("run", _write(tmp / "run.json", json.dumps(cfg).encode()),
            "--run-dir", tmp / "r", *extra)


def _http_backend_with(**knobs) -> dict:
    """A backend object for an endpoint nothing listens on, with knobs set."""
    return {"endpoint_url": f"http://127.0.0.1:{closed_port()}/v1", "model_name": "m",
            **knobs}


def _manifest_with(root, tmp, edit) -> Path:
    """A copy of root's benchmark manifest, changed in place by edit(manifest)."""
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    manifest["datasets"] = {k: str(root / v) for k, v in manifest["datasets"].items()}
    edit(manifest)
    return _write(tmp / "manifest.json", json.dumps(manifest).encode())


def _bench_config_with(root, tmp, edit):
    """benchmark arguments for a config over root's datasets, changed in place by edit(config)."""
    config = {"training": {"dataset": "train", "tags": ["person", "organization", "location"]},
              "datasets": {k: str(root / f"{k}.jsonl")
                           for k in ("train", "wn_test", "fic_test", "mn_test")},
              "tiers": [{"name": name, "kind": name, "datasets": [ds]} for name, ds in (
                  ("in_domain", "wn_test"), ("out_of_domain", "fic_test"),
                  ("unseen_ne", "mn_test"))]}
    edit(config)
    return ("benchmark", _write(tmp / "b.json", json.dumps(config).encode()),
            "-o", tmp / "m.json")


_NOT_UTF8_DATASET = b'{"doc_id": "d\xff", "text": "Roma"}\n'


def _dataset_line(**fields) -> bytes:
    return json.dumps({"doc_id": "d", "text": "Roma", **fields}).encode() + b"\n"


def _store(**fields) -> bytes:
    """A store whose one record, for person, has `fields` set."""
    record = {"display_name": "persona", "definition": "d", "guidelines": "g", **fields}
    return json.dumps({"records": {"person": record}}).encode()


def _score_report(**fields) -> bytes:
    """A score report of one tier, t, and one tag, person, with `fields` set."""
    score = {"tp": 1, "fp": 0, "fn": 0, "precision": 1.0, "recall": 1.0, "f1": 1.0}
    tier = {"kind": "in_domain", "macro_f1": 1.0, "micro": score,
            "per_tag": {"person": {**score, **fields}}}
    return json.dumps({"benchmark_id": "b", "variant": "with_dg", "tiers": {"t": tier}}).encode()


def _run_dir_with(root, tmp, replies="", **fields) -> Path:
    """A run directory with the replies.jsonl text `replies` and a manifest
    with `fields` set."""
    (tmp / "run").mkdir()
    (tmp / "run" / "replies.jsonl").write_text(replies, encoding="utf-8")
    manifest = {"benchmark_path": str(root / "manifest.json"), "variant": "without_dg",
                "template_id": "default_it", "adapter_id": "openai_chat", **fields}
    _write(tmp / "run" / "manifest.json", json.dumps(manifest).encode())
    return tmp / "run"

# Bad inputs beyond the JSON objects above: its exit code, the command that
# reads it once written under tmp beside a seeded tree at root, and a piece
# of the error message.
_BAD_INPUTS = {
    "bio_not_utf8": (3, lambda root, tmp: (
        "ingest", _write(tmp / "in.bio", b"Roma\tB-LOC\xff\n"), "-o", tmp / "d.jsonl"),
        "in.bio"),
    "dataset_not_utf8": (3, lambda root, tmp: (
        "inventory", _write(tmp / "in.jsonl", _NOT_UTF8_DATASET)), "in.jsonl"),
    "benchmark_dataset_not_utf8": (3, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m["datasets"].update(
            mn_test=str(_write(tmp / "in.jsonl", _NOT_UTF8_DATASET)))),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "in.jsonl"),
    "benchmark_dataset_missing": (2, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m["datasets"].update(wn_test=str(tmp / "no.jsonl"))),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "no.jsonl: No such file"),
    "inventory_dataset_missing": (2, lambda root, tmp: (
        "inventory", tmp / "no.jsonl"), "cannot read dataset"),
    "benchmark_config_dataset_missing": (2, lambda root, tmp: (
        "benchmark", _write(tmp / "b.json", json.dumps(
            {"datasets": {"train": "no.jsonl"}}).encode()), "-o", tmp / "m.json"),
        "no.jsonl: No such file"),
    "manifest_tag_ids_text": (2, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m["tiers"][1].update(tag_ids="location")),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "'out_of_domain' tag_ids"),
    "meta_prompt_not_utf8": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--mock", "canned", "--meta-prompt", _write(tmp / "in.txt", b"Definisci \xff")),
        "in.txt"),
    "template_body_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--template", _write(tmp / "t.json", _asset_with(
            "templates", "default_it", body=5))), "'body'"),
    "template_body_list_of_numbers": (2, lambda root, tmp: _render_args(
        root, tmp, "--template", _write(tmp / "t.json", _asset_with(
            "templates", "default_it", body=["{text}", 5]))), "'body'"),
    "adapter_with_system_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--adapter", _write(tmp / "a.json", _asset_with(
            "adapters", "openai_chat", with_system=5))), "'with_system'"),
    "mock_max_parallel_zero": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"max_parallel": 0}, "--mock", "empty"), "run.json: max_parallel"),
    "mock_max_parallel_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"max_parallel": "x"}, "--mock", "empty"), "run.json: max_parallel"),
    "mock_requests_per_minute_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"requests_per_minute": -1}, "--mock", "empty"),
        "run.json: requests_per_minute"),
    "http_requests_per_minute_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(requests_per_minute=-1)), "run.json: requests_per_minute"),
    "max_parallel_option_zero": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {}, "--mock", "empty", "--max-parallel", "0"), "max_parallel"),
    "backend_missing": (2, lambda root, tmp: (
        "run", _write(tmp / "run.json", json.dumps(
            {"benchmark": str(root / "manifest.json"), "variant": "without_dg"}).encode()),
        "--run-dir", tmp / "r"), "run.json: needs a 'backend' object"),
    "backend_not_an_object": (2, lambda root, tmp: _run_with_backend(
        root, tmp, [4], "--mock", "empty"), "'backend'"),
    "mock_max_retries_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"max_retries": "x"}, "--mock", "empty"), "run.json: max_retries"),
    "mock_retry_base_delay_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"retry_base_delay": -1}, "--mock", "empty"), "run.json: retry_base_delay"),
    "http_timeout_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(timeout="x")), "run.json: timeout"),
    "http_max_tokens_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(max_tokens=-5)), "run.json: max_tokens"),
    "http_temperature_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(temperature="hot")), "run.json: temperature"),
    "http_endpoint_url_number": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(endpoint_url=5)), "run.json: endpoint_url"),
    "gen_max_retries_text": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person", "--backend",
        _write(tmp / "b.json", json.dumps(_http_backend_with(max_retries="x")).encode())),
        "max_retries"),
    "gen_max_parallel_zero": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person", "--backend",
        _write(tmp / "b.json", json.dumps(_http_backend_with(max_parallel=0)).encode())),
        "b.json: max_parallel"),
    "gen_backend_unknown_setting": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person", "--backend",
        _write(tmp / "b.json", json.dumps(_http_backend_with(bogus=1)).encode())),
        "b.json: bad backend config"),
    "http_unknown_setting": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(bogus=1)), "run.json: bad backend config"),
    "gen_max_attempts_zero": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--mock", "canned", "--max-attempts", "0"), "--max-attempts"),
    "template_id_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--template", _write(tmp / "t.json", _asset_with(
            "templates", "default_it", template_id=5))), "'template_id'"),
    "adapter_id_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--adapter", _write(tmp / "a.json", _asset_with(
            "adapters", "openai_chat", adapter_id=7))), "'adapter_id'"),
    **{f"run_manifest_{key}_number": (2, lambda root, tmp, key=key: (
        "score", _run_dir_with(root, tmp, **{key: 5})), f"manifest.json: {key!r}")
       for key in ("variant", "template_id", "adapter_id", "benchmark_path")},
    **{f"run_config_{key}_{type(value).__name__}": (2, lambda root, tmp, key=key, value=value: (
        "run", _write(tmp / "run.json", json.dumps(
            {"benchmark": str(root / "manifest.json"), "variant": "without_dg", key: value}
        ).encode()), "--run-dir", tmp / "r", "--mock", "empty"), f"run.json: {key!r}")
       for key, value in [("benchmark", 5), ("template", 5), ("display_names", ["it"]),
                          ("store", 7), ("system_text", 5)]},
    "manifest_tier_name_number": (2, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m["tiers"][0].update(name=5)),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "manifest.json: tier name"),
    "manifest_benchmark_id_number": (2, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m.update(benchmark_id=5)),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "manifest.json: benchmark_id"),
    "score_report_f1_text": (2, lambda root, tmp: (
        "report", "--with-report", _write(tmp / "s.json", _score_report(f1="x")),
        "--without-report", _write(tmp / "t.json", _score_report())), "s.json: tier 't'"),
    "score_report_semantics_unknown": (2, lambda root, tmp: (
        "report", "--with-report", _write(tmp / "s.json", json.dumps(
            {**json.loads(_score_report()), "semantics": "sets"}).encode()),
        "--without-report", _write(tmp / "t.json", _score_report())), "s.json: 'semantics'"),
    "store_display_name_number": (3, lambda root, tmp: (
        "guidelines", "validate", "--store", _write(tmp / "st.json", _store(display_name=5)),
        "--tags", "person"), "st.json: tag 'person' display_name"),
    "store_definition_number": (3, lambda root, tmp: (
        "render", "--benchmark", root / "manifest.json", "--variant", "with_dg", "--store",
        _write(tmp / "st.json", _store(definition=5)), "-o", tmp / "j.jsonl"),
        "st.json: tag 'person' definition"),
    **{f"dataset_{key}_number": (3, lambda root, tmp, key=key: (
        "inventory", _write(tmp / "in.jsonl", _dataset_line(**{key: 5}))), f"in.jsonl:1: {key!r}")
       for key in ("doc_id", "text", "domain")},
    "dataset_mention_tag_number": (3, lambda root, tmp: (
        "inventory", _write(tmp / "in.jsonl", _dataset_line(mentions=[
            {"tag": 5, "surface": "Roma", "start": 0, "end": 4}]))), "in.jsonl:1: d: mention"),
    **{f"replies_{key}_{type(value).__name__}": (3, lambda root, tmp, key=key, value=value: (
        "score", _run_dir_with(root, tmp, replies=json.dumps(
            {**inference.CompletionRecord("x", "[]", "ok").to_record(), key: value}) + "\n")),
        f"replies.jsonl:1: bad record (ValueError(\"{key!r}")
       for key, value in [("job_id", 5), ("raw_text", 5), ("status", 5), ("error_kind", None),
                          ("latency_ms", "0"), ("attempt_count", True), ("fingerprint", []),
                          ("timestamp", 1.5)]},
    **{f"dataset_{name}": (3, lambda root, tmp, line=line: (
        "inventory", _write(tmp / "in.jsonl", line)), needle)
       for name, line, needle in [
           ("not_json", b'{"doc_id": "d",\n', "in.jsonl:1: invalid JSON"),
           ("nested_too_deep", b"[" * 100_000 + b"\n", "in.jsonl:1: invalid JSON"),
           ("doc_id_nested_too_deep", b'{"doc_id": ' + b"[" * 100_000 + b"\n",
            "in.jsonl:1: invalid JSON"),
           ("line_array", b'["d", "Roma"]\n', "in.jsonl:1: must be a JSON object"),
           ("text_missing", b'{"doc_id": "d"}\n', "in.jsonl:1: 'text'"),
           ("mentions_null", _dataset_line(mentions=None), "in.jsonl:1: 'mentions'"),
           ("mention_list", _dataset_line(mentions=[["person", "Roma", 0, 4]]),
            "in.jsonl:1: 'mentions'"),
           ("mention_surface_missing", _dataset_line(mentions=[
               {"tag": "location", "start": 0, "end": 4}]), "in.jsonl:1: d: mention 'surface'"),
       ]},
    "dataset_mention_outside_text": (3, lambda root, tmp: (
        "inventory", _write(tmp / "in.jsonl", _dataset_line(mentions=[
            {"tag": "location", "surface": "oma", "start": -3, "end": 4}]))),
        "in.jsonl:1: d: mention 'location' has span -3..4, empty or outside the text"),
    "run_manifest_benchmark_id_changed": (4, lambda root, tmp: (
        "score", _run_dir_with(root, tmp, benchmark_id="other")),
        "benchmark changed since the run: manifest has other"),
    "mock_parameter_not_taken": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {}, "--mock", "empty:3"), "mock 'empty' takes no parameter"),
    "mock_drop_k_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {}, "--mock", "drop_k:-1"), "drop_k parameter must be >= 0"),
    "benchmark_config_training_dataset_unknown": (2, lambda root, tmp: _bench_config_with(
        root, tmp, lambda c: c["training"].update(dataset="dev")),
        "b.json: training dataset 'dev' not loaded"),
    "benchmark_config_tier_without_datasets": (2, lambda root, tmp: _bench_config_with(
        root, tmp, lambda c: c["tiers"][1].update(datasets=[])),
        "tier #1 (out_of_domain): no datasets listed"),
    "benchmark_config_tier_names_shared": (2, lambda root, tmp: _bench_config_with(
        root, tmp, lambda c: c["tiers"][2].update(name="in_domain")),
        "b.json: duplicate tier names: ['in_domain', 'out_of_domain', 'in_domain']"),
    "benchmark_config_tier_kind_unknown": (2, lambda root, tmp: _bench_config_with(
        root, tmp, lambda c: c["tiers"][1].update(kind="cross_domain")),
        "b.json: tier #1: kind must be one of"),
    "replies_nested_too_deep": (3, lambda root, tmp: (
        "score", _run_dir_with(root, tmp, replies='{"job_id": ' + "[" * 100_000 + "\n")),
        "replies.jsonl:1: invalid JSON"),
    "tier_dataset_text_number": (3, lambda root, tmp: (
        "render", "--benchmark",
        _manifest_with(root, tmp, lambda m: m["datasets"].update(
            mn_test=str(_write(tmp / "in.jsonl", _dataset_line(text=5))))),
        "--variant", "without_dg", "-o", tmp / "j.jsonl"), "in.jsonl:1: 'text'"),
    # the refusals of each command, which it makes after importing its modules
    "validate_tags_and_benchmark": (2, lambda root, tmp: (
        "guidelines", "validate", "--store", tmp / "st.json", "--benchmark",
        root / "manifest.json", "--tags", "person"),
        "give either --benchmark or --tags, not both"),
    "validate_tags_empty": (2, lambda root, tmp: (
        "guidelines", "validate", "--store", tmp / "st.json", "--tags", " , "), "--tags is empty"),
    "validate_no_tags": (2, lambda root, tmp: (
        "guidelines", "validate", "--store", tmp / "st.json"),
        "one of --benchmark or --tags is required"),
    "gen_neither_mock_nor_backend": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "st.json", "--tags", "person"),
        "give exactly one of --mock or --backend"),
    "gen_mock_unknown": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "st.json", "--tags", "person", "--mock", "oracle"),
        "unknown guideline mock 'oracle'; only 'canned'"),
    "render_doc_without_tag": (2, lambda root, tmp: (
        "render", "--benchmark", root / "manifest.json", "--variant", "without_dg",
        "--doc", "wn-00000"), "--doc and --tag go together"),
    "render_doc_unknown": (2, lambda root, tmp: (
        "render", "--benchmark", root / "manifest.json", "--variant", "without_dg",
        "--doc", "wn-99999", "--tag", "person"),
        "no document 'wn-99999' in the benchmark datasets"),
    "render_tag_unknown": (2, lambda root, tmp: (
        "render", "--benchmark", root / "manifest.json", "--variant", "without_dg",
        "--doc", "wn-00000", "--tag", "ghost"), "tag 'ghost' is not part of the benchmark"),
    "render_no_output": (2, lambda root, tmp: (
        "render", "--benchmark", root / "manifest.json", "--variant", "without_dg"),
        "give -o to export jobs, or --doc/--tag to preview one"),
    "run_config_variant_unknown": (2, lambda root, tmp: (
        "run", _write(tmp / "run.json", json.dumps(
            {"benchmark": str(root / "manifest.json"), "variant": "with_gd"}).encode()),
        "--run-dir", tmp / "r", "--mock", "empty"),
        "variant must be one of ('with_dg', 'without_dg'), got 'with_gd'"),
}


@pytest.mark.parametrize("name", list(_BAD_INPUTS))
def test_bad_input_exits_with_its_code(shared_tree, tmp_path, capsys, name):
    code, command, needle = _BAD_INPUTS[name]
    args = command(shared_tree, tmp_path)
    capsys.readouterr()
    assert run_cli(*args) == code
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "r").exists()  # refused before the run directory


# Hand edits of a benchmark manifest that validate_benchmark refuses: the
# edit of its tiers (in_domain, out_of_domain, unseen_ne) and the message.
_BAD_MANIFEST_TIERS = {
    "unknown_kind": (lambda tiers: tiers[1].update(kind="cross_domain"),
                     "tier 'out_of_domain': unknown kind 'cross_domain'"),
    "no_tags": (lambda tiers: tiers[1].update(tag_ids=[]), "tier 'out_of_domain' has no tags"),
    "unseen_overlaps_training": (lambda tiers: tiers[2]["tag_ids"].append("person"),
                                 "unseen tier 'unseen_ne' overlaps training tags: ['person']"),
    "in_domain_outside_training": (
        lambda tiers: tiers[0]["tag_ids"].append("animal"),
        "in-domain tier 'in_domain' has tags outside training: ['animal']"),
    "unknown_dataset": (lambda tiers: tiers[0]["dataset_ids"].append("nope"),
                        "tier 'in_domain' references unloaded datasets ['nope']"),
}


@pytest.mark.parametrize("name", list(_BAD_MANIFEST_TIERS))
def test_render_refuses_a_hand_edited_manifest(shared_tree, tmp_path, capsys, name):
    edit, needle = _BAD_MANIFEST_TIERS[name]
    manifest = _manifest_with(shared_tree, tmp_path, lambda m: edit(m["tiers"]))
    capsys.readouterr()
    assert run_cli("render", "--benchmark", manifest, "--variant", "without_dg",
                   "-o", tmp_path / "jobs.jsonl") == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "jobs.jsonl").exists()


@pytest.mark.parametrize("command", ["render", "benchmark"])
def test_a_dataset_path_naming_a_directory_exits_2(shared_tree, tmp_path, capsys, command):
    folder = tmp_path / "wn_test.d"
    folder.mkdir()
    if command == "render":
        args = ("render", "--benchmark", _manifest_with(
            shared_tree, tmp_path, lambda m: m["datasets"].update(wn_test=str(folder))),
            "--variant", "without_dg", "-o", tmp_path / "j.jsonl")
    else:
        args = ("benchmark", _write(tmp_path / "b.json", json.dumps(
            {"datasets": {"train": str(folder)}}).encode()), "-o", tmp_path / "m.json")
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert f"cannot read dataset {folder}: Is a directory" in err and "Traceback" not in err


# Usage errors, refused while the command line is parsed: the arguments,
# given a directory `tmp` and a file `f` in it, and the option or argument
# the message must name.
_USAGE_ERRORS = {
    "ingest_output_directory": (lambda tmp, f: ("ingest", f, "-o", tmp), "--output"),
    "inventory_dataset_directory": (lambda tmp, f: ("inventory", tmp), "DATASET"),
    "render_output_directory": (lambda tmp, f: (
        "render", "--benchmark", f, "--variant", "without_dg", "-o", tmp), "--output"),
    "score_output_directory": (lambda tmp, f: ("score", tmp, "-o", tmp), "--output"),
    "report_with_report_directory": (lambda tmp, f: (
        "report", "--with-report", tmp, "--without-report", f), "--with-report"),
    "gen_backend_directory": (lambda tmp, f: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--backend", tmp), "--backend"),
    "run_run_dir_file": (lambda tmp, f: ("run", f, "--run-dir", f), "--run-dir"),
    "score_run_dir_file": (lambda tmp, f: ("score", f), "RUN_DIR"),
    "gen_max_attempts_zero": (lambda tmp, f: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--mock", "canned", "--max-attempts", "0"), "--max-attempts"),
    "gen_max_attempts_text": (lambda tmp, f: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--mock", "canned", "--max-attempts", "x"), "--max-attempts"),
    "render_variant_unknown": (lambda tmp, f: (
        "render", "--benchmark", f, "--variant", "bogus", "-o", tmp / "j.jsonl"), "--variant"),
    "score_semantics_unknown": (lambda tmp, f: (
        "score", tmp, "--semantics", "bogus"), "--semantics"),
    "run_without_run_dir": (lambda tmp, f: ("run", f), "--run-dir"),
    "no_command": (lambda tmp, f: (), "ingest"),
    "unknown_command": (lambda tmp, f: ("bogus",), "'bogus'"),
    "bare_guidelines": (lambda tmp, f: ("guidelines",), "validate"),
}


@pytest.mark.parametrize("name", list(_USAGE_ERRORS))
def test_usage_error_exits_2_and_names_the_argument(tmp_path, capsys, name):
    command, needle = _USAGE_ERRORS[name]
    args = command(tmp_path, _write(tmp_path / "f.json", b"{}"))
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]  # nothing written


@pytest.mark.parametrize("rpm", [0, None])
def test_zero_or_null_requests_per_minute_is_no_limit(shared_tree, tmp_path, rpm):
    args = _run_with_backend(shared_tree, tmp_path, {"requests_per_minute": rpm},
                             "--mock", "empty", "--quiet")
    assert run_cli(*args) == 0


def test_differing_twin_document_exits_3_at_load(tree, capsys):
    """A doc_id in two tier datasets with differing text stops every command
    that loads the benchmark, naming the dataset file and the id."""
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "empty", "--quiet") == 0
    twin = add_twin(root, " altro")
    manifest = root / "manifest.json"
    for args in [("run", cfg, "--run-dir", root / "r2", "--mock", "empty"),
                 ("render", "--benchmark", manifest, "--variant", "without_dg",
                  "-o", root / "j.jsonl"),
                 ("score", root / "r"),
                 ("guidelines", "validate", "--store", root / "store.json",
                  "--benchmark", manifest)]:
        capsys.readouterr()
        assert run_cli(*args) == 3, args
        err = capsys.readouterr().err
        assert str(root / "mn_test.jsonl") in err and repr(twin) in err
        assert "Traceback" not in err
    assert not (root / "r2").exists() and not (root / "r" / "score.json").exists()


def test_json_files_are_read_and_written_only_in_errors():
    src = Path(__file__).parents[1] / "src" / "zsner"
    calls = [f"{path.name}:{n}" for path in sorted(src.glob("*.py")) if path.name != "errors.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "json.load(" in line or "json.dump(" in line]
    assert calls == []


# Modules a command must not load, and the code a child runs the command
# with: it prints the names of the modules loaded at its end. The child
# starts with -S, so no site hook loads a module before zsner does.
_NOT_LOADED = {
    "ingest": {"dataclasses"},
    "score": {"dataclasses", "zsner.prompts", "zsner.guidelines", "zsner.resources"},
    "report": {"dataclasses", "zsner.prompts", "zsner.guidelines", "zsner.resources",
               "zsner.inference", "zsner.parsing"},
}
_LOADED = ("import sys\nfrom zsner.cli import main\n"
           "try:\n    main(sys.argv[1:])\nfinally:\n    print(' '.join(sys.modules))")


def test_a_command_loads_only_the_modules_it_runs(tree, tmp_path, capsys):
    root, _ = tree
    _gen_store(root)
    for variant in ("with_dg", "without_dg"):
        assert run_cli("run", _write_run_config(root, variant), "--run-dir", root / variant,
                       "--mock", "gold_oracle", "--quiet") == 0
        assert run_cli("score", root / variant, "--quiet") == 0
    bio = _write(tmp_path / "in.bio", BIO.encode())
    args = {"ingest": (bio, "-o", tmp_path / "in.jsonl", "--aliases", "nermud"),
            "score": (root / "with_dg", "-o", tmp_path / "score.json", "--quiet"),
            "report": ("--with-report", root / "with_dg" / "score.json",
                       "--without-report", root / "without_dg" / "score.json", "--quiet")}
    src = Path(inference.__file__).parents[1]
    for command, not_loaded in _NOT_LOADED.items():
        proc = subprocess.run([sys.executable, "-S", "-c", _LOADED, command,
                               *map(str, args[command])],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert {"zsner.cli", "zsner.errors"} <= loaded  # the names are module names
        assert loaded & not_loaded == set(), command


def test_the_parser_choices_are_the_module_constants():
    assert cli.VARIANTS == corpus.VARIANTS
    assert cli.SEMANTICS == (evaluation.MULTISET, evaluation.SET)


def test_the_package_imports_only_the_standard_library():
    root = Path(__file__).parents[1]
    imported = set()
    for path in sorted((root / "src" / "zsner").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - sys.stdlib_module_names == {"zsner"}
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S) == [""]


def test_records_are_paired_and_parsed_only_in_evaluation():
    """Only evaluation.py calls _lockstep or to_extraction (a def is no call)."""
    src = Path(__file__).parents[1] / "src" / "zsner"
    calls = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
             if path.name != "evaluation.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"(?<!def )\b(_lockstep|to_extraction)\(", line)]
    assert calls == []


@pytest.mark.parametrize("line, where", [
    ("{not json", ":3:"), ("[1, 2]", ":3:"), ('{"raw_text": "[]"}', ":3:"),
    ('{"job_id": "\xff"}', " is not UTF-8"),
], ids=["not_json", "not_object", "no_job_id", "not_utf8"])
def test_score_malformed_reply_line_is_input_error(tree, capsys, line, where):
    root, _ = tree
    cfg = _write_run_config(root, "without_dg", with_store=False)
    assert run_cli("run", cfg, "--run-dir", root / "r", "--mock", "empty",
                   "--quiet") == 0
    replies = root / "r" / "replies.jsonl"
    lines = replies.read_text(encoding="utf-8").splitlines(keepends=True)
    replies.write_bytes("".join(lines[:2] + [line + "\n"] + lines[2:]).encode("latin-1"))
    capsys.readouterr()
    assert run_cli("score", root / "r", "--quiet") == 3
    assert f"{replies}{where}" in capsys.readouterr().err
    assert not (root / "r" / "score.json").exists()


def test_report_on_score_json_with_missing_fields_is_config_error(tree, capsys):
    root, _ = tree
    assert run_and_score(root, "without_dg", "empty", "r", with_store=False) == 0
    good = root / "r" / "score.json"
    for field in ("benchmark_id", "tiers", "tp", "fp", "fn", "precision", "recall", "f1"):
        data = json.loads(good.read_text(encoding="utf-8"))
        if field in data:
            del data[field]
        else:
            tier = next(iter(data["tiers"].values()))
            del next(iter(tier["per_tag"].values()))[field]
        bad = root / f"score_no_{field}.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("report", "--with-report", bad, "--without-report", good) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and repr(field) in err


def test_template_or_adapter_without_a_key_is_config_error(shared_tree, tmp_path, capsys):
    from importlib import resources as assets

    for kind, name, option, key in [("templates", "default_it", "--template", "template_id"),
                                    ("templates", "default_it", "--template", "body"),
                                    ("adapters", "openai_chat", "--adapter", "adapter_id"),
                                    ("adapters", "openai_chat", "--adapter", "kind")]:
        asset = assets.files("zsner") / "assets" / kind / f"{name}.json"
        data = json.loads(asset.read_text(encoding="utf-8"))
        del data[key]
        bad = tmp_path / f"{name}_no_{key}.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(*_render_args(shared_tree, tmp_path, option, bad)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err


@pytest.fixture(scope="module")
def json_files(tmp_path_factory):
    """A seeded tree with every JSON file the pipeline reads: the benchmark
    config and manifest, a store, a run config, a run directory with its
    manifest and score.json, and copies of the packaged template and adapter."""
    import random
    from importlib import resources as assets

    root = tmp_path_factory.mktemp("json_files")
    _, _, config = build_benchmark_tree(root, random.Random(37))
    config["datasets"] = {k: str(root / v) for k, v in config["datasets"].items()}
    _write(root / "bench.json", json.dumps(config).encode())
    _gen_store(root)
    run_cfg = {"benchmark": str(root / "manifest.json"), "variant": "with_dg",
               "store": str(root / "store.json"), "display_names": "it",
               "template": "default_it", "adapter": "openai_chat", "system_text": "",
               "backend": {"max_parallel": 2, "max_retries": 1, "retry_base_delay": 0,
                           "requests_per_minute": 0}}
    _write(root / "run.json", json.dumps(run_cfg).encode())
    assert run_cli("run", root / "run.json", "--run-dir", root / "r", "--mock", "gold_oracle",
                   "--quiet") == 0
    assert run_cli("score", root / "r", "--quiet") == 0
    for kind, name in [("templates", "default_it"), ("adapters", "openai_chat")]:
        asset = assets.files("zsner") / "assets" / kind / f"{name}.json"
        _write(root / f"{kind}.json", asset.read_bytes())
    return root


# Each JSON file of json_files and the command that reads it once written to
# bad, in a scratch directory tmp beside the tree at root.
_SWEEP = {
    "bench.json": lambda root, tmp, bad: ("benchmark", bad, "-o", tmp / "m.json"),
    "manifest.json": lambda root, tmp, bad: (
        "render", "--benchmark", bad, "--variant", "with_dg", "--store", root / "store.json",
        "-o", tmp / "j.jsonl"),
    "store.json": lambda root, tmp, bad: (
        "guidelines", "validate", "--store", bad, "--benchmark", root / "manifest.json"),
    "run.json": lambda root, tmp, bad: ("run", bad, "--run-dir", tmp / "r2", "--mock", "empty"),
    "r/manifest.json": lambda root, tmp, bad: ("score", bad.parent, "--quiet"),
    "templates.json": lambda root, tmp, bad: _render_args(root, tmp, "--template", bad),
    "adapters.json": lambda root, tmp, bad: _render_args(root, tmp, "--adapter", bad),
    "r/score.json": lambda root, tmp, bad: (
        "report", "--with-report", bad, "--without-report", root / "r" / "score.json"),
}

# a value of another JSON type for a value of each type
_OTHER = {str: 5, int: "5", float: "0.5", bool: "x", list: "x", dict: ["x"], type(None): 5}


def _first_keys(data, path=(), found=None) -> dict:
    """The path to the first occurrence of each distinct key in data."""
    found = {} if found is None else found
    items = (data.items() if isinstance(data, dict)
             else enumerate(data) if isinstance(data, list) else ())
    for k, v in items:
        if isinstance(k, str):
            found.setdefault(k, (*path, k))
        _first_keys(v, (*path, k), found)
    return found


@pytest.mark.parametrize("name", list(_SWEEP))
def test_every_field_of_another_type_exits_with_its_code(json_files, tmp_path, capsys, name):
    """Each distinct field name of each JSON file, at its first occurrence,
    set to a value of another JSON type: the command that reads the file does
    not exit 1 and prints no traceback."""
    data = json.loads((json_files / name).read_text(encoding="utf-8"))
    if name == "manifest.json":  # the copy resolves its datasets from elsewhere
        data["datasets"] = {k: str(json_files / v) for k, v in data["datasets"].items()}
    failures = []
    for i, (key, path) in enumerate(_first_keys(data).items()):
        tmp = tmp_path / str(i)
        bad = tmp / name
        bad.parent.mkdir(parents=True)
        if name == "r/manifest.json":
            _write(tmp / "r" / "replies.jsonl", (json_files / "r" / "replies.jsonl").read_bytes())
        edited = json.loads(json.dumps(data))
        parent = edited
        for k in path[:-1]:
            parent = parent[k]
        parent[key] = _OTHER[type(parent[key])]
        _write(bad, json.dumps(edited).encode())
        capsys.readouterr()
        try:
            code = run_cli(*_SWEEP[name](json_files, tmp, bad))
        except Exception as exc:  # an escaped exception fails the field too
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 2, 3, 4) or "Traceback" in err:
            failures.append((key, code, err[-200:]))
    assert failures == []


def test_field_type_messages_are_written_only_in_errors():
    src = Path(__file__).parents[1] / "src" / "zsner"
    phrases = ("must be a string", "must be an integer", "must be a number",
               "must be a list of strings")
    found = [f"{path.name}:{n}" for path in sorted(src.glob("*.py")) if path.name != "errors.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if any(p in line for p in phrases)]
    assert found == []


def test_render_walks_the_grid_once(tree, monkeypatch):
    root, _ = tree
    walks = []
    cells = corpus.Benchmark.cells

    def counted_cells(self):
        grid = cells(self)
        return corpus.Grid(len(grid), lambda: walks.append(1) or iter(grid))

    monkeypatch.setattr(corpus.Benchmark, "cells", counted_cells)
    assert run_cli("render", "--benchmark", root / "manifest.json", "--variant", "without_dg",
                   "-o", root / "jobs.jsonl") == 0
    assert walks == [1]
