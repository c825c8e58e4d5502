import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import add_twin, build_benchmark_tree, closed_port, completion
from zsner import corpus, inference
from zsner.cli import main

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


def test_ingest_bad_bio_is_input_error(tmp_path):
    bad = tmp_path / "bad.bio"
    bad.write_text("Roma\tQ-LOC\n", encoding="utf-8")
    assert run_cli("ingest", bad, "-o", tmp_path / "x.jsonl") == 3


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
# pass over Benchmark.cells(); a change to them is a change of scores.
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


def test_version_from_source_checkout():
    from click.testing import CliRunner

    from zsner.cli import cli

    result = CliRunner().invoke(cli, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


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
                   "--store", root / "store.json", "-o", root / "jobs.jsonl") == 2
    assert not (root / "jobs.jsonl").exists()


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
                        lambda self: acquired.append(self.per_minute))
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


_NOT_UTF8_DATASET = b'{"doc_id": "d\xff", "text": "Roma"}\n'

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
        root, tmp, {"max_parallel": 0}, "--mock", "empty"), "max_parallel"),
    "mock_max_parallel_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"max_parallel": "x"}, "--mock", "empty"), "max_parallel"),
    "mock_requests_per_minute_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"requests_per_minute": -1}, "--mock", "empty"), "requests_per_minute"),
    "http_requests_per_minute_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(requests_per_minute=-1)), "requests_per_minute"),
    "max_parallel_option_zero": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {}, "--mock", "empty", "--max-parallel", "0"), "max_parallel"),
    "backend_not_an_object": (2, lambda root, tmp: _run_with_backend(
        root, tmp, [4], "--mock", "empty"), "'backend'"),
    "mock_max_retries_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"max_retries": "x"}, "--mock", "empty"), "max_retries"),
    "mock_retry_base_delay_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, {"retry_base_delay": -1}, "--mock", "empty"), "retry_base_delay"),
    "http_timeout_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(timeout="x")), "timeout"),
    "http_max_tokens_negative": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(max_tokens=-5)), "max_tokens"),
    "http_temperature_text": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(temperature="hot")), "temperature"),
    "http_endpoint_url_number": (2, lambda root, tmp: _run_with_backend(
        root, tmp, _http_backend_with(endpoint_url=5)), "endpoint_url"),
    "gen_max_retries_text": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person", "--backend",
        _write(tmp / "b.json", json.dumps(_http_backend_with(max_retries="x")).encode())),
        "max_retries"),
    "gen_max_attempts_zero": (2, lambda root, tmp: (
        "guidelines", "gen", "--store", tmp / "store.json", "--tags", "person",
        "--mock", "canned", "--max-attempts", "0"), "--max-attempts"),
    "template_id_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--template", _write(tmp / "t.json", _asset_with(
            "templates", "default_it", template_id=5))), "'template_id'"),
    "adapter_id_number": (2, lambda root, tmp: _render_args(
        root, tmp, "--adapter", _write(tmp / "a.json", _asset_with(
            "adapters", "openai_chat", adapter_id=7))), "'adapter_id'"),
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
