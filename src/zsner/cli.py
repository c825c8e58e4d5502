"""Command line front end.

Pipeline order: ingest BIO corpora into dataset files, assemble a tiered
benchmark, generate the definition-and-guideline store, run inference
(real backend or mock), score a run, and diff the two prompt variants.

Exit codes: 1 unexpected, 2 configuration, 3 input format, 4 coverage or
comparison mismatch, 5 authentication.
"""

import json
import os
import re
import sys
from pathlib import Path

import click

from zsner import __version__, corpus, evaluation, inference, parsing, prompts, resources
from zsner import guidelines as dg
from zsner.errors import (
    BioParseError,
    ConfigError,
    CoverageError,
    RunDirectoryError,
    ZsnerError,
    check_field,
    read_json,
    write_json,
)

MOCK_SYNTAX = "gold_oracle | empty | malformed | drop_k:N"


def _resolve(path_str: str, base: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else base / p


def _tag_specs(
    tags, store: dg.GuidelineStore | None, display_names: dict[str, str]
) -> dict[str, dg.TagSpec]:
    specs = {}
    for tag in tags:
        spec = store.get(tag) if store else None
        if spec is None:
            spec = dg.TagSpec(
                tag_id=tag,
                display_name=display_names.get(tag, tag.replace("_", " ")),
            )
        specs[tag] = spec
    return specs


def _parse_mock(mock: str) -> tuple[str, int]:
    kind, _, param = mock.partition(":")
    if kind not in inference.MOCK_KINDS:
        raise ConfigError(f"unknown mock {mock!r}; syntax: {MOCK_SYNTAX}")
    k = 1
    if param:
        if kind != "drop_k":
            raise ConfigError(f"mock {kind!r} takes no parameter")
        try:
            k = int(param)
        except ValueError:
            raise ConfigError(f"mock drop_k parameter {param!r} is not an integer")
        if k < 0:
            raise ConfigError("mock drop_k parameter must be >= 0")
    return kind, k


@click.group()
@click.version_option(version=__version__)
def cli():
    """Zero-shot named-entity evaluation over instruction-tuned chat models."""


# --------------------------------------------------------------------------
# corpus commands


@cli.command()
@click.argument("inputs", nargs=-1, required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
@click.option("--aliases", default=None, help="Alias table (built-in name or path).")
@click.option("--domain", default="", help="Domain label stamped on every document.")
@click.option("--doc-id-prefix", default=None, help="Defaults to each file's stem.")
@click.option("--strict", is_flag=True, help="Reject orphan I- labels.")
def ingest(inputs, output, aliases, domain, doc_id_prefix, strict):
    """Convert BIO-tagged token files (token<TAB>label) into a dataset file."""
    alias_map = resources.load_alias_table(aliases) if aliases else None
    docs: list[corpus.Document] = []
    seen: set[str] = set()
    for name in inputs:
        path = Path(name)
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                parsed = corpus.parse_bio(
                    fh,
                    aliases=alias_map,
                    domain=domain,
                    doc_id_prefix=doc_id_prefix or path.stem,
                    strict=strict,
                )
            except UnicodeDecodeError as e:
                raise BioParseError(f"{path} is not UTF-8: {e}")
        for d in parsed:
            if d.doc_id in seen:
                raise ConfigError(
                    f"duplicate doc_id {d.doc_id!r}; give distinct --doc-id-prefix "
                    f"values for inputs that share a file stem"
                )
            seen.add(d.doc_id)
        docs.extend(parsed)
    corpus.save_dataset(docs, output)
    mention_total = sum(len(d.mentions) for d in docs)
    click.echo(f"wrote {len(docs)} documents ({mention_total} mentions) to {output}")


@cli.command()
@click.argument("dataset", type=click.Path(dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def inventory(dataset, as_json):
    """Tag support counts for a dataset file."""
    path = Path(dataset)
    if not path.is_file():
        raise ConfigError(f"dataset not found: {path}")
    docs = corpus.load_dataset(path)
    support = corpus.tag_inventory(docs)
    if as_json:
        click.echo(
            json.dumps(
                {"documents": len(docs), "tags": dict(sorted(support.items()))},
                ensure_ascii=False,
                indent=2,
            )
        )
        return
    click.echo(f"{len(docs)} documents, {len(support)} tags")
    width = max([len("tag")] + [len(t) for t in support])
    click.echo(f"{'tag':<{width}} {'support':>8}")
    for tag, count in sorted(support.items(), key=lambda kv: (-kv[1], kv[0])):
        click.echo(f"{tag:<{width}} {count:>8}")


@cli.command()
@click.argument("config", type=click.Path(dir_okay=False))
@click.option("-o", "--output", required=True, type=click.Path(dir_okay=False))
def benchmark(config, output):
    """Assemble a tiered benchmark manifest from a config file.

    The config names the training dataset and tags, the tier datasets, and
    optional min_support / excluded_tags; tier tag sets are resolved from
    the data and written into the manifest.
    """
    config_path = Path(config)
    cfg = read_json(config_path, "benchmark config")
    where = f"benchmark config {config_path}"
    datasets = {}
    resolved: dict[str, Path] = {}
    for key, rel in check_field(cfg, dict, f"{where}: datasets", key="datasets").items():
        ds_path = _resolve(check_field(rel, str, f"{where}: dataset {key!r}"), config_path.parent)
        if not ds_path.is_file():
            raise ConfigError(f"dataset {key!r}: file not found: {ds_path}")
        datasets[key] = corpus.load_dataset(ds_path)
        resolved[key] = ds_path
    bench = corpus.assemble_benchmark(datasets, cfg, where)

    out_path = Path(output)
    out_dir = out_path.parent.resolve()
    bench.dataset_paths = {
        key: str(Path(os.path.relpath(p.resolve(), out_dir)))
        for key, p in resolved.items()
    }
    corpus.save_benchmark(bench, out_path)
    click.echo(f"benchmark {bench.benchmark_id} -> {out_path}")
    for tier in bench.tiers:
        click.echo(
            f"  tier {tier.name} ({tier.kind}): {len(tier.tag_ids)} tags "
            f"over {sum(len(bench.doc_ids[d]) for d in tier.dataset_ids)} documents"
        )


# --------------------------------------------------------------------------
# guideline commands


def _required_tags(benchmark_path, tags, base: Path) -> list[str]:
    if benchmark_path and tags:
        raise ConfigError("give either --benchmark or --tags, not both")
    if benchmark_path:
        bench, _ = corpus.load_benchmark(_resolve(benchmark_path, base))
        return bench.all_tags()
    if tags:
        parsed = [t.strip() for t in tags.split(",") if t.strip()]
        if not parsed:
            raise ConfigError("--tags is empty")
        return parsed
    raise ConfigError("one of --benchmark or --tags is required")


class _CannedBackend:
    """The offline generator: the canned entry for the quoted display name in
    the meta prompt, or one built from that name."""

    def __init__(self, table: dict[str, dict]):
        self.table = table

    def complete(self, job) -> str:
        content = job.payload["messages"][-1]["content"]
        entry = next((e for name, e in self.table.items() if f'"{name}"' in content), None)
        if entry is None:
            m = re.search(r'"([^"]+)"', content)
            name = m.group(1) if m else "entità"
            entry = {
                "definizione": f"'{name.upper()}' si riferisce a entità del tipo \"{name}\".",
                "linee guida": (
                    f"Etichetta ogni menzione esplicita di tipo \"{name}\" così come compare "
                    f"nel testo. NON etichettare menzioni generiche o pronominali."
                ),
            }
        return json.dumps({k: entry[k] for k in ("definizione", "linee guida")},
                          ensure_ascii=False)


def _http_backend(backend_cfg: inference.BackendConfig) -> inference.HttpBackend:
    try:
        return inference.HttpBackend(backend_cfg)
    except ValueError as e:  # endpoint or proxy URL it cannot use
        raise ConfigError(f"bad backend config: {e}")


def _runner_settings(knobs: inference.BackendConfig) -> dict:
    """inference.run's keyword arguments for a backend config's runner settings."""
    return {
        "max_parallel": knobs.max_parallel,
        "max_retries": knobs.max_retries,
        "retry_base_delay": knobs.retry_base_delay,
        "limiter": (inference.RateLimiter(knobs.requests_per_minute)
                    if knobs.requests_per_minute else None),
    }


@cli.group("guidelines")
def guidelines_group():
    """Generate and validate the per-tag definition and guideline store."""


@guidelines_group.command("gen")
@click.option("--store", "store_path", required=True, type=click.Path(dir_okay=False))
@click.option("--benchmark", "benchmark_path", default=None, type=click.Path(dir_okay=False))
@click.option("--tags", default=None, help="Comma-separated tag ids.")
@click.option("--display-names", default="it", show_default=True)
@click.option("--meta-prompt", default="dg_it_v1", show_default=True)
@click.option("--language", default="it", show_default=True)
@click.option("--mock", default=None, help="Offline generator: 'canned'.")
@click.option("--backend", "backend_path", default=None, type=click.Path(dir_okay=False),
              help="Backend config JSON (endpoint_url, model_name, auth_env, ...).")
@click.option("--max-attempts", default=3, show_default=True, type=click.IntRange(min=1))
def guidelines_gen(store_path, benchmark_path, tags, display_names, meta_prompt,
                   language, mock, backend_path, max_attempts):
    """Fill in definition/guideline records for tags missing from the store."""
    required = _required_tags(benchmark_path, tags, Path.cwd())
    names = resources.load_display_names(display_names)
    meta_id, meta_text = resources.load_meta_prompt(meta_prompt)

    if (mock is None) == (backend_path is None):
        raise ConfigError("give exactly one of --mock or --backend")
    store_file = Path(store_path)
    if store_file.is_file():
        store = dg.load_store(store_file)
    else:
        store = dg.GuidelineStore(language=language, meta_prompt_id=meta_id)
    if not store.meta_prompt_id:
        store.meta_prompt_id = meta_id

    if mock is not None:
        if mock != "canned":
            raise ConfigError(f"unknown guideline mock {mock!r}; only 'canned'")
        backend = _CannedBackend(resources.load_canned_dg())
        generator_model = "canned"
        runner = {}
    else:
        backend_cfg = _backend_config(read_json(backend_path, "backend config"))
        backend = _http_backend(backend_cfg)
        generator_model = backend_cfg.model_name
        runner = _runner_settings(backend_cfg)

    name_map = {t: names.get(t, t.replace("_", " ")) for t in required}
    known = len(store.records)
    try:
        generated = dg.generate_missing(
            store,
            name_map,
            backend,
            meta_text,
            generator_model=generator_model,
            max_attempts=max_attempts,
            reply_archive=Path(str(store_file) + ".replies.jsonl"),
            **runner,
        )
    finally:
        if mock is None:
            backend.close()
        if len(store.records) > known:  # the tags parsed so far, also on failure
            dg.save_store(store, store_file)
    skipped = len(required) - len(generated)
    click.echo(
        f"store {store_file}: {len(generated)} generated, {skipped} already present"
    )


@guidelines_group.command("validate")
@click.option("--store", "store_path", required=True, type=click.Path(dir_okay=False))
@click.option("--benchmark", "benchmark_path", default=None, type=click.Path(dir_okay=False))
@click.option("--tags", default=None, help="Comma-separated tag ids.")
def guidelines_validate(store_path, benchmark_path, tags):
    """Check the store covers the required tags with non-empty fields."""
    required = _required_tags(benchmark_path, tags, Path.cwd())
    store = dg.load_store(store_path)
    report = dg.validate_store(store, required)
    if report["missing"]:
        click.echo(f"missing tags: {', '.join(report['missing'])}")
    for tag, fields in sorted(report["empty_fields"].items()):
        click.echo(f"empty fields for {tag}: {', '.join(fields)}")
    for name, dupes in sorted(report["duplicate_display_names"].items()):
        click.echo(f"display name {name!r} shared by: {', '.join(dupes)}")
    if not report["ok"]:
        raise CoverageError(
            f"store {store_path} fails validation for {len(required)} required tags"
        )
    click.echo(f"store {store_path}: ok ({len(required)} tags covered)")


# --------------------------------------------------------------------------
# inference commands


def _backend_config(raw: dict) -> inference.BackendConfig:
    try:
        return inference.BackendConfig(**raw)
    except TypeError as e:
        raise ConfigError(f"bad backend config: {e}")


def _load_inputs(benchmark_path: Path, store_path, display_names: str,
                 template: str, adapter: str):
    """(benchmark, docs, store, specs, template, adapter) of one grid."""
    bench, docs = corpus.load_benchmark(benchmark_path)
    store = dg.load_store(store_path) if store_path else None
    names = resources.load_display_names(display_names)
    specs = _tag_specs(bench.all_tags(), store, names)
    return (bench, docs, store, specs, resources.load_template(template),
            resources.load_adapter(adapter))


def _load_run_inputs(cfg: dict, config_path: Path):
    """(benchmark, docs, specs, template, adapter, variant), after filling in
    cfg the defaults of its text settings and checking them."""
    where = f"run config {config_path}"
    check_field(cfg, str, f"{where}: 'benchmark'", key="benchmark")
    for key, default in (("store", ""), ("display_names", "it"), ("template", "default_it"),
                         ("adapter", "openai_chat"), ("system_text", "")):
        cfg[key] = check_field(cfg.get(key, default), str, f"{where}: {key!r}")
    variant = cfg.get("variant", prompts.WITH_DG)
    if variant not in prompts.VARIANTS:
        raise ConfigError(
            f"variant must be one of {prompts.VARIANTS}, got {variant!r}"
        )
    if variant == prompts.WITH_DG and not cfg["store"]:
        raise ConfigError("with_dg runs need a 'store' path in the run config")

    base = config_path.parent
    bench, docs, store, specs, template, adapter = _load_inputs(
        _resolve(cfg["benchmark"], base), _resolve(cfg["store"], base) if cfg["store"] else None,
        cfg["display_names"], cfg["template"], cfg["adapter"])
    if variant == prompts.WITH_DG:
        report = dg.validate_store(store, bench.all_tags())
        problems = set(report["missing"]) | set(report["empty_fields"])
        relevant = sorted(problems & set(bench.all_tags()))
        if relevant:
            raise CoverageError(
                f"store lacks usable definitions/guidelines for benchmark tags: "
                f"{', '.join(relevant)}"
            )
    return bench, docs, specs, template, adapter, variant


@cli.command()
@click.argument("config", type=click.Path(dir_okay=False))
@click.option("--run-dir", required=True, type=click.Path(file_okay=False))
@click.option("--mock", default=None, help=f"Offline backend: {MOCK_SYNTAX}.")
@click.option("--overwrite", is_flag=True, help="Replace an existing run directory.")
@click.option("--max-parallel", default=None, type=int, help="Override concurrency.")
@click.option("--quiet", is_flag=True)
def run(config, run_dir, mock, overwrite, max_parallel, quiet):
    """Execute one prompt variant over the benchmark grid into a run directory."""
    config_path = Path(config)
    cfg = read_json(config_path, "run config")
    bench, docs, specs, template, adapter, variant = _load_run_inputs(cfg, config_path)
    base = config_path.parent

    jobs = prompts.expand_benchmark_jobs(
        bench, docs, specs, variant, template, adapter, cfg["system_text"]
    )

    backend_raw = check_field(cfg.get("backend", {}), dict, f"run config {config_path}: 'backend'")
    if mock is not None:
        kind, k = _parse_mock(mock)
        # a mock honours only the runner settings of the backend object
        backend_raw = {k_: v for k_, v in backend_raw.items()
                       if k_ in ("max_parallel", "max_retries", "retry_base_delay",
                                 "requests_per_minute")}
        backend_raw.update(endpoint_url="mock://", model_name=f"mock:{mock}")
    elif not backend_raw:
        raise ConfigError("run config needs a 'backend' object (or pass --mock)")
    if max_parallel is not None:
        backend_raw = {**backend_raw, "max_parallel": max_parallel}
    knobs = _backend_config(backend_raw)
    if mock is None:
        backend = _http_backend(knobs)
    else:
        backend = inference.MockBackend(
            kind, lambda: inference.gold_surface_index(docs.values()), k=k)

    run_path = inference.prepare_run_dir(run_dir, overwrite=overwrite)
    cache = inference.ResponseCache(run_path / "cache")
    stats = inference.RunStats()

    def manifest() -> dict:  # read once every record is written
        return {
            "benchmark_id": bench.benchmark_id,
            "benchmark_path": str(_resolve(cfg["benchmark"], base).resolve()),
            "store_path": str(_resolve(cfg["store"], base).resolve()) if cfg["store"] else "",
            "display_names": cfg["display_names"],
            "variant": variant,
            "template_id": template.template_id,
            "adapter_id": adapter.adapter_id,
            "system_text": cfg["system_text"],
            "model_name": knobs.model_name,
            "fingerprint": getattr(backend, "fingerprint", ""),
            "mock": mock or "",
            "counts": {
                "jobs": len(jobs),
                "cached": stats.cached,
                "fetched": stats.fetched,
                "failed": stats.failed,
            },
        }

    records = inference.run(jobs, backend, cache, stats=stats, **_runner_settings(knobs))
    try:
        inference.persist_run(records, manifest, run_path, overwrite=True)
    finally:
        records.close()  # stops the pool before the cache closes
        cache.close()
        if mock is None:
            backend.close()
    if not quiet:
        failed = f", {stats.failed} failed" if stats.failed else ""
        click.echo(
            f"{len(jobs)} jobs: {stats.cached} cached, {stats.fetched} fetched{failed}"
        )
        click.echo(f"run written to {run_path}")


@cli.command()
@click.option("--benchmark", "benchmark_path", required=True, type=click.Path(dir_okay=False))
@click.option("--store", "store_path", default=None, type=click.Path(dir_okay=False))
@click.option("--variant", type=click.Choice(prompts.VARIANTS), default=prompts.WITH_DG,
              show_default=True)
@click.option("--template", default="default_it", show_default=True)
@click.option("--adapter", default="openai_chat", show_default=True)
@click.option("--display-names", default="it", show_default=True)
@click.option("--system", "system_text", default="")
@click.option("--doc", "doc_id", default=None, help="Print one document's prompt.")
@click.option("--tag", "tag_id", default=None, help="Tag for --doc.")
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False),
              help="Write the full job grid as JSONL.")
def render(benchmark_path, store_path, variant, template, adapter, display_names,
           system_text, doc_id, tag_id, output):
    """Inspect rendered prompts, or export the full payload grid."""
    if variant == prompts.WITH_DG and not store_path:
        raise ConfigError("with_dg rendering needs --store")
    bench, docs, _, specs, template_obj, adapter_obj = _load_inputs(
        benchmark_path, store_path, display_names, template, adapter
    )

    if (doc_id is None) != (tag_id is None):
        raise ConfigError("--doc and --tag go together")
    if doc_id is not None:
        match = docs.get(doc_id)
        if match is None:
            raise ConfigError(f"no document {doc_id!r} in the benchmark datasets")
        if tag_id not in specs:
            raise ConfigError(f"tag {tag_id!r} is not part of the benchmark")
        click.echo(prompts.render(match, specs[tag_id], variant, template_obj))
        return

    jobs = prompts.expand_benchmark_jobs(
        bench, docs, specs, variant, template_obj, adapter_obj, system_text
    )
    if output is None:
        raise ConfigError("give -o to export jobs, or --doc/--tag to preview one")
    out = Path(output)
    out.parent.mkdir(parents=True, exist_ok=True)
    # a lone surrogate (from --system, say) is written as a JSON escape
    with open(out, "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.writelines(job.export_line() + "\n" for job in jobs)
    click.echo(f"wrote {len(jobs)} jobs to {out}")


# --------------------------------------------------------------------------
# scoring commands


@cli.command()
@click.argument("run_dir", type=click.Path(file_okay=False))
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False),
              help="Report JSON path (default: <run_dir>/score.json).")
@click.option("--semantics", type=click.Choice([evaluation.MULTISET, evaluation.SET]),
              default=evaluation.MULTISET, show_default=True)
@click.option("--quiet", is_flag=True)
def score(run_dir, output, semantics, quiet):
    """Score an archived run against gold annotations, per tier and tag."""
    run_path = Path(run_dir)
    records, manifest = inference.load_run(run_path)
    where = f"run manifest {run_path / 'manifest.json'}"
    benchmark_path, *grid = (
        check_field(manifest, str, f"{where}: {k!r}", RunDirectoryError, key=k)
        for k in ("benchmark_path", "variant", "template_id", "adapter_id"))
    benchmark_id = check_field(manifest.get("benchmark_id", ""), str, f"{where}: 'benchmark_id'",
                               RunDirectoryError)
    bench, docs = corpus.load_benchmark(benchmark_path)
    if benchmark_id and benchmark_id != bench.benchmark_id:
        raise CoverageError(
            f"benchmark changed since the run: manifest has "
            f"{benchmark_id}, file has {bench.benchmark_id}"
        )

    gold = evaluation.build_gold(docs.values())
    del docs  # from here on memory holds the gold map, not the documents
    report = evaluation.tier_report(bench, gold, records, tuple(grid), semantics=semantics,
                                    run_manifest=str(run_path / "manifest.json"))
    out = Path(output) if output else run_path / "score.json"
    write_json(report.to_json(), out)
    if not quiet:
        n = report.parse_statuses
        click.echo(f"replies: {n[parsing.PARSE_OK]} ok, {n[parsing.PARSE_RECOVERED]} "
                   f"recovered, {n[parsing.PARSE_FAILED]} failed")
        click.echo(evaluation.render_report(report), nl=False)
        click.echo(f"report written to {out}")


@cli.command()
@click.option("--with-report", "with_path", required=True, type=click.Path(dir_okay=False))
@click.option("--without-report", "without_path", required=True, type=click.Path(dir_okay=False))
@click.option("-o", "--output", default=None, type=click.Path(dir_okay=False))
@click.option("--quiet", is_flag=True)
def report(with_path, without_path, output, quiet):
    """Per-tag and per-tier F1 deltas between the two prompt variants."""
    delta = evaluation.delta_report(*(
        evaluation.ScoreReport.from_json(read_json(p, "score report"), f"score report {p}")
        for p in (with_path, without_path)))
    if output:
        write_json(delta.to_json(), output)
    if not quiet:
        click.echo(evaluation.render_delta(delta), nl=False)
    if output and not quiet:
        click.echo(f"delta report written to {output}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except ZsnerError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)


if __name__ == "__main__":
    main()
