"""Command line front end.

Pipeline order: ingest BIO corpora into dataset files, assemble a tiered
benchmark, generate the definition-and-guideline store, run inference
(real backend or mock), score a run, and diff the two prompt variants.

Exit codes: 1 unexpected, 2 configuration, 3 input format, 4 coverage or
comparison mismatch, 5 authentication.

Each command imports the zsner modules it runs, so building the parser
loads none of them.
"""

import argparse
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from zsner import __version__
from zsner.errors import (
    BioParseError,
    ConfigError,
    CoverageError,
    RunDirectoryError,
    ZsnerError,
    check_field,
    read_json,
    write_json,
    write_lines,
)

MOCK_SYNTAX = "gold_oracle | empty | malformed | drop_k:N"
SHOW_DEFAULT = "[default: %(default)s]"
# corpus.VARIANTS, and evaluation's MULTISET and SET, written out here so
# that the parser's choices import neither module
VARIANTS = ("with_dg", "without_dg")
SEMANTICS = ("multiset", "set")

# "name" or "group name" -> the command: its function and add_argument specs
COMMANDS: dict[str, SimpleNamespace] = {}
GROUPS = {"guidelines": "Generate and validate the per-tag definition and guideline store."}


def command(name: str, *specs: tuple[tuple, dict]):
    """Register the decorated function as the command `name`; each spec is
    the (flags, options) of one add_argument call, made by arg."""
    def register(fn) -> SimpleNamespace:
        COMMANDS[name] = SimpleNamespace(callback=fn, specs=specs)
        return COMMANDS[name]
    return register


def arg(*flags, **options) -> tuple[tuple, dict]:
    return flags, options


def _path_type(refused, what: str):
    """An argparse type: a path, refused if refused(path), as being what."""
    def check(path: str) -> str:
        if refused(path):
            raise argparse.ArgumentTypeError(f"{path!r} is {what}")
        return path
    return check


_file, _dir = _path_type(os.path.isdir, "a directory"), _path_type(os.path.isfile, "a file")


def _resolve(path_str: str, base: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else base / p


def _tag_specs(
    tags, store: "dg.GuidelineStore | None", display_names: dict[str, str]
) -> "dict[str, dg.TagSpec]":
    from zsner import guidelines as dg
    specs = {}
    for tag in tags:
        spec = store.records.get(tag) if store else None
        if spec is None:
            spec = dg.TagSpec(
                tag_id=tag,
                display_name=display_names.get(tag, tag.replace("_", " ")),
            )
        specs[tag] = spec
    return specs


def _parse_mock(mock: str) -> tuple[str, int]:
    from zsner import inference
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


# --------------------------------------------------------------------------
# corpus commands


@command("ingest",
         arg("inputs", nargs="+", type=_file),
         arg("-o", "--output", required=True, type=_file),
         arg("--aliases", help="Alias table (built-in name or path)."),
         arg("--domain", default="", help="Domain label stamped on every document."),
         arg("--doc-id-prefix", help="Defaults to each file's stem."),
         arg("--strict", action="store_true", help="Reject orphan I- labels."))
def ingest(inputs, output, aliases, domain, doc_id_prefix, strict):
    """Convert BIO-tagged token files (token<TAB>label) into a dataset file."""
    from zsner import corpus, resources
    alias_map = resources.load_alias_table(aliases) if aliases else None
    docs: list[corpus.Document] = []
    seen: set[str] = set()
    for name in inputs:
        path = Path(name)
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            try:
                parsed = corpus.parse_bio(fh, aliases=alias_map, domain=domain,
                                          doc_id_prefix=doc_id_prefix or path.stem, strict=strict)
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
    print(f"wrote {len(docs)} documents ({mention_total} mentions) to {output}")


@command("inventory",
         arg("dataset", type=_file),
         arg("--json", dest="as_json", action="store_true", help="Machine-readable output."))
def inventory(dataset, as_json):
    """Tag support counts for a dataset file."""
    from zsner import corpus
    docs = corpus.load_dataset(dataset)
    support = corpus.tag_inventory(docs)
    if as_json:
        print(json.dumps({"documents": len(docs), "tags": dict(sorted(support.items()))},
                         ensure_ascii=False, indent=2))
        return
    print(f"{len(docs)} documents, {len(support)} tags")
    width = max([len("tag")] + [len(t) for t in support])
    print(f"{'tag':<{width}} {'support':>8}")
    for tag, count in sorted(support.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{tag:<{width}} {count:>8}")


@command("benchmark",
         arg("config", type=_file),
         arg("-o", "--output", required=True, type=_file))
def benchmark(config, output):
    """Assemble a tiered benchmark manifest from a config file.

    The config names the training dataset and tags, the tier datasets, and
    optional min_support / excluded_tags; tier tag sets are resolved from
    the data and written into the manifest.
    """
    from zsner import corpus
    config_path = Path(config)
    cfg = read_json(config_path, "benchmark config")
    where = f"benchmark config {config_path}"
    datasets = {}
    resolved: dict[str, Path] = {}
    for key, rel in check_field(cfg, dict, f"{where}: datasets", key="datasets").items():
        ds_path = _resolve(check_field(rel, str, f"{where}: dataset {key!r}"), config_path.parent)
        datasets[key] = corpus.load_dataset(ds_path)
        resolved[key] = ds_path
    bench = corpus.assemble_benchmark(datasets, cfg, where)

    out_path = Path(output)
    out_dir = out_path.parent.resolve()
    bench.dataset_paths = {key: str(Path(os.path.relpath(p.resolve(), out_dir)))
                           for key, p in resolved.items()}
    corpus.save_benchmark(bench, out_path)
    print(f"benchmark {bench.benchmark_id} -> {out_path}")
    for tier in bench.tiers:
        print(f"  tier {tier.name} ({tier.kind}): {len(tier.tag_ids)} tags "
              f"over {sum(len(bench.doc_ids[d]) for d in tier.dataset_ids)} documents")


# --------------------------------------------------------------------------
# guideline commands


def _required_tags(benchmark_path, tags, base: Path) -> list[str]:
    if benchmark_path and tags:
        raise ConfigError("give either --benchmark or --tags, not both")
    if benchmark_path:
        from zsner import corpus
        bench, _ = corpus.load_benchmark(_resolve(benchmark_path, base))
        return bench.all_tags()
    if tags:
        parsed = [t.strip() for t in tags.split(",") if t.strip()]
        if not parsed:
            raise ConfigError("--tags is empty")
        return parsed
    raise ConfigError("one of --benchmark or --tags is required")


class _CannedBackend:
    """The offline generator: a job's id is its tag, and its reply the canned
    entry for the tag's display name, or one built from that name."""

    def __init__(self, table: dict[str, dict], names: dict[str, str]):
        self.table, self.names = table, names

    def complete(self, job) -> str:
        name = self.names[job.job_id]
        entry = self.table.get(name) or {
            "definizione": f"'{name.upper()}' si riferisce a entità del tipo \"{name}\".",
            "linee guida": (
                f"Etichetta ogni menzione esplicita di tipo \"{name}\" così come compare "
                f"nel testo. NON etichettare menzioni generiche o pronominali."
            ),
        }
        return json.dumps({k: entry[k] for k in ("definizione", "linee guida")},
                          ensure_ascii=False)


def _http_backend(backend_cfg: "inference.BackendConfig") -> "inference.HttpBackend":
    from zsner import inference
    try:
        return inference.HttpBackend(backend_cfg)
    except ValueError as e:  # endpoint or proxy URL it cannot use
        raise ConfigError(f"bad backend config: {e}")


def _runner_settings(knobs: "inference.BackendConfig") -> dict:
    """inference.run's keyword arguments for a backend config's runner settings."""
    from zsner import inference
    return {
        "max_parallel": knobs.max_parallel,
        "max_retries": knobs.max_retries,
        "retry_base_delay": knobs.retry_base_delay,
        "limiter": (inference.RateLimiter(knobs.requests_per_minute)
                    if knobs.requests_per_minute else None),
    }


@command("guidelines gen",
         arg("--store", dest="store_path", required=True, type=_file),
         arg("--benchmark", dest="benchmark_path", type=_file),
         arg("--tags", help="Comma-separated tag ids."),
         arg("--display-names", default="it", help=SHOW_DEFAULT),
         arg("--meta-prompt", default="dg_it_v1", help=SHOW_DEFAULT),
         arg("--language", default="it", help=SHOW_DEFAULT),
         arg("--mock", help="Offline generator: 'canned'."),
         arg("--backend", dest="backend_path", type=_file,
             help="Backend config JSON (endpoint_url, model_name, auth_env, ...)."),
         arg("--max-attempts", default=3, type=int, help=SHOW_DEFAULT))
def guidelines_gen(store_path, benchmark_path, tags, display_names, meta_prompt,
                   language, mock, backend_path, max_attempts):
    """Fill in definition/guideline records for tags missing from the store."""
    from zsner import guidelines as dg, resources
    check_field(max_attempts, int, "--max-attempts", minimum=1)
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

    name_map = {t: names.get(t, t.replace("_", " ")) for t in required}
    if mock is not None:
        if mock != "canned":
            raise ConfigError(f"unknown guideline mock {mock!r}; only 'canned'")
        backend = _CannedBackend(resources.load_canned_dg(), name_map)
        generator_model = "canned"
        runner = {}
    else:
        backend_cfg = _backend_config(read_json(backend_path, "backend config"),
                                      f"backend config {backend_path}")
        backend = _http_backend(backend_cfg)
        generator_model = backend_cfg.model_name
        runner = _runner_settings(backend_cfg)

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
    print(f"store {store_file}: {len(generated)} generated, {skipped} already present")


@command("guidelines validate",
         arg("--store", dest="store_path", required=True, type=_file),
         arg("--benchmark", dest="benchmark_path", type=_file),
         arg("--tags", help="Comma-separated tag ids."))
def guidelines_validate(store_path, benchmark_path, tags):
    """Check the store covers the required tags with non-empty fields."""
    from zsner import guidelines as dg
    required = _required_tags(benchmark_path, tags, Path.cwd())
    store = dg.load_store(store_path)
    report = dg.validate_store(store, required)
    if report["missing"]:
        print(f"missing tags: {', '.join(report['missing'])}")
    for tag, fields in sorted(report["empty_fields"].items()):
        print(f"empty fields for {tag}: {', '.join(fields)}")
    for name, dupes in sorted(report["duplicate_display_names"].items()):
        print(f"display name {name!r} shared by: {', '.join(dupes)}")
    if not report["ok"]:
        raise CoverageError(
            f"store {store_path} fails validation for {len(required)} required tags"
        )
    print(f"store {store_path}: ok ({len(required)} tags covered)")


# --------------------------------------------------------------------------
# inference commands


def _backend_config(raw: dict, where: str) -> "inference.BackendConfig":
    from zsner import inference
    try:
        return inference.BackendConfig(**raw)
    except TypeError as e:  # a field it does not know, or none for a required one
        raise ConfigError(f"{where}: bad backend config: {e}") from None
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _load_grid(benchmark_path, store_path, variant: str, display_names: str, template: str,
               adapter: str, system_text: str):
    """(benchmark, docs, specs, template, adapter, jobs) of one variant's grid. A
    with_dg grid needs a store giving each benchmark tag non-empty fields."""
    from zsner import corpus, prompts, resources
    from zsner import guidelines as dg
    if variant not in corpus.VARIANTS:
        raise ConfigError(f"variant must be one of {corpus.VARIANTS}, got {variant!r}")
    if variant == corpus.WITH_DG and not store_path:
        raise ConfigError("with_dg needs a guideline store ('store' in a run config, "
                          "--store for render)")
    bench, docs = corpus.load_benchmark(benchmark_path)
    tags = bench.all_tags()
    store = dg.load_store(store_path) if store_path else None
    specs = _tag_specs(tags, store, resources.load_display_names(display_names))
    template, adapter = resources.load_template(template), resources.load_adapter(adapter)
    if variant == corpus.WITH_DG:
        report = dg.validate_store(store, tags)
        gaps = set(report["missing"]).union(report["empty_fields"]).intersection(tags)
        if gaps:
            raise CoverageError(f"store lacks usable definitions/guidelines for benchmark "
                                f"tags: {', '.join(sorted(gaps))}")
    jobs = prompts.expand_benchmark_jobs(bench, docs, specs, variant, template, adapter,
                                         system_text)
    return bench, docs, specs, template, adapter, jobs


@command("run",
         arg("config", type=_file),
         arg("--run-dir", required=True, type=_dir),
         arg("--mock", help=f"Offline backend: {MOCK_SYNTAX}."),
         arg("--overwrite", action="store_true", help="Replace an existing run directory."),
         arg("--max-parallel", type=int, help="Override concurrency."),
         arg("--quiet", action="store_true"))
def run(config, run_dir, mock, overwrite, max_parallel, quiet):
    """Execute one prompt variant over the benchmark grid into a run directory."""
    from zsner import corpus, inference
    config_path = Path(config)
    cfg = read_json(config_path, "run config")
    where, base = f"run config {config_path}", config_path.parent
    check_field(cfg, str, f"{where}: 'benchmark'", key="benchmark")
    for key, default in (("store", ""), ("variant", corpus.WITH_DG), ("display_names", "it"),
                         ("template", "default_it"), ("adapter", "openai_chat"),
                         ("system_text", "")):
        cfg[key] = check_field(cfg.get(key, default), str, f"{where}: {key!r}")
    bench, docs, _, template, adapter, jobs = _load_grid(
        _resolve(cfg["benchmark"], base), cfg["store"] and _resolve(cfg["store"], base),
        cfg["variant"], cfg["display_names"], cfg["template"], cfg["adapter"],
        cfg["system_text"])

    backend_raw = check_field(cfg.get("backend", {}), dict, f"{where}: 'backend'")
    if mock is not None:
        kind, k = _parse_mock(mock)
        # a mock honours only the runner settings of the backend object
        backend_raw = {k_: v for k_, v in backend_raw.items()
                       if k_ in ("max_parallel", "max_retries", "retry_base_delay",
                                 "requests_per_minute")}
        backend_raw.update(endpoint_url="mock://", model_name=f"mock:{mock}")
    elif not backend_raw:
        raise ConfigError(f"{where}: needs a 'backend' object (or pass --mock)")
    knobs = _backend_config(backend_raw, where)
    if max_parallel is not None:  # checked again, with no file to name
        knobs = inference.BackendConfig(**{**backend_raw, "max_parallel": max_parallel})
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
            "variant": cfg["variant"],
            "template_id": template.template_id,
            "adapter_id": adapter.adapter_id,
            "system_text": cfg["system_text"],
            "model_name": knobs.model_name,
            "fingerprint": getattr(backend, "fingerprint", ""),
            "mock": mock or "",
            "counts": {"jobs": len(jobs), **vars(stats)},
        }

    records = inference.run(jobs, backend, cache, stats=stats, **_runner_settings(knobs))
    try:
        inference.persist_run(records, manifest, run_path)
    finally:
        records.close()  # stops the runner's workers before the cache closes
        cache.close()
        if mock is None:
            backend.close()
    if not quiet:
        failed = f", {stats.failed} failed" if stats.failed else ""
        print(f"{len(jobs)} jobs: {stats.cached} cached, {stats.fetched} fetched{failed}")
        print(f"run written to {run_path}")


@command("render",
         arg("--benchmark", dest="benchmark_path", required=True, type=_file),
         arg("--store", dest="store_path", type=_file),
         arg("--variant", choices=VARIANTS, default=VARIANTS[0], help=SHOW_DEFAULT),
         arg("--template", default="default_it", help=SHOW_DEFAULT),
         arg("--adapter", default="openai_chat", help=SHOW_DEFAULT),
         arg("--display-names", default="it", help=SHOW_DEFAULT),
         arg("--system", dest="system_text", default=""),
         arg("--doc", dest="doc_id", help="Print one document's prompt."),
         arg("--tag", dest="tag_id", help="Tag for --doc."),
         arg("-o", "--output", type=_file, help="Write the full job grid as JSONL."))
def render(benchmark_path, store_path, variant, template, adapter, display_names,
           system_text, doc_id, tag_id, output):
    """Inspect rendered prompts, or export the full payload grid."""
    from zsner import prompts
    _, docs, specs, template_obj, _, jobs = _load_grid(
        benchmark_path, store_path, variant, display_names, template, adapter, system_text)

    if (doc_id is None) != (tag_id is None):
        raise ConfigError("--doc and --tag go together")
    if doc_id is not None:
        match = docs.get(doc_id)
        if match is None:
            raise ConfigError(f"no document {doc_id!r} in the benchmark datasets")
        if tag_id not in specs:
            raise ConfigError(f"tag {tag_id!r} is not part of the benchmark")
        print(prompts.render(match, specs[tag_id], variant, template_obj))
        return

    if output is None:
        raise ConfigError("give -o to export jobs, or --doc/--tag to preview one")
    write_lines(output, (job.export_line() for job in jobs))
    print(f"wrote {len(jobs)} jobs to {Path(output)}")


# --------------------------------------------------------------------------
# scoring commands


@command("score",
         arg("run_dir", type=_dir),
         arg("-o", "--output", type=_file,
             help="Report JSON path (default: <run_dir>/score.json)."),
         arg("--semantics", choices=SEMANTICS, default=SEMANTICS[0], help=SHOW_DEFAULT),
         arg("--quiet", action="store_true"))
def score(run_dir, output, semantics, quiet):
    """Score an archived run against gold annotations, per tier and tag."""
    from zsner import corpus, evaluation, inference, parsing
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
    report, n = evaluation.tier_report(bench, gold, records, tuple(grid), semantics=semantics,
                                       run_manifest=str(run_path / "manifest.json"))
    out = Path(output) if output else run_path / "score.json"
    write_json(report, out)
    if not quiet:
        print(f"replies: {n[parsing.PARSE_OK]} ok, {n[parsing.PARSE_RECOVERED]} "
              f"recovered, {n[parsing.PARSE_FAILED]} failed")
        print(evaluation.render_report(report), end="")
        print(f"report written to {out}")


@command("report",
         arg("--with-report", dest="with_path", required=True, type=_file),
         arg("--without-report", dest="without_path", required=True, type=_file),
         arg("-o", "--output", type=_file),
         arg("--quiet", action="store_true"))
def report(with_path, without_path, output, quiet):
    """Per-tag and per-tier F1 deltas between the two prompt variants."""
    from zsner import evaluation
    delta = evaluation.delta_report(*(
        evaluation.check_score_report(read_json(p, "score report"), f"score report {p}")
        for p in (with_path, without_path)))
    if output:
        write_json(delta, output)
    if not quiet:
        print(evaluation.render_delta(delta), end="")
    if output and not quiet:
        print(f"delta report written to {output}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="zsner", allow_abbrev=False,
        description="Zero-shot named-entity evaluation over instruction-tuned chat models.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name, cmd in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = subparsers[""].add_parser(
                group, help=GROUPS[group], description=GROUPS[group]
            ).add_subparsers(dest="command", required=True)
        doc = cmd.callback.__doc__ or ""  # None under python -OO
        sub = subparsers[group].add_parser(leaf, help=doc.partition("\n")[0], description=doc,
                                           allow_abbrev=False)
        for flags, options in cmd.specs:
            if not flags[0].startswith("-"):  # usage and errors name a positional in upper case
                options = {"metavar": flags[0].upper(), **options}
            sub.add_argument(*flags, **options)
        sub.set_defaults(command=cmd)
    args = vars(parser.parse_args(argv))
    try:
        args.pop("command").callback(**args)
    except ZsnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
