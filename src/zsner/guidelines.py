"""Definition & guideline records for entity tags, and their generation.

Each tag carries a short natural-language definition plus annotation
guidelines (edge cases, what to exclude). Records are generated once per
tag by prompting an instruction-tuned model with a meta prompt, then kept
in a JSON store so inference runs never regenerate them.
"""

import json
import re
from contextlib import ExitStack, closing
from pathlib import Path
from types import SimpleNamespace

from zsner import inference
from zsner.errors import (DGFormatError, GenerationError, StoreFormatError, check_field,
                          read_json, write_json)
from zsner.parsing import scan_balanced

STORE_FIELDS = ("display_name", "definition", "guidelines")

_DEFINITION_KEYS = {"definizione", "definition"}
_GUIDELINE_KEYS = {"linee guida", "linee_guida", "guidelines", "guideline"}

# labeled-section fallback: "Definizione: ..." / "Linee guida: ..."
_SECTION_RE = re.compile(
    r"(definizione|definition|linee\s+guida|guidelines)\s*:\s*",
    re.IGNORECASE,
)


class TagSpec:
    __slots__ = ("tag_id", *STORE_FIELDS, "provenance", "generator_model")

    def __init__(self, tag_id: str, display_name: str, definition: str = "",
                 guidelines: str = "", provenance: str = "generated", generator_model: str = ""):
        self.tag_id, self.display_name = tag_id, display_name
        self.definition, self.guidelines = definition, guidelines
        self.provenance, self.generator_model = provenance, generator_model

    def to_record(self) -> dict:
        return {f: getattr(self, f) for f in (*STORE_FIELDS, "provenance", "generator_model")}

    def __eq__(self, other) -> bool:
        return type(other) is TagSpec and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


class GuidelineStore:
    __slots__ = ("language", "records", "created_at", "meta_prompt_id")

    def __init__(self, language: str = "it", records: dict[str, TagSpec] | None = None,
                 created_at: str = "", meta_prompt_id: str = ""):
        self.language, self.created_at, self.meta_prompt_id = language, created_at, meta_prompt_id
        self.records = {} if records is None else records


def save_store(store: GuidelineStore, path) -> None:
    write_json({
        "language": store.language,
        "meta_prompt_id": store.meta_prompt_id,
        "created_at": store.created_at or inference._utc_now(),
        "records": {tag: spec.to_record() for tag, spec in store.records.items()},
    }, path)


def load_store(path) -> GuidelineStore:
    """The store in a file: every field it gives is text, and every record
    gives the STORE_FIELDS."""
    data = read_json(path, "guideline store", StoreFormatError)
    where = f"guideline store {path}"
    records = {}
    for tag, rec in check_field(data, dict, f"{where}: records", StoreFormatError,
                                key="records").items():
        what = f"{where}: tag {tag!r}"
        rec = check_field(rec, dict, what, StoreFormatError)
        given = [*STORE_FIELDS, *(f for f in ("provenance", "generator_model") if f in rec)]
        records[tag] = TagSpec(tag, **{f: check_field(rec, str, f"{what} {f}", StoreFormatError,
                                                      key=f) for f in given})
    return GuidelineStore(records=records, **{
        k: check_field(data, str, f"{where}: {k}", StoreFormatError, key=k)
        for k in ("language", "created_at", "meta_prompt_id") if k in data})


def validate_store(store: GuidelineStore, required_tags) -> dict:
    """Coverage and consistency report; 'ok' is True when nothing is wrong."""
    missing = sorted(set(required_tags) - set(store.records))
    empty: dict[str, list[str]] = {}
    for tag, spec in store.records.items():
        bad = [f for f in STORE_FIELDS if not getattr(spec, f).strip()]
        if bad:
            empty[tag] = bad
    by_display: dict[str, list[str]] = {}
    for tag, spec in store.records.items():
        by_display.setdefault(spec.display_name.strip().lower(), []).append(tag)
    duplicates = {d: sorted(tags) for d, tags in by_display.items() if len(tags) > 1}
    return {
        "missing": missing,
        "empty_fields": empty,
        "duplicate_display_names": duplicates,
        "ok": not (missing or empty or duplicates),
    }


# --------------------------------------------------------------------------
# generation


def _from_object(obj: dict) -> tuple[str, str] | None:
    definition = ""
    guidelines = ""
    for key, value in obj.items():
        if not isinstance(value, str):
            continue
        k = key.strip().lower()
        if k in _DEFINITION_KEYS:
            definition = value.strip()
        elif k in _GUIDELINE_KEYS:
            guidelines = value.strip()
    if definition and guidelines:
        return definition, guidelines
    return None


def _from_sections(text: str) -> tuple[str, str] | None:
    matches = list(_SECTION_RE.finditer(text))
    if not matches:
        return None
    sections: dict[str, str] = {}
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        label = re.sub(r"\s+", " ", m.group(1).lower())
        body = text[m.end() : end].strip().strip("*").strip()
        if label in ("definizione", "definition"):
            sections.setdefault("definition", body)
        else:
            sections.setdefault("guidelines", body)
    if sections.get("definition") and sections.get("guidelines"):
        return sections["definition"], sections["guidelines"]
    return None


def parse_dg_reply(raw_text: str) -> tuple[str, str]:
    """(definition, guidelines) from a generator reply.

    Tries the first balanced JSON object (the whole reply, or one embedded
    in prose), then labeled "Definizione:"/"Linee guida:" sections.
    """
    obj = scan_balanced(raw_text, "{}") if "{" in raw_text else None
    got = (_from_object(obj) if obj is not None else None) or _from_sections(raw_text)
    if got:
        return got
    raise DGFormatError(
        "reply has neither a definition/guidelines JSON object nor labeled sections",
        raw_reply=raw_text,
    )


def generate_missing(
    store: GuidelineStore,
    display_names: dict[str, str],
    backend,
    meta_prompt: str,
    *,
    generator_model: str = "",
    max_attempts: int = 3,
    reply_archive=None,
    **runner,
) -> list[str]:
    """Fill store entries for tags that lack one; warm tags cost no calls.

    Round a = 1..max_attempts runs the tags still missing as jobs through
    inference.run, uncached, with `runner` (max_parallel, max_retries,
    retry_base_delay, limiter). Each reply is archived as it arrives and each
    tag stored as soon as its reply parses. A failed call raises
    GenerationError after its round, as do tags unparsed after the last one;
    a rejected credential raises AuthError. Returns the tags generated here.
    """
    missing = {t: display_names[t] for t in sorted(display_names) if t not in store.records}
    if reply_archive is not None and missing:
        Path(reply_archive).parent.mkdir(parents=True, exist_ok=True)
    last: dict[str, str] = {}  # tag -> its latest unparseable reply
    generated = []
    archive = None  # the reply archive, opened at the first reply of this call
    with ExitStack() as files:
        for attempt in range(1, max_attempts + 1):
            if not missing:
                break
            jobs = [SimpleNamespace(job_id=tag, payload={"messages": [{"role": "user", "content":
                                    meta_prompt.replace("{display_name}", name)}]})
                    for tag, name in missing.items()]  # a job's id is its tag
            failed = []
            with closing(inference.run(jobs, backend, None, **runner)) as records:
                for rec in records:
                    if rec.status != inference.STATUS_OK:
                        failed.append(rec)
                        continue
                    if reply_archive is not None:
                        archive = archive or files.enter_context(open(
                            reply_archive, "a", encoding="utf-8", errors="backslashreplace"))
                        archive.write(json.dumps({"tag_id": rec.job_id, "attempt": attempt,
                                                  "raw_text": rec.raw_text},
                                                 ensure_ascii=False) + "\n")
                        archive.flush()
                    try:
                        definition, guidelines = parse_dg_reply(rec.raw_text)
                    except DGFormatError:
                        last[rec.job_id] = rec.raw_text
                        continue
                    store.records[rec.job_id] = TagSpec(rec.job_id, missing.pop(rec.job_id),
                                                        definition, guidelines,
                                                        generator_model=generator_model)
                    generated.append(rec.job_id)
            if failed:
                rec = failed[0]
                raise GenerationError(
                    f"generator backend failure: tag {rec.job_id!r}: {rec.error_kind} error "
                    f"after {rec.attempt_count} calls ({len(failed)} tags failed)"
                )
    if missing:
        tag = next(iter(missing))
        raise GenerationError(
            f"tag {tag!r}: no parseable reply after {max_attempts} attempts "
            f"(last reply: {last.get(tag, '')[:200]!r}; {len(missing)} tags unparsed)"
        )
    return generated
