"""Definition & guideline records for entity tags, and their generation.

Each tag carries a short natural-language definition plus annotation
guidelines (edge cases, what to exclude). Records are generated once per
tag by prompting an instruction-tuned model with a meta prompt, then kept
in a JSON store so inference runs never regenerate them.
"""

import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from zsner.errors import DGFormatError, GenerationError, StoreFormatError, read_json, write_json
from zsner.parsing import scan_balanced

# chat_client: takes an OpenAI-style chat payload, returns the reply text
ChatClient = Callable[[dict], str]

STORE_FIELDS = ("display_name", "definition", "guidelines")

_DEFINITION_KEYS = {"definizione", "definition"}
_GUIDELINE_KEYS = {"linee guida", "linee_guida", "guidelines", "guideline"}

# labeled-section fallback: "Definizione: ..." / "Linee guida: ..."
_SECTION_RE = re.compile(
    r"(definizione|definition|linee\s+guida|guidelines)\s*:\s*",
    re.IGNORECASE,
)


@dataclass
class TagSpec:
    tag_id: str
    display_name: str
    definition: str = ""
    guidelines: str = ""
    provenance: str = "generated"
    generator_model: str = ""

    def to_record(self) -> dict:
        return {
            "display_name": self.display_name,
            "definition": self.definition,
            "guidelines": self.guidelines,
            "provenance": self.provenance,
            "generator_model": self.generator_model,
        }

    @classmethod
    def from_record(cls, tag_id: str, rec: dict) -> "TagSpec":
        missing = [f for f in STORE_FIELDS if not isinstance(rec, dict) or f not in rec]
        if missing:
            raise StoreFormatError(f"tag {tag_id!r}: missing fields {missing}")
        return cls(
            tag_id=tag_id,
            display_name=rec["display_name"],
            definition=rec["definition"],
            guidelines=rec["guidelines"],
            provenance=rec.get("provenance", "generated"),
            generator_model=rec.get("generator_model", ""),
        )


@dataclass
class GuidelineStore:
    language: str = "it"
    records: dict[str, TagSpec] = field(default_factory=dict)
    created_at: str = ""
    meta_prompt_id: str = ""

    def get(self, tag_id: str) -> TagSpec | None:
        return self.records.get(tag_id)


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def save_store(store: GuidelineStore, path) -> None:
    write_json({
        "language": store.language,
        "meta_prompt_id": store.meta_prompt_id,
        "created_at": store.created_at or _utc_now(),
        "records": {tag: spec.to_record() for tag, spec in store.records.items()},
    }, path)


def load_store(path) -> GuidelineStore:
    data = read_json(path, "guideline store", StoreFormatError)
    if not isinstance(data.get("records"), dict):
        raise StoreFormatError(f"guideline store {path}: expected a records object")
    records = {
        tag: TagSpec.from_record(tag, rec) for tag, rec in data["records"].items()
    }
    return GuidelineStore(
        language=data.get("language", "it"),
        records=records,
        created_at=data.get("created_at", ""),
        meta_prompt_id=data.get("meta_prompt_id", ""),
    )


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


def build_meta_payload(meta_prompt: str, display_name: str) -> dict:
    content = meta_prompt.replace("{display_name}", display_name)
    return {"messages": [{"role": "user", "content": content}]}


def generate_dg(
    tag_id: str,
    display_name: str,
    chat_client: ChatClient,
    meta_prompt: str,
    *,
    generator_model: str = "",
    max_attempts: int = 3,
    reply_log: list | None = None,
) -> TagSpec:
    """One tag's definition and guidelines via the meta prompt.

    Malformed replies are retried with a fresh call; after max_attempts the
    last parse failure is surfaced as GenerationError.
    """
    payload = build_meta_payload(meta_prompt, display_name)
    last: DGFormatError | None = None
    for attempt in range(1, max_attempts + 1):
        raw = chat_client(payload)
        if reply_log is not None:
            reply_log.append(
                {"tag_id": tag_id, "attempt": attempt, "raw_text": raw}
            )
        try:
            definition, guidelines = parse_dg_reply(raw)
        except DGFormatError as exc:
            last = exc
            continue
        return TagSpec(
            tag_id=tag_id,
            display_name=display_name,
            definition=definition,
            guidelines=guidelines,
            provenance="generated",
            generator_model=generator_model,
        )
    raise GenerationError(
        f"tag {tag_id!r}: no parseable reply after {max_attempts} attempts "
        f"(last reply: {(last.raw_reply if last else '')[:200]!r})"
    )


def generate_missing(
    store: GuidelineStore,
    display_names: dict[str, str],
    chat_client: ChatClient,
    meta_prompt: str,
    *,
    generator_model: str = "",
    max_attempts: int = 3,
    reply_archive=None,
) -> list[str]:
    """Fill store entries for tags that lack one; warm tags cost no calls.

    Returns the tag ids that were generated this invocation.
    """
    reply_log: list[dict] = []
    generated = []
    for tag_id in sorted(display_names):
        if tag_id in store.records:
            continue
        spec = generate_dg(
            tag_id,
            display_names[tag_id],
            chat_client,
            meta_prompt,
            generator_model=generator_model,
            max_attempts=max_attempts,
            reply_log=reply_log,
        )
        store.records[tag_id] = spec
        generated.append(tag_id)
    if not store.created_at:
        store.created_at = _utc_now()
    if reply_archive is not None and reply_log:
        path = Path(reply_archive)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            for entry in reply_log:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return generated
