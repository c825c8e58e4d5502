"""Model-reply parsing: recover the JSON surface list, normalize, classify.

The prompt asks the model for a JSON array of entity surface strings.
Replies are classified three ways, never raising:

  ok        - the reply is exactly a JSON array
  recovered - the first balanced JSON array embedded in surrounding prose
  failed    - no parsable array anywhere in the reply
"""

import json
import re
from dataclasses import dataclass, field

from zsner.errors import PairingError

PARSE_OK = "ok"
PARSE_RECOVERED = "recovered"
PARSE_FAILED = "failed"

_WS_RUN = re.compile(r"\s+")


def normalize_surface(s: str) -> str:
    """Scoring canon: NFC, trim, collapse whitespace runs, lowercase.

    A final NFC pass keeps the function idempotent: lowercasing can emit
    combining marks out of canonical order (e.g. U+0130 -> i + U+0307
    before a lower-class mark), which a second NFC call would reorder.
    """
    import unicodedata

    s = unicodedata.normalize("NFC", s)
    s = s.strip()
    s = _WS_RUN.sub(" ", s)
    s = s.lower()
    return unicodedata.normalize("NFC", s)


@dataclass
class ParseResult:
    status: str
    surfaces: list[str]
    dropped: int = 0


def _coerce_elements(items: list) -> tuple[list[str], int]:
    """Keep strings, render other scalars as JSON text, drop the rest."""
    surfaces: list[str] = []
    dropped = 0
    for item in items:
        if isinstance(item, str):
            surfaces.append(item)
        elif isinstance(item, bool) or isinstance(item, (int, float)):
            surfaces.append(json.dumps(item))
        else:
            dropped += 1
    return surfaces, dropped


def _scan_balanced_array(text: str) -> list | None:
    """Return the first substring that parses as a JSON array, else None.

    Bracket balancing honours JSON string literals and escapes, so brackets
    inside quoted surfaces do not terminate the scan.
    """
    n = len(text)
    start = text.find("[")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, n):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    try:
                        value = json.loads(text[start : i + 1])
                    except (json.JSONDecodeError, RecursionError):
                        break
                    if isinstance(value, list):
                        return value
                    break
        start = text.find("[", start + 1)
    return None


def extract_list(raw_text: str) -> ParseResult:
    """Three-way classification of a raw model reply. Never raises."""
    try:
        value = json.loads(raw_text)
    except (json.JSONDecodeError, TypeError, RecursionError):
        value = None
    if isinstance(value, list):
        surfaces, dropped = _coerce_elements(value)
        return ParseResult(PARSE_OK, surfaces, dropped)

    embedded = _scan_balanced_array(raw_text) if raw_text else None
    if embedded is not None:
        surfaces, dropped = _coerce_elements(embedded)
        return ParseResult(PARSE_RECOVERED, surfaces, dropped)
    return ParseResult(PARSE_FAILED, [])


@dataclass
class Extraction:
    """Normalized surface multiset predicted (or gold) for one (doc, tag)."""

    doc_id: str
    tag_id: str
    surfaces: list[str] = field(default_factory=list)
    parse_status: str = PARSE_OK

    def to_record(self, variant: str = "") -> dict:
        rec = {
            "doc_id": self.doc_id,
            "tag_id": self.tag_id,
            "surfaces": list(self.surfaces),
            "parse_status": self.parse_status,
        }
        if variant:
            rec["variant"] = variant
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "Extraction":
        return cls(
            doc_id=rec["doc_id"],
            tag_id=rec["tag_id"],
            surfaces=list(rec.get("surfaces", [])),
            parse_status=rec.get("parse_status", PARSE_OK),
        )


def to_extraction(record, job) -> Extraction:
    """Turn one CompletionRecord into an Extraction for its PromptJob.

    Backend errors and unparsable replies yield parse_status=failed with an
    empty multiset; the scorer then counts the whole gold side as misses.
    """
    if record.job_id != job.job_id:
        raise PairingError(
            f"record {record.job_id} does not belong to job {job.job_id}"
        )
    if record.status != "ok":
        return Extraction(job.doc_id, job.tag_id, [], PARSE_FAILED)

    parsed = extract_list(record.raw_text)
    if parsed.status == PARSE_FAILED:
        return Extraction(job.doc_id, job.tag_id, [], PARSE_FAILED)
    surfaces = [normalize_surface(s) for s in parsed.surfaces]
    surfaces = [s for s in surfaces if s]
    return Extraction(job.doc_id, job.tag_id, surfaces, parsed.status)
