"""Model-reply parsing: recover the JSON surface list, normalize, classify.

The prompt asks the model for a JSON array of entity surface strings.
Replies are classified three ways, never raising:

  ok        - the reply is exactly a JSON array
  recovered - the first balanced JSON array embedded in surrounding prose
  failed    - no parsable array anywhere in the reply
"""

import json
import re
import sys
from dataclasses import dataclass, field

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


_SCAN_CHARS = {"[]": re.compile(r'[\[\]"\\]'), "{}": re.compile(r'[{}"\\]')}
_OUT, _IN, _ESC = range(3)  # outside a string, inside one, just after a backslash
_DECODER = json.JSONDecoder()


def _merge(a: list, b: list) -> list:
    """Join two stacks of open groups that from here on see the same brackets.

    A group, [depth, start, ...], holds the starts that one closing bracket
    will close; depth is a lower bound of the nesting inside their spans.
    """
    if len(a) < len(b):
        a, b = b, a
    for k in range(1, len(b) + 1):
        a[-k][0] = min(a[-k][0], b[-k][0])
        a[-k] += b[-k][1:]
    return a


def _closed_spans(text: str, pair: str) -> list[tuple[int, int]]:
    """(start, depth) for each opening bracket of `pair` ("[]" or "{}") whose
    own scan finds the bracket closing it.

    A scan from one bracket honours JSON string literals and escapes. Scans
    from different brackets differ only in their string state, so one
    left-to-right pass runs them as at most three lanes, one per state;
    lanes that reach the same state see the same brackets from then on and
    merge. Linear in len(text).
    """
    opening, closing = pair
    lanes: dict[int, list] = {}  # state -> stack of open groups, innermost last
    spans: list[tuple[int, int]] = []
    prev = -1
    for m in _SCAN_CHARS[pair].finditer(text):
        i, ch = m.start(), m.group()
        if _ESC in lanes and i > prev + 1:  # the escaped character was plain text
            esc = lanes.pop(_ESC)
            lanes[_IN] = _merge(lanes[_IN], esc) if _IN in lanes else esc
        prev = i
        moved: dict[int, list] = {}
        for state, stack in lanes.items():
            if state == _ESC:
                state = _IN
            elif state == _IN:
                state = _ESC if ch == "\\" else _OUT if ch == '"' else _IN
            elif ch == '"':
                state = _IN
            elif ch == opening:
                stack.append([1, i])
            elif ch == closing:
                group = stack.pop()
                spans.extend((start, group[0]) for start in group[1:])
                if not stack:
                    continue
                stack[-1][0] = max(stack[-1][0], group[0] + 1)
            moved[state] = _merge(moved[state], stack) if state in moved else stack
        if ch == opening and _OUT not in moved:
            moved[_OUT] = [[1, i]]
        lanes = moved
    return spans


def scan_balanced(text: str, pair: str = "[]") -> list | dict | None:
    """Return the first substring, by start, that parses as a JSON array
    (or, with pair "{}", a JSON object).

    Only spans whose brackets balance are parsed, each at most once. A span
    nested as deep as the recursion limit is skipped, since json gives up
    on it with RecursionError anyway.
    """
    limit = sys.getrecursionlimit()
    for start, depth in sorted(_closed_spans(text, pair)):
        if depth >= limit:
            continue
        try:
            # what parses from start is exactly the span that its scan closed
            return _DECODER.raw_decode(text, start)[0]
        except (json.JSONDecodeError, RecursionError):
            continue
    return None


def extract_list(raw_text: str) -> ParseResult:
    """Three-way classification of a raw model reply. Never raises."""
    if not isinstance(raw_text, str):  # e.g. a record whose raw_text is null
        return ParseResult(PARSE_FAILED, [])
    # json.loads can only return a list when the first character after JSON
    # whitespace (a subset of str.isspace) is '['; a failed call is costly
    if raw_text.lstrip().startswith("["):
        try:
            value = json.loads(raw_text)
        except (json.JSONDecodeError, RecursionError):
            value = None
        if isinstance(value, list):
            surfaces, dropped = _coerce_elements(value)
            return ParseResult(PARSE_OK, surfaces, dropped)

    embedded = scan_balanced(raw_text) if "[" in raw_text else None
    if embedded is not None:
        surfaces, dropped = _coerce_elements(embedded)
        return ParseResult(PARSE_RECOVERED, surfaces, dropped)
    return ParseResult(PARSE_FAILED, [])


@dataclass(slots=True)
class Extraction:
    """Normalized surface multiset predicted (or gold) for one (doc, tag)."""

    doc_id: str
    tag_id: str
    surfaces: list[str] = field(default_factory=list)
    parse_status: str = PARSE_OK


def to_extraction(record, doc_id: str, tag_id: str) -> Extraction:
    """Turn one CompletionRecord into an Extraction for its (doc_id, tag_id) cell.

    Backend errors and unparsable replies yield parse_status=failed with an
    empty multiset; the scorer then counts the whole gold side as misses.
    """
    if record.status != "ok":
        return Extraction(doc_id, tag_id, [], PARSE_FAILED)

    parsed = extract_list(record.raw_text)
    if parsed.status == PARSE_FAILED:
        return Extraction(doc_id, tag_id, [], PARSE_FAILED)
    surfaces = [normalize_surface(s) for s in parsed.surfaces]
    surfaces = [s for s in surfaces if s]
    return Extraction(doc_id, tag_id, surfaces, parsed.status)
