import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsner.errors import PairingError
from zsner.inference import CompletionRecord
from zsner.parsing import (
    PARSE_FAILED,
    PARSE_OK,
    PARSE_RECOVERED,
    Extraction,
    extract_list,
    normalize_surface,
    to_extraction,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_reply_cases():
    return json.loads((FIXTURES / "reply_cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", load_reply_cases(), ids=lambda c: c["name"])
def test_reply_case(case):
    result = extract_list(case["raw"])
    assert result.status == case["status"], case["raw"]
    assert result.surfaces == case["surfaces"]
    assert result.dropped == case["dropped"]


@given(st.text(max_size=300))
@settings(max_examples=300, deadline=None)
def test_extract_list_never_raises(text):
    result = extract_list(text)
    assert result.status in (PARSE_OK, PARSE_RECOVERED, PARSE_FAILED)
    assert all(isinstance(s, str) for s in result.surfaces)


# nesting deep enough that json.loads raises RecursionError
DEEP_REPLIES = ["[" * 2000, '[ "a", ' * 4000, '{"a": ' * 1000]


@pytest.mark.parametrize("text", DEEP_REPLIES, ids=["open", "open_items", "objects"])
def test_extract_list_deep_nesting_is_failed(text):
    result = extract_list(text)
    assert (result.status, result.surfaces) == (PARSE_FAILED, [])


def test_extract_list_deep_balanced_array_after_prose():
    result = extract_list("Ecco: " + "[" * 1100 + "]" * 1100)
    assert result.status in (PARSE_RECOVERED, PARSE_FAILED)
    assert result.surfaces == []


@given(st.lists(st.text(max_size=40), max_size=10))
@settings(max_examples=200, deadline=None)
def test_exact_array_of_strings_round_trips(surfaces):
    result = extract_list(json.dumps(surfaces, ensure_ascii=False))
    assert result.status == PARSE_OK
    assert result.surfaces == surfaces
    assert result.dropped == 0


def test_normalize_examples():
    assert normalize_surface("  Alcide  De Gasperi ") == "alcide de gasperi"
    assert normalize_surface("ROMA") == "roma"
    # decomposed e + combining grave collapses to the precomposed letter
    assert normalize_surface("è") == "è"
    assert normalize_surface("a\tb\n c") == "a b c"
    assert normalize_surface("   ") == ""


@given(st.text(max_size=60))
@settings(max_examples=500, deadline=None)
def test_normalize_idempotent(s):
    once = normalize_surface(s)
    assert normalize_surface(once) == once


def test_normalize_idempotent_on_known_hard_point():
    # U+0130 lowercases to i + U+0307; a lower combining class mark after
    # it forces an NFC reordering that a single trailing pass must absorb
    hard = "İࣩ"
    once = normalize_surface(hard)
    assert normalize_surface(once) == once


def test_extraction_record_round_trip():
    ext = Extraction("d1", "plant", ["quercia", "pino"], PARSE_RECOVERED)
    rec = ext.to_record(variant="with_dg")
    assert rec["variant"] == "with_dg"
    back = Extraction.from_record(rec)
    assert back == ext
    assert "variant" not in ext.to_record()


class _Job:
    def __init__(self, job_id, doc_id, tag_id):
        self.job_id = job_id
        self.doc_id = doc_id
        self.tag_id = tag_id


def _record(job_id, raw, status="ok"):
    return CompletionRecord(job_id=job_id, raw_text=raw, status=status)


def test_to_extraction_normalizes_and_drops_empties():
    job = _Job("j1", "d1", "person")
    ext = to_extraction(_record("j1", '["  ROMA ", "", "De  Gasperi"]'), job)
    assert ext.surfaces == ["roma", "de gasperi"]
    assert ext.parse_status == PARSE_OK


def test_to_extraction_error_record_is_failed():
    job = _Job("j1", "d1", "person")
    ext = to_extraction(_record("j1", "", status="error"), job)
    assert ext.parse_status == PARSE_FAILED
    assert ext.surfaces == []


def test_to_extraction_unparsable_is_failed():
    job = _Job("j1", "d1", "person")
    ext = to_extraction(_record("j1", "nessuna entità"), job)
    assert ext.parse_status == PARSE_FAILED


def test_to_extraction_rejects_mismatched_job():
    job = _Job("other", "d1", "person")
    with pytest.raises(PairingError):
        to_extraction(_record("j1", "[]"), job)
