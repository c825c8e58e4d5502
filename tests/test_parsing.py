import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_extract_list, oracle_scan_balanced_array
from zsner import parsing
from zsner.inference import CompletionRecord
from zsner.parsing import (
    PARSE_FAILED,
    PARSE_OK,
    PARSE_RECOVERED,
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


@pytest.mark.parametrize(
    "text",
    [('Ecco: ["Roma", ' * 10_000)[:100_000], '[ "a", ' * 4000],
    ids=["unclosed_100kB", "open_items"],
)
def test_extract_list_long_unclosed_reply_is_fast(text):
    started = time.perf_counter()
    result = extract_list(text)
    assert time.perf_counter() - started < 1.0
    assert (result.status, result.surfaces) == (PARSE_FAILED, [])


# pieces that make string state, escapes and bracket depth collide
_SCAN_PIECES = [
    "[", "]", '"', "\\", "a", " ", ",", "1", '{"k": ', "}",
    # whole string literals with brackets, quotes and escapes inside
    '"x"', '"]"', '"["', r'"\""', r'"\\"', r'"\n"', r'"q\"]"',
]


@pytest.mark.parametrize("text", [
    r'["\""]',  # an escaped quote does not end the string
    r'["\n"]',  # an escape consumes one plain character, no more
    r'["\\"]',  # an escaped backslash escapes nothing after it
    '"[" ["a"]',  # a '[' inside prose quotes still starts a scan
    '[x "] ["a"]',  # a later '[' inside the first scan's string
    '["Roma", "Mil ... ["Napoli"]',  # a truncated array, then a whole one
    r'["["\""]',  # two scans meet in one state; the later start parses
    'Ecco: [[["a"]]]',  # the outermost of nested arrays
])
def test_scan_balanced_array_string_cases(text):
    expected = oracle_scan_balanced_array(text)
    assert expected is not None
    assert parsing.scan_balanced(text) == expected


@given(st.lists(st.sampled_from(_SCAN_PIECES), max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_scan_balanced_array_matches_rescanning_oracle(text):
    assert parsing.scan_balanced(text) == oracle_scan_balanced_array(text)


@pytest.mark.parametrize("text", [
    r'{"k": "\""}',  # an escaped quote does not end the string
    r'{"k": "\\"}',  # an escaped backslash escapes nothing after it
    '"{" {"a": 1}',  # a '{' inside prose quotes still starts a scan
    '{x "} {"a": 1}',  # a later '{' inside the first scan's string
    '{"k": "Mil ... {"a": 1}',  # a truncated object, then a whole one
    'Ecco: {"a": {"b": {"c": "}"}}}',  # the outermost of nested objects
])
def test_scan_balanced_object_string_cases(text):
    expected = oracle_scan_balanced_array(text, "{}")
    assert isinstance(expected, dict)
    assert parsing.scan_balanced(text, "{}") == expected


@given(st.lists(st.sampled_from(_SCAN_PIECES + [":", '"v"', '{"d": "x", ']),
                max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_scan_balanced_object_matches_rescanning_oracle(text):
    assert parsing.scan_balanced(text, "{}") == oracle_scan_balanced_array(text, "{}")


# whitespace JSON skips, whitespace only str.isspace knows, and a BOM
_LEAD_PIECES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\u2003", "\ufeff"]


@given(st.one_of(
    st.lists(st.sampled_from(_LEAD_PIECES + _SCAN_PIECES + ["null", "1e5", '["a", 1]']),
             max_size=40).map("".join),
    st.text(max_size=80),
))
@settings(max_examples=500, deadline=None)
def test_extract_list_classifies_as_before_its_fast_paths(text):
    result = extract_list(text)
    assert (result.status, result.surfaces, result.dropped) == oracle_extract_list(text)


@pytest.mark.parametrize("value", [None, 0, 7, [], ["a"], {"a": 1}, True])
def test_extract_list_non_text_is_failed(value):
    assert extract_list(value) == parsing.ParseResult(PARSE_FAILED, [])


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


def _record(raw, status="ok"):
    return CompletionRecord(job_id="j1", raw_text=raw, status=status)


def test_to_extraction_normalizes_and_drops_empties():
    ext = to_extraction(_record('["  ROMA ", "", "De  Gasperi"]'), "d1", "person")
    assert (ext.doc_id, ext.tag_id) == ("d1", "person")
    assert ext.surfaces == ["roma", "de gasperi"]
    assert ext.parse_status == PARSE_OK


def test_to_extraction_error_record_is_failed():
    ext = to_extraction(_record("", status="error"), "d1", "person")
    assert ext.parse_status == PARSE_FAILED
    assert ext.surfaces == []


def test_to_extraction_unparsable_is_failed():
    ext = to_extraction(_record("nessuna entità"), "d1", "person")
    assert ext.parse_status == PARSE_FAILED
