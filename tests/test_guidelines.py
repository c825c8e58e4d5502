import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsner import guidelines as dg
from zsner.errors import DGFormatError, GenerationError, StoreFormatError

FIXTURES = Path(__file__).parent / "fixtures"

GOOD_JSON = json.dumps(
    {
        "definizione": "'PIANTA' si riferisce a organismi vegetali.",
        "linee guida": "Etichetta le specie; NON etichettare i cibi.",
    },
    ensure_ascii=False,
)


def test_parse_dg_reply_exact_object():
    d, g = dg.parse_dg_reply(GOOD_JSON)
    assert d.startswith("'PIANTA'")
    assert g.startswith("Etichetta")


def test_parse_dg_reply_english_keys_and_case():
    d, g = dg.parse_dg_reply('{"Definition": "def text", "Guidelines": "guide text"}')
    assert (d, g) == ("def text", "guide text")


def test_parse_dg_reply_object_embedded_in_prose():
    raw = f"Ecco le istruzioni richieste:\n```json\n{GOOD_JSON}\n```\nSpero aiuti."
    d, g = dg.parse_dg_reply(raw)
    assert d.startswith("'PIANTA'")


def test_parse_dg_reply_labeled_sections():
    raw = (
        "Definizione: 'CORPO CELESTE' si riferisce a oggetti astronomici.\n\n"
        "Linee guida: Etichetta pianeti e stelle. NON etichettare i veicoli spaziali."
    )
    d, g = dg.parse_dg_reply(raw)
    assert "astronomici" in d
    assert g.startswith("Etichetta pianeti")


def test_parse_dg_reply_sections_any_order_and_case():
    raw = "LINEE GUIDA: seconda parte\nDEFINIZIONE: prima parte"
    d, g = dg.parse_dg_reply(raw)
    assert (d, g) == ("prima parte", "seconda parte")


def test_parse_dg_reply_failures_carry_raw():
    for raw in ("", "testo libero senza struttura", '{"definizione": "solo una"}'):
        with pytest.raises(DGFormatError) as exc:
            dg.parse_dg_reply(raw)
        assert exc.value.raw_reply == raw


@pytest.mark.parametrize(
    "raw", ["[" * 2000, '[ "a", ' * 4000, '{"a": ' * 1000],
    ids=["open", "open_items", "objects"],
)
def test_parse_dg_reply_deep_nesting_is_format_error(raw):
    with pytest.raises(DGFormatError):
        dg.parse_dg_reply(raw)
    with pytest.raises(DGFormatError):  # the same nesting inside a balanced object
        dg.parse_dg_reply("Ecco: " + raw + "}" * raw.count("{"))


_DG_PIECES = ["{", "}", '"', "\\", ":", ",", " ", "\n", "[", "]", "x",
              '"definizione"', '"linee guida"', '"testo"', "Definizione:",
              "Linee guida:", "**", "```"]


@given(st.one_of(st.text(max_size=200),
                 st.lists(st.sampled_from(_DG_PIECES), max_size=40).map("".join)))
@settings(max_examples=300, deadline=None)
def test_parse_dg_reply_returns_two_strings_or_format_error(raw):
    try:
        got = dg.parse_dg_reply(raw)
    except DGFormatError:
        return
    assert isinstance(got, tuple) and len(got) == 2
    assert all(isinstance(part, str) for part in got)


@pytest.mark.parametrize("raw", [
    ('Ecco: {"definizione": {"a": "b", ' * 4000)[:100_000],
    '{"a": ' * 4000,
    "{" * 5000 + "}" * 5000,
], ids=["unclosed_100kB", "open_objects", "deep_balanced"])
def test_parse_dg_reply_is_fast_on_hostile_nesting(raw):
    started = time.perf_counter()
    with pytest.raises(DGFormatError):
        dg.parse_dg_reply(raw)
    assert time.perf_counter() - started < 1.0


def test_generate_dg_retries_then_succeeds():
    replies = iter(["non strutturato", "ancora niente", GOOD_JSON])
    calls = []

    def client(payload):
        calls.append(payload)
        return next(replies)

    log = []
    spec = dg.generate_dg(
        "plant", "pianta", client, "Descrivi \"{display_name}\".",
        generator_model="m1", max_attempts=3, reply_log=log,
    )
    assert spec.definition.startswith("'PIANTA'")
    assert spec.generator_model == "m1"
    assert spec.provenance == "generated"
    assert len(calls) == 3
    assert [e["attempt"] for e in log] == [1, 2, 3]
    assert '"pianta"' in calls[0]["messages"][0]["content"]


def test_generate_dg_exhausts_attempts():
    def client(payload):
        return "mai utile"

    with pytest.raises(GenerationError) as exc:
        dg.generate_dg("plant", "pianta", client, "meta", max_attempts=2)
    assert "plant" in str(exc.value)


def test_generate_missing_skips_warm_tags(tmp_path):
    store = dg.GuidelineStore(language="it")
    store.records["plant"] = dg.TagSpec("plant", "pianta", "def", "guide")
    calls = []

    def client(payload):
        calls.append(payload)
        return GOOD_JSON

    archive = tmp_path / "store.json.replies.jsonl"
    generated = dg.generate_missing(
        store,
        {"plant": "pianta", "animal": "animale"},
        client,
        "meta {display_name}",
        reply_archive=archive,
    )
    assert generated == ["animal"]
    assert len(calls) == 1  # the warm tag costs nothing
    assert "animal" in store.records
    lines = [json.loads(x) for x in archive.read_text().splitlines()]
    assert [e["tag_id"] for e in lines] == ["animal"]

    # second pass over the same tags: store is fully warm, zero calls
    calls.clear()
    assert dg.generate_missing(store, {"plant": "pianta", "animal": "animale"},
                               client, "meta") == []
    assert calls == []


def test_store_round_trip(tmp_path):
    store = dg.GuidelineStore(language="it", meta_prompt_id="dg_it_v1")
    store.records["plant"] = dg.TagSpec(
        "plant", "pianta", "def", "guide", "generated", "model-x"
    )
    path = tmp_path / "store.json"
    dg.save_store(store, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert set(data) == {"language", "meta_prompt_id", "created_at", "records"}
    assert data["records"]["plant"]["generator_model"] == "model-x"
    back = dg.load_store(path)
    assert back.records["plant"] == store.records["plant"]
    assert back.meta_prompt_id == "dg_it_v1"


def test_load_store_tolerates_missing_generator_model():
    store = dg.load_store(FIXTURES / "store_legacy.json")
    plant = store.records["plant"]
    assert plant.generator_model == ""
    assert plant.provenance == "generated"
    assert store.records["celestial_body"].provenance == "manual"


def test_load_store_errors():
    with pytest.raises(StoreFormatError):
        dg.load_store(FIXTURES / "nope.json")
    with pytest.raises(StoreFormatError):
        # reply_cases.json is valid JSON but not a store
        dg.load_store(FIXTURES / "reply_cases.json")


def test_store_rejects_missing_required_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"records": {"plant": {"display_name": "pianta", "definition": "d"}}}',
        encoding="utf-8",
    )
    with pytest.raises(StoreFormatError) as exc:
        dg.load_store(path)
    assert "guidelines" in str(exc.value)


def test_validate_store_reports_problems():
    store = dg.GuidelineStore()
    store.records["plant"] = dg.TagSpec("plant", "pianta", "def", "")
    store.records["tree"] = dg.TagSpec("tree", "Pianta", "def", "guide")
    report = dg.validate_store(store, ["plant", "tree", "animal"])
    assert report["missing"] == ["animal"]
    assert report["empty_fields"] == {"plant": ["guidelines"]}
    assert report["duplicate_display_names"] == {"pianta": ["plant", "tree"]}
    assert report["ok"] is False

    good = dg.GuidelineStore()
    good.records["plant"] = dg.TagSpec("plant", "pianta", "d", "g")
    assert dg.validate_store(good, ["plant"])["ok"] is True
