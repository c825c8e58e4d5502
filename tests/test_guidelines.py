import json
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsner import guidelines as dg
from zsner.errors import AuthError, DGFormatError, GenerationError, StoreFormatError
from zsner.inference import BackendError

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


class ScriptedBackend:
    """A generator backend replying, per tag, from a list of replies; a
    BackendError in the list is raised instead."""

    def __init__(self, replies: dict[str, list]):
        self.replies = replies
        self.calls = []

    def complete(self, job):
        self.calls.append(job)
        reply = self.replies[job.job_id].pop(0)
        if isinstance(reply, BackendError):
            raise reply
        return reply


def _archive(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_generate_dg_retries_then_succeeds(tmp_path):
    backend = ScriptedBackend({"plant": ["non strutturato \ud800", "ancora niente", GOOD_JSON]})
    store = dg.GuidelineStore()
    archive = tmp_path / "store.json.replies.jsonl"
    generated = dg.generate_missing(
        store, {"plant": "pianta"}, backend, 'Descrivi "{display_name}".',
        generator_model="m1", max_attempts=3, reply_archive=archive,
    )
    assert generated == ["plant"]
    spec = store.records["plant"]
    assert spec.definition.startswith("'PIANTA'")
    assert spec.generator_model == "m1"
    assert spec.provenance == "generated"
    assert len(backend.calls) == 3
    assert [(e["tag_id"], e["attempt"]) for e in _archive(archive)] == [
        ("plant", 1), ("plant", 2), ("plant", 3)]
    assert _archive(archive)[0]["raw_text"] == "non strutturato \ud800"  # a lone surrogate too
    assert '"pianta"' in backend.calls[0].payload["messages"][0]["content"]


def test_reply_archive_bytes_one_open_per_call_and_a_flush_per_line(tmp_path, monkeypatch):
    """The first reply does not parse and one holds a lone surrogate. Each
    line is the reply's JSON with non-ASCII kept and the surrogate escaped,
    and a line is on disk before the next round's first call."""
    archive = tmp_path / "d" / "store.json.replies.jsonl"
    on_disk = []

    class Backend(ScriptedBackend):
        def complete(self, job):
            if len(self.calls) == 2:  # the second round's first call
                on_disk.append(archive.read_bytes())
            return super().complete(job)

    backend = Backend({"animal": ["non è un oggetto", GOOD_JSON],
                       "plant": ["niente \ud800", GOOD_JSON]})
    opened = []
    monkeypatch.setattr(dg, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                        raising=False)
    store = dg.GuidelineStore()
    assert dg.generate_missing(store, {"plant": "pianta", "animal": "animale"}, backend,
                               "meta {display_name}", max_attempts=2, max_parallel=1,
                               reply_archive=archive) == ["animal", "plant"]
    good = json.dumps(GOOD_JSON, ensure_ascii=False)
    first = ('{"tag_id": "animal", "attempt": 1, "raw_text": "non è un oggetto"}\n'
             '{"tag_id": "plant", "attempt": 1, "raw_text": "niente \\ud800"}\n').encode()
    assert on_disk == [first]
    assert archive.read_bytes() == first + (
        f'{{"tag_id": "animal", "attempt": 2, "raw_text": {good}}}\n'
        f'{{"tag_id": "plant", "attempt": 2, "raw_text": {good}}}\n').encode()
    assert opened == [archive]


def test_generate_dg_exhausts_attempts(tmp_path):
    backend = ScriptedBackend({"plant": ["mai utile"] * 2, "animal": [GOOD_JSON]})
    store = dg.GuidelineStore()
    archive = tmp_path / "archive.jsonl"
    with pytest.raises(GenerationError) as exc:
        dg.generate_missing(store, {"plant": "pianta", "animal": "animale"}, backend,
                            "meta {display_name}", max_attempts=2, reply_archive=archive)
    assert "plant" in str(exc.value) and "mai utile" in str(exc.value)
    assert len(backend.calls) == 3
    assert list(store.records) == ["animal"]  # stored before plant gave out
    assert [(e["tag_id"], e["attempt"]) for e in _archive(archive)] == [
        ("animal", 1), ("plant", 1), ("plant", 2)]


def test_generate_missing_backend_failure_ends_after_its_round():
    rejected = BackendError("request rejected (400)", "request", transient=False)
    backend = ScriptedBackend({"animal": [GOOD_JSON], "plant": [rejected],
                               "tree": ["non strutturato", GOOD_JSON]})
    store = dg.GuidelineStore()
    with pytest.raises(GenerationError, match="generator backend failure: tag 'plant'"):
        dg.generate_missing(store, {"animal": "animale", "plant": "pianta", "tree": "albero"},
                            backend, "meta {display_name}", max_retries=0)
    assert list(store.records) == ["animal"]
    assert len(backend.calls) == 3  # tree's second attempt is never made


def test_generate_missing_stores_a_reply_in_flight_at_a_rejection():
    """aa's call is in flight when bb's 401 stops the run: its reply is stored."""
    rejected = threading.Event()

    def complete(job):
        if job.job_id == "bb":
            rejected.set()
            raise BackendError("auth rejected (401)", "auth", transient=False)
        assert rejected.wait(timeout=30)
        time.sleep(0.2)  # the worker is done with bb
        return GOOD_JSON

    store = dg.GuidelineStore()
    with pytest.raises(AuthError, match="401"):
        dg.generate_missing(store, {"aa": "a", "bb": "b"}, SimpleNamespace(complete=complete),
                            "meta {display_name}", max_parallel=2)
    assert list(store.records) == ["aa"]


def test_generate_missing_skips_warm_tags(tmp_path):
    store = dg.GuidelineStore(language="it")
    store.records["plant"] = dg.TagSpec("plant", "pianta", "def", "guide")
    backend = ScriptedBackend({"animal": [GOOD_JSON]})

    archive = tmp_path / "store.json.replies.jsonl"
    generated = dg.generate_missing(
        store,
        {"plant": "pianta", "animal": "animale"},
        backend,
        "meta {display_name}",
        reply_archive=archive,
    )
    assert generated == ["animal"]
    assert len(backend.calls) == 1  # the warm tag costs nothing
    assert "animal" in store.records
    assert [e["tag_id"] for e in _archive(archive)] == ["animal"]

    # second pass over the same tags: store is fully warm, zero calls
    backend.calls.clear()
    assert dg.generate_missing(store, {"plant": "pianta", "animal": "animale"},
                               backend, "meta", reply_archive=archive) == []
    assert backend.calls == []
    assert len(_archive(archive)) == 1


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


def test_store_keeps_a_lone_surrogate_and_rejects_a_record_that_is_no_object(tmp_path):
    store = dg.GuidelineStore()
    store.records["plant"] = dg.TagSpec("plant", "pianta \ud800", "def", "guide")
    path = tmp_path / "store.json"
    dg.save_store(store, path)
    assert '"pianta \\ud800"' in path.read_text(encoding="utf-8")
    assert dg.load_store(path).records["plant"] == store.records["plant"]
    path.write_text('{"records": {"plant": "display_name definition guidelines"}}',
                    encoding="utf-8")
    with pytest.raises(StoreFormatError, match="plant"):
        dg.load_store(path)


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
