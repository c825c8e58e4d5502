import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import add_twin, build_benchmark_tree, load_benchmark_tree
from oracles import oracle_render
from zsner import corpus, prompts
from zsner.corpus import Benchmark, BenchmarkTier, Document
from zsner.errors import DatasetFormatError, ExpansionError, RenderError
from zsner.guidelines import TagSpec
from zsner.resources import load_adapter, load_template

BODY = "\n".join(
    [
        "Estrai le entità di tipo \"{display_name}\".",
        "{dg:begin}",
        "Definizione: {definition}",
        "Linee guida: {guidelines}",
        "{dg:end}",
        "TESTO: {text}",
    ]
)


@pytest.fixture
def template():
    return prompts.PromptTemplate("t1", BODY)


@pytest.fixture
def spec():
    return TagSpec(
        tag_id="plant",
        display_name="pianta",
        definition="'PIANTA' si riferisce a organismi vegetali.",
        guidelines="Etichetta le specie vegetali; NON etichettare i cibi derivati.",
    )


@pytest.fixture
def doc():
    return Document("d1", "La quercia cresce lentamente .")


def test_with_dg_contains_all_fields(template, spec, doc):
    text = prompts.render(doc, spec, prompts.WITH_DG, template)
    assert doc.text in text
    assert spec.display_name in text
    assert spec.definition in text
    assert spec.guidelines in text
    assert "{dg:begin}" not in text and "{dg:end}" not in text


def test_without_dg_removes_block(template, spec, doc):
    text = prompts.render(doc, spec, prompts.WITHOUT_DG, template)
    assert doc.text in text
    assert spec.display_name in text
    assert spec.definition not in text
    assert spec.guidelines not in text
    assert "Definizione" not in text and "Linee guida" not in text


def test_with_dg_requires_populated_spec(template, doc):
    empty = TagSpec(tag_id="plant", display_name="pianta")
    with pytest.raises(RenderError) as exc:
        prompts.render(doc, empty, prompts.WITH_DG, template)
    assert "plant" in str(exc.value)
    # the ablated variant needs only the display name
    text = prompts.render(doc, empty, prompts.WITHOUT_DG, template)
    assert "pianta" in text


def test_unknown_variant_rejected(template, spec, doc):
    with pytest.raises(RenderError):
        prompts.render(doc, spec, "half_dg", template)


def test_substitution_is_single_pass(template, spec):
    """Placeholder-looking text inside the document must come through
    verbatim, not get expanded recursively."""
    tricky = Document("d2", "testo con {definition} e {text} letterali")
    out = prompts.render(tricky, spec, prompts.WITH_DG, template)
    assert "testo con {definition} e {text} letterali" in out
    dg_spec = TagSpec(
        tag_id="plant",
        display_name="pianta",
        definition="definizione con {guidelines} dentro",
        guidelines="righe guida",
    )
    out = prompts.render(tricky, dg_spec, prompts.WITH_DG, template)
    assert "definizione con {guidelines} dentro" in out


def test_template_validation_errors():
    with pytest.raises(RenderError):
        prompts.PromptTemplate("bad", "niente segnaposto")
    with pytest.raises(RenderError):  # {definition} outside the block
        prompts.PromptTemplate("bad", "{text} {display_name} {definition}")
    with pytest.raises(RenderError):  # unclosed block
        prompts.PromptTemplate("bad", "{text} {display_name}\n{dg:begin}\n{definition}")
    with pytest.raises(RenderError):  # two blocks
        prompts.PromptTemplate(
            "bad",
            "{text} {display_name}\n{dg:begin}\n{definition} {guidelines}\n{dg:end}"
            "\n{dg:begin}\n{definition} {guidelines}\n{dg:end}",
        )
    with pytest.raises(RenderError):  # block missing {guidelines}
        prompts.PromptTemplate(
            "bad", "{text} {display_name}\n{dg:begin}\n{definition}\n{dg:end}"
        )
    # a template with no block at all is fine (both variants identical)
    t = prompts.PromptTemplate("plain", "{display_name}: {text}")
    assert t.template_id == "plain"


def test_builtin_template_satisfies_contract():
    t = load_template("default_it")
    assert "{text}" in t.body and "{display_name}" in t.body
    assert t.language == "it"


# --------------------------------------------------------------------------
# adapters


def test_messages_adapter_system_handling():
    a = load_adapter("openai_chat")
    with_sys = prompts.wrap("ciao", a, "sei un estrattore")
    assert with_sys == {
        "messages": [
            {"role": "system", "content": "sei un estrattore"},
            {"role": "user", "content": "ciao"},
        ]
    }
    without = prompts.wrap("ciao", a)
    assert without == {"messages": [{"role": "user", "content": "ciao"}]}


def test_single_string_adapters():
    a = load_adapter("llama2_inst")
    flat = prompts.wrap("ciao", a, "sistema")["messages"][0]["content"]
    assert flat == "[INST] <<SYS>>\nsistema\n<</SYS>>\n\nciao [/INST]"
    flat = prompts.wrap("ciao", a)["messages"][0]["content"]
    assert flat == "[INST] ciao [/INST]"
    b = load_adapter("llama3_headers")
    flat = prompts.wrap("ciao", b)["messages"][0]["content"]
    assert "<|start_header_id|>user<|end_header_id|>" in flat
    assert flat.endswith("<|start_header_id|>assistant<|end_header_id|>\n\n")


def test_single_string_slots_not_rescanned():
    a = prompts.ChatAdapter(
        "x", prompts.SINGLE_STRING, with_system="S:{system} U:{user}", without_system="U:{user}"
    )
    flat = prompts.wrap("testo con {system} dentro", a, "sys con {user} dentro")
    content = flat["messages"][0]["content"]
    assert content == "S:sys con {user} dentro U:testo con {system} dentro"


def test_adapter_validation():
    with pytest.raises(RenderError):
        prompts.ChatAdapter("x", "tokens")
    with pytest.raises(RenderError):
        prompts.ChatAdapter("x", prompts.SINGLE_STRING, with_system="{user}",
                            without_system="niente")


# --------------------------------------------------------------------------
# job expansion


def test_job_id_is_stable_and_distinct(tmp_path, rng, template):
    bench, docs = load_benchmark_tree(tmp_path, rng)
    a = load_adapter("openai_chat")

    def ids(variant):
        grid = prompts.expand_benchmark_jobs(
            bench, docs, _grid_specs(bench), variant, template, a
        )
        return [j.job_id for j in grid]

    with_dg = ids(prompts.WITH_DG)
    assert with_dg == ids(prompts.WITH_DG)
    assert len(set(with_dg)) == len(with_dg)
    assert not set(with_dg) & set(ids(prompts.WITHOUT_DG))
    assert all(len(i) == 16 for i in with_dg)
    (doc_id, tag), _ = next(iter(bench.cells()))
    assert with_dg[0] == prompts.job_id_for(
        doc_id, tag, prompts.WITH_DG, template.template_id, a.adapter_id
    )
    key = ("d", "t", prompts.WITH_DG, "tpl", "adapter")
    moved = {prompts.job_id_for(*key[:i], key[i] + "x", *key[i + 1:]) for i in range(5)}
    assert len(moved) == 5 and prompts.job_id_for(*key) not in moved


def test_benchmark_expansion_duplicate_document_ids(tmp_path, rng, template):
    """A doc id in two tier datasets is one document while their texts agree
    (a differing twin fails in load_benchmark: see test_corpus)."""
    build_benchmark_tree(tmp_path, rng)
    twin = add_twin(tmp_path)
    bench, docs = corpus.load_benchmark(tmp_path / "manifest.json")
    assert twin in bench.doc_ids["wn_test"] and twin in bench.doc_ids["mn_test"]
    grid = prompts.expand_benchmark_jobs(
        bench, docs, _grid_specs(bench), prompts.WITH_DG, template,
        load_adapter("openai_chat"),
    )
    assert len(list(grid)) == len(bench.cells())


def test_benchmark_expansion_covers_grid_once(tmp_path, rng, template):
    bench, docs = load_benchmark_tree(tmp_path, rng)
    a = load_adapter("openai_chat")
    specs = {
        tag: TagSpec(tag_id=tag, display_name=tag, definition="d", guidelines="g")
        for tag in bench.all_tags()
    }
    jobs = prompts.expand_benchmark_jobs(
        bench, docs, specs, prompts.WITH_DG, template, a
    )
    cells = [(j.doc_id, j.tag_id) for j in jobs]
    assert len(cells) == len(set(cells))
    expected = set()
    for tier in bench.tiers:
        for ds in tier.dataset_ids:
            for doc_id in bench.doc_ids[ds]:
                for tag in tier.tag_ids:
                    expected.add((doc_id, tag))
    assert set(cells) == expected
    assert all(j.payload for j in jobs)


def _grid_specs(bench):
    return {
        tag: TagSpec(tag_id=tag, display_name=tag, definition="d", guidelines="g")
        for tag in bench.all_tags()
    }


def test_benchmark_grid_is_sized_and_iterates_again(tmp_path, rng, template):
    bench, docs = load_benchmark_tree(tmp_path, rng)
    grid = prompts.expand_benchmark_jobs(
        bench, docs, _grid_specs(bench), prompts.WITH_DG, template,
        load_adapter("openai_chat"),
    )
    assert len(grid) == len(bench.cells())
    first, second = list(grid), list(grid)
    assert [(j.doc_id, j.tag_id) for j in first] == [c for c, _ in bench.cells()]
    assert first == second
    assert [j.payload for j in first] == [j.payload for j in second]
    assert first[0] is not second[0]  # built afresh on each pass


@pytest.mark.parametrize("fault", ["missing_spec", "differing_duplicate",
                                   "empty_guidelines"])
def test_benchmark_expansion_fails_before_rendering(tmp_path, rng, template,
                                                   monkeypatch, fault):
    bench, _, _ = build_benchmark_tree(tmp_path, rng)
    specs = _grid_specs(bench)
    last_tag = bench.tiers[-1].tag_ids[-1]  # its first cell comes late
    error = ExpansionError
    if fault == "missing_spec":
        del specs[last_tag]
    elif fault == "differing_duplicate":  # fails as the benchmark loads
        add_twin(tmp_path, " altro")
        error = DatasetFormatError
    else:
        specs[last_tag] = TagSpec(last_tag, last_tag, definition="d", guidelines=" ")
        error = RenderError
    rendered = []
    real_render = prompts.render
    monkeypatch.setattr(prompts, "render",
                        lambda *args: rendered.append(args) or real_render(*args))
    with pytest.raises(error):
        prompts.expand_benchmark_jobs(
            *corpus.load_benchmark(tmp_path / "manifest.json"), specs,
            prompts.WITH_DG, template, load_adapter("openai_chat"),
        )
    assert rendered == []


def test_benchmark_expansion_missing_spec(tmp_path, rng, template):
    bench, docs = load_benchmark_tree(tmp_path, rng)
    a = load_adapter("openai_chat")
    with pytest.raises(ExpansionError):
        prompts.expand_benchmark_jobs(
            bench, docs, {}, prompts.WITH_DG, template, a
        )


# Rendered text feeds the cache key and the job's payload, so it must not
# drift by a byte. The document and the spec carry placeholder and marker
# text of their own, which must come through verbatim.
_PIN_HEAD = (
    'Ti viene fornito un TESTO e il compito di estrarre da esso tutte le entità '
    'di tipo "pianta {guidelines}".\n'
)
_PIN_TAIL = (
    'Riporta ogni occorrenza di tipo "pianta {guidelines}", usando esattamente '
    'la forma con cui compare nel TESTO.\n'
    'Rispondi SOLO con una lista JSON di stringhe, ad esempio '
    '["prima entità", "seconda entità"].\n'
    'Se nel TESTO non sono presenti entità di questo tipo, rispondi con una '
    'lista vuota: [].\n'
    '\n'
    'TESTO: Il segnaposto {text} resta e {dg:begin} pure.'
)


def test_default_template_renders_pinned_text():
    template = load_template("default_it")
    doc = Document("d1", "Il segnaposto {text} resta e {dg:begin} pure.")
    spec = TagSpec(
        tag_id="plant",
        display_name="pianta {guidelines}",
        definition="Una {text} vegetale.",
        guidelines="Riga uno.\n{dg:end}\nRiga due.",
    )
    assert prompts.render(doc, spec, prompts.WITH_DG, template) == (
        _PIN_HEAD
        + "Definizione: Una {text} vegetale.\n"
        + "Linee guida: Riga uno.\n{dg:end}\nRiga due.\n"
        + _PIN_TAIL
    )
    assert prompts.render(doc, spec, prompts.WITHOUT_DG, template) == (
        _PIN_HEAD + _PIN_TAIL
    )


# Expansion renders each tag once into segments around {text} and builds
# each job's key JSON from the tag's serialized payload and the document's
# escaped text. Both must equal the one-pass render and json.dumps on text
# that JSON escapes, that holds placeholders, or that holds the marker the
# key pieces are split at.
_PIECES = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "à", "\U0001f600",
           "\ud800", "\udcff", prompts._TEXT_MARK, "\ue000", "text\ue001",
           "{text}", "{guidelines}", "{system}", "{user}", " "]
_TEXT = st.lists(st.sampled_from(_PIECES) | st.text(max_size=3), max_size=10).map("".join)
_TWO_SLOTS = prompts.PromptTemplate("t2", "\n".join([
    "Testo: {text}", "{dg:begin}", "{definition} / {guidelines}", "{dg:end}",
    "Tipo {display_name}, di nuovo: {text}"]))


@given(texts=st.lists(_TEXT, min_size=1, max_size=3), name=_TEXT, definition=_TEXT,
       guidelines=_TEXT, system=st.just("") | _TEXT,
       adapter_id=st.sampled_from(["openai_chat", "llama3_headers"]),
       variant=st.sampled_from(prompts.VARIANTS), two_slots=st.booleans())
@example(texts=["a"], name="n", definition="d", guidelines="{text} e " + prompts._TEXT_MARK,
         system="", adapter_id="openai_chat", variant=prompts.WITH_DG, two_slots=False)
@example(texts=["\ud800\"" + prompts._TEXT_MARK], name="n", definition="d",
         guidelines="g", system="s\udcff", adapter_id="llama3_headers",
         variant=prompts.WITH_DG, two_slots=True)
@settings(max_examples=300, deadline=None)
def test_expanded_jobs_match_one_pass_render_and_json_dumps(
        texts, name, definition, guidelines, system, adapter_id, variant, two_slots):
    template = _TWO_SLOTS if two_slots else load_template("default_it")
    adapter = load_adapter(adapter_id)
    definition, guidelines = definition + ".", guidelines + "."  # with_dg needs both
    specs = {tag: TagSpec(tag, name + suffix, definition, guidelines)
             for tag, suffix in (("plant", ""), ("animal", "2"))}
    docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
    bench = Benchmark("b", "train", (), [BenchmarkTier(
        "t", "in_domain", ("a",), tuple(specs))], 1, doc_ids={"a": tuple(d.doc_id for d in docs)})
    jobs = list(prompts.expand_benchmark_jobs(
        bench, {d.doc_id: d for d in docs}, specs, variant, template, adapter, system))
    body = template.with_dg_body if variant == prompts.WITH_DG else template.without_dg_body
    assert len(jobs) == 2 * len(docs)
    for job, (doc, spec) in zip(jobs, [(d, s) for d in docs for s in specs.values()]):
        prompt = oracle_render(body, doc.text, spec.display_name, definition, guidelines)
        assert prompts.render(doc, spec, variant, template) == prompt
        assert job.payload == prompts.wrap(prompt, adapter, system)
        assert job.key_json == json.dumps(job.payload, sort_keys=True, ensure_ascii=False)


def test_key_pieces_fall_back_when_the_marker_occurs_outside_the_text(template, spec, doc):
    adapter = load_adapter("openai_chat")
    segments = prompts._segments(spec, prompts.WITH_DG, template)
    assert prompts._key_pieces(segments, adapter, "") is not None
    assert prompts._key_pieces(segments, adapter, "x" + prompts._TEXT_MARK) is None
    marked = TagSpec("plant", "pianta", "def.", "linee " + prompts._TEXT_MARK)
    segments = prompts._segments(marked, prompts.WITH_DG, template)
    assert prompts._key_pieces(segments, adapter, "") is None
    # without_dg leaves the guidelines out, and the marker with them
    segments = prompts._segments(marked, prompts.WITHOUT_DG, template)
    assert prompts._key_pieces(segments, adapter, "") is not None
