import pytest

from conftest import build_benchmark_tree, make_document
from zsner import prompts
from zsner.corpus import Document
from zsner.errors import ExpansionError, RenderError
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


def test_job_id_is_stable_and_distinct(template, spec, doc):
    a = load_adapter("openai_chat")
    j1 = prompts.expand_jobs([doc], [spec], prompts.WITH_DG, template, a)[0]
    j2 = prompts.expand_jobs([doc], [spec], prompts.WITH_DG, template, a)[0]
    assert j1.job_id == j2.job_id
    j3 = prompts.expand_jobs([doc], [spec], prompts.WITHOUT_DG, template, a)[0]
    assert j3.job_id != j1.job_id
    assert len(j1.job_id) == 16


def test_expand_jobs_order_and_duplicate_ids(template, spec, rng):
    a = load_adapter("openai_chat")
    docs = [make_document(rng, f"d{i}", ["plant"]) for i in range(3)]
    other = TagSpec(tag_id="animal", display_name="animale",
                    definition="x", guidelines="y")
    jobs = prompts.expand_jobs(docs, [spec, other], prompts.WITH_DG, template, a)
    assert [(j.doc_id, j.tag_id) for j in jobs] == [
        ("d0", "plant"), ("d0", "animal"),
        ("d1", "plant"), ("d1", "animal"),
        ("d2", "plant"), ("d2", "animal"),
    ]
    with pytest.raises(ExpansionError):
        prompts.expand_jobs(docs + [docs[0]], [spec], prompts.WITH_DG, template, a)


def test_benchmark_expansion_covers_grid_once(tmp_path, rng, template):
    bench, datasets, _ = build_benchmark_tree(tmp_path, rng)
    a = load_adapter("openai_chat")
    specs = {
        tag: TagSpec(tag_id=tag, display_name=tag, definition="d", guidelines="g")
        for tag in bench.all_tags()
    }
    jobs = prompts.expand_benchmark_jobs(
        bench, datasets, specs, prompts.WITH_DG, template, a
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
    bench, datasets, _ = build_benchmark_tree(tmp_path, rng)
    grid = prompts.expand_benchmark_jobs(
        bench, datasets, _grid_specs(bench), prompts.WITH_DG, template,
        load_adapter("openai_chat"),
    )
    assert len(grid) == len(bench.cells())
    first, second = list(grid), list(grid)
    assert [(j.doc_id, j.tag_id) for j in first] == [c for c, _ in bench.cells()]
    assert first == second
    assert [j.payload for j in first] == [j.payload for j in second]
    assert first[0] is not second[0]  # built afresh on each pass


@pytest.mark.parametrize("fault", ["missing_spec", "unloaded_dataset",
                                   "differing_duplicate", "empty_guidelines"])
def test_benchmark_expansion_fails_before_rendering(tmp_path, rng, template,
                                                   monkeypatch, fault):
    bench, datasets, _ = build_benchmark_tree(tmp_path, rng)
    specs = _grid_specs(bench)
    last_tag = bench.tiers[-1].tag_ids[-1]  # its first cell comes late
    error = ExpansionError
    if fault == "missing_spec":
        del specs[last_tag]
    elif fault == "unloaded_dataset":
        del datasets["mn_test"]
    elif fault == "differing_duplicate":
        twin = datasets["wn_test"][0]
        datasets["mn_test"] = datasets["mn_test"] + [
            Document(twin.doc_id, twin.text + " altro")
        ]
    else:
        specs[last_tag] = TagSpec(last_tag, last_tag, definition="d", guidelines=" ")
        error = RenderError
    rendered = []
    real_render = prompts.render
    monkeypatch.setattr(prompts, "render",
                        lambda *args: rendered.append(args) or real_render(*args))
    with pytest.raises(error):
        prompts.expand_benchmark_jobs(
            bench, datasets, specs, prompts.WITH_DG, template,
            load_adapter("openai_chat"),
        )
    assert rendered == []


def test_benchmark_expansion_missing_spec(tmp_path, rng, template):
    bench, datasets, _ = build_benchmark_tree(tmp_path, rng)
    a = load_adapter("openai_chat")
    with pytest.raises(ExpansionError):
        prompts.expand_benchmark_jobs(
            bench, datasets, {}, prompts.WITH_DG, template, a
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
