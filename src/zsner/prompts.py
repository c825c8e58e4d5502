"""Prompt construction: one entity type per request.

A template asks about a single tag in a single document and requests a
JSON list of surface forms. The definition-and-guideline block sits
between {dg:begin}/{dg:end} marker lines so the ablated variant can drop
it wholesale. Placeholders are substituted in one pass; brace sequences
inside document text or guideline text are never re-expanded.
"""

import hashlib
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from zsner.corpus import Benchmark, Document
from zsner.errors import ExpansionError, RenderError
from zsner.guidelines import TagSpec

WITH_DG = "with_dg"
WITHOUT_DG = "without_dg"
VARIANTS = (WITH_DG, WITHOUT_DG)

DG_BEGIN = "{dg:begin}"
DG_END = "{dg:end}"

_PLACEHOLDER_RE = re.compile(r"\{(text|display_name|definition|guidelines)\}")
_SLOT_RE = re.compile(r"\{(system|user)\}")


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    language: str = "it"
    # the body each variant renders, worked out once from `body`
    with_dg_body: str = field(init=False, repr=False, compare=False)
    without_dg_body: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        outside: list[str] = []  # lines kept either way
        inside: list[str] = []  # lines of the D&G block
        in_block = False
        seen_block = False
        lines = self.body.split("\n")
        for line in lines:
            stripped = line.strip()
            if stripped == DG_BEGIN:
                if in_block or seen_block:
                    raise RenderError(
                        f"template {self.template_id!r}: more than one "
                        f"{DG_BEGIN} block"
                    )
                in_block = True
                seen_block = True
            elif stripped == DG_END:
                if not in_block:
                    raise RenderError(
                        f"template {self.template_id!r}: {DG_END} without "
                        f"{DG_BEGIN}"
                    )
                in_block = False
            else:
                (inside if in_block else outside).append(line)
        if in_block:
            raise RenderError(f"template {self.template_id!r}: unclosed {DG_BEGIN}")
        kept = "\n".join(outside)
        block = "\n".join(inside)
        for name in ("text", "display_name"):
            if "{%s}" % name not in kept:
                raise RenderError(
                    f"template {self.template_id!r}: missing {{{name}}} outside "
                    f"the D&G block"
                )
        for name in ("definition", "guidelines"):
            ph = "{%s}" % name
            if ph in kept:
                raise RenderError(
                    f"template {self.template_id!r}: {ph} outside the D&G block"
                )
            if inside and ph not in block:
                raise RenderError(
                    f"template {self.template_id!r}: D&G block lacks {ph}"
                )
        object.__setattr__(self, "with_dg_body", "\n".join(
            line for line in lines if line.strip() not in (DG_BEGIN, DG_END)
        ))
        object.__setattr__(self, "without_dg_body", kept)


def render(
    doc: Document, spec: TagSpec, variant: str, template: PromptTemplate
) -> str:
    """The user-turn prompt text for one (document, tag) cell."""
    body = _variant_body(spec, variant, template)
    values = {
        "text": doc.text,
        "display_name": spec.display_name,
        "definition": spec.definition,
        "guidelines": spec.guidelines,
    }
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], body)


def _variant_body(spec: TagSpec, variant: str, template: PromptTemplate) -> str:
    """The template body `variant` renders for `spec`, or RenderError."""
    if variant == WITH_DG:
        if not spec.definition.strip() or not spec.guidelines.strip():
            raise RenderError(
                f"tag {spec.tag_id!r}: with_dg rendering needs a non-empty "
                f"definition and guidelines"
            )
        return template.with_dg_body
    if variant == WITHOUT_DG:
        return template.without_dg_body
    raise RenderError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


# --------------------------------------------------------------------------
# chat adapters

MESSAGES = "messages"
SINGLE_STRING = "single_string"


@dataclass(frozen=True)
class ChatAdapter:
    adapter_id: str
    kind: str
    with_system: str = ""
    without_system: str = ""

    def __post_init__(self):
        if self.kind not in (MESSAGES, SINGLE_STRING):
            raise RenderError(
                f"adapter {self.adapter_id!r}: unknown kind {self.kind!r}"
            )
        if self.kind == SINGLE_STRING:
            if "{user}" not in self.without_system:
                raise RenderError(
                    f"adapter {self.adapter_id!r}: without_system lacks {{user}}"
                )
            if "{user}" not in self.with_system or "{system}" not in self.with_system:
                raise RenderError(
                    f"adapter {self.adapter_id!r}: with_system needs {{system}} "
                    f"and {{user}}"
                )


def wrap(user_text: str, adapter: ChatAdapter, system_text: str = "") -> dict:
    """Chat-completions message payload for one prompt."""
    if adapter.kind == MESSAGES:
        messages = []
        if system_text:
            messages.append({"role": "system", "content": system_text})
        messages.append({"role": "user", "content": user_text})
        return {"messages": messages}
    fmt = adapter.with_system if system_text else adapter.without_system
    slots = {"system": system_text, "user": user_text}
    flat = _SLOT_RE.sub(lambda m: slots[m.group(1)], fmt)
    return {"messages": [{"role": "user", "content": flat}]}


# --------------------------------------------------------------------------
# job expansion


@dataclass(frozen=True)
class PromptJob:
    job_id: str
    doc_id: str
    tag_id: str
    variant: str
    template_id: str
    adapter_id: str
    payload: dict = field(hash=False, compare=False, default_factory=dict)


def job_id_for(
    doc_id: str, tag_id: str, variant: str, template_id: str, adapter_id: str
) -> str:
    key = "\x1e".join([doc_id, tag_id, variant, template_id, adapter_id])
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def _build_job(doc, spec, variant, template, adapter, system_text) -> PromptJob:
    user_text = render(doc, spec, variant, template)
    return PromptJob(
        job_id=job_id_for(
            doc.doc_id, spec.tag_id, variant, template.template_id, adapter.adapter_id
        ),
        doc_id=doc.doc_id,
        tag_id=spec.tag_id,
        variant=variant,
        template_id=template.template_id,
        adapter_id=adapter.adapter_id,
        payload=wrap(user_text, adapter, system_text),
    )


class JobGrid:
    """The jobs of a benchmark grid, built one at a time as it is iterated.

    len() is the number of cells. Each pass renders every job afresh, in
    Benchmark.cells() order, so no payload outlives its consumer.
    """

    def __init__(self, size: int, build: Callable[[], Iterator[PromptJob]]):
        self._size = size
        self._build = build

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[PromptJob]:
        return self._build()


def expand_benchmark_jobs(
    benchmark: Benchmark,
    datasets: dict[str, list[Document]],
    specs: dict[str, TagSpec],
    variant: str,
    template: PromptTemplate,
    adapter: ChatAdapter,
    system_text: str = "",
) -> JobGrid:
    """One job per cell of Benchmark.cells(), in its order, rendered lazily.

    Every ExpansionError or RenderError a job could raise is raised here,
    before any job is built.
    """
    docs_by_id: dict[str, Document] = {}
    for tier in benchmark.tiers:
        for ds in tier.dataset_ids:
            if ds not in datasets:
                raise ExpansionError(
                    f"tier {tier.name!r}: dataset {ds!r} not loaded"
                )
            for doc in datasets[ds]:
                prev = docs_by_id.setdefault(doc.doc_id, doc)
                if prev is not doc and prev.text != doc.text:
                    raise ExpansionError(
                        f"duplicate document id {doc.doc_id!r} with differing text"
                    )
    cells = benchmark.cells()
    for tag in dict.fromkeys(tag for (_, tag), _ in cells):  # first-use order
        spec = specs.get(tag)
        if spec is None:
            raise ExpansionError(f"no tag spec for {tag!r}")
        _variant_body(spec, variant, template)

    def build() -> Iterator[PromptJob]:
        for (doc_id, tag), _ in cells:
            yield _build_job(
                docs_by_id[doc_id], specs[tag], variant, template, adapter, system_text
            )

    return JobGrid(len(cells), build)
