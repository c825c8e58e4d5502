"""Prompt construction: one entity type per request.

A template asks about a single tag in a single document and requests a
JSON list of surface forms. The definition-and-guideline block sits
between {dg:begin}/{dg:end} marker lines so the ablated variant can drop
it wholesale. Placeholders are substituted in one pass; brace sequences
inside document text or guideline text are never re-expanded.
"""

import hashlib
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring

from zsner.corpus import Benchmark, Document, Grid
from zsner.errors import ExpansionError, RenderError
from zsner.guidelines import TagSpec
from zsner.inference import payload_json

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
    return doc.text.join(_segments(spec, variant, template))


def _segments(spec: TagSpec, variant: str, template: PromptTemplate) -> list[str]:
    """The prompt of `spec` split at each {text}: a document's is doc.text.join(segments)."""
    segments = [""]
    for i, part in enumerate(_PLACEHOLDER_RE.split(_variant_body(spec, variant, template))):
        if i % 2 and part == "text":
            segments.append("")
        else:  # template text, or a placeholder other than {text}
            segments[-1] += getattr(spec, part) if i % 2 else part
    return segments


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
    # (escaped document text, key JSON pieces) from expansion: see _key_pieces
    key_parts: tuple = field(default=(), repr=False, compare=False)

    @property
    def key_json(self) -> str:  # payload_json(self.payload)
        parts = self.key_parts
        return parts[0].join(parts[1]) if parts else payload_json(self.payload)


def job_id_for(
    doc_id: str, tag_id: str, variant: str, template_id: str, adapter_id: str
) -> str:
    key = "\x1e".join([doc_id, tag_id, variant, template_id, adapter_id])
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# Stands for the document text while a tag's key JSON is cut into pieces. JSON
# escapes each character alone and leaves this one's characters as they are;
# its first character occurs once in it, so no two occurrences overlap.
_TEXT_MARK = "\ue000text\ue001"


def _key_pieces(segments, adapter, system_text) -> list[str] | None:
    """`segments`' key JSON split where the document text goes, or None if the
    template, spec or system text hold _TEXT_MARK (the joined pieces differ)."""
    pieces = payload_json(wrap(_TEXT_MARK.join(segments), adapter, system_text)).split(_TEXT_MARK)
    empty = payload_json(wrap("".join(segments), adapter, system_text))
    return pieces if "".join(pieces) == empty else None


def expand_benchmark_jobs(
    benchmark: Benchmark,
    docs: dict[str, Document],
    specs: dict[str, TagSpec],
    variant: str,
    template: PromptTemplate,
    adapter: ChatAdapter,
    system_text: str = "",
) -> Grid:
    """One job per cell of Benchmark.cells(), in its order, as a Grid: each
    pass renders every job afresh, so no payload outlives its consumer.
    `docs` maps each doc_id of the cells to its document (load_benchmark).

    Every ExpansionError or RenderError a job could raise is raised here,
    before any job is built.
    """
    cells = benchmark.cells()
    plans: dict[str, tuple] = {}  # tag -> (segments, key pieces or None)
    for tag in dict.fromkeys(tag for (_, tag), _ in cells):  # first-use order
        spec = specs.get(tag)
        if spec is None:
            raise ExpansionError(f"no tag spec for {tag!r}")
        segments = _segments(spec, variant, template)
        plans[tag] = segments, _key_pieces(segments, adapter, system_text)
    ids = (variant, template.template_id, adapter.adapter_id)

    def build() -> Iterator[PromptJob]:
        last = None
        for (doc_id, tag), _ in cells:
            doc = docs[doc_id]
            if doc is not last:  # a document's cells come together
                last, escaped = doc, encode_basestring(doc.text)[1:-1]
            segments, pieces = plans[tag]
            yield PromptJob(
                job_id_for(doc_id, tag, *ids), doc_id, tag, *ids,
                payload=wrap(doc.text.join(segments), adapter, system_text),
                key_parts=(escaped, pieces) if pieces else (),
            )

    return Grid(len(cells), build)
