"""Prompt construction: one entity type per request.

A template asks about a single tag in a single document and requests a
JSON list of surface forms. The definition-and-guideline block sits
between {dg:begin}/{dg:end} marker lines so the ablated variant can drop
it wholesale. Placeholders are substituted in one pass; brace sequences
inside document text or guideline text are never re-expanded.
"""

import json
import re
from collections.abc import Iterator
from json.encoder import encode_basestring
from operator import attrgetter
from typing import NamedTuple

from zsner import corpus
from zsner.corpus import VARIANTS, WITH_DG, WITHOUT_DG, Benchmark, Document, Grid
from zsner.errors import ExpansionError, RenderError
from zsner.guidelines import TagSpec
from zsner.inference import payload_json

DG_BEGIN = "{dg:begin}"
DG_END = "{dg:end}"

_PLACEHOLDER_RE = re.compile(r"\{(text|display_name|definition|guidelines)\}")
_SLOT_RE = re.compile(r"\{(system|user)\}")


class PromptTemplate:
    # with_dg_body and without_dg_body: the body each variant renders, worked out once
    __slots__ = ("template_id", "body", "language", "with_dg_body", "without_dg_body")

    def __init__(self, template_id: str, body: str, language: str = "it"):
        self.template_id, self.body, self.language = template_id, body, language
        lines = body.split("\n")
        # the marker lines (whose strip() is a marker): none, or one begin and then one end
        marks = [i for i, line in enumerate(lines) if line.strip() in (DG_BEGIN, DG_END)]
        if [lines[i].strip() for i in marks] not in ([], [DG_BEGIN, DG_END]):
            raise RenderError(f"template {self.template_id!r}: the marker lines must be one "
                              f"{DG_BEGIN} and then one {DG_END}, or none")
        begin, end = marks or (len(lines), len(lines))
        inside = lines[begin + 1 : end]  # lines of the D&G block
        kept = "\n".join(lines[:begin] + lines[end + 1 :])  # the lines kept either way
        block = "\n".join(inside)
        for name in ("text", "display_name"):
            if "{%s}" % name not in kept:
                raise RenderError(f"template {self.template_id!r}: missing {{{name}}} "
                                  f"outside the D&G block")
        for name in ("definition", "guidelines"):
            ph = "{%s}" % name
            if ph in kept:
                raise RenderError(f"template {self.template_id!r}: {ph} outside the D&G block")
            if inside and ph not in block:
                raise RenderError(f"template {self.template_id!r}: D&G block lacks {ph}")
        self.with_dg_body = "\n".join(lines[:begin] + inside + lines[end + 1 :])
        self.without_dg_body = kept


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


class ChatAdapter:
    __slots__ = ("adapter_id", "kind", "with_system", "without_system")

    def __init__(self, adapter_id: str, kind: str, with_system: str = "",
                 without_system: str = ""):
        self.adapter_id, self.kind = adapter_id, kind
        self.with_system, self.without_system = with_system, without_system
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

_IDS = ("job_id", "doc_id", "tag_id", "variant", "template_id", "adapter_id")


class _TagPlan(NamedTuple):  # what the jobs of one tag share: see _tag_plan
    segments: list[str]  # the prompt split at each {text}
    adapter: ChatAdapter
    system_text: str
    key_pieces: list[str] | None  # key JSON split where the text goes
    line_pieces: list[str] | None  # export line after its doc_id, split likewise


class PromptJob:
    """One request. A hand-built job takes its payload; one from
    expand_benchmark_jobs builds it when read (by a backend, on a miss) and
    its key JSON and export line from its tag's pieces."""

    __slots__ = (*_IDS, "_payload", "_text", "_plan")
    _ids = property(attrgetter(*_IDS))

    def __init__(self, job_id, doc_id, tag_id, variant, template_id, adapter_id,
                 payload=None, text=None, plan=None):
        self.job_id, self.doc_id, self.tag_id = job_id, doc_id, tag_id
        self.variant, self.template_id, self.adapter_id = variant, template_id, adapter_id
        # text: the document's (text, JSON-escaped text); plan: its tag's _TagPlan
        self._payload, self._text, self._plan = payload, text, plan

    @property
    def payload(self) -> dict:  # an expanded job's is built on each read
        if (p := self._plan) is None:
            return self._payload
        return wrap(self._text[0].join(p.segments), p.adapter, p.system_text)

    @property
    def key_json(self) -> str:  # payload_json(self.payload)
        pieces = self._plan and self._plan.key_pieces
        return self._text[1].join(pieces) if pieces else payload_json(self.payload)

    def export_line(self) -> str:
        """The ids and payload as one JSON object, ensure_ascii=False: render -o's line."""
        pieces = self._plan and self._plan.line_pieces
        if not pieces:
            return json.dumps({**dict(zip(_IDS, self._ids)), "payload": self.payload},
                              ensure_ascii=False)
        return (f'{{"job_id": {encode_basestring(self.job_id)}, "doc_id": '
                f'{encode_basestring(self.doc_id)}, {self._text[1].join(pieces)}')


# Stands for the document text while a tag's JSON is cut into pieces. JSON
# escapes each character alone and leaves this one's characters as they are;
# its first character occurs once in it, so no two occurrences overlap.
_TEXT_MARK = "\ue000text\ue001"


def _tag_plan(segments, adapter, system_text, tag, ids) -> _TagPlan:
    """The plan of `tag`'s jobs on grid `ids`. A set of pieces is None if the template,
    spec, system text or ids hold _TEXT_MARK (the joined pieces then differ)."""
    marked = wrap(_TEXT_MARK.join(segments), adapter, system_text)
    empty = wrap("".join(segments), adapter, system_text)
    head = dict(zip(_IDS[2:], (tag, *ids)))

    def pieces(dumps) -> list[str] | None:
        split = dumps(marked).split(_TEXT_MARK)
        return split if "".join(split) == dumps(empty) else None

    return _TagPlan(segments, adapter, system_text, pieces(payload_json), pieces(
        lambda payload: json.dumps({**head, "payload": payload}, ensure_ascii=False)[1:]))


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
    pass builds its jobs afresh, and a job builds its payload only when read.
    `docs` maps each doc_id of the cells to its document (load_benchmark).

    Every ExpansionError or RenderError a job could raise is raised here,
    before any job is built.
    """
    cells = benchmark.cells()
    ids = (variant, template.template_id, adapter.adapter_id)
    plans: dict[str, _TagPlan] = {}
    # the cells' tags in first-use order: those of the tiers holding documents, in tier order
    for tag in dict.fromkeys(tag for tier in benchmark.tiers
                             if any(benchmark.doc_ids.get(ds) for ds in tier.dataset_ids)
                             for tag in tier.tag_ids):
        spec = specs.get(tag)
        if spec is None:
            raise ExpansionError(f"no tag spec for {tag!r}")
        plans[tag] = _tag_plan(_segments(spec, variant, template), adapter, system_text,
                               tag, ids)

    def build() -> Iterator[PromptJob]:
        last = None
        for job_id, (doc_id, tag), _ in corpus.grid_job_ids(cells, ids):
            if doc_id != last:  # once per run of one document's cells
                last, doc = doc_id, docs[doc_id]
                text = doc.text, encode_basestring(doc.text)[1:-1]
            yield PromptJob(job_id, doc_id, tag, *ids, None, text, plans[tag])

    return Grid(len(cells), build)
