"""Seeded inputs for the benchmark: BIO corpora, a reply plan, closed forms.

Everything here depends only on the seed and the sizes passed in, never on
the zsner package or the repository's test helpers, so a change to either
cannot silently change what the benchmark measures.

Documents are built token-first and joined with single spaces, which is
how `zsner ingest` detokenizes, so the expected text and mention offsets of
every ingested document are known here. Some accented entity tokens are
written decomposed (NFD) so that reply normalization has real work to do.
"""

import json
import random
import unicodedata
from dataclasses import dataclass, field

TRAINING_TAGS = ("person", "organization", "location")
# canonical tag id -> multinerd_it source label (the alias table inverted)
SOURCE_LABEL = {
    "person": "PER", "organization": "ORG", "location": "LOC",
    "animal": "ANIM", "biological_entity": "BIO", "celestial_body": "CEL",
    "disease": "DIS", "event": "EVE", "food": "FOOD", "instrument": "INST",
    "media": "MEDIA", "mythological_entity": "MYTH", "plant": "PLANT",
    "time": "TIME", "vehicle": "VEHI",
}
UNSEEN_TAGS = tuple(t for t in SOURCE_LABEL if t not in TRAINING_TAGS)
# an unmapped source label kept one mention under min_support, so tier
# resolution has to drop it
UNDER_SUPPORT_LABEL = "MISC"
MIN_SUPPORT = 5

FILLER = (
    "il la lo un una di da in con su per tra fra e ma se poi qui era sono "
    "molto sempre dopo prima sopra sotto verso presso ogni tanto ancora "
    "perché più già però così città è stata aveva anche quando dove nella "
    "degli alle dalla sull' nell' ha hanno fu furono loro questo quella"
).split()

LEXICON = {
    "person": "Niccolò Machiavelli Giosuè Carducci Dante Alighieri Ugo Foscolo "
              "Cavour Garibaldi Verdi Lucrezia Borgia Mosè Bianchi Ferrari",
    "organization": "Università Olivetti Fiat Camera Senato Società Banca "
                    "d'Italia Accademia Crusca Ferrovie Stato Confindustria",
    "location": "Forlì Cantù Perù Roma Milano Torino Palermo Napoli Genova "
                "Etna Vesuvio Arno Sicilia Sardegna Città Castello",
    "animal": "lupo aquila cervo stambecco camoscio orso marsicano delfino",
    "biological_entity": "mitocondrio ribosoma cellula neurone enzima proteina",
    "celestial_body": "Marte Giove Saturno Sirio Andromeda Luna Venere Plutone",
    "disease": "malaria colera peste tubercolosi influenza morbillo tifo",
    "event": "Risorgimento Unità Resistenza Liberazione Palio Carnevale",
    "food": "caffè tiramisù ragù parmigiano risotto cannolo pecorino gnocchi",
    "instrument": "violino mandolino pianoforte organo fisarmonica liuto",
    "media": "Corriere Repubblica Stampa Rai Mediaset Gazzetta Espresso",
    "mythological_entity": "Giove Minerva Ercole Enea Romolo Remo Nettuno",
    "plant": "ulivo quercia faggio cipresso castagno girasole gelsomino",
    "time": "lunedì martedì venerdì gennaio febbraio maggio Novecento",
    "vehicle": "Vespa Lambretta Cinquecento Frecciarossa traghetto gondola",
    "misc": "Fittizio Generico Vario",
}
LEXICON = {tag: words.split() for tag, words in LEXICON.items()}

# a surface no lexicon can produce, even after case folding
FALSE_SURFACE = "Zebedeo Inesistente"

# reply kinds of the plan, with the parse status and counts each implies
EXACT, PROSE_WRAPPED, EXTRA_FALSE, TRUNCATED, NO_ARRAY, EMPTY = (
    "exact", "prose_wrapped", "extra_false", "truncated", "no_array", "empty"
)
REPLY_STATUS = {
    EXACT: "ok", PROSE_WRAPPED: "recovered", EXTRA_FALSE: "ok",
    TRUNCATED: "failed", NO_ARRAY: "failed", EMPTY: "ok",
}
# (weights for the with_dg variant, weights for the without_dg variant)
PLAN_WEIGHTS = {
    EXACT: (50, 30), PROSE_WRAPPED: (15, 20), EXTRA_FALSE: (12, 15),
    TRUNCATED: (8, 10), NO_ARRAY: (8, 15), EMPTY: (7, 10),
}


@dataclass
class Doc:
    doc_id: str
    tokens: list[str]
    labels: list[str]  # BIO with source labels
    mentions: list[tuple[str, int, int, str]] = field(default_factory=list)
    # (canonical tag, start, end, surface)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class Sizes:
    """Document counts per dataset; mention support follows from them."""

    train_docs: int
    wn_docs: int
    fic_docs: int
    mn_docs: int


def _doc_length(rng: random.Random) -> int:
    # sentences of tens of tokens with a long tail
    return max(4, min(160, int(rng.lognormvariate(3.0, 0.55))))


def _entity_tokens(rng: random.Random, tag: str) -> list[str]:
    words = LEXICON[tag]
    toks = [rng.choice(words) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
    return [
        unicodedata.normalize("NFD", t) if not t.isascii() and rng.random() < 0.3 else t
        for t in toks
    ]


def make_doc(rng: random.Random, doc_id: str, tags: list[tuple[str, str]]) -> Doc:
    """One document with one mention per (canonical tag, source label)."""
    spans = [(tag, label, _entity_tokens(rng, tag)) for tag, label in tags]
    entity_len = sum(len(t) for _, _, t in spans)
    filler = max(len(spans) + 1, _doc_length(rng) - entity_len)
    # split the filler into len(spans) + 1 gaps, every inner gap non-empty
    cuts = sorted(rng.sample(range(1, filler), len(spans))) if spans else []
    gaps = [b - a for a, b in zip([0] + cuts, cuts + [filler])]
    tokens: list[str] = []
    labels: list[str] = []
    mentions = []
    pos = 0
    for i, gap in enumerate(gaps):
        for _ in range(gap):
            tok = rng.choice(FILLER)
            tokens.append(tok)
            labels.append("O")
            pos += len(tok) + 1
        if i == len(spans):
            break
        tag, label, ents = spans[i]
        start = pos
        for j, tok in enumerate(ents):
            tokens.append(tok)
            labels.append(("B-" if j == 0 else "I-") + label)
            pos += len(tok) + 1
        end = pos - 1
        mentions.append((tag, start, end, " ".join(ents)))
    return Doc(doc_id, tokens, labels, mentions)


def make_dataset(rng, prefix: str, n_docs: int, support: dict[str, int],
                 labels: dict[str, str]) -> list[Doc]:
    """n_docs documents whose mention count per tag is exactly `support`."""
    slots = [tag for tag, n in support.items() for _ in range(n)]
    rng.shuffle(slots)
    per_doc = [[] for _ in range(n_docs)]
    for i, tag in enumerate(slots):
        # spread mentions so some documents hold none, some several
        per_doc[rng.randrange(n_docs) if i >= n_docs // 2 else i].append(tag)
    return [
        make_doc(rng, f"{prefix}-{i:05d}", [(t, labels[t]) for t in tags])
        for i, tags in enumerate(per_doc)
    ]


@dataclass
class Corpus:
    datasets: dict[str, list[Doc]]  # train, wn_test, fic_test, mn_test
    tier_tags: dict[str, tuple[str, ...]]  # tier name -> resolved tags
    tier_dataset: dict[str, str]  # tier name -> dataset key

    def cells(self):
        """(tier, doc, tag) for every cell of the benchmark grid."""
        for tier, tags in self.tier_tags.items():
            for doc in self.datasets[self.tier_dataset[tier]]:
                for tag in tags:
                    yield tier, doc, tag

    def n_cells(self) -> int:
        return sum(
            len(self.datasets[self.tier_dataset[t]]) * len(tags)
            for t, tags in self.tier_tags.items()
        )


PREFIX = {"train": "train", "wn_test": "wn", "fic_test": "fic", "mn_test": "mn"}
ALIASES = {"train": "nermud", "wn_test": "nermud", "fic_test": "nermud",
           "mn_test": "multinerd_it"}
DOMAIN = {"train": "wiki", "wn_test": "wiki", "fic_test": "fiction",
          "mn_test": "wikipedia"}


def make_corpus(seed: int, sizes: Sizes) -> Corpus:
    rng = random.Random(seed)
    seen_labels = {t: SOURCE_LABEL[t] for t in TRAINING_TAGS}

    def seen_support(n_docs):
        per_tag = max(MIN_SUPPORT, (n_docs * 3) // 4)
        return {t: per_tag + rng.randrange(per_tag // 4 + 1) for t in TRAINING_TAGS}

    mn_labels = dict(SOURCE_LABEL, misc=UNDER_SUPPORT_LABEL)
    mn_per_tag = max(MIN_SUPPORT, sizes.mn_docs // 4)
    mn_support = {t: mn_per_tag + rng.randrange(mn_per_tag // 4 + 1)
                  for t in SOURCE_LABEL}
    mn_support["misc"] = MIN_SUPPORT - 1
    datasets = {
        "train": make_dataset(rng, "train", sizes.train_docs,
                              seen_support(sizes.train_docs), seen_labels),
        "wn_test": make_dataset(rng, "wn", sizes.wn_docs,
                                seen_support(sizes.wn_docs), seen_labels),
        "fic_test": make_dataset(rng, "fic", sizes.fic_docs,
                                 seen_support(sizes.fic_docs), seen_labels),
        "mn_test": make_dataset(rng, "mn", sizes.mn_docs, mn_support, mn_labels),
    }
    return Corpus(
        datasets,
        {"in_domain": TRAINING_TAGS, "out_of_domain": TRAINING_TAGS,
         "unseen_ne": tuple(sorted(UNSEEN_TAGS))},
        {"in_domain": "wn_test", "out_of_domain": "fic_test", "unseen_ne": "mn_test"},
    )


def write_bio(docs: list[Doc], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            for tok, label in zip(doc.tokens, doc.labels):
                fh.write(f"{tok}\t{label}\n")
            fh.write("\n")


def benchmark_config() -> dict:
    return {
        "datasets": {key: f"{key}.jsonl" for key in PREFIX},
        "training": {"dataset": "train", "tags": list(TRAINING_TAGS)},
        "tiers": [
            {"name": "in_domain", "kind": "in_domain", "datasets": ["wn_test"]},
            {"name": "out_of_domain", "kind": "out_of_domain",
             "datasets": ["fic_test"]},
            {"name": "unseen_ne", "kind": "unseen_ne", "datasets": ["mn_test"]},
        ],
        "min_support": MIN_SUPPORT,
    }


# --------------------------------------------------------------------------
# reply plan


def gold_surfaces(doc: Doc, tag: str) -> list[str]:
    return [s for t, _, _, s in doc.mentions if t == tag]


def reply_plan(corpus: Corpus, seed: int, variant_index: int) -> dict:
    """(doc_id, tag) -> reply kind, drawn with the variant's weights."""
    rng = random.Random(seed * 7919 + variant_index)
    kinds = list(PLAN_WEIGHTS)
    weights = [PLAN_WEIGHTS[k][variant_index] for k in kinds]
    return {
        (doc.doc_id, tag): rng.choices(kinds, weights)[0]
        for _, doc, tag in corpus.cells()
    }


def reply_text(kind: str, surfaces: list[str], rng: random.Random) -> str:
    array = json.dumps(surfaces, ensure_ascii=False)
    if kind == EXACT:
        return array
    if kind == PROSE_WRAPPED:
        return f"Ecco le entità richieste:\n{array}\nSpero sia utile."
    if kind == EXTRA_FALSE:
        return json.dumps(surfaces + [FALSE_SURFACE], ensure_ascii=False)
    if kind == TRUNCATED:
        # a max_tokens cut always falls before the closing bracket
        return array[: rng.randrange(1, len(array) - 1) if len(array) > 2 else 1]
    if kind == NO_ARRAY:
        return "Non ho trovato entità di questo tipo nel testo."
    return "[]"


def plan_replies(corpus: Corpus, plan: dict, seed: int) -> dict:
    """(doc_id, tag) -> reply text; the same plan and seed give the same text."""
    rng = random.Random(seed * 104729 + 1)
    return {
        (doc.doc_id, tag): reply_text(plan[(doc.doc_id, tag)],
                                      gold_surfaces(doc, tag), rng)
        for _, doc, tag in corpus.cells()
    }


def cell_counts(kind: str, n_gold: int) -> tuple[int, int, int]:
    """(tp, fp, fn) that the scorer must give a cell with this reply kind."""
    if kind in (EXACT, PROSE_WRAPPED):
        return n_gold, 0, 0
    if kind == EXTRA_FALSE:
        return n_gold, 1, 0
    return 0, 0, n_gold


def expected_counts(corpus: Corpus, plan: dict | None) -> dict:
    """tier -> tag -> [tp, fp, fn]; plan None means every reply is exact."""
    out: dict[str, dict[str, list[int]]] = {
        tier: {tag: [0, 0, 0] for tag in tags} for tier, tags in corpus.tier_tags.items()
    }
    for tier, doc, tag in corpus.cells():
        kind = plan[(doc.doc_id, tag)] if plan is not None else EXACT
        c = cell_counts(kind, len(gold_surfaces(doc, tag)))
        acc = out[tier][tag]
        for i in range(3):
            acc[i] += c[i]
    return out


def expected_statuses(plan: dict) -> dict[str, int]:
    out = {"ok": 0, "recovered": 0, "failed": 0}
    for kind in plan.values():
        out[REPLY_STATUS[kind]] += 1
    return out


def f1(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0
