"""Independent reference implementations used only by tests.

Deliberately written without importing the package under test, and with a
different algorithmic shape (explicit one-by-one matching instead of
Counter arithmetic), so agreement between the two is meaningful.
"""

import json
import random
import re
import string


def oracle_cell_counts(gold: list[str], pred: list[str]) -> tuple[int, int, int]:
    """(tp, fp, fn) for one cell by greedy one-to-one matching.

    Each predicted surface consumes at most one identical gold surface.
    Order cannot matter: matches are on exact string equality, so greedy
    matching is maximal for this bipartite structure.
    """
    remaining = list(gold)
    tp = 0
    fp = 0
    for p in pred:
        matched = False
        for i, g in enumerate(remaining):
            if g == p:
                del remaining[i]
                matched = True
                break
        if matched:
            tp += 1
        else:
            fp += 1
    fn = len(remaining)
    return tp, fp, fn


def oracle_set_cell_counts(gold: list[str], pred: list[str]) -> tuple[int, int, int]:
    gold_u = []
    for g in gold:
        if g not in gold_u:
            gold_u.append(g)
    pred_u = []
    for p in pred:
        if p not in pred_u:
            pred_u.append(p)
    return oracle_cell_counts(gold_u, pred_u)


def oracle_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    if tp + fp == 0:
        p = 0.0
    else:
        p = tp / (tp + fp)
    if tp + fn == 0:
        r = 0.0
    else:
        r = tp / (tp + fn)
    if p + r == 0:
        f1 = 0.0
    else:
        f1 = 2 * p * r / (p + r)
    return p, r, f1


def oracle_pooled(cells: list[tuple[list[str], list[str]]]) -> tuple[int, int, int]:
    """Summed counts over many (gold, pred) cells."""
    tp = fp = fn = 0
    for gold, pred in cells:
        a, b, c = oracle_cell_counts(gold, pred)
        tp += a
        fp += b
        fn += c
    return tp, fp, fn


_SURFACE_POOL = None


def random_cell(rng: random.Random, max_len: int = 8) -> tuple[list[str], list[str]]:
    """A random (gold, pred) surface pair with overlap and duplicates.

    Surfaces are drawn from a small pool so collisions (true positives and
    duplicate mentions) are common rather than vanishingly rare.
    """
    global _SURFACE_POOL
    if _SURFACE_POOL is None:
        _SURFACE_POOL = [
            "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 6)))
            for _ in range(40)
        ]
    pool = _SURFACE_POOL

    def draw():
        k = rng.randint(0, max_len)
        return [rng.choice(pool) for _ in range(k)]

    return draw(), draw()


def oracle_scan_balanced_array(text: str, pair: str = "[]"):
    """The first substring, by start, that parses as a JSON array (or, with
    pair "{}", a JSON object), else None.

    Rescans from every opening bracket (quadratic): for each start, walk
    forward honouring JSON strings and escapes to the bracket that balances
    it, and parse that span once.
    """
    opening, closing = pair
    start = text.find(opening)
    while start != -1:
        depth = 0
        in_string = escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == opening:
                depth += 1
            elif ch == closing:
                depth -= 1
                if depth == 0:
                    try:
                        return json.loads(text[start : i + 1])
                    except (ValueError, RecursionError):
                        break
        start = text.find(opening, start + 1)
    return None


def _oracle_coerce(items: list) -> tuple[list[str], int]:
    surfaces, dropped = [], 0
    for item in items:
        if isinstance(item, (str, bool, int, float)):
            surfaces.append(item if isinstance(item, str) else json.dumps(item))
        else:
            dropped += 1
    return surfaces, dropped


def oracle_extract_list(raw_text) -> tuple[str, list[str], int]:
    """(status, surfaces, dropped) as extract_list gave them before it skipped
    hopeless work: json.loads on every reply, then a scan of every non-empty
    one."""
    try:
        value = json.loads(raw_text)
    except (json.JSONDecodeError, TypeError, RecursionError):
        value = None
    if isinstance(value, list):
        return ("ok", *_oracle_coerce(value))
    embedded = oracle_scan_balanced_array(raw_text) if raw_text else None
    if embedded is not None:
        return ("recovered", *_oracle_coerce(embedded))
    return ("failed", [], 0)


def oracle_cells(tiers, doc_ids: dict) -> dict:
    """{(doc_id, tag): names of the tiers holding it}, in the order a cell is
    first met walking tiers, datasets, documents and tags: the grid as
    Benchmark.cells() built it when it held the whole grid in one dict."""
    grid: dict = {}
    for tier in tiers:
        alone = (tier.name,)
        for ds in tier.dataset_ids:
            for doc_id in doc_ids.get(ds, ()):
                for tag in tier.tag_ids:
                    held = grid.setdefault((doc_id, tag), alone)
                    if tier.name not in held:
                        grid[doc_id, tag] = held + alone
    return grid


_ORACLE_PLACEHOLDER_RE = re.compile(r"\{(text|display_name|definition|guidelines)\}")


def oracle_render(body: str, text: str, display_name: str, definition: str,
                  guidelines: str) -> str:
    """A variant's template body with every placeholder filled in one regex
    pass, as prompts.render did before it joined per-tag segments: text a
    placeholder brings in is never scanned again."""
    values = {"text": text, "display_name": display_name,
              "definition": definition, "guidelines": guidelines}
    return _ORACLE_PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], body)
