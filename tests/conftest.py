"""Shared synthetic-corpus builders and a scripted loopback HTTP endpoint.

Documents are built token-first with single-space joins so they round-trip
through the BIO encoder/decoder exactly; mention support per tag is exact,
which the tier-assembly tests rely on.
"""

import json
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from zsner import corpus, inference

FILLER = (
    "il la un una di da in con su per tra fra e ma se poi qui era sono "
    "molto sempre dopo prima sopra sotto verso presso ogni tanto ancora"
).split()

ENTITY = (
    "Roma Milano Torino Garibaldi Verdi Rossi Bianchi Ferrari Olivetti "
    "Etna Vesuvio Po Arno Dante Petrarca Boccaccio Leopardi Manzoni "
    "Palermo Napoli Genova Cavour Mazzini Colombo Marconi Volta Fermi"
).split()


def make_document(rng: random.Random, doc_id: str, mention_tags, domain=""):
    """One document containing exactly one mention per entry of mention_tags."""
    tokens: list[str] = []
    spans: list[tuple[int, int, str]] = []
    for _ in range(rng.randint(1, 3)):
        tokens.append(rng.choice(FILLER))
    for tag in mention_tags:
        start = len(tokens)
        length = rng.randint(1, 3)
        for _ in range(length):
            tokens.append(rng.choice(ENTITY))
        spans.append((start, length, tag))
        for _ in range(rng.randint(1, 3)):
            tokens.append(rng.choice(FILLER))
    text = " ".join(tokens)
    starts = [0]  # token i spans starts[i] .. starts[i + 1] - 1
    for tok in tokens:
        starts.append(starts[-1] + len(tok) + 1)
    mentions = [
        corpus.Mention(tag, text[starts[s] : starts[s + n] - 1], starts[s], starts[s + n] - 1)
        for s, n, tag in spans
    ]
    return corpus.Document(doc_id, text, domain, mentions)


def make_dataset(rng: random.Random, tag_counts: dict, prefix: str, domain="",
                 empty_docs: int = 0):
    """Documents whose pooled mention support per tag is exactly tag_counts."""
    slots = [tag for tag, n in tag_counts.items() for _ in range(n)]
    rng.shuffle(slots)
    docs = []
    i = 0
    while slots:
        take = min(rng.randint(1, 3), len(slots))
        docs.append(
            make_document(rng, f"{prefix}-{i:05d}", slots[:take], domain)
        )
        slots = slots[take:]
        i += 1
    for _ in range(empty_docs):
        docs.append(make_document(rng, f"{prefix}-{i:05d}", [], domain))
        i += 1
    return docs


TRAINING_TAGS = ("person", "organization", "location")

# the full unseen-candidate inventory: 15 tags, 3 of them in training
EXTRA_TAGS = (
    "animal", "biological_entity", "celestial_body", "disease", "event",
    "food", "instrument", "media", "mythological_entity", "plant", "time",
    "vehicle",
)


def build_benchmark_tree(tmp_path, rng: random.Random, *, min_support: int = 5):
    """Dataset files plus an assembled benchmark manifest under tmp_path.

    The unseen-tier dataset carries all 15 tags; biological_entity sits at
    support 4, just under the default threshold, so the resolved unseen
    tier has 11 tags.
    """
    train_docs = make_dataset(
        rng, {"person": 6, "organization": 6, "location": 6}, "train", "wikinews"
    )
    wn_docs = make_dataset(
        rng, {"person": 8, "organization": 7, "location": 9}, "wn", "wikinews",
        empty_docs=2,
    )
    fic_docs = make_dataset(
        rng, {"person": 7, "organization": 5, "location": 6}, "fic", "fiction",
        empty_docs=1,
    )
    mn_counts = {tag: rng.randint(5, 9) for tag in TRAINING_TAGS + EXTRA_TAGS}
    mn_counts["biological_entity"] = 4
    mn_docs = make_dataset(rng, mn_counts, "mn", "wikipedia", empty_docs=2)

    datasets = {
        "train": train_docs,
        "wn_test": wn_docs,
        "fic_test": fic_docs,
        "mn_test": mn_docs,
    }
    for key, docs in datasets.items():
        corpus.save_dataset(docs, tmp_path / f"{key}.jsonl")

    config = {
        "training": {"dataset": "train", "tags": list(TRAINING_TAGS)},
        "datasets": {key: f"{key}.jsonl" for key in datasets},
        "tiers": [
            {"name": "in_domain", "kind": "in_domain", "datasets": ["wn_test"]},
            {"name": "out_of_domain", "kind": "out_of_domain",
             "datasets": ["fic_test"]},
            {"name": "unseen_ne", "kind": "unseen_ne", "datasets": ["mn_test"]},
        ],
        "min_support": min_support,
    }
    bench = corpus.assemble_benchmark(datasets, config)
    corpus.save_benchmark(bench, tmp_path / "manifest.json")
    return bench, datasets, config


def load_benchmark_tree(tmp_path, rng: random.Random, **kwargs):
    """build_benchmark_tree, then its manifest read back: (benchmark, docs by id)."""
    build_benchmark_tree(tmp_path, rng, **kwargs)
    return corpus.load_benchmark(tmp_path / "manifest.json")


def add_twin(root, suffix: str = "") -> str:
    """Put at the end of mn_test.jsonl a document with the doc_id of wn_test's
    first one and its text followed by `suffix`; return the doc_id."""
    twin = corpus.load_dataset(root / "wn_test.jsonl")[0]
    docs = [d for d in corpus.load_dataset(root / "mn_test.jsonl") if d.doc_id != twin.doc_id]
    corpus.save_dataset(docs + [corpus.Document(twin.doc_id, twin.text + suffix)],
                        root / "mn_test.jsonl")
    return twin.doc_id


@pytest.fixture(autouse=True)
def no_runner_thread_outlives_its_test():
    """Every record stream, run out, closed or stopped, joins its workers."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.name.startswith(inference.WORKER_NAME)]
    assert not left, f"worker threads still alive after the test: {left}"


@pytest.fixture
def rng():
    return random.Random(20240811)


# --------------------------------------------------------------------------
# scripted loopback endpoint


def completion(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class _ScriptedHandler(BaseHTTPRequestHandler):
    # keep-alive, and whole responses sent in one write: without buffering
    # and TCP_NODELAY, Nagle plus delayed ACK adds ~40 ms per request
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.cond:
            self.server.connections += 1

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        srv = self.server
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with srv.cond:
            srv.requests.append(
                SimpleNamespace(line=self.requestline, headers=self.headers, body=body)
            )
            status, reply = (
                srv.script.pop(0) if srv.script else (200, completion(srv.respond(body)))
            )
        time.sleep(srv.delay)
        data = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if srv.close_after_reply:  # no "Connection: close" header is sent
            self.close_connection = True


class ScriptedEndpoint(ThreadingHTTPServer):
    """Chat endpoint on 127.0.0.1 that records every request.

    Replies come from `script`, a list of (status, dict or bytes) popped one
    per request, then a completion of `respond(request body)`, "[]" unless
    set. `delay` is slept before each reply; `close_after_reply` drops the
    connection after each one.
    """

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ScriptedHandler)
        self.cond = threading.Condition()
        self.script: list = []
        self.respond = lambda body: "[]"
        self.delay = 0.0
        self.close_after_reply = False
        self.requests: list[SimpleNamespace] = []
        self.connections = 0
        self.closed = 0

    @property
    def root(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def url(self) -> str:
        return f"{self.root}/v1/chat/completions"

    def wait_all_closed(self, timeout: float = 5.0) -> bool:
        with self.cond:
            return self.cond.wait_for(lambda: self.closed == self.connections, timeout)

    def shutdown_request(self, request):
        super().shutdown_request(request)  # the socket is closed from here on
        with self.cond:
            self.closed += 1
            self.cond.notify_all()

    def handle_error(self, request, client_address):
        pass  # a client that timed out leaves the handler a broken pipe


@pytest.fixture
def endpoint(monkeypatch):
    for var in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(var, raising=False)
        monkeypatch.delenv(var.upper(), raising=False)
    server = ScriptedEndpoint()
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=10)
    server.server_close()
    assert not thread.is_alive()


def closed_port() -> int:
    """A loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
