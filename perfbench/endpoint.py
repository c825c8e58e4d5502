"""Loopback OpenAI-style chat endpoint that answers from the reply plan.

The server runs in the benchmark's own process on 127.0.0.1. It finds the
grid cell of each request by its messages (the payloads `zsner render -o`
exported), waits a fixed delay, and answers with the planned reply. A
seeded set of cells gets a 503 on its first attempt. Requests, distinct
client connections and requests in flight are counted here, outside the
program under test.
"""

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def messages_key(messages) -> str:
    blob = json.dumps(messages, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset()

    def reset(self):
        with self.lock:
            self.requests = 0
            self.status_503 = 0
            self.unknown = 0
            self.connections = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.first_request_at: float | None = None
            self.first_attempt_seen: set[str] = set()


class _Handler(BaseHTTPRequestHandler):
    # keep-alive, and whole responses sent in one write: without buffering
    # and TCP_NODELAY, Nagle plus delayed ACK adds ~40 ms per request
    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = 60

    def setup(self):
        super().setup()
        with self.server.counters.lock:
            self.server.counters.connections += 1

    def log_message(self, format, *args):
        pass

    def _send(self, code: int, body: dict) -> None:
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def do_POST(self):
        arrived = time.monotonic()
        c = self.server.counters
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        key = messages_key(body.get("messages"))
        with c.lock:
            c.requests += 1
            if c.first_request_at is None:
                c.first_request_at = arrived
            c.in_flight += 1
            c.max_in_flight = max(c.max_in_flight, c.in_flight)
            first_attempt = key not in c.first_attempt_seen
            c.first_attempt_seen.add(key)
        try:
            time.sleep(self.server.delay_s)
            reply = self.server.replies.get(key)
            if reply is None:
                with c.lock:
                    c.unknown += 1
                self._send(400, {"error": {"message": "unknown prompt"}})
            elif first_attempt and key in self.server.fail_first:
                with c.lock:
                    c.status_503 += 1
                self._send(503, {"error": {"message": "planned overload"}})
            else:
                self._send(200, {
                    "choices": [{"index": 0, "finish_reason": "stop",
                                 "message": {"role": "assistant", "content": reply}}],
                    "usage": {"prompt_tokens": 0, "completion_tokens": 0},
                })
        finally:
            with c.lock:
                c.in_flight -= 1


class LoopbackEndpoint(ThreadingHTTPServer):
    """At most `max_threads` handler threads; one per client connection.

    Handler threads are joined on close, so none outlives the benchmark.
    """

    daemon_threads = False

    def __init__(self, replies: dict[str, str], fail_first: set[str],
                 delay_s: float, max_threads: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.replies = replies
        self.fail_first = fail_first
        self.delay_s = delay_s
        self.counters = Counters()
        self._slots = threading.BoundedSemaphore(max_threads)
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def process_request(self, request, client_address):
        # blocks the accept loop until a handler thread is free
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever,
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self._thread.join(timeout=30)
        self.server_close()  # joins the handler threads
