"""Chat-completions inference with concurrency, retries, and caching.

The runner takes prompt jobs, sends the misses to a few worker threads,
and yields one completion record per job in job order. Successful
replies are cached on disk keyed by payload content plus a decoding
fingerprint, so reruns and ablation reruns never repeat a request.
"""

import hashlib
import json
import os
import re
import select
import shutil
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

from zsner.errors import AuthError, CacheError, InputFormatError, RunDirectoryError
from zsner.errors import check_field, read_json, read_jsonl, write_json

STATUS_OK = "ok"
STATUS_ERROR = "error"

# error kinds attached to failed records
KIND_NETWORK = "network"
KIND_TIMEOUT = "timeout"
KIND_RATE_LIMIT = "rate_limit"
KIND_SERVER = "server"
KIND_AUTH = "auth"
KIND_REQUEST = "request"
KIND_TOO_LONG = "too_long"
KIND_PROTOCOL = "protocol"

_TOO_LONG_MARKERS = (
    "context length",
    "maximum context",
    "context window",
    "too many tokens",
    "reduce the length",
)


class BackendError(Exception):
    """Raised by backends; transient errors are retried, fatal ones are not."""

    def __init__(self, message: str, kind: str, transient: bool):
        super().__init__(message)
        self.kind = kind
        self.transient = transient


# (field, type, minimum) of each BackendConfig field, checked on construction;
# a timeout under 1 ms could never see a reply
_CONFIG_CHECKS = (
    ("endpoint_url", str, None),
    ("model_name", str, None),
    ("auth_env", str, None),
    ("max_parallel", int, 1),
    ("requests_per_minute", int, 0),
    ("timeout", float, 0.001),
    ("max_retries", int, 0),
    ("temperature", float, 0),
    ("max_tokens", int, 1),
    ("retry_base_delay", float, 0),
)


class BackendConfig:
    __slots__ = tuple(name for name, _, _ in _CONFIG_CHECKS)

    def __init__(self, endpoint_url: str, model_name: str, auth_env: str = "",
                 max_parallel: int = 4, requests_per_minute: int | None = None,
                 timeout: float = 60.0, max_retries: int = 3, temperature: float = 0.0,
                 max_tokens: int = 512, retry_base_delay: float = 0.5):
        given = locals()  # the arguments by name
        for name, kind, minimum in _CONFIG_CHECKS:
            value = given[name]
            if value is not None or name != "requests_per_minute":  # null: no limit
                check_field(value, kind, name, minimum=minimum)
            setattr(self, name, value)


# (field, type) of each CompletionRecord field, in replies.jsonl's key order
_RECORD_FIELDS = (("job_id", str), ("raw_text", str), ("status", str), ("error_kind", str),
                  ("latency_ms", int), ("attempt_count", int), ("fingerprint", str),
                  ("timestamp", str))


class CompletionRecord:
    __slots__ = tuple(name for name, _ in _RECORD_FIELDS)

    def __init__(self, job_id: str, raw_text: str, status: str, error_kind: str = "",
                 latency_ms: int = 0, attempt_count: int = 1, fingerprint: str = "",
                 timestamp: str = ""):
        self.job_id, self.raw_text, self.status, self.error_kind = (
            job_id, raw_text, status, error_kind)
        self.latency_ms, self.attempt_count, self.fingerprint, self.timestamp = (
            latency_ms, attempt_count, fingerprint, timestamp)

    def __eq__(self, other) -> bool:
        return type(other) is CompletionRecord and self.to_record() == other.to_record()

    def to_json(self) -> str:  # ASCII escapes, as in the response log
        return json.dumps(self.to_record())

    def to_record(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}  # field order

    @classmethod
    def from_record(cls, rec: dict) -> "CompletionRecord":
        """The record of a replies.jsonl line; ValueError naming a field of
        the wrong type."""
        get = rec.get
        r = cls(rec["job_id"], get("raw_text", ""), get("status", STATUS_ERROR),
                get("error_kind", ""), get("latency_ms", 0), get("attempt_count", 1),
                get("fingerprint", ""), get("timestamp", ""))
        if not (type(r.job_id) is type(r.raw_text) is type(r.status) is type(r.error_kind)
                is type(r.fingerprint) is type(r.timestamp) is str
                and type(r.latency_ms) is type(r.attempt_count) is int):
            for name, kind in _RECORD_FIELDS:
                check_field(getattr(r, name), kind, repr(name), ValueError)
        return r


def decoding_fingerprint(model_name: str, params: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode("utf-8")
    ).hexdigest()[:8]
    return f"{model_name}:{digest}"


class CachedRecord(str):
    """A cache hit as its replies.jsonl line; a field read parses the line."""

    def __getattr__(self, name):
        return getattr(CompletionRecord.from_record(json.loads(self)), name)

    def to_json(self) -> str:
        return self


def payload_json(payload: dict) -> str:  # the text a cache key hashes
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def cache_key(key_json: str, fingerprint: str) -> str:
    blob = key_json + "\x1e" + fingerprint  # surrogatepass: a lone surrogate hashes too
    return hashlib.sha256(blob.encode("utf-8", "surrogatepass")).hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# --------------------------------------------------------------------------
# response cache


class ResponseCache:
    """Append-only log of successful completions, indexed in memory.

    One file, responses.jsonl, holds a line `<key>\t<record JSON>` per put.
    It is scanned once on open; the index maps each key to the offset of its
    latest line, and a record is read back and parsed only when its key is
    looked up, so memory grows with the number of keys, not with replies.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._offsets: dict[str, int] = {}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.directory / "responses.jsonl", "a+b")
            # hits are read through a handle of their own, so reads leave
            # the append position alone; the file only grows, so what this
            # handle buffers never goes stale
            self._reader = open(self._fh.name, "rb")
            end = 0
            line = b"\n"  # an empty log needs no newline
            for line in self._reader:
                # a torn line may end inside a multi-byte character
                key = line.partition(b"\t")[0].removesuffix(b"\n")
                if key:
                    self._offsets[key.decode("utf-8", "surrogateescape")] = end
                end += len(line)
            if not line.endswith(b"\n"):
                self._fh.write(b"\n")  # end the line torn by a killed run
                self._fh.flush()
                end += 1
            self._end = end  # every write appends, so this is the next line's offset
        except OSError as exc:
            raise CacheError(f"cache directory {self.directory} not writable: {exc}")

    def get(self, key: str) -> str | None:
        """The record JSON last put under key, or None; a torn line cut after "}" won't parse."""
        offset = self._offsets.get(key)
        if offset is None:
            return None
        self._reader.seek(offset)
        try:
            stored, _, text = self._reader.readline().decode("utf-8").partition("\t")
        except ValueError:
            return None  # torn mid-character
        return text[:-1] if stored == key and text.endswith("}\n") else None

    def put(self, key: str, record: dict) -> None:
        # ASCII escapes: even a lone surrogate encodes
        line = f"{key}\t{json.dumps(record)}\n".encode("utf-8", "surrogateescape")
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            self._offsets[key] = self._end
            self._end += len(line)

    def close(self) -> None:
        self._fh.close()
        self._reader.close()

    def __len__(self) -> int:
        return len(self._offsets)


# --------------------------------------------------------------------------
# rate limiter


class RateLimiter:
    """Sliding-window limiter: at most `per_minute` acquisitions per 60s."""

    def __init__(self, per_minute: int, clock=time.monotonic, sleep=None):
        if per_minute < 1:
            raise ValueError("per_minute must be >= 1")
        self.per_minute = per_minute
        self.clock = clock
        self.sleep = sleep  # waits out the window; None: wait on the stop flag
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self, stop: threading.Event | None = None) -> None:
        """Take a slot, waiting for one; once `stop` is set, return without one."""
        stop = stop or threading.Event()
        while not stop.is_set():
            with self._lock:
                now = self.clock()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.per_minute:
                    self._stamps.append(now)
                    return
                wait = 60.0 - (now - self._stamps[0])
            (self.sleep or stop.wait)(max(wait, 0.0))


# --------------------------------------------------------------------------
# backends


class HttpBackend:
    """OpenAI-compatible /chat/completions over stdlib http.client.

    Each worker thread keeps one keep-alive connection, opened on its first
    call; close() closes every connection the backend opened. A connection
    the server closed while idle is reopened before it carries a request,
    so it costs no retry. The http_proxy, https_proxy and no_proxy
    variables are read once, here; proxy URLs with credentials are refused.
    TLS verifies host names against the system trust store.
    """

    def __init__(self, config: BackendConfig):
        # imported here, not at module level: http.client pulls in ssl,
        # which no command without an HTTP backend needs
        import http.client
        import ssl
        import urllib.parse
        import urllib.request

        self.config = config
        api_key = ""
        if config.auth_env:
            api_key = os.environ.get(config.auth_env, "")
            if not api_key:
                raise AuthError(
                    f"environment variable {config.auth_env!r} is not set; "
                    f"export the API key before running"
                )
        self.params = {
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
        }
        self.fingerprint = decoding_fingerprint(config.model_name, self.params)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

        url = urllib.parse.urlsplit(config.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint_url {config.endpoint_url!r} is not an http(s) URL")
        port = url.port or (443 if url.scheme == "https" else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._address = (url.hostname, port)
        self._tunnel = None
        self._conn_kw = {"timeout": config.timeout}
        self._conn_cls = http.client.HTTPConnection
        if url.scheme == "https":
            self._conn_cls = http.client.HTTPSConnection
            self._conn_kw["context"] = ssl.create_default_context()

        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            purl = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if purl.username is not None or purl.password is not None:
                raise ValueError(
                    f"{url.scheme}_proxy carries credentials, which are not supported"
                )
            if purl.scheme != "http" or not purl.hostname:
                raise ValueError(f"{url.scheme}_proxy {proxy!r} is not an http:// URL")
            self._address = (purl.hostname, purl.port or 80)
            if url.scheme == "https":
                self._tunnel = (url.hostname, port)
            else:  # a plain proxy takes the absolute URL in the request line
                self._target = f"http://{url.netloc}{self._target}"

        self._http = http.client
        self._local = threading.local()
        self._conns = []
        self._conns_lock = threading.Lock()

    def _connection(self):
        """This thread's connection; http.client opens its socket on use."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._conn_cls(*self._address, **self._conn_kw)
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        elif conn.sock is not None and _readable(conn.sock):
            conn.close()  # idle and closed by the server: reconnect, not retry
        return conn

    def close(self) -> None:
        with self._conns_lock:
            for conn in self._conns:
                conn.close()

    def complete(self, job) -> str:
        body = dict(job.payload)
        body["model"] = self.config.model_name
        body.update(self.params)
        conn = self._connection()
        try:
            try:
                conn.request("POST", self._target, json.dumps(body).encode(),
                             self._headers)
                resp = conn.getresponse()
                status, raw = resp.status, resp.read()
            except BaseException:
                conn.close()  # a half-used connection is never reused
                raise
        except TimeoutError as exc:
            raise BackendError(f"timed out: {exc}", KIND_TIMEOUT, transient=True)
        except (OSError, self._http.HTTPException) as exc:
            raise BackendError(
                f"{type(exc).__name__}: {exc}", KIND_NETWORK, transient=True
            )

        if status == 429:
            raise BackendError("rate limited", KIND_RATE_LIMIT, transient=True)
        if status >= 500:
            raise BackendError(
                f"server error {status}", KIND_SERVER, transient=True
            )
        if status in (401, 403):
            raise BackendError(
                f"auth rejected ({status})", KIND_AUTH, transient=False
            )
        if status >= 400:
            text = raw.decode("utf-8", "replace")[:2000]
            lowered = text.lower()
            if any(marker in lowered for marker in _TOO_LONG_MARKERS):
                raise BackendError(text, KIND_TOO_LONG, transient=False)
            raise BackendError(
                f"request rejected ({status}): {text}",
                KIND_REQUEST,
                transient=False,
            )
        try:
            data = json.loads(raw)
            return data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise BackendError(
                f"malformed completion response: {exc}", KIND_PROTOCOL, transient=True
            )


def _readable(sock) -> bool:
    """Zero-timeout poll: an idle keep-alive socket that polls readable was
    closed by the server (or holds bytes no request asked for)."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


MOCK_KINDS = ("gold_oracle", "empty", "drop_k", "malformed")


class MockBackend:
    """Deterministic stand-in backends for tests and dry runs.

    gold_oracle replies with the exact gold surfaces for the job's cell,
    empty always replies [], drop_k omits the first k gold mentions, and
    malformed replies with prose that carries no JSON array. gold_surfaces
    is a (doc_id, tag_id) -> surfaces map, or a function that builds one;
    it is called on the first complete(), so a run of cache hits never
    builds it. Instrumented: .calls counts backend invocations,
    .max_in_flight tracks concurrency.
    """

    def __init__(
        self,
        kind: str,
        gold_surfaces=None,
        *,
        k: int = 1,
        delay: float = 0.0,
        fail_plan: dict[str, int] | None = None,
    ):
        if kind not in MOCK_KINDS:
            raise ValueError(f"unknown mock kind {kind!r}; expected {MOCK_KINDS}")
        if kind in ("gold_oracle", "drop_k") and gold_surfaces is None:
            raise ValueError(f"mock kind {kind!r} needs gold surfaces")
        self.kind = kind
        self.gold_surfaces = gold_surfaces or {}
        self.k = k
        self.delay = delay
        self.fail_plan = dict(fail_plan or {})
        self.calls = 0
        self.max_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        params = {"kind": kind, "k": k if kind == "drop_k" else None}
        self.fingerprint = decoding_fingerprint("mock", params)

    def complete(self, job) -> str:
        with self._lock:
            if callable(self.gold_surfaces):
                self.gold_surfaces = self.gold_surfaces()
            self.calls += 1
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
            remaining = self.fail_plan.get(job.job_id, 0)
            if remaining > 0:
                self.fail_plan[job.job_id] = remaining - 1
        try:
            if self.delay:
                time.sleep(self.delay)
            if remaining > 0:
                raise BackendError("planned transient failure", KIND_SERVER, True)
            if self.kind == "empty":
                return "[]"
            if self.kind == "malformed":
                return "Non sono presenti entità di questo tipo nel testo."
            surfaces = self.gold_surfaces.get((job.doc_id, job.tag_id), [])
            if self.kind == "drop_k":
                surfaces = surfaces[self.k :]
            return json.dumps(list(surfaces), ensure_ascii=False)
        finally:
            with self._lock:
                self._in_flight -= 1


def gold_surface_index(docs) -> dict[tuple[str, str], list[str]]:
    """(doc_id, tag_id) -> raw gold surfaces, for the oracle mocks."""
    index: dict[tuple[str, str], list[str]] = {}
    for doc in docs:
        for m in doc.mentions:
            index.setdefault((doc.doc_id, m.tag_id), []).append(m.surface)
    return index


# --------------------------------------------------------------------------
# runner


class RunStats:
    """The runner's counts of cached, fetched and failed jobs; vars() gives them in that order."""

    def __init__(self):
        self.cached, self.fetched, self.failed = 0, 0, 0


# How many jobs may wait behind the oldest unfinished miss before the runner
# stops reading: W = max(MAX_PENDING, 16 * max_parallel). When W wait it
# waits for the older half, one wait per W/2 jobs rather than a thread
# handoff per job, while the newer half keeps every worker busy. 16 jobs per
# worker ride out a stretch of slow replies, and 1024 rendered jobs hold a
# few MB whatever the size of the grid.
MAX_PENDING = 1024

JOURNAL = "replies.jsonl.partial"  # replies.jsonl while a run writes it

WORKER_NAME = "zsner-runner"  # the runner's worker threads are WORKER_NAME-<i>

# A record line as put writes it (to_record's keys, json.dumps's escapes, %s for
# the fingerprint): a hit on one is served with job_id and attempt_count swapped.
_STR = r'"[ !#-\[\]-~]*(?:\\(?:["\\bfnrt]|u[0-9a-f]{4})[ !#-\[\]-~]*)*"'
_INT = "(?:0|[1-9][0-9]{0,18})"  # a longer one is parsed, and json refuses one past its limit
_PUT_LINE = (rf'\{{"job_id": {_STR}(, "raw_text": {_STR}, "status": {_STR}, "error_kind": {_STR}'
             rf', "latency_ms": {_INT}, "attempt_count": ){_INT}(, "fingerprint": %s'
             rf', "timestamp": {_STR}\}})')


class RecordStream:
    """inference.run's records, made as they are iterated, in one pass. len()
    is the number of jobs; close() stops the run."""

    def __init__(self, jobs, records: Iterator[CompletionRecord]):
        self._jobs = jobs
        self._records = records

    def __iter__(self) -> Iterator[CompletionRecord]:
        return self._records

    def __len__(self) -> int:
        return len(self._jobs)

    def close(self) -> None:
        self._records.close()


def run(
    jobs,
    backend,
    cache: ResponseCache | None = None,
    *,
    max_parallel: int = 4,
    max_retries: int = 3,
    retry_base_delay: float = 0.5,
    limiter: RateLimiter | None = None,
    sleep=None,
    stats: RunStats | None = None,
) -> RecordStream:
    """Execute jobs, yielding one record per job in job order.

    Jobs are read as the runner reaches them. Cache hits are served on the
    calling thread, at no backend call and no limiter slot, and come back
    with attempt_count 0; each miss is queued at once for max_parallel
    worker threads, which the first miss starts. A worker only calls the
    backend: this thread builds, counts and caches each record as its reply
    arrives. No key is computed without a cache. Records wait behind the
    oldest unfinished miss; once W = max(MAX_PENDING, 16 * max_parallel)
    wait, no job is read until the older half is out. With no miss pending
    a hit is yielded at once. A transient failure of attempt n backs off
    base * 2^(n-1) (on `sleep` if given, else on the stop flag) up to
    max_retries extra attempts; a job that still fails yields an error
    record. A rejected credential (an `auth` error) stops the run: nothing
    more is read or sent, replies in flight are yielded and cached, and
    AuthError is raised. The stream's end (closed, interrupted or raising)
    stops the run too, and still caches replies in flight. Any other
    exception from the backend is raised when its job's turn comes.
    """
    if max_parallel < 1:
        raise ValueError("max_parallel must be >= 1")
    stats = stats if stats is not None else RunStats()
    fingerprint = getattr(backend, "fingerprint", "")
    stop = threading.Event()  # once set, no request is sent
    pause = sleep or stop.wait  # a stop wakes a backoff
    rejected: list[BackendError] = []  # the rejection AuthError names
    put_line = re.compile(_PUT_LINE % re.escape(encode_basestring_ascii(fingerprint)))

    def hit(text: str, job_id: str):
        """The record a cached line serves for job_id; None if it is torn."""
        if m := put_line.fullmatch(text):
            return CachedRecord(f'{{"job_id": {encode_basestring_ascii(job_id)}{m[1]}0{m[2]}')
        try:
            rec = CompletionRecord.from_record(json.loads(text))
        except (ValueError, KeyError, RecursionError):  # torn, or not a record
            return None
        rec.job_id, rec.attempt_count = job_id, 0
        return rec

    def fetch(job) -> tuple | None:
        """(raw, status, kind, latency_ms, attempts); None if stopped first or rejected."""
        attempts = 0
        while True:
            if limiter is not None and not stop.is_set():
                limiter.acquire(stop)
            if stop.is_set():  # checked again after the limiter's wait
                return None
            attempts += 1
            started = time.monotonic()
            try:
                raw, status, kind = backend.complete(job), STATUS_OK, ""
                break
            except BackendError as exc:
                if exc.kind == KIND_AUTH:
                    rejected.append(exc)
                    stop.set()
                    return None
                raw, status, kind = "", STATUS_ERROR, exc.kind
                if not exc.transient or attempts > max_retries:
                    break
            pause(retry_base_delay * 2 ** (attempts - 1))
        return raw, status, kind, int((time.monotonic() - started) * 1000), attempts

    def records() -> Iterator[CompletionRecord]:
        window = max(MAX_PENDING, 16 * max_parallel)
        waiting: deque = deque()  # records, and pending misses' numbers, in job order
        arrived: dict = {}  # miss number -> its record, None if never sent, or what it raised
        todo = done = None  # the workers' queues: misses out, results back
        workers: list[threading.Thread] = []  # started at the first miss
        misses = 0

        def work() -> None:
            """A worker: fetch each (n, job, key) until None; hand back the outcome."""
            while (miss := todo.get()) is not None:
                try:
                    done.put((miss, fetch(miss[1])))
                except BaseException as exc:  # the reading thread raises it in its job's turn
                    done.put((miss, exc))

        def take(block: bool) -> None:
            """Build, count and cache each result that has arrived (if block, wait for one)."""
            while block or not done.empty():
                (n, job, key), out = done.get()
                block = False
                if out is not None and not isinstance(out, BaseException):
                    out = CompletionRecord(job.job_id, *out, fingerprint, _utc_now())
                    if out.status == STATUS_OK:
                        stats.fetched += 1
                        if cache is not None:
                            cache.put(key, out.to_record())
                    else:
                        stats.failed += 1
                arrived[n] = out

        def drain(keep: int) -> Iterator[CompletionRecord]:
            """Yield from the front down to `keep` waiting, then every record
            up to the next pending miss; a miss never sent yields nothing."""
            while waiting and (len(waiting) > keep or type(waiting[0]) is not int):
                rec = waiting.popleft()
                if type(rec) is int:
                    while rec not in arrived:
                        take(True)
                    rec = arrived.pop(rec)
                    if rec is None:
                        continue
                    if isinstance(rec, BaseException):
                        raise rec
                yield rec

        try:
            for job in jobs:
                if workers and not done.empty():
                    take(False)  # replies are cached as they arrive, before the next read
                if stop.is_set():
                    break
                key = rec = None
                if cache is not None:
                    key = cache_key(getattr(job, "key_json", None) or payload_json(job.payload),
                                    fingerprint)
                    text = cache.get(key)
                    rec = hit(text, job.job_id) if text is not None else None
                if rec is None:
                    if not workers:
                        from queue import SimpleQueue  # not imported by a run of hits
                        todo, done = SimpleQueue(), SimpleQueue()
                        workers = [threading.Thread(target=work, name=f"{WORKER_NAME}-{i}",
                                                    daemon=True) for i in range(max_parallel)]
                        for worker in workers:
                            worker.start()
                    todo.put((misses, job, key))
                    waiting.append(misses)
                    misses += 1
                else:
                    stats.cached += 1
                    if not waiting:
                        yield rec
                        continue
                    waiting.append(rec)
                if len(waiting) >= window:
                    yield from drain(window // 2)
            yield from drain(0)
        finally:
            stop.set()  # calls in flight end after their current attempt; queued jobs send nothing
            for worker in workers:
                todo.put(None)
            for worker in workers:
                worker.join()
            if workers:
                take(False)  # a reply in flight at the stop is cached too
        if rejected:
            raise AuthError(
                f"endpoint rejected the credentials: {rejected[0]}; replies received "
                f"so far are kept, so a rerun does not repeat them"
            )

    return RecordStream(jobs, records())


# --------------------------------------------------------------------------
# run directory persistence


def prepare_run_dir(run_dir, overwrite: bool = False) -> Path:
    """Claim a run directory before spending backend calls.

    An existing populated directory is refused unless overwrite is set;
    overwriting clears previous outputs but keeps any cache/ subdirectory.
    """
    run_dir = Path(run_dir)
    if run_dir.exists():
        contents = [p for p in run_dir.iterdir() if p.name != "cache"]
        if contents and not overwrite:
            raise RunDirectoryError(f"run directory {run_dir} already has outputs; "
                                    f"pass overwrite to replace them")
        for p in contents:
            shutil.rmtree(p) if p.is_dir() else p.unlink()
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def persist_run(records, manifest: Callable[[], dict], run_dir) -> None:
    """Write replies.jsonl and manifest.json into run_dir, which the caller
    has claimed with prepare_run_dir.

    Records go to cache/JOURNAL as they are read; once all are written,
    manifest() goes to manifest.json and the journal becomes replies.jsonl.
    If the records raise, or the process is interrupted, the journal is
    deleted; a killed process leaves it for the next run to truncate.
    """
    run_dir = Path(run_dir)
    journal = run_dir / "cache" / JOURNAL
    journal.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(journal, "w", encoding="utf-8") as fh:
            fh.writelines(rec.to_json() + "\n" for rec in records)
        data = dict(manifest())
        data.setdefault("written_at", _utc_now())
        write_json(data, run_dir / "manifest.json")
        os.replace(journal, run_dir / "replies.jsonl")
    except BaseException:
        journal.unlink(missing_ok=True)
        raise


def load_run(run_dir) -> tuple[Iterator[CompletionRecord], dict]:
    """(records, manifest) of a run directory. The manifest is read here; the
    records are read one line at a time as they are iterated, in file order."""
    run_dir = Path(run_dir)
    replies = run_dir / "replies.jsonl"
    if not replies.is_file():
        raise RunDirectoryError(f"{run_dir} is not a run directory (no replies.jsonl)")
    manifest = read_json(run_dir / "manifest.json", "run manifest", RunDirectoryError)
    return _read_records(replies), manifest


def _read_records(path: Path) -> Iterator[CompletionRecord]:
    for line_no, rec in read_jsonl(path, InputFormatError):
        try:
            record = CompletionRecord.from_record(rec)
        except (ValueError, KeyError) as e:
            raise InputFormatError(f"{path}:{line_no}: bad record ({e!r})") from None
        yield record
