"""zsner benchmark: drives the CLI the way users do and checks its outputs.

    python3 perfbench/run.py --workload cold_http --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Every timed zsner command runs as
its own child process (`python -m zsner.cli` with PYTHONPATH=src), so
interpreter start and imports count. The children are started by
perfbench/spawn.py, a small process of its own, and their CPU time and
peak RSS come from os.wait4 there. Inputs come from perfbench/gen.py and
depend only on --seed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 repetitions alternate between plain and traced commands
(perfbench/trace_entry.py) and the line holds the per-layer metrics. The
line before it records the environment, the endpoint counters and every
per-repetition sample. A failed output check prints the result with
"correct": false and exits 1; a checkout without src/zsner exits 2
without a result. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import layers  # noqa: E402
from endpoint import LoopbackEndpoint, messages_key  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
COMMAND_TIMEOUT_S = 120
MIN_REPS = 3  # repetitions per plain run
MIN_TRACED = 2  # plain and traced repetitions each, per traced run
ENDPOINT_DELAY_S = 0.002
FAIL_FIRST_SHARE = 0.02  # cells whose first request gets a 503
RETRY_BASE_DELAY_S = 0.01
# warm reruns per cache fill: the fill costs about four reruns, so each
# warm_rerun cycle reruns three times to time more of what the workload is for
WARM_RERUNS = 3
# zsner score commands per timed group on the run workloads. One score of
# their small grids takes 0.25 to 0.4 s, half or more of it interpreter
# start and corpus load, so several give a steadier cells_per_s.
COLD_SCORES = 2
WARM_SCORES = 3

# The traffic shape of a real evaluation, scaled down: eval documents are
# 0.7 of the training set (about 21k against 30k in a full-size run),
# split over wn_test, fic_test and mn_test as below. Every workload keeps
# that shape, at a training size that fits several cycles into a run.
EVAL_PER_TRAIN = 0.7
EVAL_SPLIT = (0.40, 0.33, 0.27)


def shape(train_docs: int) -> gen.Sizes:
    wn, fic, mn = (round(train_docs * EVAL_PER_TRAIN * s) for s in EVAL_SPLIT)
    return gen.Sizes(train_docs=train_docs, wn_docs=wn, fic_docs=fic, mn_docs=mn)


TRAIN_DOCS = {"cold_http": 150, "warm_rerun": 1000, "offline_eval": 3000}
SMOKE_SIZES = gen.Sizes(train_docs=300, wn_docs=12, fic_docs=10, mn_docs=16)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "cells_per_s": "1/s",
    "cpu_ms_per_item": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Cmd:
    args: list
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    launch: float
    stdout: str
    items: int  # grid jobs or cells the command handled


@dataclass
class Rep:
    """One repetition: its set-up time and the timed commands it ran.

    The timed commands come in groups; each group gives one sample of every
    rate metric, so a repetition that runs its timed commands several times
    per set-up gives several samples.
    """

    traced: bool
    setup_s: float = 0.0
    elapsed_s: float = 0.0  # the whole repetition, set-up and checks included
    groups: list = field(default_factory=list)  # lists of timed commands

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for g in self.groups for c in g)


def child_env(root: Path) -> dict[str, str]:
    # no *_proxy variable may route loopback traffic elsewhere
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def usable_cpus() -> int:
    """The CPUs this process may run on, as nproc counts them."""
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = root / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, env: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (root / "src" / "zsner").rglob("*.py")
    )
    return {
        "nproc": usable_cpus(),
        "python": sys.version.split()[0],
        "requests": version("requests"),
        "urllib3": version("urllib3"),
        "src_zsner_lines": src_lines,
        "git_commit": git_commit(root),
        "child_env_vars": len(env),
    }


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, ensure_ascii=False, indent=1), encoding="utf-8")


class Spawner:
    """spawn.py, the small process that runs every zsner command.

    Start it before the corpora are generated: the peak RSS of this
    process at that point is the floor of spawn.py's own.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawn.py exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, sizes: gen.Sizes, spawner: Spawner):
        self.root = root
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.env = child_env(root)
        self.parallel = usable_cpus()
        self.work = root / WORK_DIR
        self.data = self.work / "data"
        self.logs = self.work / "logs"
        self.n_cmds = 0
        self.failed_cmds = 0
        self.traced_cmds: list[tuple] = []  # (phase, launch, span file)

    # ---------------------------------------------------------------- children

    def zsner(self, *args, traced: bool = False, phase: str = "timed",
              items: int = 0) -> Cmd:
        """Run one zsner command to completion; failures are checked later."""
        self.n_cmds += 1
        tag = f"{self.n_cmds:04d}-{args[0]}"
        spans_path = self.logs / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_entry.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "zsner.cli"]
        argv += [str(a) for a in args]
        out_path = self.logs / f"{tag}.out"
        res = self.spawner.run({
            "argv": argv, "cwd": str(self.root), "env": self.env,
            "out": str(out_path), "err": str(self.logs / f"{tag}.err"),
            "timeout": COMMAND_TIMEOUT_S,
        })
        launch = res["launch"]
        cmd = Cmd(
            args=list(args), wall_s=res["end"] - launch, cpu_s=res["cpu_s"],
            rss_mb=res["rss_mb"], returncode=res["returncode"], launch=launch,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            items=items,
        )
        if cmd.returncode != 0:
            self.failed_cmds += 1
            err_tail = (self.logs / f"{tag}.err").read_text(errors="replace")[-2000:]
            print(f"zsner {' '.join(cmd.args)} exited {cmd.returncode}:\n{err_tail}",
                  file=sys.stderr)
        elif traced:
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            self.traced_cmds.append((phase, launch, spans))
        return cmd

    def ok(self, cmd: Cmd) -> Cmd:
        check(cmd.returncode == 0, f"zsner {cmd.args[0]} exited {cmd.returncode}")
        return cmd

    # ------------------------------------------------------------------ inputs

    def prepare(self) -> gen.Corpus:
        shutil.rmtree(self.work, ignore_errors=True)
        self.data.mkdir(parents=True)
        self.logs.mkdir()
        corpus = gen.make_corpus(self.seed, self.sizes)
        for key, docs in corpus.datasets.items():
            gen.write_bio(docs, self.data / f"{key}.bio")
        write_json(self.data / "bench_config.json", gen.benchmark_config())
        self.corpus = corpus
        self.grid = corpus.n_cells()
        return corpus

    def ingest_and_assemble(self, traced: bool = False) -> list:
        cmds = []
        for key in gen.PREFIX:
            cmds.append(self.ok(self.zsner(
                "ingest", self.data / f"{key}.bio", "-o", self.data / f"{key}.jsonl",
                "--aliases", gen.ALIASES[key], "--domain", gen.DOMAIN[key],
                "--doc-id-prefix", gen.PREFIX[key], traced=traced, phase="setup")))
        cmds.append(self.ok(self.zsner(
            "benchmark", self.data / "bench_config.json",
            "-o", self.data / "manifest.json", traced=traced, phase="setup")))
        return cmds

    def generate_store(self) -> None:
        # about 15 calls per benchmark: input preparation, never timed
        self.ok(self.zsner("guidelines", "gen", "--store", self.data / "store.json",
                           "--benchmark", self.data / "manifest.json",
                           "--mock", "canned"))

    def render(self, variant: str, out: Path, traced: bool = False) -> Cmd:
        return self.zsner("render", "--benchmark", self.data / "manifest.json",
                          "--store", self.data / "store.json", "--variant", variant,
                          "-o", out, traced=traced, items=self.grid)

    def score(self, run_dir: Path, plan: dict | None, traced: bool) -> Cmd:
        """zsner score on one run directory, checked against the plan."""
        cmd = self.ok(self.zsner("score", run_dir, traced=traced, items=self.grid))
        self.check_score(run_dir, cmd, plan)
        return cmd

    def run_config(self, name: str, backend: dict) -> Path:
        path = self.data / name
        write_json(path, {
            "benchmark": "manifest.json", "store": "store.json",
            "variant": "with_dg", "template": "default_it", "adapter": "openai_chat",
            "backend": dict({"max_parallel": self.parallel, "max_retries": 3,
                             "retry_base_delay": RETRY_BASE_DELAY_S}, **backend),
        })
        return path

    # ------------------------------------------------------------------ checks

    def check_ingest(self) -> None:
        for key, docs in self.corpus.datasets.items():
            got = read_jsonl(self.data / f"{key}.jsonl")
            check(len(got) == len(docs), f"{key}: {len(got)} documents ingested, "
                                         f"{len(docs)} generated")
            for doc, rec in zip(docs, got):
                want = [[t, s, e, surf] for t, s, e, surf in doc.mentions]
                have = [[m["tag"], m["start"], m["end"], m["surface"]]
                        for m in rec["mentions"]]
                check(rec["doc_id"] == doc.doc_id and rec["text"] == doc.text
                      and have == want, f"{key}: {doc.doc_id} does not round-trip")

    def check_score(self, run_dir: Path, cmd: Cmd, plan: dict | None) -> None:
        """score.json and the parse tally equal the plan's closed form."""
        report = json.loads((run_dir / "score.json").read_text(encoding="utf-8"))
        expected = gen.expected_counts(self.corpus, plan)
        check(set(report["tiers"]) == set(expected), "score.json tiers differ")
        for tier, tags in expected.items():
            got = report["tiers"][tier]
            check(set(got["per_tag"]) == set(tags), f"{tier}: tag set differs")
            for tag, want in tags.items():
                s = got["per_tag"][tag]
                check([s["tp"], s["fp"], s["fn"]] == want,
                      f"{tier}/{tag}: tp/fp/fn {[s['tp'], s['fp'], s['fn']]} != {want}")
            pooled = [sum(c[i] for c in tags.values()) for i in range(3)]
            mic = got["micro"]
            check([mic["tp"], mic["fp"], mic["fn"]] == pooled, f"{tier}: micro differs")
        statuses = (gen.expected_statuses(plan) if plan is not None
                    else {"ok": self.grid, "recovered": 0, "failed": 0})
        tally = (f"replies: {statuses['ok']} ok, {statuses['recovered']} recovered, "
                 f"{statuses['failed']} failed")
        check(tally in cmd.stdout, f"parse tally differs: want {tally!r}")

    def check_delta(self, path: Path, plans: tuple[dict, dict]) -> None:
        delta = json.loads(path.read_text(encoding="utf-8"))
        with_c, without_c = (gen.expected_counts(self.corpus, p) for p in plans)
        for tier, tags in with_c.items():
            for tag in tags:
                cell = delta["tiers"][tier][tag]
                fw, fo = gen.f1(*with_c[tier][tag]), gen.f1(*without_c[tier][tag])
                check(abs(cell["f1_with"] - fw) < 1e-9
                      and abs(cell["f1_without"] - fo) < 1e-9
                      and abs(cell["delta"] - (fw - fo)) < 1e-9,
                      f"delta {tier}/{tag} differs from the closed form")
            pooled = [[sum(c[i] for c in side[tier].values()) for i in range(3)]
                      for side in (with_c, without_c)]
            micro = delta["micro"][tier]
            check(abs(micro["delta"] - (gen.f1(*pooled[0]) - gen.f1(*pooled[1])))
                  < 1e-9, f"micro delta {tier} differs from the closed form")

    # ------------------------------------------------------------------- loops

    def repeat(self, rep_fn) -> list[Rep]:
        """Repetitions for about --seconds, and at least MIN_REPS of them.

        Each repetition sets up and then runs the timed commands, so set-up
        samples spread over the run like the others. Another repetition
        starts only if it would end before --seconds plus half a repetition
        have passed, so a run overshoots by at most about half of one. With
        tracing on, repetitions alternate plain and traced, at least
        MIN_TRACED of each.
        """
        reps: list[Rep] = []
        start = time.monotonic()
        min_plain = MIN_TRACED if self.trace else MIN_REPS
        n_plain = n_traced = 0

        def more() -> bool:
            if n_plain < min_plain or (self.trace and n_traced < MIN_TRACED):
                return True
            typical = statistics.median(r.elapsed_s for r in reps)
            return time.monotonic() - start + typical / 2 < self.seconds

        while more():
            traced = self.trace and n_traced < n_plain
            began = time.monotonic()
            reps.append(rep_fn(Rep(traced=traced)))
            reps[-1].elapsed_s = time.monotonic() - began
            n_traced += traced
            n_plain += not traced
        return reps


# ---------------------------------------------------------------------------
# workloads


def cold_http(b: Bench) -> dict:
    corpus = b.prepare()
    b.ingest_and_assemble()
    b.generate_store()
    jobs_path = b.work / "jobs.jsonl"
    b.ok(b.render("with_dg", jobs_path))
    jobs = read_jsonl(jobs_path)
    plan = gen.reply_plan(corpus, b.seed, 0)
    replies = gen.plan_replies(corpus, plan, b.seed)
    keys = {messages_key(j["payload"]["messages"]): (j["doc_id"], j["tag_id"])
            for j in jobs}
    check(len(keys) == len(jobs) == b.grid, "rendered prompts are not one per cell")
    fail_first = set(random.Random(b.seed).sample(
        sorted(keys), max(1, int(FAIL_FIRST_SHARE * len(keys)))))
    server = LoopbackEndpoint({k: replies[cell] for k, cell in keys.items()},
                              fail_first, ENDPOINT_DELAY_S, b.parallel)
    config = b.run_config("run_cold.json", {
        "endpoint_url": server.url, "model_name": "loopback", "timeout": 30.0,
        "max_tokens": 256})
    endpoint = []

    def rep(r: Rep) -> Rep:
        run_dir = b.work / "runs" / f"cold{b.n_cmds}"
        server.counters.reset()
        run = b.ok(b.zsner("run", config, "--run-dir", run_dir, traced=r.traced,
                           items=b.grid))
        c = server.counters
        check(c.first_request_at is not None, "no request reached the endpoint")
        r.setup_s = c.first_request_at - run.launch
        check(c.unknown == 0, f"{c.unknown} requests for prompts outside the grid")
        check(c.status_503 == len(fail_first), "planned 503s not all served")
        check(c.requests == b.grid + len(fail_first),
              f"endpoint saw {c.requests} requests, want {b.grid + len(fail_first)}")
        check(c.connections <= b.parallel and c.max_in_flight <= b.parallel,
              f"{c.connections} connections, {c.max_in_flight} in flight "
              f"> max_parallel {b.parallel}")
        endpoint.append({
            "endpoint.requests": c.requests,
            "endpoint.requests_per_job": c.requests / b.grid,
            "endpoint.connections": c.connections,
            "endpoint.max_in_flight": c.max_in_flight,
            "endpoint.busy_share":
                c.requests * ENDPOINT_DELAY_S / (run.wall_s * b.parallel),
        })
        records = read_jsonl(run_dir / "replies.jsonl")
        check(len(records) == b.grid and all(x["status"] == "ok" for x in records),
              "cold run has error records")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        check(manifest["counts"] == {"jobs": b.grid, "cached": 0,
                                     "fetched": b.grid, "failed": 0},
              f"cold run counts {manifest['counts']}")
        scores = [b.score(run_dir, plan, r.traced) for _ in range(COLD_SCORES)]
        shutil.rmtree(run_dir)
        r.groups = [[run, *scores]]
        return r

    server.start()
    try:
        reps = b.repeat(rep)
    finally:
        server.stop()
    return finish(b, reps, "run", ("run",), endpoint)


def _without_run_fields(rec: dict) -> dict:
    # attempt_count is 0 on a cache hit by design, so it is compared apart
    return {k: v for k, v in rec.items()
            if k not in ("timestamp", "latency_ms", "attempt_count")}


def warm_rerun(b: Bench) -> dict:
    b.prepare()
    b.ingest_and_assemble()
    b.generate_store()
    config = b.run_config("run_warm.json", {"endpoint_url": "mock://",
                                            "model_name": "mock"})
    run_dir = b.work / "runs" / "warm"
    mock = ("--mock", "gold_oracle")

    def rep(r: Rep) -> Rep:
        shutil.rmtree(run_dir, ignore_errors=True)
        fill = b.ok(b.zsner("run", config, "--run-dir", run_dir, *mock,
                            traced=r.traced, phase="setup"))
        r.setup_s = fill.wall_s
        filled = read_jsonl(run_dir / "replies.jsonl")
        check(all(x["status"] == "ok" and x["attempt_count"] == 1 for x in filled),
              "cache fill has error records")
        for _ in range(WARM_RERUNS):
            rerun = b.ok(b.zsner("run", config, "--run-dir", run_dir, *mock,
                                 "--overwrite", traced=r.traced, items=b.grid))
            manifest = json.loads((run_dir / "manifest.json").read_text())
            check(manifest["counts"] == {"jobs": b.grid, "cached": b.grid,
                                         "fetched": 0, "failed": 0},
                  f"warm rerun counts {manifest['counts']}")
            records = read_jsonl(run_dir / "replies.jsonl")
            check(all(x["attempt_count"] == 0 for x in records), "rerun fetched a reply")
            check([_without_run_fields(x) for x in records]
                  == [_without_run_fields(x) for x in filled],
                  "rerun replies differ from the fill")
            r.groups.append([rerun, *(b.score(run_dir, None, r.traced)
                                      for _ in range(WARM_SCORES))])
        return r

    return finish(b, b.repeat(rep), "run", ("run",), [])


def offline_eval(b: Bench) -> dict:
    corpus = b.prepare()
    b.ingest_and_assemble()
    b.check_ingest()
    b.generate_store()
    benchmark_id = json.loads((b.data / "manifest.json").read_text())["benchmark_id"]
    plans = (gen.reply_plan(corpus, b.seed, 0), gen.reply_plan(corpus, b.seed, 1))
    variants = ("with_dg", "without_dg")
    runs = {v: b.work / "runs" / v for v in variants}
    job_lists = {}
    for i, (variant, plan) in enumerate(zip(variants, plans)):
        jobs_path = b.work / f"jobs_{variant}.jsonl"
        b.ok(b.render(variant, jobs_path))
        jobs = read_jsonl(jobs_path)
        check(len(jobs) == b.grid, f"{variant}: {len(jobs)} rendered jobs")
        job_lists[variant] = [(j["job_id"], j["doc_id"], j["tag_id"]) for j in jobs]
        replies = gen.plan_replies(corpus, plan, 2 * b.seed + i)
        runs[variant].mkdir(parents=True)
        with open(runs[variant] / "replies.jsonl", "w", encoding="utf-8") as fh:
            for j in jobs:
                fh.write(json.dumps({
                    "job_id": j["job_id"],
                    "raw_text": replies[(j["doc_id"], j["tag_id"])],
                    "status": "ok", "error_kind": "", "latency_ms": 0,
                    "attempt_count": 1, "fingerprint": "plan", "timestamp": "",
                }, ensure_ascii=False) + "\n")
        write_json(runs[variant] / "manifest.json", {
            "benchmark_id": benchmark_id,
            "benchmark_path": str(b.data / "manifest.json"),
            "variant": variant, "template_id": "default_it",
            "adapter_id": "openai_chat", "model_name": "plan", "mock": "",
        })

    def rep(r: Rep) -> Rep:
        # ingest writes the same dataset files again, so the run directories
        # and their benchmark id stay valid
        r.setup_s = sum(c.wall_s for c in b.ingest_and_assemble(traced=r.traced))
        renders = []
        for variant in variants:
            out = b.work / f"rerender_{variant}.jsonl"
            renders.append(b.ok(b.render(variant, out, traced=r.traced)))
            got = [(j["job_id"], j["doc_id"], j["tag_id"]) for j in read_jsonl(out)]
            check(got == job_lists[variant], f"{variant}: job grid changed")
        scores = []
        for variant, plan in zip(variants, plans):
            scores.append(b.ok(b.zsner("score", runs[variant], traced=r.traced,
                                       items=b.grid)))
            b.check_score(runs[variant], scores[-1], plan)
        delta_path = b.work / "delta.json"
        delta = b.ok(b.zsner("report", "--with-report", runs["with_dg"] / "score.json",
                             "--without-report", runs["without_dg"] / "score.json",
                             "-o", delta_path, traced=r.traced))
        b.check_delta(delta_path, plans)
        r.groups = [renders + scores + [delta]]
        return r

    return finish(b, b.repeat(rep), "render", ("score", "report"), [])


WORKLOADS = {"cold_http": cold_http, "warm_rerun": warm_rerun,
             "offline_eval": offline_eval}


# ---------------------------------------------------------------------------
# results


def finish(b: Bench, reps: list[Rep], job_cmd: str, main_cmds: tuple,
           endpoint: list[dict]) -> dict:
    """Medians over the plain repetitions, or the per-layer metrics.

    setup_s takes one sample per repetition, the other metrics one per
    group of timed commands. cpu_ms_per_item and peak_rss_mb cover
    `main_cmds`, the commands the workload exists to time: `zsner run` on
    the run workloads, `zsner score` and `zsner report` on offline_eval.
    """
    plain = [r for r in reps if not r.traced]
    groups = [g for r in plain for g in r.groups]
    med = statistics.median

    def of(g: list[Cmd], kinds) -> list[Cmd]:
        return [c for c in g if c.args[0] in kinds]

    def rate(g: list[Cmd], kinds) -> float:
        cmds = of(g, kinds)
        return sum(c.items for c in cmds) / sum(c.wall_s for c in cmds)

    samples = {
        "setup_s": [r.setup_s for r in plain],
        "jobs_per_s": [rate(g, (job_cmd,)) for g in groups],
        "cells_per_s": [rate(g, ("score", "report")) for g in groups],
        "cpu_ms_per_item": [1e3 * sum(c.cpu_s for c in of(g, main_cmds))
                            / sum(c.items for c in of(g, main_cmds)) for g in groups],
        "peak_rss_mb": [max(c.rss_mb for c in of(g, main_cmds)) for g in groups],
    }
    e2e = {name: med(values) for name, values in samples.items()}
    endpoint_med = {name: (med(e[name] for e in endpoint) if endpoint else 0.0)
                    for name in layers.ENDPOINT_METRICS}
    info = {
        "workload": b.workload, "seed": b.seed, "reps": len(plain),
        "groups": len(groups),
        "traced_reps": len(reps) - len(plain), "grid_cells": b.grid,
        "commands": b.n_cmds, "failed_commands": b.failed_cmds,
        "endpoint": endpoint_med, "env": environment(b.root, b.env),
    }
    if b.trace:
        traced = [r for r in reps if r.traced]
        overhead = med(r.wall_s for r in traced) / med(r.wall_s for r in plain) - 1
        metrics = layers.layer_metrics(b.traced_cmds, endpoint_med, overhead)
        info["missing_wrapped_names"] = layers.missing_names(b.traced_cmds)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    info["samples"] = {k: [round(v, 6) for v in vs] for k, vs in samples.items()}
    print(json.dumps(info, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for perfbench/selftest.py")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zsner" / "cli.py").is_file():
        print("perfbench: run from a zsner source checkout (no src/zsner/cli.py here)",
              file=sys.stderr)
        return 2
    sizes = SMOKE_SIZES if args.smoke else shape(TRAIN_DOCS[args.workload])
    spawner = Spawner()
    b = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace), sizes,
              spawner)
    try:
        metrics = WORKLOADS[args.workload](b)
        correct = True
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        metrics, correct = {}, False
    finally:
        spawner.close()
        shutil.rmtree(root / WORK_DIR, ignore_errors=True)
    attempted = max(1, b.n_cmds)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": b.failed_cmds, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
