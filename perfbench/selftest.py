"""Smoke run of the benchmark: every workload, plain and traced.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Runs every workload once plain and
once traced on tiny inputs (about a minute), prints every metric by name,
value and unit, and exits non-zero unless the output checks pass, metric
names and units match BENCHMARK.json, the end-to-end metrics are never 0,
and the benchmark refuses to run without the zsner sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import trace_entry  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
BARE_DIR = ".perfbench_selftest"


def run_bench(cwd: Path, workload: str, trace: int):
    """One run on tiny inputs, at least the minimum number of repetitions."""
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), "--seconds", "1", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    metrics = result["metrics"]
    assert [m["name"] for m in declared] == list(metrics), (
        f"{what}: metrics {list(metrics)} differ from BENCHMARK.json")
    for m in declared:
        assert NAME_RE.fullmatch(m["name"]), f"bad metric name {m['name']!r}"
        assert metrics[m["name"]]["unit"] == m["unit"], f"{what}: unit of {m['name']}"
        assert isinstance(metrics[m["name"]]["value"], (int, float))


def check_self_time() -> None:
    span = (0, "parent", 0.0, 10.0, -1, 1, None, 0)
    kids = [(1, "a", 1.0, 3.0, 0, 1, None, 0), (2, "b", 2.0, 5.0, 0, 2, None, 0),
            (3, "c", 8.0, 12.0, 0, 1, None, 0)]
    assert layers.self_time(span, kids) == 4.0


def check_missing_names(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    missing = trace_entry.Tracer().install({
        "corpus.no_such_function": trace_entry._no_info,
        "no_such_module.f": trace_entry._no_info,
        "corpus.load_dataset": trace_entry._len_result,
    })
    assert missing == ["corpus.no_such_function", "no_such_module.f"], missing


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    check_self_time()
    check_missing_names(root)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(root, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            check_metrics(result, declared, f"{workload} trace={trace}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                assert not zero, f"{workload}: end-to-end metrics at 0: {zero}"
            for name, m in result["metrics"].items():
                print(f"{workload:<13} {name:<45} {m['value']:>14.6g} {m['unit']}")
            print(f"ok  {workload} trace={trace}")

    # without the zsner sources the benchmark must fail and print no result
    bare = root / BARE_DIR
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "offline_eval", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  refuses a directory without src/zsner")
    return 0


if __name__ == "__main__":
    sys.exit(main())
