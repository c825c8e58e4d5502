"""Traced zsner CLI: wrap public functions, then run `zsner.cli.main`.

Usage: python perfbench/trace_entry.py SPANS_OUT.json <zsner arguments...>

Every name in WRAPPED is replaced by a wrapper that records a span (name,
start, end, parent, thread) plus one small value about the call (documents
loaded, cache hit, parse status, ...). Spans stay in memory and are
written to SPANS_OUT.json once, when the command ends. A name the program
no longer has is listed as missing rather than failing the command.

Parents: a span's parent is the innermost open span on its own thread; a
span opened on a worker thread with nothing open there takes the innermost
open span of the main thread (the runner's thread pool works for the
`inference.run` call that is open on the main thread).
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time

def _len_result(args, kwargs, result):
    return len(result)


def _len_first_arg(args, kwargs, result):
    return len(args[0])


def _is_hit(args, kwargs, result):
    return int(result is not None)


def _parse_status(args, kwargs, result):
    return result.status


def _no_info(args, kwargs, result):
    return None


# "module.attr" or "module.Class.method" under the zsner package, with what
# to record about each call; "cli.<command>" wraps a click command callback
WRAPPED = {
    "cli.ingest": _no_info,
    "cli.benchmark": _no_info,
    "cli.render": _no_info,
    "cli.run": _no_info,
    "cli.score": _no_info,
    "cli.report": _no_info,
    "corpus.parse_bio": _len_result,
    "corpus.save_dataset": _len_first_arg,
    "corpus.assemble_benchmark": _no_info,
    "corpus.load_benchmark": _no_info,
    "corpus.load_dataset": _len_result,
    "guidelines.load_store": _no_info,
    "guidelines.validate_store": _no_info,
    "resources.load_template": _no_info,
    "resources.load_adapter": _no_info,
    "resources.load_display_names": _no_info,
    "resources.load_alias_table": _no_info,
    "prompts.expand_benchmark_jobs": _len_result,
    "prompts.benchmark_grid_jobs": _len_result,
    "prompts.render": _no_info,
    "prompts.wrap": _no_info,
    "inference.run": _len_result,
    "inference.cache_key": _no_info,
    "inference.ResponseCache.get": _is_hit,
    "inference.ResponseCache.put": _no_info,
    "inference.HttpBackend.complete": _no_info,
    "inference.persist_run": _no_info,
    "inference.load_run": _no_info,
    "parsing.extract_list": _parse_status,
    "parsing.to_extraction": _no_info,
    "evaluation.build_gold": _no_info,
    "evaluation.tier_report": _no_info,
    "evaluation.score_pair": _no_info,
    "evaluation.delta_report": _no_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else -1
            )
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.monotonic()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident(), None, 1))
                raise
            end = time.monotonic()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               threading.get_ident(), info(args, kwargs, result), 0))
            return result

        return traced

    def install(self, wrapped: dict) -> list[str]:
        """Wrap every name it can find; return the names it could not."""
        missing = []
        for name, info in wrapped.items():
            module_name, *path = name.split(".")
            try:
                owner = importlib.import_module(f"zsner.{module_name}")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                target = getattr(owner, path[-1])
                if module_name == "cli":  # a click command: wrap its callback
                    target.callback = self.wrap(name, target.callback, info)
                else:
                    setattr(owner, path[-1], self.wrap(name, target, info))
            except (ImportError, AttributeError):
                missing.append(name)
        return missing


def main(argv: list[str]) -> None:
    out_path, zsner_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install(WRAPPED)
    from zsner import cli

    main_entered = time.monotonic()
    try:
        cli.main(zsner_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"main_entered": main_entered, "missing": missing,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
