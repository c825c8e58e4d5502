"""Exception hierarchy, each failure class carrying the CLI exit code, and
the one reader and writer of whole-file JSON objects."""

import json
from pathlib import Path


class ZsnerError(Exception):
    """Base for all toolkit errors."""

    exit_code = 1


class ConfigError(ZsnerError):
    """Bad or inconsistent configuration, pre-flight validation failures."""

    exit_code = 2


class AssemblyError(ConfigError):
    """Benchmark assembly produced an invalid benchmark (e.g. empty tier)."""


class RenderError(ConfigError):
    """Prompt rendering impossible for the requested variant/template."""


class RunDirectoryError(ConfigError):
    """Run directory already populated and overwrite was not requested."""


class CacheError(ConfigError):
    """Response cache directory cannot be created or written."""


class InputFormatError(ZsnerError):
    """Malformed input file (BIO corpus, dataset, store, reply archive)."""

    exit_code = 3


class BioParseError(InputFormatError):
    """Malformed BIO line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DatasetFormatError(InputFormatError):
    """Malformed dataset JSONL record."""


class StoreFormatError(InputFormatError):
    """Malformed guideline store file."""


class DGFormatError(InputFormatError):
    """Reply could not be split into definition + guidelines sections."""

    def __init__(self, message: str, raw_reply: str = ""):
        super().__init__(message)
        self.raw_reply = raw_reply


class EncodingAlignmentError(InputFormatError):
    """Mention does not align to token boundaries during BIO encoding."""


class CoverageError(ZsnerError):
    """Predictions do not cover the benchmark's (document, tag) grid."""

    exit_code = 4


class ComparisonError(CoverageError):
    """Two reports do not share the same benchmark/tag grid."""


class PairingError(ZsnerError):
    """score_pair given the gold and predicted Extraction of two different cells."""


class ExpansionError(ZsnerError):
    """Job expansion failed (a benchmark tag without a spec)."""


class AuthError(ZsnerError):
    """Backend auth token unresolvable before any request was made."""

    exit_code = 5


class GenerationError(ZsnerError):
    """Definition/guidelines generation failed after retries."""


def read_json(path, what: str, error=ConfigError) -> dict:
    """The JSON object in a UTF-8 file or packaged resource; error, naming what
    and the path, if it is missing, unreadable, not JSON or not an object."""
    path = Path(path) if isinstance(path, str) else path
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e.strerror}") from None
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise error(f"{what} {path} must be a JSON object")
    return data


def write_json(data: dict, path) -> None:
    """Write data with sorted keys, a 2-space indent, non-ASCII kept and a final
    newline, creating the parent directory; a lone surrogate becomes a JSON escape."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        fh.write(json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
