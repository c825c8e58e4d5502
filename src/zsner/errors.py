"""Exception hierarchy, each failure class carrying the CLI exit code, the
one reader and writer of whole-file JSON objects, the one reader of
JSON-lines files, the one check of the fields read from them and the one
writer of whole output files."""

import json
import os
import reprlib
import stat
from collections.abc import Iterable, Iterator
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


def read_jsonl(path, error) -> Iterator[tuple[int, dict]]:
    """(line number, object) of each non-blank line of a UTF-8 JSON-lines file,
    read as iterated; error, naming path:line, for a line that is not JSON or
    not an object, and naming the path for a file that is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    try:
                        data = json.loads(line)
                    except (ValueError, RecursionError) as e:
                        raise error(f"{path}:{line_no}: invalid JSON ({e})") from None
                    if type(data) is not dict:
                        raise error(f"{path}:{line_no}: must be a JSON object, "
                                    f"got {reprlib.repr(data)}")
                    yield line_no, data
        except UnicodeDecodeError as e:  # raised while reading, not by json.loads
            raise error(f"{path} is not UTF-8: {e}") from None


_KINDS = {str: "a string", int: "an integer", float: "a number", dict: "an object",
          list[str]: "a list of strings", list[dict]: "a list of objects"}


def check_field(data, kind, what: str, error=ConfigError, *, key=None, minimum=None):
    """data[key], or data itself without a key, if it is of kind and not below
    minimum; else error, naming what. Kinds: str, int, float (any number),
    dict (an object), list[str] and list[dict] (returned as a tuple). A bool
    is no number, and NaN is below every minimum."""
    if key is not None:
        if key not in data:
            raise error(f"{what} is missing")
        data = data[key]
    item = getattr(kind, "__args__", None)  # list[str] -> (str,)
    ok = (isinstance(data, list) and all(isinstance(v, item) for v in data) if item
          else isinstance(data, (int, float) if kind is float else kind))
    if not ok or isinstance(data, bool) or not (minimum is None or data >= minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{what} must be {_KINDS[kind]}{bound}, got {reprlib.repr(data)}")
    return tuple(data) if item else data


def write_json(data: dict, path) -> None:
    """Write data with sorted keys, a 2-space indent, non-ASCII kept and a final
    newline, through write_lines."""
    write_lines(path, [json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True)])


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line and a newline to a UTF-8 file, creating the parent
    directory; a lone surrogate is written as a backslash escape.

    The lines go to a hidden temporary file beside the target, which then
    takes the target's name, so a failed or killed write leaves the old file
    or none. A symlink is written through to its file and kept, and an
    existing file keeps its permission bits. A target that is not a regular
    file with one link (a FIFO, a device, a hard-linked file) is written in
    place. An OSError is a ConfigError naming the path, and no temporary
    file is left."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            old = os.stat(path)
        except FileNotFoundError:
            old = None
        if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
            with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
                fh.writelines(line + "\n" for line in lines)
            return
        target = Path(os.path.realpath(path))
        temp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            with open(temp, "x", encoding="utf-8", errors="backslashreplace") as fh:
                fh.writelines(line + "\n" for line in lines)
                if old is not None:
                    os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            # Unlink, then rename, rather than rename over the old file: ext4
            # (auto_da_alloc) makes that rename, or the close of a truncated
            # file, wait until the new data is on disk: 0.6-0.9 s against
            # 2-3 ms for a 13 MB file on a 2-vCPU VM's ext4 disk. No fsync,
            # for the same cost: a power loss may leave an empty or short file.
            if old is not None:
                target.unlink()
            temp.rename(target)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from None
