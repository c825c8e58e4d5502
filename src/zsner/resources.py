"""Built-in asset loading: templates, adapters, alias tables, meta prompts.

Every loader takes either a filesystem path or the name of a packaged
asset; a path that exists on disk wins.
"""

from importlib import resources
from pathlib import Path

from zsner.errors import ConfigError, read_json
from zsner.prompts import ChatAdapter, PromptTemplate


def _asset_root():
    return resources.files("zsner") / "assets"


def _read_asset(kind: str, name_or_path: str, suffix: str):
    """The file a path or a packaged asset name resolves to."""
    path = Path(name_or_path)
    if path.is_file():
        return path
    candidate = _asset_root() / kind / f"{name_or_path}{suffix}"
    if candidate.is_file():
        return candidate
    builtin = sorted(
        p.name.removesuffix(suffix)
        for p in (_asset_root() / kind).iterdir()
        if p.name.endswith(suffix)
    )
    raise ConfigError(
        f"no such {kind} asset {name_or_path!r}: not a file, and not a "
        f"built-in (available: {', '.join(builtin)})"
    )


def _read_object(kind: str, name_or_path: str, required=()) -> dict:
    path = _read_asset(kind, name_or_path, ".json")
    data = read_json(path, f"{kind} asset")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"{kind} asset {path} lacks {', '.join(missing)}")
    return data


def _body_text(data: dict, key: str, name_or_path: str) -> str:
    # JSON assets may store multi-line text as a list of lines
    value = data.get(key, "")
    if isinstance(value, list) and all(isinstance(line, str) for line in value):
        return "\n".join(value)
    if not isinstance(value, str):
        raise ConfigError(f"asset {name_or_path}: {key!r} must be a string or a list of strings")
    return value


def load_template(name_or_path: str) -> PromptTemplate:
    data = _read_object("templates", name_or_path, ("template_id", "body"))
    return PromptTemplate(
        template_id=data["template_id"],
        body=_body_text(data, "body", name_or_path),
        language=data.get("language", "it"),
    )


def load_adapter(name_or_path: str) -> ChatAdapter:
    data = _read_object("adapters", name_or_path, ("adapter_id", "kind"))
    return ChatAdapter(
        adapter_id=data["adapter_id"],
        kind=data["kind"],
        with_system=_body_text(data, "with_system", name_or_path),
        without_system=_body_text(data, "without_system", name_or_path),
    )


def _load_string_map(kind: str, name_or_path: str) -> dict[str, str]:
    data = _read_object(kind, name_or_path)
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in data.items()):
        raise ConfigError(f"{kind} asset {name_or_path!r} must map strings to strings")
    return data


def load_alias_table(name_or_path: str) -> dict[str, str]:
    """Raw corpus label -> canonical tag id."""
    return _load_string_map("aliases", name_or_path)


def load_display_names(name_or_path: str) -> dict[str, str]:
    """Canonical tag id -> natural-language name used in prompts."""
    return _load_string_map("display_names", name_or_path)


def load_meta_prompt(name_or_path: str) -> tuple[str, str]:
    """(meta_prompt_id, text) for guideline generation."""
    asset = _read_asset("meta_prompts", name_or_path, ".txt")
    try:
        text = asset.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"meta prompt {asset} is not UTF-8: {e}") from None
    path = Path(name_or_path)
    meta_id = path.stem if path.is_file() else name_or_path
    return meta_id, text


def load_canned_dg(name_or_path: str = "canned_dg_it") -> dict[str, dict]:
    """Display name -> canned definition/guidelines, for the mock generator."""
    return _read_object("canned", name_or_path)
