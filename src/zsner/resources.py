"""Built-in asset loading: templates, adapters, alias tables, meta prompts.

Every loader takes either a filesystem path or the name of a packaged
asset; a path that exists on disk wins.
"""

from importlib import resources
from pathlib import Path

from zsner.errors import ConfigError, check_field, read_json


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


def _read_object(kind: str, name_or_path: str) -> dict:
    return read_json(_read_asset(kind, name_or_path, ".json"), f"{kind} asset")


def _body_text(value, what: str) -> str:
    # JSON assets may store multi-line text as a list of lines
    if isinstance(value, list):
        return "\n".join(check_field(value, list[str], what))
    return check_field(value, str, what)


def load_template(name_or_path: str) -> "prompts.PromptTemplate":
    from zsner import prompts  # here: ingest and guidelines gen need no prompts
    data = _read_object("templates", name_or_path)
    where = f"template {name_or_path}:"
    return prompts.PromptTemplate(
        template_id=check_field(data, str, f"{where} 'template_id'", key="template_id"),
        body=_body_text(data.get("body"), f"{where} 'body'"),  # None if missing
        language=check_field(data.get("language", "it"), str, f"{where} 'language'"),
    )


def load_adapter(name_or_path: str) -> "prompts.ChatAdapter":
    from zsner import prompts
    data = _read_object("adapters", name_or_path)
    where = f"adapter {name_or_path}:"
    return prompts.ChatAdapter(
        adapter_id=check_field(data, str, f"{where} 'adapter_id'", key="adapter_id"),
        kind=check_field(data, str, f"{where} 'kind'", key="kind"),  # ChatAdapter checks its value
        with_system=_body_text(data.get("with_system", ""), f"{where} 'with_system'"),
        without_system=_body_text(data.get("without_system", ""), f"{where} 'without_system'"),
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
