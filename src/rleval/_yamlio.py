"""Strict text and YAML reading, and canonical YAML writing.

Every input file is decoded by `read_text`, which names the file and the
offset of the first byte that is not UTF-8. Reading YAML rejects duplicate
keys (PyYAML silently keeps the last one) and surfaces position-annotated
syntax errors. Writing produces a deterministic two-space-indented
document: mappings keep the caller's key order, numbers render in shortest
round-trip form, and strings are double-quoted whenever a plain rendering
would not read back as the same string.
"""

import json
from pathlib import Path

import yaml

from ._fmt import fmt_shortest
from .errors import ConfigSyntaxError, DuplicateKeyError, ValidationError


def read_text(path, data=None) -> str:
    """The UTF-8 text of the file at `path`, or of `data`, its bytes, when
    the caller has read them already."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: byte 0x{data[exc.start]:02x} "
                              f"at offset {exc.start}") from None


class _StrictLoader(yaml.SafeLoader):
    pass


def _construct_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            mark = key_node.start_mark
            raise DuplicateKeyError(
                f"duplicate key {key!r}", line=mark.line + 1, column=mark.column + 1
            )
        seen.add(key)
    return yaml.SafeLoader.construct_mapping(loader, node, deep)


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_mapping
)


def load_strict(text: str):
    """Parse one YAML document; duplicate keys and syntax errors raise."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except DuplicateKeyError:
        raise
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ConfigSyntaxError(
            exc.problem or "invalid document",
            line=None if mark is None else mark.line + 1,
            column=None if mark is None else mark.column + 1,
        ) from exc
    except yaml.YAMLError as exc:
        raise ConfigSyntaxError(str(exc)) from exc


def _quote(value: str) -> str:
    """Double-quoted scalar. JSON escaping matches YAML's for the ASCII
    range; code points YAML 1.1 treats as breaks or specials (NEL, the
    C1 block, LS/PS, BOM) get explicit \\u escapes."""
    text = json.dumps(value, ensure_ascii=False)
    out = []
    for ch in text:
        point = ord(ch)
        if 0x7F <= point <= 0x9F or point in (0x2028, 0x2029, 0xFEFF):
            out.append(f"\\u{point:04X}")
        else:
            out.append(ch)
    return "".join(out)


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt_shortest(value)
    if isinstance(value, str):
        candidate = value
        try:
            if (
                candidate != ""
                and "\n" not in candidate
                and not candidate.strip() != candidate
                and yaml.safe_load(candidate) == candidate
            ):
                return candidate
        except yaml.YAMLError:
            pass
        return _quote(value)
    raise TypeError(f"cannot emit scalar of type {type(value).__name__}")


def _emit(value, indent: int, lines: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines[-1] += " {}"
            return
        for key, item in value.items():
            key_text = _scalar(str(key))
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key_text}:")
                _emit(item, indent + 1, lines)
            elif isinstance(item, dict):
                lines.append(f"{pad}{key_text}: {{}}")
            elif isinstance(item, list):
                lines.append(f"{pad}{key_text}: []")
            else:
                lines.append(f"{pad}{key_text}: {_scalar(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                sub = []
                _emit(item, indent + 1, sub)
                sub[0] = pad + "- " + sub[0].lstrip()
                lines.extend(sub)
            elif isinstance(item, dict):
                lines.append(f"{pad}- {{}}")
            elif isinstance(item, list):
                lines.append(f"{pad}- []")
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")


def dump_canonical(mapping: dict) -> str:
    """One canonical YAML document, UTF-8 text with a trailing newline."""
    lines = []
    _emit(mapping, 0, lines)
    return "\n".join(lines) + "\n"
