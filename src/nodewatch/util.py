"""Small shared helpers: deterministic seeding, config files, JSON and CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import MISSING, field, fields
from pathlib import Path
from types import UnionType
from typing import TypeVar, get_args, get_origin, get_type_hints

from .errors import ConfigError

T = TypeVar("T")

# What a value of each plain annotation must be, and the plural for a list's
# items. bool is an int in Python (JSON ``true`` loads as one), and
# ``json.load`` takes NaN and Infinity as floats: neither passes a number field.
_KINDS = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          str: ("a string", "strings"), dict: ("an object", "objects")}


def ranged(interval: str, default: object = MISSING, **kwargs):
    """A dataclass field whose number, or each number of whose list, lies in
    ``interval``, written as in mathematics: ``"(0, 1]"``, ``"[1, inf)"``."""
    return field(default=default, metadata={"range": interval}, **kwargs)


def _fits(value: object, kind: type, interval: str | None = None) -> bool:
    if kind is float:
        fits = _fits(value, int) or (isinstance(value, float) and math.isfinite(value))
    else:
        fits = isinstance(value, kind) and not isinstance(value, bool)
    if not fits or interval is None:
        return fits
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    return above and (value < high if interval[-1] == ")" else value <= high)


def field_rule(name: str, hint: object, interval: str | None = None):
    """The test a value of field ``name`` must pass, and what it must be,
    from its annotation ``hint``: ``int``, ``float``, ``str``, ``dict``,
    ``list[X]`` without repeats, ``dict[str, X]`` or ``X | None``, where X
    is one of the first four. ``interval`` bounds a number or each number of
    a list, and a ``list[str]`` holds names: ``nodes`` is a list of node
    names. Any other annotation is a TypeError, so no field goes unchecked."""
    origin, args = get_origin(hint), get_args(hint)
    within = f" in {interval}" if interval else ""
    if origin is UnionType and args[1:] == (type(None),):
        fits, what = field_rule(name, args[0], interval)
        return (lambda v: v is None or fits(v)), what
    if origin is list and args[0] in _KINDS:
        items = f"{name.removesuffix('s')} names" if args[0] is str else _KINDS[args[0]][1]
        return (
            lambda v: isinstance(v, list)
            and all(_fits(x, args[0], interval) for x in v)
            and len(set(v)) == len(v)
        ), f"a list of {items}{within}, without repeats"
    if origin is dict and args[0] is str and args[1] in _KINDS:
        what = f"an object of {_KINDS[args[1]][1]}"
        return (lambda v: isinstance(v, dict) and all(_fits(x, args[1]) for x in v.values())), what
    if hint in _KINDS:
        return (lambda v: _fits(v, hint, interval)), _KINDS[hint][0] + within
    raise TypeError(f"config field {name} has an annotation with no rule: {hint!r}")


def check_fields(config: object) -> None:
    """Check each field of the dataclass ``config`` against its annotation
    and its ``ranged`` interval, as :func:`field_rule` says; the first value
    that fails is a ConfigError naming the field."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        fits, what = field_rule(f.name, hints[f.name], f.metadata.get("range"))
        if not fits(value):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from arbitrary string-able parts.

    Used to give every independent job (node, method, window) its own
    reproducible random stream from one master seed.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def read_bytes(path: str | Path) -> bytes | None:
    """A file's bytes, or None when it cannot be read (it is missing, a
    directory or unreadable)."""
    try:
        return Path(path).read_bytes()
    except OSError:
        return None


def sha256(data: bytes | None) -> str | None:
    """The sha256 of ``data`` in hex; None for no data."""
    return None if data is None else hashlib.sha256(data).hexdigest()


def csv_line(cells: list) -> str:
    """One CSV row, quoted as ``csv.writer`` quotes it, with its ``\\r\\n`` end."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


def make_dir(path: Path) -> None:
    """Make an output directory and its parents, as every writer does.

    A file in the way (or a directory that cannot be written) is a one-line
    ConfigError naming the path, like a bad ``--out``.
    """
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {path} ({exc.strerror})") from None


def write_atomic(path: str | Path, text: str) -> bytes:
    """Write ``text`` (UTF-8, newlines as given) to ``path`` atomically;
    returns the bytes written, for callers that hash them.

    The text goes to a temp file in the same directory, which then replaces
    ``path`` in one ``os.replace``; a write that fails part-way leaves the
    previous file as it was. The parent directory is made as by ``make_dir``.
    An OSError names ``path``, not the temp file (which is gone by then).
    """
    path = Path(path)
    data = text.encode("utf-8")
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:  # a directory standing at ``path``, say
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)  # gone already once replaced
    return data


def write_json(path: str | Path, obj: object, default=None) -> bytes:
    """Write JSON deterministically (sorted keys, fixed separators);
    ``default`` turns what json cannot write into what it can. Returns the
    bytes written."""
    return write_atomic(path, json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n")


def read_json(path: str | Path, object_hook=None) -> dict:
    """Parse a JSON file; ``object_hook`` may replace each object as it is read."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=object_hook)


def read_config(cls: type[T], path: str | Path) -> T:
    """Build the config dataclass ``cls`` from the JSON object in a file.

    A file that cannot be opened (missing, a directory), invalid JSON, a top
    level that is not an object, a key that is not a field of ``cls``, a
    TypeError from ``cls`` (a missing field) and a ConfigError from its own
    checks are each a ConfigError naming the file.
    """
    try:
        raw = read_json(path)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read the config file ({exc.strerror})") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        return cls(**raw)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
