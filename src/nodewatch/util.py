"""Small shared helpers: deterministic seeding, config files, JSON and CSV output."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import fields
from pathlib import Path
from typing import TypeVar

from .errors import ConfigError

T = TypeVar("T")


def is_int(value: object) -> bool:
    """An integer, but not a bool (JSON ``true`` loads as one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value: object) -> bool:
    """A real number, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from arbitrary string-able parts.

    Used to give every independent job (node, method, window) its own
    reproducible random stream from one master seed.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


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


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` (UTF-8, newlines as given) to ``path`` atomically.

    The text goes to a temp file in the same directory, which then replaces
    ``path`` in one ``os.replace``; a write that fails part-way leaves the
    previous file as it was. The parent directory is made as by ``make_dir``.
    """
    path = Path(path)
    make_dir(path.parent)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once replaced


def write_json(path: str | Path, obj: object) -> None:
    """Write JSON deterministically (sorted keys, fixed separators)."""
    write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_config(cls: type[T], path: str | Path) -> T:
    """Build the config dataclass ``cls`` from the JSON object in a file.

    A file that cannot be opened (missing, a directory), invalid JSON, a top
    level that is not an object, a key that is not a field of ``cls``, a
    TypeError from ``cls`` (a missing field, a value of the wrong type) and
    a ConfigError from its own checks are each a ConfigError naming the file.
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
