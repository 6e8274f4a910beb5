"""Streaming JSONL transcript I/O.

The canonical transcript format holds one campaign per line:

    {"campaign_id": "...", "posts": [{"post_id": "...", "author_id": "...",
                                      "paragraphs": ["..."]}]}

Dice rolls are recovered from inline notation on load rather than stored;
the annotated output format adds a ``rolls`` array per post. Streaming
keeps memory flat on large corpora.

A transcript record is decoded by ``campaign_from_record``. Every JSONL
input of the package, not only transcripts, is read through
``read_jsonl``: it decodes each line with a caller's function, rejects a
repeated ``campaign_id`` when the caller names it, and reports a bad line
once, as ``line N: PATH: problem``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .dice import extract_rolls
from .errors import FormatError
from .models import Campaign, Post, _at, _object, _typed, _typed_list

T = TypeVar("T")


def campaign_from_record(record: dict[str, Any]) -> Campaign:
    """Decode one transcript record into a Campaign.

    Ids are strings, ``posts`` is a list of objects and each post's
    ``paragraphs`` a list of strings; anything else raises FormatError
    naming the post and the field. Posts are re-indexed 0..n-1 in file
    order and inline dice notation is materialized into rolls.
    """
    try:
        campaign_id = _typed(record, "campaign_id", str)
        where = f"campaign {campaign_id!r}"
        posts = tuple(
            _at(f"post {index} of {where}", _post, raw, index)
            for index, raw in enumerate(_at(where, _typed, record, "posts", list))
        )
        return _at(where, Campaign, campaign_id, posts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _post(raw: Any, index: int) -> Post:
    raw = _object(raw, "a post")
    paragraphs = _typed_list(raw, "paragraphs", str)
    return Post(
        post_id=_typed(raw, "post_id", str),
        author_id=_typed(raw, "author_id", str),
        index=index,
        paragraphs=paragraphs,
        rolls=tuple(extract_rolls(paragraphs)),
    )


def read_jsonl(
    path: str | Path,
    decode: Callable[[dict[str, Any]], T],
    campaign_id: Callable[[T], str] | None = None,
) -> Iterator[T]:
    """Yield ``decode(record)`` for each JSON object line of ``path``, in order.

    Blank lines are skipped. A line that is not valid JSON or not an
    object, or whose ``decode`` raises FormatError, ValueError, KeyError
    or TypeError, raises one FormatError reading ``line N: PATH: problem``.
    This is the one place that says where in a file a bad record is.
    Given ``campaign_id``, which names a decoded record's campaign, a
    campaign seen on an earlier line is such a problem.
    """
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
                if not isinstance(record, dict):
                    raise FormatError("record is not a JSON object")
                value = decode(record)
                if campaign_id is not None:
                    key = campaign_id(value)
                    if key in seen:
                        raise FormatError(f"duplicate campaign_id {key!r}")
                    seen.add(key)
            except (FormatError, ValueError, KeyError, TypeError) as exc:
                if isinstance(exc, json.JSONDecodeError):
                    problem = f"invalid JSON ({exc.msg})"
                elif isinstance(exc, KeyError):
                    problem = f"record has no {exc} field"
                else:
                    problem = str(exc)
                raise FormatError(f"{path}: {problem}", line=lineno) from exc
            yield value


def load_campaigns(path: str | Path) -> Iterator[Campaign]:
    """Stream campaigns from a transcript file in file order.

    A campaign_id seen on an earlier line raises FormatError.
    """
    return read_jsonl(path, campaign_from_record, lambda c: c.campaign_id)


def dump_json_line(obj: Any) -> str:
    """Canonical single-line JSON: compact separators, UTF-8 verbatim."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def write_lines(path: str | Path, lines: Iterable[str]) -> int:
    """Write each line and a newline to ``path``, all or nothing.

    The lines go to a new file beside the target, which then replaces it,
    so the target is left either as it was or complete; if ``lines``
    raises, the new file is deleted and the exception propagates. The new
    file gets ``open(path, "w")``'s mode, 0o666 less the umask. A symlink
    is followed, so the file it names is replaced, not the link. A target
    that exists but is not a regular file (a FIFO, a device) is written
    in place. Returns the number of lines written.
    """
    path = Path(path).resolve()
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as handle:
            return _write_to(handle, lines)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            count = _write_to(handle, lines)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    return count


def _write_to(handle: TextIO, lines: Iterable[str]) -> int:
    count = 0
    for line in lines:
        handle.write(line)
        handle.write("\n")
        count += 1
    return count


def write_campaigns(
    path: str | Path,
    campaigns: Iterable[Campaign],
    include_rolls: bool = False,
) -> int:
    """Write campaigns in canonical form and return how many; write(load(x))
    is byte-identical for files already canonical."""
    return write_lines(
        path,
        (dump_json_line(c.to_dict(include_rolls=include_rolls)) for c in campaigns),
    )
