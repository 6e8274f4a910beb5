"""Streaming JSONL transcript I/O.

The canonical transcript format holds one campaign per line:

    {"campaign_id": "...", "posts": [{"post_id": "...", "author_id": "...",
                                      "paragraphs": ["..."]}]}

Dice rolls are recovered from inline notation on load rather than stored;
the annotated output format adds a ``rolls`` array per post. Streaming
keeps memory flat on large corpora.

Every JSONL input of the package, not only transcripts, is read through
``read_jsonl``: it decodes each line with a caller's function and reports
a bad line once, as ``line N: PATH: problem``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO, TypeVar

from .dice import extract_rolls
from .errors import FormatError
from .models import Campaign, Post


_TYPE_NAMES = {str: "a string", list: "a list", dict: "an object"}

T = TypeVar("T")


def _field(obj: dict[str, Any], key: str, kind: type, where: str) -> Any:
    """obj[key], which must be of type ``kind``; FormatError otherwise."""
    if key not in obj:
        raise FormatError(f"{where}missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise FormatError(
            f"{where}field {key!r} must be {_TYPE_NAMES[kind]},"
            f" not {type(value).__name__}"
        )
    return value


def campaign_from_record(record: dict[str, Any]) -> Campaign:
    """Build a Campaign from one decoded JSONL record.

    Ids are strings, ``posts`` is a list of objects and each post's
    ``paragraphs`` a list of strings; anything else raises FormatError.
    Posts are re-indexed 0..n-1 in file order and inline dice notation is
    materialized into rolls.
    """
    campaign_id = _field(record, "campaign_id", str, "")
    raw_posts = _field(record, "posts", list, f"campaign {campaign_id!r}: ")
    posts = []
    for index, raw in enumerate(raw_posts):
        where = f"post {index} of campaign {campaign_id!r}: "
        if not isinstance(raw, dict):
            raise FormatError(
                f"{where}post must be an object, not {type(raw).__name__}"
            )
        paragraphs = tuple(_field(raw, "paragraphs", list, where))
        if not all(isinstance(p, str) for p in paragraphs):
            raise FormatError(f"{where}field 'paragraphs' must be a list of strings")
        try:
            post = Post(
                post_id=_field(raw, "post_id", str, where),
                author_id=_field(raw, "author_id", str, where),
                index=index,
                paragraphs=paragraphs,
                rolls=tuple(extract_rolls(paragraphs)),
            )
        except ValueError as exc:
            raise FormatError(f"{where}{exc}") from exc
        posts.append(post)
    try:
        return Campaign(campaign_id=campaign_id, posts=tuple(posts))
    except ValueError as exc:
        raise FormatError(f"campaign {campaign_id!r}: {exc}") from exc


def read_jsonl(path: str | Path, decode: Callable[[dict[str, Any]], T]) -> Iterator[T]:
    """Yield ``decode(record)`` for each JSON object line of ``path``, in order.

    Blank lines are skipped. A line that is not valid JSON or not an
    object, or whose ``decode`` raises FormatError, ValueError, KeyError
    or TypeError, raises one FormatError reading ``line N: PATH: problem``.
    This is the one place that says where in a file a bad record is.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
                if not isinstance(record, dict):
                    raise FormatError("record is not a JSON object")
                value = decode(record)
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
    seen: set[str] = set()

    def decode(record: dict[str, Any]) -> Campaign:
        campaign = campaign_from_record(record)
        if campaign.campaign_id in seen:
            raise FormatError(f"duplicate campaign_id {campaign.campaign_id!r}")
        seen.add(campaign.campaign_id)
        return campaign

    return read_jsonl(path, decode)


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
