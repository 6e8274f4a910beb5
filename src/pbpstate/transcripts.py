"""Streaming JSONL transcript I/O, and the one line reader of every input file.

The canonical transcript format holds one campaign per line:

    {"campaign_id": "...", "posts": [{"post_id": "...", "author_id": "...",
                                      "paragraphs": ["..."]}]}

Dice rolls are recovered from inline notation on load rather than stored;
only ``ingest`` writes a ``rolls`` array per post, and a post that has one
must hold exactly the recovered rolls. A post has no other key, and a
record none but ``TRANSCRIPT_KEYS``. An annotated record's posts are
transcript posts, so its rolls are recovered the same way.
Streaming keeps memory flat on large corpora.

A transcript record is decoded by ``campaign_from_record``. Every input
file of the package is read through ``read_lines``, the one line reader
and the one place that turns bad input into a data error, ``line N:
PATH: problem``: ``read_jsonl`` reads every JSONL input through it, and
``gazetteers.load_gazetteers`` the gazetteer files.
``CampaignJoin`` joins two files by campaign id, never by position: each
is read once, files in the same order hold one campaign at a time, and
files in any order still join.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Generic, Iterable, Iterator, TextIO, TypeVar

from .dice import extract_rolls
from .errors import FormatError
from .models import Campaign, DiceRoll, Post, _at, _each, _items, _keys, _object
from .models import _string, _typed

T = TypeVar("T")

# The keys of a transcript record, as ``ingest`` writes it too.
TRANSCRIPT_KEYS = _keys(Campaign)


def campaign_from_record(record: dict[str, Any]) -> Campaign:
    """Decode one transcript record into a Campaign.

    Ids are strings, ``posts`` is a list of objects and each post's
    ``paragraphs`` a list of strings; anything else, a post key other
    than the four of the format, or a ``rolls`` list that is not the
    rolls of the paragraphs' dice notation, raises ValueError naming the
    post and the field. Posts are re-indexed 0..n-1 in file order and
    inline dice notation is materialized into rolls. The record's own
    keys are checked by its reader, as an annotated record holds more.
    """
    campaign_id = _typed(record, "campaign_id", str)
    where = f"campaign {campaign_id!r}"
    posts = _each(
        enumerate(_at(where, _typed, record, "posts", list)),
        _post,
        lambda index: f"post {index} of {where}",
    )
    return _at(where, Campaign, campaign_id, posts)


def _post(indexed: tuple[int, Any]) -> Post:
    index, raw = indexed
    raw = _object(raw, "a post", _keys(Post))
    paragraphs = _items(raw, "paragraphs", _string)
    rolls = tuple(extract_rolls(paragraphs))
    if "rolls" in raw and _items(raw, "rolls", DiceRoll.from_dict) != rolls:
        raise ValueError("rolls: must be the rolls of the paragraphs' dice notation")
    return Post(
        post_id=_typed(raw, "post_id", str),
        author_id=_typed(raw, "author_id", str),
        index=index,
        paragraphs=paragraphs,
        rolls=rolls,
    )


def read_lines(path: str | Path, parse: Callable[[str], T]) -> Iterator[T]:
    """Yield ``parse(line)`` for each line of ``path`` that is not blank, in order.

    Lines end at ``\n``, ``\r`` and ``\r\n`` only, and each is decoded
    as UTF-8 on its own; a line of white space is skipped, but counted.
    A line that is not UTF-8, or whose ``parse`` raises ValueError or a
    FormatError that names no line, raises one FormatError reading ``line
    N: PATH: problem``. A FormatError that names a line already, of
    another file that ``parse`` reads, is raised as is. Any other
    exception is a fault of the program and propagates unchanged.
    """
    with open(path, "rb") as handle:
        lines = chain.from_iterable(map(bytes.splitlines, handle))
        for lineno, data in enumerate(lines, start=1):
            try:
                line = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                problem = f"not UTF-8 ({exc.reason})"
                raise FormatError(f"{path}: {problem}", line=lineno) from exc
            if not line.strip():
                continue
            try:
                value = parse(line)
            except (FormatError, ValueError) as exc:
                if isinstance(exc, FormatError) and exc.line is not None:
                    raise  # a line of another file, which ``parse`` read
                raise FormatError(f"{path}: {exc}", line=lineno) from exc
            del data, line  # a suspended read holds only its value
            yield value


def read_jsonl(
    path: str | Path,
    decode: Callable[[dict[str, Any]], T],
    campaign_id: Callable[[T], str] | None = None,
) -> Iterator[T]:
    """Yield ``decode(record)`` for each JSON object line of ``path``, in
    order, read by ``read_lines``.

    A line that is not valid JSON, is nested too deeply to parse or is
    not an object, and a ValueError of ``decode``, are bad lines. An
    integer literal too long for Python to convert is named by its path
    in the record, as ``turn_states[0]: actions[0]: roll: modifier: ...``.
    Given ``campaign_id``, which names a decoded record's campaign, a
    campaign seen on an earlier line is a bad line too.
    """
    seen: set[str] = set()

    def parse(line: str) -> T:
        value = decode(_json_object(line))
        if campaign_id is not None:
            key = campaign_id(value)
            if key in seen:
                raise ValueError(f"duplicate campaign_id {key!r}")
            seen.add(key)
        return value

    return read_lines(path, parse)


def _json_object(line: str) -> dict[str, Any]:
    """The JSON object on ``line``, or ValueError saying what it is not."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # only an integer literal too long to convert
        raise ValueError(_long_integer(line) or str(exc)) from exc
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    return record


class CampaignJoin(Generic[T]):
    """One file's decoded records, each taken once by its campaign id:
    ``take`` reads only as far as the campaign asked for, holding the
    records read past until they are taken; ``rest`` reads to the end,
    so that every line is checked, and returns the ids never taken."""

    def __init__(self, records: Iterable[T], campaign_id: Callable[[T], str]):
        self._records = iter(records)
        self._campaign_id = campaign_id
        self._ahead: dict[str, T] = {}
        self._taken: set[str] = set()

    def take(self, key: str, missing: str) -> T:
        """Campaign ``key``'s record; FormatError ``campaign 'key' <missing>``
        when the file holds none, ``duplicate campaign_id`` if taken before."""
        if key in self._taken:
            raise FormatError(f"duplicate campaign_id {key!r}")
        self._taken.add(key)
        if key in self._ahead:
            return self._ahead.pop(key)
        for record in self._records:
            if (found := self._campaign_id(record)) == key:
                return record
            self._ahead[found] = record
        raise FormatError(f"campaign {key!r} {missing}")

    def rest(self) -> list[str]:
        return [*self._ahead, *map(self._campaign_id, self._records)]


# The JSON tokens a path is read from: a string (a key when a colon
# follows), a number (an integer without fraction or exponent), a bracket
# and a comma. Other text between them is whitespace or a literal.
_JSON_TOKEN_RE = re.compile(
    r'("(?:[^"\\]|\\.)*")(\s*:)?|-?(\d+)(\.\d+)?([eE][-+]?\d+)?|[][{},]'
)


def _long_integer(line: str) -> str | None:
    """The first integer literal in the JSON line ``line`` with more digits
    than Python converts (``sys.get_int_max_str_digits``), named by its
    path, as ``posts[0]: rolls[0]: count``, or None. ``read_jsonl`` calls
    it only after ``json.loads`` met such a literal, so the line is valid
    JSON up to it; one scan of the tokens finds it, however deep it lies
    and whatever follows it."""
    # 0 where there is no limit, as before Python 3.11.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    path: list[str | int] = []  # per open bracket: its key, or item index
    for token in _JSON_TOKEN_RE.finditer(line):
        key, colon, digits, fraction, exponent = token.groups()
        if colon:
            path[-1] = json.loads(key)
        elif token.group() in ("[", "{"):
            path.append(0 if token.group() == "[" else "")
        elif token.group() in ("]", "}"):
            path.pop()
        elif token.group() == "," and isinstance(path[-1], int):
            path[-1] += 1
        elif digits and not fraction and not exponent and len(digits) > limit > 0:
            where = "".join(f"[{p}]" if isinstance(p, int) else f": {p}" for p in path)
            problem = f"integer of {len(digits)} digits, more than the {limit} allowed"
            return f"{where.removeprefix(': ')}: {problem}" if where else problem
    return None


def load_campaigns(path: str | Path) -> Iterator[Campaign]:
    """Stream campaigns from a transcript file in file order.

    A record key other than ``TRANSCRIPT_KEYS``, which an annotated or a
    gold record holds, and a campaign_id seen on an earlier line raise
    FormatError.
    """
    return read_jsonl(path, _transcript, lambda c: c.campaign_id)


def _transcript(record: dict[str, Any]) -> Campaign:
    record = _object(record, "a transcript record", TRANSCRIPT_KEYS)
    return campaign_from_record(record)


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
