import json
import os
import re
import stat
import sys
import threading
import tracemalloc
from operator import itemgetter

import pytest

from pbpstate.errors import FormatError
from pbpstate.transcripts import (
    CampaignJoin,
    campaign_from_record,
    dump_json_line,
    load_campaigns,
    read_jsonl,
    write_campaigns,
    write_lines,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CAMPAIGN_LINE = json.dumps(
    {
        "campaign_id": "c1",
        "posts": [
            {"post_id": "a", "author_id": "dm", "paragraphs": ["Roll! (1d20+2)[15]"]},
            {"post_id": "b", "author_id": "p1", "paragraphs": ["I got a hit."]},
        ],
    },
    separators=(",", ":"),
    ensure_ascii=False,
)


def test_load_single_campaign(tmp_path):
    path = tmp_path / "c.jsonl"
    _write(path, [CAMPAIGN_LINE])
    campaigns = list(load_campaigns(path))
    assert len(campaigns) == 1
    campaign = campaigns[0]
    assert len(campaign.posts) == 2
    assert [p.index for p in campaign.posts] == [0, 1]
    assert campaign.posts[0].rolls[0].faces == 20


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert list(load_campaigns(path)) == []


def test_truncated_json_cites_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write(path, ['{"campaign_id": "c1", "posts": ['])
    with pytest.raises(FormatError, match="line 1"):
        list(load_campaigns(path))


def test_missing_field_cites_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write(path, [CAMPAIGN_LINE, json.dumps({"campaign_id": "c2"})])
    with pytest.raises(FormatError, match="line 2"):
        list(load_campaigns(path))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        list(load_campaigns(tmp_path / "nope.jsonl"))


def test_write_load_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    _write(first, [CAMPAIGN_LINE])
    write_campaigns(second, load_campaigns(first))
    assert second.read_bytes() == first.read_bytes()
    third = tmp_path / "third.jsonl"
    write_campaigns(third, load_campaigns(second))
    assert third.read_bytes() == second.read_bytes()


def test_annotated_output_adds_rolls(tmp_path):
    path = tmp_path / "c.jsonl"
    out = tmp_path / "out.jsonl"
    _write(path, [CAMPAIGN_LINE])
    write_campaigns(out, load_campaigns(path), include_rolls=True)
    record = json.loads(out.read_text().splitlines()[0])
    roll = record["posts"][0]["rolls"][0]
    assert roll == {
        "count": 1,
        "faces": 20,
        "modifier": 2,
        "result": 15,
        "paragraph_index": 0,
        "char_offset": 6,
        "consistent": True,
    }


def test_campaign_from_record_reindexes_posts():
    record = json.loads(CAMPAIGN_LINE)
    campaign = campaign_from_record(record)
    assert [p.index for p in campaign.posts] == [0, 1]


def test_dump_json_line_is_compact_utf8():
    assert dump_json_line({"a": "Zoë"}) == '{"a":"Zoë"}'


def _record(**post_fields):
    post = {"post_id": "a", "author_id": "dm", "paragraphs": ["Hello."]}
    post.update(post_fields)
    return {"campaign_id": "c1", "posts": [post]}


def test_string_paragraphs_rejected_not_split():
    record = _record(paragraphs="Roll initiative! (1d20+2)[15]")
    problem = "post 0 of campaign 'c1': paragraphs: must be a list, not str"
    with pytest.raises(ValueError, match=re.escape(problem)):
        campaign_from_record(record)


def test_non_string_paragraph_rejected():
    problem = "post 0 of campaign 'c1': paragraphs[1]: must be a string, not int"
    with pytest.raises(ValueError, match=re.escape(problem)):
        campaign_from_record(_record(paragraphs=["ok", 7]))


def test_integer_author_id_rejected():
    problem = "post 0 of campaign 'c1': author_id: must be a string, not int"
    with pytest.raises(ValueError, match=re.escape(problem)):
        campaign_from_record(_record(author_id=5))


ROLL = {"count": 1, "faces": 20, "modifier": 2, "result": 15,
        "paragraph_index": 0, "char_offset": 6, "consistent": True}


@pytest.mark.parametrize(
    "post_fields, problem",
    [
        ({"actions": []}, "actions: not a post field"),
        ({"index": 0}, "index: not a post field"),
        ({"rolls": [{**ROLL, "modifier": "x"}]},
         "rolls[0]: modifier: must be an integer, not str"),
        ({"rolls": ["1d20"]}, "rolls[0]: must be an object, not str"),
        ({"rolls": [{**ROLL, "result": 16}]},
         "rolls: must be the rolls of the paragraphs' dice notation"),
        ({"rolls": []}, "rolls: must be the rolls of the paragraphs' dice notation"),
        ({"rolls": [{**ROLL, "consistent": False}]},
         "rolls[0]: consistent: must be true, as the other fields give"),
        ({"rolls": [{**ROLL, "bogus": 1}]}, "rolls[0]: bogus: not a roll field"),
    ],
)
def test_extra_post_keys_and_mismatched_rolls_rejected(post_fields, problem):
    record = _record(paragraphs=["Roll! (1d20+2)[15]"], **post_fields)
    problem = f"post 0 of campaign 'c1': {problem}"
    with pytest.raises(ValueError, match=re.escape(problem)):
        campaign_from_record(record)


def test_ingested_rolls_load_and_round_trip(tmp_path):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    _write(first, [CAMPAIGN_LINE])
    write_campaigns(second, load_campaigns(first), include_rolls=True)
    assert json.loads(second.read_text())["posts"][0]["rolls"] == [ROLL]
    third = tmp_path / "third.jsonl"
    write_campaigns(third, load_campaigns(second), include_rolls=True)
    assert third.read_bytes() == second.read_bytes()
    assert list(load_campaigns(second)) == list(load_campaigns(first))


@pytest.mark.parametrize("field", ["campaign_id", "posts"])
def test_wrong_campaign_field_type_named(field):
    record = _record()
    record[field] = {"a": 1}
    with pytest.raises(ValueError, match=f"{field}: must be a") as excinfo:
        campaign_from_record(record)
    assert "missing" not in str(excinfo.value)


def test_non_object_record_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    _write(path, [CAMPAIGN_LINE, '["c1"]'])
    with pytest.raises(
        FormatError, match=re.escape(f"line 2: {path}: record is not a JSON object")
    ):
        list(load_campaigns(path))


def test_duplicate_campaign_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    _write(path, [CAMPAIGN_LINE, CAMPAIGN_LINE])
    with pytest.raises(
        FormatError, match=re.escape(f"line 2: {path}: duplicate campaign_id 'c1'")
    ):
        list(load_campaigns(path))


def _decode_or_raise(record):
    if "error" in record:
        raise {"key": KeyError, "type": TypeError, "value": ValueError}[
            record["error"]
        ]("label")
    if "n" not in record:
        raise ValueError("record has no 'n' field")
    return record["n"]


@pytest.mark.parametrize(
    "bad_line, problem",
    [
        ('{"n": ', "invalid JSON (Expecting value)"),
        ("[1, 2]", "record is not a JSON object"),
        ("7", "record is not a JSON object"),
        ('{"error": "value"}', "label"),
        ('{"m": 1}', "record has no 'n' field"),
    ],
)
def test_read_jsonl_names_the_line_and_the_file(tmp_path, bad_line, problem):
    path = tmp_path / "in.jsonl"
    # Blank lines are skipped but still counted.
    _write(path, ['{"n": 1}', "", "   ", bad_line, '{"n": 2}'])
    values = []
    with pytest.raises(FormatError) as excinfo:
        for value in read_jsonl(path, _decode_or_raise):
            values.append(value)
    assert str(excinfo.value) == f"line 4: {path}: {problem}"
    assert excinfo.value.line == 4
    assert values == [1]


@pytest.mark.parametrize("error", ["key", "type"])
def test_read_jsonl_lets_a_decoder_fault_propagate(tmp_path, error):
    # A KeyError or a TypeError in a decoder is a fault of the program,
    # never blamed on the line being read.
    path = tmp_path / "in.jsonl"
    _write(path, ['{"n": 1}', json.dumps({"error": error})])
    fault = {"key": KeyError, "type": TypeError}[error]
    with pytest.raises(fault) as raised:
        list(read_jsonl(path, _decode_or_raise))
    assert type(raised.value) is fault


def test_read_jsonl_ends_a_line_where_text_mode_does(tmp_path):
    # A lone \r ends a line, as \r\n and \n do, and a line of Unicode
    # white space is blank.
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"n": 1}\r{"n": 2}\r\n\xc2\xa0\n{"m": 1}\n')
    values = []
    with pytest.raises(FormatError, match="^line 4: .*: record has no 'n' field$"):
        for value in read_jsonl(path, _decode_or_raise):
            values.append(value)
    assert values == [1, 2]


def test_a_line_nested_too_deeply_is_a_bad_line(tmp_path):
    path = tmp_path / "deep.jsonl"
    _write(path, ['{"n": 1}', "[" * 100_000 + "]" * 100_000])
    with pytest.raises(FormatError) as raised:
        list(read_jsonl(path, _decode_or_raise))
    assert str(raised.value) == f"line 2: {path}: JSON nested too deeply to read"


def test_a_long_integer_nested_deep_is_a_bad_line(tmp_path):
    # Up to the depth where json.loads gives up, the integer is named by
    # its path, however deep; past it the line is too deep to read. No
    # depth reads Python's own advice.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    path = tmp_path / "deep.jsonl"
    too_deep = "JSON nested too deeply to read"
    depths = [*range(0, 900, 100), *range(900, 1100)]
    named = []
    for depth in depths:
        nested = "[" * depth + "1" * (limit + 1) + "]" * depth
        _write(path, [f'{{"a": {nested}}}'])
        with pytest.raises(FormatError) as raised:
            list(read_jsonl(path, _decode_or_raise))
        problem = str(raised.value).removeprefix(f"line 1: {path}: ")
        too_long = f"integer of {limit + 1} digits, more than the {limit} allowed"
        assert problem in (f"a{'[0]' * depth}: {too_long}", too_deep), (depth, problem)
        if problem != too_deep:
            named.append(depth)
    assert max(named) >= 800
    assert named == [depth for depth in depths if depth <= max(named)]


@pytest.mark.parametrize(
    "record, where",
    [
        ('{"a": BIG, "b": }', "a: "),
        ('[BIG]', "[0]: "),
        ('BIG', ""),
        ('{"x": "1, BIG", "f": [0.BIG, 1eBIG, -BIG.5], "n": [{}, -BIG]}', "n[1]: "),
        ('{"k\\"": {"": [1, 2, BIG]}}', 'k": [2]: '),
    ],
    ids=["bad-after", "top-level-list", "bare", "floats-and-strings", "escaped-keys"],
)
def test_a_long_integer_is_named_whatever_surrounds_it(tmp_path, record, where):
    # The first integer literal past the limit is named by its path even
    # when the line goes bad after it, and no float or string holds one.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    path = tmp_path / "in.jsonl"
    _write(path, [record.replace("BIG", "1" * (limit + 1))])
    with pytest.raises(FormatError) as raised:
        list(read_jsonl(path, _decode_or_raise))
    assert str(raised.value) == (
        f"line 1: {path}: {where}integer of {limit + 1} digits,"
        f" more than the {limit} allowed"
    )


def test_read_jsonl_yields_each_decoded_record_in_order(tmp_path):
    path = tmp_path / "in.jsonl"
    _write(path, ['{"n": 1}', "", '{"n": 2}'])
    assert list(read_jsonl(path, _decode_or_raise)) == [1, 2]


def test_read_jsonl_passes_a_line_error_of_another_file_through(tmp_path):
    # A decoder that reads a second file: the second file's error names
    # its own line and path, once.
    inner, outer = tmp_path / "inner.jsonl", tmp_path / "outer.jsonl"
    _write(inner, ['{"n": 1}', "{not json"])
    _write(outer, ['{"n": 1}', '{"n": 2}'])
    lines = read_jsonl(inner, _decode_or_raise)
    with pytest.raises(FormatError) as raised:
        list(read_jsonl(outer, lambda record: next(lines)))
    assert str(raised.value) == (
        f"line 2: {inner}: invalid JSON (Expecting property name enclosed in"
        " double quotes)"
    )


def test_a_suspended_read_holds_no_more_than_its_line(tmp_path):
    # While the caller reads another file, a suspended read holds its
    # decoded value and the line's bytes, not the line's text and record.
    path = tmp_path / "big.jsonl"
    line = json.dumps({"n": 1, "pad": ["x" * 100] * 2000})
    _write(path, [line])
    tracemalloc.start()
    try:
        values = read_jsonl(path, _decode_or_raise)
        assert next(values) == 1
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * len(line)


def _join(ids):
    """A CampaignJoin over ``(campaign id, position)`` records, and the
    list of the ids it has read so far."""
    read = []

    def records():
        for position, key in enumerate(ids):
            read.append(key)
            yield key, position

    return CampaignJoin(records(), itemgetter(0)), read


def test_campaign_join_in_the_same_order_reads_one_campaign_at_a_time():
    join, read = _join(["a", "b", "c"])
    for position, key in enumerate("abc"):
        assert join.take(key, "is missing") == (key, position)
        assert read == list("abc")[: position + 1]
    assert join.rest() == []


def test_campaign_join_in_another_order_holds_what_it_read_past():
    join, read = _join(["a", "b", "c", "d"])
    assert join.take("c", "is missing") == ("c", 2)
    assert read == ["a", "b", "c"]
    assert join.take("a", "is missing") == ("a", 0)
    assert read == ["a", "b", "c"]
    assert join.rest() == ["b", "d"]
    assert read == ["a", "b", "c", "d"]


def test_campaign_join_names_a_missing_and_a_repeated_campaign():
    join, read = _join(["a", "b"])
    with pytest.raises(FormatError, match="^campaign 'z' is missing$"):
        join.take("z", "is missing")
    assert read == ["a", "b"]
    assert join.take("a", "is missing") == ("a", 0)
    with pytest.raises(FormatError, match="^duplicate campaign_id 'a'$"):
        join.take("a", "is missing")


def test_write_lines_writes_each_line_and_counts(tmp_path):
    out = tmp_path / "out.jsonl"
    assert write_lines(out, iter(["a", "b"])) == 2
    assert out.read_bytes() == b"a\nb\n"
    assert write_lines(out, []) == 0
    assert out.read_bytes() == b""


def _raising_after(count):
    for i in range(count):
        yield f"line {i}"
    raise ValueError("boom")


def test_write_lines_failure_leaves_old_file_and_no_temp(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_bytes(b"old contents\n")
    with pytest.raises(ValueError, match="boom"):
        write_lines(out, _raising_after(3))
    assert out.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_write_lines_failure_creates_no_file(tmp_path):
    with pytest.raises(ValueError):
        write_lines(tmp_path / "out.jsonl", _raising_after(2))
    assert os.listdir(tmp_path) == []


def test_write_lines_gives_open_mode(tmp_path):
    out = tmp_path / "out.jsonl"
    old_umask = os.umask(0o027)
    try:
        write_lines(out, ["x"])
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_write_lines_writes_into_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
    reader.start()
    try:
        assert write_lines(fifo, ["a", "b"]) == 2
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"a\nb\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_write_lines_writes_through_a_symlink(tmp_path):
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    real.write_bytes(b"old\n")
    link.symlink_to(real)
    write_lines(link, ["new"])
    assert link.is_symlink()
    assert real.read_bytes() == b"new\n"
