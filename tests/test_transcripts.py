import json
import os
import re
import stat
import threading

import pytest

from pbpstate.errors import FormatError
from pbpstate.transcripts import (
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
    with pytest.raises(FormatError, match=re.escape(problem)):
        campaign_from_record(record)


def test_non_string_paragraph_rejected():
    problem = "post 0 of campaign 'c1': paragraphs[1]: must be a string, not int"
    with pytest.raises(FormatError, match=re.escape(problem)):
        campaign_from_record(_record(paragraphs=["ok", 7]))


def test_integer_author_id_rejected():
    problem = "post 0 of campaign 'c1': author_id: must be a string, not int"
    with pytest.raises(FormatError, match=re.escape(problem)):
        campaign_from_record(_record(author_id=5))


@pytest.mark.parametrize("field", ["campaign_id", "posts"])
def test_wrong_campaign_field_type_named(field):
    record = _record()
    record[field] = {"a": 1}
    with pytest.raises(FormatError, match=f"{field}: must be a") as excinfo:
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
    return record["n"]


@pytest.mark.parametrize(
    "bad_line, problem",
    [
        ('{"n": ', "invalid JSON (Expecting value)"),
        ("[1, 2]", "record is not a JSON object"),
        ("7", "record is not a JSON object"),
        ('{"error": "key"}', "record has no 'label' field"),
        ('{"error": "type"}', "label"),
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


def test_read_jsonl_yields_each_decoded_record_in_order(tmp_path):
    path = tmp_path / "in.jsonl"
    _write(path, ['{"n": 1}', "", '{"n": 2}'])
    assert list(read_jsonl(path, _decode_or_raise)) == [1, 2]


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
