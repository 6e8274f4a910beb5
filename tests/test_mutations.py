"""Every single-value mutation of a written record is decoded or is a data
error naming its line and path: never a KeyError, a TypeError or any other
fault of the program."""

import json
import math
import random
import re

import pytest

from pbpstate.errors import FormatError
from pbpstate.evaluation import ratings_from_record
from pbpstate.icooc import LabeledParagraph, labeled_paragraphs, load_model, train
from pbpstate.pipeline import annotate_corpus
from pbpstate.records import annotated_to_record, gold_from_record, gold_to_record
from pbpstate.records import slot_rows_from_record, turns_from_record
from pbpstate.synth import SynthConfig, generate
from pbpstate.transcripts import load_campaigns, read_jsonl

# The values that replace each value in turn; DELETE removes it instead.
VALUES = [None, True, False, 0, -1, 1.5, math.nan, "", "x", [], [1], {}, {"a": 1},
          10**30]
DELETE = object()

# Mutations tried per record kind, drawn from all of them with a fixed seed,
# so that the test stays within a few seconds.
SAMPLE = 1000

# Each record kind with the readers that the commands read it with.
READERS = {
    "annotated": [lambda path: read_jsonl(path, turns_from_record),
                  lambda path: read_jsonl(path, slot_rows_from_record)],
    "gold": [lambda path: read_jsonl(path, gold_from_record)],
    "transcript": [load_campaigns],
    "model": [lambda path: [load_model(path)]],
    "labeled": [lambda path: read_jsonl(path, LabeledParagraph.from_dict)],
    "ratings": [lambda path: read_jsonl(path, lambda r: ratings_from_record(r, None))],
}


def _cut(value):
    """``value`` with every list cut to its first 3 items."""
    if isinstance(value, dict):
        return {key: _cut(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_cut(item) for item in value[:3]]
    return value


@pytest.fixture(scope="module")
def records(gaz):
    """One written record of each kind, its lists cut to 3 items."""
    config = SynthConfig(seed=1, num_campaigns=1, players_per_campaign=3,
                         turns_per_campaign=12, combat_density=0.5)
    ((campaign, gold),) = generate(config)
    (annotated,) = annotate_corpus([campaign], gaz)
    model = train(labeled_paragraphs([(campaign, gold)]))
    return {
        "annotated": _cut(annotated_to_record(annotated)),
        "gold": _cut(gold_to_record(campaign, gold)),
        "transcript": _cut(campaign.to_dict(include_rolls=True)),
        "model": _cut(model.to_dict()),
        "labeled": {"text": "the road bends", "label": "IC"},
        "ratings": {"labels": ["a", "b", True], "scores": [1, 2.5, 3]},
    }


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, (*path, index))


def _mutated(record, path, value):
    """``record`` with the value at ``path`` replaced by ``value``, or deleted."""
    if not path:
        return value
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


def _names_its_path(problem, path):
    """Whether ``problem`` names a field on ``path``; a post is named as
    ``post N of campaign 'ID'``, and a check across fields names a field
    on either side (an ``author_id`` that is not its state's ``player_id``)."""
    keys = [key for key in path if isinstance(key, str)]
    if any(key in problem for key in keys):
        return True
    return path[0] == "posts" and re.search(r"\bpost \d+", problem) is not None


@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_mutated_record_decodes_or_names_its_line_and_path(records, tmp_path, kind):
    record, readers = records[kind], READERS[kind]
    path = tmp_path / f"{kind}.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    for read in readers:
        assert list(read(path))  # the record as written decodes
    mutations = [
        (where, value)
        for where in _paths(record)
        for value in [*VALUES, *([DELETE] if where else [])]
    ]
    if len(mutations) > SAMPLE:
        mutations = random.Random(kind).sample(mutations, SAMPLE)
    for where, value in mutations:
        path.write_text(json.dumps(_mutated(record, where, value)) + "\n",
                        encoding="utf-8")
        for read in readers:
            try:
                list(read(path))
            except FormatError as exc:
                message = str(exc)
                assert exc.line == 1, message
                assert message.startswith(f"line 1: {path}: "), message
                problem = message.removeprefix(f"line 1: {path}: ")
                assert not where or _names_its_path(problem, where), (where, message)
