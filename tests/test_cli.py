"""CLI behavior: exit codes, idempotency, end-to-end command flows."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from pbpstate.cli import build_parser, main
from pbpstate.transcripts import write_campaigns

from conftest import make_campaign


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture()
def synth_corpus(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    gold = tmp_path / "gold.jsonl"
    code = main(
        [
            "synth", "--seed", "3", "--campaigns", "3", "--players", "4",
            "--turns", "30", "--out", str(corpus), "--gold", str(gold),
        ]
    )
    assert code == 0
    return corpus, gold


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "pbpstate" in capsys.readouterr().out


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stats", "--nonsense"])
    assert excinfo.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_corrupt_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"campaign_id": "c", "posts": [\n', encoding="utf-8")
    code = main(["stats", "--in", str(bad)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    code = main(["stats", "--in", str(tmp_path / "nope.jsonl")])
    assert code == 2


def test_synth_deterministic_and_idempotent(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    argv = ["synth", "--seed", "7", "--campaigns", "2", "--turns", "20",
            "--players", "4"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_stats_table_and_json(synth_corpus, capsys):
    corpus, _ = synth_corpus
    assert main(["stats", "--in", str(corpus)]) == 0
    table = capsys.readouterr().out
    assert "Total turns" in table
    assert main(["stats", "--in", str(corpus), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total_turns"] == 90


def test_ingest_normalizes_and_adds_rolls(synth_corpus, tmp_path):
    corpus, _ = synth_corpus
    out = tmp_path / "ingested.jsonl"
    assert main(["ingest", "--in", str(corpus), "--out", str(out)]) == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert "rolls" in record["posts"][0]


def test_annotate_eval_round_trip(synth_corpus, tmp_path, capsys):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert (
        main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    )
    record = json.loads(annotated.read_text().splitlines()[0])
    assert "turn_slots" in record and "coverage" in record

    assert (
        main(
            [
                "eval-gst", "--pred", str(annotated), "--gold", str(gold),
                "--slots", "name,character_class,race,pronouns", "--json",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["per_slot"]["character_class"] == 1.0


def test_eval_gst_reports_overfill(synth_corpus, tmp_path, capsys):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    capsys.readouterr()
    code, report = _eval_json(annotated, gold, capsys)
    assert code == 0
    assert set(report["overfill"]) == set(report["per_slot"])
    # A post without a roll keeps its action empty, as gold does.
    assert report["overfill"]["action"] == 0
    assert main(["eval-gst", "--pred", str(annotated), "--gold", str(gold)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["slot", "accuracy", "support", "overfill"]
    table = {
        row.split()[0]: int(row.split()[3]) for row in rows[: len(report["overfill"])]
    }
    assert table == report["overfill"]


def _eval_json(pred, gold, capsys):
    code = main(["eval-gst", "--pred", str(pred), "--gold", str(gold), "--json"])
    return code, (json.loads(capsys.readouterr().out) if code == 0 else None)


def test_eval_gst_joins_on_campaign_id(synth_corpus, tmp_path, capsys):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    reversed_gold = tmp_path / "reversed_gold.jsonl"
    lines = gold.read_text(encoding="utf-8").splitlines()
    reversed_gold.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    assert _eval_json(annotated, reversed_gold, capsys) == _eval_json(
        annotated, gold, capsys
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:-1], "has predictions but no gold"),
        (lambda lines: lines + lines[:1], "duplicate campaign_id"),
    ],
)
def test_eval_gst_rejects_unmatched_gold(synth_corpus, tmp_path, capsys, edit, message):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    edited = tmp_path / "edited_gold.jsonl"
    lines = gold.read_text(encoding="utf-8").splitlines()
    edited.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval-gst", "--pred", str(annotated), "--gold", str(edited)]) == 2
    err = capsys.readouterr().err
    assert message in err and "'" in err


def test_eval_gst_rejects_missing_prediction_and_turn_mismatch(
    synth_corpus, tmp_path, capsys
):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    records = [json.loads(line) for line in annotated.read_text().splitlines()]
    first_id = records[0]["campaign_id"]

    fewer = tmp_path / "fewer.jsonl"
    fewer.write_text(
        "".join(json.dumps(r) + "\n" for r in records[1:]), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["eval-gst", "--pred", str(fewer), "--gold", str(gold)]) == 2
    assert f"campaign {first_id!r} has gold but no predictions" in (
        capsys.readouterr().err
    )

    # Move one turn from the first campaign to the second: the total turn
    # count still matches gold, the per-campaign counts do not.
    records[1]["turn_slots"].append(records[0]["turn_slots"].pop())
    shifted = tmp_path / "shifted.jsonl"
    shifted.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    assert main(["eval-gst", "--pred", str(shifted), "--gold", str(gold)]) == 2
    assert f"campaign {first_id!r}" in capsys.readouterr().err


def test_annotate_is_idempotent(synth_corpus, tmp_path):
    corpus, _ = synth_corpus
    first = tmp_path / "x.jsonl"
    second = tmp_path / "y.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(first)]) == 0
    assert main(["annotate", "--in", str(corpus), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_icooc_from_labeled_file(tmp_path):
    labeled = tmp_path / "paragraphs.jsonl"
    rows = [
        {"text": "the quiet road bends toward the ford", "label": "IC"},
        {"text": "a soft rain settles over the camp", "label": "IC"},
        {"text": "add your bonus to that roll first", "label": "OOC"},
        {"text": "you need a 12 or better to pass", "label": "OOC"},
    ]
    labeled.write_text(
        "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
    )
    model = tmp_path / "model.txt"
    assert main(["train-icooc", "--labeled", str(labeled), "--out", str(model)]) == 0
    assert model.read_text().startswith("ICOOC-MODEL v1")


def test_train_icooc_corpus_without_gold_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["train-icooc", "--corpus", "x.jsonl", "--out", "m.txt"])
    assert excinfo.value.code == 1


def test_train_icooc_gold_without_corpus_is_usage_error(tmp_path, capsys):
    # --gold is read only with --corpus, so a --labeled run would ignore it.
    with pytest.raises(SystemExit) as excinfo:
        main(["train-icooc", "--labeled", "l.jsonl", "--gold", "g.jsonl",
              "--out", "m.txt"])
    assert excinfo.value.code == 1
    assert "--gold requires --corpus" in capsys.readouterr().err


def test_train_classify_flow(synth_corpus, tmp_path):
    corpus, gold = synth_corpus
    model = tmp_path / "model.txt"
    labeled = tmp_path / "labels.jsonl"
    assert (
        main(
            [
                "train-icooc", "--corpus", str(corpus), "--gold", str(gold),
                "--out", str(model),
            ]
        )
        == 0
    )
    assert model.read_text().startswith("ICOOC-MODEL v1")
    assert (
        main(
            [
                "classify", "--model", str(model), "--in", str(corpus),
                "--out", str(labeled),
            ]
        )
        == 0
    )
    rows = [json.loads(line) for line in labeled.read_text().splitlines()]
    assert {row["turn_label"] for row in rows} == {"IC", "OOC"}


def test_serialize_variants(synth_corpus, tmp_path):
    corpus, _ = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    main(["annotate", "--in", str(corpus), "--out", str(annotated)])
    for variant, expected_blocks in [("none", 0), ("curr", 1)]:
        out = tmp_path / f"examples_{variant}.jsonl"
        assert (
            main(
                [
                    "serialize", "--in", str(annotated), "--out", str(out),
                    "--variant", variant,
                ]
            )
            == 0
        )
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3 * 29
        for row in rows:
            blocks = sum(1 for t in row["context"] if t["state"] is not None)
            blocks += 1 if row["target"]["state"] is not None else 0
            assert blocks == expected_blocks


def test_serialize_bad_record_leaves_old_output(synth_corpus, tmp_path, capsys):
    corpus, _ = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    lines = annotated.read_text(encoding="utf-8").splitlines()
    broken = json.loads(lines[2])
    del broken["turn_states"]
    lines[2] = json.dumps(broken)
    annotated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "examples.jsonl"
    out.write_bytes(b"previous run\n")
    assert main(["serialize", "--in", str(annotated), "--out", str(out)]) == 2
    assert "turn_states" in capsys.readouterr().err
    assert out.read_bytes() == b"previous run\n"
    assert os.listdir(out_dir) == ["examples.jsonl"]


@pytest.mark.parametrize(
    "state, problem",
    [
        ({"inventory": "sword"}, "inventory: must be a list, not str"),
        ({"in_combat": "false"}, "in_combat: must be true or false, not str"),
        ({"player_id": 7}, "player_id: must be a string, not int"),
        ("p1", "a turn state must be an object, not str"),
        pytest.param(
            {"actions": [{"kind": "attack", "roll": {"count": "1", "faces": 20}}]},
            "actions[0]: roll: count: must be an integer, not str",
            id="roll-count-is-a-string",
        ),
        ({"player_id": "nobody"}, "player_id 'nobody' is not the author of post 0"),
    ],
)
def test_serialize_rejects_a_mistyped_turn_state(
    synth_corpus, tmp_path, capsys, state, problem
):
    corpus, _ = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    records = [json.loads(line) for line in annotated.read_text().splitlines()]
    states = records[1]["turn_states"]
    states[0] = {**states[0], **state} if isinstance(state, dict) else state
    edited = _write_jsonl(tmp_path / "edited.jsonl", records)
    out = tmp_path / "examples.jsonl"
    capsys.readouterr()
    argv = ["serialize", "--in", str(edited), "--out", str(out), "--variant", "all"]
    assert main(argv) == 2
    assert f"line 2: {edited}: turn_states[0]: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_serialize_rejects_fewer_states_than_posts(synth_corpus, tmp_path, capsys):
    corpus, _ = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    records = [json.loads(line) for line in annotated.read_text().splitlines()]
    records[1]["turn_states"].pop()
    edited = _write_jsonl(tmp_path / "edited.jsonl", records)
    out = tmp_path / "examples.jsonl"
    capsys.readouterr()
    assert main(["serialize", "--in", str(edited), "--out", str(out)]) == 2
    assert (
        f"line 2: {edited}: turn_states: 29 states for 30 posts"
        in capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "first_row, problem",
    [
        (["name", "race"], "turn_slots[0]: must be an object"),
        (
            {"race": "elf"},
            "turn_slots[0]: race: must be an object, not str",
        ),
        (
            {"rase": {"value": "elf", "source": "heuristic"}},
            "turn_slots[0]: rase: not a slot row field",
        ),
        (
            {"race": {"value": "elf", "source": 5}},
            "turn_slots[0]: race: source: must be a string or null, not int",
        ),
        (None, "turn_slots: missing"),
    ],
)
def test_eval_gst_rejects_malformed_turn_slots(
    synth_corpus, tmp_path, capsys, first_row, problem
):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    records = [json.loads(line) for line in annotated.read_text().splitlines()]
    if first_row is None:
        del records[2]["turn_slots"]
    else:
        records[2]["turn_slots"][0] = first_row
    edited = _write_jsonl(tmp_path / "edited.jsonl", records)
    capsys.readouterr()
    assert main(["eval-gst", "--pred", str(edited), "--gold", str(gold)]) == 2
    assert f"line 3: {edited}: {problem}" in capsys.readouterr().err


def test_agreement_command(tmp_path, capsys):
    ratings = tmp_path / "ratings.jsonl"
    lines = [
        json.dumps({"labels": ["yes", "yes", "no"], "scores": [4, 5, 2]}),
        json.dumps({"labels": ["yes", "yes", "yes"], "scores": [1, 2, 1]}),
        json.dumps({"labels": ["no", "no", "yes"], "scores": [5, 5, 3]}),
    ]
    ratings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["agreement", "--in", str(ratings), "--categories", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pairwise_agreement"] == pytest.approx((1 / 3 + 1.0 + 1 / 3) / 3)
    assert out["randolph_kappa"] == pytest.approx(
        2 * out["pairwise_agreement"] - 1
    )
    assert "kendall_tau_mean" in out


def test_gap_turns_flag_writes_the_default_bytes(synth_corpus, tmp_path):
    corpus, _ = synth_corpus
    out_flag = tmp_path / "with_flag.jsonl"
    plain = tmp_path / "plain.jsonl"
    argv = ["annotate", "--in", str(corpus)]
    assert main(argv + ["--out", str(out_flag), "--gap-turns", "3"]) == 0
    assert main(argv + ["--out", str(plain)]) == 0
    assert out_flag.read_bytes() == plain.read_bytes()


def _option_strings(parser):
    return {option for action in parser._actions for option in action.option_strings}


def test_public_flags():
    """Adding or removing a flag must show up here."""
    parser = build_parser()
    common = {"-h", "--help"}
    assert _option_strings(parser) == common | {"--version", "-v", "--verbose"}
    expected = {
        "ingest": {"--in", "--out"},
        "stats": {"--in", "--json"},
        "synth": {
            "--seed", "--campaigns", "--players", "--turns", "--combat-density",
            "--signal-rate", "--ooc-fraction", "--distractor-rate",
            "--loose-check-rate", "--gap-turns", "--out", "--gold",
        },
        "annotate": {"--in", "--out", "--gazetteers", "--gap-turns", "--icooc-model"},
        "train-icooc": {"--labeled", "--corpus", "--gold", "--smoothing", "--out"},
        "classify": {"--model", "--in", "--out"},
        "serialize": {"--in", "--out", "--variant", "--window"},
        "eval-gst": {"--pred", "--gold", "--slots", "--json"},
        "agreement": {"--in", "--categories"},
    }
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparsers = sub.choices
    assert set(subparsers) == set(expected)
    for command, options in expected.items():
        assert _option_strings(subparsers[command]) == common | options, command


def test_setting_flags_defaults():
    parser = build_parser()
    annotate = parser.parse_args(["annotate", "--in", "x", "--out", "y"])
    assert (annotate.gazetteers, annotate.gap_turns) == (None, 3)
    serialize = parser.parse_args(["serialize", "--in", "x", "--out", "y"])
    assert (serialize.variant, serialize.window) == ("none", 7)


def test_eval_gst_unknown_slot_is_usage_error(synth_corpus, capsys):
    corpus, gold = synth_corpus
    cases = [
        ("name,rase", "unknown slot 'rase'; choose from "
                      "name, character_class, race, pronouns, in_combat, action"),
        ("race,race", "slot 'race' given twice"),
    ]
    for slots, problem in cases:
        with pytest.raises(SystemExit) as excinfo:
            main(["eval-gst", "--pred", str(gold), "--gold", str(gold),
                  "--slots", slots])
        assert excinfo.value.code == 1
        assert problem in capsys.readouterr().err


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "bad, problem",
    [
        pytest.param({"label": "IC"}, "text: missing", id="no-text"),
        ({"text": "you roll a 12", "label": "X"}, "label: must be 'IC' or 'OOC'"),
        pytest.param(
            {"text": 12, "label": "OOC"}, "text: must be a string, not int",
            id="text-not-a-string",
        ),
        (["you roll a 12", "OOC"], "record is not a JSON object"),
    ],
)
def test_train_icooc_bad_labeled_record_names_file_and_line(
    tmp_path, capsys, bad, problem
):
    labeled = _write_jsonl(
        tmp_path / "labeled.jsonl",
        [{"text": "the quiet road bends", "label": "IC"}, bad],
    )
    argv = ["train-icooc", "--labeled", str(labeled), "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert f"line 2: {labeled}: {problem}" in capsys.readouterr().err


def test_train_icooc_gold_campaign_missing_from_corpus(synth_corpus, tmp_path, capsys):
    corpus, gold = synth_corpus
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    fewer = _write_jsonl(tmp_path / "fewer.jsonl", records[:1])
    missing = records[1]["campaign_id"]
    argv = ["train-icooc", "--corpus", str(fewer), "--gold", str(gold),
            "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert (
        f"line 2: {gold}: campaign {missing!r} is not in {fewer}"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize("existing", [False, True])
def test_train_icooc_late_bad_labeled_line_writes_no_model(tmp_path, capsys, existing):
    # train reads the paragraphs as they stream in, so the bad line is
    # found after hundreds of good ones have been folded into counts.
    good = [{"text": f"the quiet road bends {i}", "label": "IC"} for i in range(300)]
    good += [{"text": f"roll a d20 for check {i}", "label": "OOC"} for i in range(300)]
    labeled = _write_jsonl(tmp_path / "labeled.jsonl", [*good, {"label": "IC"}])
    model = tmp_path / "m"
    if existing:
        model.write_text("an older model\n", encoding="utf-8")
    argv = ["train-icooc", "--labeled", str(labeled), "--out", str(model)]
    assert main(argv) == 2
    assert f"line 601: {labeled}: text: missing" in capsys.readouterr().err
    if existing:
        assert model.read_text(encoding="utf-8") == "an older model\n"
    else:
        assert not model.exists()
    # No half-written file is left beside the target either.
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["labeled.jsonl", *(["m"] if existing else [])]
    )


@pytest.mark.parametrize("existing", [False, True])
def test_train_icooc_unknown_campaign_on_the_last_gold_line_writes_no_model(
    synth_corpus, tmp_path, capsys, existing
):
    corpus, gold = synth_corpus
    records = [json.loads(line) for line in gold.read_text().splitlines()]
    stray = dict(records[0], campaign_id="not-in-the-corpus")
    edited = _write_jsonl(tmp_path / "edited.jsonl", [*records, stray])
    model = tmp_path / "m"
    if existing:
        model.write_text("an older model\n", encoding="utf-8")
    argv = ["train-icooc", "--corpus", str(corpus), "--gold", str(edited),
            "--out", str(model)]
    assert main(argv) == 2
    assert (
        f"line {len(records) + 1}: {edited}: campaign 'not-in-the-corpus'"
        f" is not in {corpus}" in capsys.readouterr().err
    )
    if existing:
        assert model.read_text(encoding="utf-8") == "an older model\n"
    else:
        assert not model.exists()


def _cut_turns(record):
    record["turn_states"] = record["turn_states"][:10]
    record["paragraph_labels"] = record["paragraph_labels"][:10]
    return "turn_states: 10 states for 30 posts"


def _drop_a_label(record):
    labels = record["paragraph_labels"][4]
    record["paragraph_labels"][4] = labels[:-1]
    return f"paragraph_labels: {len(labels) - 1} labels for the {len(labels)}"


def _string_in_combat(record):
    record["turn_states"][3]["in_combat"] = "false"
    return "turn_states[3]: in_combat: must be true or false, not str"


def _player_profile(record):
    return next(p for p in record["profiles"].values() if not p["is_dm"])


def _string_inventory(record):
    profile = _player_profile(record)
    profile["inventory"] = "sword"
    return f"profiles[{profile['player_id']!r}]: inventory: must be a list, not str"


def _string_is_dm(record):
    profile = _player_profile(record)
    profile["is_dm"] = "no"
    return f"profiles[{profile['player_id']!r}]: is_dm: must be true or false, not str"


def _profile_under_another_key(record):
    profile = _player_profile(record)
    key = profile["player_id"]
    other = next(pid for pid in record["profiles"] if pid != key)
    profile["player_id"] = other
    return f"profiles[{key!r}]: player_id: must be {key!r}, not {other!r}"


def _one_monster(record, monster):
    record["combat_spans"] = [
        {"start_index": 0, "end_index": 1, "monsters": [monster]}
    ]


def _string_monster_count(record):
    _one_monster(record, ["goblin", "2"])
    return "combat_spans[0]: monsters[0]: count: must be an integer, not str"


def _number_monster_name(record):
    _one_monster(record, [3, 2])
    return "combat_spans[0]: monsters[0]: name: must be a string, not int"


def _object_monster_name(record):
    _one_monster(record, [{"x": 1}, 2])
    return "combat_spans[0]: monsters[0]: name: must be a string, not dict"


def _three_item_monster(record):
    _one_monster(record, ["goblin", 2, 9])
    return "combat_spans[0]: monsters[0]: must be a [name, count] pair, not 3 items"


def _string_start_index(record):
    record["combat_spans"] = [{"start_index": "0", "end_index": 1, "monsters": []}]
    return "combat_spans[0]: start_index: must be an integer, not str"


def _second_span_string_start_index(record):
    record["combat_spans"] = [
        {"start_index": 0, "end_index": 1, "monsters": []},
        {"start_index": "5", "end_index": 6, "monsters": []},
    ]
    return "combat_spans[1]: start_index: must be an integer, not str"


def _states_not_a_list(record):
    record["turn_states"] = {"p1": record["turn_states"][0]}
    return "turn_states: must be a list, not dict"


def _spans_not_a_list(record):
    record["combat_spans"] = {"x": 1}
    return "combat_spans: must be a list, not dict"


def _string_labels(record):
    record["paragraph_labels"][3] = "IC"
    return "paragraph_labels[3]: must be a list, not str"


def _string_cue_posts(record):
    record["cue_posts"] = "abc"
    return "cue_posts: must be a list, not str"


def _bool_cue_posts(record):
    record["cue_posts"] = [True]
    return "cue_posts[0]: must be an integer, not bool"


def _first_player_turn(record):
    """Index and state of the first turn whose author has a named profile."""
    named = {pid for pid, p in record["profiles"].items() if p["name"]}
    return next(
        (i, s) for i, s in enumerate(record["turn_states"]) if s["player_id"] in named
    )


def _foreign_player(record):
    index, state = _first_player_turn(record)
    author = state["player_id"]
    other = next(pid for pid in record["profiles"] if pid != author)
    state["player_id"] = other
    return (
        f"turn_states[{index}]: player_id {other!r} is not the author of post"
        f" {index}, {author!r}"
    )


def _contradicted_profile(record):
    index, state = _first_player_turn(record)
    state["character_name"] = "Nobody In Particular"
    return f"turn_states[{index}]: contradicts the profile of {state['player_id']!r}"


@pytest.mark.parametrize(
    "edit",
    [
        _cut_turns, _drop_a_label, _string_in_combat,
        _string_inventory, _string_is_dm, _profile_under_another_key,
        _string_start_index, _second_span_string_start_index,
        _string_monster_count, _number_monster_name, _object_monster_name,
        _three_item_monster, _states_not_a_list, _spans_not_a_list,
        _string_labels, _string_cue_posts, _bool_cue_posts, _foreign_player,
        _contradicted_profile,
    ],
)
def test_train_icooc_gold_must_match_its_campaign(synth_corpus, tmp_path, capsys, edit):
    corpus, gold = synth_corpus
    records = [json.loads(line) for line in gold.read_text().splitlines()]
    problem = edit(records[1])
    edited = _write_jsonl(tmp_path / "edited.jsonl", records)
    argv = ["train-icooc", "--corpus", str(corpus), "--gold", str(edited),
            "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert f"line 2: {edited}: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def _overlapping_spans(record):
    record["combat_spans"] = [
        {"start_index": 1, "end_index": 3, "monsters": []},
        {"start_index": 2, "end_index": 4, "monsters": []},
    ]
    return "spans: span starting at 2 overlaps or is out of order"


def _old_format_post(record):
    """A post as annotate wrote it before posts carried only transcript
    fields, with one roll's modifier edited to a string."""
    post = next(p for p in record["posts"] if "(" in "".join(p["paragraphs"]))
    index = record["posts"].index(post)
    post["actions"] = []
    post["rolls"] = [{"count": 1, "faces": 20, "modifier": "x", "result": 3}]
    where = f"post {index} of campaign {record['campaign_id']!r}"
    return f"{where}: actions: not a post field"


@pytest.mark.parametrize(
    "edit", [_contradicted_profile, _overlapping_spans, _old_format_post]
)
def test_serialize_checks_states_against_profiles_spans_and_posts(
    synth_corpus, tmp_path, capsys, edit
):
    corpus, _ = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    records = [json.loads(line) for line in annotated.read_text().splitlines()]
    problem = edit(records[1])
    edited = _write_jsonl(tmp_path / "edited.jsonl", records)
    out = tmp_path / "examples.jsonl"
    capsys.readouterr()
    argv = ["serialize", "--in", str(edited), "--out", str(out), "--variant", "all"]
    assert main(argv) == 2
    assert f"line 2: {edited}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_classify_and_annotate_agree_on_a_blank_paragraph(synth_corpus, tmp_path):
    corpus, gold = synth_corpus
    model = tmp_path / "model.txt"
    assert main(["train-icooc", "--corpus", str(corpus), "--gold", str(gold),
                 "--out", str(model)]) == 0
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    records[0]["posts"][2]["paragraphs"].append("")
    blank = _write_jsonl(tmp_path / "blank.jsonl", records)

    labels, annotated = tmp_path / "labels.jsonl", tmp_path / "annotated.jsonl"
    assert main(["classify", "--model", str(model), "--in", str(blank),
                 "--out", str(labels)]) == 0
    assert main(["annotate", "--in", str(blank), "--out", str(annotated),
                 "--icooc-model", str(model)]) == 0
    rows = [json.loads(line) for line in labels.read_text().splitlines()]
    assert rows[2]["paragraph_labels"][-1] is None
    states = [
        state["in_character"]
        for line in annotated.read_text().splitlines()
        for state in json.loads(line)["turn_states"]
    ]
    assert [row["in_character"] for row in rows] == states


@pytest.mark.parametrize(
    "rows, line, problem",
    [
        pytest.param(
            [{"labels": ["a", "b"]}, {"scores": [4]}, {"scores": [2]}],
            2,
            "scores: found 1, need at least two (one per rater)",
            id="one-score-per-item",
        ),
        pytest.param(
            [{"scores": [1, 2, 3]}, {"scores": [2, 3, 1]}, {"scores": [3, 1]}],
            3,
            "scores: 2 scores, but the first scored line has 3",
            id="rows-of-different-lengths",
        ),
        pytest.param(
            [{"scores": [1, 2]}, {"scores": [2, "high"]}],
            2,
            "scores[1]: must be a number, not str",
            id="non-numeric-score",
        ),
        pytest.param(
            [{"scores": [1, 2]}, {"scores": [math.nan, 1]}],
            2,
            "scores[0]: must be a finite number, not nan",
            id="nan-score",
        ),
        pytest.param(
            [{"scores": [1, -math.inf]}],
            1,
            "scores[1]: must be a finite number, not -inf",
            id="infinite-score",
        ),
        pytest.param(
            [{"scores": [1, 2]}, {"scores": [3, 10**400]}],
            2,
            f"scores[1]: must be a finite number, not {10**400}",
            id="score-beyond-a-float",
        ),
        pytest.param(
            [{"scores": [1, 2]}, {"labels": "ab"}],
            2,
            "labels: must be a list, not str",
            id="labels-not-a-list",
        ),
        pytest.param(
            [{"labels": ["a", "b"]}, {"labels": [["a"], ["b"]]}],
            2,
            "labels[0]: must be a scalar, not list",
            id="label-is-an-array",
        ),
        pytest.param(
            [{"labels": ["a", "b"]}, {"labels": ["a"]}],
            2,
            "labels: found 1, need at least two (one per rater)",
            id="one-label-per-item",
        ),
        pytest.param([[1, 2]], 1, "record is not a JSON object", id="not-an-object"),
        pytest.param(
            [{"scores": ["3", True]}, {"scores": [1, 2]}],
            1,
            "scores[0]: must be a number, not str",
            id="string-number-score",
        ),
        pytest.param(
            [{"scores": [1, 2]}, {"scores": [3, False]}],
            2,
            "scores[1]: must be a number, not bool",
            id="boolean-score",
        ),
        pytest.param(
            [{"scores": "12"}], 1, "scores: must be a list, not str",
            id="scores-not-a-list",
        ),
    ],
)
def test_agreement_bad_ratings_name_the_line(tmp_path, capsys, rows, line, problem):
    ratings = tmp_path / "ratings.jsonl"
    ratings.write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    assert main(["agreement", "--in", str(ratings)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"pbpstate: error: line {line}: {ratings}: {problem}\n"
    )


def _paragraph_count(gold):
    return sum(
        len(labels)
        for line in gold.read_text(encoding="utf-8").splitlines()
        for labels in json.loads(line)["paragraph_labels"]
    )


@pytest.mark.parametrize("verbose", [True, False])
def test_verbose_progress_lines(synth_corpus, tmp_path, capsys, verbose):
    corpus, gold = synth_corpus
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    capsys.readouterr()
    flag = ["-v"] if verbose else []
    ingested, examples, model = (
        tmp_path / "ingested.jsonl", tmp_path / "examples.jsonl", tmp_path / "m.txt"
    )
    commands = [
        (
            ["ingest", "--in", str(corpus), "--out", str(ingested)],
            f"INFO ingested 3 campaigns -> {ingested}\n",
        ),
        (
            ["serialize", "--in", str(annotated), "--variant", "all",
             "--out", str(examples)],
            f"INFO serialized {3 * 29} examples (all) -> {examples}\n",
        ),
        (
            ["train-icooc", "--corpus", str(corpus), "--gold", str(gold),
             "--out", str(model)],
            f"INFO trained IC/OOC model on {_paragraph_count(gold)} paragraphs"
            f" -> {model}\n",
        ),
    ]
    for argv, line in commands:
        assert main(flag + argv) == 0
        assert capsys.readouterr().err == (line if verbose else ""), argv[0]


# Runs one command in a fresh interpreter; writes the pbpstate modules it
# loaded, and whether it loaded logging, to the file named first.
_LOADED_MODULES_PROBE = """
import json, sys
from pbpstate.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(sorted(sys.modules), handle)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    paths = {
        name: str(work / file)
        for name, file in [
            ("corpus", "corpus.jsonl"), ("gold", "gold.jsonl"),
            ("model", "model.txt"), ("annotated", "annotated.jsonl"),
            ("ratings", "ratings.jsonl"), ("labeled", "labeled.jsonl"),
            ("out", "out.jsonl"),
        ]
    }
    assert main(["synth", "--seed", "3", "--campaigns", "2", "--turns", "20",
                 "--out", paths["corpus"], "--gold", paths["gold"]]) == 0
    assert main(["train-icooc", "--corpus", paths["corpus"], "--gold",
                 paths["gold"], "--out", paths["model"]]) == 0
    assert main(["annotate", "--in", paths["corpus"],
                 "--out", paths["annotated"]]) == 0
    (work / "ratings.jsonl").write_text(
        '{"labels": ["a", "a"], "scores": [1, 2]}\n'
        '{"labels": ["a", "b"], "scores": [2, 1]}\n',
        encoding="utf-8",
    )
    _write_jsonl(
        work / "labeled.jsonl",
        [{"text": "the road bends", "label": "IC"}, {"text": "brb", "label": "OOC"}],
    )
    return work, paths


_NOT_LOADED = {
    "train-icooc": {"synth", "pipeline", "characters", "combat"},
    "classify": {"synth", "pipeline", "characters", "combat"},
    "serialize": {"characters", "combat", "gazetteers", "icooc", "synth"},
    "eval-gst": {"characters", "combat", "gazetteers", "icooc", "synth"},
    "annotate": {"synth", "serialize", "evaluation"},
}

_ARGV = {
    "ingest": ["ingest", "--in", "{corpus}", "--out", "{out}"],
    "stats": ["stats", "--in", "{corpus}"],
    "synth": ["synth", "--campaigns", "1", "--turns", "10", "--out", "{out}",
              "--gold", "{gold}.new"],
    "annotate": ["annotate", "--in", "{corpus}", "--out", "{out}",
                 "--icooc-model", "{model}"],
    "train-icooc": ["train-icooc", "--corpus", "{corpus}", "--gold", "{gold}",
                    "--out", "{out}"],
    "classify": ["classify", "--model", "{model}", "--in", "{corpus}",
                 "--out", "{out}"],
    "serialize": ["serialize", "--in", "{annotated}", "--out", "{out}"],
    "eval-gst": ["eval-gst", "--pred", "{annotated}", "--gold", "{gold}"],
    "agreement": ["agreement", "--in", "{ratings}"],
}


@pytest.mark.parametrize("command", sorted(_ARGV))
def test_each_command_loads_only_what_it_runs(command_inputs, command):
    work, paths = command_inputs
    import pbpstate

    probe_out = work / f"modules-{command}.json"
    argv = [arg.format(**paths) for arg in _ARGV[command]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(pbpstate.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES_PROBE, str(probe_out), *argv],
        env=env, cwd=work, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(probe_out.read_text(encoding="utf-8")))
    ours = {m.split(".", 1)[1] for m in loaded if m.startswith("pbpstate.")}
    assert "logging" not in loaded
    if command == "ingest":
        assert ours == {"cli", "errors", "models", "dice", "transcripts"}
    assert not ours & _NOT_LOADED.get(command, set())


@pytest.mark.parametrize(
    "bad_line, problem",
    [('{"campaign_id": ', "invalid JSON ("), ("[1, 2]", "record is not a JSON object")],
    ids=["invalid-json", "not-an-object"],
)
@pytest.mark.parametrize(
    "command, flag",
    [
        ("ingest", "--in"), ("stats", "--in"), ("annotate", "--in"),
        ("classify", "--in"), ("train-icooc", "--corpus"), ("train-icooc", "--gold"),
        ("train-icooc", "--labeled"), ("serialize", "--in"), ("eval-gst", "--pred"),
        ("eval-gst", "--gold"), ("agreement", "--in"),
    ],
)
def test_a_bad_jsonl_line_names_its_file_and_line(
    command_inputs, tmp_path, capsys, command, flag, bad_line, problem
):
    """Every JSONL input reports a bad line 2 as ``line 2: FILE: problem``."""
    _, paths = command_inputs
    if flag == "--labeled":
        template = ["train-icooc", "--labeled", "{labeled}", "--out", "{out}"]
    else:
        template = _ARGV[command]
    argv = [arg.format(**{**paths, "out": str(tmp_path / "out")}) for arg in template]
    position = argv.index(flag) + 1
    with open(argv[position], encoding="utf-8") as handle:
        first_line = handle.readline()
    bad = tmp_path / "bad.jsonl"
    bad.write_text(f"{first_line}{bad_line}\n", encoding="utf-8")
    argv[position] = str(bad)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"pbpstate: error: line 2: {bad}: {problem}"
    )


@pytest.mark.parametrize("command", ["serialize", "eval-gst"])
def test_a_too_long_integer_names_its_path(command_inputs, tmp_path, capsys, command):
    """An integer literal past Python's digit limit is named by its path in
    the record, not by Python's own advice."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    _, paths = command_inputs
    with open(paths["annotated"], encoding="utf-8") as handle:
        record = json.loads(handle.readline())
    index = next(i for i, state in enumerate(record["turn_states"]) if state["actions"])
    record["turn_states"][index]["actions"][0]["roll"]["modifier"] = "BIG"
    digits = limit + 700
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(record).replace('"BIG"', "1" * digits) + "\n",
                   encoding="utf-8")
    argv = [arg.format(**{**paths, "annotated": str(bad), "out": str(tmp_path / "out")})
            for arg in _ARGV[command]]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: line 1: {bad}: turn_states[{index}]: actions[0]: roll:"
        " modifier:"
        f" integer of {digits} digits, more than the {limit} allowed\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("ingest", "--in"), ("stats", "--in"), ("annotate", "--in"),
        ("classify", "--in"), ("train-icooc", "--corpus"), ("train-icooc", "--gold"),
        ("serialize", "--in"), ("eval-gst", "--pred"), ("eval-gst", "--gold"),
    ],
)
def test_a_repeated_campaign_id_names_its_file_and_line(
    command_inputs, tmp_path, capsys, command, flag
):
    """Every campaign-keyed input rejects a campaign seen on an earlier line."""
    _, paths = command_inputs
    paths = {**paths, "out": str(tmp_path / "out")}
    argv = [arg.format(**paths) for arg in _ARGV[command]]
    position = argv.index(flag) + 1
    with open(argv[position], encoding="utf-8") as handle:
        first_line = handle.readline()
    repeated = tmp_path / "repeated.jsonl"
    repeated.write_text(first_line * 2, encoding="utf-8")
    argv[position] = str(repeated)
    campaign_id = json.loads(first_line)["campaign_id"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: line 2: {repeated}: duplicate campaign_id {campaign_id!r}\n"
    )


def test_annotate_names_a_bad_gazetteer_file(synth_corpus, tmp_path, capsys):
    corpus, _ = synth_corpus
    gazetteers = tmp_path / "gz.txt"
    gazetteers.write_text("[classes]\nwizard\n[bogus]\n", encoding="utf-8")
    argv = ["annotate", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--gazetteers", str(gazetteers)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: {gazetteers}: line 3: unknown section 'bogus'\n"
    )


def test_annotate_rejects_a_term_no_scan_can_start(synth_corpus, tmp_path, capsys):
    corpus, _ = synth_corpus
    gazetteers = tmp_path / "gz.txt"
    gazetteers.write_text("[monsters]\ngoblin\n-goblin\n", encoding="utf-8")
    argv = ["annotate", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--gazetteers", str(gazetteers)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: {gazetteers}: line 3: term '-goblin'"
        " does not start with a word character\n"
    )
    assert not (tmp_path / "out").exists()


def test_annotate_names_a_bad_model_file(synth_corpus, tmp_path, capsys):
    corpus, _ = synth_corpus
    model = tmp_path / "model.txt"
    model.write_text("junk\n", encoding="utf-8")
    argv = ["annotate", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--icooc-model", str(model)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: {model}: expected header 'ICOOC-MODEL v1', found 'junk'\n"
    )


@pytest.mark.parametrize("empty", [False, True], ids=["corpus", "empty-corpus"])
def test_annotate_rejects_a_gap_of_zero_turns(synth_corpus, tmp_path, capsys, empty):
    corpus, _ = synth_corpus
    if empty:
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    argv = ["annotate", "--in", str(corpus), "--out", str(out), "--gap-turns", "0"]
    assert main(argv) == 2
    assert "gap_turns must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "window, empty",
    [
        pytest.param("0", False, id="0"),
        pytest.param("-3", False, id="-3"),
        pytest.param("0", True, id="0-empty"),
    ],
)
def test_serialize_rejects_a_window_below_one(
    synth_corpus, tmp_path, capsys, window, empty
):
    corpus, _ = synth_corpus
    annotated, out = tmp_path / "annotated.jsonl", tmp_path / "out.jsonl"
    if empty:
        annotated.write_text("", encoding="utf-8")
    else:
        assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    argv = ["serialize", "--in", str(annotated), "--window", window, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "pbpstate: error: window: must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("smoothing", ["0", "-1", "nan", "inf"])
def test_train_icooc_rejects_a_smoothing_that_is_not_positive_and_finite(
    synth_corpus, tmp_path, capsys, smoothing
):
    corpus, gold = synth_corpus
    out = tmp_path / "model.txt"
    argv = ["train-icooc", "--corpus", str(corpus), "--gold", str(gold),
            "--smoothing", smoothing, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "pbpstate: error: smoothing: must be positive and finite\n"
    )
    assert not out.exists()


def test_classify_rejects_a_model_holding_a_non_finite_number(
    synth_corpus, tmp_path, capsys
):
    corpus, gold = synth_corpus
    model = tmp_path / "model.txt"
    assert main(["train-icooc", "--corpus", str(corpus), "--gold", str(gold),
                 "--out", str(model)]) == 0
    lines = model.read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].rsplit("\t", 1)[0] + "\tnan"  # a token's OOC weight
    model.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "labels.jsonl"
    assert main(["classify", "--model", str(model), "--in", str(corpus),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"pbpstate: error: {model}: holds a number that is not finite\n"
    )
    assert not out.exists()


def test_annotate_reads_a_long_s_as_an_s(tmp_path):
    # re.IGNORECASE matches "ſ" (U+017F) to "s" where str.lower() does not;
    # a class and a number word spelled with it are read as their s forms.
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "annotated.jsonl"
    write_campaigns(corpus, [
        make_campaign([("dm", "The road is long."), ("p1", "The ſorcerer waits.")],
                      campaign_id="class"),
        make_campaign([("dm", ["Roll initiative! (1d20+2)[14]",
                               "ſix goblins creep closer."]),
                       ("p1", "Kessa dodges.")], campaign_id="monsters"),
    ])
    assert main(["annotate", "--in", str(corpus), "--out", str(out)]) == 0
    first, second = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert first["profiles"]["p1"]["character_class"] == "sorcerer"
    assert [span["monsters"] for span in second["combat_spans"]] == [[["goblin", 6]]]


def test_annotate_skips_an_over_long_numeral_near_a_monster(tmp_path, capsys):
    # A headcount is a small number; a 5,000-digit numeral is not read.
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "annotated.jsonl"
    ones = "1" * 5000
    write_campaigns(corpus, [make_campaign(
        [("dm", f"Roll initiative! (1d20+2)[15] A goblin charges {ones} times.")]
    )])
    assert main(["annotate", "--in", str(corpus), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (record,) = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert [name for span in record["combat_spans"]
            for name, _ in span["monsters"]] == ["goblin"]


def test_ingest_skips_a_dice_tag_with_an_over_long_number(tmp_path, capsys):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "ingested.jsonl"
    ones = "1" * 5000
    write_campaigns(corpus, [make_campaign(
        [("p1", f"I swing (1d20+{ones})[12] then (1d6)[4]")]
    )])
    assert main(["ingest", "--in", str(corpus), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (record,) = map(json.loads, out.read_text(encoding="utf-8").splitlines())
    assert [(r["count"], r["faces"], r["result"]) for r in record["posts"][0]["rolls"]] == [
        (1, 6, 4)
    ]


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """One file of each record kind: transcript, ingested, annotated, gold,
    labeled paragraphs and ratings."""
    work = tmp_path_factory.mktemp("records")
    files = {kind: work / f"{kind}.jsonl" for kind in (
        "transcript", "ingested", "annotated", "gold", "labeled", "ratings"
    )}
    assert main(["synth", "--seed", "43", "--campaigns", "2", "--turns", "60",
                 "--out", str(files["transcript"]), "--gold", str(files["gold"])]) == 0
    assert main(["ingest", "--in", str(files["transcript"]),
                 "--out", str(files["ingested"])]) == 0
    assert main(["annotate", "--in", str(files["transcript"]),
                 "--out", str(files["annotated"])]) == 0
    _write_jsonl(files["labeled"], [{"text": "the road bends", "label": "IC"},
                                    {"text": "brb", "label": "OOC"}])
    _write_jsonl(files["ratings"], [{"labels": ["a", "a"], "scores": [1, 2]},
                                    {"labels": ["a", "b"], "scores": [2, 1]}])
    return files


# Each command that reads a record kind, with the file it is given in
# place of that kind's; the other inputs are the unedited files.
_READERS = {
    "ingest": ("transcript", ["ingest", "--in", "{edited}", "--out", "{out}"]),
    "ingest-rolls": ("ingested", ["ingest", "--in", "{edited}", "--out", "{out}"]),
    "train-corpus": ("transcript", ["train-icooc", "--corpus", "{edited}",
                                    "--gold", "{gold}", "--out", "{out}"]),
    "train-gold": ("gold", ["train-icooc", "--corpus", "{transcript}",
                            "--gold", "{edited}", "--out", "{out}"]),
    "serialize": ("annotated", ["serialize", "--in", "{edited}", "--out", "{out}"]),
    "eval-pred": ("annotated", ["eval-gst", "--pred", "{edited}", "--gold", "{gold}"]),
    "eval-gold": ("gold", ["eval-gst", "--pred", "{annotated}", "--gold", "{edited}"]),
    "train-labeled": ("labeled", ["train-icooc", "--labeled", "{edited}",
                                  "--out", "{out}"]),
    "agreement": ("ratings", ["agreement", "--in", "{edited}"]),
}

_ROLL = ["turn_states", "*", "actions", 0, "roll"]

# (reader, path to the object that gains the keys, the keys, the problem
# reported after the line, formatted with the record's campaign id and
# the path taken).
# "*" in a path is the first index or key at which the rest of it exists.
_EXTRA_KEYS = [
    ("ingest", [], {"bogus": 1}, "bogus: not a transcript record field"),
    ("ingest", ["posts", 0], {"bogus": 1},
     "post 0 of campaign {cid!r}: bogus: not a post field"),
    ("ingest-rolls", [], {"bogus": 1}, "bogus: not a transcript record field"),
    ("ingest-rolls", ["posts", "*", "rolls", 0], {"bogus": 1},
     "post {p[1]} of campaign {cid!r}: rolls[0]: bogus: not a roll field"),
    ("ingest-rolls", ["posts", "*", "rolls", 0], {"consistent": "maybe", "bogus": 1},
     "post {p[1]} of campaign {cid!r}: rolls[0]: bogus: not a roll field"),
    ("ingest-rolls", ["posts", "*", "rolls", 0], {"consistent": "maybe"},
     "post {p[1]} of campaign {cid!r}: rolls[0]: consistent:"
     " must be true or false, not str"),
    ("train-corpus", [], {"bogus": 1}, "bogus: not a transcript record field"),
    ("train-corpus", ["posts", 0], {"bogus": 1},
     "post 0 of campaign {cid!r}: bogus: not a post field"),
    ("serialize", [], {"bogus_top": 1}, "bogus_top: not an annotated record field"),
    ("serialize", ["posts", 0], {"bogus": 1},
     "post 0 of campaign {cid!r}: bogus: not a post field"),
    ("serialize", ["turn_states", 0], {"bogus": 1},
     "turn_states[0]: bogus: not a turn state field"),
    ("serialize", ["turn_states", "*", "actions", 0], {"bogus": 1},
     "turn_states[{p[1]}]: actions[0]: bogus: not an action field"),
    ("serialize", _ROLL, {"bogus": 1},
     "turn_states[{p[1]}]: actions[0]: roll: bogus: not a roll field"),
    ("serialize", ["profiles", "*"], {"colour": "red"},
     "profiles[{p[1]!r}]: colour: not a profile field"),
    ("serialize", ["combat_spans", 0], {"bogus": 1},
     "combat_spans[0]: bogus: not a combat span field"),
    ("eval-pred", [], {"bogus_top": 1},
     "bogus_top: not an annotated or gold record field"),
    ("eval-pred", ["turn_slots", 0], {"bogus": 1},
     "turn_slots[0]: bogus: not a slot row field"),
    ("eval-pred", ["turn_slots", 0, "race"], {"bogus": 1},
     "turn_slots[0]: race: bogus: not a slot cell field"),
    ("train-gold", [], {"bogus": 1}, "bogus: not a gold record field"),
    ("train-gold", ["turn_states", 0], {"bogus": 1},
     "turn_states[0]: bogus: not a turn state field"),
    ("train-gold", ["turn_states", "*", "actions", 0], {"bogus": 1},
     "turn_states[{p[1]}]: actions[0]: bogus: not an action field"),
    ("train-gold", _ROLL, {"bogus": 1},
     "turn_states[{p[1]}]: actions[0]: roll: bogus: not a roll field"),
    ("train-gold", ["profiles", "*"], {"colour": "red"},
     "profiles[{p[1]!r}]: colour: not a profile field"),
    ("train-gold", ["combat_spans", 0], {"bogus": 1},
     "combat_spans[0]: bogus: not a combat span field"),
    ("eval-gold", [], {"bogus": 1}, "bogus: not an annotated or gold record field"),
    ("eval-gold", ["turn_slots", 0], {"bogus": 1},
     "turn_slots[0]: bogus: not a slot row field"),
    ("eval-gold", ["turn_slots", 0, "race"], {"bogus": 1},
     "turn_slots[0]: race: bogus: not a slot cell field"),
    ("train-labeled", [], {"lable": "OOC"}, "lable: not a labeled paragraph field"),
    ("agreement", [], {"scroes": [1, 2]}, "scroes: not a ratings line field"),
]


def _resolve(value, path):
    """``path`` with each "*" made the first index or key at which the
    rest of it exists in ``value``, or None."""
    if not path:
        return []
    head, rest = path[0], path[1:]
    if head == "*":
        keys = range(len(value)) if isinstance(value, list) else list(value)
        for key in keys:
            found = _resolve(value[key], rest)
            if found is not None:
                return [key] + found
        return None
    try:
        found = _resolve(value[head], rest)
    except (IndexError, KeyError, TypeError):
        return None
    return None if found is None else [head] + found


def _edit_first(source, target, path, edit):
    """Write ``source``'s records to ``target`` with ``edit`` applied to the
    object at ``path`` in the first record that has one; that record's line
    number, its campaign id (None for a record without one) and the path
    taken."""
    records = [json.loads(line) for line in source.read_text().splitlines()]
    for line, record in enumerate(records, start=1):
        taken = _resolve(record, path)
        if taken is not None:
            obj = record
            for key in taken:
                obj = obj[key]
            edit(obj)
            _write_jsonl(target, records)
            return line, record.get("campaign_id"), taken
    raise AssertionError(f"no record has {path}")


@pytest.mark.parametrize(
    "reader, path, fields, problem",
    _EXTRA_KEYS,
    ids=[f"{r}-{'.'.join(map(str, p)) or 'record'}-{'-'.join(f)}"
         for r, p, f, _ in _EXTRA_KEYS],
)
def test_an_extra_key_at_any_level_names_its_line_and_path(
    record_files, tmp_path, capsys, reader, path, fields, problem
):
    """Every decoder rejects a key it does not read, at every level of
    every record kind, through the command that reads that kind."""
    kind, template = _READERS[reader]
    edited = tmp_path / "edited.jsonl"
    line, cid, taken = _edit_first(
        record_files[kind], edited, path, lambda obj: obj.update(fields)
    )
    names = {name: str(file) for name, file in record_files.items()}
    out = tmp_path / "out"
    argv = [arg.format(**names, edited=edited, out=out) for arg in template]
    capsys.readouterr()
    assert main(argv) == 2
    problem = problem.format(cid=cid, p=taken)
    error = capsys.readouterr().err
    assert f"pbpstate: error: line {line}: {edited}: {problem}" in error
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "stats", "annotate"])
@pytest.mark.parametrize(
    "kind, first_key", [("annotated", "coverage"), ("gold", "turn_states")]
)
def test_a_transcript_command_rejects_a_record_of_another_kind(
    record_files, tmp_path, capsys, command, kind, first_key
):
    out = [] if command == "stats" else ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([command, "--in", str(record_files[kind]), *out]) == 2
    assert (
        f"line 1: {record_files[kind]}: {first_key}: not a transcript record field"
        in capsys.readouterr().err
    )
