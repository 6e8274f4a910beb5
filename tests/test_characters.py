"""The frequency heuristics, pinned by hand-counted oracle values."""

from pbpstate import characters
from pbpstate.characters import (
    MentionCounts,
    build_profiles,
    extract_inventory,
    extract_proper_names,
    extract_spells,
    identify_dm,
    infer_class,
    infer_name,
    infer_pronouns,
    infer_race,
    post_facts,
    text_signals,
)
from pbpstate.models import DUNGEON_MASTER
from pbpstate.pipeline import annotate_campaign

from conftest import make_campaign, make_post


def posts_for(*texts, author="p1"):
    return [make_post(i, t, author=author) for i, t in enumerate(texts)]


class TestMentionCounts:
    def test_highest_count_wins(self):
        tally = MentionCounts()
        for key, post in [("a", 0), ("b", 0), ("b", 1)]:
            tally.add(key, post)
        assert tally.best() == "b"

    def test_tie_breaks_to_earliest_first_occurrence(self):
        tally = MentionCounts()
        for key, post in [("late", 1), ("early", 1), ("late", 2), ("early", 3)]:
            tally.add(key, post)
        # Counts tie 2-2; "late" was seen first within post 1.
        assert tally.best() == "late"

    def test_empty_tally(self):
        assert MentionCounts().best() is None


class TestProperNames:
    def test_single_name_mid_fixture(self, gaz):
        assert extract_proper_names("Magnus spots two dead horses", gaz) == ["Magnus"]

    def test_sentence_initial_stopword_only(self, gaz):
        assert extract_proper_names("The wagon stops.", gaz) == []

    def test_repeated_sentence_initial_name(self, gaz):
        text = "Merle steps away. Merle draws his sword."
        assert extract_proper_names(text, gaz) == ["Merle", "Merle"]

    def test_lowercase_elsewhere_disqualifies_positional_capitals(self, gaz):
        text = "Stones litter the path. We walk over loose stones."
        assert extract_proper_names(text, gaz) == []

    def test_gazetteer_terms_are_not_names(self, gaz):
        assert extract_proper_names("A Fighter and a Goblin met Kessa", gaz) == [
            "Kessa"
        ]

    def test_adjacent_capitals_merge_into_bigram(self, gaz):
        text = "A dwarf named Gundren Rockseeker has hired you"
        assert extract_proper_names(text, gaz) == ["Gundren Rockseeker"]


class TestInferName:
    def test_most_frequent_wins(self, gaz):
        posts = posts_for(
            "Magnus waits. Magnus watches. Merle hums.",
            "Magnus paces. Magnus stops. Magnus nods. Merle naps.",
        )
        assert infer_name(posts, gaz) == "Magnus"

    def test_no_candidates(self, gaz):
        assert infer_name(posts_for("nothing capitalized here."), gaz) is None

    def test_tie_breaks_to_earlier_first_seen(self, gaz):
        posts = posts_for(
            "Merle looks up. Magnus looks down.",
            "Magnus shrugs. Merle shrugs back.",
        )
        # Both counted twice; Merle occurred first.
        assert infer_name(posts, gaz) == "Merle"


class TestInferClass:
    def test_hand_count(self, gaz):
        posts = posts_for(
            "a fighter stands watch. the fighter yawns.",
            "the fighter naps while the wizard reads.",
        )
        assert infer_class(posts, gaz) == "fighter"

    def test_no_class_words(self, gaz):
        assert infer_class(posts_for("quiet night."), gaz) is None

    def test_dm_flag_wins_regardless_of_counts(self, gaz):
        posts = posts_for("the wizard waves. the wizard bows.")
        assert infer_class(posts, gaz, is_dm=True) == DUNGEON_MASTER


class TestInferRace:
    def test_first_post_race_wins(self, gaz):
        posts = posts_for(
            "a dwarf walks in.",
            "an elf sings. an elf dances. an elf bows.",
        )
        assert infer_race(posts, gaz) == "dwarf"

    def test_first_post_several_races_earliest_offset(self, gaz):
        posts = posts_for("an elf greets the dwarf warmly.")
        assert infer_race(posts, gaz) == "elf"

    def test_raceless_first_post_falls_back_to_frequency(self, gaz):
        posts = posts_for(
            "no races here.",
            "the elf waves. the elf nods. an elf hums. one human stares.",
        )
        assert infer_race(posts, gaz) == "elf"

    def test_no_race_words_anywhere(self, gaz):
        assert infer_race(posts_for("nothing to see."), gaz) is None


class TestInferPronouns:
    def test_hand_count(self, gaz):
        posts = posts_for(
            "He draws his sword",  # he-forms x2
            "she watches.",  # she-forms x1
        )
        assert infer_pronouns(posts, gaz) == "he/him"

    def test_no_third_person_pronouns(self, gaz):
        assert infer_pronouns(posts_for("I wait. You wait."), gaz) is None

    def test_contraction_counts(self, gaz):
        posts = posts_for("he'll cast something flashy")
        assert infer_pronouns(posts, gaz) == "he/him"

    def test_tie_breaks_by_document_order_within_a_post(self, gaz):
        # One form from each set; the earlier offset must win the tie
        # even though the sets are configured in he/she/they order.
        assert infer_pronouns(posts_for("she saw him there"), gaz) == "she/her"
        assert infer_pronouns(posts_for("he saw her there"), gaz) == "he/him"


class TestInventory:
    def test_first_person_possessive(self, gaz):
        assert extract_inventory(posts_for("I grab my axe"), None, gaz) == {"axe"}

    def test_own_pronoun_possessive(self, gaz):
        assert extract_inventory(posts_for("her sword"), "she/her", gaz) == {"sword"}

    def test_other_pronoun_possessive_ignored(self, gaz):
        assert extract_inventory(posts_for("her sword"), "he/him", gaz) == set()

    def test_non_gazetteer_noun_needs_fallback(self, gaz):
        posts = posts_for("his courage held")
        assert extract_inventory(posts, "he/him", gaz) == set()
        assert extract_inventory(posts, "he/him", gaz, fallback=True) == {"courage"}


class TestSpells:
    def test_capitalized_spell(self, gaz):
        posts = posts_for("he'll cast Chill Touch on one of the goblins")
        assert extract_spells(posts, gaz) == {"Chill Touch"}

    def test_lowercase_spell_is_title_cased(self, gaz):
        posts = posts_for("I will cast sacred flame at the nearest one")
        assert extract_spells(posts, gaz) == {"Sacred Flame"}

    def test_cast_with_nothing_following(self, gaz):
        assert extract_spells(posts_for("the die was cast"), gaz) == set()

    def test_capture_is_capped_at_four_tokens(self, gaz):
        posts = posts_for("casting glowing emerald spectral guardian weapon now")
        spells = extract_spells(posts, gaz)
        assert spells == {"Glowing Emerald Spectral Guardian"}


class TestBuildProfiles:
    def test_dm_is_first_poster(self, sample_game):
        assert identify_dm(sample_game) == "griffin"

    def test_single_post_campaign(self, gaz):
        campaign = make_campaign([("solo", "The night passes.")])
        profiles = build_profiles(campaign, gaz)
        assert set(profiles) == {"solo"}
        assert profiles["solo"].is_dm

    def test_dm_profile_is_scrubbed(self, sample_game, gaz):
        profiles = build_profiles(sample_game, gaz)
        dm = profiles["griffin"]
        assert dm.is_dm
        assert dm.character_class == DUNGEON_MASTER
        assert dm.name is None and dm.race is None and dm.pronouns is None
        assert dm.inventory == frozenset() and dm.spells == frozenset()

    def test_sample_game_traces(self, sample_game, gaz):
        profiles = build_profiles(sample_game, gaz)
        # Travis's own posts mention Merle before Taako, once each; the
        # most-frequent-name rule lands on Merle for this short excerpt.
        assert profiles["travis"].name == "Merle"
        # Clint casts sacred flame in his one in-character line.
        assert profiles["clint"].spells == {"Sacred Flame"}

    def test_determinism(self, sample_game, gaz):
        assert build_profiles(sample_game, gaz) == build_profiles(sample_game, gaz)

    def test_permutation_changes_only_tie_broken_fields(self, gaz):
        # Strict counts everywhere: permuting post order may only move the
        # race (first-post rule); name, class, and pronouns stay put.
        texts = [
            "Kessa waits. She kept her pack shut. A fighter rests.",
            "Kessa hums. Kessa looks up. The fighter stirs. She naps. "
            "Her dreams wander. A dwarf passes by.",
            "Kessa stands. The fighter and the wizard argue. She yawns.",
        ]
        def profile(order):
            posts = [make_post(i, texts[j], author="p1") for i, j in enumerate(order)]
            campaign = make_campaign([("dm", "The night is calm.")])
            return (
                infer_name(posts, gaz),
                infer_class(posts, gaz),
                infer_pronouns(posts, gaz),
            )

        baseline = profile([0, 1, 2])
        for order in ([2, 1, 0], [1, 0, 2], [2, 0, 1]):
            assert profile(order) == baseline


class TestTextSignals:
    def test_cue_families(self, gaz):
        assert text_signals("Kessa waits.", gaz) == {"name"}
        assert text_signals("the fighter naps.", gaz) == {"class"}
        assert text_signals("a dwarf sings.", gaz) == {"race"}
        assert text_signals("She kept her watch.", gaz) == {"pronouns"}
        assert text_signals("I keep my axe close.", gaz) == {"inventory"}
        assert text_signals("I cast ember lance at the dark.", gaz) == {"spells"}

    def test_inert_text(self, gaz):
        assert text_signals("The wagon creaks along the rutted trail.", gaz) == set()


class TestPostFacts:
    def test_one_post_holds_every_cue_family(self, gaz):
        facts = post_facts(
            ["Kessa the dwarf fighter draws her sword.", "She will cast ember lance."],
            gaz,
            index=4,
        )
        assert facts.index == 4
        assert facts.names == ("Kessa",)
        assert facts.classes == ("fighter",)
        assert facts.races == (("dwarf", 10),)
        assert facts.pronouns == ("she/her", "she/her")
        assert facts.items == (("her", "sword"),)
        assert facts.spells == ("Ember Lance",)
        assert facts.cues() == {
            "name", "class", "race", "pronouns", "inventory", "spells"
        }

    def test_fallback_words_are_kept_but_are_no_cue(self, gaz):
        facts = post_facts(["I keep my courage."], gaz)
        assert facts.items == ()
        assert facts.fallback_items == (("my", "courage"),)
        assert facts.cues() == set()

    def test_cast_phrase_stops_at_a_paragraph_break(self, gaz):
        paragraphs = ["and then i cast", "sacred flame at the door."]
        assert post_facts(paragraphs, gaz).spells == ()
        assert extract_spells([make_post(0, paragraphs)], gaz) == set()

    def test_newline_inside_a_paragraph_is_whitespace(self, gaz):
        facts = post_facts(["i cast sacred\nflame at dusk"], gaz)
        assert facts.spells == ("Sacred Flame",)

    def test_possessive_pair_spans_the_paragraph_join(self, gaz):
        # Inventory pairs read the post's text, where paragraphs are joined
        # by a newline, so the gap is whitespace.
        assert post_facts(["I reach for my", "axe."], gaz).items == (("my", "axe"),)


class TestReadEachPostOnce:
    def test_annotating_a_campaign_tokenizes_each_post_once(
        self, sample_game, gaz, monkeypatch
    ):
        calls = {"tokenize": 0, "names": 0}
        tokenize, names = characters._tokenize, characters.extract_proper_names

        def counting_tokenize(text):
            calls["tokenize"] += 1
            return tokenize(text)

        def counting_names(*args, **kwargs):
            calls["names"] += 1
            return names(*args, **kwargs)

        monkeypatch.setattr(characters, "_tokenize", counting_tokenize)
        monkeypatch.setattr(characters, "extract_proper_names", counting_names)
        annotate_campaign(sample_game, gaz)
        posts = len(sample_game.posts)
        assert calls == {"tokenize": posts, "names": posts}
