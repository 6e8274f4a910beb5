"""The frequency heuristics, pinned by hand-counted oracle values."""

import re
from bisect import bisect_left
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from pbpstate import characters
from pbpstate.characters import build_profiles, identify_dm, post_facts, text_signals
from pbpstate.gazetteers import FIXED_SECTIONS, Gazetteers, load_gazetteers
from pbpstate.models import DUNGEON_MASTER
from pbpstate.pipeline import annotate_campaign
from pbpstate.synth import SynthConfig, generate

from conftest import facts_of, make_campaign


def profile_for(gaz, *texts):
    """Player p1's profile when p1 writes ``texts`` after one DM post."""
    campaign = make_campaign(
        [("dm", "The night is calm.")] + [("p1", text) for text in texts]
    )
    return build_profiles(campaign, gaz, facts_of(campaign, gaz))["p1"]


def most_mentioned(*posts):
    """``_most_mentioned`` over posts given as their lists of keys."""
    return characters._most_mentioned(posts, lambda keys: keys)


class TestMostMentioned:
    def test_highest_count_wins(self):
        assert most_mentioned(["a", "b"], ["b"]) == "b"

    def test_tie_breaks_to_earliest_first_occurrence(self):
        # Counts tie 2-2; "late" was seen first within the first post.
        assert most_mentioned(["late", "early"], ["late"], ["early"]) == "late"

    def test_empty_tally(self):
        assert most_mentioned() is None
        assert most_mentioned([], []) is None


def names_in(text, gaz):
    """The name candidates of a one-paragraph post."""
    return post_facts([text], gaz).names


class TestProperNames:
    def test_single_name_mid_fixture(self, gaz):
        assert names_in("Magnus spots two dead horses", gaz) == ("Magnus",)

    def test_sentence_initial_stopword_only(self, gaz):
        assert names_in("The wagon stops.", gaz) == ()

    def test_repeated_sentence_initial_name(self, gaz):
        text = "Merle steps away. Merle draws his sword."
        assert names_in(text, gaz) == ("Merle", "Merle")

    def test_lowercase_elsewhere_disqualifies_positional_capitals(self, gaz):
        text = "Stones litter the path. We walk over loose stones."
        assert names_in(text, gaz) == ()

    def test_gazetteer_terms_are_not_names(self, gaz):
        assert names_in("A Fighter and a Goblin met Kessa", gaz) == ("Kessa",)

    def test_adjacent_capitals_merge_into_bigram(self, gaz):
        text = "A dwarf named Gundren Rockseeker has hired you"
        assert names_in(text, gaz) == ("Gundren Rockseeker",)

    @pytest.mark.parametrize(
        "text, names",
        [
            # A break among other punctuation still starts a sentence ...
            ("“Stop!” Merle said", ("Stop", "Merle")),
            ("“Halt!” Stones fall. We dodge the stones.", ("Halt",)),
            # ... and a gap without one does not.
            ("“Halt,” Stones fall. We dodge the stones.", ("Halt", "Stones")),
            ("Kessa’s axe gleams", ("Kessa",)),
            ("the half-Orc waves", ()),
            ("Merle- and Kessa wave", ("Merle", "Kessa")),
            ("Merle- Kessa waves", ("Merle", "Kessa")),
            ("named Gundren\nRockseeker here", ("Gundren", "Rockseeker")),
        ],
        ids=["break-in-quote", "break-in-quote-positional", "comma-in-quote",
             "curly-possessive", "hyphen-joined", "hyphen-then-word",
             "hyphen-gap-no-bigram", "newline-no-bigram"],
    )
    def test_gaps_of_the_word_split(self, gaz, text, names):
        assert names_in(text, gaz) == names


class TestInferName:
    def test_most_frequent_wins(self, gaz):
        profile = profile_for(
            gaz,
            "Magnus waits. Magnus watches. Merle hums.",
            "Magnus paces. Magnus stops. Magnus nods. Merle naps.",
        )
        assert profile.name == "Magnus"

    def test_no_candidates(self, gaz):
        assert profile_for(gaz, "nothing capitalized here.").name is None

    def test_tie_breaks_to_earlier_first_seen(self, gaz):
        profile = profile_for(
            gaz,
            "Merle looks up. Magnus looks down.",
            "Magnus shrugs. Merle shrugs back.",
        )
        # Both counted twice; Merle occurred first.
        assert profile.name == "Merle"


class TestInferClass:
    def test_hand_count(self, gaz):
        profile = profile_for(
            gaz,
            "a fighter stands watch. the fighter yawns.",
            "the fighter naps while the wizard reads.",
        )
        assert profile.character_class == "fighter"

    def test_no_class_words(self, gaz):
        assert profile_for(gaz, "quiet night.").character_class is None

    def test_dm_flag_wins_regardless_of_counts(self, gaz):
        campaign = make_campaign(
            [("dm", "the wizard waves. the wizard bows."), ("p1", "a wizard nods.")]
        )
        profiles = build_profiles(campaign, gaz, facts_of(campaign, gaz))
        assert profiles["dm"].character_class == DUNGEON_MASTER
        assert profiles["p1"].character_class == "wizard"


class TestInferRace:
    def test_first_post_race_wins(self, gaz):
        profile = profile_for(
            gaz,
            "a dwarf walks in.",
            "an elf sings. an elf dances. an elf bows.",
        )
        assert profile.race == "dwarf"

    def test_first_post_several_races_earliest_offset(self, gaz):
        assert profile_for(gaz, "an elf greets the dwarf warmly.").race == "elf"

    def test_raceless_first_post_falls_back_to_frequency(self, gaz):
        profile = profile_for(
            gaz,
            "no races here.",
            "the elf waves. the elf nods. an elf hums. one human stares.",
        )
        assert profile.race == "elf"

    def test_no_race_words_anywhere(self, gaz):
        assert profile_for(gaz, "nothing to see.").race is None


class TestInferPronouns:
    def test_hand_count(self, gaz):
        profile = profile_for(
            gaz,
            "He draws his sword",  # he-forms x2
            "she watches.",  # she-forms x1
        )
        assert profile.pronouns == "he/him"

    def test_no_third_person_pronouns(self, gaz):
        assert profile_for(gaz, "I wait. You wait.").pronouns is None

    def test_contraction_counts(self, gaz):
        assert profile_for(gaz, "he'll cast something flashy").pronouns == "he/him"

    def test_tie_breaks_by_document_order_within_a_post(self, gaz):
        # One form from each set; the earlier offset must win the tie
        # even though the sets are configured in he/she/they order.
        assert profile_for(gaz, "she saw him there").pronouns == "she/her"
        assert profile_for(gaz, "he saw her there").pronouns == "he/him"


class TestInventory:
    def test_first_person_possessive(self, gaz):
        profile = profile_for(gaz, "I grab my axe")
        assert profile.pronouns is None
        assert profile.inventory == {"axe"}

    @pytest.mark.parametrize(
        "text, inventory",
        [
            ("I grab my\naxe", {"axe"}),
            ("I grab my half-axe", set()),
            ("I grab my axe-head", set()),
            ("I grab my- axe", set()),
            ("I grab Kessa’s axe", set()),
        ],
        ids=["newline-gap", "hyphen-joined-item", "hyphen-joined-item-first",
             "hyphen-gap", "curly-possessive-name"],
    )
    def test_gaps_of_the_word_split(self, gaz, text, inventory):
        assert profile_for(gaz, text).inventory == inventory

    def test_own_pronoun_possessive(self, gaz):
        profile = profile_for(gaz, "her sword")
        assert profile.pronouns == "she/her"
        assert profile.inventory == {"sword"}

    def test_other_pronoun_possessive_ignored(self, gaz):
        profile = profile_for(gaz, "He waves. He nods. He spots her sword.")
        assert profile.pronouns == "he/him"
        assert profile.inventory == set()


class TestSpells:
    def test_capitalized_spell(self, gaz):
        profile = profile_for(gaz, "he'll cast Chill Touch on one of the goblins")
        assert profile.spells == {"Chill Touch"}

    def test_lowercase_spell_is_title_cased(self, gaz):
        profile = profile_for(gaz, "I will cast sacred flame at the nearest one")
        assert profile.spells == {"Sacred Flame"}

    def test_cast_with_nothing_following(self, gaz):
        assert profile_for(gaz, "the die was cast").spells == set()

    def test_capture_is_capped_at_four_tokens(self, gaz):
        profile = profile_for(
            gaz, "casting glowing emerald spectral guardian weapon now"
        )
        assert profile.spells == {"Glowing Emerald Spectral Guardian"}

    @pytest.mark.parametrize(
        "text, spells",
        [
            # The verb ends inside a word; what follows is not a spell.
            ("I swing my cast-iron pan", set()),
            ("I cast-iron skillet", set()),
            ("I cast half-light on Merle", {"Half-light"}),
            ("I cast half- light now", {"Half"}),
            ("I cast Kessa’s ward now", {"Kessa’s Ward"}),
        ],
        ids=["verb-inside-word", "verb-inside-word-then-word", "hyphen-joined",
             "hyphen-gap", "curly-possessive"],
    )
    def test_gaps_of_the_word_split(self, gaz, text, spells):
        assert profile_for(gaz, text).spells == spells


class TestBuildProfiles:
    def test_dm_is_first_poster(self, sample_game):
        assert identify_dm(sample_game) == "griffin"

    def test_single_post_campaign(self, gaz):
        campaign = make_campaign([("solo", "The night passes.")])
        profiles = build_profiles(campaign, gaz, facts_of(campaign, gaz))
        assert set(profiles) == {"solo"}
        assert profiles["solo"].is_dm

    def test_dm_profile_is_scrubbed(self, sample_game, gaz):
        profiles = build_profiles(sample_game, gaz, facts_of(sample_game, gaz))
        dm = profiles["griffin"]
        assert dm.is_dm
        assert dm.character_class == DUNGEON_MASTER
        assert dm.name is None and dm.race is None and dm.pronouns is None
        assert dm.inventory == frozenset() and dm.spells == frozenset()

    def test_sample_game_traces(self, sample_game, gaz):
        profiles = build_profiles(sample_game, gaz, facts_of(sample_game, gaz))
        # Travis's own posts mention Merle before Taako, once each; the
        # most-frequent-name rule lands on Merle for this short excerpt.
        assert profiles["travis"].name == "Merle"
        # Clint casts sacred flame in his one in-character line.
        assert profiles["clint"].spells == {"Sacred Flame"}

    def test_determinism(self, sample_game, gaz):
        facts = facts_of(sample_game, gaz)
        assert build_profiles(sample_game, gaz, facts) == build_profiles(
            sample_game, gaz, facts_of(sample_game, gaz)
        )

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
            p1 = profile_for(gaz, *(texts[j] for j in order))
            return (p1.name, p1.character_class, p1.pronouns)

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
        )
        assert facts.names == ("Kessa",)
        assert facts.classes == ("fighter",)
        assert facts.races == ("dwarf",)
        assert facts.pronouns == ("she/her", "she/her")
        assert facts.items == (("her", "sword"),)
        assert facts.spells == ("Ember Lance",)
        assert facts.cues() == {
            "name", "class", "race", "pronouns", "inventory", "spells"
        }

    def test_non_item_words_are_no_cue(self, gaz):
        facts = post_facts(["I keep my courage."], gaz)
        assert facts.items == ()
        assert facts.cues() == set()
        assert profile_for(gaz, "his courage held").inventory == set()

    def test_cast_phrase_stops_at_a_paragraph_break(self, gaz):
        paragraphs = ["and then i cast", "sacred flame at the door."]
        assert post_facts(paragraphs, gaz).spells == ()
        assert profile_for(gaz, paragraphs).spells == set()

    def test_newline_inside_a_paragraph_is_whitespace(self, gaz):
        facts = post_facts(["i cast sacred\nflame at dusk"], gaz)
        assert facts.spells == ("Sacred Flame",)

    def test_possessive_pair_spans_the_paragraph_join(self, gaz):
        # Inventory pairs read the post's text, where paragraphs are joined
        # by a newline, so the gap is whitespace.
        assert post_facts(["I reach for my", "axe."], gaz).items == (("my", "axe"),)


def oracle_names(words, gaps, gazetteers):
    """Name candidates by a walk over every word, as the rule reads."""

    def is_capitalized(surface):
        return (
            len(surface) >= 2
            and surface[0].isupper()
            and any(c.islower() for c in surface[1:])
        )

    blocklist = gazetteers.name_blocklist
    lowercase_types, capitalized_mid_sentence = set(), set()
    capitalized = [None] * len(words)
    for k, surface in enumerate(words):
        if surface.islower():
            lowercase_types.add(surface.lower())
        if is_capitalized(surface):
            stripped = characters._strip_possessive(surface)
            lowered = stripped.lower()
            if k and characters._SENTENCE_BREAKS.isdisjoint(gaps[k]):
                capitalized_mid_sentence.add(lowered)
            capitalized[k] = (stripped, lowered)
    qualified = [
        c[0]
        if c is not None
        and c[1] not in blocklist
        and (c[1] in capitalized_mid_sentence or c[1] not in lowercase_types)
        else None
        for c in capitalized
    ]
    names, joinable = [], False
    for candidate, gap in zip(qualified, gaps):
        if candidate is None:
            joinable = False
        elif joinable and gap.isspace() and "\n" not in gap:
            names[-1] += " " + candidate
            joinable = False
        else:
            names.append(candidate)
            joinable = True
    return names


def oracle_spells(text, words, gaps, verbs, gazetteers):
    """Spell phrases by walking the words' offsets from each verb's end."""
    ends = list(accumulate(len(gap) + len(word) for gap, word in zip(gaps, words)))
    starts = [end - len(word) for end, word in zip(ends, words)]
    phrases = []
    for verb_end, paragraph_end in verbs:
        phrase, previous_end = [], verb_end
        for k in range(bisect_left(starts, verb_end), len(words)):
            if (
                starts[k] >= paragraph_end
                or text[previous_end : starts[k]].strip()
                or len(phrase) >= 4
                or words[k].lower() in gazetteers.stopwords
            ):
                break
            phrase.append(words[k])
            previous_end = ends[k]
        if phrase:
            phrases.append(" ".join(w.capitalize() for w in phrase))
    return phrases


def oracle_facts(paragraphs, gazetteers):
    """(names, spells) of a post by the oracles above."""
    text = "\n".join(paragraphs)
    parts = characters._WORD_RE.split(text)
    words, gaps = parts[1::2], parts[0::2]
    offsets = [0, *accumulate(len(p) + 1 for p in paragraphs)]
    verbs = [
        (start + offset + len(verb), start + len(paragraph))
        for start, paragraph in zip(offsets, paragraphs)
        for verb, offset in gazetteers.find(paragraph)["cast"]
    ]
    return (
        tuple(oracle_names(words, gaps, gazetteers)),
        tuple(oracle_spells(text, words, gaps, verbs, gazetteers)),
    )


_GAZ = load_gazetteers()
_WORDS = st.one_of(
    st.text(st.sampled_from([*characters._LETTERS, *"'’-0123456789"]), max_size=5),
    st.sampled_from(sorted(_GAZ.stopwords)),
    st.sampled_from([*FIXED_SECTIONS["cast"], "Cast", "CASTING", "caſt", "cast×"]),
    st.sampled_from(
        ["Kessa", "kessa", "Kessa’s", "Merle's", "McDONALD", "ǅemal", "Gundren",
         "Fighter", "dwarf", "sacred", "Flame", "half-light"]
    ),
)
_GAPS = st.sampled_from(
    ["", " ", " ", " ", "  ", "\t", "\n", " \n ", "\xa0", "\x85", "\u2028",
     ". ", "! ", "?", "-", "'", "’", "1", ", "]
)
_PARAGRAPHS = st.lists(st.tuples(_WORDS, _GAPS), max_size=12).map(
    lambda pairs: "".join(word + gap for word, gap in pairs)
)
_POSTS = st.lists(_PARAGRAPHS, min_size=1, max_size=3)


class TestAgainstTheWordWalk:
    """Names and spells equal the per-word walks the two patterns replaced,
    kept above as oracles."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_POSTS)
    def test_equal_on_drawn_posts(self, paragraphs):
        facts = post_facts(paragraphs, _GAZ)
        assert (facts.names, facts.spells) == oracle_facts(paragraphs, _GAZ)

    @pytest.mark.parametrize(
        "paragraphs, names, spells",
        [
            # A capital after the lowercase letter still capitalizes.
            (["McDONALD waves"], ("McDONALD",), ()),
            (["we met McDONALD there"], ("McDONALD",), ()),
            # The title-case letter is neither upper nor lower case.
            (["ǅemal waves"], (), ()),
            (["Aǅ waves. Aǅa waves."], ("Aǅa",), ()),
            # A math sign after the verb is no letter, so it starts no phrase.
            (["I cast× spark now"], (), ()),
            # ... and it ends a name.
            (["we meet Kessa×Merle today"], ("Kessa", "Merle"), ()),
            (["Merle÷2 waits"], ("Merle",), ()),
            (["I caſt sacred flame"], (), ("Sacred Flame",)),
            (["I cast the spell"], (), ()),
            (["I cast\tsacred\n flame. fire"], (), ("Sacred Flame",)),
        ],
        ids=["mcdonald", "mcdonald-mid-sentence", "title-case",
             "title-case-after-upper", "non-word-letter", "times-sign",
             "division-sign", "long-s",
             "stopword-first", "tab-and-newline"],
    )
    def test_named_cases(self, paragraphs, names, spells):
        facts = post_facts(paragraphs, _GAZ)
        assert (facts.names, facts.spells) == (names, spells)
        assert oracle_facts(paragraphs, _GAZ) == (names, spells)

    def test_every_letter_is_a_word_character(self):
        # So a word ``find`` matched, a cast verb, is never followed by a
        # letter of the class, and a phrase starts only after whitespace.
        for letter in characters._LETTERS:
            assert re.fullmatch(r"\w", letter), letter

    def test_lowercase_words_are_their_own_lowercase(self):
        # ``set(filter(str.islower, words))`` stands for the lowercased
        # types only if no letter of the class changes when lowercased
        # inside a lowercase word.
        for letter in characters._LETTERS:
            word = "a" + letter
            assert not word.islower() or word.lower() == word, letter


class TestReadEachPostOnce:
    def test_annotating_a_campaign_tokenizes_each_post_once(
        self, sample_game, gaz, monkeypatch
    ):
        calls = {"split": 0, "names": 0}
        word_re, names = characters._WORD_RE, characters.extract_proper_names

        class CountingWordRe:
            def split(self, text):
                calls["split"] += 1
                return word_re.split(text)

        def counting_names(*args, **kwargs):
            calls["names"] += 1
            return names(*args, **kwargs)

        monkeypatch.setattr(characters, "_WORD_RE", CountingWordRe())
        monkeypatch.setattr(characters, "extract_proper_names", counting_names)
        annotate_campaign(sample_game, gaz)
        posts = len(sample_game.posts)
        assert calls == {"split": posts, "names": posts}

    def test_annotating_a_campaign_scans_each_paragraph_once(self, gaz, monkeypatch):
        config = SynthConfig(seed=7, num_campaigns=1, players_per_campaign=4,
                             turns_per_campaign=40, combat_density=0.06)
        [(campaign, _)] = generate(config)
        calls = []
        find = Gazetteers.find

        def counting_find(self, text):
            calls.append(text)
            return find(self, text)

        monkeypatch.setattr(Gazetteers, "find", counting_find)
        annotated = annotate_campaign(campaign, gaz)
        # Combat, monsters and rolls are all read, from the same hits.
        assert any(span.monsters for span in annotated.combat_spans)
        assert any(state.actions for state in annotated.turn_states)
        assert calls == [p for post in campaign.posts for p in post.paragraphs]
