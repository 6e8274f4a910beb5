"""Synthetic play-by-post campaigns with ground truth known at plant time.

The generator is the oracle for every heuristic in the package: each
planted cue is recorded in the gold annotations the moment it is written
into a paragraph, never re-inferred. Templates are built from a vocabulary
that is inert with respect to the extractors (every sentence-initial word
is a stopword, no stray pronoun forms, no gazetteer terms outside cues), so
on a distractor-free corpus the heuristic coverage equals the planted
signal rate exactly. Distractor sentences (capitalized place names, other
classes and races) are available to make sub-perfect accuracy measurable.

Generation is a pure function of the config; campaigns derive their own
seeds so they could be produced in parallel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .dice import extract_rolls, format_dice_expr
from .errors import ConfigError
from .icooc import IC, OOC, turn_label
from .models import (
    DUNGEON_MASTER,
    Action,
    ActionKind,
    Campaign,
    CharacterProfile,
    CombatSpan,
    DiceRoll,
    GoldAnnotations,
    Post,
    TurnState,
)

NAMES = (
    "Aldric", "Brenna", "Caldus", "Doria", "Elsbeth", "Faelar", "Gorim",
    "Hesper", "Ilvani", "Joruk", "Kessa", "Lorvan", "Maelis", "Nyssa",
    "Orin", "Pellam", "Quinra", "Rovan", "Selka", "Varis",
)

PLACES = (
    "Thornbury", "Eastmarch", "Greyford", "Duskmere", "Hollowbrook",
    "Redfen", "Stonebridge", "Ashvale",
)

SPELLS = (
    "ember lance", "frost coil", "glimmer ward", "stone echo",
    "gale step", "shadow knot", "dawn spark", "river chant",
)

CHECK_SKILLS = ("perception", "athletics", "arcana", "stealth")

FILLER_IC = (
    "The wagon creaks along the rutted trail.",
    "A cold wind stirs the branches overhead.",
    "The fire crackles low against the dark.",
    "The road bends toward a shallow ford.",
    "An old milestone leans half buried in moss.",
    "The evening light thins over the hills.",
    "A distant bell sounds somewhere beyond the ridge.",
    "The smell of rain hangs over the camp.",
)

COMBAT_IC = (
    "The clash of steel rings out across the clearing.",
    "The skirmish surges back and forth in the mud.",
    "A wild blow whistles past and bites into the dirt.",
    "The melee tightens as foes press in from the flank.",
    "A battle cry echoes off the rocks.",
    "The fray scatters sparks and dust in every direction.",
)

FILLER_OOC = (
    "You can take the help action before moving this round.",
    "That modifier stacks with the cover penalty by the book.",
    "The surprise rules allow only a single action this round.",
    "Your bonus applies to the save as written.",
    "The turn order puts the archers last again.",
    "You need a 15 or better on that check to pass.",
    "The table ruling from last session still stands.",
    "That reach weapon rule works differently here.",
)

NAME_CUES = (
    "{name} edges toward the treeline.",
    "At the rear, {name} keeps watch.",
    "Without a word, {name} presses on.",
)

CLASS_CUES = (
    "The {cls} checks the map again.",
    "No one argues with a {cls} about this.",
    "The party defers to the {cls} here.",
)

RACE_CUES = (
    "A {race} knows these hills well.",
    "Only a {race} could read this carving.",
    "The patience of a {race} helps here.",
)

PRONOUN_CUES = (
    "{subject} kept {possessive} eyes on the ridge.",
    "{subject} tightened {possessive} grip on the reins.",
)

INVENTORY_CUES = (
    "I keep my {item} close at hand.",
    "I checked my {item} twice before dawn.",
)

SPELL_CUES = (
    "I cast {spell} at the far shadows.",
    "I will cast {spell} if anything moves.",
)

DISTRACTOR_PLACE = "The road to {place} narrows ahead."
DISTRACTOR_CLASS = "The {cls} at the front calls a halt."
DISTRACTOR_RACE = "A {race} merchant passes the other way."

_PRONOUN_FORMS = {
    "he/him": ("He", "his"),
    "she/her": ("She", "her"),
    "they/them": ("They", "their"),
}

_CLASSES = (
    "barbarian", "bard", "cleric", "druid", "fighter", "monk",
    "paladin", "ranger", "rogue", "sorcerer", "warlock", "wizard",
)
_RACES = (
    "dragonborn", "dwarf", "elf", "gnome", "half-elf", "halfling",
    "half-orc", "human", "tiefling",
)
_ITEMS = (
    "axe", "sword", "bow", "shield", "dagger", "staff", "spellbook",
    "wand", "torch", "rope", "lantern", "cloak",
)
_MONSTERS = ("goblin", "kobold", "bandit", "wolf", "skeleton", "orc")
_NUMBER_WORDS = {2: "two", 3: "three", 4: "four", 5: "five"}

MONSTER_NARRATIONS = (
    "There are {count} {monster}s ahead, fanning out between the trees.",
    "Behind the rocks, {count} {monster}s wait in the gloom.",
)


@dataclass(frozen=True)
class SynthConfig:
    """``signal_rate`` is the probability that each of the six cue families
    (name, class, race, pronouns, inventory, spells) is planted into an
    eligible post, drawn once per family."""

    seed: int = 0
    num_campaigns: int = 10
    players_per_campaign: int = 5
    turns_per_campaign: int = 50
    combat_density: float = 0.04
    signal_rate: float = 1.0
    ooc_fraction: float = 0.3
    distractor_rate: float = 0.1
    loose_check_rate: float = 0.05
    gap_turns: int = 3

    def __post_init__(self) -> None:
        if self.num_campaigns < 1:
            raise ConfigError("num_campaigns must be at least 1")
        if self.players_per_campaign < 2:
            raise ConfigError("players_per_campaign must include a DM and a player")
        if self.turns_per_campaign < 2:
            raise ConfigError("turns_per_campaign must be at least 2")
        if self.turns_per_campaign < self.players_per_campaign:
            raise ConfigError("every player needs at least one turn")
        for name in ("combat_density", "signal_rate", "ooc_fraction",
                     "distractor_rate", "loose_check_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.gap_turns < 1:
            raise ConfigError("gap_turns must be at least 1")


@dataclass(frozen=True)
class PlayerIdentity:
    player_id: str
    name: str
    character_class: str
    race: str
    pronouns: str
    inventory: frozenset[str]


@dataclass
class _PostDraft:
    paragraphs: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    planted_rolls: list[tuple[ActionKind, str | None]] = field(default_factory=list)
    has_cue: bool = False
    in_combat: bool = False

    def add(self, text: str, label: str) -> None:
        self.paragraphs.append(text)
        self.labels.append(label)


def _consistent_roll(rng: random.Random, count: int, faces: int) -> DiceRoll:
    modifier = rng.randint(0, 6)
    low = count + modifier
    high = count * faces + modifier
    return DiceRoll(
        count=count, faces=faces, modifier=modifier, result=rng.randint(low, high)
    )


def _assign_identities(
    rng: random.Random, player_ids: list[str]
) -> dict[str, PlayerIdentity]:
    names = rng.sample(NAMES, len(player_ids))
    identities = {}
    for pid, name in zip(player_ids, names):
        identities[pid] = PlayerIdentity(
            player_id=pid,
            name=name,
            character_class=rng.choice(_CLASSES),
            race=rng.choice(_RACES),
            pronouns=rng.choice(tuple(_PRONOUN_FORMS)),
            inventory=frozenset(rng.sample(_ITEMS, rng.randint(1, 2))),
        )
    return identities


def _ic_cue_paragraph(
    rng: random.Random, identity: PlayerIdentity, rate: float
) -> tuple[str, set[str], str | None, str | None]:
    """One narrative paragraph carrying the player's planted cues.

    Returns (paragraph, planted slot names, mentioned item, cast spell).
    """
    sentences: list[str] = []
    planted: set[str] = set()
    item: str | None = None
    spell: str | None = None
    if rng.random() < rate:
        sentences.append(rng.choice(NAME_CUES).format(name=identity.name))
        planted.add("name")
    if rng.random() < rate:
        sentences.append(
            rng.choice(CLASS_CUES).format(cls=identity.character_class)
        )
        planted.add("character_class")
    if rng.random() < rate:
        sentences.append(rng.choice(RACE_CUES).format(race=identity.race))
        planted.add("race")
    if rng.random() < rate:
        subject, possessive = _PRONOUN_FORMS[identity.pronouns]
        sentences.append(
            rng.choice(PRONOUN_CUES).format(subject=subject, possessive=possessive)
        )
        planted.add("pronouns")
    if rng.random() < rate:
        item = rng.choice(sorted(identity.inventory))
        sentences.append(rng.choice(INVENTORY_CUES).format(item=item))
        planted.add("inventory")
    if rng.random() < rate:
        raw = rng.choice(SPELLS)
        spell = " ".join(w.capitalize() for w in raw.split())
        sentences.append(rng.choice(SPELL_CUES).format(spell=raw))
        planted.add("spells")
    sentences.append(rng.choice(FILLER_IC))
    return " ".join(sentences), planted, item, spell


def _distractor_sentence(rng: random.Random, identity: PlayerIdentity | None) -> str:
    kind = rng.choice(("place", "class", "race"))
    if kind == "place":
        return DISTRACTOR_PLACE.format(place=rng.choice(PLACES))
    if kind == "class":
        avoid = identity.character_class if identity else None
        choices = [c for c in _CLASSES if c != avoid]
        return DISTRACTOR_CLASS.format(cls=rng.choice(choices))
    avoid = identity.race if identity else None
    choices = [r for r in _RACES if r != avoid]
    return DISTRACTOR_RACE.format(race=rng.choice(choices))


def _attack_paragraphs(rng: random.Random, draft: _PostDraft) -> None:
    draft.add(rng.choice(COMBAT_IC), IC)
    attack = _consistent_roll(rng, 1, 20)
    damage = _consistent_roll(rng, 1, rng.choice((4, 6, 8, 10)))
    draft.add(
        f"Attack: {format_dice_expr(attack)} Damage: {format_dice_expr(damage)}",
        OOC,
    )
    draft.planted_rolls.append((ActionKind.ATTACK, None))
    draft.planted_rolls.append((ActionKind.DAMAGE_OR_HEAL, None))


def _initiative_paragraphs(
    rng: random.Random, draft: _PostDraft, monsters: list[tuple[str, int]]
) -> None:
    # One paragraph per monster kind: the count guess takes the largest
    # number near a mention, so kinds must not share a paragraph.
    for (monster, count), template in zip(monsters, MONSTER_NARRATIONS):
        draft.add(
            template.format(count=_NUMBER_WORDS[count], monster=monster), IC
        )
    roll = _consistent_roll(rng, 1, 20)
    draft.add(f"Roll for initiative, everyone! {format_dice_expr(roll)}", OOC)
    draft.planted_rolls.append((ActionKind.UNKNOWN_CHECK, None))


def _stray_check_paragraphs(rng: random.Random, draft: _PostDraft) -> None:
    draft.add(rng.choice(FILLER_OOC), OOC)
    skill = rng.choice(CHECK_SKILLS)
    roll = _consistent_roll(rng, 1, 20)
    draft.add(
        f"You can make a {skill} check here: {format_dice_expr(roll)}", OOC
    )
    draft.planted_rolls.append((ActionKind.SKILL_CHECK, skill))


def _finish_post(
    draft: _PostDraft, campaign_id: str, author: str, index: int
) -> tuple[Post, tuple[Action, ...]]:
    paragraphs = tuple(draft.paragraphs)
    rolls = tuple(extract_rolls(paragraphs))
    if len(rolls) != len(draft.planted_rolls):
        raise AssertionError("planted rolls drifted from rendered text")
    actions = tuple(
        Action(kind=kind, source_roll=roll, skill=skill)
        for (kind, skill), roll in zip(draft.planted_rolls, rolls)
    )
    post = Post(
        post_id=f"{campaign_id}-{index}",
        author_id=author,
        index=index,
        paragraphs=paragraphs,
        rolls=rolls,
    )
    return post, actions


def _generate_campaign(
    config: SynthConfig, campaign_index: int
) -> tuple[Campaign, GoldAnnotations]:
    rng = random.Random(f"{config.seed}:{campaign_index}")
    campaign_id = f"synth-{campaign_index:04d}"
    player_ids = [f"p{j}" for j in range(config.players_per_campaign)]
    dm_id = player_ids[0]
    identities = _assign_identities(rng, player_ids[1:])
    spells_by_player: dict[str, set[str]] = {pid: set() for pid in player_ids}
    mentioned_items: dict[str, set[str]] = {pid: set() for pid in player_ids}

    posts: list[Post] = []
    drafts: list[_PostDraft] = []
    actions_per_post: list[tuple[Action, ...]] = []
    cue_posts: list[int] = []
    spans: list[CombatSpan] = []

    combat_left = 0
    combat_monsters: list[tuple[str, int]] = []
    span_start = 0
    cooldown = 0

    for index in range(config.turns_per_campaign):
        author = player_ids[index % len(player_ids)]
        identity = identities.get(author)
        draft = _PostDraft()
        eligible = cooldown == 0

        if combat_left > 0:
            draft.in_combat = True
            _attack_paragraphs(rng, draft)
            combat_left -= 1
        elif eligible and index > 0 and rng.random() < config.combat_density:
            draft.in_combat = True
            span_start = index
            episode_length = min(
                rng.randint(2, 6), config.turns_per_campaign - index
            )
            monster_kinds = rng.sample(_MONSTERS, rng.randint(1, 2))
            combat_monsters = [
                (kind, rng.choice(tuple(_NUMBER_WORDS))) for kind in monster_kinds
            ]
            _initiative_paragraphs(rng, draft, combat_monsters)
            combat_left = episode_length - 1
        else:
            if cooldown > 0:
                cooldown -= 1
            if identity is None:
                draft.add(rng.choice(FILLER_IC) + " " + rng.choice(FILLER_IC), IC)
            elif rng.random() < config.ooc_fraction:
                draft.add(rng.choice(FILLER_OOC), OOC)
                if rng.random() < 0.5:
                    draft.add(rng.choice(FILLER_OOC), OOC)
            else:
                paragraph, planted, item, spell = _ic_cue_paragraph(
                    rng, identity, config.signal_rate
                )
                if item is not None:
                    mentioned_items[author].add(item)
                if spell is not None:
                    spells_by_player[author].add(spell)
                if rng.random() < config.distractor_rate:
                    paragraph += " " + _distractor_sentence(rng, identity)
                    draft.has_cue = True
                draft.add(paragraph, IC)
                if planted:
                    draft.has_cue = True
                # A stray out-of-combat check must stay clear of span edges
                # or it would extend the preceding combat span.
                if eligible and rng.random() < config.loose_check_rate:
                    _stray_check_paragraphs(rng, draft)

        if draft.in_combat and combat_left == 0:
            spans.append(
                CombatSpan(
                    start_index=span_start,
                    end_index=index,
                    monsters=tuple(combat_monsters),
                )
            )
            cooldown = config.gap_turns

        post, actions = _finish_post(draft, campaign_id, author, index)
        posts.append(post)
        drafts.append(draft)
        actions_per_post.append(actions)
        if draft.has_cue or post.rolls:
            cue_posts.append(index)

    if combat_left > 0:
        raise AssertionError("episode length must be capped at campaign end")

    profiles: dict[str, CharacterProfile] = {
        dm_id: CharacterProfile(
            player_id=dm_id, is_dm=True, character_class=DUNGEON_MASTER
        )
    }
    for pid, identity in identities.items():
        profiles[pid] = CharacterProfile(
            player_id=pid,
            name=identity.name,
            character_class=identity.character_class,
            race=identity.race,
            pronouns=identity.pronouns,
            inventory=frozenset(mentioned_items[pid]),
            spells=frozenset(spells_by_player[pid]),
        )

    states: list[TurnState] = []
    for post, draft, actions in zip(posts, drafts, actions_per_post):
        states.append(
            TurnState.of(
                profiles[post.author_id],
                in_combat=draft.in_combat,
                in_character=turn_label(draft.labels) == IC,
                actions=actions,
            )
        )

    campaign = Campaign(campaign_id=campaign_id, posts=tuple(posts))
    gold = GoldAnnotations(
        turn_states=tuple(states),
        profiles=profiles,
        combat_spans=tuple(spans),
        paragraph_labels=tuple(tuple(d.labels) for d in drafts),
        cue_posts=tuple(cue_posts),
    )
    gold.validate_against(campaign)
    return campaign, gold


@dataclass(frozen=True)
class SynthCorpus:
    pairs: tuple[tuple[Campaign, GoldAnnotations], ...]
    expected_stats: dict[str, float]


def generate(config: SynthConfig) -> list[tuple[Campaign, GoldAnnotations]]:
    """All campaigns with their gold annotations, deterministic in the seed."""
    return [
        _generate_campaign(config, i) for i in range(config.num_campaigns)
    ]


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Like generate(), plus the generator's own corpus-level bookkeeping."""
    pairs = generate(config)
    total_turns = 0
    total_words = 0
    total_rolls = 0
    total_players = 0
    for campaign, _ in pairs:
        total_turns += len(campaign.posts)
        total_players += len(campaign.player_ids)
        for post in campaign.posts:
            total_rolls += len(post.rolls)
            for paragraph in post.paragraphs:
                total_words += len(paragraph.split())
    n = len(pairs)
    stats = {
        "num_campaigns": n,
        "avg_players_per_campaign": total_players / n,
        "avg_turns_per_campaign": total_turns / n,
        "avg_words_per_campaign": total_words / n,
        "total_turns": total_turns,
        "total_words": total_words,
        "avg_rolls_per_campaign": total_rolls / n,
        "total_rolls": total_rolls,
    }
    return SynthCorpus(pairs=tuple(pairs), expected_stats=stats)

