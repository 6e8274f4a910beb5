"""Immutable domain types for play-by-post campaigns and their annotations.

Everything here is a plain value object: construction validates invariants
and raises ValueError naming the offending field, and all collections are
frozen so instances can be shared freely across threads. Inference lives in
the other modules.

Decoded JSON is checked by ``_is``, ``_typed``, ``_items``, ``_at`` and
``_object``, the package's only field checkers: a bad field reads ``field:
must be ..., not ...`` after its path, as in ``turn_states[3]: actions[0]:
roll: count: ...``; a list item's index is formatted only when a check
fails. A JSON ``true`` or ``false`` is no integer and no number. The
decoders: transcript, ``transcripts.campaign_from_record``; annotated,
``records.turns_from_record``, through ``profiles_and_spans``; gold,
``records.gold_from_record``; turn slots, ``records.slot_rows_from_record``;
labeled paragraph, ``icooc.LabeledParagraph.from_dict``; ratings,
``evaluation.ratings_from_record``; and the IC/OOC model file, not JSON,
``icooc.load_model``. ``check_turn_states`` is the one check of turn
states against their posts.

One key rule holds for every object of the JSON formats: a key that its
decoder does not read is a data error, ``bogus: not a turn state
field``, raised by ``_object``. Its callers are the decoders of a post
(``transcripts``), a roll, an action, a turn state, a profile and a
combat span (here), a ``turn_slots`` row and cell (``records``), a
labeled paragraph (``icooc``) and a ratings line (``evaluation``); an
object's keys are its dataclass's field names where the JSON names
match. A record's own keys are listed once per record kind, transcript
in ``transcripts`` and annotated and gold in ``records``, and checked
where that kind is read: ``transcripts.load_campaigns``,
``records.turns_from_record`` and ``records.gold_from_record``;
``records.slot_rows_from_record`` takes the keys of any kind. A roll's
written ``consistent`` must be the value its other fields give.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from typing import Any, Callable, Iterable, Mapping, NoReturn, Sequence, TypeVar

DUNGEON_MASTER = "Dungeon Master"

# The slots of a turn state's comparison view, in report order.
SLOT_KEYS = ("name", "character_class", "race", "pronouns", "in_combat", "action")


class ActionKind(Enum):
    ATTACK = "attack"
    SKILL_CHECK = "skill_check"
    DAMAGE_OR_HEAL = "damage_or_heal"
    UNKNOWN_CHECK = "unknown_check"


class ControlVariant(Enum):
    """Where a fine-tuning example carries per-turn state blocks (see
    ``pbpstate.serialize``)."""

    NONE = "none"
    ALL_CTRL = "all"
    PREV_CTRL = "prev"
    CURR_CTRL = "curr"


def _fail(field_name: str, message: str) -> NoReturn:
    raise ValueError(f"{field_name}: {message}")


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        _fail(field_name, message)


_MISSING = object()
T = TypeVar("T")
_OPTIONAL_STR = (str, type(None))
_NUMBER = (int, float)
_KIND_NAMES: dict[Any, str] = {
    str: "a string",
    _OPTIONAL_STR: "a string or null",
    bool: "true or false",
    int: "an integer",
    _NUMBER: "a number",
    list: "a list",
    dict: "an object",
}


def _is(value: Any, kind: Any, where: str = "") -> Any:
    """``value``, which must be a ``kind``; else ValueError, after ``where: ``.

    JSON ``true`` and ``false`` are ``bool`` only, although Python's
    ``bool`` is an ``int``: they are no integer and no number.
    """
    if not isinstance(value, kind) or (type(value) is bool and kind is not bool):
        message = f"must be {_KIND_NAMES[kind]}, not {type(value).__name__}"
        raise ValueError(f"{where}: {message}" if where else message)
    return value


def _string(value: Any) -> str:
    return _is(value, str)


def _at(where: str, decode: Callable[..., T], *args: Any) -> T:
    """``decode(*args)``; a ValueError it raises gains the prefix ``where: ``."""
    try:
        return decode(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _each(
    items: Iterable[Any], decode: Callable[[Any], T], where: Callable[[int], str]
) -> tuple[T, ...]:
    """``decode`` of each item; a ValueError raised for item ``i`` gains the
    prefix ``where(i): ``, which is built only then."""
    decoded = []
    i = 0
    try:
        for i, item in enumerate(items):
            decoded.append(decode(item))
    except ValueError as exc:
        raise ValueError(f"{where(i)}: {exc}") from exc
    return tuple(decoded)


def _typed(d: Any, key: str, kind: Any, default: Any = _MISSING) -> Any:
    """``d[key]``, or ``default`` when absent, which must be a ``kind``.

    Decoded JSON is checked before it is converted, so that a string
    inventory or a string ``in_combat`` is rejected, not coerced.
    """
    if key not in d:
        _require(default is not _MISSING, key, "missing")
        return default
    return _is(d[key], kind, key)


def _object(
    d: Any, what: str, keys: frozenset[str], named: bool = True
) -> Mapping[str, Any]:
    """``d``, which must be a decoded JSON object holding no key outside
    ``keys``. ``what`` names it in an unknown key's error, as in ``bogus:
    not a turn state field``, and, when ``named``, in a non-object's, as
    in ``a turn state must be an object``."""
    if not isinstance(d, dict):
        message = f"must be an object, not {type(d).__name__}"
        raise ValueError(f"{what} {message}" if named else message)
    if not keys.issuperset(d):
        unknown = next(key for key in d if key not in keys)
        raise ValueError(f"{unknown}: not {what} field")
    return d


@cache
def _names(cls: type) -> frozenset[str]:
    """The field names of the dataclass ``cls``."""
    return frozenset(f.name for f in fields(cls))


def _items(
    d: Any, key: str, decode: Callable[[Any], T], default: Any = _MISSING
) -> tuple[T, ...]:
    """``decode`` of each item of the list ``d[key]``, or ``default`` when
    absent; a bad item is named ``key[i]``."""
    return _each(_typed(d, key, list, default), decode, lambda i: f"{key}[{i}]")


@dataclass(frozen=True)
class DiceRoll:
    """One parsed dice expression plus the result recorded in the post.

    ``consistent`` is a derived flag, not a construction constraint:
    transcripts contain typos, so a recorded result outside the reachable
    range is preserved and merely flagged.
    """

    count: int
    faces: int
    modifier: int
    result: int
    paragraph_index: int = 0
    char_offset: int = 0

    def __post_init__(self) -> None:
        _require(self.count >= 1, "count", "must be at least 1")
        _require(self.faces >= 2, "faces", "must be at least 2")
        _require(self.paragraph_index >= 0, "paragraph_index", "must be non-negative")
        _require(self.char_offset >= 0, "char_offset", "must be non-negative")

    @property
    def consistent(self) -> bool:
        low = self.count + self.modifier
        high = self.count * self.faces + self.modifier
        return low <= self.result <= high

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "faces": self.faces,
            "modifier": self.modifier,
            "result": self.result,
            "paragraph_index": self.paragraph_index,
            "char_offset": self.char_offset,
            "consistent": self.consistent,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "DiceRoll":
        """A roll from its decoded JSON; a written ``consistent`` must be
        the value the other fields give."""
        d = _object(d, "a roll", _ROLL_KEYS, named=False)
        roll = cls(
            count=_typed(d, "count", int),
            faces=_typed(d, "faces", int),
            modifier=_typed(d, "modifier", int),
            result=_typed(d, "result", int),
            paragraph_index=_typed(d, "paragraph_index", int, 0),
            char_offset=_typed(d, "char_offset", int, 0),
        )
        if _typed(d, "consistent", bool, roll.consistent) != roll.consistent:
            derived = "true" if roll.consistent else "false"
            _fail("consistent", f"must be {derived}, as the other fields give")
        return roll


# ``consistent`` is written, not a field: it is derived from the others.
_ROLL_KEYS = _names(DiceRoll) | {"consistent"}


@dataclass(frozen=True)
class Post:
    """One forum turn: ordered paragraphs plus the rolls embedded in them."""

    post_id: str
    author_id: str
    index: int
    paragraphs: tuple[str, ...]
    rolls: tuple[DiceRoll, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "paragraphs", tuple(self.paragraphs))
        object.__setattr__(self, "rolls", tuple(self.rolls))
        _require(self.index >= 0, "index", "must be non-negative")
        _require(
            bool(self.paragraphs) or bool(self.rolls),
            "paragraphs",
            "may be empty only if rolls is non-empty",
        )
        for roll in self.rolls:
            if roll.paragraph_index >= len(self.paragraphs):
                _fail(
                    "rolls", f"paragraph_index {roll.paragraph_index} outside paragraphs"
                )

    def text(self) -> str:
        return "\n".join(self.paragraphs)

    def to_dict(self, include_rolls: bool = False) -> dict[str, Any]:
        d: dict[str, Any] = {
            "post_id": self.post_id,
            "author_id": self.author_id,
            "paragraphs": list(self.paragraphs),
        }
        if include_rolls:
            d["rolls"] = [r.to_dict() for r in self.rolls]
        return d


@dataclass(frozen=True)
class Campaign:
    """An ordered sequence of posts by a fixed set of players."""

    campaign_id: str
    posts: tuple[Post, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "posts", tuple(self.posts))
        _require(len(self.posts) >= 1, "posts", "at least one post required")
        for expected, post in enumerate(self.posts):
            if post.index != expected:
                _fail(
                    "posts",
                    f"indices must be contiguous from 0"
                    f" (found {post.index} at {expected})",
                )

    @property
    def player_ids(self) -> frozenset[str]:
        return frozenset(p.author_id for p in self.posts)

    def to_dict(self, include_rolls: bool = False) -> dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "posts": [p.to_dict(include_rolls=include_rolls) for p in self.posts],
        }


# A post's ``index`` is its position in the file, not a key.
_POST_KEYS = _names(Post) - {"index"}


@dataclass(frozen=True)
class CharacterProfile:
    """Per-player properties inferred from their posts.

    The DM profile is scrubbed: class fixed to Dungeon Master, everything
    else absent, because the DM voices many characters at once.
    """

    player_id: str
    is_dm: bool = False
    name: str | None = None
    character_class: str | None = None
    race: str | None = None
    pronouns: str | None = None
    inventory: frozenset[str] = frozenset()
    spells: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inventory", frozenset(self.inventory))
        object.__setattr__(self, "spells", frozenset(self.spells))
        if self.is_dm:
            _require(
                self.character_class == DUNGEON_MASTER,
                "character_class",
                "DM profile must have the Dungeon Master class",
            )
            _require(self.name is None, "name", "DM profile must be scrubbed")
            _require(self.race is None, "race", "DM profile must be scrubbed")
            _require(self.pronouns is None, "pronouns", "DM profile must be scrubbed")
            _require(not self.inventory, "inventory", "DM profile must be scrubbed")
            _require(not self.spells, "spells", "DM profile must be scrubbed")

    def to_dict(self) -> dict[str, Any]:
        return {
            "player_id": self.player_id,
            "is_dm": self.is_dm,
            "name": self.name,
            "character_class": self.character_class,
            "race": self.race,
            "pronouns": self.pronouns,
            "inventory": sorted(self.inventory),
            "spells": sorted(self.spells),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CharacterProfile":
        """A profile from its decoded JSON; a missing or mistyped field
        raises ValueError naming the field."""
        d = _object(d, "a profile", _names(cls))
        return cls(
            player_id=_typed(d, "player_id", str),
            is_dm=_typed(d, "is_dm", bool, False),
            name=_typed(d, "name", _OPTIONAL_STR, None),
            character_class=_typed(d, "character_class", _OPTIONAL_STR, None),
            race=_typed(d, "race", _OPTIONAL_STR, None),
            pronouns=_typed(d, "pronouns", _OPTIONAL_STR, None),
            inventory=_items(d, "inventory", _string, ()),
            spells=_items(d, "spells", _string, ()),
        )


@dataclass(frozen=True)
class Action:
    """One classified dice action within a turn."""

    kind: ActionKind
    source_roll: DiceRoll
    skill: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.SKILL_CHECK:
            _require(self.skill is not None, "skill", "required for skill checks")
        else:
            _require(self.skill is None, "skill", "only allowed for skill checks")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "skill": self.skill,
            "roll": self.source_roll.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Action":
        d = _object(d, "an action", _ACTION_KEYS, named=False)
        return cls(
            kind=_at("kind", ActionKind, _typed(d, "kind", str)),
            skill=_typed(d, "skill", _OPTIONAL_STR, None),
            source_roll=_at("roll", DiceRoll.from_dict, _typed(d, "roll", dict)),
        )


# ``source_roll`` is written as ``roll``.
_ACTION_KEYS = frozenset({"kind", "skill", "roll"})


@dataclass(frozen=True)
class TurnState:
    """The per-turn control-feature record used to condition generation."""

    player_id: str
    character_name: str | None = None
    character_class: str | None = None
    race: str | None = None
    pronouns: str | None = None
    inventory: frozenset[str] = frozenset()
    in_combat: bool = False
    in_character: bool = True
    actions: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inventory", frozenset(self.inventory))
        object.__setattr__(self, "actions", tuple(self.actions))

    @classmethod
    def of(
        cls,
        profile: CharacterProfile,
        *,
        in_combat: bool,
        in_character: bool,
        actions: Iterable[Action],
    ) -> "TurnState":
        """A turn's state: its character fields are its author's profile."""
        return cls(
            player_id=profile.player_id,
            character_name=profile.name,
            character_class=profile.character_class,
            race=profile.race,
            pronouns=profile.pronouns,
            inventory=profile.inventory,
            in_combat=in_combat,
            in_character=in_character,
            actions=tuple(actions),
        )

    def consistent_with(self, profile: CharacterProfile) -> bool:
        """True when every character field present on both sides agrees."""
        pairs = (
            (self.character_name, profile.name),
            (self.character_class, profile.character_class),
            (self.race, profile.race),
            (self.pronouns, profile.pronouns),
        )
        return all(a == b for a, b in pairs if a is not None and b is not None)

    def to_dict(self) -> dict[str, Any]:
        return {
            "player_id": self.player_id,
            "character_name": self.character_name,
            "character_class": self.character_class,
            "race": self.race,
            "pronouns": self.pronouns,
            "inventory": sorted(self.inventory),
            "in_combat": self.in_combat,
            "in_character": self.in_character,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TurnState":
        """A state from its decoded JSON; a missing or mistyped field
        raises ValueError naming the field."""
        d = _object(d, "a turn state", _names(cls))
        return cls(
            player_id=_typed(d, "player_id", str),
            character_name=_typed(d, "character_name", _OPTIONAL_STR, None),
            character_class=_typed(d, "character_class", _OPTIONAL_STR, None),
            race=_typed(d, "race", _OPTIONAL_STR, None),
            pronouns=_typed(d, "pronouns", _OPTIONAL_STR, None),
            inventory=_items(d, "inventory", _string, ()),
            in_combat=_typed(d, "in_combat", bool, False),
            in_character=_typed(d, "in_character", bool, True),
            actions=_items(d, "actions", Action.from_dict, ()),
        )


@dataclass(frozen=True)
class CombatSpan:
    """A contiguous inclusive range of posts spent in combat."""

    start_index: int
    end_index: int
    monsters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "monsters", tuple(tuple(m) for m in self.monsters))
        _require(self.start_index >= 0, "start_index", "must be non-negative")
        _require(
            self.start_index <= self.end_index,
            "end_index",
            "must not precede start_index",
        )
        for name, count in self.monsters:
            _require(count >= 1, "monsters", f"count for {name!r} must be at least 1")

    def contains(self, index: int) -> bool:
        return self.start_index <= index <= self.end_index

    def to_dict(self) -> dict[str, Any]:
        return {
            "start_index": self.start_index,
            "end_index": self.end_index,
            "monsters": [[n, c] for n, c in self.monsters],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CombatSpan":
        """A span from its decoded JSON; a missing or mistyped field
        raises ValueError naming the field."""
        d = _object(d, "a combat span", _names(cls))
        return cls(
            start_index=_typed(d, "start_index", int),
            end_index=_typed(d, "end_index", int),
            monsters=_items(d, "monsters", _monster, ()),
        )


def _monster(pair: Any) -> tuple[str, int]:
    if len(_is(pair, list)) != 2:
        raise ValueError(f"must be a [name, count] pair, not {len(pair)} items")
    return _is(pair[0], str, "name"), _is(pair[1], int, "count")


def validate_spans(spans: Iterable[CombatSpan]) -> None:
    """Reject span lists that are unsorted or overlapping."""
    previous_end = -1
    for span in spans:
        _require(
            span.start_index > previous_end,
            "spans",
            f"span starting at {span.start_index} overlaps or is out of order",
        )
        previous_end = span.end_index


def profiles_and_spans(
    d: Mapping[str, Any],
) -> tuple[dict[str, CharacterProfile], tuple[CombatSpan, ...]]:
    """The ``profiles`` object and ``combat_spans`` list of a gold or
    annotated record, each empty when absent; each profile is filed under
    its ``player_id``, and the spans must be sorted and disjoint."""
    profiles = {
        pid: _at(f"profiles[{pid!r}]", _filed_profile, pid, p)
        for pid, p in _typed(d, "profiles", dict, {}).items()
    }
    spans = _items(d, "combat_spans", CombatSpan.from_dict, ())
    validate_spans(spans)
    return profiles, spans


def _filed_profile(key: str, d: Any) -> CharacterProfile:
    profile = CharacterProfile.from_dict(d)
    if profile.player_id != key:
        raise ValueError(f"player_id: must be {key!r}, not {profile.player_id!r}")
    return profile


def check_turn_states(
    states: Sequence[TurnState],
    posts: Sequence[Post],
    profiles: Mapping[str, CharacterProfile],
) -> None:
    """Reject states that are not one per post, each by its post's author
    and consistent with the author's profile where ``profiles`` has one."""
    if len(states) != len(posts):
        _fail("turn_states", f"{len(states)} states for {len(posts)} posts")
    for state, post in zip(states, posts):
        if state.player_id != post.author_id:
            _fail(
                f"turn_states[{post.index}]",
                f"player_id {state.player_id!r} is not the author of post"
                f" {post.index}, {post.author_id!r}",
            )
        profile = profiles.get(state.player_id)
        if profile is not None and not state.consistent_with(profile):
            _fail(
                f"turn_states[{post.index}]",
                f"contradicts the profile of {state.player_id!r}",
            )


@dataclass(frozen=True)
class GoldAnnotations:
    """Ground truth carried alongside a campaign by the synthetic generator.

    ``paragraph_labels`` holds per-post lists of "IC"/"OOC" paragraph labels
    and ``cue_posts`` the indices of posts where the generator planted at
    least one detectable signal.
    """

    turn_states: tuple[TurnState, ...]
    profiles: dict[str, CharacterProfile] = field(default_factory=dict)
    combat_spans: tuple[CombatSpan, ...] = ()
    paragraph_labels: tuple[tuple[str, ...], ...] = ()
    cue_posts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "turn_states", tuple(self.turn_states))
        object.__setattr__(self, "combat_spans", tuple(self.combat_spans))
        object.__setattr__(
            self, "paragraph_labels", tuple(tuple(p) for p in self.paragraph_labels)
        )
        object.__setattr__(self, "cue_posts", tuple(self.cue_posts))
        validate_spans(self.combat_spans)
        if self.paragraph_labels:
            _require(
                len(self.paragraph_labels) == len(self.turn_states),
                "paragraph_labels",
                "must align with turn_states",
            )
        dm_count = sum(1 for p in self.profiles.values() if p.is_dm)
        _require(dm_count == 1, "profiles", "exactly one DM profile required")

    def validate_against(self, campaign: Campaign) -> None:
        check_turn_states(self.turn_states, campaign.posts, self.profiles)
        for labels, post in zip(self.paragraph_labels, campaign.posts):
            _require(
                len(labels) == len(post.paragraphs),
                "paragraph_labels",
                f"{len(labels)} labels for the {len(post.paragraphs)}"
                f" paragraphs of post {post.index}",
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "turn_states": [t.to_dict() for t in self.turn_states],
            "profiles": {pid: p.to_dict() for pid, p in sorted(self.profiles.items())},
            "combat_spans": [s.to_dict() for s in self.combat_spans],
            "paragraph_labels": [list(p) for p in self.paragraph_labels],
            "cue_posts": list(self.cue_posts),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GoldAnnotations":
        """Gold annotations from a decoded gold record; a missing or
        mistyped field raises ValueError naming the field."""
        profiles, spans = profiles_and_spans(d)
        return cls(
            turn_states=_items(d, "turn_states", TurnState.from_dict),
            profiles=profiles,
            combat_spans=spans,
            paragraph_labels=_items(
                d, "paragraph_labels", lambda p: tuple(map(_string, _is(p, list))), ()
            ),
            cue_posts=_items(d, "cue_posts", lambda v: _is(v, int), ()),
        )
