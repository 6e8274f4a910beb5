"""Immutable domain types for play-by-post campaigns and their annotations.

Everything here is a plain value object: construction validates invariants
and raises ValueError naming the offending field, and all collections are
frozen so instances can be shared freely across threads. Inference lives in
the other modules.

A record type's ``to_dict`` and ``from_dict`` (``_Codec``) are derived from
its dataclass fields by ``_encode`` and ``_decode``, planned per class on
first use. Fields are written under their names, in field order: scalars as
they are, a ``frozenset`` as a sorted list, a tuple as a list, a dict as an
object in key order, a dataclass as its object and an ``Enum`` as its
value; each record field is read back by the same annotation. The reports
of ``evaluation`` are written by ``_encode`` too, and never read.
Field metadata states the exceptions: ``key``, a JSON key other than the
name, None for a post's ``index`` (its position); ``optional``, written
only on request (a post's ``rolls``, by ``ingest``); ``item``, a list
item's decoder (a span's ``[name, count]`` monster pairs); and
``filed_by``, the attribute that must equal a dict value's key (a gold
profile's ``player_id``). A field that ``__init__`` does not take is
derived (a roll's ``consistent``): written, and on read it must be the
value the other fields give.

Decoded JSON is checked by ``_is``, ``_typed``, ``_items``, ``_at`` and
``_object``, the package's only field checkers: a bad field reads ``field:
must be ..., not ...`` after its path, as in ``turn_states[3]: actions[0]:
roll: count: ...``; a list item's index is formatted only when a check
fails. A JSON ``true`` or ``false`` is no integer and no number, and an
integer no float. Besides ``_decode``, the decoders are: transcript,
``transcripts.campaign_from_record``; annotated,
``records.turns_from_record``, through ``profiles_and_spans``; gold,
``records.gold_from_record``; turn slots, ``records.slot_rows_from_record``;
ratings, ``evaluation.ratings_from_record``; and the IC/OOC model file's,
in ``icooc.load_model``, which adds to ``_decode`` that the labels are IC
and OOC. ``check_turn_states`` is the one check of turn states against
their posts: each action's roll must be one of its post's rolls, the
actions in roll order. A decoder raises ValueError, and only ValueError,
for bad data, and ``transcripts.read_lines`` blames it on its line; a
KeyError or a TypeError raised in a decoder is a fault of the program.

One key rule holds for every object of the JSON formats: a key that its
decoder does not read is a data error, ``bogus: not a turn state field``,
raised by ``_object`` for ``_decode`` (whose keys are the fields' JSON
keys) and for the decoders of a post (``transcripts``), a ``turn_slots``
row and cell (``records``) and a ratings line (``evaluation``). A record's
own keys are listed once per record kind, transcript in ``transcripts``
and annotated and gold in ``records``, and checked where that kind is read:
``transcripts.load_campaigns``, ``records.turns_from_record`` and
``records.gold_from_record``; ``records.slot_rows_from_record`` takes the
annotated keys.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, NoReturn, Sequence, TypeVar
from typing import get_args, get_origin, get_type_hints

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


T = TypeVar("T")
_OPTIONAL_STR = (str, type(None))
_NUMBER = (int, float)
_KIND_NAMES: dict[Any, str] = {
    str: "a string",
    _OPTIONAL_STR: "a string or null",
    bool: "true or false",
    int: "an integer",
    float: "a float",
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


def _typed(d: Any, key: str, kind: Any, default: Any = MISSING) -> Any:
    """``d[key]``, or ``default`` when absent, which must be a ``kind``.

    Decoded JSON is checked before it is converted, so that a string
    inventory or a string ``in_combat`` is rejected, not coerced.
    """
    if key not in d:
        _require(default is not MISSING, key, "missing")
        return default
    value = d[key]
    # One test for the common case; ``_is`` tests the rest and names a bad value.
    return value if type(value) is kind else _is(value, kind, key)


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


def _items(
    d: Any, key: str, decode: Callable[[Any], T], default: Any = MISSING
) -> tuple[T, ...]:
    """``decode`` of each item of the list ``d[key]``, or ``default`` when
    absent; a bad item is named ``key[i]``."""
    return _each(_typed(d, key, list, default), decode, lambda i: f"{key}[{i}]")


# How a field of each scalar type is checked on read; it is written as it is.
_SCALARS: dict[Any, Any] = {str: str, bool: bool, int: int, float: float}
_SCALARS[str | None] = _OPTIONAL_STR


def _key(f: Field) -> str | None:
    return f.metadata.get("key", f.name)


@cache
def _keys(cls: type) -> frozenset[str]:
    """The JSON keys of the dataclass ``cls``."""
    return frozenset(key for f in fields(cls) if (key := _key(f)) is not None)


def _item(tp: Any) -> Callable[[Any], Any]:
    """The decoder of a list item of type ``tp``."""
    if is_dataclass(tp):
        return tp.from_dict
    if get_origin(tp) is tuple:
        item = _item(get_args(tp)[0])
        return lambda v: tuple(map(item, _is(v, list)))
    return lambda v: _is(v, tp)


def _read(f: Field, tp: Any) -> tuple[Any, Callable[[Any], Any] | None]:
    """The JSON kind of the field ``f``, of type ``tp``, and the decoder
    of a value of that kind, or None when it is read as it is."""
    key, origin, args = _key(f), get_origin(tp), get_args(tp)
    if origin in (tuple, frozenset):
        item = f.metadata.get("item") or _item(args[0])
        return list, lambda v: _each(v, item, lambda i: f"{key}[{i}]")
    if origin is dict:
        filed = partial(_filed, _item(args[1]), f.metadata.get("filed_by"))
        return dict, lambda v: {
            k: _at(f"{key}[{k!r}]", filed, k, x) for k, x in v.items()
        }
    if is_dataclass(tp):
        return dict, partial(_at, key, tp.from_dict)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return str, partial(_at, key, tp)
    return _SCALARS[tp], None


def _filed(decode: Callable[[Any], T], attr: str | None, key: str, value: Any) -> T:
    """``decode(value)``, whose ``attr``, if any, is the ``key`` it is filed under."""
    obj = decode(value)
    if attr is not None and getattr(obj, attr) != key:
        raise ValueError(f"{attr}: must be {key!r}, not {getattr(obj, attr)!r}")
    return obj


@cache
def _reads(cls: type) -> tuple[Any, ...]:
    """The plan of ``_decode(cls, ...)``: the JSON keys; the key, usual
    types, kind, default and decoder of each field ``__init__`` takes, by
    name; and the name, key and kind of each derived field."""
    hints = get_type_hints(cls)
    reads, derived = {}, []
    for f in fields(cls):
        kind, decode = _read(f, hints[f.name])
        if not f.init:
            derived.append((f.name, _key(f), kind))
            continue
        usual = kind if isinstance(kind, tuple) else (kind,)
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        reads[f.name] = (_key(f), usual, kind, default, decode)
    return _keys(cls), reads, tuple(derived)


def _decode(cls: type[T], d: Any) -> T:
    """An instance of the dataclass ``cls`` from its decoded JSON object
    ``d``, which ``_object`` checks as ``cls._what`` unless that is None.
    A derived field's written value must be the one the other fields give."""
    keys, reads, derived = _reads(cls)
    if cls._what is not None:
        d = _object(d, cls._what, keys, cls._named)
    values = {}
    for name, (key, usual, kind, default, decode) in reads.items():
        value = d.get(key, default)
        if type(value) not in usual:  # so that the common case costs no call
            value = _typed(d, key, kind, default)
        values[name] = value if decode is None else decode(value)
    obj = cls(**values)
    for name, key, kind in derived:
        value = getattr(obj, name)
        if _typed(d, key, kind, value) != value:
            _fail(key, f"must be {str(value).lower()}, as the other fields give")
    return obj


def _writer(tp: Any, optional: bool) -> Callable[[Any], Any] | None:
    """How a value of type ``tp`` is written, or None when as it is."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return lambda v: _encode(v, optional)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return attrgetter("value")
    if origin is frozenset:
        return sorted
    if origin is tuple:
        item = _writer(args[0], optional)
        return list if item is None else lambda v: list(map(item, v))
    if origin is dict:
        item = _writer(args[1], optional)
        if item is None:
            return lambda v: dict(sorted(v.items()))
        return lambda v: {k: item(x) for k, x in sorted(v.items())}
    return None


@cache
def _writes(cls: type, optional: bool) -> tuple[tuple[str, str, Any], ...]:
    """The name, key and writer of each field of ``cls`` that is written."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, key, _writer(hints[f.name], optional))
        for f in fields(cls)
        if (key := _key(f)) is not None and (optional or not f.metadata.get("optional"))
    )


def _encode(obj: Any, optional: bool = False) -> dict[str, Any]:
    """The JSON object of the dataclass instance ``obj``; its optional
    fields are written only when ``optional``."""
    return {
        key: getattr(obj, name) if write is None else write(getattr(obj, name))
        for name, key, write in _writes(type(obj), optional)
    }


class _Codec:
    """``to_dict`` and ``from_dict`` from the fields: ``_what`` names the
    JSON object in a key error, and in a non-object's too when ``_named``."""

    _what: str | None = None
    _named = True
    to_dict = _encode
    from_dict = classmethod(_decode)


@dataclass(frozen=True)
class DiceRoll(_Codec):
    """One parsed dice expression plus the result recorded in the post.

    ``consistent`` is a derived flag, not a construction constraint:
    transcripts contain typos, so a recorded result outside the reachable
    range is preserved and merely flagged.
    """

    _what, _named = "a roll", False
    count: int
    faces: int
    modifier: int
    result: int
    paragraph_index: int = 0
    char_offset: int = 0
    consistent: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _require(self.count >= 1, "count", "must be at least 1")
        _require(self.faces >= 2, "faces", "must be at least 2")
        _require(self.paragraph_index >= 0, "paragraph_index", "must be non-negative")
        _require(self.char_offset >= 0, "char_offset", "must be non-negative")
        low = self.count + self.modifier
        high = self.count * self.faces + self.modifier
        object.__setattr__(self, "consistent", low <= self.result <= high)


@dataclass(frozen=True)
class Post:
    """One forum turn: ordered paragraphs plus the rolls embedded in them."""

    post_id: str
    author_id: str
    index: int = field(metadata={"key": None})
    paragraphs: tuple[str, ...]
    rolls: tuple[DiceRoll, ...] = field(default=(), metadata={"optional": True})

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
        return _encode(self, include_rolls)


@dataclass(frozen=True)
class CharacterProfile(_Codec):
    """Per-player properties inferred from their posts.

    The DM profile is scrubbed: class fixed to Dungeon Master, everything
    else absent, because the DM voices many characters at once.
    """

    _what = "a profile"
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


@dataclass(frozen=True)
class Action(_Codec):
    """One classified dice action within a turn."""

    _what, _named = "an action", False
    kind: ActionKind
    skill: str | None = None
    # Keyword-only, so that it can follow ``skill``, as its key is written.
    source_roll: DiceRoll = field(kw_only=True, metadata={"key": "roll"})

    def __post_init__(self) -> None:
        if self.kind is ActionKind.SKILL_CHECK:
            _require(self.skill is not None, "skill", "required for skill checks")
        else:
            _require(self.skill is None, "skill", "only allowed for skill checks")


@dataclass(frozen=True)
class TurnState(_Codec):
    """The per-turn control-feature record used to condition generation."""

    _what = "a turn state"
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


def _monster(pair: Any) -> tuple[str, int]:
    if len(_is(pair, list)) != 2:
        raise ValueError(f"must be a [name, count] pair, not {len(pair)} items")
    return _is(pair[0], str, "name"), _is(pair[1], int, "count")


@dataclass(frozen=True)
class CombatSpan(_Codec):
    """A contiguous inclusive range of posts spent in combat."""

    _what = "a combat span"
    start_index: int
    end_index: int
    monsters: tuple[tuple[str, int], ...] = field(
        default=(), metadata={"item": _monster}
    )

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
    reads = _reads(GoldAnnotations)[1]
    profiles, spans = (
        decode(_typed(d, key, kind, default))
        for key, _, kind, default, decode in (reads["profiles"], reads["combat_spans"])
    )
    validate_spans(spans)
    return profiles, spans


def check_turn_states(
    states: Sequence[TurnState],
    posts: Sequence[Post],
    profiles: Mapping[str, CharacterProfile],
) -> None:
    """Reject states that are not one per post, each by its post's author,
    consistent with the author's profile where ``profiles`` has one, and
    with actions whose rolls are some of its post's rolls, in roll order."""
    if len(states) != len(posts):
        _fail("turn_states", f"{len(states)} states for {len(posts)} posts")
    for state, post in zip(states, posts):
        where = f"turn_states[{post.index}]"
        if state.player_id != post.author_id:
            _fail(
                where,
                f"player_id {state.player_id!r} is not the author of post"
                f" {post.index}, {post.author_id!r}",
            )
        profile = profiles.get(state.player_id)
        if profile is not None and not state.consistent_with(profile):
            _fail(where, f"contradicts the profile of {state.player_id!r}")
        rolls = iter(post.rolls)  # each ``in`` resumes after the last match
        if not all(action.source_roll in rolls for action in state.actions):
            _fail(where, f"actions: must be rolls of post {post.index}, in roll order")


@dataclass(frozen=True)
class GoldAnnotations(_Codec):
    """Ground truth carried alongside a campaign by the synthetic generator.

    ``paragraph_labels`` holds per-post lists of "IC"/"OOC" paragraph labels
    and ``cue_posts`` the indices of posts where the generator planted at
    least one detectable signal. Its record's reader checks the record's
    keys, which include ``campaign_id``.
    """

    turn_states: tuple[TurnState, ...]
    profiles: dict[str, CharacterProfile] = field(
        default_factory=dict, metadata={"filed_by": "player_id"}
    )
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
