import pytest

from pbpstate.gazetteers import load_gazetteers
from pbpstate.models import Campaign, Post


@pytest.fixture(scope="session")
def gaz():
    return load_gazetteers()


def slot_cells(annotated):
    """The slot view ``annotate`` writes for an AnnotatedCampaign, as one
    ``{slot: (value, source)}`` row per turn."""
    from pbpstate.records import annotated_to_record

    return [
        {slot: (cell["value"], cell["source"]) for slot, cell in row.items()}
        for row in annotated_to_record(annotated)["turn_slots"]
    ]


def make_post(index, text, author="p1", post_id=None):
    from pbpstate.dice import extract_rolls

    paragraphs = (text,) if isinstance(text, str) else tuple(text)
    return Post(
        post_id=post_id or f"post-{index}",
        author_id=author,
        index=index,
        paragraphs=paragraphs,
        rolls=tuple(extract_rolls(paragraphs)),
    )


def make_campaign(texts_by_author, campaign_id="c0"):
    """texts_by_author: list of (author, text-or-paragraph-list)."""
    posts = tuple(
        make_post(i, text, author=author)
        for i, (author, text) in enumerate(texts_by_author)
    )
    return Campaign(campaign_id=campaign_id, posts=posts)


# The twelve-turn sample game used as a realistic fixture: a DM narrating
# an ambush on a wagon trail for three players.
SAMPLE_GAME = [
    ("griffin", "A dwarf named Gundren Rockseeker has hired you to transport a "
                "wagonload of provisions to the rough-and-tumble settlement of "
                "Phandalin, which is a couple days' travel to the southeast. A day "
                "and a half after leaving, you turn off the high road that connects "
                "the major cities on the coast onto a smaller trail that will lead "
                "you to Phandalin. This trail is not as well maintained, and bandits "
                "and outlaws have been known to lurk along the trail."),
    ("griffin", "Roll a perception check for me. Perception is a wisdom skill, so "
                "be sure to add your wisdom modifier."),
    ("clint", "I got an eight."),
    ("justin", "I got a six."),
    ("travis", "I rolled a natural twenty plus my wisdom modifier is 23."),
    ("griffin", "With his eagle eyes, Magnus spots two dead horses lying in the "
                "middle of the road about 200 feet ahead of you."),
    ("travis", "I stop the wagon and motion silently to get the attention of Merle "
               "and Taako, and kinda pull them up towards the front of the wagon."),
    ("griffin", "As you warn them that shit has gone south, you notice a few "
                "goblins crouching in a part of the shaded woods off to the side of "
                "the road. Two of the goblins begin charging your wagon."),
    ("travis", "How many goblins are there?"),
    ("griffin", "There are three goblins; two of them are rushing the group, one "
                "is pretty heavily obscured by the brush, probably about 40 feet "
                "out, sort of between you and the dead horses laying in the middle "
                "of the road."),
    ("clint", "I will cast sacred flame at the nearest one. If it fails a dexterity "
              "saving throw, it takes 6 points of damage."),
    ("griffin", "You attack. You launch some fire onto the goblin closest to the "
                "wagon. And with that, he looks like he is on death's door. And the "
                "other goblin that you can see, the one that's not in the brush "
                "somewhere, just sort of stops in his tracks. What do you do next?"),
]


@pytest.fixture(scope="session")
def sample_game():
    return make_campaign(SAMPLE_GAME, campaign_id="sample")
