"""Seeded item generators for the three benchmark workloads.

A workload is an endless sequence of batches; batch b of seed s is
generated from the string "<workload>:<s>:<b>" alone, so the same seed
always gives the same inputs.  Every batch has the same fixed schedule
of item kinds and size classes (braid strands and letters, series
orders, ADE index bands); the seed only draws the concrete words,
orders and indices inside each class.  Item cost in the seed code
grows like 2^letters or like a power of the order, so fixing the size
classes is what keeps one batch's wall time comparable across seeds.

Size caps and why:

- Braid words stop at 17 letters so the seed's 2^N state sum finishes
  every item in about a second or less.
- Staircase counts (`series --method count`) stay at low orders for the
  length of a run: the seed re-solves every size from scratch, and E at
  order 150 already takes 2.5 s.  Near order 1000 the seed's count ends
  in RecursionError (a known defect of `count_staircases`, left for its
  own fix); this benchmark does not go there, so no item fails because
  of it.
- ADE and Dynkin indices stay below 400, where the series route costs
  about 0.1 s per item.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from severi.staircase import ADEType, ade_closed_vector

# Letter counts per strand count of the random positive words: 8..17
# once each, plus four more at 11 so that random words are 60% of a
# batch.  The extra 11-letter words put the batch median inside one
# size class; at a class boundary the median jumps with each letter's
# doubling of the cost and spreads from run to run.
PINF_LETTERS = tuple(range(8, 18)) + (11, 11, 11, 11)
PINF_STRANDS = (3, 4, 5)
# `pinf` items also checked against the full state sum, which costs two
# to three times the item itself: every word up to PINF_DEEP_ALL letters
# and a seeded PINF_DEEP_SHARE of the longer ones.
PINF_DEEP_ALL = 13
PINF_DEEP_SHARE = 0.25

# Every catalog label with a braid word, and every torus knot T(p, q)
# with p < q coprime and at most 17 letters ((p - 1) * q).
CONJECTURE_TYPES = tuple(f"A{n}" for n in range(1, 13)) + ("E6", "E8")
TORUS_PAIRS = tuple((p, q) for p in range(2, 6) for q in range(p + 1, 18)
                    if math.gcd(p, q) == 1 and (p - 1) * q <= 17)

HOMFLY_LETTERS = tuple(range(8, 16))
HOMFLY_SLOTS = 10           # per letter count; the last two slots are positive words

# (model, lowest order, band width, items per batch) for staircase counts.
COUNT_BANDS = (("A", 90, 21, 3), ("D", 70, 21, 3), ("E", 50, 21, 2))
ADE_MAX_INDEX = 400


@dataclass
class Item:
    """One CLI call: its argv and what the checks need to know about it."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    strands: int = 0
    letters: int = 0
    order: int = 0
    deep: bool = False


def _braid_item(kind: str, strands: int, letters: list[tuple[int, int]], **kw) -> Item:
    text = " ".join(str(i * s) for i, s in letters)
    return Item(kind, [kind, "--strands", str(strands), "--word", text, "--json"],
                {"letters": letters}, strands=strands, letters=len(letters), **kw)


def _rng(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def positive_lowest(seed: int, batch: int) -> list[Item]:
    rng = _rng("positive_lowest", seed, batch)
    items = []
    for strands in PINF_STRANDS:
        for n in PINF_LETTERS:
            letters = [(rng.randrange(1, strands), 1) for _ in range(n)]
            deep = rng.random() < PINF_DEEP_SHARE or n <= PINF_DEEP_ALL
            items.append(_braid_item("pinf", strands, letters, deep=deep))
    for label in CONJECTURE_TYPES:
        t = ADEType.parse(label)
        strands, n = (2, t.index + 1) if t.family == "A" else (3, 8 if t.index == 6 else 10)
        items.append(Item("conjecture_type", ["conjecture", "--type", label, "--json"],
                          {"label": label}, strands=strands, letters=n))
    for p, q in TORUS_PAIRS:
        items.append(Item("conjecture_torus", ["conjecture", "--torus", f"{p},{q}", "--json"],
                          {"p": p, "q": q}, strands=p, letters=(p - 1) * q))
    items.append(Item("conjecture_all", ["conjecture", "--all", "--json"]))
    rng.shuffle(items)
    return items


def mixed_homfly(seed: int, batch: int) -> list[Item]:
    rng = _rng("mixed_homfly", seed, batch)
    items = []
    for n in HOMFLY_LETTERS:
        for slot in range(HOMFLY_SLOTS):
            strands = 3 + (n + slot) % 3
            positive = slot >= HOMFLY_SLOTS - 2
            letters = [(rng.randrange(1, strands), 1 if positive else rng.choice((1, -1)))
                       for _ in range(n)]
            if not positive and all(s > 0 for _, s in letters):
                k = rng.randrange(n)
                letters[k] = (letters[k][0], -1)
            items.append(_braid_item("homfly", strands, letters))
    rng.shuffle(items)
    return items


def _ade_label(rng: random.Random, slot: int, slots: int) -> str:
    """A or D label whose index is drawn from the slot-th of `slots` equal
    bands of 4..ADE_MAX_INDEX, so every batch spans the same range."""
    width = (ADE_MAX_INDEX - 4) // slots
    return f"{rng.choice('AD')}{4 + slot * width + rng.randrange(width)}"


def euler_series(seed: int, batch: int) -> list[Item]:
    rng = _rng("euler_series", seed, batch)
    items = []
    for model, low, width, count in COUNT_BANDS:
        for _ in range(count):
            order = low + rng.randrange(width)
            items.append(Item("series_count", ["series", "--model", model, "--order", str(order),
                                               "--method", "count", "--json"],
                              {"model": model, "order": order}, order=order))
    for model in "ADE":
        for low, high in ((200, 600), (600, 1001)):
            order = rng.randrange(low, high)
            items.append(Item("series_closed", ["series", "--model", model, "--order", str(order),
                                                "--json"],
                              {"model": model, "order": order}, order=order))
    for flags in ([], ["--formula"]):
        labels = [_ade_label(rng, j, 8) for j in range(8)] + [f"E{rng.choice((6, 7, 8))}"]
        for label in labels:
            items.append(Item("ade", ["ade", "--type", label, *flags, "--json"], {"label": label}))
    labels = [_ade_label(rng, j, 5) for j in range(5)] + [f"E{rng.choice((6, 7, 8))}"]
    for label in labels:
        items.append(Item("dynkin", ["dynkin", "--type", label, "--json"], {"label": label}))
    for _ in range(6):
        delta = 5 + rng.randrange(36)
        branches = 1 + rng.randrange(3)
        coeffs = [1] + [rng.randrange(-5, 60) for _ in range(delta + rng.randrange(3))]
        items.append(Item("transform", ["transform", "--local", "--delta", str(delta),
                                        "--branches", str(branches),
                                        "--coeffs", ",".join(map(str, coeffs)), "--json"],
                          {"delta": delta, "branches": branches, "coeffs": coeffs}))
    small = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
    for _ in range(6):
        gtilde = rng.randrange(4)
        labels = [rng.choice(small) for _ in range(1 + rng.randrange(4))]
        vectors = [ade_closed_vector(ADEType.parse(label)).values for label in labels]
        text = ";".join(",".join(map(str, v)) for v in vectors)
        items.append(Item("combine", ["combine", "--gtilde", str(gtilde), "--locals", text,
                                      "--json"], {"gtilde": gtilde, "labels": labels}))
    rng.shuffle(items)
    return items


WORKLOADS = {
    "positive_lowest": positive_lowest,
    "mixed_homfly": mixed_homfly,
    "euler_series": euler_series,
}
