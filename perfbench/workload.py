"""Seeded request schedules for the workloads.

Only this module turns ``--seed`` into inputs; the program under test
sees nothing but the generated requests.  Every draw uses
:class:`random.Random`, whose sequence is fixed across Python versions,
so one seed gives the same requests on every host.

The seed changes the order of requests far more than their mix: every
block of a schedule holds the same titles (and resolutions), because any
difference in mix (a brighter title, a cheaper resolution) would show up
as run-to-run spread in the very metrics a later change is judged by.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: The 10 paper titles, most popular first (fixed popularity ranks, so
#: the seed changes which requests are drawn, not which title is hot).
PAPER_TITLES: Tuple[str, ...] = (
    "themovie",
    "catwoman",
    "hunter_subres",
    "i_robot",
    "ice_age",
    "officexp",
    "returnoftheking",
    "shrek2",
    "spiderman2",
    "theincredibles-tlr2",
)

#: The 4 extended library titles (catalog preparation only).
EXTENDED_TITLES: Tuple[str, ...] = (
    "sports_highlights",
    "concert_strobe",
    "noir_documentary",
    "widescreen_letterbox",
)

#: The paper's clipped-pixel quality ladder.
QUALITIES: Tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)

#: Target devices of the paper's measurements.
DEVICES: Tuple[str, ...] = ("ipaq5555", "ipaq3650", "zaurus_sl5600")

#: The two catalog-preparation resolutions, ``(width, height)``.  Close
#: enough in cost that one run's op-time distribution stays unimodal.
PREP_RESOLUTIONS: Tuple[Tuple[int, int], ...] = ((80, 60), (96, 72))

#: Scene-duration scale of the titles prepared by ``catalog_prep``.
PREP_SCALE = 0.5

#: Zipf exponent of the serving title popularity.
ZIPF_S = 1.0

#: Requests per serving block: each block holds every title in Zipf
#: proportion (the least popular title at least once).
SERVE_BLOCK = 30

#: Requests generated per schedule: more than any run can complete.
SCHEDULE_LEN = 4000

ServeOp = Tuple[str, float, str]
PrepOp = Tuple[str, Tuple[int, int]]


def zipf_counts(block: int = SERVE_BLOCK) -> List[int]:
    """Per-title request counts of one block (largest-remainder rounding)."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(PAPER_TITLES))]
    shares = [block * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: block - sum(counts)]:
        counts[i] += 1
    return counts


def serve_schedule(seed: int, count: int = SCHEDULE_LEN) -> List[ServeOp]:
    """``(title, quality, device)`` requests in shuffled blocks.

    Every block has the same Zipf title mix; each title walks the quality
    ladder and the device list from its own seeded offset, so its
    requests stay uniform over both.  The seed sets the offsets and the
    order within each block.
    """
    rng = random.Random(f"serve-{seed}")
    cursor = {t: [rng.randrange(len(QUALITIES)), rng.randrange(len(DEVICES))]
              for t in PAPER_TITLES}
    ops: List[ServeOp] = []
    while len(ops) < count:
        block = []
        for title, n in zip(PAPER_TITLES, zipf_counts()):
            for _ in range(n):
                q, d = cursor[title]
                block.append((title, QUALITIES[q % len(QUALITIES)], DEVICES[d % len(DEVICES)]))
                cursor[title] = [q + 1, d + 1]
        rng.shuffle(block)
        ops.extend(block)
    return ops[:count]


def serve_warmup() -> List[ServeOp]:
    """One fetch per title, independent of the seed."""
    return [
        (title, QUALITIES[i % len(QUALITIES)], DEVICES[i % len(DEVICES)])
        for i, title in enumerate(PAPER_TITLES)
    ]


def prep_schedule(seed: int, count: int = SCHEDULE_LEN) -> List[PrepOp]:
    """``(title, resolution)`` jobs in shuffled blocks of the 14 titles.

    Half the titles of a block are prepared at each resolution, and every
    title alternates resolution from block to block, so two consecutive
    blocks prepare every (title, resolution) pair exactly once.
    """
    rng = random.Random(f"prep-{seed}")
    titles = PAPER_TITLES + EXTENDED_TITLES
    first = [0, 1] * (len(titles) // 2)
    rng.shuffle(first)
    ops: List[PrepOp] = []
    parity = 0
    while len(ops) < count:
        block = [(t, PREP_RESOLUTIONS[(f + parity) % 2]) for t, f in zip(titles, first)]
        rng.shuffle(block)
        ops.extend(block)
        parity += 1
    return ops[:count]
