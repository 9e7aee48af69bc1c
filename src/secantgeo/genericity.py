"""Certified-generic sampling.

Rank-like quantities computed at random points are only trusted when a
whole batch of `trials` independent samples agrees.  On any disagreement
the coordinate bound doubles (the sampled locus grows, special loci thin
out) and a fresh batch is drawn; after 3 doublings the computation fails
loudly instead of returning a silently non-generic answer.

Random vectors are drawn from `stream.getrandbits` as `randint` draws
them, so each stream gives the same values and ends in the same state.
"""

from __future__ import annotations

import random
from typing import Callable

BASE_BOUND = 1
ESCALATIONS = 3


class CertificationError(RuntimeError):
    """A sampled quantity would not stabilize across trials."""


def derive_stream(seed, *labels) -> random.Random:
    """Independent deterministic stream for (seed, labels)."""
    return random.Random(":".join([str(seed)] + [str(x) for x in labels]))


def certified_value(sample: Callable[[int, random.Random], object], stream,
                    trials: int, what: str = "value"):
    """sample(bound, stream) -> comparable; accepted when a batch is unanimous.

    The draws of one batch use staggered bounds b, b+1, ..., b+trials-1: a
    special locus that covers every point of one small box then still
    disagrees with the draws that escape it, instead of faking unanimity."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    bound = BASE_BOUND
    seen = []
    for _ in range(ESCALATIONS + 1):
        values = [sample(bound + i, stream) for i in range(trials)]
        if all(v == values[0] for v in values[1:]):
            return values[0]
        seen.append((bound, values))
        bound *= 2
    top = seen[-1][0] + trials - 1
    raise CertificationError(
        "%s not stable across %d trials up to coordinate bound %d: %s"
        % (what, trials, top, seen[-1][1]))


def random_vector(dim: int, bound: int, stream) -> list[int]:
    """Entries uniform on the integers in [-bound, bound]: those of
    `stream.randint(-bound, bound)`, whose k = width.bit_length() random
    bits are drawn again while they are not below the width."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    width = 2 * bound + 1
    k, bits = width.bit_length(), stream.getrandbits
    out = []
    for _ in range(dim):
        while (x := bits(k)) >= width:
            pass
        out.append(x - bound)
    return out


def nonzero_vector(dim: int, bound: int, stream) -> list[int]:
    """Random vector of Python ints, resampled until nonzero."""
    while True:
        v = random_vector(dim, bound, stream)
        if any(v):
            return v


def fully_nonzero_vector(dim: int, bound: int, stream) -> list[int]:
    """Random vector of Python ints with every coordinate nonzero.  Used for
    the oracles' sample points, where individual zero parameters (scalings
    of a join, coincident points) are systematically non-generic.  Each
    coordinate is `stream.randint(1, bound)`, negated when the following
    `stream.randint(0, 1)` is 1."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    k, bits = bound.bit_length(), stream.getrandbits
    out = []
    for _ in range(dim):
        while (x := bits(k)) >= bound:
            pass
        while (sign := bits(2)) >= 2:
            pass
        out.append(-1 - x if sign else 1 + x)
    return out
