"""Deterministic random-number streams for reproducible simulations.

Every stochastic component of a simulation (protocol interaction order,
oracle sampling, churn, asynchrony, workload generation, feed publishing)
draws from its *own* named stream derived from the experiment seed.  This
keeps components independent — enabling churn, for example, does not
perturb the oracle's choices — which is what makes paired comparisons
(greedy vs. hybrid on the *same* workload and churn trace) meaningful.
"""

from __future__ import annotations

import hashlib
import random
from math import ceil, log
from typing import List, MutableSequence, Sequence


def derive_seed(root_seed: int, stream: str) -> int:
    """Derive a stable 64-bit child seed for a named stream.

    Uses SHA-256 over ``(root_seed, stream)`` so streams are independent
    and stable across Python versions and processes (unlike ``hash``).
    """
    digest = hashlib.sha256(f"{root_seed}/{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_stream(root_seed: int, stream: str) -> random.Random:
    """A :class:`random.Random` seeded for the named stream."""
    return random.Random(derive_seed(root_seed, stream))


#: ``_BIT_LENGTHS[i - 1] == (i + 1).bit_length()``: the width of the draw
#: that picks the exchange partner of position ``i``.  One table for the
#: whole process, as long as the largest roster shuffled so far needs and
#: sliced per call — a churned roster has a new length almost every
#: round, so anything kept *per length* grows without bound.  Immutable
#: and replaced when it grows, so a caller never sees it half-built.
_BIT_LENGTHS = b""


def shuffle(rng: random.Random, items: MutableSequence) -> None:
    """Shuffle ``items`` in place, draw for draw as ``rng.shuffle(items)``.

    The round sweeps order their roster with this once per round, which
    makes it a per-node cost of every round.  It is the Fisher-Yates
    walk of :meth:`random.Random.shuffle` with the partner draw of
    ``_randbelow_with_getrandbits`` inlined — ``getrandbits(k)``,
    redrawn while it overshoots — so the permutation and the generator
    state afterwards are the stdlib's, minus two Python frames per item.
    Owning the kernel also pins the order stream to ``getrandbits``
    alone, not to how a given stdlib release happens to consume it.
    """
    global _BIT_LENGTHS
    last = len(items) - 1
    if last < 1:
        return
    widths = _BIT_LENGTHS
    if len(widths) < last:
        widths = _BIT_LENGTHS = widths + bytes(
            (i + 1).bit_length() for i in range(len(widths) + 1, last + 1)
        )
    getrandbits = rng.getrandbits
    i = last + 1
    for width in widths[last - 1::-1]:
        i -= 1
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        items[i], items[j] = items[j], items[i]


def sample(rng: random.Random, population: Sequence, k: int) -> List:
    """``k`` distinct picks from ``population``, draw for draw as
    ``rng.sample(population, k)``.

    The sharded directory draws each shard's batch with this once per
    round.  It is :meth:`random.Random.sample` — the same pool-or-set
    choice, the same selection order — with the ``_randbelow_with_
    getrandbits`` draw inlined like :func:`shuffle`'s, so the picks and
    the generator state afterwards are the stdlib's, minus two Python
    frames per pick.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    result = [None] * k
    setsize = 21  # size of a small set minus size of an empty list
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))  # table size for big sets
    if n <= setsize:
        pool = list(population)
        for i in range(k):
            left = n - i
            width = left.bit_length()
            j = getrandbits(width)
            while j >= left:
                j = getrandbits(width)
            result[i] = pool[j]
            pool[j] = pool[left - 1]  # move non-selected item into vacancy
    else:
        width = n.bit_length()
        selected = set()
        selected_add = selected.add
        for i in range(k):
            j = getrandbits(width)
            while j >= n or j in selected:
                j = getrandbits(width)
            selected_add(j)
            result[i] = population[j]
    return result


class StreamFactory:
    """Factory handing out named, independent RNG streams for one seed.

    >>> streams = StreamFactory(42)
    >>> churn_rng = streams.get("churn")
    >>> oracle_rng = streams.get("oracle")

    Asking twice for the same name returns the *same* stream object, so a
    component and its helpers share state, while distinct names never do.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._streams: dict = {}

    def get(self, stream: str) -> random.Random:
        if stream not in self._streams:
            self._streams[stream] = make_stream(self.root_seed, stream)
        return self._streams[stream]
