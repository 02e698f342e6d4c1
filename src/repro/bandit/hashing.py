"""Feature hashing (the Vowpal-Wabbit trick).

Features are (namespace, name, value) triples; (namespace, name) hashes
into a fixed-size weight table.  Collisions are tolerated — with 2**18
slots and a few hundred active features they are rare and act as mild
regularization, exactly as in VW.

A slot is a pure function of ``(namespace, name, bits)``, so it is
memoized: the day loop asks for the same ~1.5k slots over and over, and
each miss costs a BLAKE2b digest.
"""

from __future__ import annotations

from functools import lru_cache

from repro.rng import stable_hash

__all__ = ["feature_index"]

#: bound on memoized slots; the default 60-template mix touches ~1.5k.
#: An entry (3-tuple key, short name string, int, lru link) is ~210 bytes,
#: so a full memo is ~3.5 MB worst case.
SLOT_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=SLOT_MEMO_SIZE)
def feature_index(namespace: str, name: str, bits: int) -> int:
    """Slot of feature (namespace, name) in a 2**bits weight table."""
    return stable_hash("feat", namespace, name) & ((1 << bits) - 1)
