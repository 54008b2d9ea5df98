"""Cache digests: telling servers what the client already has.

The paper (Sec 3.1, footnote 2) notes that PUSH's classic
bandwidth-wastage problem — pushing content the client has cached — can
be solved by the client summarising its cache to servers, e.g. in a
cookie, the way H2O's CASPer does.  This module implements that summary
as a Golomb-ish hashed set (a simplified cache digest per the IETF
``draft-ietf-httpbis-cache-digest`` design): compact, probabilistic, with
one-sided error — a digest hit may be a false positive, a miss never is.

The engine consults the digest through ``HttpClient.is_cached``; servers
then skip pushes for digest hits.  A false positive therefore suppresses
a useful push (costing a round trip later), never corrupts a load — the
same failure mode as the real mechanism.

A digest remembers the exact URL list it was built from.  Filtering that
same list again (a repeat visit served unchanged hints) needs no hashing:
with no false negatives, every URL in it is held.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable, List, Set

from repro import audit


@functools.lru_cache(maxsize=1 << 16)
def _url_prefix(url: str) -> int:
    """The big-endian 64-bit sha256 prefix of ``url``.

    Independent of any digest's hash space, so one memoised value serves
    every digest; each digest reduces it ``% space`` itself.  The bound
    keeps memory flat however many distinct URLs a run streams through.
    """
    return int.from_bytes(hashlib.sha256(url.encode()).digest()[:8], "big")


class CacheDigest:
    """A compact probabilistic summary of cached URLs."""

    def __init__(self, urls: Iterable[str], bits_per_entry: int = 8):
        """Build a digest over ``urls``.

        ``bits_per_entry`` trades size for false-positive rate: the FP
        probability is ~2**-bits_per_entry (the draft's P parameter).
        """
        if (
            not isinstance(bits_per_entry, int)
            or isinstance(bits_per_entry, bool)
            or not 1 <= bits_per_entry <= 32
        ):
            raise ValueError(
                "bits_per_entry must be an int in [1, 32] "
                f"(got {bits_per_entry!r})"
            )
        self.bits_per_entry = bits_per_entry
        url_list = list(urls)
        #: The URLs this digest summarises, in the order given.
        self.built_from = url_list
        self.entry_count = len(url_list)
        # Hash space scales with N * 2^P, as in the draft.
        space = max(1, self.entry_count) * (2 ** bits_per_entry)
        self._space = space
        self._hashes: Set[int] = {
            _url_prefix(url) % space for url in url_list
        }

    def __contains__(self, url: str) -> bool:
        return _url_prefix(url) % self._space in self._hashes

    def __len__(self) -> int:
        return len(self._hashes)

    @property
    def size_bytes(self) -> int:
        """Wire size estimate: ~(P + log2-overhead) bits per entry."""
        if self.entry_count == 0:
            return 2
        per_entry_bits = self.bits_per_entry + 2  # Golomb-Rice overhead
        return 2 + math.ceil(self.entry_count * per_entry_bits / 8)

    @property
    def false_positive_rate(self) -> float:
        return 2.0 ** (-self.bits_per_entry)


def digest_from_cache(cache, when_hours: float, **kwargs) -> CacheDigest:
    """Digest of every URL fresh in a BrowserCache at ``when_hours``."""
    return CacheDigest(cache.fresh_urls(when_hours).keys(), **kwargs)


def filter_pushes(
    pushes: List[str], digest: CacheDigest
) -> List[str]:
    """Drop pushes the digest claims the client already holds.

    When ``pushes`` equals the list ``digest`` was built from, every
    push is held (a digest has no false negatives), so the answer is
    ``[]`` without hashing; ``REPRO_AUDIT=1`` runs the full filter too
    and requires it to agree.
    """
    if pushes == digest.built_from:
        if audit.ENABLED:
            leaked = _unheld(pushes, digest)
            audit.require(
                not leaked,
                "digest-reuse",
                f"{len(leaked)} of the digest's own URLs test as not held",
            )
        return []
    return _unheld(pushes, digest)


def _unheld(pushes: List[str], digest: CacheDigest) -> List[str]:
    space, held = digest._space, digest._hashes
    return [url for url in pushes if _url_prefix(url) % space not in held]
