"""Deterministic string-similarity library (§5.1).

Feature providers for matching models and NERD candidate retrieval:
Hamming distance, Levenshtein edit similarity, and q-gram Jaccard.  All
functions are pure, symmetric, and return similarities in [0, 1].
"""
from __future__ import annotations

from functools import lru_cache


def normalize(s: str) -> str:
    """Canonical surface form: casefold + whitespace collapse."""
    return " ".join(s.casefold().split())


def qgrams(s: str, q: int = 3) -> frozenset[str]:
    """Padded character q-grams of the normalized string."""
    s = f"^{normalize(s)}$"
    if len(s) < q:
        return frozenset({s})
    return frozenset(s[i : i + q] for i in range(len(s) - q + 1))


def jaccard_qgram(a: str, b: str, q: int = 3) -> float:
    """Jaccard similarity of q-gram sets — robust to small typos, blind to
    synonyms (the weakness learned similarities fix, §5.1)."""
    ga, gb = qgrams(a, q), qgrams(b, q)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / len(ga | gb)


def hamming_sim(a: str, b: str) -> float:
    """1 - normalized Hamming distance; 0 when lengths differ wildly."""
    a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    n = max(len(a), len(b))
    same = sum(x == y for x, y in zip(a, b))
    return same / n


@lru_cache(maxsize=200_000)
def _lev(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def levenshtein_sim(a: str, b: str) -> float:
    """1 - edit distance / max length, on normalized strings."""
    a, b = normalize(a), normalize(b)
    if not a and not b:
        return 1.0
    return 1.0 - _lev(a, b) / max(len(a), len(b))

