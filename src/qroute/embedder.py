"""Deterministic text encoder for the agent's reflection state.

The state seen by the agent is the text pair (current command, remaining
commands). It is serialized to a canonical string and mapped to a fixed
1536-dimensional unit vector by signed feature hashing of token 3-grams:
one hash picks the bucket, a second independent hash picks the sign, and
the resulting count vector is L2-normalized. The encoding is a pure
function of the input text, so identical states embed identically across
processes and platforms.
"""

from __future__ import annotations

import hashlib
import re
from typing import Optional, Sequence

import numpy as np

EMBED_DIM = 1536
NGRAM = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_BOUNDARY = "\x00"


def serialize_reflection_state(
    current: Optional[str], remaining: Sequence[tuple[str, int]]
) -> str:
    """Canonical text form of (current command, remaining commands).

    Remaining commands appear in ledger order with their attempt counters;
    an absent current command serializes as an empty CUR field.
    """
    cur = current if current is not None else ""
    rem = ";".join(f"{text}@{attempts}" for text, attempts in remaining)
    return f"CUR:{cur}|REM:{rem}"


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _bucket(gram: str) -> int:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, person=b"bucket").digest()
    return int.from_bytes(digest, "little") % EMBED_DIM


def _sign(gram: str) -> float:
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=1, person=b"sign").digest()
    return 1.0 if digest[0] & 1 else -1.0


class HashingEmbedder:
    """Token 3-gram signed feature hashing into a unit vector.

    Token sequences are padded with one boundary marker on each side so
    one- and two-token inputs still produce informative grams. An input
    with no grams at all (empty text) maps to the fixed basis vector e0,
    keeping the unit-norm contract total.

    Vectors are memoized per instance by text. The encoding is a pure
    function of the text and each vector is returned read-only, so a cached
    vector is the exact array a fresh computation would give and no caller
    can change it. The reflection states are formulaic (a few hundred
    distinct texts over thousands of episodes), so the memo needs no bound.
    With each vector it keeps the vector's compact form (``compact``) for
    the network's one-row forward pass.
    """

    def __init__(self) -> None:
        # text -> (vector, (values, cols)); see ``compact`` for the pair
        self._memo: dict[str, tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]] = {}

    def __call__(self, text: str) -> np.ndarray:
        entry = self._memo.get(text)
        if entry is None:
            entry = self._remember(text)
        return entry[0]

    def compact(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """The vector of ``text`` as ``(values, cols)``: its nonzero entries
        and their sorted columns, the compact input ``QNetwork.forward_cached``
        takes. Memoized with the vector and read-only like it.

        Every nonzero entry is at least ``1 / ||counts||`` in magnitude, far
        above float32's smallest normal, so these are also the columns a
        float32 network finds nonzero in the dense vector.
        """
        entry = self._memo.get(text)
        if entry is None:
            entry = self._remember(text)
        return entry[1]

    def _remember(self, text: str) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        vector = self._encode(text)
        cols = np.flatnonzero(vector)
        entry = (vector, (vector[cols], cols))
        for a in (vector, *entry[1]):
            a.setflags(write=False)
        self._memo[text] = entry
        return entry

    def _encode(self, text: str) -> np.ndarray:
        toks = [_BOUNDARY] + _tokens(text) + [_BOUNDARY]
        v = np.zeros(EMBED_DIM, dtype=np.float64)
        for i in range(len(toks) - NGRAM + 1):
            gram = "\x1f".join(toks[i : i + NGRAM])
            v[_bucket(gram)] += _sign(gram)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            out = np.zeros(EMBED_DIM, dtype=np.float64)
            out[0] = 1.0
            return out
        return v / norm


#: The encoder of every agent state in the process: policies and the learner
#: call ``embed(state.serialized)``, so one memo serves every environment.
embed = HashingEmbedder()
