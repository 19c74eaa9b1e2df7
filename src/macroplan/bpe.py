"""Byte-pair-encoding subword vocabularies with protected structural tokens."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

from .verbalize import is_marker_token

log = logging.getLogger(__name__)

__all__ = ["BpeModel", "learn_bpe", "encode", "decode", "save_bpe", "load_bpe"]

END_OF_WORD = "</w>"
CONTINUE = "@@"


@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    protected_tokens: frozenset

    def is_protected(self, token: str) -> bool:
        """Protected tokens and marker-fused value tokens (``<TR>9``) pass
        through whole, the latter even when the concrete value never
        occurred in training."""
        return token in self.protected_tokens or is_marker_token(token)


def _word_symbols(token: str) -> tuple[str, ...]:
    chars = list(token)
    chars[-1] = chars[-1] + END_OF_WORD
    return tuple(chars)


def learn_bpe(corpus: list[list[str]], num_merges: int,
              protected: set[str] = frozenset()) -> BpeModel:
    """Greedy most-frequent-pair merging over character-split tokens;
    deterministic lexicographic tie-break."""
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    protected = frozenset(protected)
    counts: Counter = Counter()
    for line in corpus:
        for tok in line:
            if tok in protected or is_marker_token(tok):
                continue
            counts[_word_symbols(tok)] += 1

    if not counts and num_merges > 0:
        log.warning("BPE corpus is empty or fully protected; learned 0 merges")
        return BpeModel((), protected)

    vocab = dict(counts)
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_counts: Counter = Counter()
        for word, freq in vocab.items():
            for a, b in zip(word, word[1:]):
                pair_counts[(a, b)] += freq
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        merges.append(best)
        vocab = {_merge_word(word, best): freq for word, freq in vocab.items()}
    return BpeModel(tuple(merges), protected)


def _merge_word(word: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    a, b = pair
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == a and word[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return tuple(out)


def _encode_token(model: BpeModel, token: str) -> list[str]:
    word = _word_symbols(token)
    for pair in model.merges:
        if len(word) == 1:
            break
        word = _merge_word(word, pair)
    units = list(word)
    units[-1] = units[-1][:-len(END_OF_WORD)]
    return [u + CONTINUE for u in units[:-1]] + [units[-1]]


def encode(model: BpeModel, tokens: list[str]) -> list[str]:
    out: list[str] = []
    for tok in tokens:
        if model.is_protected(tok):
            out.append(tok)
        else:
            out.extend(_encode_token(model, tok))
    return out


def decode(model: BpeModel, subwords: list[str]) -> list[str]:
    out: list[str] = []
    buffer = ""
    for unit in subwords:
        if model.is_protected(unit):
            if buffer:  # unterminated continuation before a protected token
                out.append(buffer)
                buffer = ""
            out.append(unit)
        elif unit.endswith(CONTINUE):
            buffer += unit[:-len(CONTINUE)]
        else:
            out.append(buffer + unit)
            buffer = ""
    if buffer:
        out.append(buffer)
    return out


def save_bpe(path, model: BpeModel) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#version: macroplan-bpe 1\n")
        fh.write("#protected: " + " ".join(sorted(model.protected_tokens)) + "\n")
        for a, b in model.merges:
            fh.write(f"{a} {b}\n")


def load_bpe(path) -> BpeModel:
    merges = []
    protected: frozenset = frozenset()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#protected:"):
                protected = frozenset(line.split()[1:])
            elif line.startswith("#") or not line:
                continue
            else:
                a, b = line.split(" ")
                merges.append((a, b))
    return BpeModel(tuple(merges), protected)
