"""BPE tokenizer TRAINING + application — the marquee tokenizer leg
of an LLM data pipeline, distributed the way production trainers
actually work: BPE never needs the corpus, only the word-frequency
table (Sennrich'16; HuggingFace trains from word counts), so

  1. TRAIN: one distributed pass builds the top-``vocab_words``
     word-frequency table (the vocab_topk machinery — bounded by
     contract), then the merge loop runs driver-side over that
     model-sized table (O(n_merges x total word length) on <= 1024
     words — a model constant, like the PCA eigh or PQ codebooks);
  2. APPLY: merges broadcast; a shuffle-free pass encodes each
     batch's DISTINCT words once (np.unique — the word Zipf makes
     this the big win), maps counts back through the inverse, and
     reduces per-doc token counts in-batch.

Determinism: merge selection is (max count, then lexicographically
smallest pair), so the merge list is a pure function of the corpus.
Iterative -> no SQL twin; rows-only gate + a single-process reference
pytest.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..util import run_starts
from .text import _docs, _tokens_table, vocab_topk

_INF = 1 << 30


def train_bpe_from_counts(words: dict, n_merges: int) -> list:
    """Classic BPE merge loop over a word -> count table. Returns the
    ordered merge list [(sym_a, sym_b), ...]."""
    table = {tuple(w): int(c) for w, c in words.items()}
    merges: list = []
    for _ in range(n_merges):
        pairs: dict = {}
        for syms, c in table.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + c
        if not pairs:
            break
        best = max(pairs.items(), key=lambda kv: (kv[1], _neg(kv[0])))[0]
        merges.append(best)
        merged = best[0] + best[1]
        new_table: dict = {}
        for syms, c in table.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms)
                        and syms[i] == best[0] and syms[i + 1] == best[1]):
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            new_table[key] = new_table.get(key, 0) + c
        table = new_table
    return merges


class _neg:
    """Reverse-order key wrapper so max() breaks count ties toward the
    lexicographically SMALLEST pair (deterministic merges)."""

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return self.v > other.v


def encode_word(word: str, ranks: dict, pair_of: list = None) -> list:
    """Apply merges in rank order (the HF ladder): repeatedly merge
    every occurrence of the lowest-rank pair present."""
    if pair_of is None:
        pair_of = [None] * len(ranks)
        for p, r in ranks.items():
            pair_of[r] = p
    syms = list(word)
    while len(syms) > 1:
        best_rank = _INF
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]), _INF)
            if r < best_rank:
                best_rank = r
        if best_rank == _INF:
            break
        a, b = pair_of[best_rank]
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def bpe_train(sf_dir: str, n_merges: int = 64,
              vocab_words: int = 1024) -> list:
    """Distributed word counts -> driver merge loop -> merge list."""
    vocab = vocab_topk(sf_dir, k=vocab_words).to_pandas()
    counts = dict(zip(vocab["token"], vocab["tf"].astype(int)))
    return train_bpe_from_counts(counts, n_merges)


def bpe_encode_counts(sf_dir: str, n_merges: int = 64,
                      vocab_words: int = 1024) -> ray.data.Dataset:
    """Train (once), broadcast the merge ranks, then a shuffle-free
    apply pass: per-doc BPE token counts (doc_id, n_words,
    n_bpe_tokens). Distinct words per batch encode once."""
    merges = bpe_train(sf_dir, n_merges, vocab_words)
    ranks = {p: i for i, p in enumerate(merges)}
    ranks_ref = ray.put(ranks)

    _EMPTY = pa.schema([("doc_id", pa.int64()), ("n_words", pa.int64()),
                        ("n_bpe_tokens", pa.int64())])

    def fn(b: pa.Table) -> pa.Table:
        t = _tokens_table(b)
        if t.num_rows == 0:
            return _EMPTY.empty_table()
        rk = ray.get(ranks_ref)
        po = [None] * len(rk)
        for p, r in rk.items():
            po[r] = p
        tok = np.asarray(t["token"])
        doc = t["doc_id"].to_numpy()
        uniq, inv = np.unique(tok, return_inverse=True)
        per_word = np.fromiter(
            (len(encode_word(w, rk, po)) for w in uniq),
            np.int64, len(uniq))
        ntok = per_word[inv]
        order = np.argsort(doc, kind="stable")
        doc, ntok = doc[order], ntok[order]
        starts = np.flatnonzero(run_starts(doc))
        return pa.table({
            "doc_id": pa.array(doc[starts]),
            "n_words": pa.array(np.diff(
                np.concatenate((starts, [len(doc)]))).astype(np.int64)),
            "n_bpe_tokens": pa.array(
                np.add.reduceat(ntok, starts).astype(np.int64))})

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow")
