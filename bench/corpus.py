"""Deterministic corpus generator for the pipeline benchmark.

Each workload is a node table (`nodes.tsv`), a labeled training pair
file (`train.csv`) and an unlabeled test pair file (`test.csv`). The
generator also keeps what the program must not see: the test gold
labels and the clean word list of every node, from which the expected
`nodes.clean.tsv` and `prepared.tsv` bytes follow exactly.

Noise is only ever added where cleaning removes it without changing the
clean tokens: punctuation glued to a word's edges, whole brace spans
(possibly nested) between words, one surplus brace at either end of a
text, and runs of spaces. A pair is labeled 1 iff its two nodes share a
topic, and nodes of one topic share that topic's words.

Same workload and seed give identical bytes:

    python3 bench/corpus.py --workload train-heavy --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_TOKENS = 128  # the pipeline's default per-side budget, used for properties
F1_FLOOR = 0.9    # macro F1 the pipeline must reach on every workload
PUNCT = list(",.;:!?()[]'\"")
_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Workload:
    why: str
    nodes: int                 # node table size
    paired_nodes: int          # nodes that pairs draw from (a prefix of the table)
    words: tuple[int, int]     # clean words per node, inclusive range
    vocab: str                 # "zipf" or "flat" filler distribution
    vocab_size: int
    topics: int
    topic_words: int           # words per topic
    topic_density: float       # share of a node's words drawn from its topic
    brace_rate: float          # brace spans per word
    brace_depth: int           # maximum nesting depth of one span
    train_pairs: int
    test_pairs: int
    # >0: test pairs use this many extra nodes, with topics unseen in training.
    # Two AdamW steps leave every weight within 0.02 of zero, so there only the
    # dense overlap feature separates the classes, and a raised decision
    # threshold keeps hash-collision noise on negatives below the line.
    fresh_test_nodes: int
    flags: tuple[str, ...]     # extra `wikilink pipeline` flags

    @property
    def threshold(self) -> float:
        """The decision threshold the flags set, else the CLI's default."""
        if "--decision-threshold" in self.flags:
            return float(self.flags[self.flags.index("--decision-threshold") + 1])
        return 0.5


WORKLOADS: dict[str, Workload] = {
    "train-heavy": Workload(
        why="many labeled pairs over a small node pool with Zipfian filler, 3 epochs: "
            "training dominates and few hash inputs are distinct",
        nodes=120, paired_nodes=120, words=(100, 300), vocab="zipf",
        vocab_size=20000, topics=12, topic_words=8, topic_density=0.8,
        brace_rate=0.04, brace_depth=1, train_pairs=384, test_pairs=256,
        fresh_test_nodes=0, flags=("--epochs", "3", "--batch-size", "32"),
    ),
    "predict-heavy": Workload(
        why="two training batches for 1 epoch, then many test pairs on fresh nodes "
            "with a flat wide vocabulary: predict dominates and hash inputs repeat far less",
        nodes=48, paired_nodes=48, words=(100, 300), vocab="flat",
        vocab_size=200000, topics=16, topic_words=40, topic_density=0.5,
        brace_rate=0.04, brace_depth=1, train_pairs=256, test_pairs=512,
        fresh_test_nodes=640, flags=("--epochs", "1", "--decision-threshold", "0.6"),
    ),
    "noisy-nodes": Workload(
        why="a large table of long texts with dense nested brace spans, few of them "
            "paired: cleaning and node parsing dominate",
        nodes=800, paired_nodes=48, words=(300, 600), vocab="flat",
        vocab_size=200000, topics=16, topic_words=40, topic_density=0.5,
        brace_rate=0.25, brace_depth=3, train_pairs=256, test_pairs=128,
        fresh_test_nodes=200, flags=("--epochs", "1", "--decision-threshold", "0.6"),
    ),
}


def _word(rank: int) -> str:
    """A pronounceable filler word; distinct ranks give distinct words."""
    out = []
    rank += 1
    while rank:
        rank, r = divmod(rank, len(_CONSONANTS) * len(_VOWELS))
        out.append(_CONSONANTS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(out)


@dataclass
class Corpus:
    nodes_tsv: str
    train_csv: str
    test_csv: str
    test_ids: list[str]
    test_gold: list[int]
    clean_tsv: str             # expected nodes.clean.tsv
    prepared_tsv: str          # expected prepared.tsv
    properties: dict


class _Generator:
    def __init__(self, wl: Workload, name: str, seed: int):
        self.wl = wl
        digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
        self.rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        self.vocab = [_word(i) for i in range(wl.vocab_size)]
        if wl.vocab == "zipf":
            weights = 1.0 / np.arange(1, wl.vocab_size + 1, dtype=float) ** 1.05
            self.cdf = np.cumsum(weights / weights.sum())
        else:
            self.cdf = None
        self.junk = [f"jnk{i}" for i in range(64)]
        self.spans = [self.brace_span(1 + i % wl.brace_depth) for i in range(256)]
        self.brace_chars = 0
        self.raw_chars = 0

    def filler(self, n: int) -> np.ndarray:
        if self.cdf is None:
            return self.rng.integers(0, self.wl.vocab_size, n)
        return np.minimum(np.searchsorted(self.cdf, self.rng.random(n)), self.wl.vocab_size - 1)

    def clean_words(self, topic: int) -> list[str]:
        wl, rng = self.wl, self.rng
        n = int(rng.integers(wl.words[0], wl.words[1] + 1))
        words = [self.vocab[i] for i in self.filler(n)]
        marks = np.flatnonzero(rng.random(n) < wl.topic_density)
        picks = rng.integers(0, wl.topic_words, len(marks))
        for pos, k in zip(marks.tolist(), picks.tolist()):
            words[pos] = f"topic{topic}x{k}"
        return words

    def brace_span(self, depth: int) -> str:
        rng = self.rng
        parts = [self.junk[i] for i in rng.integers(0, len(self.junk), int(rng.integers(1, 4)))]
        if depth > 1 and rng.random() < 0.6:
            parts.insert(int(rng.integers(0, len(parts) + 1)), self.brace_span(depth - 1))
        return "{{" + PUNCT[int(rng.integers(0, len(PUNCT)))].join(parts) + "|x=1}}"

    def render(self, words: list[str]) -> str:
        wl, rng = self.wl, self.rng
        n = len(words)
        prefix = np.where(rng.random(n) < 0.15, rng.integers(0, len(PUNCT), n), -1).tolist()
        suffix = np.where(rng.random(n) < 0.3, rng.integers(0, len(PUNCT), n), -1).tolist()
        brace = np.where(rng.random(n) < wl.brace_rate, rng.integers(0, len(self.spans), n), -1)
        spaces = (rng.random(n) < 0.2).tolist()
        parts = []
        for w, pre, suf, br, sp in zip(words, prefix, suffix, brace.tolist(), spaces):
            if pre >= 0:
                w = PUNCT[pre] + w
            if suf >= 0:
                w = w + PUNCT[suf]
            parts.append(w)
            if br >= 0:
                parts.append(self.spans[br])
            if sp:
                parts.append("  ")
        self.brace_chars += sum(len(self.spans[i]) for i in brace[brace >= 0].tolist())
        text = " ".join(parts)
        roll = rng.random()
        if roll < 0.1:
            text = "{" + text   # surplus opener, removed by the balance stage
        elif roll < 0.2:
            text = text + " }"  # surplus closer
        self.raw_chars += len(text)
        return text


def _sample_pairs(rng, topics: np.ndarray, pool: np.ndarray, count: int):
    """Draw (a, b, label) with a != b from `pool`, exactly half sharing a topic."""
    by_topic = {t: pool[topics[pool] == t] for t in np.unique(topics[pool]).tolist()}
    shared = np.concatenate([g for g in by_topic.values() if len(g) > 1] or [pool[:0]])
    if len(shared) == 0 or len(by_topic) < 2:
        raise ValueError("pool too small to draw both positive and negative pairs")
    labels = rng.permutation(np.arange(count) % 2).tolist()
    out = []
    while len(out) < count:
        want = labels[len(out)]
        source = shared if want else pool
        a = int(source[rng.integers(0, len(source))])
        group = by_topic[int(topics[a])] if want else pool
        b = int(group[rng.integers(0, len(group))])
        if a != b and int(topics[a] == topics[b]) == want:
            out.append((a, b, want))
    return out


def _hash_inputs(words_a: list[str], words_b: list[str]):
    """The keys one featurize call hashes, as (namespace, token...) tuples."""
    keys = []
    for ns, toks in (("P", words_a), ("H", words_b)):
        keys.extend((ns, t) for t in toks)
        keys.extend((ns, a, b) for a, b in zip(toks, toks[1:]))
    keys.extend(("S", t) for t in set(words_a) & set(words_b))
    return keys


def generate(name: str, seed: int, scale: float = 1.0) -> Corpus:
    """Build one workload's inputs; `scale` shrinks every count (self-check)."""
    wl = WORKLOADS[name]

    def scaled(n: int) -> int:
        return max(4, int(n * scale)) if n else 0

    gen = _Generator(wl, name, seed)
    rng = gen.rng
    n_nodes, n_fresh = scaled(wl.nodes), scaled(wl.fresh_test_nodes)
    n_paired = min(scaled(wl.paired_nodes), n_nodes)
    total = n_nodes + n_fresh
    n_topics = scaled(wl.topics)
    topics = rng.integers(0, n_topics, total)
    topics[n_nodes:] += n_topics  # fresh nodes also get topics unseen in training
    words = [gen.clean_words(int(t)) for t in topics.tolist()]
    raw = [gen.render(w) for w in words]
    ids = [1000 + 7 * i for i in range(total)]

    train = _sample_pairs(rng, topics, np.arange(n_paired), scaled(wl.train_pairs))
    test_pool = np.arange(n_nodes, total) if n_fresh else np.arange(n_paired)
    test = _sample_pairs(rng, topics, test_pool, scaled(wl.test_pairs))

    nodes_tsv = "".join(f"{ids[i]}\t{raw[i]}\n" for i in range(total))
    clean_tsv = "".join(f"{ids[i]}\t{' '.join(words[i])}\n" for i in range(total))
    train_csv = "id,id1,id2,label\n" + "".join(
        f"p{k},{ids[a]},{ids[b]},{y}\n" for k, (a, b, y) in enumerate(train))
    test_ids = [f"t{k}" for k in range(len(test))]
    test_csv = "id,id1,id2\n" + "".join(
        f"{test_ids[k]},{ids[a]},{ids[b]}\n" for k, (a, b, _) in enumerate(test))
    prepared_tsv = "".join(
        f"p{k}\t{y}\t{' '.join(words[a][:MAX_TOKENS])}\t{' '.join(words[b][:MAX_TOKENS])}\n"
        for k, (a, b, y) in enumerate(train))

    endpoints = [a for a, _, _ in train + test] + [b for _, b, _ in train + test]
    truncated = sum(len(words[i]) > MAX_TOKENS for i in endpoints)
    keys_seen: set = set()
    key_calls = 0
    for a, b, _ in train + test:
        keys = _hash_inputs(words[a][:MAX_TOKENS], words[b][:MAX_TOKENS])
        key_calls += len(keys)
        keys_seen.update(keys)
    properties = {
        "nodes": total,
        "train_pairs": len(train),
        "test_pairs": len(test),
        "node_reuse_degree": round(len(endpoints) / len(set(endpoints)), 3),
        "distinct_hash_input_share": round(len(keys_seen) / key_calls, 4),
        "brace_density": round(gen.brace_chars / gen.raw_chars, 4),
        "truncated_side_share": round(truncated / len(endpoints), 4),
        "nodes_tsv_mib": round(len(nodes_tsv.encode()) / 2**20, 3),
    }
    return Corpus(nodes_tsv, train_csv, test_csv, test_ids, [y for _, _, y in test],
                  clean_tsv, prepared_tsv, properties)


def write_inputs(corpus: Corpus, directory: Path) -> dict[str, Path]:
    """Write only the three files the program may see."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in (("nodes.tsv", corpus.nodes_tsv), ("train.csv", corpus.train_csv),
                       ("test.csv", corpus.test_csv)):
        paths[name] = directory / name
        paths[name].write_text(text, encoding="utf-8")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    corpus = generate(args.workload, args.seed, args.scale)
    write_inputs(corpus, args.out)
    print(json.dumps(corpus.properties, sort_keys=True))


if __name__ == "__main__":
    main()
