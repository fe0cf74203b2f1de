import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for oracles.py

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "synthetic"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def fixture_manifest() -> dict:
    with open(FIXTURE_DIR / "manifest.json") as f:
        return json.load(f)


@pytest.fixture
def limit_zeros(monkeypatch):
    """Call with n: from then on np.zeros raises MemoryError past n
    elements, as a host that cannot map the vector does. No test needs
    to allocate the 2^30 slots of hash_bits 30 to see it fail."""
    import numpy as np

    zeros = np.zeros

    def limit(n):
        def limited(shape, *args, **kwargs):
            if np.prod(shape) > n:
                raise MemoryError(f"cannot allocate {shape}")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", limited)

    return limit


@pytest.fixture(scope="session")
def fixture_sentence_pairs():
    """The bundled 200-pair training file, cleaned and tokenized, as `TuplePair`s."""
    from oracles import TuplePair, reference_tokenize
    from wikilink import baseline, dataset, textclean

    with open(FIXTURE_DIR / "nodes.tsv") as f:
        table = dataset.build_node_table(dataset.parse_nodes(f))
    budget = baseline.TrainConfig().max_tokens
    tokens = {i: tuple(reference_tokenize(textclean.clean(n.text)[0])[:budget])
              for i, n in table.items()}
    with open(FIXTURE_DIR / "train.csv") as f:
        return [TuplePair(p.pair_id, tokens[p.id1], tokens[p.id2], p.label)
                for p in dataset.parse_pairs(f)]
