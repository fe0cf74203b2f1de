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


@pytest.fixture(scope="session")
def fixture_sentence_pairs():
    """The bundled 200-pair fixture, cleaned and built into SentencePairs."""
    from wikilink import baseline, dataset, pairs, textclean

    with open(FIXTURE_DIR / "nodes.tsv") as f:
        table = dataset.build_node_table(dataset.parse_nodes(f))
    cleaned = {i: textclean.clean(n.text)[0] for i, n in table.items()}
    with open(FIXTURE_DIR / "train.csv") as f:
        records = list(dataset.parse_pairs(f, labeled=True))
    budget = baseline.TrainConfig().max_tokens
    return [pairs.build_pair(p, cleaned[p.id1], cleaned[p.id2], budget) for p in records]
