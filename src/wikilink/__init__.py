"""Wikipedia link prediction as sentence-pair classification.

Deterministic pipeline: wikitext noise removal, premise/hypothesis
construction from node pairs, a hashed-feature logistic baseline with
AdamW, macro-F1 evaluation, and competition-format submission output.
"""

import os

# No code here calls BLAS, yet numpy's OpenBLAS starts one idle thread per
# core at import, at about 0.13 CPU-s per run on a 2-core host. Set before
# any numpy import: this module runs first under both `python -m
# wikilink.cli` and the `wikilink` script. A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
