"""Macro-planned data-to-text generation: plan derivation, pointer-network
content planning, attention+copy realization, and extractive evaluation.

Importing the package pins the BLAS to one thread before numpy loads:
OpenBLAS rounds a product differently at 1 and 2 threads, and a trained
checkpoint must not depend on the machine.  An interpreter that imported
numpy before this package keeps its own thread count."""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

from .data import (EntityRecord, Game, GameValidationError,  # noqa: E402
                   PlayEvent, SummaryDoc)
from .verbalize import (EOM_TOKEN, PARAGRAPH_SEP,  # noqa: E402
                        ParagraphPlanSpec)

__all__ = [
    "EntityRecord", "Game", "GameValidationError", "PlayEvent", "SummaryDoc",
    "EOM_TOKEN", "PARAGRAPH_SEP", "ParagraphPlanSpec",
    "__version__",
]
