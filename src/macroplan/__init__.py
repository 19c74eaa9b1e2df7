"""Macro-planned data-to-text generation: plan derivation, pointer-network
content planning, attention+copy realization, and extractive evaluation."""

__version__ = "0.1.0"

from .data import (EntityRecord, Game, GameValidationError, PlayEvent,
                   SummaryDoc)
from .verbalize import EOM_TOKEN, PARAGRAPH_SEP, ParagraphPlanSpec

__all__ = [
    "EntityRecord", "Game", "GameValidationError", "PlayEvent", "SummaryDoc",
    "EOM_TOKEN", "PARAGRAPH_SEP", "ParagraphPlanSpec",
    "__version__",
]
