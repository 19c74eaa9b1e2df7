"""Extractive and surface metrics: rule-based relation extraction, RG/CS/CO
(duplicate-inclusive), Damerau-Levenshtein, BLEU, and plan-level evaluation.

The learned IE system of the evaluation lineage is replaced by a deterministic
extractor driven by a fixed cue-word lexicon, ``CUES``: the lexicon is part of
what RG, CS and CO mean, so every run extracts by the same rules.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .data import Game, SummaryDoc, numeric_value, split_sentences
from .oracle import derive_macro_plan, match_entities, phrase_index
from .verbalize import ParagraphPlanSpec

__all__ = [
    "Relation",
    "MetricsReport",
    "extract_relations",
    "rg",
    "cs",
    "dl_distance",
    "co",
    "bleu",
    "corpus_bleu",
    "intrinsic_plan_eval",
    "plan_fidelity",
    "plan_identifiers",
]


@dataclass(frozen=True)
class Relation:
    entity: str
    record_type: str
    value: str


_UNITS = ["zero", "one", "two", "three", "four", "five", "six", "seven",
          "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
          "fifteen", "sixteen", "seventeen", "eighteen", "nineteen", "twenty"]
_TENS = {"twenty": 20, "thirty": 30, "forty": 40, "fifty": 50, "sixty": 60,
         "seventy": 70, "eighty": 80, "ninety": 90}


def _number_words() -> dict[str, int]:
    words = {w: i for i, w in enumerate(_UNITS)}
    words.update(_TENS)
    for tens_word, tens_val in _TENS.items():
        for unit_val in range(1, 10):
            words[f"{tens_word}-{_UNITS[unit_val]}"] = tens_val + unit_val
    return words


NUMBER_WORDS = _number_words()


#: cue word -> record type, per entity kind (team / batter / pitcher)
CUES = {
    "team": {"runs": "TR", "run": "TR", "hits": "TH", "hit": "TH",
             "errors": "E", "error": "E"},
    "batter": {"at-bats": "AB", "at-bat": "AB", "runs": "BR", "run": "BR",
               "hits": "BH", "hit": "BH", "RBI": "RBI", "RBIs": "RBI"},
    "pitcher": {"innings": "IP", "inning": "IP", "runs": "PR", "run": "PR",
                "hits": "PH", "hit": "PH", "strikeouts": "K",
                "strikeout": "K", "walks": "BB", "walk": "BB",
                "wins": "W", "losses": "L", "earned": "ER"},
}


def _numeric_token(tok: str) -> str | None:
    """Normalized number string for digit tokens and spelled-out numbers."""
    if tok.isdigit():
        return str(int(tok))
    try:
        float(tok)
        return tok
    except ValueError:
        pass
    val = NUMBER_WORDS.get(tok.lower())
    return str(val) if val is not None else None


def _entity_kind(game: Game, name: str) -> str:
    rec = game.entity(name)
    if rec.kind == "team":
        return "team"
    return rec.player_role()


def extract_relations(summary: SummaryDoc, game: Game) -> list[Relation]:
    """Per sentence: pair each number with the nearest entity and type it by
    the nearest kind-compatible cue word.  Textual order, duplicates kept;
    numbers with no entity or no compatible cue contribute nothing."""
    relations: list[Relation] = []
    index = phrase_index(game)
    for paragraph in summary.paragraphs:
        for sentence in split_sentences(list(paragraph)):
            mentions = match_entities(sentence, index)
            if not mentions:
                continue
            covered = set()
            for m in mentions:
                covered.update(range(*m.token_span))
            for j, tok in enumerate(sentence):
                if j in covered:
                    continue
                value = _numeric_token(tok)
                if value is None:
                    continue
                mention = min(
                    mentions,
                    key=lambda m: (_span_distance(j, m.token_span), m.token_span[0]))
                cue_map = CUES[_entity_kind(game, mention.entity)]
                best = None
                for i, cue_tok in enumerate(sentence):
                    rec_type = cue_map.get(cue_tok) or cue_map.get(cue_tok.lower())
                    if rec_type is None:
                        continue
                    d = abs(i - j)
                    if best is None or d < best[0]:
                        best = (d, rec_type)
                if best is None:
                    continue
                relations.append(Relation(mention.entity, best[1], value))
    return relations


def _span_distance(j: int, span: tuple[int, int]) -> int:
    start, end = span
    if start <= j < end:
        return 0
    return start - j if j < start else j - (end - 1)


def _table_supported(rel: Relation, game: Game) -> bool:
    try:
        rec = game.entity(rel.entity)
    except KeyError:
        return False
    for rec_type, value in rec.attributes:
        if rec_type != rel.record_type:
            continue
        a, b = numeric_value(value), numeric_value(rel.value)
        if a is not None and b is not None:
            if a == b:
                return True
        elif value == rel.value:
            return True
    return False


def rg(pred_relations: list[list[Relation]],
       games: list[Game]) -> tuple[float, float]:
    """(relations per game, precision%) of each game's predicted relations,
    aggregated over all relations: a game with none carries zero weight, and
    a corpus with none reports precision 100."""
    if len(pred_relations) != len(games):
        raise ValueError("relation list and game counts differ")
    total = sum(len(rels) for rels in pred_relations)
    if total == 0:
        return 0.0, 100.0
    supported = sum(_table_supported(r, game)
                    for rels, game in zip(pred_relations, games)
                    for r in rels)
    return total / len(games), 100.0 * supported / total


def cs(pred_relations, gold_relations) -> tuple[float, float, float]:
    """Multiset precision/recall/F1 (%) of predicted vs gold items."""
    return intrinsic_plan_eval([list(pred_relations)],
                               [list(gold_relations)])[:3]


def dl_distance(a, b) -> int:
    """Restricted (optimal-string-alignment) Damerau-Levenshtein distance."""
    a, b = list(a), list(b)
    la, lb = len(a), len(b)
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        prev2, prev = prev, cur
    return prev[lb]


def co(pred_seq, gold_seq) -> float:
    """100 * (1 - normalized DL distance); higher is better."""
    longest = max(len(pred_seq), len(gold_seq))
    if longest == 0:
        return 100.0
    return 100.0 * (1.0 - dl_distance(pred_seq, gold_seq) / longest)


# ---------------------------------------------------------------------------
# BLEU

BLEU_MAX_ORDER = 4


def _ngrams(tokens, n) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(pairs: list[tuple[list, list]]) -> float:
    """Corpus BLEU-4, uniform weights, clipped counts, brevity penalty.
    Orders with no candidate n-grams anywhere are skipped; an order with
    n-grams but zero matches zeroes the score."""
    matches = [0] * BLEU_MAX_ORDER
    totals = [0] * BLEU_MAX_ORDER
    cand_len = 0
    ref_len = 0
    for candidate, reference in pairs:
        cand_len += len(candidate)
        ref_len += len(reference)
        for n in range(1, BLEU_MAX_ORDER + 1):
            cand_ngrams = _ngrams(candidate, n)
            ref_ngrams = _ngrams(reference, n)
            totals[n - 1] += sum(cand_ngrams.values())
            matches[n - 1] += sum((cand_ngrams & ref_ngrams).values())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(BLEU_MAX_ORDER):
        if totals[n] == 0:
            continue
        if matches[n] == 0:
            return 0.0
        log_sum += math.log(matches[n] / totals[n]) / BLEU_MAX_ORDER
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return 100.0 * bp * math.exp(log_sum)


def bleu(candidate: list, reference: list) -> float:
    return corpus_bleu([(candidate, reference)])


# ---------------------------------------------------------------------------
# Plan-level evaluation


def plan_identifiers(specs: list[ParagraphPlanSpec]) -> list[str]:
    return [ident for s in specs for ident in s.identifiers()]


def intrinsic_plan_eval(pred_plans: list[list], gold_plans: list[list]):
    """(CS-P, CS-R, CS-F, CO) over sequences of hashable items: entity/event
    identifiers of plans, or the relations of summaries.  CS is aggregated
    over all instances (micro); CO is the per-instance mean."""
    if len(pred_plans) != len(gold_plans):
        raise ValueError("pred/gold plan counts differ")
    overlap = total_pred = total_gold = 0
    co_values = []
    for pred, gold in zip(pred_plans, gold_plans):
        pc, gc = Counter(pred), Counter(gold)
        overlap += sum((pc & gc).values())
        total_pred += len(pred)
        total_gold += len(gold)
        co_values.append(co(pred, gold))
    p = 100.0 * overlap / total_pred if total_pred else 0.0
    r = 100.0 * overlap / total_gold if total_gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    mean_co = sum(co_values) / len(co_values) if co_values else 100.0
    return p, r, f, mean_co


def plan_fidelity(summary: SummaryDoc, plan_specs: list[ParagraphPlanSpec],
                  game: Game) -> tuple[float, float]:
    """Reverse-engineer a plan from ``summary`` and compare it to
    ``plan_specs``; returns (CS-F, CO)."""
    derived = derive_macro_plan(replace(game, summary=summary))
    _, _, f, co_val = intrinsic_plan_eval(
        [plan_identifiers(derived)], [plan_identifiers(plan_specs)])
    return f, co_val


# ---------------------------------------------------------------------------
# Report


@dataclass
class MetricsReport:
    rg_count: float
    rg_precision: float
    cs_precision: float
    cs_recall: float
    cs_f: float
    co: float
    bleu: float
    plan_cs_f: float | None = None
    plan_co: float | None = None

    def __post_init__(self):
        for name in ("rg_precision", "cs_precision", "cs_recall", "cs_f",
                     "co", "bleu", "plan_cs_f", "plan_co"):
            val = getattr(self, name)
            if val is not None and not (0.0 <= val <= 100.0):
                raise ValueError(f"{name} out of [0, 100]: {val}")


def evaluate_summaries(pred: list[SummaryDoc], games: list[Game],
                       plan_scores: tuple[float, float] | None = None) -> MetricsReport:
    """Corpus MetricsReport against each game's gold summary.  RG/CS aggregate
    over all relations (zero-relation summaries carry zero weight); CO is the
    per-game mean; BLEU is corpus-level."""
    pred_rels, gold_rels = [], []
    bleu_pairs = []
    for doc, game in zip(pred, games):
        pred_rels.append(extract_relations(doc, game))
        gold_rels.append(extract_relations(game.summary, game))
        bleu_pairs.append((doc.tokens(), game.summary.tokens()))
    rg_count, rg_precision = rg(pred_rels, games)
    csp, csr, csf, mean_co = intrinsic_plan_eval(pred_rels, gold_rels)
    report = MetricsReport(
        rg_count=rg_count, rg_precision=rg_precision,
        cs_precision=csp, cs_recall=csr, cs_f=csf, co=mean_co,
        bleu=corpus_bleu(bleu_pairs),
        plan_cs_f=plan_scores[0] if plan_scores else None,
        plan_co=plan_scores[1] if plan_scores else None,
    )
    return report
