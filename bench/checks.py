"""Output checks for one pipeline round.

Each check recomputes what it compares against apart from the program's own
code path for that artifact: plan files are read by a parser of their own,
BLEU uses its own n-gram counts, CO its own edit distance, and subword counts
its own byte-pair encoder.  The program supplies only the inputs: the league
(``synth_league``) and fresh candidate sets (``enumerate_candidates``).

Each check takes a round's output directory and the :class:`League`, and
returns a list of errors; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

PARAGRAPH_SEP = "<P>"
TOLERANCE = 1e-9

_GROUP = re.compile(r"V\(([^)]*)\)")
_EVENT = re.compile(r"^(\d+)-([TB])$")


def league_parts(cfg, seed: int):
    """(game id prefix, synth config) of each part of a run's league: the
    training games from the models' own seed, so every run trains the same
    models, and the held-out games from the run's seed."""
    return [("train", replace(cfg, games=cfg.games - cfg.holdout)),
            (f"seed{seed}", replace(cfg, games=cfg.holdout, seed=seed))]


class League:
    """The league of a run, recomputed by the benchmark: games, the gold
    plan each game's summary was realised from, and each game's candidate
    set, all as (entity refs, event refs) paragraphs."""

    def __init__(self, cfg, seed: int):
        from macroplan.candidates import enumerate_candidates
        from macroplan.synth import SynthConfig, synth_league

        pairs = []
        for prefix, part in league_parts(cfg, seed):
            pairs.extend(
                (replace(game, id=f"{prefix}-{game.id}"), specs)
                for game, specs in synth_league(SynthConfig(
                    games=part.games, innings=part.innings,
                    batters_per_team=part.batters_per_team,
                    pitchers_per_team=part.pitchers_per_team,
                    seed=part.seed, kind=part.kind,
                    merge_probability=part.merge_probability)))
        self.cfg = cfg
        self.games = [game for game, _ in pairs]
        self.gold = {game.id: [_refs(s) for s in specs]
                     for game, specs in pairs}
        self.candidates = {game.id: [_refs(c)
                                     for c in enumerate_candidates(game)]
                           for game in self.games}

    @property
    def train_games(self):
        holdout = self.cfg.holdout
        return self.games[:len(self.games) - holdout] if holdout \
            else self.games


def _refs(spec):
    return tuple(spec.entity_refs), tuple(spec.event_refs)


# ---------------------------------------------------------------------------
# Artifact readers


def parse_paragraph(text: str):
    """``V(a) V(b) V(1-T, 2-B)`` -> (("a", "b"), ((1, "T"), (2, "B")))."""
    entities, events = [], []
    for inner in _GROUP.findall(text):
        matches = [_EVENT.match(item.strip()) for item in inner.split(",")]
        if all(matches):
            events.extend((int(m.group(1)), m.group(2)) for m in matches)
        else:
            entities.append(inner)
    return tuple(entities), tuple(events)


def read_plans(path: Path):
    """[(game id, [paragraph refs], [pointers])] in file order."""
    plans = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not fields[2].startswith("#"):
            raise ValueError(f"{path.name}:{lineno}: not a plan line")
        game_id, rendering, comment = fields
        paragraphs = [parse_paragraph(p) for p in
                      rendering.split(f" {PARAGRAPH_SEP} ")] if rendering \
            else []
        plans.append((game_id, paragraphs,
                      [int(x) for x in comment[1:].split()]))
    return plans


def read_summaries(path: Path) -> dict[str, list[list[str]]]:
    docs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            docs[obj["id"]] = obj["paragraphs"]
    return docs


def _ids(plans):
    return [game_id for game_id, _, _ in plans]


def _same_games(name: str, ids, league: League) -> list[str]:
    if list(ids) != [g.id for g in league.games]:
        return [f"{name}: game ids differ from the league's"]
    return []


# ---------------------------------------------------------------------------
# Checks


def check_gold_plans(out: Path, league: League) -> list[str]:
    """Oracle round trip: each derived plan is the one synth realised."""
    plans = read_plans(out / "plans_gold.txt")
    errors = _same_games("plans_gold.txt", _ids(plans), league)
    for game_id, paragraphs, pointers in plans:
        if paragraphs != league.gold.get(game_id):
            errors.append(f"plans_gold.txt: {game_id}: derived plan differs "
                          f"from the realised one")
        if pointers != list(range(len(paragraphs))):
            errors.append(f"plans_gold.txt: {game_id}: pointers are not "
                          f"0..{len(paragraphs) - 1}")
    return errors


def check_pred_plans(out: Path, league: League) -> list[str]:
    plans = read_plans(out / "plans_pred.txt")
    errors = _same_games("plans_pred.txt", _ids(plans), league)
    kinds = {g.id: g.kind for g in league.games}
    for game_id, paragraphs, pointers in plans:
        cands = league.candidates.get(game_id, [])
        where = f"plans_pred.txt: {game_id}"
        outside = [z for z in pointers if not 0 <= z < len(cands)]
        if outside:
            errors.append(f"{where}: pointers {outside} outside "
                          f"{len(cands)} candidates")
            continue
        if paragraphs != [cands[z] for z in pointers]:
            errors.append(f"{where}: rendering does not match the "
                          f"candidates at its pointers")
        bigrams = list(zip(pointers, pointers[1:]))
        if len(set(bigrams)) != len(bigrams):
            errors.append(f"{where}: a pointer bigram repeats")
        if kinds.get(game_id) == "event-rich" and pointers \
                and max(Counter(pointers).values()) > 2:
            errors.append(f"{where}: a pointer occurs more than twice")
    return errors


def check_summaries(out: Path, league: League) -> list[str]:
    docs = read_summaries(out / "summaries.jsonl")
    errors = _same_games("summaries.jsonl", docs, league)
    cap = league.cfg.generator_max_len
    for game_id, paragraphs in docs.items():
        n = sum(len(p) for p in paragraphs)
        # an empty token alone is not refused: a copy of the plan's <P>
        # separator emits one on some seeds (counted in the traced run)
        if any(not p for p in paragraphs) \
                or not any(tok for p in paragraphs for tok in p):
            errors.append(f"summaries.jsonl: {game_id}: empty summary or "
                          f"paragraph")
        if n > cap:
            errors.append(f"summaries.jsonl: {game_id}: {n} tokens, more "
                          f"than generator_max_len {cap}")
    return errors


def check_report(out: Path, league: League) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    docs = read_summaries(out / "summaries.jsonl")
    errors = []
    for key, value in _numbers(report):
        if key != "rg_count" and not 0.0 <= value <= 100.0:
            errors.append(f"report.json: {key} = {value} outside [0, 100]")

    pairs = [([t for p in docs.get(g.id, []) for t in p],
              [t for p in g.summary.paragraphs for t in p])
             for g in league.games]
    pred = {i: p for i, p, _ in read_plans(out / "plans_pred.txt")}
    gold = {i: p for i, p, _ in read_plans(out / "plans_gold.txt")}
    ids = [g.id for g in league.games]
    p, r, f, co = plan_scores([identifiers(pred.get(i, [])) for i in ids],
                              [identifiers(gold.get(i, [])) for i in ids])
    intrinsic = report.get("intrinsic_plan", {})
    expected = {"bleu": (report.get("bleu"), corpus_bleu(pairs)),
                "intrinsic_plan.cs_precision":
                    (intrinsic.get("cs_precision"), p),
                "intrinsic_plan.cs_recall": (intrinsic.get("cs_recall"), r),
                "intrinsic_plan.cs_f": (intrinsic.get("cs_f"), f),
                "intrinsic_plan.co": (intrinsic.get("co"), co)}
    for key, (got, want) in expected.items():
        if not isinstance(got, (int, float)) \
                or abs(got - want) > TOLERANCE:
            errors.append(f"report.json: {key} = {got}, recomputed {want}")
    return errors


def check_planner_loss(out: Path, league: League) -> list[str]:
    """Per-epoch NLL finite and positive; the last below a uniform pointer,
    mean log(K + 1) over the training decisions."""
    gold = {i: p for i, p, _ in read_plans(out / "plans_gold.txt")}
    decisions = weighted = 0.0
    for game in league.train_games:
        cands = league.candidates[game.id]
        known = set(cands)
        k = len(cands) + len({p for p in gold[game.id] if p not in known})
        steps = len(gold[game.id]) + 1
        decisions += steps
        weighted += steps * math.log(k + 1)
    return _check_trace(out / "planner_loss.json",
                        league.cfg.planner_epochs, weighted / decisions)


def check_generator_loss(out: Path, league: League) -> list[str]:
    """Per-epoch NLL finite and positive; the last below log |V|."""
    vocab = json.loads((out / "generator_vocab.json").read_text())
    return _check_trace(out / "generator_loss.json",
                        league.cfg.generator_epochs, math.log(len(vocab)))


def _check_trace(path: Path, epochs: int, uniform: float) -> list[str]:
    trace = json.loads(path.read_text())["per_epoch_nll"]
    if len(trace) != epochs:
        return [f"{path.name}: {len(trace)} epochs, expected {epochs}"]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) and x > 0
               for x in trace):
        return [f"{path.name}: NLL not finite and positive: {trace}"]
    if trace[-1] >= uniform:
        return [f"{path.name}: final NLL {trace[-1]:.4f} not below the "
                f"uniform {uniform:.4f}"]
    return []


#: stage -> the check its outputs must pass
STAGE_CHECKS = {
    "derive-plans": check_gold_plans,
    "train-planner": check_planner_loss,
    "train-generator": check_generator_loss,
    "plan": check_pred_plans,
    "generate": check_summaries,
    "evaluate": check_report,
}


def run_check(stage: str, out: Path, league: League) -> list[str]:
    """The errors of ``stage``'s check; an unreadable artifact is one."""
    check = STAGE_CHECKS.get(stage)
    if check is None:
        return []
    try:
        return check(out, league)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{stage}: unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# Independent recomputations


def _numbers(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _numbers(value, f"{prefix}{key}" if not prefix
                                else f"{prefix}.{key}")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, obj


def identifiers(paragraphs) -> list[str]:
    out = []
    for entities, events in paragraphs:
        out.extend(f"E:{e}" for e in entities)
        out.extend(f"V:{i}-{h}" for i, h in events)
    return out


def osa_distance(a, b) -> int:
    """Optimal-string-alignment edit distance, on a full DP table."""
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] \
                    and a[i - 2] == b[j - 1]:
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[len(a)][len(b)]


def plan_scores(pred, gold):
    """Micro CS precision/recall/F over identifier multisets and the mean
    per-plan CO, all in percent."""
    overlap = n_pred = n_gold = 0
    co_sum = 0.0
    for p, g in zip(pred, gold):
        remaining = Counter(g)
        for ident in p:
            if remaining[ident] > 0:
                remaining[ident] -= 1
                overlap += 1
        n_pred += len(p)
        n_gold += len(g)
        longest = max(len(p), len(g))
        co_sum += 100.0 if longest == 0 \
            else 100.0 * (1.0 - osa_distance(p, g) / longest)
    precision = 100.0 * overlap / n_pred if n_pred else 0.0
    recall = 100.0 * overlap / n_gold if n_gold else 0.0
    f = 2 * precision * recall / (precision + recall) \
        if precision + recall > 0 else 0.0
    return precision, recall, f, co_sum / len(pred) if pred else 100.0


def corpus_bleu(pairs, max_order: int = 4) -> float:
    """Corpus BLEU-4 in percent: clipped n-gram precisions, geometric mean
    over the orders with candidate n-grams (0 if one of them has no match),
    and the brevity penalty."""
    matched = [0] * max_order
    total = [0] * max_order
    cand_len = ref_len = 0
    for cand, ref in pairs:
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_order + 1):
            ref_counts: dict = {}
            for i in range(len(ref) - n + 1):
                gram = tuple(ref[i:i + n])
                ref_counts[gram] = ref_counts.get(gram, 0) + 1
            for i in range(len(cand) - n + 1):
                total[n - 1] += 1
                gram = tuple(cand[i:i + n])
                if ref_counts.get(gram, 0) > 0:
                    ref_counts[gram] -= 1
                    matched[n - 1] += 1
    if cand_len == 0:
        return 0.0
    log_precision = 0.0
    for m, t in zip(matched, total):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_precision += math.log(m / t) / max_order
    penalty = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return 100.0 * penalty * math.exp(log_precision)


def read_bpe(path: Path):
    """(merges in order, protected tokens) from a saved BPE model."""
    merges, protected = [], set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#protected:"):
            protected = set(line.split()[1:])
        elif line and not line.startswith("#"):
            a, b = line.split(" ")
            merges.append((a, b))
    return merges, protected


def subword_count(tokens, merges, protected, cache: dict) -> int:
    """How many subwords ``tokens`` encode to: protected and marker tokens
    stay whole; other tokens split into characters, the last carrying an
    end-of-word mark, and the merges apply in order."""
    n = 0
    for tok in tokens:
        if tok in protected or (tok.startswith("<") and ">" in tok):
            n += 1
            continue
        if tok not in cache:
            units = list(tok[:-1]) + [tok[-1] + "</w>"]
            for a, b in merges:
                if len(units) == 1:
                    break
                merged, i = [], 0
                while i < len(units):
                    if units[i:i + 2] == [a, b]:
                        merged.append(a + b)
                        i += 2
                    else:
                        merged.append(units[i])
                        i += 1
                units = merged
            cache[tok] = len(units)
        n += cache[tok]
    return n


def expected_calls(out: Path, league: League) -> dict[tuple[str, str], int]:
    """(stage, traced function) -> the number of calls the round must make,
    computed from the round's artifacts and the config."""
    cfg = league.cfg
    gold = {i: p for i, p, _ in read_plans(out / "plans_gold.txt")}
    merges, protected = read_bpe(out / "generator.bpe")
    cache: dict = {}
    decisions = targets = 0
    for game in league.train_games:
        decisions += len(gold[game.id]) + 1
        tokens = []
        for i, paragraph in enumerate(game.summary.paragraphs):
            tokens.extend(([PARAGRAPH_SEP] if i else []) + list(paragraph))
        targets += subword_count(tokens, merges, protected, cache) + 1
    games = len(league.games)
    return {
        ("train-planner", "planner.pointer_step"):
            cfg.planner_epochs * decisions,
        ("train-generator", "generator.decode_step"):
            cfg.generator_epochs * targets,
        ("plan", "planner.infer_plan"): games,
        ("generate", "generator.generate"): games,
    }
