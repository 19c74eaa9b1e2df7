"""Pipeline orchestration: file-based stages (synth, derive-plans, enumerate,
train-planner, train-generator, plan, generate, evaluate), each rerunnable
from its input artifacts and byte-deterministic under fixed seeds.

``STAGES`` names, for each stage, the artifacts it needs and the ones it
makes; every stage makes at least one.  Only the generator has a byte-pair
model, ``generator.bpe``: every token the planner reads is a marker-fused
record token (``<TEAM>Royals``, ``<TR>9``), which it takes whole."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bpe as bpe_mod
from .candidates import augment_with_gold, enumerate_candidates
from .data import Game, SummaryDoc, load_games, save_games
from .generator import (GeneratorHyper, GeneratorModel, generate,
                        train_generator)
from .metrics import (evaluate_summaries, intrinsic_plan_eval,
                      plan_fidelity, plan_identifiers)
from .nn import load_params, save_params
from .oracle import derive_macro_plan
from .planner import (MacroPlan, PlannerHyper, PlannerModel, infer_plan,
                      linearize, train_planner)
from .synth import SynthConfig, synth_league
from .verbalize import (PARAGRAPH_SEP, ParagraphPlanSpec, parse_spec,
                        render_spec, verbalize_plan)

__all__ = ["RunConfig", "STAGES", "main", "run",
           "format_plan_line", "parse_plan_line"]


class StageError(RuntimeError):
    """A stage was invoked before the stages it depends on."""


#: the JSON values each annotation of a ``RunConfig`` field accepts
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class RunConfig:
    games: int = 100
    innings: int = 4
    batters_per_team: int = 2
    pitchers_per_team: int = 1
    kind: str = "event-rich"
    seed: int = 7
    holdout: int = 10
    merge_probability: float = 0.25
    planner_epochs: int = 6
    planner_lr: float = 0.02
    planner_emb: int = 64
    planner_hidden: int = 128
    #: accepted and ignored: the planner has no byte-pair model
    planner_merges: int = 300
    generator_epochs: int = 6
    generator_lr: float = 0.02
    generator_emb: int = 64
    generator_hidden: int = 128
    generator_merges: int = 600
    generator_trunc: int = 100
    generator_max_len: int = 400
    beam: int = 5

    @staticmethod
    def from_file(path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, not "
                             f"{json.dumps(obj)}")
        fields = RunConfig.__dataclass_fields__
        unknown = set(obj) - set(fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in obj.items():
            # bool is an int subclass, but JSON true is not a number
            if isinstance(value, bool) or not isinstance(
                    value, _JSON_TYPES[fields[key].type]):
                raise ValueError(f"config key {key!r} must be "
                                 f"{fields[key].type}, not {value!r}")
        return RunConfig(**obj)


# ---------------------------------------------------------------------------
# Plan file format: one line per game —
#   game_id <TAB> V(...) <P> V(...) ... <TAB> # i1 i2 ...


def format_plan_line(game_id: str, plan: MacroPlan,
                     specs: list[ParagraphPlanSpec]) -> str:
    rendering = f" {PARAGRAPH_SEP} ".join(
        render_spec(specs[i]) for i in plan.pointer_sequence)
    pointers = " ".join(str(i) for i in plan.pointer_sequence)
    return f"{game_id}\t{rendering}\t# {pointers}"


def parse_plan_line(line: str):
    """Returns (game_id, [ParagraphPlanSpec, ...]).  The pointer column is
    a comment: no stage reads it."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, found "
                         f"{len(fields)}")
    game_id, rendering, _ = fields
    specs = [parse_spec(part) for part in rendering.split(PARAGRAPH_SEP)] \
        if rendering else []
    return game_id, specs


def _read_per_game(path, games: list[Game], parse, build) -> dict:
    """game id -> ``build(raw, game)`` for each non-blank line of ``path``,
    where ``parse(line)`` gives the line's (game id, raw).  The lines must
    name each game of ``games`` once; a failure is a ValueError that names
    ``path`` and, for a line, its number."""
    by_id = {g.id: g for g in games}
    found = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                game_id, raw = parse(line)
                if game_id not in by_id:
                    raise ValueError(f"line for unknown game {game_id!r}")
                if game_id in found:
                    raise ValueError(f"second line for game {game_id!r}")
                found[game_id] = build(raw, by_id[game_id])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    for game in games:
        if game.id not in found:
            raise ValueError(f"{path}: no line for game {game.id!r}")
    return found


def _checked_plan(specs: list[ParagraphPlanSpec], game: Game):
    """``specs``, once each verbalizes against ``game``."""
    if not specs:
        raise ValueError("plan has no paragraphs")
    for spec in specs:
        verbalize_plan(spec, game)
    return specs


def read_plan_file(path, games: list[Game]):
    """game id -> list of ParagraphPlanSpec, in plan order, for exactly the
    games of ``games``."""
    return _read_per_game(path, games, parse_plan_line, _checked_plan)


def _summary_line(line: str):
    try:
        obj = json.loads(line)
    except ValueError:
        obj = None
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    return obj.get("id"), obj


def _summary_doc(obj: dict, game: Game) -> SummaryDoc:
    if "paragraphs" not in obj:
        raise ValueError(f"no paragraphs for game {game.id!r}")
    return SummaryDoc.from_lists(obj["paragraphs"])


def _read_summaries(path, games: list[Game]) -> dict[str, SummaryDoc]:
    """game id -> generated summary, for exactly the games of ``games``."""
    return _read_per_game(path, games, _summary_line, _summary_doc)


# ---------------------------------------------------------------------------
# Artifact helpers


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _update_manifest(out: Path, stage: str, names) -> None:
    manifest_path = out / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
    manifest[stage] = {name: _sha256(out / name) for name in sorted(names)}
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")


def _require(out: Path, stage: str, names) -> None:
    for name in names:
        if not (out / name).exists():
            maker = next(n for n, s in STAGES.items() if name in s.makes)
            raise StageError(
                f"stage {stage!r} requires artifact {name!r} in {out}; run "
                f"stage {maker!r} first")


def _games(out: Path) -> list[Game]:
    return load_games(out / "games.jsonl")


def _checkpoint(prefix: str) -> tuple[str, ...]:
    """The files that hold a trained model."""
    return f"{prefix}.mpln", f"{prefix}_vocab.json"


def _save_model(out: Path, prefix: str, model, trace: list[float]) -> None:
    params, vocab = (out / name for name in _checkpoint(prefix))
    save_params(params, model.store)
    vocab.write_text(json.dumps(model.vocab, indent=0, sort_keys=True) + "\n")
    (out / f"{prefix}_loss.json").write_text(
        json.dumps({"per_epoch_nll": trace}, indent=2) + "\n")


def _load_model(out: Path, prefix: str, model_cls, hyper):
    """The model from the files :func:`_save_model` wrote, whose parameters
    must have the names and shapes the config and vocabulary make."""
    params, vocab = (out / name for name in _checkpoint(prefix))
    store = load_params(params)
    ids = {k: int(v) for k, v in json.loads(vocab.read_text()).items()}
    shapes = {name: p.data.shape for name, p in store.items()}
    for name, p in model_cls.init(ids, hyper,
                                  np.random.default_rng(0)).store.items():
        shape = shapes.pop(name, None)
        if shape is None:
            raise ValueError(f"{params}: no parameter {name!r}")
        if shape != p.data.shape:
            raise ValueError(f"{params}: parameter {name!r} has shape "
                             f"{shape}, the config makes {p.data.shape}")
    if shapes:
        extra = next(iter(shapes))
        raise ValueError(f"{params}: unexpected parameter {extra!r}")
    return model_cls(store, ids, hyper)


def _planner_hyper(cfg: RunConfig) -> PlannerHyper:
    return PlannerHyper(emb_dim=cfg.planner_emb, hidden=cfg.planner_hidden,
                        lr=cfg.planner_lr, epochs=cfg.planner_epochs,
                        seed=cfg.seed)


def _generator_hyper(cfg: RunConfig) -> GeneratorHyper:
    return GeneratorHyper(emb_dim=cfg.generator_emb,
                          hidden=cfg.generator_hidden,
                          lr=cfg.generator_lr, epochs=cfg.generator_epochs,
                          seed=cfg.seed + 1, trunc=cfg.generator_trunc,
                          max_len=cfg.generator_max_len)


# ---------------------------------------------------------------------------
# Stages


def stage_synth(cfg: RunConfig, out: Path) -> None:
    scfg = SynthConfig(games=cfg.games, innings=cfg.innings,
                       batters_per_team=cfg.batters_per_team,
                       pitchers_per_team=cfg.pitchers_per_team,
                       seed=cfg.seed, kind=cfg.kind,
                       merge_probability=cfg.merge_probability)
    pairs = synth_league(scfg)
    save_games(out / "games.jsonl", [g for g, _ in pairs])
    print(f"synth: wrote {len(pairs)} games to {out / 'games.jsonl'}")


def stage_derive_plans(cfg: RunConfig, out: Path) -> None:
    games = _games(out)
    lines = []
    for game in games:
        specs = derive_macro_plan(game)
        # a gold plan points at its paragraphs in order
        lines.append(format_plan_line(
            game.id, MacroPlan(tuple(range(len(specs)))), specs))
    (out / "plans_gold.txt").write_text("\n".join(lines) + "\n")
    print(f"derive-plans: wrote {len(lines)} gold plans")


def stage_enumerate(cfg: RunConfig, out: Path) -> None:
    games = _games(out)
    lines = []
    for game in games:
        for idx, spec in enumerate(enumerate_candidates(game)):
            lines.append(f"{game.id}\t{idx}\t{render_spec(spec)}")
    (out / "candidates.txt").write_text("\n".join(lines) + "\n")
    print(f"enumerate: wrote candidate sets for {len(games)} games")


def _gold_train_split(cfg: RunConfig, out: Path):
    """The training games and every game's gold plan."""
    games = _games(out)
    plans = read_plan_file(out / "plans_gold.txt", games)
    if cfg.holdout >= len(games):
        raise ValueError("holdout leaves no training games")
    return games[:len(games) - cfg.holdout] if cfg.holdout else games, plans


def _planner_dataset(cfg: RunConfig, out: Path):
    train_games, plans = _gold_train_split(cfg, out)
    dataset = []
    for game in train_games:
        cands = augment_with_gold(enumerate_candidates(game), plans[game.id])
        index = {c: i for i, c in enumerate(cands)}
        dataset.append(([verbalize_plan(c, game) for c in cands],
                        [index[spec] for spec in plans[game.id]]))
    return dataset


def stage_train_planner(cfg: RunConfig, out: Path) -> None:
    model, trace = train_planner(_planner_dataset(cfg, out),
                                 _planner_hyper(cfg))
    _save_model(out, "planner", model, trace)
    print(f"train-planner: final per-step NLL {trace[-1]:.4f}")


def stage_plan(cfg: RunConfig, out: Path) -> None:
    games = _games(out)
    model = _load_model(out, "planner", PlannerModel, _planner_hyper(cfg))
    lines = []
    for game in games:
        cands = enumerate_candidates(game)
        seqs = [verbalize_plan(c, game) for c in cands]
        plan = infer_plan(seqs, model, beam_size=cfg.beam,
                          unigram_cap=game.kind == "event-rich")
        lines.append(format_plan_line(game.id, plan, cands))
    (out / "plans_pred.txt").write_text("\n".join(lines) + "\n")
    print(f"plan: wrote {len(lines)} predicted plans")


def _generator_pairs(games: list[Game], plans, merges: int):
    protected = {PARAGRAPH_SEP}
    for game in games:
        for e in game.entities:
            protected.add(e.name)
            protected.update(v for _, v in e.attributes)
    summaries = []
    for game in games:
        tokens: list[str] = []
        for i, p in enumerate(game.summary.paragraphs):
            if i > 0:
                tokens.append(PARAGRAPH_SEP)
            tokens.extend(p)
        summaries.append(tokens)
    bpe_model = bpe_mod.learn_bpe(summaries, merges, protected=protected)
    pairs = []
    for game, tokens in zip(games, summaries):
        pairs.append((linearize(plans[game.id], game),
                      bpe_mod.encode(bpe_model, tokens)))
    return pairs, bpe_model


def stage_train_generator(cfg: RunConfig, out: Path) -> None:
    train_games, plans = _gold_train_split(cfg, out)
    pairs, bpe_model = _generator_pairs(train_games, plans,
                                        cfg.generator_merges)
    model, trace = train_generator(pairs, _generator_hyper(cfg))
    _save_model(out, "generator", model, trace)
    bpe_mod.save_bpe(out / "generator.bpe", bpe_model)
    print(f"train-generator: final per-token NLL {trace[-1]:.4f}")


def _summary_from_tokens(bpe_model, tokens: list[str]) -> SummaryDoc:
    paragraphs: list[list[str]] = [[]]
    for tok in tokens:
        if tok == PARAGRAPH_SEP:
            paragraphs.append([])
        else:
            paragraphs[-1].append(tok)
    paragraphs = [bpe_mod.decode(bpe_model, p) for p in paragraphs if p]
    if not paragraphs:
        paragraphs = [["."]]
    return SummaryDoc.from_lists(paragraphs)


def stage_generate(cfg: RunConfig, out: Path) -> None:
    games = _games(out)
    model = _load_model(out, "generator", GeneratorModel,
                        _generator_hyper(cfg))
    bpe_model = bpe_mod.load_bpe(out / "generator.bpe")
    plans = read_plan_file(out / "plans_pred.txt", games)

    results = []
    for game in games:
        tokens = generate(linearize(plans[game.id], game), model,
                          beam_size=cfg.beam)
        results.append((game.id, _summary_from_tokens(bpe_model, tokens)))

    jsonl, readable = [], []
    for game_id, doc in results:
        jsonl.append(json.dumps(
            {"id": game_id, "paragraphs": [list(p) for p in doc.paragraphs]},
            sort_keys=True))
        readable.append(game_id + "\n" + "\n\n".join(
            " ".join(p) for p in doc.paragraphs))
    (out / "summaries.jsonl").write_text("\n".join(jsonl) + "\n")
    (out / "summaries_readable.txt").write_text(
        "\n\n----\n\n".join(readable) + "\n")
    print(f"generate: wrote {len(results)} summaries")


def stage_evaluate(cfg: RunConfig, out: Path) -> None:
    games = _games(out)
    docs = _read_summaries(out / "summaries.jsonl", games)
    plans = read_plan_file(out / "plans_pred.txt", games)
    gold_plans = read_plan_file(out / "plans_gold.txt", games)

    fid = [plan_fidelity(docs[g.id], plans[g.id], g) for g in games]
    fid_cs = sum(f for f, _ in fid) / len(fid) if fid else 100.0
    fid_co = sum(c for _, c in fid) / len(fid) if fid else 100.0

    report = evaluate_summaries([docs[g.id] for g in games], games,
                                plan_scores=(fid_cs, fid_co))
    payload = asdict(report)
    p, r, f, co_val = intrinsic_plan_eval(
        [plan_identifiers(plans[g.id]) for g in games],
        [plan_identifiers(gold_plans[g.id]) for g in games])
    payload["intrinsic_plan"] = {"cs_precision": p, "cs_recall": r,
                                 "cs_f": f, "co": co_val}
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))


@dataclass(frozen=True)
class Stage:
    """A subcommand: the artifacts it needs in the output directory and
    the ones it makes there."""
    fn: Callable[[RunConfig, Path], None]
    needs: tuple[str, ...]
    makes: tuple[str, ...]


#: every subcommand, in pipeline order
STAGES = {
    "synth": Stage(stage_synth, (), ("games.jsonl",)),
    "derive-plans": Stage(stage_derive_plans, ("games.jsonl",),
                          ("plans_gold.txt",)),
    # candidates.txt is for inspection only: train-planner and plan
    # enumerate the candidates again
    "enumerate": Stage(stage_enumerate, ("games.jsonl",),
                       ("candidates.txt",)),
    "train-planner": Stage(stage_train_planner,
                           ("games.jsonl", "plans_gold.txt"),
                           _checkpoint("planner") + ("planner_loss.json",)),
    "train-generator": Stage(stage_train_generator,
                             ("games.jsonl", "plans_gold.txt"),
                             _checkpoint("generator")
                             + ("generator.bpe", "generator_loss.json")),
    "plan": Stage(stage_plan, ("games.jsonl",) + _checkpoint("planner"),
                  ("plans_pred.txt",)),
    "generate": Stage(stage_generate,
                      ("games.jsonl", "plans_pred.txt")
                      + _checkpoint("generator") + ("generator.bpe",),
                      ("summaries.jsonl", "summaries_readable.txt")),
    "evaluate": Stage(stage_evaluate,
                      ("games.jsonl", "summaries.jsonl", "plans_gold.txt",
                       "plans_pred.txt"),
                      ("report.json",)),
}


def run(subcommand: str, cfg: RunConfig, out: Path) -> int:
    """Run one stage: check that its inputs exist, run it, and record the
    hashes of its outputs in ``manifest.json``."""
    if subcommand not in STAGES:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    stage = STAGES[subcommand]
    out.mkdir(parents=True, exist_ok=True)
    try:
        _require(out, subcommand, stage.needs)
        stage.fn(cfg, out)
        _update_manifest(out, subcommand, stage.makes)
    except (StageError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="macroplan",
        description="Macro-planned data-to-text pipeline")
    parser.add_argument("subcommand", choices=sorted(STAGES))
    parser.add_argument("--config", type=str, default=None,
                        help="JSON RunConfig file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default="out")
    parser.add_argument("--beam", type=int, default=None)
    parser.add_argument("--kind", choices=["event-rich", "event-free"],
                        default=None)
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.beam is not None:
        overrides["beam"] = args.beam
    if args.kind is not None:
        overrides["kind"] = args.kind
    if overrides:
        cfg = replace(cfg, **overrides)
    return run(args.subcommand, cfg, Path(args.out))


if __name__ == "__main__":
    sys.exit(main())
