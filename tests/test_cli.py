import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from macroplan.cli import (STAGES, RunConfig, StageError, format_plan_line,
                           main, parse_plan_line, read_plan_file, run)
from macroplan.oracle import derive_macro_plan
from macroplan.planner import MacroPlan
from macroplan.verbalize import ParagraphPlanSpec

SMALL = RunConfig(games=6, innings=2, holdout=2,
                  planner_epochs=1, planner_emb=8, planner_hidden=6,
                  planner_merges=30,
                  generator_epochs=1, generator_emb=8, generator_hidden=6,
                  generator_merges=60, generator_max_len=30, beam=2)


class TestRunConfig:
    def test_defaults_round_trip_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"games": 12, "beam": 3}))
        cfg = RunConfig.from_file(path)
        assert cfg.games == 12 and cfg.beam == 3
        assert cfg.kind == "event-rich"  # defaults preserved

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"games": 12, "bogus_option": 1}))
        with pytest.raises(ValueError, match="bogus_option"):
            RunConfig.from_file(path)

    def test_wrong_type_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"games": "x"}))
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "work")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'games'" in err

    @pytest.mark.parametrize("content", [[], ["games"], "abc", 5, None],
                             ids=["empty-list", "list", "string", "number",
                                  "null"])
    def test_non_object_is_one_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "work")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: invalid config: config must be a JSON "
                       f"object, not {json.dumps(content)}\n")

    @pytest.mark.parametrize("content", [{"games": 4, "bogus_option": 1},
                                         None],
                             ids=["unknown-key", "missing-file"])
    def test_run_pipeline_config_error_is_one_line(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(json.dumps(content))
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_pipeline.py"),
             "--config", str(path), "--out", str(tmp_path / "work")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("key", ["alias_path", "extraction_lexicon_path",
                                     "inning_lexicon_path"])
    def test_removed_key_is_one_error_line(self, tmp_path, capsys, key):
        # the lexicons and the entity matcher are fixed: a run cannot load
        # its own from a file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: "x.tsv"}))
        assert main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "work")]) == 1
        assert capsys.readouterr().err == \
            f"error: invalid config: unknown config keys: ['{key}']\n"


class TestPlanLineFormat:
    def test_round_trip(self, demo_game):
        specs = derive_macro_plan(demo_game)
        plan = MacroPlan(tuple(range(len(specs))))
        line = format_plan_line(demo_game.id, plan, specs)
        game_id, paragraphs = parse_plan_line(line)
        assert game_id == demo_game.id
        assert line.split("\t")[2] == \
            "# " + " ".join(str(i) for i in plan.pointer_sequence)
        assert paragraphs == specs

    def test_read_plan_file(self, demo_game, tmp_path):
        specs = derive_macro_plan(demo_game)
        plan = MacroPlan(tuple(range(len(specs))))
        path = tmp_path / "plans.txt"
        path.write_text(format_plan_line(demo_game.id, plan, specs) + "\n")
        plans = read_plan_file(path, [demo_game])
        loaded = plans[demo_game.id]
        assert [s.identifiers() for s in loaded] == \
            [s.identifiers() for s in specs]
        assert loaded == specs

    def test_empty_plan_line(self):
        line = format_plan_line("g1", MacroPlan(()), [])
        assert line == "g1\t\t# "
        assert parse_plan_line(line) == ("g1", [])

    def test_event_ref_parsing(self):
        _, paragraphs = parse_plan_line("g\tV(4-B, 5-B)\t# 0")
        assert paragraphs == [ParagraphPlanSpec((), ((4, "B"), (5, "B")))]

    def test_entity_with_digits_not_event_ref(self):
        _, paragraphs = parse_plan_line("g\tV(Team-9)\t# 0")
        assert paragraphs == [ParagraphPlanSpec(("Team-9",), ())]


class TestStageOrdering:
    def test_stage_error_is_runtime_error(self):
        assert issubclass(StageError, RuntimeError)

    def test_derive_before_synth_fails(self, tmp_path, capsys):
        assert run("derive-plans", SMALL, tmp_path) == 1
        assert "games.jsonl" in capsys.readouterr().err

    def test_plan_before_training_fails(self, tmp_path, capsys):
        assert run("synth", SMALL, tmp_path) == 0
        assert run("derive-plans", SMALL, tmp_path) == 0
        assert run("plan", SMALL, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'train-planner'" in err

    def test_evaluate_before_generate_fails(self, tmp_path, capsys):
        assert run("synth", SMALL, tmp_path) == 0
        assert run("evaluate", SMALL, tmp_path) == 1
        assert "summaries.jsonl" in capsys.readouterr().err

    def test_evaluate_without_gold_plans_fails(self, tmp_path, capsys):
        for name in STAGES:
            if name == "evaluate":
                break
            assert run(name, SMALL, tmp_path) == 0, name
        (tmp_path / "plans_gold.txt").unlink()
        capsys.readouterr()
        assert run("evaluate", SMALL, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'derive-plans'" in err
        assert not (tmp_path / "report.json").exists()

    def test_truncated_checkpoint_is_one_error_line(self, tmp_path, capsys):
        for name in ("synth", "derive-plans", "enumerate", "train-planner"):
            assert run(name, SMALL, tmp_path) == 0, name
        path = tmp_path / "planner.mpln"
        raw = path.read_bytes()
        # inside the version, the first record's dims and twice in its data
        for cut in (6, 30, 200, 1000):
            assert cut < len(raw)
            path.write_bytes(raw[:cut])
            capsys.readouterr()
            assert run("plan", SMALL, tmp_path) == 1, cut
            assert capsys.readouterr().err == \
                f"error: {path}: truncated checkpoint\n", cut

    @pytest.mark.parametrize("case", ["cut-after-third-record",
                                      "other-planner-hidden"])
    def test_checkpoint_config_mismatch_is_one_error_line(self, tmp_path,
                                                          capsys, case):
        for name in ("synth", "derive-plans", "train-planner"):
            assert run(name, SMALL, tmp_path) == 0, name
        path = tmp_path / "planner.mpln"
        cfg = SMALL
        if case == "cut-after-third-record":
            raw = path.read_bytes()
            path.write_bytes(raw[:_record_ends(raw)[2]])
            want = f"error: {path}: no parameter 'enc_b.W'\n"
        else:
            cfg = replace(SMALL, planner_hidden=SMALL.planner_hidden + 1)
            want = (f"error: {path}: parameter 'enc_f.W' has shape (14, 24), "
                    f"the config makes (15, 28)\n")
        capsys.readouterr()
        assert run("plan", cfg, tmp_path) == 1
        assert capsys.readouterr().err == want
        assert not (tmp_path / "plans_pred.txt").exists()

    def test_needs_are_made_by_an_earlier_stage(self):
        made = set()
        for name, stage in STAGES.items():
            assert stage.makes, name
            assert set(stage.needs) <= made, name
            made |= set(stage.makes)

    def test_unknown_stage_rejected(self, tmp_path, capsys):
        assert run("bogus-stage", SMALL, tmp_path) == 2
        assert "unknown subcommand" in capsys.readouterr().err


def _record_ends(raw: bytes) -> list[int]:
    """The offset after each record of a checkpoint."""
    ends, pos = [], 8
    while pos < len(raw):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, pos)
        dims = struct.unpack_from(f"<{rank}Q", raw, pos + 4)
        pos += 4 + 8 * rank + 8 * math.prod(dims)
        ends.append(pos)
    return ends


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """An output directory on which every stage up to ``generate`` ran."""
    out = tmp_path_factory.mktemp("generated")
    for name in STAGES:
        if name == "evaluate":
            break
        assert run(name, SMALL, out) == 0, name
    return out


def _edit_lines(path: Path, edit) -> None:
    path.write_text("".join(line + "\n" for line in
                            edit(path.read_text().splitlines())))


def _with_rendering(line, rendering):
    game_id, _, pointers = line.split("\t")
    return f"{game_id}\t{rendering}\t{pointers}"


def _drop_line_key(lines, key):
    obj = json.loads(lines[0])
    del obj[key]
    return [json.dumps(obj)] + lines[1:]


class TestArtifactsMatchGames:
    """A plan or summary file that does not hold one good line for each
    game of ``games.jsonl`` fails its reader with one ``error:`` line
    naming the file and the bad line, or the game that has no line."""

    @pytest.mark.parametrize("stage, name, edit, message", [
        ("generate", "plans_pred.txt",
         lambda lines: lines + ["bogus-game" + lines[0][lines[0].index("\t"):]],
         "line 7: line for unknown game 'bogus-game'"),
        ("generate", "plans_pred.txt", lambda lines: lines[:-1],
         "no line for game '{last}'"),
        ("generate", "plans_pred.txt",
         lambda lines: [lines[0].replace("\t", " ", 1)] + lines[1:],
         "line 1: expected 3 tab-separated fields, found 2"),
        ("evaluate", "summaries.jsonl",
         lambda lines: _drop_line_key(lines, "paragraphs"),
         "line 1: no paragraphs for game '{first}'"),
        ("evaluate", "summaries.jsonl", lambda lines: lines[:-1],
         "no line for game '{last}'"),
        ("evaluate", "summaries.jsonl", lambda lines: lines[:1] + ["[]"],
         "line 2: not a JSON object"),
        ("evaluate", "summaries.jsonl",
         lambda lines: lines[:1] + [lines[1][:len(lines[1]) // 2]],
         "line 2: not a JSON object"),
        ("generate", "plans_pred.txt", lambda lines: lines + lines[:1],
         "line 7: second line for game '{first}'"),
        ("evaluate", "summaries.jsonl", lambda lines: lines + lines[:1],
         "line 7: second line for game '{first}'"),
        ("generate", "plans_pred.txt",
         lambda lines: [_with_rendering(lines[0], "V()")] + lines[1:],
         "line 1: plan references unknown entity ''"),
        ("generate", "plans_pred.txt",
         lambda lines: [_with_rendering(lines[0], lines[1].split("\t")[1])]
         + lines[1:],
         "line 1: plan references unknown entity '{foreign}'"),
    ], ids=["plan-unknown-game", "plan-missing-game", "plan-missing-tab",
            "summary-without-paragraphs", "summary-missing-game",
            "summary-not-an-object", "summary-cut-mid-line",
            "plan-duplicate-game", "summary-duplicate-game",
            "plan-unknown-entity", "plan-foreign-rendering"])
    def test_mismatch_is_one_error_line(self, generated, tmp_path, capsys,
                                        stage, name, edit, message):
        out = tmp_path / "out"
        shutil.copytree(generated, out)
        ids = [json.loads(line)["id"] for line in
               (out / "games.jsonl").read_text().splitlines()]
        # the entity the second game's plan names first, which the first
        # game of this league lacks
        foreign = re.search(r"V\(([^)]*)\)",
                            (out / "plans_pred.txt").read_text()
                            .splitlines()[1]).group(1)
        _edit_lines(out / name, edit)
        capsys.readouterr()
        assert run(stage, SMALL, out) == 1
        message = message.format(first=ids[0], last=ids[-1], foreign=foreign)
        assert capsys.readouterr().err == f"error: {out / name}: {message}\n"


class TestStages:
    def test_synth_writes_games_and_manifest(self, tmp_path):
        run("synth", SMALL, tmp_path)
        assert (tmp_path / "games.jsonl").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "synth" in manifest
        assert "games.jsonl" in manifest["synth"]
        digest = manifest["synth"]["games.jsonl"]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_derive_plans_output(self, tmp_path):
        run("synth", SMALL, tmp_path)
        run("derive-plans", SMALL, tmp_path)
        lines = (tmp_path / "plans_gold.txt").read_text().splitlines()
        assert len(lines) == SMALL.games
        for line in lines:
            gid, paragraphs = parse_plan_line(line)
            assert gid.startswith("synth-")
            assert line.split("\t")[2] == \
                "# " + " ".join(str(i) for i in range(len(paragraphs)))

    def test_enumerate_output(self, tmp_path):
        run("synth", SMALL, tmp_path)
        run("enumerate", SMALL, tmp_path)
        text = (tmp_path / "candidates.txt").read_text()
        assert text.count("\n") > SMALL.games  # several candidates per game

    def test_manifest_lists_each_stage_outputs(self, tmp_path):
        for name in STAGES:
            assert run(name, SMALL, tmp_path) == 0, name
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == set(STAGES)
        for name, stage in STAGES.items():
            assert set(manifest[name]) == set(stage.makes), name
        # every file a stage writes is declared, so the manifest hashes it
        written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert written == set().union(*manifest.values())

    def test_manifest_accumulates_stages(self, tmp_path):
        run("synth", SMALL, tmp_path)
        run("derive-plans", SMALL, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) >= {"synth", "derive-plans"}


def test_main_cli_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"games": 4, "innings": 2, "holdout": 1}))
    rc = main(["synth", "--config", str(cfg_path), "--seed", "3",
               "--out", str(tmp_path / "work")])
    assert rc == 0
    assert (tmp_path / "work" / "games.jsonl").exists()
