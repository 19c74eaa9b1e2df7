"""Tests of the benchmark itself: a smoke round of every stage on a tiny
config, each output check refusing a corrupted artifact, and traced call
counts against counts computed from the artifacts.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from macroplan.cli import RunConfig  # noqa: E402

TINY = Workload(config={
    "games": 4, "holdout": 2, "innings": 2, "planner_emb": 8,
    "planner_hidden": 8, "generator_emb": 8, "generator_hidden": 8,
    "planner_epochs": 3, "generator_epochs": 4, "planner_merges": 10,
    "generator_merges": 20, "generator_max_len": 12, "beam": 2})


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


@pytest.fixture(scope="module")
def league_dir(tmp_path_factory):
    cfg = RunConfig(**TINY.config)
    out = tmp_path_factory.mktemp("league")
    assert _quiet(child.make_league, cfg, 3, out) == 0
    return cfg, checks.League(cfg, 3), out / "games.jsonl"


@pytest.fixture(scope="module")
def round_dir(league_dir, tmp_path_factory):
    """A traced round of every stage, its outputs kept."""
    cfg, league, games = league_dir
    out = tmp_path_factory.mktemp("round") / "r"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = _quiet(child.run_round, TINY, cfg, league, games, out,
                        tracer)
    finally:
        tracer.uninstall()
    return out, league, result, tracer


def test_round_runs_every_stage_and_passes_its_checks(round_dir):
    _, _, result, _ = round_dir
    assert result["errors"] == []
    assert result["failed"] == 0
    assert list(result["times"]) == list(child.ROUND_STAGES)
    assert set(result["hashes"]) == set(child.HASHED)


def test_untraced_round_reproduces_the_traced_artifacts(round_dir,
                                                        league_dir,
                                                        tmp_path):
    _, _, traced, _ = round_dir
    cfg, league, games = league_dir
    result = _quiet(child.run_round, TINY, cfg, league, games,
                    tmp_path / "r")
    assert result["errors"] == []
    assert result["hashes"] == traced["hashes"]


def test_traced_call_counts_match_independent_counts(round_dir):
    out, league, _, tracer = round_dir
    calls = tracer.calls_by_stage()
    expected = checks.expected_calls(out, league)
    for key, want in expected.items():
        assert calls[key] == want, key
    games = len(league.games)
    summary = tracer.summary()
    assert summary["generator.generate.calls"] == games
    assert summary["planner.infer_plan.calls"] == games
    assert summary["planner.plans"] == games
    assert summary["generator.summaries"] == games
    assert summary["nn.save_params.bytes"] == sum(
        (out / f"{m}.mpln").stat().st_size for m in ("planner", "generator"))
    for name in tracing.traced_names():
        assert summary[f"{name}.self_s"] <= summary[f"{name}.s"] + 1e-9


def test_uninstall_restores_every_original():
    import macroplan.planner as planner
    from macroplan.autodiff import Tape
    before = (planner.lstm_step, planner.pointer_step, Tape.backward)
    tracer = tracing.Tracer()
    tracer.install()
    assert planner.lstm_step is not before[0]
    tracer.uninstall()
    assert (planner.lstm_step, planner.pointer_step, Tape.backward) == before


def test_an_escaped_reference_shows_in_the_call_counts(league_dir, tmp_path):
    import macroplan.planner as planner
    cfg, league, games = league_dir
    original = planner.pointer_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        planner.pointer_step = original  # a reference the tracer missed
        result = _quiet(child.run_round, TINY, cfg, league, games,
                        tmp_path / "r", tracer)
    finally:
        tracer.uninstall()
    assert planner.pointer_step is original
    assert any("planner.pointer_step called 0 times" in e
               for e in result["errors"])


def test_child_main_traced_run(league_dir, tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    assert _quiet(child.main, ["--workload", "tiny", "--seed", "3",
                               "--seconds", "0", "--trace", "1",
                               "--workdir", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["errors"] == []
    assert (result["rounds"], result["attempted"], result["failed"]) \
        == (2, 2 * len(child.ROUND_STAGES), 0)
    layers = result["layers"]
    assert layers["synth.synth_league.calls"] == 2
    assert layers["data.save_games.calls"] == 2
    assert "trace.overhead_s" in layers
    assert (tmp_path / "spans.tsv").stat().st_size > 0


# ---------------------------------------------------------------------------
# Each check refuses a corrupted artifact


def _corrupt(round_dir, tmp_path, name, edit):
    out, league, _, _ = round_dir
    copy = tmp_path / "corrupt"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return copy, league


def _edit_line(index, fn):
    def edit(text):
        lines = text.splitlines()
        lines[index] = fn(lines[index])
        return "\n".join(lines) + "\n"
    return edit


def _with_pointers(pointers, league, line):
    """A plan line for the game of ``line`` whose rendering matches
    ``pointers``."""
    game_id = line.split("\t")[0]
    cands = league.candidates[game_id]

    def render(refs):
        entities, events = refs
        parts = [f"V({e})" for e in entities]
        if events:
            parts.append("V(" + ", ".join(f"{i}-{h}" for i, h in events)
                         + ")")
        return " ".join(parts)
    rendering = " <P> ".join(render(cands[z]) for z in pointers)
    return f"{game_id}\t{rendering}\t# {' '.join(map(str, pointers))}"


def test_good_round_passes_every_check(round_dir):
    out, league, _, _ = round_dir
    for stage in checks.STAGE_CHECKS:
        assert checks.run_check(stage, out, league) == [], stage


@pytest.mark.parametrize("edit", [
    _edit_line(0, lambda l: l.replace(" <P> ", " <P> V(Nobody) <P> ", 1)),
    _edit_line(1, lambda l: "\t".join([l.split("\t")[0], "V(Nobody)",
                                       "# 0"])),
    lambda text: "\n".join(text.splitlines()[1:]) + "\n",
], ids=["extra-paragraph", "wrong-plan", "missing-game"])
def test_gold_plan_check_refuses(round_dir, tmp_path, edit):
    out, league = _corrupt(round_dir, tmp_path, "plans_gold.txt", edit)
    assert checks.check_gold_plans(out, league)


def test_plan_check_refuses_pointer_outside_candidates(round_dir, tmp_path):
    out, league = _corrupt(round_dir, tmp_path, "plans_pred.txt", _edit_line(
        0, lambda l: l.rsplit("#", 1)[0] + "# 999"))
    assert any("outside" in e for e in checks.check_pred_plans(out, league))


def test_plan_check_refuses_rendering_mismatch(round_dir, tmp_path):
    def swap(line):
        pointers = [int(x) for x in line.split("#")[1].split()]
        other = (pointers[0] + 1) % 5
        return line.rsplit("#", 1)[0] + "# " + " ".join(
            map(str, [other] + pointers[1:]))
    out, league = _corrupt(round_dir, tmp_path, "plans_pred.txt",
                           _edit_line(0, swap))
    assert any("rendering" in e for e in checks.check_pred_plans(out, league))


def test_plan_check_refuses_repeated_bigram(round_dir, tmp_path):
    league = round_dir[1]
    out, league = _corrupt(round_dir, tmp_path, "plans_pred.txt", _edit_line(
        0, lambda l: _with_pointers([0, 1, 0, 1], league, l)))
    assert any("bigram" in e for e in checks.check_pred_plans(out, league))


def test_plan_check_refuses_third_occurrence(round_dir, tmp_path):
    league = round_dir[1]
    out, league = _corrupt(round_dir, tmp_path, "plans_pred.txt", _edit_line(
        0, lambda l: _with_pointers([0, 1, 0, 2, 0], league, l)))
    assert any("more than twice" in e
               for e in checks.check_pred_plans(out, league))


def _summary_edit(fn):
    return _edit_line(0, lambda l: json.dumps(fn(json.loads(l))))


@pytest.mark.parametrize("edit", [
    _summary_edit(lambda o: {**o, "paragraphs": []}),
    _summary_edit(lambda o: {**o, "paragraphs": [["", ""]]}),
    _summary_edit(lambda o: {**o, "paragraphs": [["word"], []]}),
    _summary_edit(lambda o: {**o, "paragraphs": [["word"] * 13]}),
    lambda text: "\n".join(text.splitlines()[1:]) + "\n",
], ids=["empty", "only-empty-tokens", "empty-paragraph", "over-length-cap",
        "missing-game"])
def test_summary_check_refuses(round_dir, tmp_path, edit):
    out, league = _corrupt(round_dir, tmp_path, "summaries.jsonl", edit)
    assert checks.check_summaries(out, league)


def _report_edit(fn):
    def edit(text):
        report = json.loads(text)
        fn(report)
        return json.dumps(report)
    return edit


@pytest.mark.parametrize("edit", [
    _report_edit(lambda r: r.update(bleu=r["bleu"] + 1e-6)),
    _report_edit(lambda r: r["intrinsic_plan"].update(
        cs_f=r["intrinsic_plan"]["cs_f"] + 1e-6)),
    _report_edit(lambda r: r["intrinsic_plan"].update(
        co=r["intrinsic_plan"]["co"] + 1e-6)),
    _report_edit(lambda r: r.update(rg_precision=100.5)),
    _report_edit(lambda r: r.pop("intrinsic_plan")),
], ids=["bleu", "cs-f", "co", "percentage-range", "missing"])
def test_report_check_refuses(round_dir, tmp_path, edit):
    out, league = _corrupt(round_dir, tmp_path, "report.json", edit)
    assert checks.check_report(out, league)


def _trace_edit(fn):
    def edit(text):
        trace = json.loads(text)["per_epoch_nll"]
        return json.dumps({"per_epoch_nll": fn(trace)})
    return edit


@pytest.mark.parametrize("name,check", [
    ("planner_loss.json", checks.check_planner_loss),
    ("generator_loss.json", checks.check_generator_loss)])
@pytest.mark.parametrize("fn", [
    lambda t: t[:-1] + [math.nan], lambda t: t[:-1] + [-0.5],
    lambda t: t[:-1] + [50.0], lambda t: t[:-1]],
    ids=["nan", "negative", "above-uniform", "missing-epoch"])
def test_loss_check_refuses(round_dir, tmp_path, name, check, fn):
    out, league = _corrupt(round_dir, tmp_path, name, _trace_edit(fn))
    assert check(out, league)


def test_unreadable_artifact_is_an_error(round_dir, tmp_path):
    out, league = _corrupt(round_dir, tmp_path, "report.json",
                           lambda text: text[:len(text) // 2])
    assert checks.run_check("evaluate", out, league)


# ---------------------------------------------------------------------------
# Independent recomputations against hand-worked values


def test_osa_distance():
    assert checks.osa_distance("abc", "abc") == 0
    assert checks.osa_distance("ab", "ba") == 1
    assert checks.osa_distance("ca", "abc") == 3
    assert checks.osa_distance("", "abc") == 3


def test_corpus_bleu_hand_worked():
    ref = "the cat sat on the mat".split()
    assert checks.corpus_bleu([(ref, ref)]) == pytest.approx(100.0)
    # 3/3 unigrams, 2/2 bigrams, 1/1 trigram, no 4-grams (skipped);
    # brevity penalty exp(1 - 6/3)
    assert checks.corpus_bleu([("the cat sat".split(), ref)]) \
        == pytest.approx(100.0 * math.exp(-1.0))
    assert checks.corpus_bleu([("dog".split(), ref)]) == 0.0


def test_subword_count():
    merges = [("a", "b"), ("ab", "c</w>")]
    assert checks.subword_count(["abc", "<TR>9", "Royals", "ab"], merges,
                                {"Royals"}, {}) == 1 + 1 + 1 + 2


# ---------------------------------------------------------------------------
# The command


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "decode-rich",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "plan-free",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(child.ROUND_STAGES)
    import run as bench_run
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert sum(line.startswith("sha256 ")
               for line in proc.stdout.splitlines()) == len(child.HASHED)
