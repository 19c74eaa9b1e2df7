"""End-to-end acceptance checks.

Each test prints a single ``ACn <name>: PASS``/``FAIL`` line directly to the
terminal (bypassing capture) in addition to its pytest verdict.
"""

import dataclasses
import itertools
import time
from functools import lru_cache

import numpy as np

from macroplan.autodiff import Tape
from macroplan.baselines import realize_plan_template, templ_summary
from macroplan.candidates import augment_with_gold, enumerate_candidates
from macroplan.cli import RunConfig, run as run_stage
from macroplan.data import SummaryDoc
from macroplan.generator import (GeneratorHyper, GeneratorModel,
                                 _output_dists, build_gen_vocab, decode_step,
                                 encode_plan, generate, train_generator)
from macroplan.generator import instance_loss as generator_loss
from macroplan.metrics import (bleu, cs, dl_distance, extract_relations,
                               intrinsic_plan_eval, plan_fidelity,
                               plan_identifiers, rg)
from macroplan.nn import best_hypothesis, grad_check, lstm_step
from macroplan.oracle import classify_inning_mention, derive_macro_plan
from macroplan.planner import (PlannerHyper, PlannerModel, build_vocab,
                               greedy_plan, infer_plan, linearize,
                               pointer_step, train_planner)
from macroplan.planner import instance_loss as planner_loss
from macroplan.synth import SynthConfig, synth_league
from macroplan.verbalize import PARAGRAPH_SEP, verbalize_plan


def _report(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)
    assert ok, f"{label} failed {detail}"


def _micro_planner():
    seqs = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "a"], ["b", "e"],
            ["c"]]
    hyper = PlannerHyper(emb_dim=5, hidden=4, seed=1)
    model = PlannerModel.init(build_vocab(seqs), hyper,
                              np.random.default_rng(1))
    return model, [model.token_ids(s) for s in seqs]


def _micro_generator():
    plan = ["<TEAM>Ra", "<TR>9", "<P>", "<PLAYER>Bo", "<RBI>1", "<INN>2"]
    target = ["the", "Ra", "scored", "9", "."]
    hyper = GeneratorHyper(emb_dim=5, hidden=4, seed=2)
    model = GeneratorModel.init(build_gen_vocab([(plan, target)]), hyper,
                                np.random.default_rng(2))
    return model, plan, target


def _paragraph_tokens(doc: SummaryDoc) -> list[str]:
    out: list[str] = []
    for i, para in enumerate(doc.paragraphs):
        if i:
            out.append(PARAGRAPH_SEP)
        out.extend(para)
    return out


def _doc_from_tokens(tokens: list[str]) -> SummaryDoc:
    paras, cur = [], []
    for tok in tokens:
        if tok == PARAGRAPH_SEP:
            if cur:
                paras.append(cur)
            cur = []
        else:
            cur.append(tok)
    if cur:
        paras.append(cur)
    return SummaryDoc.from_lists(paras or [["."]])


def _lstm_cell_loss(t, x, h, c, W, b, w):
    h, c = lstm_step(t, x, h, c, W, b)
    return t.add(t.sum(t.mul(h, w)), t.sum(t.mul(c, w)))


def _lstm_sequence_loss(t, x, y, W, b, w, wv):
    hs, c = t.lstm_sequence([t.row(x, i) for i in range(3)], t.row(y, 0),
                            t.row(y, 1), W, b)
    return t.add(t.sum(t.mul(t.concat(hs, axis=0), w)), t.sum(t.mul(c, wv)))


def _lstm_tree_loss(t, x, y, W, b, w, wc):
    """A sequence over a tree of 1, 2 and 3 rows: the two rows of step 1
    continue the root, and rows 1 and 2 of step 2 both continue row 1."""
    xs = [t.gather_rows(x, [0]), t.gather_rows(x, [1, 2]), x]
    hs, c = t.lstm_sequence(xs, t.gather_rows(y, [0]), t.gather_rows(y, [1]),
                            W, b, [np.array([0]), np.array([0, 0]),
                                   np.array([0, 1, 1])])
    return t.add(t.sum(t.mul(t.concat(hs, axis=0), w)),
                 t.sum(t.mul(c, wc)))


def _masked_pool_loss(t, x, d, w):
    """The candidate encoder's pooling: a masked softmax over the positions
    of a (2, 3, 4) stack gathered from the rows of ``x``, scored row by row,
    then one weighted sum per stack."""
    rows = [[2, 0, 1], [1, 1, 0]]
    mask = np.array([[True, True, False], [True, False, True]])[:, :, None]
    alpha = t.softmax(t.gather_rows(t.matmul(x, d), rows), axis=1, mask=mask)
    pooled = t.sum(t.matmul(t.transpose(alpha), t.gather_rows(x, rows)),
                   axis=1)
    return t.sum(t.mul(pooled, w))


# ---------------------------------------------------------------------------


def test_ac1_gradient_fidelity(capsys):
    """Analytic gradients of every differentiation primitive and of the full
    planner/generator losses match central finite differences."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst_prim = 0.0

    def numeric(f, x, h=1e-5):
        g = np.zeros_like(x)
        flat, gf = x.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        return g

    def check(build):
        nonlocal worst_prim
        x = rng.normal(size=(3, 4)) * 0.5
        y = rng.normal(size=(3, 4)) * 0.5

        def value():
            tape = Tape()
            return float(build(tape, tape.tensor(x), tape.tensor(y)).data)

        tape = Tape()
        tx, ty = tape.tensor(x), tape.tensor(y)
        tape.backward(build(tape, tx, ty))
        for t, arr in ((tx, x), (ty, y)):
            analytic = t.grad if t.grad is not None else np.zeros_like(arr)
            num = numeric(value, arr)
            err = np.max(np.abs(analytic - num) /
                         np.maximum(np.maximum(np.abs(analytic), np.abs(num)),
                                    1e-5))
            worst_prim = max(worst_prim, err)

    w = rng.normal(size=(3, 4))
    wv = rng.normal(size=4)
    wk = rng.normal(size=(4, 2))
    mask = np.array([[True, False, True, True]] * 3)
    w_lstm = rng.normal(size=(8, 16)) * 0.5
    b_lstm = rng.normal(size=16) * 0.5
    c_lstm = rng.normal(size=(3, 4))
    w3 = rng.normal(size=(3, 2, 4))
    w6 = rng.normal(size=(6, 4))
    primitives = [
        lambda t, x, y: t.sum(t.matmul(x, t.tensor(wk))),
        lambda t, x, y: t.sum(t.mul(t.add(x, y), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.mul(x, y), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.scale(x, 1.7), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.neg(x), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.add_const(x, 0.3), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.sigmoid(x), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.tanh(x), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.softmax(x, axis=1), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.softmax(x, axis=1, mask=mask),
                                    t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.log(t.add_const(t.mul(x, x), 1.0)),
                                    t.tensor(w))),
        lambda t, x, y: t.sum(t.concat([x, y], axis=1)),
        lambda t, x, y: t.sum(t.mul(t.concat([t.row(x, i) for i in range(3)],
                                             axis=0), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.slice_last(x, 1, 3), t.tensor(w[:, 1:3]))),
        lambda t, x, y: t.sum(t.mul(t.row(x, 1), t.tensor(wv))),
        lambda t, x, y: t.sum(t.mul(t.gather_rows(x, [2, 0, 2]), t.tensor(w))),
        lambda t, x, y: t.sum(t.mul(t.gather_rows(x, [[2, 0], [2, 2], [1, 0]]),
                                    t.tensor(w3))),
        lambda t, x, y: _masked_pool_loss(t, x, t.tensor(wk[:, :1]),
                                          t.tensor(w[:2])),
        lambda t, x, y: t.sum(t.mul(t.transpose(x), t.tensor(w.T))),
        lambda t, x, y: t.mean(t.mul(x, y)),
        lambda t, x, y: t.sum(t.mul(t.mean(t.mul(x, y), axis=0),
                                    t.tensor(wv))),
        lambda t, x, y: t.nll_pick(t.softmax(t.row(x, 0)), (0, 2)),
        lambda t, x, y: _lstm_cell_loss(t, x, y, t.tensor(c_lstm),
                                        t.tensor(w_lstm), t.tensor(b_lstm),
                                        t.tensor(w)),
        lambda t, x, y: _lstm_sequence_loss(t, x, y, t.tensor(w_lstm),
                                            t.tensor(b_lstm), t.tensor(w),
                                            t.tensor(wv)),
        lambda t, x, y: _lstm_tree_loss(t, x, y, t.tensor(w_lstm),
                                        t.tensor(b_lstm), t.tensor(w6),
                                        t.tensor(w)),
    ]
    for build in primitives:
        check(build)

    pmodel, pids = _micro_planner()

    def ploss(tape):
        return planner_loss(tape, pmodel, pids, [0, 3, 1])

    worst_p = grad_check(ploss, pmodel.store, max_coords=60,
                         rng=np.random.default_rng(3))

    gmodel, gplan, gtarget = _micro_generator()

    def gloss(tape):
        return generator_loss(tape, gmodel, gplan, gtarget)

    worst_g = grad_check(gloss, gmodel.store, max_coords=60,
                         rng=np.random.default_rng(4))
    elapsed = time.monotonic() - t0
    worst = max(worst_prim, worst_p, worst_g)
    _report(capsys, "AC1 gradient fidelity",
            worst <= 1e-4 and elapsed < 120,
            f"worst rel err {worst:.2e}, {elapsed:.0f}s")


def test_ac2_normalization_invariants(capsys):
    """Attention, contextualization, pointer and copy-mixture distributions
    each sum to one within 1e-12 on 100 random instances."""
    rng = np.random.default_rng(11)
    pmodel, _ = _micro_planner()
    gmodel, gplan, _ = _micro_generator()
    worst = 0.0
    for _ in range(100):
        tape = Tape()
        # candidate-encoder attention over token positions
        alpha = tape.softmax(tape.tensor(rng.normal(size=(3, 6)) * 3),
                             axis=1).data
        worst = max(worst, float(np.max(np.abs(alpha.sum(axis=1) - 1.0))))
        # cross-candidate attention with the self-exclusion mask
        k = int(rng.integers(2, 7))
        beta = tape.softmax(tape.tensor(rng.normal(size=(k, k)) * 3), axis=1,
                            mask=~np.eye(k, dtype=bool)).data
        worst = max(worst, float(np.max(np.abs(beta.sum(axis=1) - 1.0))))
        # pointer distribution over candidates plus the terminator
        dist = pointer_step(
            tape, pmodel,
            tape.tensor(rng.normal(size=(1, pmodel.hyper.rep_dim))),
            tape.tensor(rng.normal(size=(k + 1, pmodel.hyper.rep_dim)))).data
        worst = max(worst, abs(float(dist.sum()) - 1.0))
        # generate/copy mixture over vocabulary plus plan positions
        t2 = Tape()
        ids = [gmodel.token_id(t) for t in gplan]
        S, h, c = encode_plan(t2, gmodel, ids)
        prev = int(rng.integers(0, len(gmodel.vocab)))
        h, c = lstm_step(t2, t2.gather_rows(t2.param(gmodel.store, "emb"),
                                            [prev]), h, c,
                         t2.param(gmodel.store, "dec.W"),
                         t2.param(gmodel.store, "dec.b"))
        comb, att = decode_step(t2, gmodel, S, h)
        p_gen, p_copy = _output_dists(t2, gmodel, comb)
        pc = float(p_copy.data[0, 0])
        total = (1 - pc) * float(p_gen.data.sum()) + pc * float(att.data.sum())
        worst = max(worst, abs(total - 1.0))
    _report(capsys, "AC2 normalization invariants", worst <= 1e-12,
            f"worst deviation {worst:.2e}")


def test_ac3_overfit_recovery(capsys):
    """Single-instance training drives the NLL below threshold and decoding
    reproduces the training plan / summary exactly."""
    game, gold = synth_league(SynthConfig(games=1, innings=2, seed=7))[0]
    cands = augment_with_gold(enumerate_candidates(game), gold)
    index = {c: i for i, c in enumerate(cands)}
    pointers = [index[s] for s in gold]
    seqs = [list(verbalize_plan(c, game)) for c in cands]
    model, trace = train_planner([(seqs, pointers)], PlannerHyper(
        emb_dim=16, hidden=12, lr=0.1, epochs=200, seed=13, stop_tol=0.01))
    plan = greedy_plan(seqs, model)
    planner_ok = (trace[-1] < 0.01 and len(trace) <= 200
                  and list(plan.pointer_sequence) == pointers
                  and plan.terminated)

    plan_tokens = linearize(gold, game)
    target = _paragraph_tokens(game.summary)
    gmodel, gtrace = train_generator([(plan_tokens, target)], GeneratorHyper(
        emb_dim=48, hidden=48, lr=0.05, epochs=300, seed=29, stop_tol=0.002,
        max_len=len(target) + 20))
    out = generate(plan_tokens, gmodel, beam_size=2)
    generator_ok = len(gtrace) <= 300 and out == target
    _report(capsys, "AC3 overfit recovery", planner_ok and generator_ok,
            f"planner NLL {trace[-1]:.4f} in {len(trace)} steps, "
            f"generator exact in {len(gtrace)} steps")


def test_ac4_synthetic_planning_quality(capsys):
    """Planner trained on 450 synthetic games reaches the content-selection
    and ordering bars on 50 held-out games."""
    t0 = time.monotonic()
    pairs = synth_league(SynthConfig(games=500, seed=7))
    train, held = pairs[:450], pairs[450:]
    dataset = []
    for game, gold in train:
        cands = augment_with_gold(enumerate_candidates(game), gold)
        index = {c: i for i, c in enumerate(cands)}
        dataset.append(([list(verbalize_plan(c, game)) for c in cands],
                        [index[s] for s in gold]))
    model, _ = train_planner(dataset, PlannerHyper(epochs=3, lr=0.02,
                                                   seed=13))
    pred_ids, gold_ids = [], []
    for game, gold in held:
        cands = enumerate_candidates(game)
        plan = infer_plan([list(verbalize_plan(c, game)) for c in cands],
                          model, beam_size=5, unigram_cap=True)
        pred_ids.append([i for j in plan.pointer_sequence
                         for i in cands[j].identifiers()])
        gold_ids.append(plan_identifiers(gold))
    p, r, f, co_val = intrinsic_plan_eval(pred_ids, gold_ids)
    elapsed = time.monotonic() - t0
    _report(capsys, "AC4 synthetic planning quality",
            f >= 85.0 and co_val >= 70.0 and elapsed <= 1800,
            f"CS-F {f:.1f}, CO {co_val:.1f}, {elapsed:.0f}s")


def test_ac5_plan_following(capsys):
    """Summaries decoded from plans, when reverse-engineered back into plans,
    match the conditioning plans at CS-F >= 90."""
    pairs = synth_league(SynthConfig(games=30, innings=2, seed=17))
    data = []
    for game, specs in pairs:
        plan_tokens = linearize(specs, game)
        data.append((game, specs, plan_tokens,
                     _paragraph_tokens(game.summary)))
    model, _ = train_generator([(p, t) for _, _, p, t in data],
                               GeneratorHyper(emb_dim=48, hidden=48, lr=0.05,
                                              epochs=40, seed=29,
                                              stop_tol=0.02))
    scores = []
    for game, specs, plan_tokens, target in data[:15]:
        # training reads no max_len: each game decodes to its own cap
        capped = GeneratorModel(model.store, model.vocab, dataclasses.replace(
            model.hyper, max_len=len(target) + 30))
        out = generate(plan_tokens, capped, beam_size=2)
        f, _ = plan_fidelity(_doc_from_tokens(out), specs, game)
        scores.append(f)
    mean_f = sum(scores) / len(scores)
    _report(capsys, "AC5 plan following", mean_f >= 90.0,
            f"mean CS-F {mean_f:.1f} over {len(scores)} games")


def test_ac6_round_trip_oracle(capsys):
    """Template realization followed by plan derivation recovers every gold
    plan exactly on 120 synthetic games."""
    pairs = synth_league(SynthConfig(games=120, seed=3))
    derived_ids, gold_ids = [], []
    for game, gold in pairs:
        realized = realize_plan_template(gold, game)
        derived = derive_macro_plan(
            dataclasses.replace(game, summary=realized))
        derived_ids.append(plan_identifiers(derived))
        gold_ids.append(plan_identifiers(gold))
    p, r, f, co_val = intrinsic_plan_eval(derived_ids, gold_ids)
    _report(capsys, "AC6 round-trip oracle",
            f == 100.0 and co_val == 100.0 and len(pairs) >= 100,
            f"CS-F {f:.1f}, CO {co_val:.1f} on {len(pairs)} games")


def test_ac7_metric_oracles(capsys):
    """Edit distance agrees with an independent recursive oracle on every
    string pair of length <= 6 over a 3-symbol alphabet; surface-metric hand
    values check out."""

    def recursive_oracle(a, b):
        @lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            best = min(d(i - 1, j) + 1, d(i, j - 1) + 1,
                       d(i - 1, j - 1) + (a[i - 1] != b[j - 1]))
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                best = min(best, d(i - 2, j - 2) + 1)
            return best

        return d(len(a), len(b))

    strings = [""]
    for n in range(1, 7):
        strings += ["".join(s) for s in itertools.product("abc", repeat=n)]
    checked = 0
    dl_ok = True
    for i, a in enumerate(strings):
        for b in strings[i:]:       # dl is symmetric; check each unordered pair
            if dl_distance(a, b) != recursive_oracle(a, b):
                dl_ok = False
                break
            checked += 1
        if not dl_ok:
            break

    toks = "one two three four five six".split()
    bleu_identity = abs(bleu(toks, toks) - 100.0) < 1e-9
    hand = bleu(["a", "b", "c"], ["a", "b", "c", "d"])
    bleu_hand = abs(hand - 100.0 * np.exp(1 - 4 / 3)) < 1e-6
    p, r, _ = cs(["x", "x"], ["x"])
    cs_dup = (p, r) == (50.0, 100.0)
    _report(capsys, "AC7 metric oracles",
            dl_ok and bleu_identity and bleu_hand and cs_dup,
            f"{checked} edit-distance pairs, BLEU hand value {hand:.4f}")


def test_ac8_inning_disambiguation(capsys):
    """The ordinal classifier reaches 95% precision and recall on a labeled
    synthetic mention set."""
    ordinals = ["first", "second", "third", "fourth", "fifth", "sixth",
                "seventh", "eighth", "ninth"]
    names = ["Barlund", "Corwick", "Felner"]
    verbs = ["homered", "singled", "doubled"]
    labeled = []  # (sentence, ordinal index, is_inning)
    for o in ordinals:
        for name, verb in zip(names, verbs):
            labeled.append(([name, verb, "in", "the", o, "inning", "."],
                            4, True))
            labeled.append((["In", "the", o, ",", name, verb, "."], 2, True))
            labeled.append(([name, verb, "twice", "in", "the", o, "."],
                            5, True))
            labeled.append((["the", o, "left", "it", "tied", "3-3", "."],
                            1, True))
            labeled.append((["the", o, "batter", "struck", "out", "."],
                            1, False))
            labeled.append((["his", o, "start", "of", "the", "season", "."],
                            1, False))
            labeled.append((["their", o, "appearance", "together", "."],
                            1, False))
            labeled.append((["that", "was", "its", o, "pitch", "."],
                            3, False))
    tp = fp = fn = 0
    for sentence, idx, is_inning in labeled:
        pred = classify_inning_mention(sentence, idx)
        if pred and is_inning:
            tp += 1
        elif pred and not is_inning:
            fp += 1
        elif not pred and is_inning:
            fn += 1
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    _report(capsys, "AC8 inning disambiguation",
            len(labeled) >= 200 and precision >= 95.0 and recall >= 95.0,
            f"P {precision:.1f} / R {recall:.1f} on {len(labeled)} mentions")


def test_ac9_beam_search_invariants(capsys, monkeypatch):
    """Beam width one equals greedy decoding; repetition constraints hold;
    length normalization prefers the stronger per-step hypothesis."""
    seqs = [["a", "b", "c"], ["d", "e"], ["f", "g", "h"], ["a", "e"],
            ["c", "d"]]
    vocab = build_vocab(seqs)
    agree = blocking = cap = True
    for seed in range(20):
        # trained model: greedy argmax decoding and width-one beam search
        # must emit identical pointer sequences
        model, _ = train_planner(
            [(seqs, [seed % 5, (seed + 2) % 5, (seed + 4) % 5])],
            PlannerHyper(emb_dim=8, hidden=6, epochs=30, lr=0.1, seed=seed))
        for with_cap in (False, True):
            g = greedy_plan(seqs, model, unigram_cap=with_cap)
            b1 = infer_plan(seqs, model, beam_size=1, unigram_cap=with_cap)
            agree &= g.pointer_sequence == b1.pointer_sequence
        # untrained model: repetition constraints must hold even under
        # near-uniform pointer distributions
        rand = PlannerModel.init(vocab, PlannerHyper(emb_dim=8, hidden=6,
                                                     seed=seed),
                                 np.random.default_rng(seed))
        with monkeypatch.context() as patch:
            # these decodes stop at 15 pointers
            patch.setattr("macroplan.planner.MAX_PLAN_LEN", 15)
            for m, beam, with_cap in itertools.product(
                    (model, rand), (1, 3), (False, True)):
                seq = infer_plan(seqs, m, beam_size=beam,
                                 unigram_cap=with_cap).pointer_sequence
                bigrams = list(zip(seq, seq[1:]))
                blocking &= len(bigrams) == len(set(bigrams))
                if with_cap:
                    cap &= all(seq.count(i) <= 2 for i in set(seq))
    # length normalization: -2.7 over three steps (-0.9/step) beats
    # -2.0 over two (-1.0/step)
    norm_ok = best_hypothesis([(-2.0, (0, 1)), (-2.7, (0, 1, 2))]) == \
        (0, 1, 2)
    _report(capsys, "AC9 beam-search invariants",
            agree and blocking and cap and norm_ok,
            "beam1==greedy on 20 seeds; blocking, cap, length norm hold")


def test_ac10_template_baseline(capsys):
    """The template baseline never emits a relation unsupported by the
    tables, for event-rich and event-free games alike."""
    pairs = synth_league(SynthConfig(games=60, seed=5))
    pairs += synth_league(SynthConfig(games=20, kind="event-free", seed=6))
    ok = True
    worst = 100.0
    for game, _ in pairs:
        rels = extract_relations(templ_summary(game), game)
        count, prec = rg([rels], [game])
        worst = min(worst, prec)
        ok &= count > 0 and prec == 100.0
    _report(capsys, "AC10 template baseline RG precision", ok,
            f"min precision {worst:.1f} over {len(pairs)} games")


def test_ac11_determinism(capsys, tmp_path):
    """Two full pipeline runs under the same seeds produce byte-identical
    artifacts."""
    cfg = RunConfig(games=8, innings=2, holdout=2,
                    planner_epochs=1, planner_emb=8, planner_hidden=6,
                    planner_merges=40,
                    generator_epochs=1, generator_emb=8, generator_hidden=6,
                    generator_merges=80, generator_max_len=30, beam=2)
    stages = ["synth", "derive-plans", "enumerate", "train-planner",
              "train-generator", "plan", "generate", "evaluate"]
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        for stage in stages:
            assert run_stage(stage, cfg, out) == 0, f"{stage} failed in {name}"
    a_files = sorted(p.name for p in (tmp_path / "run_a").iterdir())
    b_files = sorted(p.name for p in (tmp_path / "run_b").iterdir())
    same_names = a_files == b_files
    diffs = [name for name in a_files
             if (tmp_path / "run_a" / name).read_bytes()
             != (tmp_path / "run_b" / name).read_bytes()]
    _report(capsys, "AC11 determinism", same_names and not diffs,
            f"{len(a_files)} artifacts byte-identical"
            if not diffs else f"differs: {diffs}")
