"""The tape-free beam searches against the tape-based ones they replaced.

The oracles below are the earlier ``infer_plan``, ``greedy_plan`` and
``generate`` with the same arithmetic and ranking: they run every step on an
autodiff tape, one hypothesis at a time, and rank the generator's output with
a dictionary over the whole vocabulary sorted per hypothesis.  The generator
oracle finishes hypotheses by the planner's rule, which both searches now
share.  The new searches must return exactly what they return.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import macroplan.planner as planner_mod
from macroplan.autodiff import NO_GRAD, Tape, Tensor
from macroplan.generator import (BOS, EOS, UNK, GeneratorHyper,
                                 GeneratorModel, _output_dists,
                                 build_gen_vocab, decode_step, encode_plan,
                                 generate)
from macroplan.nn import lstm_step
from macroplan.planner import (MacroPlan, PlannerHyper, PlannerModel,
                               _forward_reps, _reps_with_eom, build_vocab,
                               greedy_plan, infer_plan, pointer_step)
from macroplan.verbalize import strip_marker

# ---------------------------------------------------------------------------
# Oracles: the tape-based searches


@dataclass
class BeamHypothesis:
    """One hypothesis of the oracle planner search."""
    pointers: tuple[int, ...]
    logprob: float
    h: np.ndarray
    c: np.ndarray

    def score(self) -> float:
        return self.logprob / max(len(self.pointers), 1)


def _has_blocked_bigram(prefix, nxt):
    if not prefix:
        return False
    bigram = (prefix[-1], nxt)
    return any((a, b) == bigram for a, b in zip(prefix, prefix[1:]))


def oracle_infer_plan(candidate_token_seqs, model, beam_size=5,
                      unigram_cap=False):
    id_seqs = [model.token_ids(s) for s in candidate_token_seqs]
    tape = Tape()
    store = model.store
    reps_c = _forward_reps(tape, model, id_seqs)
    all_reps = _reps_with_eom(tape, model, reps_c)
    k = len(id_seqs)

    h0 = NO_GRAD.mean(reps_c.data, axis=0)
    beams = [BeamHypothesis((), 0.0, h0, np.zeros_like(h0))]
    finished = []
    for _step in range(planner_mod.MAX_PLAN_LEN + 1):
        expansions = []
        for hyp in beams:
            x = tape.param(store, "start") if not hyp.pointers \
                else tape.row(reps_c, hyp.pointers[-1])
            h_t, c_t = lstm_step(tape, x, Tensor(hyp.h), Tensor(hyp.c),
                                 tape.param(store, "dec.W"),
                                 tape.param(store, "dec.b"))
            dist = pointer_step(tape, model, h_t, all_reps).data[0]
            for i in range(k + 1):
                logp = hyp.logprob + float(np.log(max(dist[i], 1e-300)))
                if i == k:
                    if hyp.pointers:
                        finished.append(BeamHypothesis(
                            hyp.pointers, logp, h_t.data, c_t.data))
                    continue
                if _has_blocked_bigram(hyp.pointers, i):
                    continue
                if unigram_cap and hyp.pointers.count(i) >= 2:
                    continue
                expansions.append(BeamHypothesis(
                    hyp.pointers + (i,), logp, h_t.data, c_t.data))
        if not expansions:
            break
        expansions.sort(key=lambda b: (-b.logprob, b.pointers))
        beams = expansions[:beam_size]

    if finished:
        finished.sort(key=lambda b: (-b.score(), b.pointers))
        return MacroPlan(finished[0].pointers, terminated=True)
    if beams:
        beams.sort(key=lambda b: (-b.score(), b.pointers))
        return MacroPlan(beams[0].pointers, terminated=False)
    return MacroPlan((), terminated=False)


def oracle_greedy_plan(candidate_token_seqs, model, unigram_cap=False):
    id_seqs = [model.token_ids(s) for s in candidate_token_seqs]
    tape = Tape()
    store = model.store
    reps_c = _forward_reps(tape, model, id_seqs)
    all_reps = _reps_with_eom(tape, model, reps_c)
    k = len(id_seqs)

    h = tape.tensor(NO_GRAD.mean(reps_c.data, axis=0))
    c = tape.zeros(h.data.shape)
    x = tape.param(store, "start")
    pointers = ()
    for _step in range(planner_mod.MAX_PLAN_LEN + 1):
        h, c = lstm_step(tape, x, h, c, tape.param(store, "dec.W"),
                         tape.param(store, "dec.b"))
        dist = pointer_step(tape, model, h, all_reps).data[0].copy()
        for i in range(k):
            if _has_blocked_bigram(pointers, i):
                dist[i] = -1.0
            elif unigram_cap and pointers.count(i) >= 2:
                dist[i] = -1.0
        best = int(np.argmax(dist))
        if best == k:
            if pointers:
                return MacroPlan(pointers, terminated=True)
            dist[k] = -1.0
            best = int(np.argmax(dist))
            if dist[best] < 0:
                return MacroPlan((), terminated=False)
        pointers = pointers + (best,)
        x = tape.row(reps_c, best)
    return MacroPlan(pointers, terminated=False)


def _surface_dist(model, plan_tokens, p_gen, p_copy, alpha, dropped):
    pc = float(p_copy)
    dist = {}
    gen = (1.0 - pc) * p_gen
    for tok, idx in model.vocab.items():
        dist[tok] = float(gen[idx])
    for pos, plan_tok in enumerate(plan_tokens):
        surface = strip_marker(plan_tok)
        dist[surface] = dist.get(surface, 0.0) + pc * float(alpha[pos])
    for tok in dropped:
        dist.pop(tok, None)
    return dist


def oracle_generate(plan_tokens, model, beam_size, dropped=(UNK, BOS, "")):
    """``dropped``: the surfaces never emitted.  Every non-empty history is
    finished at its EOS probability (one of ``max_len`` tokens can only
    finish), and each live history offers its ``beam_size`` best non-EOS
    surfaces for expansion."""
    tape = Tape()
    plan_ids = [model.token_id(t) for t in plan_tokens]
    S, h0, c0 = encode_plan(tape, model, plan_ids)

    # (tokens, logprob, h, c, prev)
    beams = [((), 0.0, h0.data, c0.data, BOS)]
    finished = []
    for _step in range(model.hyper.max_len + 1):
        expansions = []
        for tokens, logprob, h_prev, c_prev, prev in beams:
            h, c = lstm_step(
                tape, tape.gather_rows(tape.param(model.store, "emb"),
                                       [model.token_id(prev)]),
                tape.tensor(h_prev), tape.tensor(c_prev),
                tape.param(model.store, "dec.W"),
                tape.param(model.store, "dec.b"))
            comb, alpha = decode_step(tape, model, S, h)
            p_gen, p_copy = _output_dists(tape, model, comb)
            dist = _surface_dist(model, plan_tokens, p_gen.data[0],
                                 p_copy.data[0, 0], alpha.data[0], dropped)
            logps = {tok: logprob + float(np.log(max(prob, 1e-300)))
                     for tok, prob in dist.items()}
            if tokens:
                finished.append((tokens, logps.pop(EOS)))
            if len(tokens) == model.hyper.max_len:
                continue
            logps.pop(EOS, None)
            top = sorted(logps.items(), key=lambda kv: (-kv[1], kv[0]))
            expansions += [(tokens + (tok,), logp, h.data, c.data, tok)
                           for tok, logp in top[:beam_size]]
        if not expansions:
            break
        expansions.sort(key=lambda b: (-b[1], b[0]))
        beams = expansions[:beam_size]

    finished.sort(key=lambda b: (-(b[1] / len(b[0])), b[0]))
    return list(finished[0][0])


# ---------------------------------------------------------------------------
# Random tiny models


def random_candidates(rng, k):
    words = ["<TEAM>A", "<TEAM>B", "<PLAYER>C", "<TR>3", "<TR>5", "<BH>2",
             "<INN>1", "<INN>2", "x", "y"]
    return [[words[i] for i in rng.integers(0, len(words),
                                            size=rng.integers(1, 5))]
            for _ in range(k)]


def random_planner(seqs, seed, hidden=5):
    hyper = PlannerHyper(emb_dim=6, hidden=hidden, seed=seed)
    rng = np.random.default_rng(seed)
    model = PlannerModel.init(build_vocab(seqs), hyper, rng)
    # a larger spread than the initial range, so that plans end at
    # different lengths
    for _, p in model.store.items():
        p.data *= rng.uniform(1.0, 20.0)
    return model


PLAN_WORDS = ["<TEAM>Royals", "<TR>9", "<P>", "<PLAYER>C.Mullins", "<RBI>1",
              "<TEAM>Orioles", "<TR>2", "<INN>4", "homered", "9"]
TARGET_WORDS = ["the", "Royals", "scored", "9", "runs", ".", "homered", "in",
                "<P>", "2"]


def random_generator(seed, hidden=4):
    rng = np.random.default_rng(seed)
    plan = [PLAN_WORDS[i] for i in rng.integers(0, len(PLAN_WORDS), size=7)]
    target = [TARGET_WORDS[i] for i in rng.integers(0, len(TARGET_WORDS),
                                                    size=6)]
    hyper = GeneratorHyper(emb_dim=5, hidden=hidden, seed=seed)
    model = GeneratorModel.init(build_gen_vocab([(plan, target)]), hyper, rng)
    for _, p in model.store.items():
        p.data *= rng.uniform(1.0, 30.0)
    return model, plan


def capped(model, max_len):
    """``model`` with its parameters, decoding at most ``max_len`` tokens."""
    return GeneratorModel(model.store, model.vocab,
                          replace(model.hyper, max_len=max_len))


# ---------------------------------------------------------------------------
# Planner


@pytest.mark.parametrize("beam", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cap", [False, True])
def test_infer_plan_matches_oracle(beam, cap, monkeypatch):
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        seqs = random_candidates(rng, int(rng.integers(1, 9)))
        model = random_planner(seqs, seed)
        for max_len in (3, 12):
            monkeypatch.setattr(planner_mod, "MAX_PLAN_LEN", max_len)
            got = infer_plan(seqs, model, beam_size=beam, unigram_cap=cap)
            want = oracle_infer_plan(seqs, model, beam_size=beam,
                                     unigram_cap=cap)
            assert got == want, (seed, max_len)


@pytest.mark.parametrize("cap", [False, True])
def test_greedy_plan_matches_oracle(cap, monkeypatch):
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        seqs = random_candidates(rng, int(rng.integers(1, 9)))
        model = random_planner(seqs, seed)
        for max_len in (2, 12):
            monkeypatch.setattr(planner_mod, "MAX_PLAN_LEN", max_len)
            assert greedy_plan(seqs, model, unigram_cap=cap) == \
                oracle_greedy_plan(seqs, model, unigram_cap=cap)


def test_planner_length_cap_is_covered(monkeypatch):
    # a model whose plans run to the length cap
    monkeypatch.setattr(planner_mod, "MAX_PLAN_LEN", 3)
    seqs = random_candidates(np.random.default_rng(101), 7)
    model = random_planner(seqs, 4)
    for beam in (1, 3):
        plan = infer_plan(seqs, model, beam_size=beam)
        assert len(plan.pointer_sequence) == 3
        assert plan == oracle_infer_plan(seqs, model, beam_size=beam)
    plan = greedy_plan(seqs, model)
    assert not plan.terminated
    assert plan == oracle_greedy_plan(seqs, model)


@pytest.mark.parametrize("beam", [2, 3, 5])
def test_infer_plan_duplicate_candidates(beam, monkeypatch):
    # candidates that encode alike tie exactly at every step, whatever the
    # rounding, and the pointer order breaks the tie
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        seqs = random_candidates(rng, 9)
        seqs = seqs + [seqs[1], seqs[0], seqs[1], seqs[5], seqs[3]]
        # wide enough that a stacked matrix product would round the
        # duplicates apart
        model = random_planner(seqs, seed, hidden=32)
        monkeypatch.setattr(planner_mod, "MAX_PLAN_LEN", 8)
        for cap in (False, True):
            got = infer_plan(seqs, model, beam_size=beam, unigram_cap=cap)
            assert got == oracle_infer_plan(seqs, model, beam_size=beam,
                                            unigram_cap=cap)


@pytest.mark.parametrize("beam", [1, 2, 3, 5])
@pytest.mark.parametrize("cap", [False, True])
def test_infer_plan_forced_ties(beam, cap, monkeypatch):
    # W_b = 0 makes every pointer distribution exactly uniform, so every
    # expansion ties and only the (-logprob, pointers) order decides
    seqs = random_candidates(np.random.default_rng(7), 4)
    model = random_planner(seqs, 3)
    model.store["W_b"].data[:] = 0.0
    for max_len in (3, 9):
        with monkeypatch.context() as patch:
            patch.setattr(planner_mod, "MAX_PLAN_LEN", max_len)
            got = infer_plan(seqs, model, beam_size=beam, unigram_cap=cap)
            assert got == oracle_infer_plan(seqs, model, beam_size=beam,
                                            unigram_cap=cap)
    assert greedy_plan(seqs, model, unigram_cap=cap) == oracle_greedy_plan(
        seqs, model, unigram_cap=cap)


# ---------------------------------------------------------------------------
# Generator


@pytest.mark.parametrize("beam", [1, 2, 3, 4, 5])
def test_generate_matches_oracle(beam):
    for seed in range(6):
        model, plan = random_generator(seed)
        for max_len in (4, 15):
            m = capped(model, max_len)
            assert generate(plan, m, beam) == oracle_generate(
                plan, m, beam), (seed, max_len)


@pytest.mark.parametrize("beam", [1, 2, 3, 5])
def test_generate_forced_ties(beam):
    # zero output, attention and copy weights make the generate and copy
    # distributions exactly uniform: ties everywhere, broken by surface
    model, plan = random_generator(11)
    for name in ("W_out", "b_out", "W_att", "w_copy"):
        model.store[name].data[...] = 0.0
    for max_len in (3, 8):
        m = capped(model, max_len)
        assert generate(plan, m, beam) == oracle_generate(plan, m, beam)


def test_generate_length_cap_is_covered():
    # EOS gets next to no generation mass, so every history runs to the cap
    # and the winner is one of max_len tokens, finished at the cap
    model, plan = random_generator(4)
    model.store["b_out"].data[model.vocab[EOS]] = -1e3
    model = capped(model, 6)
    for beam in (1, 3):
        out = generate(plan, model, beam)
        assert len(out) == 6
        assert out == oracle_generate(plan, model, beam)


# ---------------------------------------------------------------------------
# No tape at inference


def test_inference_builds_no_tape(monkeypatch):
    seqs = random_candidates(np.random.default_rng(1), 5)
    planner = random_planner(seqs, 1)
    generator, plan = random_generator(1)

    def refuse(*args, **kwargs):
        raise AssertionError("inference built a tape")

    monkeypatch.setattr(Tape, "__init__", refuse)
    assert isinstance(infer_plan(seqs, planner, beam_size=3), MacroPlan)
    assert isinstance(greedy_plan(seqs, planner), MacroPlan)
    assert isinstance(generate(plan, capped(generator, 10), 3), list)
