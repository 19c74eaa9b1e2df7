"""Span tracing of the program's public functions, from outside the program.

:meth:`Tracer.install` replaces each traced function with a wrapper in every
``macroplan`` module that holds a reference to it (modules import functions
by name, so ``planner`` and ``generator`` each hold their own ``lstm_step``);
:meth:`Tracer.uninstall` puts the originals back.  A wrapper records one span
per call (id, name, start, end, parent span, stage) in memory, and a few
functions also add to named counts.  No file of the program changes.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict

#: module -> public functions traced in it ("Class.method" for methods)
TRACED = {
    "data": ("load_games", "save_games"),
    "synth": ("synth_league",),
    "oracle": ("derive_macro_plan",),
    "candidates": ("enumerate_candidates", "augment_with_gold"),
    "bpe": ("learn_bpe", "encode", "decode"),
    "autodiff": ("Tape.backward",),
    "nn": ("lstm_step", "bilstm_encode", "adagrad_step", "save_params",
           "load_params"),
    "planner": ("train_planner", "instance_loss", "encode_candidates",
                "contextualize", "pointer_step", "infer_plan"),
    "generator": ("train_generator", "instance_loss", "encode_plan",
                  "decode_step", "generate"),
    "metrics": ("evaluate_summaries", "extract_relations", "plan_fidelity",
                "intrinsic_plan_eval", "corpus_bleu"),
    "cli": ("read_plan_file",),
}

#: counts recorded at function boundaries, with their units
COUNTS = {
    "planner.plans": "count",
    "planner.plans_unterminated": "count",
    "generator.summaries": "count",
    "generator.tokens_out": "count",
    "generator.length_cap_hits": "count",
    "generator.empty_tokens_out": "count",
    "nn.save_params.bytes": "B",
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _count_plan(counts, args, kwargs, plan):
    counts["planner.plans"] += 1
    counts["planner.plans_unterminated"] += not plan.terminated


def _count_generation(counts, args, kwargs, tokens):
    model = args[1] if len(args) > 1 else kwargs["model"]
    max_len = args[3] if len(args) > 3 else kwargs.get("max_len")
    if max_len is None:
        max_len = model.hyper.max_len
    counts["generator.summaries"] += 1
    counts["generator.tokens_out"] += len(tokens)
    counts["generator.empty_tokens_out"] += tokens.count("")
    # a finished hypothesis ends before the last step, so only an unfinished
    # one returned at the cap reaches max_len tokens
    counts["generator.length_cap_hits"] += len(tokens) >= max_len


def _count_checkpoint(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["nn.save_params.bytes"] += os.path.getsize(path)


_AFTER = {
    "planner.infer_plan": _count_plan,
    "generator.generate": _count_generation,
    "nn.save_params": _count_checkpoint,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stage: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_span = 0
        self._stage_start = 0.0
        self._restore: list[tuple] = []

    # --- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a call on a worker thread has no open span on its own stack;
            # it belongs to the stage that started the worker
            parent = stack[-1] if stack else tracer._stage_span
            span = next(tracer._ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span, name, start, end, parent,
                                     tracer.stage))
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def begin_stage(self, stage: str) -> None:
        self.stage = stage
        self._stage_span = next(self._ids)
        self._stage_start = time.perf_counter()

    def end_stage(self) -> None:
        self.spans.append((self._stage_span, f"stage.{self.stage}",
                           self._stage_start, time.perf_counter(), 0,
                           self.stage))
        self.stage = None
        self._stage_span = 0

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a ``macroplan`` module holds
        it; raise if one is missing or a reference survives."""
        import macroplan.cli  # noqa: F401  loads every module traced

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "macroplan" or n.startswith("macroplan.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"macroplan.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(name, orig))
                    self._restore.append((cls, meth, orig))
                    continue
                orig = getattr(home, fn_name)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))
        originals = {id(orig) for _, _, orig in self._restore}
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    raise RuntimeError(f"{mod.__name__}.{attr} escaped "
                                       f"tracing")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- results ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """``<name>.calls``, ``.s`` (inclusive) and ``.self_s`` for every
        traced function, plus the counts.  Self time is a span's duration
        less that of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, name, start, end, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[span]
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def calls_by_stage(self) -> Counter:
        return Counter((stage, name) for _, name, _, _, _, stage
                       in self.spans)

    def write(self, path) -> None:
        """Spans as tab-separated id, parent, stage, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, name, start, end, parent, stage in self.spans:
                fh.write(f"{span}\t{parent}\t{stage}\t{name}\t{start:.9f}\t"
                         f"{end:.9f}\n")
