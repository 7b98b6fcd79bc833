"""The public functions of `qwi` that the benchmark calls, one namespace per
module, and the tracer that records a span around each call.

Task code calls the program only through `bind()`'s namespaces, e.g.
`api.plmap.compose(f, g)`.  Untraced, the namespaces hold the program's own
functions, so tracing costs nothing when it is off.  Traced, each function
is wrapped so that every call records a span (name, start, end, parent,
task id); generator functions record one span per `next()`.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter
from types import SimpleNamespace


def table() -> dict:
    from qwi import (
        conjugacy, corpus, formulas, generators, interp, patterns, plmap,
        predicates, wmso,
    )
    M = plmap.PLMap
    return {
        "plmap.identity": M.identity,
        "plmap.apply": M.apply,
        "plmap.compose": M.compose,
        "plmap.inverse": M.inverse,
        "plmap.conjugate_by": M.conjugate_by,
        "plmap.signed_support": M.signed_support,
        "plmap.eq": M.__eq__,
        "predicates.restrict_map": predicates.restrict_map,
        "predicates.restr_witness": predicates.restr_witness,
        "predicates.disj_sem": predicates.disj_sem,
        "generators.gen_plmap_rnd": generators.gen_plmap_rnd,
        "patterns.pattern_of": patterns.pattern_of,
        "patterns.pattern_iso": patterns.pattern_iso,
        "patterns.enumerate_patterns": patterns.enumerate_patterns,
        "patterns.canonical_pattern": patterns.canonical_pattern,
        "patterns.format_pattern": patterns.format_pattern,
        "patterns.has_inf_orbitals": patterns.has_inf_orbitals,
        "patterns.inf_formula_holds": patterns.inf_formula_holds,
        "patterns.lemma21_decompose": patterns.lemma21_decompose,
        "patterns.classify_cofinal": patterns.classify_cofinal,
        "conjugacy.conjugating_witness": conjugacy.conjugating_witness,
        "conjugacy.verify_conjugator": conjugacy.verify_conjugator,
        "corpus.load_corpus": corpus.load_corpus,
        "formulas.parse_wmso": formulas.parse_wmso,
        "wmso.decide": wmso.decide,
        "interp.translate": interp.translate,
        "interp.pullback_eval": interp.pullback_eval,
    }


def bind(wrap=None) -> SimpleNamespace:
    """`api.<module>.<function>`, each optionally passed through `wrap`."""
    mods: dict[str, dict] = {}
    for name, fn in table().items():
        mod, fun = name.split(".")
        mods.setdefault(mod, {})[fun] = wrap(name, fn) if wrap else fn
    return SimpleNamespace(**{m: SimpleNamespace(**fs) for m, fs in mods.items()})


class Tracer:
    """Spans kept in memory until the run ends.

    A span is (name, start, end, parent index, task id); the root of each
    task is a span named "task", and calls made during set-up carry the
    task id "setup".
    """

    def __init__(self):
        self.spans: list = []
        self.stack = [-1]
        self.task = "setup"
        self.counts: dict[str, int] = {}

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            def gen(*args, **kw):
                return self._iterate(name, fn(*args, **kw))
            return gen

        spans, stack = self.spans, self.stack

        def call(*args, **kw):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.task)
        return call

    def _iterate(self, name, it):
        step = self.wrap(name, lambda: next(it))
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def count(self, name, fn):
        """`fn` counting its calls under `name`."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)
        return counted

    def begin_task(self, task_id):
        self.task = task_id
        self.stack.append(len(self.spans))
        self.spans.append(None)
        self._task_start = perf_counter()

    def end_task(self):
        end = perf_counter()
        sid = self.stack.pop()
        self.spans[sid] = ("task", self._task_start, end, -1, self.task)
        self.task = "setup"

    def summary(self) -> tuple[dict[str, list], float]:
        """[calls, self seconds] per span name, and the summed self time of
        the layer spans inside tasks.  A span's self time is its duration
        minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, list] = {}
        in_tasks = 0.0
        for (name, start, end, _, task), covered in zip(self.spans, child):
            own = end - start - covered
            acc = per_name.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += own
            if task != "setup" and name != "task":
                in_tasks += own
        return per_name, in_tasks

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, task) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "task": task}) + "\n")
