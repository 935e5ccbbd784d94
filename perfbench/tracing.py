"""Spans recorded by the benchmark around calls into sumedit's layers.

Nothing inside the program is instrumented. While `Tracer.instrument()` is
active, the module attributes that the program's own code looks up at call
time (`oracle.enumerate_rewards`, `trainer.loss_and_gradients`, ...) are
replaced by wrappers that record a span named "<layer>.<function>" around
the real function, so the real CLI code, run in-process, makes every call
it makes untraced. Spans stay in memory and are written once, at the end of
the run.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from sumedit import editor, oracle, summarizers, text, trainer


def _sentences_encoded(args, result) -> int:
    """Sentence encodings one context costs: the document once, then the
    whole document again for each abstracted sentence."""
    document, extract = args[0], args[1]
    return len(document) * (1 + len(extract.order))


# (span name, module, attribute, span attributes from the call's arguments,
#  counter from the call's arguments and result). A function the program
# reaches from several modules is wrapped in each, under one span name.
LAYER_CALLS = [
    ("text.load_dataset", text, "load_dataset", None, lambda args, result: len(result)),
    ("summarizers.extract", summarizers, "extract_lead", None, None),
    ("summarizers.extract", summarizers, "extract_greedy_oracle", None, None),
    ("summarizers.abstractions_for", editor, "abstractions_for", None, None),
    ("encoder.context_from_abstractions", editor, "context_from_abstractions", None, _sentences_encoded),
    ("encoder.context_from_abstractions", trainer, "context_from_abstractions", None, _sentences_encoded),
    ("oracle.label_dataset", oracle, "label_dataset", None, None),
    ("oracle.label_example", oracle, "label_example", None, None),
    ("oracle.enumerate_rewards", oracle, "enumerate_rewards", lambda args: {"l": len(args[1].order)}, None),
    ("oracle.best_sequence", oracle, "best_sequence", None, None),
    ("oracle.soft_labels", oracle, "soft_labels", None, None),
    ("oracle.write_label_cache", oracle, "write_label_cache", None, None),
    ("oracle.read_label_cache", oracle, "read_label_cache", None, None),
    ("rouge.reward", oracle, "reward", None, None),
    ("rouge.reward", summarizers, "reward", None, None),
    ("rouge.reward", trainer, "reward", None, None),
    ("editor.init_params", editor, "init_params", None, None),
    ("editor.loss_and_gradients", trainer, "loss_and_gradients", None, None),
    ("editor.decode", trainer, "decode", None, None),
    ("editor.decode", editor, "decode", None, None),
    ("editor.save_checkpoint", editor, "save_checkpoint", None, None),
    ("editor.load_checkpoint", editor, "load_checkpoint", None, None),
    ("trainer.train", trainer, "train", None, None),
    ("trainer.evaluate", trainer, "evaluate", None, None),
    ("trainer.adam_step", trainer, "adam_step", None, None),
    ("trainer.mean_reward", trainer, "mean_reward", None, None),
]


def _example_id(args):
    """Id of the example a call works on, read from its first argument (an
    EditContext, an Example or a Document); None for other calls."""
    if not args:
        return None
    first = args[0]
    if hasattr(first, "example_id"):
        return first.example_id
    eid = getattr(getattr(first, "document", first), "id", None)
    return eid if isinstance(eid, str) else None


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, example id or None, attrs]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str, example, attrs: dict) -> list:
        parent = self._stack[-1] if self._stack else None
        if example is None and parent is not None:
            example = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, example, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, example: str | None = None, **attrs):
        record = self._open(name, example, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, attrs_of=None, count_of=None):
        """fn with a span around every call; count_of(args, result) adds to
        the counter of the same name."""

        def traced(*args, **kwargs):
            record = self._open(name, _example_id(args), attrs_of(args) if attrs_of else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if count_of is not None:
                self.counts[name] += count_of(args, result)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Replace every function of LAYER_CALLS by its traced wrapper for
        the duration of the block."""
        saved = []
        try:
            for name, module, attr, attrs_of, count_of in LAYER_CALLS:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), attrs_of, count_of))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, name: str, **match) -> float:
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and all(s[5].get(k) == v for k, v in match.items())
        )

    def self_times(self) -> dict[str, float]:
        """Per layer, span time not covered by child spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0].split(".", 1)[0]] += (s[2] - s[1]) - child_time[i]
        return dict(out)

    def root_time(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def children_of_roots(self) -> float:
        """Time covered by spans directly under a root span."""
        root_ids = {i for i, s in enumerate(self.spans) if s[3] is None}
        return sum(s[2] - s[1] for s in self.spans if s[3] in root_ids)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "example": e, **attrs}
            for n, a, b, p, e, attrs in self.spans
        ]
