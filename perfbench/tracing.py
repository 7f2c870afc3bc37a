"""Spans around calls into groupwidths, recorded from outside the library.

``Tracer.install`` replaces each traced function in every groupwidths
module namespace that binds it (and ``FiniteGroup.__init__``,
``FreeWord.__mul__`` and ``DecompositionCertificate.verification`` on
their classes) with a wrapper that records a span: name, start, end,
parent span and job id.  Spans stay in memory until ``write_spans``.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# traced name -> (module, attribute path)
TRACED = {
    "finite_groups.group_from_spec": ("finite_groups", "group_from_spec"),
    "finite_groups.FiniteGroup.init": ("finite_groups", "FiniteGroup.__init__"),
    "nilprod.nilprod2_multi": ("nilprod", "nilprod2_multi"),
    "nilprod.bound_report": ("nilprod", "bound_report"),
    "pal_width.palindromic_width": ("pal_width", "palindromic_width"),
    "pal_width.reachable_pairs": ("pal_width", "reachable_pairs"),
    "pal_width.palindrome_elements": ("pal_width", "palindrome_elements"),
    "free_words.parse_free_word": ("free_words", "parse_free_word"),
    "free_words.FreeWord.mul": ("free_words", "FreeWord.__mul__"),
    "free_words.ql": ("free_words", "ql"),
    "free_words.format_free_word": ("free_words", "format_free_word"),
    "wreath.parse_wreath_element": ("wreath", "parse_wreath_element"),
    "wreath.format_wreath_element": ("wreath", "format_wreath_element"),
    "wreath.delta": ("wreath", "delta"),
    "wreath.certify_cw_lower_bound": ("wreath", "certify_cw_lower_bound"),
    "wreath.evaluate_letters": ("wreath", "evaluate_letters"),
    "wreath.w_multiply": ("wreath", "w_multiply"),
    "decompose.decompose": ("decompose", "decompose"),
    "decompose.derived_part_palindrome": ("decompose", "derived_part_palindrome"),
    "decompose.DecompositionCertificate.verification": (
        "decompose",
        "DecompositionCertificate.verification",
    ),
    "cli.main": ("cli", "main"),
}


# traced name -> work counters, each (counter name, amount from args and result)
WORK = {
    "finite_groups.FiniteGroup.init": [
        ("finite_groups.table_entries", lambda a, r: a[0].order ** 2),
    ],
    "pal_width.reachable_pairs": [
        ("pal_width.reachable_pairs.states", lambda a, r: len(r.pairs)),
    ],
    "pal_width.palindrome_elements": [
        ("pal_width.palindrome_elements.count", lambda a, r: len(r)),
    ],
    "pal_width.palindromic_width": [
        # |S_k| * |P| products tried per layer, against order - 1 elements found
        ("pal_width.covering.products", lambda a, r: sum(r.layers[:-1]) * len(r.palindromes)),
        ("pal_width.covering.useful", lambda a, r: r.layers[-1] - 1),
    ],
    "free_words.parse_free_word": [
        ("free_words.parse_free_word.bytes", lambda a, r: len(a[0])),
    ],
    "free_words.FreeWord.mul": [
        ("free_words.FreeWord.mul.syllables_copied",
         lambda a, r: len(a[0].syllables) + len(a[1].syllables)),
    ],
    "wreath.evaluate_letters": [
        ("wreath.evaluate_letters.letters", lambda a, r: len(a[1].letters)),
    ],
    "decompose.decompose": [
        ("decompose.factor_letters", lambda a, r: sum(len(f) for f in r.factors)),
    ],
}


# every work counter; cli.report_bytes is fed by the harness from captured stdout
COUNTERS = tuple(c for work in WORK.values() for c, _ in work) + ("cli.report_bytes",)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0

    def _wrap(self, name: str, fn):
        work = WORK.get(name, ())

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                self.spans.append((span_id, name, start, end, parent, self.job))
            for counter, amount in work:
                self.counts[counter] += amount(args, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every groupwidths namespace that binds a traced object."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "groupwidths"]
        for name, (module_name, path) in TRACED.items():
            module = importlib.import_module(f"groupwidths.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                )
                fh.write("\n")
