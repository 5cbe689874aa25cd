"""Spans around the public functions of vecot, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules, in
every vecot namespace that refers to it, by a wrapper that records one span
per call: name, start, end, parent span and the id of the item being run.
The CLI's calls into the other modules are captured the same way, because
``vecot.cli`` holds references that get replaced too.  Spans stay in memory
until ``write``; ``uninstall`` restores the original functions.

A few wrappers also count what the call returned (solver iterations, edges,
certificate verdicts, leaves, transport sets, needles), so those counts are
taken at the same boundary as the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("core", "solver", "certifier", "leaves", "mass_balance", "disintegration", "cli")


def _solve_label(args, kwargs) -> str:
    instance = args[0] if args else kwargs["instance"]
    return "solver.solve.m1" if instance.target_dim == 1 else "solver.solve.mge2"


def _cli_label(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return "cli.main." + (argv[0] if argv else "none")


def _count_solve(counts, out) -> None:
    coupling, _, report = out
    counts["solver.calls"] += 1
    counts["solver.iterations"] += report.iterations
    counts["solver.iterlimit_count"] += report.status == "IterLimit"
    counts["solver.converged"] += report.status == "Converged"
    counts["solver.edges"] += coupling.edge_count


def _count_certify(counts, cert) -> None:
    counts["certifier.calls"] += 1
    counts["certifier.optimal"] += cert.verdict == "Optimal"
    counts["certifier.slack_violations"] += len(cert.slack_violations)


def _count_leaves(counts, dec) -> None:
    counts["leaves.leaf_count"] += len(dec.leaves)
    counts["leaves.boundary_count"] += len(dec.boundary_flags)


def _count_balance(counts, report) -> None:
    counts["mass_balance.transport_sets"] += len(report.entries)
    counts["mass_balance.balance_fails"] += report.verdict == "BalanceFails"


def _count_needles(counts, out) -> None:
    counts["disintegration.needles"] += len(out[0])


_LABELS = {"solver.solve": _solve_label, "cli.main": _cli_label}
_COUNTERS = {
    "solver.solve": _count_solve,
    "certifier.certify": _count_certify,
    "leaves.extract_leaves": _count_leaves,
    "mass_balance.mass_balance_report": _count_balance,
    "disintegration.slice_disintegration": _count_needles,
    "disintegration.radial_disintegration": _count_needles,
}


class Tracer:
    """In-memory span recorder for the public functions of vecot."""

    def __init__(self):
        # One span is [name, start, end, parent index or -1, item id].
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self) -> None:
        import vecot

        modules = [sys.modules["vecot." + name] for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(short + "." + attr, obj)
        for namespace in [vecot, *modules]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        label = _LABELS.get(name)
        count = _COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                label(args, kwargs) if label else name,
                time.perf_counter(),
                None,
                stack[-1] if stack else -1,
                self.item,
            ]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, out)
            return out

        return traced

    def totals(self) -> tuple[dict, dict, float]:
        """Span seconds and self seconds per name, and top-level span seconds.

        Self time is a span's duration minus the part its child spans cover;
        children of one span never overlap, so that part is their sum.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        top = 0.0
        for (name, start, end, parent, _), cover in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - cover
            if parent < 0:
                top += end - start
        return dict(inclusive), dict(own), top

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "item": item}
                    )
                    + "\n"
                )
