"""In-process span tracing of altrank, installed from outside the package.

The package imports its helpers with `from .x import y`, so a function
is wrapped under the name it has where it is called (for example
`altrank.model.kernel_rank`, not `altrank.linalg.kernel_rank`).  Every
span has a name, start, end and parent.  Hot per-draw spans number in
the millions in the survey, so each span is folded into per-name
count, total time and self time as it closes; only the first
KEEP_RECORDS spans are also kept as records.

Self time of a span is its duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import importlib
import itertools
import time

# (owner, attribute, span name); an owner is an altrank module or a class
# in one.
TARGETS = (
    ("altrank.cli", "rank_survey", "cli.rank_survey"),
    ("altrank.cli", "empirical_sha_distribution", "model.sha_loop"),
    ("altrank.cli", "empirical_cl_distribution", "model.cl_loop"),
    ("altrank.cli", "delaunay_measure", "groups.delaunay_measure"),
    ("altrank.cli", "cl_measure", "groups.cl_measure"),
    ("altrank.cli", "symplectic_support", "groups.symplectic_support"),
    ("altrank.cli.Emitter", "csv", "cli.emit_csv"),
    ("altrank.cli.Emitter", "json", "cli.emit_json"),
    ("altrank.model", "map_chunks", "model.survey_loop"),
    ("altrank.model", "curve_height", "model.curve_height"),
    ("altrank.model", "is_valid_curve", "model.is_valid_curve"),
    ("altrank.model", "schedule_eta", "model.schedule_eta"),
    ("altrank.model", "schedule_x", "model.schedule_x"),
    ("altrank.model", "sample_alternating", "model.sample_alternating"),
    ("altrank.model", "kernel_rank", "linalg.kernel_rank"),
    ("altrank.model", "smith_divisors", "linalg.smith_divisors"),
    ("altrank.model", "diag_valuations_mod", "linalg.diag_valuations_mod"),
    ("altrank.model", "group_label", "groups.group_label"),
    ("altrank.model.AbelianPGroup", "from_valuations", "groups.from_valuations"),
    ("altrank.model", "iroot", "primes.iroot"),
    ("altrank.groups", "is_prime", "primes.is_prime"),
)

# `map_chunks(fn, specs, threads)`: the survey's chunk count is len(specs)
CHUNK_SPAN = "model.survey_loop"


def _owner(path: str):
    """'altrank.cli.Emitter' -> the Emitter class of module altrank.cli."""
    parts = path.split(".")
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:]:
        obj = getattr(obj, attr)
    return obj


# spans kept as full records; later ones are only folded
KEEP_RECORDS = 50_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.agg = {}  # name -> [count, total, self]
        self.records = []  # (span_id, parent_id, name, start, end)
        self.dropped = 0
        self.chunks = 0
        self._open = []  # [span_id, child_time] of open spans
        self._ids = itertools.count(1)
        self._saved = []

    def wrap(self, name: str, fn):
        agg = self.agg.setdefault(name, [0, 0, 0])
        open_spans = self._open
        records = self.records
        ids = self._ids
        clock = self.clock
        count_chunks = name == CHUNK_SPAN

        def traced(*args, **kwargs):
            if count_chunks:
                self.chunks += len(args[1])
            span = [next(ids), 0]
            parent = open_spans[-1] if open_spans else None
            open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                dur = end - start
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - span[1]
                if parent is not None:
                    parent[1] += dur
                if len(records) < KEEP_RECORDS:
                    records.append(
                        (span[0], parent[0] if parent else 0, name, start, end)
                    )
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; `restore` undoes it even after a failure."""
        for owner_path, attr, name in targets:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self.wrap(name, original.__func__))
            else:
                wrapped = self.wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> bool:
        """Put every original back; True when all are in place again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is orig for owner, attr, orig in self._saved)
        self._saved.clear()
        return ok

    def count(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def self_time(self, *names: str) -> float:
        return float(sum(self.agg.get(n, (0, 0, 0))[2] for n in names))


def fold(records):
    """Per-name [count, total, self] from complete span records."""
    child = {}
    for _sid, parent, _name, start, end in records:
        if parent:
            child[parent] = child.get(parent, 0) + (end - start)
    out = {}
    for sid, _parent, name, start, end in records:
        acc = out.setdefault(name, [0, 0, 0])
        dur = end - start
        acc[0] += 1
        acc[1] += dur
        acc[2] += dur - child.get(sid, 0)
    return out


def agrees(a: dict, b: dict, tol: float) -> bool:
    """Same names and counts; totals and self times within tol.  Names
    with no spans are ignored."""
    a = {k: v for k, v in a.items() if v[0]}
    b = {k: v for k, v in b.items() if v[0]}
    if a.keys() != b.keys():
        return False
    return all(
        a[k][0] == b[k][0]
        and abs(a[k][1] - b[k][1]) <= tol
        and abs(a[k][2] - b[k][2]) <= tol
        for k in a
    )


def synthetic_check() -> bool:
    """Self-time arithmetic on a fixed span tree under a step clock.

    root() calls leaf() then mid(); mid() calls leaf().  Each clock read
    advances one tick, so the durations are exact integers:
    leaf spans 1 tick, mid 3, root 7.  Self times are then
    leaf 1 + 1, mid 3 - 1, root 7 - 1 - 3.
    """
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: leaf())
    root = tracer.wrap("root", lambda: (leaf(), mid()))
    root()
    expected = {"leaf": [2, 2, 2], "mid": [1, 3, 2], "root": [1, 7, 3]}
    names = {sid: name for sid, _parent, name, *_ in tracer.records}
    edges = sorted((name, names.get(parent)) for _sid, parent, name, *_ in tracer.records)
    tree_ok = edges == [("leaf", "mid"), ("leaf", "root"), ("mid", "root"), ("root", None)]
    return (
        tree_ok
        and tracer.agg == expected
        and fold(tracer.records) == expected
    )
