"""In-memory spans and counters, and the patches that record them.

Nothing inside ``src/`` is instrumented. :func:`patched` swaps public
functions and methods of ``repro`` for timing wrappers, each under the
name it is looked up by at its call site, and restores the originals on
exit. A span records ``(name, start, end, parent, traj_id)``; a layer's self
time is its duration minus the part covered by its child spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.traj: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.candidates: list = []  # (traj_id, cand, mask) from MMA matching
        self._stack: list[int] = []
        self.traj_id = -1

    @contextlib.contextmanager
    def span(self, name: str, traj_id: int | None = None):
        i = len(self.names)
        if traj_id is not None:
            self.traj_id = traj_id
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.traj.append(self.traj_id)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1.0) -> None:
        self.counters[name] += n

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON (written once, at the end)."""
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "traj_id": t}
            for n, s, e, p, t in zip(self.names, self.start, self.end, self.parent, self.traj)
        ]
        with open(path, "w") as f:
            json.dump({"spans": spans, "counters": dict(self.counters)}, f)

    # -- derived quantities ------------------------------------------------
    def layer_times(self, root: str) -> tuple[int, dict[str, dict[str, float]]]:
        """Per-name ``{"total", "self", "calls"}`` seconds over the subtrees
        of every root span called ``root``; returns ``(n_roots, table)``.

        The root's own self time is the unattributed remainder."""
        n = len(self.names)
        root_of = [-1] * n
        for i in range(n):
            p = self.parent[i]
            root_of[i] = i if p < 0 else root_of[p]
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        n_roots = 0
        for i in range(n):
            if self.names[root_of[i]] != root:
                continue
            if i == root_of[i]:
                n_roots += 1
            dur = self.end[i] - self.start[i]
            row = table[self.names[i]]
            row["total"] += dur
            row["self"] += dur - child_time[i]
            row["calls"] += 1
        return n_roots, dict(table)


def _resolve(target: str):
    """``"pkg.mod:Class"`` → the class; ``"pkg.mod"`` → the module."""
    mod, _, attr = target.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, attr) if attr else obj


def _wrap(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, out)
        return out

    return wrapper


def _count_fallback(tracer, args, out):
    tracer.count("routing.plan_route.fallbacks", out is None)


def _record_candidates(tracer, args, out):
    tracer.candidates.append((tracer.traj_id, out.cand, out.mask))


def _record_mma_loss(tracer, args, out):
    tracer.count("mma.train.loss_sum", float(out.data))
    tracer.count("mma.train.samples")


def _record_decode(tracer, args, out):
    s = args[1]
    tracer.count("trmma.decode.ticks", s.n_ticks)
    tracer.count("trmma.decode.route_len", len(s.route))
    tracer.count("trmma.decode.calls")


# (where the name is looked up, attribute, span name, hook). Functions
# imported by name are patched in every module that imports them.
PATCHES = [
    ("repro.roadnet.spatial_index:SegmentIndex", "query", "spatial_index.query", None),
    ("repro.mma.baselines", "build_mma_sample", "mma.features", _record_candidates),
    ("repro.mma.baselines", "candidate_features", "mma.features", None),
    ("repro.mma.baselines:MMAMatcher", "match", "mma.match", None),
    ("repro.mma.model:MMAModel", "predict", "mma.model.predict", None),
    ("repro.mma.model:MMAModel", "loss", "nn.forward", _record_mma_loss),
    ("repro.mma.baselines:HMMMatcher", "match", "fmm", None),
    ("repro.mma.infer", "stitch_route", "routing.stitch", None),
    ("repro.trmma.infer", "stitch_route", "routing.stitch", None),
    ("repro.roadnet.routing", "plan_route", "routing.plan_route", _count_fallback),
    ("repro.roadnet.routing:NetworkDistance", "directed", "routing.network_distance", None),
    ("repro.roadnet.routing:NetworkDistance", "dist", "routing.network_distance", None),
    ("repro.trmma.infer", "build_infer_sample", "trmma.features", None),
    ("repro.trmma.model:TRMMAModel", "encode", "trmma.encode", None),
    ("repro.trmma.model:TRMMAModel", "recover", "trmma.decode", _record_decode),
    ("repro.trmma.model:TRMMAModel", "loss", "nn.forward", None),
    ("repro.nn.autodiff:Tensor", "backward", "nn.backward", None),
    ("repro.nn.optim:Adam", "step", "nn.optim.step", None),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every entry of :data:`PATCHES` plus a tensor counter."""
    from repro.nn.autodiff import Tensor

    saved = []
    for target, attr, name, hook in PATCHES:
        owner = _resolve(target)
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, name, orig, hook))

    orig_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.counters["nn.tensors"] += 1
        orig_init(self, *args, **kwargs)

    saved.append((Tensor, "__init__", orig_init))
    Tensor.__init__ = counting_init
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
