"""The three benchmark workloads, driven through the public API of ``repro``.

Every workload has the same shape:

* **build** (once per checkout, not timed): train the system under test
  for every city and store it under ``.perfbench/`` (:func:`ensure_systems`);
* **set-up** (``setup_s``): build the city from ``--seed``, load the
  system, and run the Spark job once, cold: the time to the first result;
* **measure**: pairs of serial driver-side loops over ≥200 trajectories
  until ``--seconds`` have gone by; a trajectory's latency is the better of
  a pair's two loops. Every timing is reported at the speed of
  :mod:`yardstick`, which is timed next to the program, so that the load
  of other tenants of the host drops out;
* **check**: every pass's output rows, plus the cross-checks of the
  aggregate numbers.

With a :class:`~spans.Tracer` a warm Spark pass gives the Spark layers,
and the serial loop runs again with the layer patches installed for the
other per-layer metrics.
"""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import multiprocessing
import os
import pickle
import re
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from checks import (
    ROUTE_METRICS_SQL,
    check_points,
    check_recovery,
    check_routes,
    means_agree,
)
from repro.evalx.metrics import (
    RECOVERY_METRIC_COLS,
    aggregate_means,
    recovery_metrics_per_traj,
    route_metrics_per_traj,
)
from repro.mma import infer as mma_infer
from repro.mma.baselines import HMMMatcher, MMAMatcher
from repro.mma.features import build_mma_sample
from repro.mma.infer import run_matcher
from repro.mma.model import MMAModel
from repro.mma.train import augmented_trajs, train_mma
from repro.oracle import assert_equivalent
from repro.roadnet.node2vec import node2vec_embeddings
from repro.roadnet.routing import HistoricalCosts
from repro.traj.datasets import CityData, build_city, trajs_from_pandas
from repro.trmma.infer import TRMMARecoverer, run_recovery
from repro.trmma.train import segment_time_stats_trajs, train_trmma, trmma_training_samples
from spans import Tracer, patched
from yardstick import Laps, parallel_slowness, slowness

SRC = Path(__file__).resolve().parent.parent / "src"
WORK = SRC.parent / ".perfbench"  # scratch of the benchmark, ignored by git
D = 32  # embedding / hidden width of every model
EPOCHS = 1  # epochs per timed training call of train-pt
HISTORY_SEED = 0  # the trained system is the same for every --seed
BRACKET_UNITS = 150  # yardstick units per core before and after set-up or a pass, about 0.1 s

#: Workload sizes. ``tiny`` is for the smoke test only.
SCALES = {
    "full": {
        "recover-pt": dict(city="pt", n_traj=670),
        "match-bj": dict(city="bj", n_traj=670),
        "train-pt": dict(city="pt", n_train=200, trmma_train=20, n_eval=210, setups=2),
    },
    "tiny": {
        "recover-pt": dict(city="pt", n_traj=40),
        "match-bj": dict(city="bj", n_traj=40),
        "train-pt": dict(city="pt", n_train=16, trmma_train=4, n_eval=8, setups=2),
    },
}

#: Training of the system under test, per city: simulated history drawn
#: with :data:`HISTORY_SEED`, sized like the Table III harness
#: (``evalx.tables.build_recoverers``). It takes minutes, so it is the
#: benchmark's build step: see :func:`ensure_systems`.
SYSTEMS = {
    "full": {
        "pt": dict(mma_hist=800, mma_epochs=4, trmma_hist=250, trmma_epochs=4),
        "bj": dict(mma_hist=800, mma_epochs=4, trmma_hist=0, trmma_epochs=0),
    },
    "tiny": {
        "pt": dict(mma_hist=8, mma_epochs=1, trmma_hist=4, trmma_epochs=1),
        "bj": dict(mma_hist=8, mma_epochs=1, trmma_hist=0, trmma_epochs=0),
    },
}


@dataclass
class Run:
    """State and results of one benchmark run."""

    spark: object
    k: int  # Spark local[k] cores
    seed: int
    seconds: float
    scale: dict
    scale_name: str = "full"
    tracer: Tracer | None = None
    procs: object = None  # run.ProcessTree of the system under test
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict = field(default_factory=dict)  # quality + counts, printed in full

    def span(self, name: str, traj_id: int | None = None):
        return self.tracer.span(name, traj_id) if self.tracer else contextlib.nullcontext()

    def traced(self):
        return patched(self.tracer) if self.tracer else contextlib.nullcontext()

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def cpu_s(self) -> float:
        return self.procs.cpu_s() if self.procs is not None else float("nan")

    def same_every_pass(self, name: str, values: list) -> None:
        if any(v != values[0] for v in values[1:]):
            self.mismatches.append(f"{name} differs between passes: {values}")


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------
def _build(run: Run) -> tuple:
    """City DataFrames (cached and materialised) plus the driver-side test
    trajectories; returns ``(city, test_trajs, build_s)``."""
    t0 = time.perf_counter()
    city = build_city(run.spark, run.scale["city"], n_traj=run.scale["n_traj"], seed=run.seed)
    pts = city.points.filter(F.col("split") == "test").toPandas()
    rts = city.routes.filter(F.col("split") == "test").toPandas()
    city.points.count()
    return city, trajs_from_pandas(pts, rts), time.perf_counter() - t0


def _mma_samples(city, trajs) -> list:
    """Labelled MMA samples of the observed points of ``trajs``."""
    out = []
    for tr in trajs:
        obs = np.where(tr.observed)[0]
        if len(obs) >= 2:
            out.append(build_mma_sample(city.net, city.index, tr.x[obs], tr.y[obs], tr.t[obs],
                                        tr.t0, city.norm, true_seg=tr.seg[obs]))
    return out


class _NoSpark:
    """Stands in for the SparkSession so that :func:`build_city` builds only
    the driver-side city (network, index, constants) of a preset."""

    def createDataFrame(self, pdf):  # noqa: N802 - SparkSession's name
        return self

    def repartition(self, *args):
        return self

    def cache(self):
        return None


def driver_city(name: str) -> CityData:
    """A city preset without its Spark DataFrames, built by the same code."""
    return build_city(_NoSpark(), name, n_traj=1)


def src_digest() -> str:
    """sha256 of every source file of ``repro``; keys the stored systems."""
    h = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _system_path(scale: str, city: str) -> Path:
    spec = json.dumps([SYSTEMS[scale][city], D, HISTORY_SEED], sort_keys=True)
    key = hashlib.sha256((src_digest() + spec + inspect.getsource(_train_part)).encode())
    key = key.hexdigest()[:16]
    return WORK / f"system-{city}-{scale}-{key}.pkl"


def _train_part(name: str, spec: dict, part: str) -> dict:
    """One model of a city's system, ``"mma"`` (with the DA-lite routing
    costs) or ``"trmma"``, trained on simulated history drawn with
    :data:`HISTORY_SEED`; both parts draw the same history."""
    city = driver_city(name)
    t0 = time.perf_counter()
    n2v = node2vec_embeddings(city.net, d=D, seed=HISTORY_SEED)
    hist = augmented_trajs(city, max(spec["mma_hist"], spec["trmma_hist"]), seed=HISTORY_SEED)
    if part == "mma":
        out = {"costs": HistoricalCosts(city.net, [tr.route for tr in hist]).cost,
               "mma": train_mma(city, epochs=spec["mma_epochs"], d=D, n2v=n2v,
                                samples=_mma_samples(city, hist[: spec["mma_hist"]]))}
    else:
        tpm = segment_time_stats_trajs(city.net, hist, city.eps)
        ts = trmma_training_samples(city, time_per_meter=tpm, trajs=hist[: spec["trmma_hist"]])
        out = {"tpm": tpm, "trmma": train_trmma(city, epochs=spec["trmma_epochs"], d_h=D, n2v=n2v,
                                                time_per_meter=tpm, samples=ts)}
    out[f"{part}_train_s"] = time.perf_counter() - t0
    return out


def ensure_systems(scale: str) -> float:
    """Train and store the system of every city that has none stored for the
    current ``src/``; returns the seconds spent (0 when all were stored).

    Whichever run comes first in a checkout builds them all, so that no later
    run pays for training. The parts train in parallel, one process each, and
    deterministically, so every checkout of the same source trains the same
    weights."""
    t0 = time.perf_counter()
    todo = {c: spec for c, spec in SYSTEMS[scale].items() if not _system_path(scale, c).exists()}
    jobs = [(c, spec, part) for c, spec in todo.items()
            for part in ("mma", "trmma") if part == "mma" or spec["trmma_hist"]]
    if not jobs:
        return 0.0
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("fork")) as ex:
        parts = list(ex.map(_train_part, *zip(*jobs)))
    for city in todo:
        sys_ = {}
        for (c, _, _), out in zip(jobs, parts):
            if c == city:
                sys_.update(out)
        path = _system_path(scale, city)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "wb") as f:
            pickle.dump(sys_, f)
        tmp.replace(path)
    return time.perf_counter() - t0


def _load_system(run: Run) -> dict:
    with open(_system_path(run.scale_name, run.scale["city"]), "rb") as f:
        sys_ = pickle.load(f)
    run.report["system"] = {**SYSTEMS[run.scale_name][run.scale["city"]],
                            **{k: v for k, v in sys_.items() if k.endswith("_train_s")}}
    return sys_


@dataclass
class Latency:
    """Per-item latencies in ms, NaN where the call raised: wall-clock and
    at the yardstick's speed, with the loop's median slowness. ``single``
    is the first loop they came from, for a comparison with one traced
    loop."""

    raw: np.ndarray
    norm: np.ndarray
    slowness: float
    single: "Latency | None" = None

    def best(self, other: "Latency") -> "Latency":
        """Per item, the better of two loops over the same items."""
        return Latency(np.fmin(self.raw, other.raw), np.fmin(self.norm, other.norm),
                       statistics.median([self.slowness, other.slowness]), self)

    @staticmethod
    def median(lats: list["Latency"]) -> "Latency":
        """Per item, the median over several measurements of the same items."""
        return Latency(np.median([x.raw for x in lats], axis=0), np.median([x.norm for x in lats], axis=0),
                       statistics.median(x.slowness for x in lats), lats[0].single)

    def ok(self, which: str = "norm") -> np.ndarray:
        v = getattr(self, which)
        return v[np.isfinite(v)]


def _timed_serial(run: Run, items, *calls) -> list[Latency]:
    """Latency of each of ``calls`` on each item, in turn, with a yardstick
    unit after every call; a raise counts as failed. One :class:`Latency`
    per call."""
    laps, ok = Laps(), []
    for it in items:
        for call in calls:
            run.attempted += 1
            laps.restart()
            try:
                call(it)
                ok.append(True)
            except Exception as e:  # noqa: BLE001 - a failed trajectory is counted, not fatal
                run.failed += 1
                run.report.setdefault("errors", []).append(f"{type(e).__name__}: {e}")
                ok.append(False)
            laps.lap()
    bad = ~np.asarray(ok, dtype=bool)
    raw, norm = np.asarray(laps.ms), laps.normalised()
    raw[bad] = norm[bad] = np.nan
    slow = float(np.median(laps.slowness()))
    return [Latency(raw[j::len(calls)], norm[j::len(calls)], slow) for j in range(len(calls))]


def _measure(run: Run, items, calls, one_pass=None) -> tuple[list[Latency], list]:
    """Pairs of serial loops over all items, with ``one_pass()`` (if given)
    between the two loops of a pair, until ``--seconds`` have gone by since
    the first loop began (at least one pair). Returns, per call and item,
    the median over the pairs of the better of a pair's two loops; and the
    passes.

    The yardstick takes out the slow stretches of a shared host; the better
    of two loops takes out the spikes shorter than a few items.
    """
    t_end = time.perf_counter() + run.seconds
    pairs, passes = [], []
    while not pairs or time.perf_counter() < t_end:
        first = _timed_serial(run, items, *calls)
        if one_pass is not None:
            passes.append(one_pass())
        pairs.append([a.best(b) for a, b in zip(first, _timed_serial(run, items, *calls))])
    run.report["loop_pairs"] = len(pairs)
    return [Latency.median(list(lats)) for lats in zip(*pairs)], passes


def _warm_pass(run: Run, one_pass) -> dict:
    """One warm Spark pass, with the mean slowness of the k cores just
    before and just after it."""
    before = parallel_slowness(run.k, BRACKET_UNITS)
    p = one_pass()
    p["slowness"] = (before + parallel_slowness(run.k, BRACKET_UNITS)) / 2.0
    return p


def _traced_serial(run: Run, trajs, call) -> Latency:
    """The serial loop again, each trajectory under a ``traj`` root span."""
    with patched(run.tracer):
        def traced(tr):
            with run.tracer.span("traj", tr.traj_id):
                call(tr)

        return _timed_serial(run, trajs, traced)[0]


def _obs(tr):
    obs = np.where(tr.observed)[0]
    return tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs


def _latency(run: Run, lat: Latency, serial: list[Latency] | None = None) -> None:
    """``traj_ms_*`` from ``lat``; for the inference workloads also
    ``s_per_1k_traj``, the serial time of ``serial`` per 1000 items."""
    norm, raw = lat.ok(), lat.ok("raw")
    run.put("traj_ms_p50", float(np.median(norm)), "ms")
    run.put("traj_ms_p95", float(np.percentile(norm, 95)), "ms")
    run.report.update(latency_samples=len(norm), wall_ms_p50=float(np.median(raw)),
                      wall_ms_p95=float(np.percentile(raw, 95)), latency_slowness=lat.slowness,
                      first_loop_ms_p50=float(np.median(lat.single.ok())))
    if serial is not None:
        # ms per item is s per 1000 items
        run.put("s_per_1k_traj", float(sum(np.nanmean(x.norm) for x in serial)), "s")
        run.report["serial_wall_s_per_1k_traj"] = float(sum(np.nanmean(x.raw) for x in serial))


def _job_tasks(spark, group: str) -> int:
    tracker = spark.sparkContext.statusTracker()
    tasks = 0
    for j in tracker.getJobIdsForGroup(group):
        info = tracker.getJobInfo(j)
        for st in info.stageIds if info else []:
            si = tracker.getStageInfo(st)
            tasks += si.numTasks if si else 0
    return tasks


def _spark_layers(run: Run, p: dict, n: int, serial_ms: float, bc_obj) -> None:
    """Spark layers of one warm pass ``p``; ``serial_ms`` is the wall-clock
    compute of the same trajectories in the first serial loop."""
    run.put("spark.infer_s_per_1k_traj", p["infer_s"] / p["slowness"] * 1000.0 / n, "s")
    run.put("spark.overhead_frac", 1.0 - (serial_ms / 1000.0) / (run.k * p["infer_s"]), "frac")
    run.put("spark.broadcast_mb", len(pickle.dumps(bc_obj)) / 1e6, "MB")
    run.put("spark.tasks", p["tasks"], "count")
    run.put("evalx.s_per_1k_traj", p["eval_s"] / p["slowness"] * 1000.0 / n, "s")
    run.report.update(warm_pass_s=p["infer_s"] + p["eval_s"], warm_pass_infer_s=p["infer_s"],
                      warm_pass_cpu_s=p["cpu_s"], warm_pass_slowness=p["slowness"])


def _setup_done(run: Run, t_setup: tuple[float, float], build_s: float) -> None:
    """Put ``setup_s`` and ``datasets.build_city_s``, each divided by the
    mean slowness of the k cores at the start and at the end of set-up;
    ``t_setup`` is ``(slowness, perf_counter)`` at its start."""
    wall = time.perf_counter() - t_setup[1]
    slow = (t_setup[0] + parallel_slowness(run.k, BRACKET_UNITS)) / 2.0
    run.put("setup_s", wall / slow, "s")
    run.put("datasets.build_city_s", build_s / slow, "s")
    run.report.update(setup_wall_s=wall, setup_slowness=slow)


def _pass_id(run: Run) -> str:
    run.report["passes"] = run.report.get("passes", 0) + 1
    return f"perfbench-pass-{run.report['passes']}"


# ---------------------------------------------------------------------------
# per-layer metrics from the trace
# ---------------------------------------------------------------------------
INFER_LAYERS = {
    # metric: (span, field, per) — per "traj" (ms per trajectory), "call" (ms per call)
    "spatial_index.query_ms_per_traj": ("spatial_index.query", "total", "traj"),
    "mma.features.self_ms_per_traj": ("mma.features", "self", "traj"),
    "mma.model.predict_ms_per_traj": ("mma.model.predict", "total", "traj"),
    "routing.stitch.self_ms_per_traj": ("routing.stitch", "self", "traj"),
    "routing.plan_route.ms_per_call": ("routing.plan_route", "total", "call"),
    "routing.network_distance.ms_per_traj": ("routing.network_distance", "total", "traj"),
    "fmm.self_ms_per_traj": ("fmm", "self", "traj"),
    "trmma.features.ms_per_traj": ("trmma.features", "total", "traj"),
    "trmma.encode.ms_per_traj": ("trmma.encode", "total", "traj"),
    "trmma.decode.self_ms_per_traj": ("trmma.decode", "self", "traj"),
    "trace.unattributed_ms_per_traj": ("traj", "self", "traj"),
}
CALL_COUNTS = {
    "spatial_index.query_calls_per_traj": "spatial_index.query",
    "routing.plan_route.calls_per_traj": "routing.plan_route",
    "routing.network_distance.calls_per_traj": "routing.network_distance",
}


def _inference_layers(run: Run, trajs, counters_before: dict, slow: float) -> None:
    """Per-layer metrics of the traced loop; its timings are divided by the
    loop's median slowness ``slow``."""
    tr = run.tracer
    n, tab = tr.layer_times("traj")

    def row(name):
        return tab.get(name, {"total": 0.0, "self": 0.0, "calls": 0})

    for metric, (name, fld, per) in INFER_LAYERS.items():
        r = row(name)
        denom = n if per == "traj" else max(r["calls"], 1)
        run.put(metric, r[fld] * 1000.0 / denom / slow, "ms")
    for metric, name in CALL_COUNTS.items():
        run.put(metric, row(name)["calls"] / n, "count")
    delta = {k: v - counters_before.get(k, 0.0) for k, v in tr.counters.items()}
    run.put("routing.plan_route.fallback_frac",
            delta.get("routing.plan_route.fallbacks", 0.0) / max(row("routing.plan_route")["calls"], 1),
            "frac")
    run.put("nn.tensors_per_traj", delta.get("nn.tensors", 0.0) / n, "count")
    ticks = delta.get("trmma.decode.ticks", 0.0)
    run.put("trmma.decode.ticks_per_traj", ticks / n, "count")
    run.put("trmma.decode.ms_per_tick", row("trmma.decode")["self"] * 1000.0 / max(ticks, 1) / slow, "ms")
    run.put("trmma.route_len_mean",
            delta.get("trmma.decode.route_len", 0.0) / max(delta.get("trmma.decode.calls", 0.0), 1),
            "count")
    root = max(row("traj")["total"], 1e-12)
    run.put("trmma.decode.share", row("trmma.decode")["self"] / root, "frac")
    run.put("routing.share",
            (row("routing.stitch")["total"] + row("routing.network_distance")["total"]) / root, "frac")
    # true segment within the top-k_c candidates of MMA (Definition 8)
    gt = {t.traj_id: t.seg[np.where(t.observed)[0]] for t in trajs}
    hit = tot = 0
    for tid, cand, mask in tr.candidates:
        if tid in gt:
            hit += int((mask & (cand == gt[tid][:, None])).any(axis=1).sum())
            tot += len(cand)
    run.put("mma.candidates.hit_frac", hit / max(tot, 1), "frac")


def _training_layers(run: Run, reps: list[dict]) -> None:
    """Training layers of the traced reps: epochs from their laps, the ``nn``
    spans divided by the laps' median slowness."""
    tr = run.tracer
    tabs = {root: tr.layer_times(root)[1] for root in ("mma.train", "trmma.train")}
    for root in tabs:
        part = root.split(".")[0]
        run.put(f"{root}.s_per_epoch", statistics.median(r[f"{part}_norm_s"] for r in reps) / EPOCHS, "s")
    slow = statistics.median(r["lap_slowness"] for r in reps)

    def row(name):
        return {f: sum(t.get(name, {}).get(f, 0.0) for t in tabs.values()) for f in ("total", "calls")}

    samples = max(row("nn.forward")["calls"], 1)
    run.put("nn.forward_ms_per_sample", row("nn.forward")["total"] * 1000.0 / samples / slow, "ms")
    run.put("nn.backward_ms_per_sample", row("nn.backward")["total"] * 1000.0 / samples / slow, "ms")
    run.put("nn.optim.step_ms",
            row("nn.optim.step")["total"] * 1000.0 / max(row("nn.optim.step")["calls"], 1) / slow, "ms")
    c = tr.counters
    run.put("mma.train.loss", c.get("mma.train.loss_sum", 0.0) / max(c.get("mma.train.samples", 0.0), 1), "1")
    run.put("nn.tensors_per_sample", c.get("nn.tensors", 0.0) / samples, "count")


def _inference_system(run: Run) -> None:
    """The inference workloads load a trained system and train nothing."""
    for name, unit in NO_TRAINING.items():
        run.put(name, 0.0, unit)


# ---------------------------------------------------------------------------
# recover-pt
# ---------------------------------------------------------------------------
def recover_pt(run: Run) -> None:
    t_setup = (parallel_slowness(run.k, BRACKET_UNITS), time.perf_counter())
    city, trajs, build_s = _build(run)
    sys_ = _load_system(run)
    rec = TRMMARecoverer(MMAMatcher(city.net, city.index, city.norm, sys_["mma"]), sys_["trmma"],
                         city.norm, city.eps, costs=sys_["costs"], time_per_meter=sys_["tpm"])
    gt = city.points.filter(F.col("split") == "test").select("traj_id", "idx", "seg", "ratio")
    n_ticks = {tr.traj_id: len(tr.t) for tr in trajs}
    n = len(trajs)

    def one_pass() -> dict:
        group = _pass_id(run)
        run.spark.sparkContext.setJobGroup(group, group)
        cpu0, t0 = run.cpu_s(), time.perf_counter()
        pred = run_recovery(run.spark, city, rec).cache()
        pred_pdf = pred.toPandas()
        t1 = time.perf_counter()
        per = recovery_metrics_per_traj(run.spark, pred, gt, city.net).cache()
        per_pdf = per.toPandas()
        agg = aggregate_means(per, RECOVERY_METRIC_COLS)
        t2, cpu = time.perf_counter(), run.cpu_s() - cpu0
        tasks = _job_tasks(run.spark, group)
        per.unpersist()
        pred.unpersist()
        bad = check_recovery(pred_pdf, n_ticks, city.net.n_segments)
        run.attempted += n
        run.failed += len(bad)
        if not means_agree(agg, per_pdf):
            run.mismatches.append("recovery means differ from the pandas mean of per-trajectory rows")
        return {"infer_s": t1 - t0, "eval_s": t2 - t1, "cpu_s": cpu, "agg": _sorted_means(per_pdf, agg),
                "tasks": tasks, "rows": len(pred_pdf)}

    cold = one_pass()
    _setup_done(run, t_setup, build_s)
    run.report["cold_pass_s"] = cold["infer_s"] + cold["eval_s"]

    def call(tr):
        xs, ys, ts, t0, obs = _obs(tr)
        rec.recover(xs, ys, ts, t0, obs, len(tr.t))

    (lat,), _ = _measure(run, trajs, [call])
    _latency(run, lat, [lat])
    q = cold["agg"]
    run.put("accuracy", q["accuracy"], "frac")
    run.report.update(accuracy=q["accuracy"], f1=q["f1"], mae_m=q["mae"],
                      n_traj=n, ticks_per_traj=float(np.mean(list(n_ticks.values()))))
    if run.tracer:
        warm = _warm_pass(run, one_pass)
        for m in ("accuracy", "f1", "mae"):
            run.same_every_pass(m, [cold["agg"][m], warm["agg"][m]])
        before = dict(run.tracer.counters)
        traced = _traced_serial(run, trajs, call)
        _inference_layers(run, trajs, before, traced.slowness)
        _inference_system(run)
        _spark_layers(run, warm, n, float(np.nansum(lat.single.raw)), rec)
        run.put("trace.overhead_ms", float(np.median(traced.ok()) - np.median(lat.single.ok())), "ms")


def _sorted_means(per_pdf: pd.DataFrame, agg: dict) -> dict:
    """Dataset means over rows in trajectory order: the same bits on every
    pass, unlike Spark's sum, whose order follows task completion."""
    rows = per_pdf.sort_values("traj_id")
    return {c: float(rows[c].sum() / len(rows)) for c in agg}


# ---------------------------------------------------------------------------
# match-bj
# ---------------------------------------------------------------------------
def match_bj(run: Run) -> None:
    t_setup = (parallel_slowness(run.k, BRACKET_UNITS), time.perf_counter())
    city, trajs, build_s = _build(run)
    sys_ = _load_system(run)
    costs = sys_["costs"]
    matchers = {"mma": MMAMatcher(city.net, city.index, city.norm, sys_["mma"]),
                "fmm": HMMMatcher(city.net, city.index, city.norm)}
    gt_routes = city.routes.filter(F.col("split") == "test").select("traj_id", "seg")
    gt_routes_pdf = gt_routes.toPandas()
    n_obs = {tr.traj_id: int(tr.observed.sum()) for tr in trajs}
    gt_obs = pd.DataFrame(
        [(tr.traj_id, int(i), int(tr.seg[i])) for tr in trajs for i in np.where(tr.observed)[0]],
        columns=["traj_id", "idx", "gseg"],
    )
    n = len(trajs)
    last = {}

    def one_pass() -> dict:
        group = _pass_id(run)
        run.spark.sparkContext.setJobGroup(group, group)
        out = {"infer_s": 0.0, "eval_s": 0.0, "agg": {}}
        cpu0 = run.cpu_s()
        for name, m in matchers.items():
            t0 = time.perf_counter()
            res = run_matcher(run.spark, city, m, costs=costs)
            routes_pdf = res.routes.toPandas()
            points_pdf = res.points.toPandas()
            t1 = time.perf_counter()
            per = route_metrics_per_traj(res.routes, gt_routes).cache()
            per_pdf = per.toPandas()
            agg = aggregate_means(per, ["precision", "recall", "f1", "jaccard"])
            t2 = time.perf_counter()
            per.unpersist()
            out["infer_s"] += t1 - t0
            out["eval_s"] += t2 - t1
            bad, hops, fallbacks = check_routes(routes_pdf, n_obs, city.net, costs)
            bad |= check_points(points_pdf, n_obs, city.net.n_segments)
            run.attempted += n
            run.failed += len(bad)
            if not means_agree(agg, per_pdf):
                run.mismatches.append(f"{name} route means differ from the per-trajectory rows")
            acc = points_pdf.merge(gt_obs, on=["traj_id", "idx"])
            agg = _sorted_means(per_pdf, agg)
            agg["accuracy"] = float((acc["seg"] == acc["gseg"]).mean())
            agg["fallback_frac"] = fallbacks / max(hops, 1)
            out["agg"][name] = agg
            last[name] = (per_pdf, routes_pdf)
        out["cpu_s"] = run.cpu_s() - cpu0
        out["tasks"] = _job_tasks(run.spark, group)
        return out

    cold = one_pass()
    _setup_done(run, t_setup, build_s)
    run.report["cold_pass_s"] = cold["infer_s"] + cold["eval_s"]
    for name, (per_pdf, routes_pdf) in last.items():
        try:
            # the oracle collects its first argument; hand it the rows already collected
            assert_equivalent(SimpleNamespace(toPandas=per_pdf.copy), ROUTE_METRICS_SQL,
                              pred=routes_pdf, gt=gt_routes_pdf)
        except AssertionError as e:
            run.mismatches.append(f"{name} route metrics differ from the DuckDB oracle: {e}")

    mma, fmm = matchers["mma"], matchers["fmm"]

    def call(tr):
        xs, ys, ts, t0, _ = _obs(tr)
        segs = mma.match(xs, ys, ts, t0)
        [city.net.project(float(x), float(y), int(s)) for x, y, s in zip(xs, ys, segs)]
        mma_infer.stitch_route(city.net, [int(s) for s in segs], costs)

    def call_fmm(tr):
        xs, ys, ts, t0, _ = _obs(tr)
        segs = fmm.match(xs, ys, ts, t0)
        mma_infer.stitch_route(city.net, [int(s) for s in segs], costs)

    lat, lat_fmm = _measure(run, trajs, [call, call_fmm])[0]
    _latency(run, lat, [lat, lat_fmm])
    q = cold["agg"]
    run.put("accuracy", q["mma"]["accuracy"], "frac")
    run.report.update(f1=q["mma"]["f1"], jaccard=q["mma"]["jaccard"], fmm_f1=q["fmm"]["f1"],
                      fmm_accuracy=q["fmm"]["accuracy"], n_traj=n,
                      fallback_frac={k: v["fallback_frac"] for k, v in q.items()})
    if run.tracer:
        warm = _warm_pass(run, one_pass)
        for name in matchers:
            for m in ("f1", "jaccard", "accuracy"):
                run.same_every_pass(f"{name}.{m}", [cold["agg"][name][m], warm["agg"][name][m]])
        serial_ms = float(np.nansum(lat.single.raw) + np.nansum(lat_fmm.single.raw))
        t_mma = []

        def traced_call(tr):
            t0 = time.perf_counter()
            call(tr)
            t_mma.append((time.perf_counter() - t0) * 1000.0)
            call_fmm(tr)

        before = dict(run.tracer.counters)
        slow = _traced_serial(run, trajs, traced_call).slowness
        _inference_layers(run, trajs, before, slow)
        _inference_system(run)
        _spark_layers(run, warm, n, serial_ms, {"matcher": mma, "costs": costs})
        run.put("trace.overhead_ms", float(np.median(t_mma) / slow - np.median(lat.single.ok())), "ms")


# ---------------------------------------------------------------------------
# train-pt
# ---------------------------------------------------------------------------
_LOSS_RE = re.compile(r"^\[(mma|trmma):\w+\] epoch \d+/\d+ loss=([-+0-9.eE]+|nan|inf)$", re.M)


@contextlib.contextmanager
def _lap_every_step(laps: Laps):
    """End a lap of ``laps`` after every ``Adam.step``, so that training is
    timed in laps of one mini-batch each."""
    from repro.nn.optim import Adam

    step = Adam.step

    def lapped(self, *args, **kwargs):
        out = step(self, *args, **kwargs)
        laps.lap()
        return out

    Adam.step = lapped
    try:
        yield
    finally:
        Adam.step = step


def _train_setup(run: Run) -> tuple:
    """The city without its Spark DataFrames (nothing here reads them), the
    fixed training subset, held-out trajectories drawn from ``--seed``,
    Node2Vec and the samples; returns them with the seconds of each step."""
    t0 = time.perf_counter()
    city = driver_city(run.scale["city"])
    t1 = time.perf_counter()
    train = augmented_trajs(city, run.scale["n_train"], seed=HISTORY_SEED)
    test = augmented_trajs(city, run.scale["n_eval"], seed=run.seed + 1)  # never the subset
    t2 = time.perf_counter()
    n2v = node2vec_embeddings(city.net, d=D, seed=HISTORY_SEED)
    t3 = time.perf_counter()
    tpm = segment_time_stats_trajs(city.net, train, city.eps)
    data = SimpleNamespace(
        city=city, n2v=n2v, tpm=tpm, mma_samples=_mma_samples(city, train),
        eval_samples=_mma_samples(city, test),
        trmma_samples=trmma_training_samples(city, time_per_meter=tpm,
                                             trajs=train[: run.scale["trmma_train"]]))
    return data, {"build_city_s": t1 - t0, "node2vec_s": t3 - t2, "setup_s": time.perf_counter() - t0}


def train_pt(run: Run) -> None:
    # set-up takes seconds, so it runs more than once and reports medians;
    # every repeat builds the same data, and each is divided by the mean
    # slowness just before and after it
    setups, walls = [], []
    for _ in range(run.scale["setups"]):
        slow0 = slowness()
        data, t = _train_setup(run)
        slow = (slow0 + slowness()) / 2.0
        setups.append((data, {k: v / slow for k, v in t.items()}))
        walls.append(t["setup_s"])
    d = setups[-1][0]
    city, n2v, tpm = d.city, d.n2v, d.tpm
    mma_samples, eval_samples, trmma_samples = d.mma_samples, d.eval_samples, d.trmma_samples
    times = {k: statistics.median(t[k] for _, t in setups) for k in setups[0][1]}
    run.put("setup_s", times["setup_s"], "s")
    run.put("datasets.build_city_s", times["build_city_s"], "s")
    run.put("node2vec.s", times["node2vec_s"], "s")
    run.report["setup_wall_s"] = walls

    # every pass trains the same weights from the same initial ones; the
    # latency loop times a model with those initial weights on the held-out
    # samples, which come from --seed
    lat_model = MMAModel(city.net.n_segments, d0=D, d2=D, seed=0, n2v_init=n2v)
    models = []

    def one_rep() -> dict:
        buf = io.StringIO()
        laps = Laps()
        with contextlib.redirect_stdout(buf), run.traced(), _lap_every_step(laps):
            with run.span("mma.train"):
                mma = train_mma(city, epochs=EPOCHS, d=D, n2v=n2v, samples=mma_samples, verbose=True)
            laps.lap()
            n_mma = len(laps.ms)
            with run.span("trmma.train"):
                train_trmma(city, epochs=EPOCHS, d_h=D, n2v=n2v, time_per_meter=tpm,
                            samples=trmma_samples, verbose=True)
            laps.lap()
        models.append(mma)
        losses = dict(_LOSS_RE.findall(buf.getvalue()))
        run.attempted += len(mma_samples) + len(trmma_samples)
        if not all(np.isfinite(float(losses.get(k, "nan"))) for k in ("mma", "trmma")):
            run.failed += len(mma_samples) + len(trmma_samples)
        norm = laps.normalised() / 1000.0
        return {"mma_s": sum(laps.ms[:n_mma]) / 1000.0, "trmma_s": sum(laps.ms[n_mma:]) / 1000.0,
                "mma_norm_s": float(norm[:n_mma].sum()), "trmma_norm_s": float(norm[n_mma:].sum()),
                "lap_slowness": float(np.median(laps.slowness())),
                "mma_loss": losses.get("mma"), "trmma_loss": losses.get("trmma")}

    def call(s):
        loss = lat_model.loss(s)
        loss.backward()
        if not np.isfinite(loss.item()):
            raise FloatingPointError("non-finite loss")
        for p in lat_model.parameters():
            p.grad = None

    (lat,), reps = _measure(run, eval_samples, [call], one_rep)
    model = models[0]
    per_1k = [1000.0 * (r["mma_norm_s"] / len(mma_samples) + r["trmma_norm_s"] / len(trmma_samples))
              for r in reps]
    run.put("s_per_1k_traj", statistics.median(per_1k), "s")
    run.report.update(pass_s=[r["mma_s"] + r["trmma_s"] for r in reps],
                      pass_slowness=[r["lap_slowness"] for r in reps])
    for m in ("mma_loss", "trmma_loss"):
        run.same_every_pass(m, [r[m] for r in reps])

    _latency(run, lat)
    hits = [int((model.predict(s) == s.cand[np.arange(len(s.label)), np.maximum(s.label, 0)])
                [s.label >= 0].sum()) for s in eval_samples]
    run.put("accuracy", sum(hits) / sum(len(s.label) for s in eval_samples), "frac")
    run.report.update(train_loss=float(reps[0]["trmma_loss"]), mma_train_loss=float(reps[0]["mma_loss"]),
                      accuracy=run.metrics["accuracy"][0], n_traj=len(mma_samples),
                      n_trmma_traj=len(trmma_samples), n_eval=len(eval_samples))
    if run.tracer:
        _training_layers(run, reps)
        labels = np.concatenate([s.label for s in eval_samples])
        run.put("mma.candidates.hit_frac", float((labels >= 0).mean()), "frac")
        with patched(run.tracer):
            (traced,) = _timed_serial(run, eval_samples, call)
        run.put("trace.overhead_ms", float(np.median(traced.ok()) - np.median(lat.single.ok())), "ms")
        # no inference, routing, Spark job or metrics job runs in this workload
        for name, unit in NO_INFERENCE.items():
            run.put(name, 0.0, unit)


NO_TRAINING = {
    "node2vec.s": "s", "mma.train.s_per_epoch": "s", "trmma.train.s_per_epoch": "s",
    "nn.forward_ms_per_sample": "ms", "nn.backward_ms_per_sample": "ms", "nn.optim.step_ms": "ms",
    "nn.tensors_per_sample": "count", "mma.train.loss": "1",
}

NO_INFERENCE = {
    **{m: "ms" for m in INFER_LAYERS},
    **{m: "count" for m in CALL_COUNTS},
    "routing.plan_route.fallback_frac": "frac", "nn.tensors_per_traj": "count",
    "trmma.decode.ticks_per_traj": "count", "trmma.decode.ms_per_tick": "ms",
    "trmma.route_len_mean": "count", "trmma.decode.share": "frac", "routing.share": "frac",
    "spark.infer_s_per_1k_traj": "s", "spark.overhead_frac": "frac", "spark.broadcast_mb": "MB",
    "spark.tasks": "count", "evalx.s_per_1k_traj": "s",
}

WORKLOADS = {"recover-pt": recover_pt, "match-bj": match_bj, "train-pt": train_pt}
USES_SPARK = {"recover-pt": True, "match-bj": True, "train-pt": False}
