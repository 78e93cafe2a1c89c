"""Pipeline benchmark of the ``repro`` reproduction.

    python3 perfbench/run.py --workload recover-pt --seed 1 --seconds 5 --trace 0

Runs one workload (``recover-pt``, ``match-bj`` or ``train-pt``; see
README.md) from the root of a source checkout. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it holds the run manifest and
the quality report. Spans of a traced run are written under
``.perfbench/``. The first run in a checkout also trains the system under
test and stores it there (one to two minutes; see README.md, "Build").
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SPARK_CORES = 3  # local[k]; capped by the machine's cores
BLAS_THREADS = "1"  # k workers × 1 BLAS thread never oversubscribe k cores


def _hermetic_env(k: int, tmp: Path) -> None:
    """Environment for this process, the JVM and the Python workers; must
    run before numpy or pyspark is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # `repro` is not installed: the workers find it only through
    # PYTHONPATH, which Spark passes on to them.
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{k}] --driver-memory 1g "
        f"--driver-java-options \"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -Xms1g -XX:+AlwaysPreTouch\" "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    sys.path.insert(0, str(ROOT / "src"))


def _spark(k: int, tmp: Path):
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(k))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def _stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    sc = spark.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


class ProcessTree:
    """The processes of the system under test: this process, and the JVM
    with its descendants (the Python workers) once :meth:`add` names it.
    Other children of this process, such as the yardstick's helpers, are
    not part of it.

    Every ``period`` seconds it reads each process's own peak resident
    memory (``VmHWM``); :attr:`peak_kb` is the sum of those peaks over every
    process seen. :meth:`cpu_s` is the CPU time of the live processes."""

    def __init__(self, period: float = 0.5):
        self.period = period
        self.roots = [os.getpid()]
        self.hwm_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def add(self, pid: int) -> None:
        self.roots.append(pid)

    @property
    def peak_kb(self) -> int:
        return sum(self.hwm_kb.values())

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def _pids(self) -> set[int]:
        """This process, and every root after the first with its descendants."""
        children: dict[int, list[int]] = {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat") as f:
                    ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
            children.setdefault(ppid, []).append(int(d))
        pids, todo = {self.roots[0]}, list(self.roots[1:])
        while todo:
            p = todo.pop()
            pids.add(p)
            todo.extend(children.get(p, []))
        return pids

    def parts_mb(self) -> dict[str, float]:
        """The peak split into this process, the added roots themselves (the
        JVM), and their descendants (the Python workers)."""
        own = [self.hwm_kb.get(p, 0) / 1024.0 for p in self.roots]
        return {"driver": own[0], "jvm": sum(own[1:]),
                "workers": self.peak_kb / 1024.0 - sum(own)}

    def cpu_s(self) -> float:
        """User plus system CPU seconds of every live process of the tree."""
        total = 0
        for pid in self._pids():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
        return total / os.sysconf("SC_CLK_TCK")

    def sample(self) -> None:
        for pid in self._pids():
            self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), self._hwm_kb(pid))

    def _loop(self):
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)


def _manifest(args, k: int) -> dict:
    import numpy
    import pyspark

    from workloads import D, EPOCHS, HISTORY_SEED, SCALES, SYSTEMS, src_digest

    git_sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        git_sha = r.stdout.strip() or None
    from repro.traj.datasets import CITY_PRESETS

    scale = SCALES[args.scale][args.workload]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "git_sha": git_sha,
        "src_sha256": src_digest(), "nproc": os.cpu_count(),
        "spark_master": f"local[{k}]", "blas_threads": int(BLAS_THREADS),
        "preset": {scale["city"]: CITY_PRESETS[scale["city"]]}, "sizes": scale,
        "system": SYSTEMS[args.scale][scale["city"]],
        "epochs": EPOCHS, "d": D, "history_seed": HISTORY_SEED,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
    }


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["recover-pt", "match-bj", "train-pt"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="'tiny' is a seconds-long run for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no source tree at {ROOT}", file=sys.stderr)
        return 2
    declared = _declared()[args.trace]

    k = max(1, min(SPARK_CORES, os.cpu_count() or 1))
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    _hermetic_env(k, tmp)
    try:
        from spans import Tracer
        from workloads import SCALES, USES_SPARK, WORKLOADS, Run, ensure_systems

        build_s = ensure_systems(args.scale)
        t = [time.perf_counter()]
        with ProcessTree() as procs:
            spark = _spark(k, tmp) if USES_SPARK[args.workload] else None
            jvm = getattr(spark.sparkContext._gateway, "proc", None) if spark is not None else None
            if jvm is not None:
                procs.add(jvm.pid)
            t.append(time.perf_counter())
            try:
                run = Run(spark=spark, k=k, seed=args.seed, seconds=args.seconds,
                          scale=SCALES[args.scale][args.workload], scale_name=args.scale,
                          tracer=Tracer() if args.trace else None, procs=procs)
                WORKLOADS[args.workload](run)
            finally:
                t.append(time.perf_counter())
                procs.sample()
                if spark is not None:
                    _stop_spark(spark)
                t.append(time.perf_counter())
        run.put("peak_rss_mb", procs.peak_kb / 1024.0, "MB")
        run.report["peak_rss_parts_mb"] = procs.parts_mb()
        manifest = _manifest(args, k)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if run.tracer:
        run.tracer.dump(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"))
    missing = sorted(set(declared) - set(run.metrics))
    wrong_unit = sorted(n for n in declared if n in run.metrics and run.metrics[n][1] != declared[n])
    if missing or wrong_unit:
        print(f"perfbench: metrics missing {missing}, unit differs {wrong_unit}", file=sys.stderr)
        return 3
    run.report["build_s"] = build_s
    run.report["phase_s"] = dict(zip(("spark_start", "workload", "spark_stop"),
                                         (b - a for a, b in zip(t, t[1:]))))
    run.report["failed_frac"] = run.failed / max(run.attempted, 1)
    run.report["mismatches"] = run.mismatches
    print(json.dumps({"manifest": manifest, "report": run.report}, default=float))
    print(json.dumps({
        "correct": not run.mismatches and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": run.metrics[n][0], "unit": u} for n, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
