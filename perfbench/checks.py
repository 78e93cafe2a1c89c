"""Output checks of the benchmark: per-trajectory invariants and
cross-checks of the aggregate quality numbers.

Each ``check_*`` function returns the set of trajectory ids whose output
is wrong, so a bad row is counted as a failed operation, not a crash.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.roadnet.routing import plan_route

#: DuckDB reference for :func:`repro.evalx.metrics.route_metrics_per_traj`.
ROUTE_METRICS_SQL = """
WITH p AS (SELECT DISTINCT traj_id, seg FROM pred),
     g AS (SELECT DISTINCT traj_id, seg FROM gt),
     np_ AS (SELECT traj_id, count(*) AS n_pred FROM p GROUP BY traj_id),
     ng AS (SELECT traj_id, count(*) AS n_gt FROM g GROUP BY traj_id),
     ni AS (SELECT p.traj_id, count(*) AS n_int FROM p JOIN g USING (traj_id, seg)
            GROUP BY p.traj_id),
     c AS (SELECT ng.traj_id, coalesce(n_pred, 0) AS n_pred, n_gt, coalesce(n_int, 0) AS n_int
           FROM ng LEFT JOIN np_ USING (traj_id) LEFT JOIN ni USING (traj_id)),
     m AS (SELECT traj_id, n_int / greatest(n_pred, 1) AS precision, n_int / n_gt AS recall,
                  n_int / (n_pred + n_gt - n_int) AS jaccard FROM c)
SELECT traj_id, precision, recall, jaccard,
       CASE WHEN precision + recall > 0
            THEN 2 * precision * recall / (precision + recall) ELSE 0.0 END AS f1
FROM m
"""


def check_recovery(pred: pd.DataFrame, n_ticks: dict[int, int], n_segments: int) -> set[int]:
    """Trajectories whose recovered rows break the output contract: exactly
    ``n_ticks`` rows with ``idx`` 0..n−1, ``seg`` in [0, n_segments) and
    ``ratio`` in [0, 1). A trajectory with no rows at all also fails."""
    bad = set(n_ticks) - set(pred["traj_id"].unique().tolist())
    for tid, g in pred.groupby("traj_id"):
        tid = int(tid)
        idx = np.sort(g["idx"].to_numpy())
        seg = g["seg"].to_numpy()
        ratio = g["ratio"].to_numpy()
        ok = (
            tid in n_ticks
            and len(g) == n_ticks[tid]
            and np.array_equal(idx, np.arange(n_ticks[tid]))
            and bool(((seg >= 0) & (seg < n_segments)).all())
            and bool(((ratio >= 0.0) & (ratio < 1.0)).all())
        )
        if not ok:
            bad.add(tid)
    return bad


def route_fallbacks(net, route: list[int], costs) -> tuple[int, int] | None:
    """``(hops, fallback_hops)`` of a stitched route, or ``None`` when a
    hop that is not a successor pair was in fact routable (so the stitcher
    should not have fallen back)."""
    hops = fallbacks = 0
    for a, b in zip(route[:-1], route[1:]):
        hops += 1
        if b in net.successors(a):
            continue
        if plan_route(net, int(a), int(b), costs) is not None:
            return None
        fallbacks += 1
    return hops, fallbacks


def check_routes(routes: pd.DataFrame, traj_ids, net, costs) -> tuple[set[int], int, int]:
    """Trajectories whose stitched route is empty or disconnected at a hop
    that ``plan_route`` can route; also returns total hops and fallbacks."""
    bad = set(int(t) for t in traj_ids) - set(routes["traj_id"].unique().tolist())
    hops = fallbacks = 0
    for tid, g in routes.groupby("traj_id"):
        route = g.sort_values("pos")["seg"].astype(int).tolist()
        res = route_fallbacks(net, route, costs) if route else None
        if res is None:
            bad.add(int(tid))
            continue
        hops += res[0]
        fallbacks += res[1]
    return bad, hops, fallbacks


def check_points(points: pd.DataFrame, n_obs: dict[int, int], n_segments: int) -> set[int]:
    """Trajectories whose matched points are not one row per observed point
    with a segment id inside the network."""
    bad = set(n_obs) - set(points["traj_id"].unique().tolist())
    for tid, g in points.groupby("traj_id"):
        seg = g["seg"].to_numpy()
        if (
            n_obs.get(int(tid)) != len(g)
            or g["idx"].nunique() != len(g)
            or not bool(((seg >= 0) & (seg < n_segments)).all())
        ):
            bad.add(int(tid))
    return bad


def means_agree(agg: dict[str, float], per_traj: pd.DataFrame, rel: float = 1e-9) -> bool:
    """Spark's dataset means equal a pandas mean of the collected rows."""
    ref = per_traj[list(agg)].mean()
    return all(abs(agg[c] - float(ref[c])) <= rel * max(1.0, abs(float(ref[c]))) for c in agg)
