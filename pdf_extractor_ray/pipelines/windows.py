"""Stream-shaped operators over the events log (SURVEY.md §2.9: Ray
Data has no event-time windows, so windows are derived grouping columns
and per-key ordered computations inside bucketed groups — the ordering
assumption is (user_id, ts, event_id), stated per the guide).

- ``sessionize``: gap-based session assignment (30-min default) — the
  canonical stateful per-key stream computation, vectorized per user
  with pandas inside ``ops.grouped_apply`` buckets.
- ``top_orders_per_segment``: per-group top-k (window ``row_number``
  analog) via bucketed nlargest.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import ray.data

from pdf_extractor_ray.functions.exact import cents_np
from pdf_extractor_ray.ops import grouped_apply

SESSION_GAP_MIN = 30


def sessionize(sf_dir: str, gap_minutes: int = SESSION_GAP_MIN) -> ray.data.Dataset:
    """events → per-user sessions: (user_id, session_id, n_events,
    value_cents, session_start). One bucketed exchange on user_id; the
    per-user gap/cumsum logic is vectorized over the whole bucket."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value", "event_id"],
    )
    gap = np.timedelta64(gap_minutes * 60, "s")

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        ts = g["ts"].to_numpy()
        uid = g["user_id"].to_numpy()
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap_break = np.empty(len(g), dtype=bool)
        gap_break[0] = True
        gap_break[1:] = (ts[1:] - ts[:-1]) > gap
        new_sess = (new_user | gap_break).astype(np.int64)
        # per-user running session ordinal: global cumsum minus the
        # cumsum value at each user's first row
        cs = np.cumsum(new_sess)
        first_of_user = np.where(new_user)[0]
        base = np.repeat(cs[first_of_user] - 1, np.diff(np.append(first_of_user, len(g))))
        out = pd.DataFrame(
            {
                "user_id": uid,
                "session_id": cs - base,
                "value_cents": cents_np(g["value"]),
                "ts": g["ts"].to_numpy(),
            }
        )
        return out.groupby(["user_id", "session_id"], as_index=False).agg(
            n_events=("ts", "size"),
            value_cents=("value_cents", "sum"),
            session_start=("ts", "min"),
        )

    out = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        b = b.astype({"session_id": "int64", "n_events": "int64", "value_cents": "int64"})
        # ISO string for canonicalization-proof oracle hashing
        b["session_start"] = b["session_start"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        return b

    return out.map_batches(finalize, batch_format="pandas")


SESSIONIZE_SQL = """
WITH d AS (
    SELECT user_id, ts, event_id, value,
           CASE WHEN lag(ts) OVER w IS NULL
                  OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                THEN 1 ELSE 0 END AS new_sess
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
    SELECT user_id, ts, value,
           SUM(new_sess) OVER (PARTITION BY user_id ORDER BY ts, event_id
                               ROWS UNBOUNDED PRECEDING) AS session_id
    FROM d
)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
       strftime(MIN(ts), '%Y-%m-%d %H:%M:%S.%f') AS session_start
FROM s GROUP BY user_id, session_id
"""


def top_orders_per_segment(sf_dir: str, k: int = 3) -> ray.data.Dataset:
    """Per-group top-k (window row_number analog): the k most expensive
    orders per customer market segment, deterministic tie-break on
    o_orderkey. customer is fact-sized, so the segment lookup is a
    hash-partitioned join (never a driver dict); the top-k shrinks
    inside map_batches (per-batch prune) before one bucketed exchange
    on segment."""
    from pdf_extractor_ray.joins import adaptive_inner_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    orders = adaptive_inner_join(orders, cust, on="o_custkey", right_on="c_custkey")

    def local_prune(b: pd.DataFrame) -> pd.DataFrame:
        b = b.dropna(subset=["c_mktsegment"]).copy()
        b["totalprice_cents"] = cents_np(b["o_totalprice"])
        b = b.sort_values(["totalprice_cents", "o_orderkey"], ascending=[False, True])
        return b.groupby("c_mktsegment", sort=False).head(k)[
            ["c_mktsegment", "o_orderkey", "totalprice_cents"]
        ]

    pruned = orders.map_batches(local_prune, batch_format="pandas", batch_size=65536)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["totalprice_cents", "o_orderkey"], ascending=[False, True])
        return g.groupby("c_mktsegment", sort=False).head(k)

    return grouped_apply(pruned, ["c_mktsegment"], final_topk, num_buckets=4)


def events_sliding_window(sf_dir: str, size_s: int = 3600, hop_s: int = 1800) -> ray.data.Dataset:
    """Overlapping (sliding/hopping) windowed aggregate: each event
    lands in ``size/hop`` windows. The window replication happens
    vectorized inside ``map_batches`` (np.repeat + per-copy offset),
    then ONE bucketed exchange aggregates (event_type, window_start).
    Window starts are int64 epoch seconds — canonicalization-proof for
    the SQL oracle. ``size_s`` must be a multiple of ``hop_s``."""
    assert size_s % hop_s == 0
    k = size_s // hop_s
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "ts", "value"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        epoch_us = b["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        base = epoch_us // (hop_s * 1_000_000)  # hop ordinal containing the event
        et = np.repeat(b["event_type"].to_numpy(), k)
        cents = np.repeat(cents_np(b["value"]), k)
        offsets = np.tile(np.arange(k, dtype=np.int64), len(b))
        w_start = (np.repeat(base, k) - offsets) * hop_s
        return pd.DataFrame(
            {
                "event_type": et,
                "w_start": w_start,
                "value_cents": cents,
                "n_events": np.ones(len(et), dtype=np.int64),
            }
        )

    from pdf_extractor_ray.ops import grouped_sum

    return grouped_sum(
        ds.map_batches(derive, batch_format="pandas", batch_size=65536),
        ["event_type", "w_start"],
        ["value_cents", "n_events"],
        num_buckets=8,
    )


EVENTS_SLIDING_SQL = """
SELECT event_type,
       (CAST(floor(epoch(ts) / 1800) AS BIGINT) - i.i) * 1800 AS w_start,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents,
       COUNT(*) AS n_events
FROM events CROSS JOIN (SELECT unnest([0, 1]) AS i) i
GROUP BY 1, 2
"""


TOP_ORDERS_PER_SEGMENT_SQL = """
SELECT c_mktsegment, o_orderkey,
       CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS totalprice_cents
FROM orders JOIN customer ON o_custkey = c_custkey
QUALIFY row_number() OVER (
    PARTITION BY c_mktsegment
    ORDER BY floor(o_totalprice * 100 + 0.5) DESC, o_orderkey) <= 3
"""


def events_last_purchase_asof(sf_dir: str) -> ray.data.Dataset:
    """AS-OF join driver query: every event annotated with the user's
    most recent purchase at-or-before it (value in exact cents, -1
    sentinel when none). The purchase side is deduplicated per
    (user_id, ts) first (min event_id wins) so the as-of match is
    well-defined in BOTH engines; the join itself is
    ``joins.asof_join`` — one hash exchange on user_id, sorted
    merge_asof inside each bucket. Timestamps are emitted as epoch
    microseconds so the driver's value hash is canonicalization-proof."""
    import os

    from pdf_extractor_ray.functions.exact import cents_np
    from pdf_extractor_ray.joins import asof_join
    from pdf_extractor_ray.ops import keep_first

    events = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    left = events.map_batches(
        lambda b: b[["event_id", "user_id", "ts"]], batch_format="pandas"
    )
    purchases = events.map_batches(
        lambda b: b.loc[b["event_type"] == "purchase", ["event_id", "user_id", "ts", "value"]],
        batch_format="pandas",
    )
    purchases = keep_first(purchases, ["user_id", "ts"], "event_id").map_batches(
        lambda b: pd.DataFrame(
            {"user_id": b["user_id"], "ts": b["ts"], "pvalue": b["value"], "pts": b["ts"]}
        ),
        batch_format="pandas",
    )
    # static schema hints: without them asof_join would sample each
    # side via limit(1), EXECUTING the purchases side's keep_first
    # exchange once extra just for dtypes
    ts_dtype = "datetime64[us]"
    j = asof_join(
        left,
        purchases,
        by="user_id",
        on="ts",
        left_sample=pd.DataFrame(
            {"event_id": pd.Series(dtype="int64"), "user_id": pd.Series(dtype="int64"),
             "ts": pd.Series(dtype=ts_dtype)}
        ),
        right_sample=pd.DataFrame(
            {"user_id": pd.Series(dtype="int64"), "ts": pd.Series(dtype=ts_dtype),
             "pvalue": pd.Series(dtype="float64"), "pts": pd.Series(dtype=ts_dtype)}
        ),
    )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.full(len(b), -1, dtype=np.int64)
        got = b["pvalue"].notna().to_numpy()
        if got.any():
            cents[got] = cents_np(b.loc[got, "pvalue"].to_numpy())
        # numpy path: ndarray astype(int64) tolerates NaT (pandas'
        # Series.astype raises on NaT→int)
        pts_raw = b["pts"].to_numpy().astype("datetime64[us]").astype("int64")
        pts = np.where(b["pts"].notna().to_numpy(), pts_raw, -1)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "user_id": b["user_id"].astype("int64"),
                "ts_us": b["ts"].to_numpy().astype("datetime64[us]").astype("int64"),
                "last_purchase_cents": cents,
                "last_purchase_ts_us": pts,
            }
        )

    return j.map_batches(finalize, batch_format="pandas")


EVENTS_ASOF_SQL = """
WITH p AS (
    SELECT user_id, ts, arg_min(value, event_id) AS pvalue
    FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
)
SELECT e.event_id,
       e.user_id,
       CAST(epoch_us(e.ts) AS BIGINT) AS ts_us,
       CAST(COALESCE(CAST(floor(p.pvalue * 100 + 0.5) AS BIGINT), -1) AS BIGINT) AS last_purchase_cents,
       CAST(COALESCE(epoch_us(p.ts), -1) AS BIGINT) AS last_purchase_ts_us
FROM events e
ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts >= p.ts
"""


# ---------------------------------------------------------------------------
# Ordered-funnel analysis + retention cohorts (events table)
# ---------------------------------------------------------------------------

FUNNEL_STAGES = ("signup", "view", "click", "purchase")
_DAY_US = 86_400_000_000


def funnel_events(
    sf_dir: str, stages: tuple[str, ...] = FUNNEL_STAGES
) -> ray.data.Dataset:
    """Ordered conversion funnel: a user reaches stage k when they have
    an event of type ``stages[k]`` STRICTLY after their earliest
    completion of stage k-1 (the classic min-timestamp chain, strict
    ``>`` on integer epoch-µs so engine and oracle share one total
    order). Output ``(stage_ix, stage, n_users)``, one row per stage.

    Scale shape: rows not in any stage type are dropped at the read;
    ONE bucketed exchange on user_id co-locates each user's events;
    the per-bucket chain is vectorized pandas groupby-min per stage
    (|stages| passes over the bucket, no per-user Python loop); each
    bucket emits |stages| partial-count rows, folded by a
    |stages|-row ``grouped_sum``."""
    from pdf_extractor_ray.ops import grouped_apply, grouped_sum

    stage_set = frozenset(stages)
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def narrow(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(stage_set)]
        return pd.DataFrame(
            {
                "user_id": b["user_id"].to_numpy(np.int64),
                "us": b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64),
                "event_type": b["event_type"].to_numpy(),
            }
        )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cur = (
            g[g["event_type"] == stages[0]].groupby("user_id")["us"].min()
        )  # Series: user -> t_stage0
        counts = [len(cur)]
        for s in stages[1:]:
            ev = g[g["event_type"] == s]
            prev = ev["user_id"].map(cur)
            ev = ev[prev.notna() & (ev["us"] > prev)]
            cur = ev.groupby("user_id")["us"].min()
            counts.append(len(cur))
        return pd.DataFrame(
            {
                "stage_ix": np.arange(len(stages), dtype=np.int64),
                "n_users": np.asarray(counts, dtype=np.int64),
            }
        )

    partials = grouped_apply(
        ds.map_batches(narrow, batch_format="pandas"), ["user_id"], per_bucket
    )
    totals = grouped_sum(partials, ["stage_ix"], ["n_users"], num_buckets=2)

    names = np.array(stages, dtype=object)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ix = b["stage_ix"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "stage_ix": ix,
                "stage": pd.Series(names[ix], dtype=object),
                "n_users": b["n_users"].to_numpy(np.int64),
            }
        )

    return totals.map_batches(finish, batch_format="pandas").sort("stage_ix")


def funnel_sql(stages: tuple[str, ...] = FUNNEL_STAGES) -> str:
    """Oracle: the identical min-epoch-µs chain, one CTE per stage."""
    ctes = [
        f"""s0 AS (
  SELECT user_id, MIN(CAST(epoch_us(ts) AS BIGINT)) AS t
  FROM events WHERE event_type = '{stages[0]}' GROUP BY user_id
)"""
    ]
    for k, s in enumerate(stages[1:], start=1):
        ctes.append(
            f"""s{k} AS (
  SELECT e.user_id, MIN(CAST(epoch_us(e.ts) AS BIGINT)) AS t
  FROM events e JOIN s{k - 1} p ON p.user_id = e.user_id
  WHERE e.event_type = '{s}' AND CAST(epoch_us(e.ts) AS BIGINT) > p.t
  GROUP BY e.user_id
)"""
        )
    selects = [
        f"SELECT CAST({k} AS BIGINT) AS stage_ix, '{s}' AS stage, "
        f"(SELECT CAST(COUNT(*) AS BIGINT) FROM s{k}) AS n_users"
        for k, s in enumerate(stages)
    ]
    return "WITH " + ",\n".join(ctes) + "\n" + "\nUNION ALL\n".join(selects)


FUNNEL_SQL = funnel_sql()


def retention_cohorts(sf_dir: str) -> ray.data.Dataset:
    """Classic retention matrix: cohort = a user's first active day
    (integer days since epoch — timestamps are positive so floor
    division agrees between numpy and SQL), day_offset = active day −
    cohort day, n_users = distinct users active at that offset.
    Output ``(cohort_day, day_offset, n_users)``.

    Scale shape: per-batch (user, day) dedup partials → one exchange
    keyed by user_id for the first-day min → adaptive join of the
    (user, day) activity set against the per-user cohort → distinct
    (user, cohort, offset) → per-batch count partials folded by a
    cohort×offset-bounded ``grouped_sum``."""
    from pdf_extractor_ray.joins import adaptive_inner_join
    from pdf_extractor_ray.ops import distinct, grouped_agg, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def days(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        out = pd.DataFrame(
            {"user_id": b["user_id"].to_numpy(np.int64), "day": us // _DAY_US}
        )
        return out.drop_duplicates()

    activity = distinct(
        ds.map_batches(days, batch_format="pandas"), ["user_id", "day"]
    ).materialize()
    first = grouped_agg(activity, ["user_id"], {"d0": ("day", "min")})
    j = adaptive_inner_join(activity, first, on="user_id")

    def offs(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cohort_day": b["d0"].to_numpy(np.int64),
                "day_offset": b["day"].to_numpy(np.int64) - b["d0"].to_numpy(np.int64),
                "one": np.ones(len(b), np.int64),
            }
        )

    counted = grouped_sum(
        j.map_batches(offs, batch_format="pandas"), ["cohort_day", "day_offset"], ["one"]
    )
    return counted.map_batches(
        lambda b: b.rename(columns={"one": "n_users"}), batch_format="pandas"
    )


RETENTION_SQL = """
WITH a AS (
    SELECT DISTINCT user_id, CAST(epoch_us(ts) AS BIGINT) // 86400000000 AS day
    FROM events
),
f AS (SELECT user_id, MIN(day) AS d0 FROM a GROUP BY user_id)
SELECT f.d0 AS cohort_day,
       a.day - f.d0 AS day_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM a JOIN f ON f.user_id = a.user_id
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Event-type transition counts (behavioral Markov matrix)
# ---------------------------------------------------------------------------


def event_type_transitions(sf_dir: str) -> ray.data.Dataset:
    """First-order transition counts between CONSECUTIVE events of the
    same user: ``(from_type, to_type, n)`` — the Markov matrix behind
    session-sequence mining and next-event models (and the event-log
    analog of the token-bigram table). Ordering is (ts, event_id), the
    sessionize tie-break.

    Scale shape: one bucketed exchange on user_id (``grouped_apply`` —
    each user's history lands whole in one bucket, the property the
    shift trick needs); pairs collapse to per-bucket partial counts
    BEFORE the second tiny exchange keyed (from_type, to_type), whose
    key space is |event types|²."""
    from pdf_extractor_ray.ops import grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        same_user = uid[1:] == uid[:-1]
        pairs = pd.DataFrame(
            {
                "from_type": et[:-1][same_user],
                "to_type": et[1:][same_user],
                "n": np.ones(int(same_user.sum()), np.int64),
            }
        )
        return pairs.groupby(["from_type", "to_type"], as_index=False, sort=False).sum()

    partials = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)
    return grouped_sum(partials, ["from_type", "to_type"], ["n"])


EVENT_TRANSITIONS_SQL = """
WITH d AS (
    SELECT user_id, event_type,
           lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_type
    FROM events
)
SELECT prev_type AS from_type, event_type AS to_type, CAST(COUNT(*) AS BIGINT) AS n
FROM d WHERE prev_type IS NOT NULL
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Daily active users (the canonical engagement distinct-count)
# ---------------------------------------------------------------------------


def events_daily_active_users(sf_dir: str) -> "ray.data.Dataset":
    """Exact DAU: distinct users per calendar day — ``(day, dau)``.
    The canonical engagement metric, and the exact twin of the HLL
    approx-distinct family: per-batch (day, user) dedup partials →
    ONE distinct exchange → per-day count fold (the distinct count's
    exchange carries unique pairs, never raw events)."""
    import os

    import numpy as np
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.ops import distinct, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        day = pd.to_datetime(b["ts"]).dt.strftime("%Y-%m-%d")
        out = pd.DataFrame(
            {"day": day.astype(object), "user_id": b["user_id"].to_numpy(np.int64)}
        )
        return out.drop_duplicates()

    pairs = distinct(ds.map_batches(keyed, batch_format="pandas"), ["day", "user_id"])

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"day": b["day"].astype(object), "dau": np.ones(len(b), np.int64)}
        )

    return grouped_sum(pairs.map_batches(ones, batch_format="pandas"), ["day"], ["dau"])


EVENTS_DAU_SQL = """
SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
       CAST(COUNT(DISTINCT user_id) AS BIGINT) AS dau
FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Day-over-day event delta (LAG on an aggregated series)
# ---------------------------------------------------------------------------


def events_daily_delta(sf_dir: str) -> "ray.data.Dataset":
    """Day-over-day event-count change: per-day totals with
    ``delta_milli = 1000·(cur − prev) // prev`` against the previous
    calendar day present in the data (LAG-over-aggregate; first day
    NULL) — the reporting shape every ops dashboard computes. Exact
    integer milli (DuckDB ``//`` truncates toward zero vs Python
    floor, so the numerator is cross-signed carefully: compute on
    ``1000·cur // prev − 1000`` which keeps the numerator
    NON-NEGATIVE — cur ≥ 0, prev > 0 — and the two floors agree).

    Scale shape: the day fold is one bucketed count exchange; the LAG
    runs on the DAY-BOUNDED aggregate (365 rows/year) — never on raw
    events."""
    import os

    import numpy as np
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "day": pd.to_datetime(b["ts"]).dt.strftime("%Y-%m-%d").astype(object),
                "n_events": np.ones(len(b), np.int64),
            }
        )

    daily = (
        grouped_sum(ds.map_batches(keyed, batch_format="pandas"), ["day"], ["n_events"])
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )  # day-bounded
    cur = daily["n_events"].to_numpy(np.int64)
    prev = np.roll(cur, 1)
    delta = (1000 * cur) // np.where(prev > 0, prev, 1) - 1000
    out = daily.copy()
    out["delta_milli"] = delta.astype(np.int64)
    # the first day has no predecessor: excluded (a NULL would also be
    # dtype-unstable across the oracle boundary — DuckDB returns
    # nullable BIGINT as float64)
    out = out.iloc[1:].reset_index(drop=True)
    return ray.data.from_pandas(out)


EVENTS_DAILY_DELTA_SQL = """
WITH d AS (
  SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
         CAST(COUNT(*) AS BIGINT) AS n_events
  FROM events GROUP BY 1
)
SELECT day, n_events,
       CAST((1000 * n_events) // lag(n_events) OVER (ORDER BY day) - 1000 AS BIGINT)
           AS delta_milli
FROM d
QUALIFY lag(n_events) OVER (ORDER BY day) IS NOT NULL
"""


def events_running_total(sf_dir: str) -> ray.data.Dataset:
    """Per-user running totals over the event stream: every event row
    with its cumulative cents value and per-user sequence number under
    the canonical ordering ``(ts, event_id)`` — the windowed-state
    primitive (SQL ``SUM() OVER (PARTITION BY … ORDER BY … ROWS
    UNBOUNDED PRECEDING)``) that budget caps / rate limits / LTV
    accumulators build on, and the prefix-sum complement to
    ``sessionize``'s gap logic.

    Scale shape: ONE bucketed exchange on user_id (``grouped_apply``,
    hash buckets — no global sort); the per-bucket pass is a single
    vectorized cumsum with per-user base subtraction, identical shape
    to ``sessionize``. Cents (int64) so the running sum is exact and
    order-proof under the deterministic ordering."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "value", "event_id"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        cents = cents_np(g["value"])
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        first_of_user = np.where(new_user)[0]
        runlens = np.diff(np.append(first_of_user, len(g)))
        cs = np.cumsum(cents)
        base = np.repeat(cs[first_of_user] - cents[first_of_user], runlens)
        seq = np.arange(len(g), dtype=np.int64) - np.repeat(first_of_user, runlens) + 1
        return pd.DataFrame(
            {
                "user_id": uid,
                "event_id": g["event_id"].to_numpy(np.int64),
                "ts_str": pd.Series(g["ts"].dt.strftime("%Y-%m-%d %H:%M:%S.%f").to_numpy()),
                "cum_value_cents": cs - base,
                "user_seq": seq,
            }
        )

    return grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)


EVENTS_RUNNING_TOTAL_SQL = """
SELECT user_id, event_id,
       strftime(ts, '%Y-%m-%d %H:%M:%S.%f') AS ts_str,
       CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT))
              OVER (PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_value_cents,
       CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS user_seq
FROM events
"""


def events_interarrival_stats(sf_dir: str) -> "ray.data.Dataset":
    """Inter-arrival gap statistics per event type: for each pair of
    CONSECUTIVE events of the same user (ordered by ``(ts, event_id)``),
    the gap is attributed to the LATER event's type →
    ``(event_type, n_gaps, total_gap_ms, max_gap_ms, avg_gap_ms)``.
    The per-user diff is vectorized over one user_id-bucketed exchange
    (the sessionize shape); the fold-down exchange then carries only
    per-bucket × per-type partials (≤ buckets × types rows). Integer
    milliseconds end to end; ``avg = total // n`` (non-negative, so
    Python ``//`` ≡ DuckDB ``//``)."""
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        uid = g["user_id"].to_numpy()
        ts_ns = g["ts"].to_numpy("datetime64[ns]").astype(np.int64)
        same = uid[1:] == uid[:-1]
        gap_ms = (ts_ns[1:] - ts_ns[:-1]) // 1_000_000
        part = pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy(object)[1:][same],
                "n_gaps": np.ones(int(same.sum()), dtype=np.int64),
                "total_gap_ms": gap_ms[same],
                "max_gap_ms": gap_ms[same],
            }
        )
        out = part.groupby("event_type", as_index=False).agg(
            n_gaps=("n_gaps", "sum"),
            total_gap_ms=("total_gap_ms", "sum"),
            max_gap_ms=("max_gap_ms", "max"),
        )
        return out.astype(
            {"n_gaps": "int64", "total_gap_ms": "int64", "max_gap_ms": "int64"}
        )

    partials = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("event_type", as_index=False).agg(
            n_gaps=("n_gaps", "sum"),
            total_gap_ms=("total_gap_ms", "sum"),
            max_gap_ms=("max_gap_ms", "max"),
        )
        out["avg_gap_ms"] = out["total_gap_ms"] // out["n_gaps"]
        return out.astype(
            {
                "n_gaps": "int64",
                "total_gap_ms": "int64",
                "max_gap_ms": "int64",
                "avg_gap_ms": "int64",
            }
        )

    return grouped_apply(partials, ["event_type"], fold, num_buckets=2)


EVENTS_INTERARRIVAL_SQL = """
WITH d AS (
    SELECT event_type,
           (epoch_us(ts) - epoch_us(lag(ts) OVER (
                PARTITION BY user_id ORDER BY ts, event_id))) // 1000 AS gap_ms
    FROM events
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(SUM(gap_ms) AS BIGINT) AS total_gap_ms,
       CAST(MAX(gap_ms) AS BIGINT) AS max_gap_ms,
       CAST(SUM(gap_ms) // COUNT(*) AS BIGINT) AS avg_gap_ms
FROM d WHERE gap_ms IS NOT NULL GROUP BY event_type
"""


STICKY_WINDOW_DAYS = 7


def events_stickiness(sf_dir: str) -> "ray.data.Dataset":
    """DAU/WAU stickiness per day: ``(day, dau, wau,
    stickiness_permille)`` where WAU counts distinct users over the
    trailing 7 days (inclusive) and stickiness = 1000·DAU//WAU. The
    windowed distinct is the replicate-to-window trick: each distinct
    (day, user) pair is exploded to the 7 target days it can serve
    (vectorized np.repeat), then ONE distinct exchange + per-day count
    — the exchange carries unique pairs × 7, never raw events. Only
    days that themselves have events are reported (inner join with
    DAU)."""
    from pdf_extractor_ray.joins import adaptive_inner_join
    from pdf_extractor_ray.ops import distinct, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def keyed(b: pd.DataFrame) -> pd.DataFrame:
        day_i = b["ts"].to_numpy("datetime64[ns]").astype(np.int64) // (86_400 * 10**9)
        return pd.DataFrame(
            {"day_i": day_i, "user_id": b["user_id"].to_numpy(np.int64)}
        ).drop_duplicates()

    pairs = distinct(ds.map_batches(keyed, batch_format="pandas"), ["day_i", "user_id"])

    def ones(col: str):
        def fn(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "day_i": b["day_i"].to_numpy(np.int64),
                    col: np.ones(len(b), np.int64),
                }
            )

        return fn

    dau = grouped_sum(pairs.map_batches(ones("dau"), batch_format="pandas"), ["day_i"], ["dau"])

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        w = STICKY_WINDOW_DAYS
        day = np.repeat(b["day_i"].to_numpy(np.int64), w)
        off = np.tile(np.arange(w, dtype=np.int64), len(b))
        return pd.DataFrame(
            {"day_i": day + off, "user_id": np.repeat(b["user_id"].to_numpy(np.int64), w)}
        )

    wau_pairs = distinct(
        pairs.map_batches(explode, batch_format="pandas"), ["day_i", "user_id"]
    )
    wau = grouped_sum(
        wau_pairs.map_batches(ones("wau"), batch_format="pandas"), ["day_i"], ["wau"]
    )

    out = adaptive_inner_join(dau, wau, on="day_i")

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        day = pd.to_datetime(b["day_i"].to_numpy(np.int64) * 86_400, unit="s")
        return pd.DataFrame(
            {
                "day": day.strftime("%Y-%m-%d"),
                "dau": b["dau"].to_numpy(np.int64),
                "wau": b["wau"].to_numpy(np.int64),
                "stickiness_permille": b["dau"].to_numpy(np.int64) * 1000 // b["wau"].to_numpy(np.int64),
            }
        )

    return out.map_batches(finalize, batch_format="pandas")


EVENTS_STICKINESS_SQL = f"""
WITH pairs AS (
    SELECT DISTINCT CAST(epoch_us(date_trunc('day', ts)) // 86400000000 AS BIGINT) AS day_i,
           user_id
    FROM events
), dau AS (
    SELECT day_i, CAST(COUNT(*) AS BIGINT) AS dau FROM pairs GROUP BY day_i
), wau AS (
    SELECT d.day_i, CAST(COUNT(DISTINCT p.user_id) AS BIGINT) AS wau
    FROM (SELECT DISTINCT day_i FROM pairs) d
    JOIN pairs p ON p.day_i BETWEEN d.day_i - {STICKY_WINDOW_DAYS - 1} AND d.day_i
    GROUP BY d.day_i
)
SELECT strftime(make_timestamp(d.day_i * 86400000000), '%Y-%m-%d') AS day,
       d.dau, w.wau,
       CAST(d.dau * 1000 // w.wau AS BIGINT) AS stickiness_permille
FROM dau d JOIN wau w USING (day_i)
"""


def first_touch_attribution(sf_dir: str) -> "ray.data.Dataset":
    """First-touch acquisition matrix: group users by their FIRST
    event's type (order ``(ts, event_id)``) and report how many went
    on to purchase → ``(first_event_type, n_users, n_purchasers,
    conversion_permille)``. One user_id-bucketed exchange computes
    both the per-user first event and the purchase flag in a single
    vectorized pass; the fold-down exchange carries ≤ buckets × types
    rows. ``conversion_permille = 1000·p // u`` (non-negative ints,
    Python ``//`` ≡ DuckDB ``//``)."""
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        firsts = g.groupby("user_id", sort=False).agg(
            first_event_type=("event_type", "first")
        )
        purch = g.groupby("user_id", sort=False)["event_type"].agg(
            lambda s: bool((s == "purchase").any())
        )
        per_user = firsts.assign(purchased=purch.astype(np.int64)).reset_index()
        out = per_user.groupby("first_event_type", as_index=False).agg(
            n_users=("user_id", "size"), n_purchasers=("purchased", "sum")
        )
        return out.astype({"n_users": "int64", "n_purchasers": "int64"})

    partials = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("first_event_type", as_index=False).agg(
            n_users=("n_users", "sum"), n_purchasers=("n_purchasers", "sum")
        )
        out["conversion_permille"] = out["n_purchasers"] * 1000 // out["n_users"]
        return out.astype(
            {"n_users": "int64", "n_purchasers": "int64", "conversion_permille": "int64"}
        )

    return grouped_apply(partials, ["first_event_type"], fold, num_buckets=2)


FIRST_TOUCH_SQL = """
WITH r AS (
    SELECT user_id, event_type,
           ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
           MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id) AS purchased
    FROM events
)
SELECT event_type AS first_event_type,
       CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(purchased) AS BIGINT) AS n_purchasers,
       CAST(SUM(purchased) * 1000 // COUNT(*) AS BIGINT) AS conversion_permille
FROM r WHERE rn = 1 GROUP BY event_type
"""


def gini_user_activity(sf_dir: str) -> "pd.DataFrame":
    """Exact Gini coefficient of per-user event activity → one row
    ``(n_users, total_events, gini_permille)`` — the inequality screen
    a crawl/event corpus runs to quantify how concentrated traffic is
    in power users (Gini 0 = uniform, 1000‰ = one user owns it all).

    Exactness: with per-user counts x sorted ascending and 1-based
    rank i, G = (2·Σi·x_i − (n+1)·Σx) / (n·Σx); permille via Python
    big-int cross-multiplication, no division until the final ``//``.
    Ties need no ordering rule — equal x values commute in Σi·x_i.

    Scale shape: one exchange builds per-user counts, a second folds
    them to COUNT-OF-COUNTS (multiplicity m per activity level c); only
    that table — bounded by the number of DISTINCT activity levels,
    ≤ max events per user, never user-count-sized — reaches the driver,
    where contiguous rank-range arithmetic (a block of m users with
    count c after lo users contributes c·(m·lo + m(m+1)/2)) replaces
    the global sort."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"], "n": np.ones(len(b), np.int64)})

    per_user = grouped_sum(
        ds.map_batches(ones, batch_format="pandas", batch_size=65536),
        ["user_id"],
        ["n"],
    )

    def count_of_counts(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("n", as_index=False).agg(m=("user_id", "size"))
        return g.rename(columns={"n": "c"}).astype({"c": "int64", "m": "int64"})

    coc = grouped_sum(
        per_user.map_batches(count_of_counts, batch_format="pandas"),
        ["c"],
        ["m"],
        num_buckets=2,
    ).to_pandas()

    coc = coc.sort_values("c").reset_index(drop=True)
    lo = 0
    s1 = 0  # Σ i·x_i over users sorted ascending, exact big-int
    total = 0
    for c, m in zip(coc["c"].tolist(), coc["m"].tolist()):
        c, m = int(c), int(m)
        s1 += c * (m * lo + m * (m + 1) // 2)
        total += c * m
        lo += m
    n = lo
    gini = (2000 * s1 - 1000 * (n + 1) * total) // (n * total) if n and total else 0
    return pd.DataFrame(
        {
            "n_users": pd.Series([n], dtype="int64"),
            "total_events": pd.Series([total], dtype="int64"),
            "gini_permille": pd.Series([gini], dtype="int64"),
        }
    )


GINI_SQL = """
WITH pc AS (SELECT user_id, COUNT(*) AS c FROM events GROUP BY user_id),
r AS (SELECT c, ROW_NUMBER() OVER (ORDER BY c) AS i FROM pc)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(c) AS BIGINT) AS total_events,
       CAST((2000 * SUM(i * c) - 1000 * (COUNT(*) + 1) * SUM(c))
            // (COUNT(*) * SUM(c)) AS BIGINT) AS gini_permille
FROM r
"""


def rfm_segments(sf_dir: str) -> "ray.data.Dataset":
    """RFM (recency / frequency / monetary) user segmentation over
    events → ``(segment, n_users, total_value_cents)`` with
    ``segment = 100·r + 10·f + m`` from fixed integer bucket edges
    (recency hours since the global max ts: <12→2, <24→1, else 0;
    frequency: ≥70→2, ≥60→1, else 0; monetary cents: ≥350000→2,
    ≥300000→1, else 0) — the classic marketing/engagement matrix,
    kept exact-integer so the oracle is pure arithmetic.

    Scale shape: pass 1 is a scalar global-max-ts aggregate (driver
    gets ONE value, closed over by pass 2 — the broadcast-a-scalar
    pattern); pass 2 builds per-user (count, cents, last_ts) in one
    exchange; the segment fold moves ≤27 rows per bucket."""
    from pdf_extractor_ray.functions.exact import cents_np
    from pdf_extractor_ray.ops import grouped_agg, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts", "value"]
    )
    gmax_us = int(pd.Timestamp(ds.max("ts")).value // 1000)

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": b["user_id"],
                "n": np.ones(len(b), np.int64),
                "cents": cents_np(b["value"]),
                # normalize to datetime64[us] first: parquet loads as
                # us-unit, but .astype(int64) semantics follow the
                # column's unit, so pin it explicitly
                "ts_us": b["ts"].to_numpy("datetime64[us]").astype(np.int64),
            }
        )

    per_user = grouped_agg(
        ds.map_batches(derive, batch_format="pandas", batch_size=65536),
        ["user_id"],
        {"n": ("n", "sum"), "cents": ("cents", "sum"), "last_us": ("ts_us", "max")},
    )

    def segment(b: pd.DataFrame) -> pd.DataFrame:
        hours = (gmax_us - b["last_us"].to_numpy(np.int64)) // 3_600_000_000
        r = np.where(hours < 12, 2, np.where(hours < 24, 1, 0))
        n = b["n"].to_numpy(np.int64)
        f = np.where(n >= 70, 2, np.where(n >= 60, 1, 0))
        cents = b["cents"].to_numpy(np.int64)
        m = np.where(cents >= 350_000, 2, np.where(cents >= 300_000, 1, 0))
        return pd.DataFrame(
            {
                "segment": (100 * r + 10 * f + m).astype(np.int64),
                "n_users": np.ones(len(b), np.int64),
                "total_value_cents": cents,
            }
        )

    return grouped_sum(
        per_user.map_batches(segment, batch_format="pandas"),
        ["segment"],
        ["n_users", "total_value_cents"],
        num_buckets=2,
    )


RFM_SQL = """
WITH m AS (SELECT MAX(ts) AS gmax FROM events),
u AS (
  SELECT user_id, COUNT(*) AS n,
         SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS cents,
         MAX(ts) AS last_ts
  FROM events GROUP BY user_id
),
s AS (
  SELECT (CASE WHEN (epoch_us(m.gmax) - epoch_us(u.last_ts)) // 3600000000 < 12 THEN 2
               WHEN (epoch_us(m.gmax) - epoch_us(u.last_ts)) // 3600000000 < 24 THEN 1
               ELSE 0 END) * 100
       + (CASE WHEN u.n >= 70 THEN 2 WHEN u.n >= 60 THEN 1 ELSE 0 END) * 10
       + (CASE WHEN u.cents >= 350000 THEN 2 WHEN u.cents >= 300000 THEN 1 ELSE 0 END)
         AS segment,
         u.cents
  FROM u, m
)
SELECT CAST(segment AS BIGINT) AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(cents) AS BIGINT) AS total_value_cents
FROM s GROUP BY segment
"""


def power_law_alpha(sf_dir: str) -> "pd.DataFrame":
    """Discrete power-law MLE (Hill/Clauset estimator) over per-user
    event counts → one row ``(n_users, x_min, alpha_milli)`` with
    ``alpha = 1 + n / Σ ln(x_i / x_min)`` — the heavy-tail fit a crawl
    or event corpus runs next to :func:`gini_user_activity` (Gini says
    HOW concentrated, alpha says WHAT tail law; alpha ≤ 2000 milli
    means an infinite-mean tail where per-user quotas are mandatory).

    Exactness: each ``ln(x_i/x_min)`` is quantized to int64 micro-nats
    with the shared ``floor(ln·1e6 + 0.5)`` quantizer (one IEEE int/int
    divide + one libm ln, identical in numpy and DuckDB), summed
    exactly, then ``alpha_milli = 1000 + (1000·n·10⁶) // S``; all-equal
    counts (S = 0, degenerate fit) report 0.

    Scale shape: one exchange builds per-user counts; ``x_min`` is a
    scalar aggregate over that (the broadcast-a-scalar pattern); the
    micro-nat sum is a second scalar aggregate. Nothing user-count-
    sized reaches the driver."""
    import math

    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id"]
    )

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"], "n": np.ones(len(b), np.int64)})

    per_user = grouped_sum(
        ds.map_batches(ones, batch_format="pandas", batch_size=65536),
        ["user_id"],
        ["n"],
    ).materialize()
    n_users = per_user.count()
    x_min = int(per_user.min("n"))

    def quantize(b: pd.DataFrame) -> pd.DataFrame:
        x = b["n"].to_numpy(np.int64)
        lg = [math.floor(math.log(int(v) / x_min) * 1e6 + 0.5) for v in x]
        return pd.DataFrame({"s_micro": pd.Series(lg, dtype="int64")})

    s_micro = int(per_user.map_batches(quantize, batch_format="pandas").sum("s_micro"))
    alpha = 1000 + (1000 * n_users * 1_000_000) // s_micro if s_micro else 0
    return pd.DataFrame(
        {
            "n_users": pd.Series([n_users], dtype="int64"),
            "x_min": pd.Series([x_min], dtype="int64"),
            "alpha_milli": pd.Series([alpha], dtype="int64"),
        }
    )


POWER_LAW_SQL = """
WITH pc AS (SELECT user_id, COUNT(*) AS c FROM events GROUP BY user_id),
mn AS (SELECT MIN(c) AS x_min FROM pc),
q AS (
  SELECT CAST(floor(ln(pc.c / CAST(mn.x_min AS DOUBLE)) * 1000000 + 0.5)
              AS BIGINT) AS s
  FROM pc, mn
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       (SELECT CAST(x_min AS BIGINT) FROM mn) AS x_min,
       CAST(CASE WHEN SUM(s) = 0 THEN 0
                 ELSE 1000 + (1000 * COUNT(*) * 1000000) // SUM(s) END
            AS BIGINT) AS alpha_milli
FROM q
"""


def events_anomaly_days(sf_dir: str) -> "ray.data.Dataset":
    """Daily-volume anomaly screen → ``(day, n_events, median_daily,
    anomaly)`` where ``anomaly`` flags days whose event count is more
    than 2× the corpus-wide median daily count ('high': traffic spike
    / bot flood) or under half of it ('low': collection outage) —
    integer cross-multiplied comparisons (``n > 2·med``, ``2·n <
    med``), no division, with the LOWER median (rank ``(n_days+1)//2``)
    so the reference point is itself exact.

    Scale shape: one exchange folds events to daily counts; the median
    is computed from that table, which is CALENDAR-bounded (days, not
    events — a decade is ~3.7k rows), the same bounded-domain argument
    as the count-of-counts Gini."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {"day_i": us // 86_400_000_000, "n_events": np.ones(len(b), np.int64)}
        )

    daily = grouped_sum(
        ds.map_batches(derive, batch_format="pandas", batch_size=65536),
        ["day_i"],
        ["n_events"],
        num_buckets=2,
    ).to_pandas()  # calendar-bounded collect
    daily = daily.sort_values("day_i").reset_index(drop=True)
    c = np.sort(daily["n_events"].to_numpy(np.int64))
    med = int(c[(len(c) + 1) // 2 - 1])
    n = daily["n_events"].to_numpy(np.int64)
    anomaly = np.where(n > 2 * med, "high", np.where(2 * n < med, "low", "normal"))
    return pd.DataFrame(
        {
            "day": pd.to_datetime(daily["day_i"] * 86_400_000_000, unit="us").dt.strftime(
                "%Y-%m-%d"
            ),
            "n_events": n,
            "median_daily": np.full(len(n), med, np.int64),
            "anomaly": pd.Series(anomaly, dtype="object"),
        }
    )


EVENTS_ANOMALY_SQL = """
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day_i, COUNT(*) AS n_events
  FROM events GROUP BY 1
),
m AS (
  SELECT n_events AS med FROM
    (SELECT n_events, ROW_NUMBER() OVER (ORDER BY n_events) AS rn,
            COUNT(*) OVER () AS n FROM d)
  WHERE rn = (n + 1) // 2
)
SELECT strftime(make_timestamp(day_i * 86400000000), '%Y-%m-%d') AS day,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(m.med AS BIGINT) AS median_daily,
       CASE WHEN n_events > 2 * m.med THEN 'high'
            WHEN 2 * n_events < m.med THEN 'low'
            ELSE 'normal' END AS anomaly
FROM d, m
"""


def event_type_affinity(sf_dir: str) -> "ray.data.Dataset":
    """Bipartite co-engagement projection: project the user ↔
    event-type bipartite graph onto event types → ``(type_a, type_b,
    n_users_both)`` for every unordered type pair at least one user
    shares — the feature-affinity matrix (which behaviors co-occur in
    the same accounts) behind recommendation priors and funnel design.

    Scale shape: one exchange dedups (user, type); the per-user pair
    fan-out is |types|² — bounded by the type VOCABULARY, not by user
    activity (a power user with a million events still contributes ≤
    C(|types|, 2) pairs because dedup precedes the explode); one final
    exchange folds pair counts."""
    from pdf_extractor_ray.ops import distinct, grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )
    ut = distinct(ds, ["user_id", "event_type"])

    def pairs_per_user(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("user_id", sort=False):
            types = sorted(grp["event_type"].tolist())
            for i in range(len(types)):
                for j in range(i + 1, len(types)):
                    outs.append((types[i], types[j]))
        out = pd.DataFrame(outs, columns=["type_a", "type_b"])
        out["n_users_both"] = np.int64(1)
        return out

    pairs = grouped_apply(ut, ["user_id"], pairs_per_user)
    return grouped_sum(pairs, ["type_a", "type_b"], ["n_users_both"], num_buckets=2)


EVENT_TYPE_AFFINITY_SQL = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events)
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n_users_both
FROM ut a JOIN ut b ON a.user_id = b.user_id AND a.event_type < b.event_type
GROUP BY 1, 2
"""


def conversion_time_median(sf_dir: str) -> "pd.DataFrame":
    """Exact (lower-)median seconds from a user's FIRST 'view' to their
    FIRST 'purchase' → one row ``(n_converters, median_delta_s)``,
    converters being users whose first purchase is at or after their
    first view — the time-to-convert headline metric next to the funnel
    counts.

    Scale shape: one exchange builds per-user (first view, first
    purchase); the median over the per-converter deltas — whose value
    domain is unbounded, unlike the count-of-counts cases — uses
    :func:`~pdf_extractor_ray.ops.exact_kth_smallest`, the
    histogram-guided distributed quickselect (nbins-bounded driver
    collects, no global sort)."""
    from pdf_extractor_ray.ops import exact_kth_smallest, grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        g = g.assign(ts_us=us)
        rows = []
        for uid, grp in g.groupby("user_id", sort=False):
            views = grp.loc[grp["event_type"] == "view", "ts_us"]
            purch = grp.loc[grp["event_type"] == "purchase", "ts_us"]
            if len(views) and len(purch):
                v, p = int(views.min()), int(purch.min())
                if p >= v:
                    rows.append((p - v) // 1_000_000)
        return pd.DataFrame({"delta_s": pd.Series(rows, dtype="int64")})

    deltas = grouped_apply(ds, ["user_id"], per_user, num_buckets=16).materialize()
    n = deltas.count()
    if n == 0:
        return pd.DataFrame(
            {
                "n_converters": pd.Series([0], dtype="int64"),
                "median_delta_s": pd.Series([0], dtype="int64"),
            }
        )
    (med,) = exact_kth_smallest(deltas, "delta_s", [(n + 1) // 2])
    return pd.DataFrame(
        {
            "n_converters": pd.Series([n], dtype="int64"),
            "median_delta_s": pd.Series([med], dtype="int64"),
        }
    )


CONVERSION_TIME_SQL = """
WITH pu AS (
  SELECT user_id,
         MIN(CASE WHEN event_type = 'view' THEN ts END) AS v_ts,
         MIN(CASE WHEN event_type = 'purchase' THEN ts END) AS p_ts
  FROM events GROUP BY user_id
),
c AS (
  SELECT (epoch_us(p_ts) - epoch_us(v_ts)) // 1000000 AS delta_s
  FROM pu WHERE v_ts IS NOT NULL AND p_ts IS NOT NULL AND p_ts >= v_ts
),
r AS (
  SELECT delta_s, ROW_NUMBER() OVER (ORDER BY delta_s) AS rn,
         COUNT(*) OVER () AS n
  FROM c
)
SELECT CAST(n AS BIGINT) AS n_converters, CAST(delta_s AS BIGINT) AS median_delta_s
FROM r WHERE rn = (n + 1) // 2
"""


def bot_regularity_users(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """Bot screen: the ``k`` users with the most REGULAR event timing →
    ``(user_id, n_deltas, iv_vmr_milli)`` ordered by ascending
    variance-to-mean ratio of consecutive inter-arrival seconds (ties
    on user_id) — humans are bursty (VMR ≫ 0), schedulers and scrapers
    tick (VMR ≈ 0), the timing analog of the Church-Gale token
    burstiness screen. Users with fewer than 2 gaps or an all-zero gap
    sum (sub-second bursts) are excluded, matching the oracle's WHERE.

    ``iv_vmr_milli = 1000·(n·S2 − S²) // (n·S)`` over per-user deltas
    (order ``(ts, event_id)``), all integer. One user-bucketed
    exchange; the top-k sorts the per-user table."""
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id"],
    )

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        us = g["ts"].to_numpy("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy(np.int64)
        rows = []
        start = 0
        for i in range(1, len(g) + 1):
            if i == len(g) or uid[i] != uid[start]:
                d = np.diff(us[start:i]) // 1_000_000
                if len(d) >= 2:
                    s, s2 = int(d.sum()), int((d.astype(object) ** 2).sum())
                    if s > 0:
                        n = len(d)
                        rows.append((int(uid[start]), n, (1000 * (n * s2 - s * s)) // (n * s)))
                start = i
        return pd.DataFrame(rows, columns=["user_id", "n_deltas", "iv_vmr_milli"]).astype(
            "int64"
        )

    per = grouped_apply(ds, ["user_id"], per_user, num_buckets=16)
    return per.sort(["iv_vmr_milli", "user_id"], descending=[False, False]).limit(k)


BOT_REGULARITY_SQL = """
WITH d AS (
  SELECT user_id,
         (epoch_us(ts) - epoch_us(lag(ts) OVER w)) // 1000000 AS delta_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
a AS (
  SELECT user_id, COUNT(*) AS n, SUM(delta_s) AS s, SUM(delta_s * delta_s) AS s2
  FROM d WHERE delta_s IS NOT NULL GROUP BY user_id
)
SELECT user_id, CAST(n AS BIGINT) AS n_deltas,
       CAST((1000 * (n * s2 - s * s)) // (n * s) AS BIGINT) AS iv_vmr_milli
FROM a WHERE n >= 2 AND s > 0
ORDER BY iv_vmr_milli, user_id LIMIT 20
"""


LOCF_NULL_MOD = 5


def locf_impute_events(sf_dir: str) -> "ray.data.Dataset":
    """Last-observation-carried-forward imputation over a (derived)
    events stream where every ``event_id % 5 == 0`` value is nulled —
    the sensor-gap/telemetry-dropout repair — filling each null from
    the user's most recent non-null value in ``(ts, event_id)`` order →
    per user ``(user_id, n_imputed, sum_cents_after)`` where leading
    nulls (no prior observation) stay null and are excluded from the
    sum but counted separately: ``n_imputed`` counts FILLED nulls only.

    Scale shape: one user-bucketed exchange; the forward fill is a
    vectorized per-bucket pass (pandas ffill within user groups), the
    same ordered-per-key discipline as sessionize."""
    from pdf_extractor_ray.functions.exact import cents_np
    from pdf_extractor_ray.ops import grouped_apply

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "value"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"]).copy()
        cents = cents_np(g["value"]).astype("float64")
        nulled = (g["event_id"].to_numpy(np.int64) % LOCF_NULL_MOD) == 0
        cents[nulled] = np.nan
        g["cents"] = cents
        filled = g.groupby("user_id", sort=False)["cents"].ffill()
        out_rows = []
        for uid, grp_ix in g.groupby("user_id", sort=False).groups.items():
            f = filled.loc[grp_ix]
            was_null = pd.isna(g.loc[grp_ix, "cents"])
            n_imputed = int((was_null & f.notna()).sum())
            s = int(f.dropna().astype("int64").sum())
            out_rows.append((int(uid), n_imputed, s))
        return pd.DataFrame(
            out_rows, columns=["user_id", "n_imputed", "sum_cents_after"]
        ).astype("int64")

    return grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)


LOCF_SQL = f"""
WITH d AS (
  SELECT user_id, ts, event_id,
         CASE WHEN event_id % {LOCF_NULL_MOD} = 0 THEN NULL
              ELSE CAST(floor(value * 100 + 0.5) AS BIGINT) END AS cents
  FROM events
),
f AS (
  SELECT user_id,
         cents,
         LAST_VALUE(cents IGNORE NULLS) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS filled
  FROM d
)
SELECT user_id,
       CAST(SUM(CASE WHEN cents IS NULL AND filled IS NOT NULL THEN 1 ELSE 0 END)
            AS BIGINT) AS n_imputed,
       CAST(SUM(COALESCE(filled, 0)) AS BIGINT) AS sum_cents_after
FROM f GROUP BY user_id
"""


def user_paths_events(sf_dir: str, k: int = 20, depth: int = 3) -> "ray.data.Dataset":
    """Top-``k`` onboarding paths: each user's first ``depth`` event
    types in ``(ts, event_id)`` order joined with '>' → ``(path,
    n_users)``, ordered by count desc then path — the entry-funnel
    report (which 3-step behavior sequences dominate) behind funnel
    design and bot triage (scrapers share one path). Users with fewer
    than ``depth`` events contribute their full shorter path.

    One user-bucketed exchange + a path-count fold (path vocabulary ≤
    |types|^depth, tiny)."""
    from pdf_extractor_ray.ops import grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_id", "event_type"],
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        heads = g.groupby("user_id", sort=False).head(depth)
        paths = heads.groupby("user_id", sort=False)["event_type"].agg(">".join)
        out = paths.value_counts().reset_index()
        out.columns = ["path", "n_users"]
        return out.astype({"n_users": "int64"})

    partials = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16)
    counts = grouped_sum(partials, ["path"], ["n_users"], num_buckets=2)
    return counts.sort(["n_users", "path"], descending=[True, False]).limit(k)


USER_PATHS_SQL = """
WITH r AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM r WHERE rn <= 3 GROUP BY user_id
)
SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
FROM p GROUP BY path ORDER BY n_users DESC, path LIMIT 20
"""


def trending_event_types(sf_dir: str, k: int = 20) -> "ray.data.Dataset":
    """Hour-over-hour trending screen → the top-``k`` ``(event_type,
    hour_epoch_s, n, prev_n, trend_milli)`` rows by ``trend_milli =
    1000·n // prev_n`` (ties: type, hour), only hours whose PREVIOUS
    hour had traffic for that type — the burst detector a feed/crawl
    monitor runs (a type suddenly 3× its previous hour is a bot wave or
    a breaking story). Integer ratio, no floats.

    Scale shape: one (type, hour) count exchange; the hour-over-hour
    join is per-type WITHIN the fold bucket (type-keyed grouped_apply),
    so no second exchange and no window sort over the fact table."""
    from pdf_extractor_ray.ops import grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "ts"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "hour": (us // 3_600_000_000) * 3600,
                "n": np.ones(len(b), np.int64),
            }
        )

    hourly = grouped_sum(
        ds.map_batches(derive, batch_format="pandas", batch_size=65536),
        ["event_type", "hour"],
        ["n"],
    )

    def lag_join(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, grp in g.groupby("event_type", sort=False):
            grp = grp.sort_values("hour")
            h = grp["hour"].to_numpy(np.int64)
            n = grp["n"].to_numpy(np.int64)
            prev = np.full(len(grp), -1, np.int64)
            # previous CALENDAR hour, not previous row
            prev_map = dict(zip(h, n))
            for i, hh in enumerate(h):
                prev[i] = prev_map.get(hh - 3600, -1)
            m = prev > 0
            outs.append(
                pd.DataFrame(
                    {
                        "event_type": et,
                        "hour_epoch_s": h[m],
                        "n": n[m],
                        "prev_n": prev[m],
                        "trend_milli": 1000 * n[m] // prev[m],
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "hour_epoch_s": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                    "prev_n": pd.Series(dtype="int64"),
                    "trend_milli": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    trends = grouped_apply(hourly, ["event_type"], lag_join, num_buckets=2)
    return trends.sort(
        ["trend_milli", "event_type", "hour_epoch_s"], descending=[True, False, False]
    ).limit(k)


TRENDING_SQL = """
WITH h AS (
  SELECT event_type, (epoch_us(ts) // 3600000000) * 3600 AS hour_epoch_s,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
j AS (
  SELECT cur.event_type, cur.hour_epoch_s, cur.n, prev.n AS prev_n
  FROM h cur JOIN h prev
    ON prev.event_type = cur.event_type
   AND prev.hour_epoch_s = cur.hour_epoch_s - 3600
  WHERE prev.n > 0
)
SELECT event_type, CAST(hour_epoch_s AS BIGINT) AS hour_epoch_s,
       CAST(n AS BIGINT) AS n, CAST(prev_n AS BIGINT) AS prev_n,
       CAST(1000 * n // prev_n AS BIGINT) AS trend_milli
FROM j ORDER BY trend_milli DESC, event_type, hour_epoch_s LIMIT 20
"""


def events_changepoint(sf_dir: str) -> "pd.DataFrame":
    """Single change-point detection on the daily event-count series →
    one row ``(split_day, n_days_left, n_days_right, mean_left_milli,
    mean_right_milli, score)``: the calendar split maximizing the
    CUSUM-style statistic ``score = |n_r·S_l − n_l·S_r|`` (exact
    integer cross-multiplication of the mean difference, scaled by
    n_l·n_r — no division until the reported milli-means), first split
    on ties. The collection-regime-shift detector (crawler rollout,
    outage boundary) behind recrawl scheduling.

    Scale shape: one exchange folds events to the CALENDAR-bounded
    daily table; the split scan is a cumsum sweep over that table on
    the driver — the bounded-domain argument, same as the anomaly
    screen."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {"day_i": us // 86_400_000_000, "n": np.ones(len(b), np.int64)}
        )

    daily = (
        grouped_sum(
            ds.map_batches(derive, batch_format="pandas", batch_size=65536),
            ["day_i"],
            ["n"],
            num_buckets=2,
        )
        .to_pandas()
        .sort_values("day_i")
        .reset_index(drop=True)
    )
    n = daily["n"].to_numpy(np.int64)
    days = daily["day_i"].to_numpy(np.int64)
    total = int(n.sum())
    m = len(n)
    best = None  # (score, split_idx)
    s_l = 0
    for i in range(m - 1):  # split AFTER day i: left = [0..i]
        s_l += int(n[i])
        n_l, n_r = i + 1, m - i - 1
        s_r = total - s_l
        score = abs(n_r * s_l - n_l * s_r)
        if best is None or score > best[0]:
            best = (score, i, n_l, n_r, s_l, s_r)
    score, i, n_l, n_r, s_l, s_r = best
    return pd.DataFrame(
        {
            "split_day": [
                pd.to_datetime(int(days[i]) * 86_400_000_000, unit="us").strftime(
                    "%Y-%m-%d"
                )
            ],
            "n_days_left": pd.Series([n_l], dtype="int64"),
            "n_days_right": pd.Series([n_r], dtype="int64"),
            "mean_left_milli": pd.Series([1000 * s_l // n_l], dtype="int64"),
            "mean_right_milli": pd.Series([1000 * s_r // n_r], dtype="int64"),
            "score": pd.Series([score], dtype="int64"),
        }
    )


EVENTS_CHANGEPOINT_SQL = """
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day_i, COUNT(*) AS n
  FROM events GROUP BY 1
),
o AS (
  SELECT day_i, n,
         SUM(n) OVER (ORDER BY day_i ROWS UNBOUNDED PRECEDING) AS s_l,
         ROW_NUMBER() OVER (ORDER BY day_i) AS i,
         SUM(n) OVER () AS total,
         COUNT(*) OVER () AS m
  FROM d
),
sc AS (
  SELECT day_i, i AS n_l, m - i AS n_r, s_l, total - s_l AS s_r,
         abs((m - i) * s_l - i * (total - s_l)) AS score
  FROM o WHERE i < m
)
SELECT strftime(make_timestamp(day_i * 86400000000), '%Y-%m-%d') AS split_day,
       CAST(n_l AS BIGINT) AS n_days_left, CAST(n_r AS BIGINT) AS n_days_right,
       CAST(1000 * s_l // n_l AS BIGINT) AS mean_left_milli,
       CAST(1000 * s_r // n_r AS BIGINT) AS mean_right_milli,
       CAST(score AS BIGINT) AS score
FROM sc
QUALIFY ROW_NUMBER() OVER (ORDER BY score DESC, day_i) = 1
"""


def conversion_by_activity_decile(sf_dir: str) -> "ray.data.Dataset":
    """Conversion rate stratified by activity decile → ``(decile,
    n_users, n_purchasers, conversion_permille)`` with users ranked by
    event count and cut into deciles by ``decile = 1 + 10·n_less //
    n_users`` (strict-less rank, ties share a decile) — the classic
    product-analytics cut answering "do heavy users convert more?"
    without any model. Integer permille throughout.

    Scale shape: one per-user exchange builds (count, purchased); the
    decile rank function is a COUNT-OF-COUNTS table broadcast once
    (bounded by distinct activity levels, the Gini argument); the fold
    exchange moves ≤ 10 rows per bucket."""
    import ray as _ray

    from pdf_extractor_ray.joins import _cached_get
    from pdf_extractor_ray.ops import grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("user_id", sort=False).agg(
            n=("event_type", "size"),
            purchased=("event_type", lambda s: int((s == "purchase").any())),
        )
        return agg.reset_index().astype({"n": "int64", "purchased": "int64"})

    per_user = grouped_apply(ds, ["user_id"], per_bucket, num_buckets=16).materialize()

    def coc(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("n", as_index=False).agg(m=("user_id", "size"))
        return g.rename(columns={"n": "c"}).astype({"c": "int64", "m": "int64"})

    counts = (
        grouped_sum(per_user.map_batches(coc, batch_format="pandas"), ["c"], ["m"], num_buckets=2)
        .to_pandas()
        .sort_values("c")
        .reset_index(drop=True)
    )
    n_users = int(counts["m"].sum())
    less = np.concatenate([[0], np.cumsum(counts["m"].to_numpy(np.int64))[:-1]])
    ref = _ray.put(dict(zip(counts["c"].astype(int), less.tolist())))

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        lk = _cached_get(ref)
        n_less = b["n"].map(lk).to_numpy(np.int64)
        return pd.DataFrame(
            {
                "decile": (1 + 10 * n_less // n_users).astype(np.int64),
                "n_users": np.ones(len(b), np.int64),
                "n_purchasers": b["purchased"].astype("int64"),
            }
        )

    folded = grouped_sum(
        per_user.map_batches(bucket, batch_format="pandas"),
        ["decile"],
        ["n_users", "n_purchasers"],
        num_buckets=2,
    )

    def finalize(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["conversion_permille"] = (
            1000 * b["n_purchasers"].to_numpy(np.int64) // b["n_users"].to_numpy(np.int64)
        )
        return b.astype({"conversion_permille": "int64"})

    return folded.map_batches(finalize, batch_format="pandas")


CONVERSION_DECILE_SQL = """
WITH pu AS (
  SELECT user_id, COUNT(*) AS n,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS purchased
  FROM events GROUP BY user_id
),
r AS (
  SELECT purchased,
         1 + 10 * (RANK() OVER (ORDER BY n) - 1) // (COUNT(*) OVER ()) AS decile
  FROM pu
)
SELECT CAST(decile AS BIGINT) AS decile,
       CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(purchased) AS BIGINT) AS n_purchasers,
       CAST(1000 * SUM(purchased) // COUNT(*) AS BIGINT) AS conversion_permille
FROM r GROUP BY decile
"""


def late_events(sf_dir: str) -> "ray.data.Dataset":
    """Watermark accounting: an event is LATE if its event-time hour
    precedes the maximum event-time hour already seen in ARRIVAL order
    (``event_id``) — the out-of-orderness audit that sizes streaming
    watermark delays → ``(hour_epoch_s, n_events, n_late)`` per
    event-time hour.

    Scale shape: the running max over arrival order uses the same
    range-bucket scan as :func:`~pdf_extractor_ray.ops.prefix_sum` —
    per-bucket maxima fold to a driver-side cumulative (num_buckets
    rows), each bucket then scans locally with its predecessor offset;
    no global sort. Arrival ids must be unique integers (they are the
    event PK)."""
    import ray as _ray

    from pdf_extractor_ray.joins import _cached_get
    from pdf_extractor_ray.ops import auto_num_buckets, grouped_agg, grouped_apply, grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "ts"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": b["event_id"].astype("int64"),
                "hour": (us // 3_600_000_000) * 3600,
            }
        )

    hours = ds.map_batches(derive, batch_format="pandas", batch_size=65536).materialize()
    nb = auto_num_buckets()
    lo = int(hours.min("event_id"))
    hi = int(hours.max("event_id"))
    width = -(-(hi - lo + 1) // nb)

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__rb"] = (b["event_id"].to_numpy(np.int64) - lo) // width
        return b

    bucketed = hours.map_batches(add_bucket, batch_format="pandas")
    bmax = (
        grouped_agg(bucketed, ["__rb"], {"mx": ("hour", "max")})
        .to_pandas()
        .sort_values("__rb")
    )
    # exclusive running max of the PRECEDING buckets
    run = np.maximum.accumulate(bmax["mx"].to_numpy(np.int64))
    offsets = dict(
        zip(bmax["__rb"].astype(int), np.concatenate([[np.iinfo(np.int64).min], run[:-1]]).tolist())
    )
    oref = _ray.put(offsets)

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        off = _cached_get(oref)
        g = g.sort_values(["__rb", "event_id"], kind="mergesort")
        h = g["hour"].to_numpy(np.int64)
        out_rows = []
        for rb, grp_ix in g.groupby("__rb", sort=False).groups.items():
            hh = g.loc[grp_ix, "hour"].to_numpy(np.int64)
            prev = np.concatenate([[off[int(rb)]], np.maximum.accumulate(hh)[:-1]])
            prev = np.maximum(prev, off[int(rb)])
            late = (hh < prev).astype(np.int64)
            out_rows.append(
                pd.DataFrame({"hour": hh, "n_events": np.ones(len(hh), np.int64), "n_late": late})
            )
        return pd.concat(out_rows, ignore_index=True)

    per_event = grouped_apply(bucketed, ["__rb"], scan, num_buckets=nb)
    out = grouped_sum(per_event, ["hour"], ["n_events", "n_late"], num_buckets=2)
    return out.map_batches(
        lambda b: b.rename(columns={"hour": "hour_epoch_s"}), batch_format="pandas"
    )


LATE_EVENTS_SQL = """
WITH h AS (
  SELECT event_id, (epoch_us(ts) // 3600000000) * 3600 AS hour FROM events
),
m AS (
  SELECT hour,
         MAX(hour) OVER (ORDER BY event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS seen
  FROM h
)
SELECT CAST(hour AS BIGINT) AS hour_epoch_s,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN seen IS NOT NULL AND hour < seen THEN 1 ELSE 0 END)
            AS BIGINT) AS n_late
FROM m GROUP BY hour
"""


def traffic_uniformity(sf_dir: str) -> "pd.DataFrame":
    """Weekday traffic profile with an exact non-uniformity statistic →
    one row per observed weekday ``(weekday, n_events, l1_x7)`` where
    ``l1_x7 = Σ_d |7·n_d − N|`` (weekdays with zero traffic contribute
    |0 − N| = N each) is the L1 distance to the uniform profile scaled
    by 7 — exact integer cross-multiplication, no division convention
    to drift; l1_x7 = 0 means perfectly level traffic, large values
    mean weekend cliffs or batch-job spikes. Normalization (the max is
    12·N) is left to the consumer so the oracle stays pure integer.

    One ≤7-row exchange; the scalar folds in driver-side."""
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].to_numpy("datetime64[us]").astype(np.int64)
        day = us // 86_400_000_000
        # 1970-01-01 was a Thursday -> weekday (Mon=0): (day + 3) % 7
        return pd.DataFrame(
            {"weekday": (day + 3) % 7, "n_events": np.ones(len(b), np.int64)}
        )

    daily = (
        grouped_sum(
            ds.map_batches(derive, batch_format="pandas", batch_size=65536),
            ["weekday"],
            ["n_events"],
            num_buckets=2,
        )
        .to_pandas()
        .sort_values("weekday")
        .reset_index(drop=True)
    )
    n = int(daily["n_events"].sum())
    l1_x7 = int(np.abs(7 * daily["n_events"].to_numpy(np.int64) - n).sum())
    # weekdays with zero events still contribute |0 - N| = N each
    missing = 7 - len(daily)
    l1_x7 += missing * n
    out = daily.copy()
    out["l1_x7"] = np.int64(l1_x7)
    return out.astype({"weekday": "int64", "n_events": "int64", "l1_x7": "int64"})


TRAFFIC_UNIFORMITY_SQL = """
WITH d AS (
  SELECT (epoch_us(ts) // 86400000000 + 3) % 7 AS weekday, COUNT(*) AS n_events
  FROM events GROUP BY 1
),
tot AS (SELECT SUM(n_events) AS n, COUNT(*) AS present FROM d),
l1 AS (
  SELECT SUM(abs(7 * n_events - tot.n)) + (7 - tot.present) * tot.n AS l1_x7
  FROM d, tot GROUP BY tot.present, tot.n
)
SELECT CAST(weekday AS BIGINT) AS weekday,
       CAST(n_events AS BIGINT) AS n_events,
       CAST(l1.l1_x7 AS BIGINT) AS l1_x7
FROM d, l1
"""


def benford_values(sf_dir: str) -> "pd.DataFrame":
    """Benford first-digit screen over event values (in cents) →
    ``(digit, n_events, share_milli)`` for digits 1-9 — synthetic or
    fabricated numeric columns flunk Benford's log-law long before a
    model can tell; the share table is the raw evidence (expected
    ≈ log10(1+1/d)). First digit extracted from the DECIMAL STRING of
    the integer cents (exact — no float log10). Zero-cent rows are
    excluded, matching the oracle. One tiny exchange."""
    from pdf_extractor_ray.functions.exact import cents_np
    from pdf_extractor_ray.ops import grouped_sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["value"]
    )

    def derive(b: pd.DataFrame) -> pd.DataFrame:
        cents = cents_np(b["value"])
        cents = cents[cents > 0]
        digits = np.array([int(str(int(c))[0]) for c in cents], np.int64)
        return pd.DataFrame({"digit": digits, "n_events": np.ones(len(digits), np.int64)})

    counts = grouped_sum(
        ds.map_batches(derive, batch_format="pandas", batch_size=65536),
        ["digit"],
        ["n_events"],
        num_buckets=2,
    ).to_pandas()  # ≤ 9 rows
    n = int(counts["n_events"].sum())
    counts = counts.sort_values("digit").reset_index(drop=True)
    counts["share_milli"] = 1000 * counts["n_events"].astype(np.int64) // n
    return counts.astype({"digit": "int64", "n_events": "int64", "share_milli": "int64"})


BENFORD_SQL = """
WITH c AS (
  SELECT CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents FROM events
),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM c WHERE cents > 0
),
n AS (SELECT COUNT(*) AS n FROM d)
SELECT digit, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(1000 * COUNT(*) // n.n AS BIGINT) AS share_milli
FROM d, n GROUP BY digit, n.n
"""
