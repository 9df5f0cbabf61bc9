"""Window-function analytics: running sums, lags, percentiles, deltas."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.warehouse import (
    bench_trajectory,
    connect,
    detector_counts,
    fig2_trajectories,
    fig3_quality,
    latency_percentiles,
    report_latency,
    run_query,
    stats,
)


@pytest.fixture()
def con(tmp_path):
    con = connect(tmp_path / "wh.db")
    yield con
    con.close()


def add_run(con, run_key, name="run", strategy="G", plane="quality",
            source="job", job_id=None, bench=None, dataset="cer",
            history=(), final=None, churn=0.0):
    history = list(history)
    con.execute(
        "INSERT INTO runs (run_key, source, job_id, bench, name, strategy, "
        "plane, dataset, churn, iterations, final_pre_inertia) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (run_key, source, job_id, bench, name, strategy, plane, dataset,
         churn, len(history),
         final if final is not None else (history[-1] if history else None)),
    )
    con.executemany(
        "INSERT INTO iterations (run_key, iteration, pre_inertia, "
        "post_inertia, n_centroids, epsilon_spent) VALUES (?, ?, ?, ?, 3, ?)",
        [(run_key, i + 1, value, value + 1.0, 0.1)
         for i, value in enumerate(history)],
    )
    con.commit()


class TestTrajectories:
    def test_epsilon_running_sum(self, con):
        add_run(con, "job:a", history=[30.0, 20.0, 10.0])
        curve = con.execute(
            "SELECT epsilon_spent_total, epsilon_before FROM v_epsilon_spend "
            "WHERE run_key = 'job:a' ORDER BY iteration"
        ).fetchall()
        assert [round(total, 6) for total, _ in curve] == [0.1, 0.2, 0.3]
        assert [round(before, 6) for _, before in curve] == [0.0, 0.1, 0.2]

    def test_sma3_window(self, con):
        add_run(con, "job:a", history=[9.0, 3.0, 3.0, 6.0])
        rows = fig2_trajectories(con)
        sma = [round(row["pre_inertia_sma3"], 6) for row in rows]
        # 3-point trailing mean: 9, (9+3)/2, (9+3+3)/3, (3+3+6)/3
        assert sma == [9.0, 6.0, 5.0, 4.0]

    def test_fig2_averages_across_runs_per_strategy(self, con):
        add_run(con, "job:a", strategy="G", history=[10.0, 8.0])
        add_run(con, "job:b", strategy="G", history=[20.0, 12.0])
        add_run(con, "job:c", strategy="UF3", history=[7.0])
        rows = fig2_trajectories(con, strategy="G")
        assert [(r["strategy"], r["iteration"], r["runs"], r["pre_inertia"])
                for r in rows] == [("G", 1, 2, 15.0), ("G", 2, 2, 10.0)]
        all_rows = fig2_trajectories(con)
        assert {r["strategy"] for r in all_rows} == {"G", "UF3"}


class TestFig3:
    def test_ratio_vs_baseline_same_dataset_only(self, con):
        add_run(con, "job:base", name="sweep-baseline", history=[100.0])
        add_run(con, "job:hit", name="sweep-attacked", history=[150.0])
        add_run(con, "job:other", name="sweep-collusion", dataset="points2d",
                history=[9000.0])
        rows = {row["name"]: row for row in fig3_quality(con)}
        assert rows["sweep-baseline"]["vs_baseline"] == 1.0
        assert rows["sweep-attacked"]["vs_baseline"] == 1.5
        # Different dataset: not comparable against this baseline.
        assert rows["sweep-collusion"]["vs_baseline"] is None

    def test_like_filter_and_detections_join(self, con):
        add_run(con, "job:x", job_id="x", name="attack-byz", history=[5.0])
        add_run(con, "job:y", job_id="y", name="other", history=[5.0])
        con.execute(
            "INSERT INTO detections (detection_key, run_key, job_id, fault, "
            "detector, count) VALUES ('x:0', 'job:x', 'x', 'byzantine', "
            "'exchange-guard', 1), ('x:1', 'job:x', 'x', 'byzantine', "
            "'exchange-guard', 1)"
        )
        con.commit()
        rows = fig3_quality(con, like="attack-%")
        assert len(rows) == 1
        assert rows[0]["detections"] == 2
        assert rows[0]["detectors"] == "exchange-guard"

    def test_aborted_from_event_stream(self, con):
        add_run(con, "job:x", job_id="x", name="r", history=[5.0])
        con.execute(
            "INSERT INTO events (event_key, job_id, type, payload) "
            "VALUES ('x:9', 'x', 'run_aborted', '{}')"
        )
        con.commit()
        assert fig3_quality(con)[0]["aborted"] == 1


class TestLatencyAndDetectors:
    def test_percentiles_per_plane(self, con):
        add_run(con, "job:q", job_id="q", plane="quality")
        con.executemany(
            "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
            "VALUES (?, 'q', ?, ?, 'iteration_completed', '{}')",
            [(f"q:{i}", i, float(i)) for i in range(11)],
        )
        con.commit()
        rows = latency_percentiles(con)
        assert len(rows) == 1
        row = rows[0]
        assert row["plane"] == "quality"
        assert row["iterations"] == 10  # 11 events, 10 gaps
        assert row["p50"] == pytest.approx(1.0)
        assert row["p99"] == pytest.approx(1.0)

    def test_crypto_split_from_event_payloads(self, con):
        """Events carrying ``crypto_ms`` yield the protocol/bigint split;
        planes without the field report None (not 0)."""
        add_run(con, "job:c", job_id="c", plane="vectorized-crypto")
        add_run(con, "job:m", job_id="m", plane="vectorized")
        con.executemany(
            "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
            "VALUES (?, ?, ?, ?, 'iteration_completed', ?)",
            [(f"c:{i}", "c", i, 2.0 * i, '{"crypto_ms": 1500.0}')
             for i in range(5)]
            + [(f"m:{i}", "m", i, 1.0 * i, "{}") for i in range(5)],
        )
        con.commit()
        rows = {row["plane"]: row for row in latency_percentiles(con)}
        crypto = rows["vectorized-crypto"]
        # 2-second gaps, 1.5 s of which is crypto → 75 % crypto share.
        assert crypto["crypto_mean"] == pytest.approx(1.5)
        assert crypto["crypto_p50"] == pytest.approx(1.5)
        assert crypto["crypto_share"] == pytest.approx(0.75)
        mock = rows["vectorized"]
        assert mock["crypto_mean"] is None
        assert mock["crypto_share"] is None

    def test_report_latency_renders_crypto_split(self, con, tmp_path, capsys):
        add_run(con, "job:c", job_id="c", plane="vectorized-crypto")
        add_run(con, "job:m", job_id="m", plane="vectorized")
        con.executemany(
            "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
            "VALUES (?, ?, ?, ?, 'iteration_completed', ?)",
            [(f"c:{i}", "c", i, 2.0 * i, '{"crypto_ms": 1500.0}')
             for i in range(5)]
            + [(f"m:{i}", "m", i, 1.0 * i, "{}") for i in range(5)],
        )
        con.commit()
        text = report_latency(con)
        crypto_line = next(
            line for line in text.splitlines()
            if line.startswith("vectorized-crypto")
        )
        assert "0.75" in crypto_line  # 1.5 s of every 2 s gap is crypto
        mock_line = next(
            line for line in text.splitlines()
            if line.startswith("vectorized ")
        )
        assert mock_line.rstrip().endswith("-")  # no crypto_ms → no share
        markdown = report_latency(con, fmt="markdown")
        assert markdown.splitlines()[0].startswith("| plane ")
        # the same table through `repro report latency`
        db = tmp_path / "cli.db"
        with connect(db) as disk:
            disk.executescript(
                "\n".join(
                    line for line in con.iterdump()
                    if line.startswith("INSERT")
                )
            )
        capsys.readouterr()
        assert main(["report", "latency", "--db", str(db)]) == 0
        assert "crypto-share" in capsys.readouterr().out

    def test_report_latency_empty_is_graceful(self, con):
        assert "no iteration events" in report_latency(con)

    def test_detector_counts_view(self, con):
        con.execute(
            "INSERT INTO detections (detection_key, run_key, fault, "
            "detector, count) VALUES "
            "('a', 'r1', 'byzantine', 'exchange-guard', 2), "
            "('b', 'r2', 'byzantine', 'exchange-guard', 3), "
            "('c', 'r1', 'collusion', 'coalition-audit', 1)"
        )
        con.commit()
        rows = detector_counts(con)
        assert [(r["fault"], r["detector"], r["detections"], r["runs"])
                for r in rows] == [
            ("byzantine", "exchange-guard", 5, 2),
            ("collusion", "coalition-audit", 1, 1),
        ]

    def test_latency_scan_holds_no_rows(self, con):
        """The report keeps two floats per gap, never the rows: a
        ``fetchall`` or dict rows would cost several hundred bytes per
        event here."""
        events = 20_000
        for job, plane in (("c", "vectorized-crypto"), ("m", "vectorized")):
            add_run(con, f"job:{job}", job_id=job, plane=plane)
        con.executemany(
            "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
            "VALUES (?, ?, ?, ?, 'iteration_completed', ?)",
            (
                (f"{job}:{i}", job, i, 0.25 * i + (i % 7) * 0.01,
                 json.dumps({"crypto_ms": 100.0 + i % 13} if job == "c" else {}))
                for job in ("c", "m") for i in range(events // 2)
            ),
        )
        con.commit()
        tracemalloc.start()
        try:
            rows = latency_percentiles(con)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [row["iterations"] for row in rows] == [events // 2 - 1] * 2
        assert peak < 80 * events


#: ``latency_percentiles`` as it was when the report sorted
#: ``v_iteration_latency`` a second time for ``CUME_DIST()``: the oracle.
ORACLE_SELECT = """
            SELECT plane,
                   seconds,
                   crypto_ms / 1000.0 AS crypto_seconds,
                   CUME_DIST() OVER (
                       PARTITION BY plane ORDER BY seconds
                   ) AS cume
            FROM v_iteration_latency
            WHERE seconds IS NOT NULL
            ORDER BY plane, seconds
            """


def oracle_latency_percentiles(con) -> list[dict]:
    distribution = run_query(con, ORACLE_SELECT)
    out: list[dict] = []
    by_plane: dict[str, list[dict]] = {}
    for row in distribution:
        by_plane.setdefault(row["plane"], []).append(row)
    for plane, rows in sorted(by_plane.items()):
        entry = {"plane": plane, "iterations": len(rows)}
        for label, quantile in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            entry[label] = next(
                (r["seconds"] for r in rows if r["cume"] >= quantile),
                rows[-1]["seconds"],
            )
        entry["max"] = rows[-1]["seconds"]
        crypto = sorted(
            r["crypto_seconds"] for r in rows if r["crypto_seconds"] is not None
        )
        if crypto:
            mean_seconds = sum(r["seconds"] for r in rows) / len(rows)
            entry["crypto_p50"] = crypto[len(crypto) // 2]
            entry["crypto_mean"] = sum(crypto) / len(crypto)
            entry["crypto_share"] = (
                entry["crypto_mean"] / mean_seconds if mean_seconds > 0 else None
            )
        else:
            entry["crypto_p50"] = None
            entry["crypto_mean"] = None
            entry["crypto_share"] = None
        out.append(entry)
    return out


ABSENT = object()
# Few distinct values, so ties are common; TEXT as a foreign writer
# would leave it (a numeric-looking TEXT ``ts`` is stored as REAL).
timestamps = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 1.5, 2.25, 7.125]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from(["tick", "3.5s", "2.5", "12"]),
)
crypto_fields = st.one_of(
    st.just(ABSENT),
    st.none(),
    st.integers(0, 5000),
    st.floats(0, 1e5, allow_nan=False),
    st.sampled_from(["slow", "250ms"]),
)
event_rows = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "e"]),   # job
    timestamps,
    st.one_of(st.none(), st.integers(0, 3)),      # seq (ties allowed)
    crypto_fields,
)
# Jobs a–d may have a runs row (e never does); two planes can share jobs.
run_planes = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.sampled_from(["vectorized-crypto", "vectorized", "quality", ""]),
)


def build_warehouse(con, planes, rows):
    for job, plane in planes.items():
        add_run(con, f"job:{job}", job_id=job, plane=plane)
    con.executemany(
        "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
        "VALUES (?, ?, ?, ?, 'iteration_completed', ?)",
        [
            (f"{job}:{i}", job, seq, ts,
             json.dumps({} if crypto is ABSENT else {"crypto_ms": crypto}))
            for i, (job, ts, seq, crypto) in enumerate(rows)
        ],
    )
    # Other event types never count, whatever their timestamps.
    con.execute(
        "INSERT INTO events (event_key, job_id, seq, ts, type, payload) "
        "VALUES ('a:run', 'a', 99, 0.5, 'run_started', '{\"crypto_ms\": 1}')"
    )
    con.commit()


class TestLatencyAgainstTheWindowSort:
    @settings(max_examples=200, deadline=None)
    @given(planes=run_planes, rows=st.lists(event_rows, max_size=40))
    @example(  # two planes, one with a single gap, a one-event job, no-run job
        planes={"a": "vectorized-crypto", "b": "quality", "c": "vectorized"},
        rows=[("a", 1.0, 0, 1500.0), ("a", 3.0, 1, 1500), ("a", 4.0, 2, ABSENT),
              ("b", 0.0, None, None), ("b", 2.5, None, "slow"),
              ("c", 5.0, 0, 10.0), ("e", 1.0, 0, 3.0), ("e", "tick", 1, 2.0),
              ("e", None, 2, 1.0), ("e", 1.0, None, "250ms")],
    )
    def test_equal_to_the_cume_dist_oracle(self, planes, rows):
        con = connect(":memory:")
        try:
            build_warehouse(con, planes, rows)
            assert latency_percentiles(con) == oracle_latency_percentiles(con)
        finally:
            con.close()


class TestBenchTrajectory:
    def test_latest_point_with_delta_over_revs(self, con):
        con.executemany(
            "INSERT INTO bench_points (bench, git_rev, recorded_at, "
            "unix_time, metric, value) VALUES (?, ?, ?, ?, ?, ?)",
            [
                ("b", "rev1", "t1", 100.0, "speed", 10.0),
                ("b", "rev2", "t2", 200.0, "speed", 14.0),
                ("b", "rev3", "t3", 300.0, "speed", 12.0),
            ],
        )
        con.commit()
        rows = bench_trajectory(con, bench="b")
        assert len(rows) == 1
        row = rows[0]
        assert row["git_rev"] == "rev3"  # ordered by unix_time, not rev name
        assert row["value"] == 12.0
        assert row["prev_value"] == 14.0
        assert row["delta"] == -2.0
        assert row["points"] == 3

    def test_metric_like_filter(self, con):
        con.executemany(
            "INSERT INTO bench_points (bench, git_rev, recorded_at, "
            "unix_time, metric, value) VALUES (?, ?, ?, ?, ?, ?)",
            [
                ("b", "rev1", "t1", 1.0, "summary.speed", 1.0),
                ("b", "rev1", "t1", 1.0, "other", 2.0),
            ],
        )
        con.commit()
        rows = bench_trajectory(con, metric="summary.%")
        assert [r["metric"] for r in rows] == ["summary.speed"]


class TestStatsAndQuery:
    def test_stats_shape(self, con):
        add_run(con, "job:a", job_id="a", history=[1.0])
        payload = stats(con)
        assert payload["schema_version"] >= 2
        assert payload["tables"]["runs"] == 1
        assert payload["runs_by_source"] == {"job": 1}

    def test_run_query_rows(self, con):
        add_run(con, "job:a", history=[1.0, 2.0])
        rows = run_query(con, "SELECT COUNT(*) AS n FROM iterations")
        assert rows == [{"n": 2}]
