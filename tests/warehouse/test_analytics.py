"""Window-function analytics: running sums, lags, percentiles, deltas."""

from __future__ import annotations

import pytest

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
