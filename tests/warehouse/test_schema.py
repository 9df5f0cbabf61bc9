"""Warehouse schema: user_version migrations, read-only connections."""

from __future__ import annotations

import sqlite3

import pytest

from _wh_helpers import populate_job, tiny_spec
from repro.service import JobStore
from repro.warehouse import (
    MIGRATIONS,
    REPORTS,
    Ingester,
    connect,
    connect_readonly,
    ingest_paths,
    schema_version,
)


class TestMigrations:
    def test_fresh_db_reaches_current_version(self, tmp_path):
        con = connect(tmp_path / "wh.db")
        assert schema_version(con) == len(MIGRATIONS)
        con.close()

    def test_all_tables_and_views_exist(self, tmp_path):
        con = connect(tmp_path / "wh.db")
        names = {
            row[0]
            for row in con.execute(
                "SELECT name FROM sqlite_master WHERE type IN ('table', 'view')"
            )
        }
        for required in ("runs", "iterations", "events", "detections",
                         "jobs", "bench_points", "ingest_files",
                         "v_inertia_trajectories", "v_epsilon_spend",
                         "v_iteration_latency", "v_detector_counts",
                         "v_bench_trajectory"):
            assert required in names, required
        con.close()

    def test_partial_db_is_upgraded_in_place(self, tmp_path):
        """A warehouse built by an older release (migration 1 only) gains
        the newer views on the next connect — rows intact."""
        path = tmp_path / "wh.db"
        old = sqlite3.connect(path)
        old.executescript(MIGRATIONS[0])
        old.execute("PRAGMA user_version = 1")
        old.execute(
            "INSERT INTO runs (run_key, source) VALUES ('job:x', 'job')"
        )
        old.commit()
        old.close()

        con = connect(path)
        assert schema_version(con) == len(MIGRATIONS)
        assert con.execute("SELECT COUNT(*) FROM runs").fetchone()[0] == 1
        # Migration 2's views arrived without touching migration-1 rows.
        con.execute("SELECT * FROM v_detector_counts").fetchall()
        con.close()

    def test_migration_3_adds_crypto_ms_to_latency_view(self, tmp_path):
        """A migration-2 warehouse gains the crypto_ms view column in
        place; pre-existing events (no crypto_ms field) read back NULL."""
        path = tmp_path / "wh.db"
        old = sqlite3.connect(path)
        old.executescript(MIGRATIONS[0])
        old.executescript(MIGRATIONS[1])
        old.execute("PRAGMA user_version = 2")
        old.executemany(
            "INSERT INTO events (event_key, job_id, seq, ts, type, payload)"
            " VALUES (?, 'j', ?, ?, 'iteration_completed', ?)",
            [("j:1", 1, 1.0, "{}"),
             ("j:2", 2, 3.5, '{"crypto_ms": 2000.0}')],
        )
        old.commit()
        old.close()

        con = connect(path)
        assert schema_version(con) == len(MIGRATIONS)
        rows = con.execute(
            "SELECT seconds, crypto_ms FROM v_iteration_latency "
            "ORDER BY ts"
        ).fetchall()
        assert [tuple(row) for row in rows] == [(None, None), (2.5, 2000.0)]
        con.close()

    def test_migration_5_drops_the_lint_plane_rows_and_all(self, tmp_path):
        """A migration-4 warehouse holding lint rows and a service root
        upgrades in place: the lint plane goes, the rest stays queryable."""
        root = tmp_path / "svc"
        populate_job(JobStore(root), tiny_spec(4))
        path = tmp_path / "wh.db"
        old = sqlite3.connect(path)
        for script in MIGRATIONS[:4]:
            old.executescript(script)
        old.execute("PRAGMA user_version = 4")
        old.execute(
            "INSERT INTO lint_findings (report_key, fingerprint, git_rev, "
            "recorded_at, rule, path, status) VALUES ('r@t', 'aa', 'r', 't', "
            "'determinism-rng', 'src/x.py', 'new')"
        )
        Ingester(old).ingest_path(root)
        old.close()

        con = connect(path)
        assert schema_version(con) == 5 == len(MIGRATIONS)
        assert not con.execute(
            "SELECT name FROM sqlite_master WHERE name IN "
            "('lint_findings', 'v_lint_trajectory', 'idx_lint_rule')"
        ).fetchall()
        assert not any(ingest_paths(con, [root]).values())
        for name, report in REPORTS.items():
            assert report.render(con).strip(), name
        con.close()

    def test_future_version_refused(self, tmp_path):
        path = tmp_path / "wh.db"
        future = sqlite3.connect(path)
        future.execute(f"PRAGMA user_version = {len(MIGRATIONS) + 1}")
        future.commit()
        future.close()
        with pytest.raises(ValueError, match="refusing to write"):
            connect(path)

    def test_a_failed_migration_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """A script that fails on its second statement is rolled back whole:
        ``user_version`` and ``sqlite_master`` read as before, and the next
        connect applies the fixed script."""
        from repro.warehouse import schema

        path = tmp_path / "wh.db"
        connect(path).close()

        def master():
            with sqlite3.connect(path) as con:
                return (
                    con.execute("PRAGMA user_version").fetchone()[0],
                    con.execute("SELECT * FROM sqlite_master ORDER BY name").fetchall(),
                )

        before = master()
        broken = "CREATE TABLE extra (x INTEGER);\nCREATE TABLE extra (y INTEGER);"
        monkeypatch.setattr(schema, "MIGRATIONS", (*MIGRATIONS, broken))
        with pytest.raises(sqlite3.OperationalError, match="already exists"):
            connect(path)
        assert master() == before

        fixed = "CREATE TABLE extra (x INTEGER);\nCREATE INDEX extra_x ON extra (x);"
        monkeypatch.setattr(schema, "MIGRATIONS", (*MIGRATIONS, fixed))
        con = connect(path)
        assert schema_version(con) == len(MIGRATIONS) + 1
        assert con.execute("SELECT COUNT(*) FROM extra").fetchone()[0] == 0
        con.close()

    def test_reconnect_is_a_noop(self, tmp_path):
        path = tmp_path / "wh.db"
        connect(path).close()
        con = connect(path)  # no "table already exists" explosion
        assert schema_version(con) == len(MIGRATIONS)
        con.close()


class TestReadonly:
    def test_refuses_writes(self, tmp_path):
        path = tmp_path / "wh.db"
        connect(path).close()
        con = connect_readonly(path)
        with pytest.raises(sqlite3.OperationalError):
            con.execute("INSERT INTO runs (run_key, source) VALUES ('a', 'b')")
        con.close()

    def test_missing_file_raises_instead_of_creating(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            connect_readonly(tmp_path / "absent.db")
        assert not (tmp_path / "absent.db").exists()
