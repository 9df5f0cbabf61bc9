"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import __version__
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.dataset == "cer"
        assert args.strategy == "G"
        assert args.epsilon == 0.69
        assert args.plane is None
        assert args.spec is None

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_no_args_prints_help_and_exits_2(self):
        out = io.StringIO()
        code = main([], out=out)
        assert code == 2
        text = out.getvalue()
        assert "usage: repro" in text
        assert "cluster" in text and "plan" in text


class TestCommands:
    def test_plan_reproduces_paper_numbers(self):
        out = io.StringIO()
        code = main(
            [
                "plan", "--delta", "0.995", "--e-max", "1e-12",
                "--population", "1000000", "--iterations", "10", "--length", "24",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "n_e = 47" in text
        assert "480-th root" in text

    def test_cluster_small_run(self):
        out = io.StringIO()
        code = main(
            [
                "cluster", "--dataset", "cer", "--series", "1500", "--scale", "200",
                "--k", "8", "--strategy", "UF3", "--iterations", "5", "--seed", "1",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "strategy=UF3_SMA" in text
        assert "best iteration:" in text
        # UF3 stops at its bound even though 5 iterations were requested.
        assert text.count("\n") < 20

    def test_cluster_numed_no_smoothing(self):
        out = io.StringIO()
        code = main(
            [
                "cluster", "--dataset", "numed", "--series", "1200", "--scale", "100",
                "--k", "6", "--strategy", "G", "--iterations", "3",
                "--no-smoothing", "--seed", "2",
            ],
            out=out,
        )
        assert code == 0
        assert "strategy=G " in out.getvalue() or "strategy=G\n" in out.getvalue()


class TestSpecDrivenRuns:
    def _write_spec(self, tmp_path, plane="quality"):
        from repro.api import RunSpec

        spec = RunSpec.from_dict({
            "plane": plane,
            "seed": 5,
            "strategy": "UF2",
            "dataset": {"kind": "cer",
                        "params": {"n_series": 300, "population_scale": 100}},
            "init": {"kind": "courbogen"},
            "params": {"k": 4, "max_iterations": 3, "epsilon": 0.69,
                       "theta": 0.0, "key_bits": 256},
        })
        path = tmp_path / "spec.json"
        spec.save(path)
        return path

    def test_cluster_from_spec_file(self, tmp_path):
        out = io.StringIO()
        code = main(["cluster", "--spec", str(self._write_spec(tmp_path))], out=out)
        text = out.getvalue()
        assert code == 0
        assert "strategy=UF2_SMA" in text
        assert "plane=quality" in text

    def test_cluster_spec_plane_override(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["cluster", "--spec", str(self._write_spec(tmp_path)),
             "--plane", "vectorized"],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "plane=vectorized" in text
        assert "exch/node" in text

    def test_cluster_checkpoint_and_json_out(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        ckpt_dir = tmp_path / "ckpt"
        json_out = tmp_path / "result.json"
        out = io.StringIO()
        code = main(
            ["cluster", "--spec", str(spec_path),
             "--checkpoint-dir", str(ckpt_dir), "--json-out", str(json_out)],
            out=out,
        )
        assert code == 0
        records = (ckpt_dir / "state.ndjson").read_text().splitlines()
        assert len(records) == 2  # UF2 bound

        record = json.loads(json_out.read_text())
        assert record["schema"] == "chiaroscuro-run/v1"
        assert record["spec"]["strategy"] == "UF2"
        assert len(record["result"]["history"]) == 2
        assert record["timings"]["wall_seconds"] > 0

        # Running again resumes (nothing left to do) and reports the
        # checkpointed history unchanged.
        out2 = io.StringIO()
        code = main(
            ["cluster", "--spec", str(spec_path),
             "--checkpoint-dir", str(ckpt_dir)],
            out=out2,
        )
        assert code == 0
        assert "resuming after iteration 2" in out2.getvalue()

    def test_checkpoint_spec_mismatch_is_a_clean_error(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        ckpt_dir = tmp_path / "ckpt"
        assert main(
            ["cluster", "--spec", str(spec_path),
             "--checkpoint-dir", str(ckpt_dir)],
            out=io.StringIO(),
        ) == 0
        # Same checkpoint dir, different experiment: refusal message +
        # exit code 2, not a traceback.
        out = io.StringIO()
        code = main(
            ["cluster", "--spec", str(spec_path), "--plane", "vectorized",
             "--checkpoint-dir", str(ckpt_dir)],
            out=out,
        )
        assert code == 2
        assert "error:" in out.getvalue()
        assert "different spec" in out.getvalue()


class TestServiceCommands:
    """The service surface: submit → serve --drain → jobs → tail."""

    def _batch_file(self, tmp_path, n=3):
        from repro.api import RunSpec

        specs = []
        for seed in range(n):
            specs.append(RunSpec.from_dict({
                "name": f"cli-batch-{seed}",
                "plane": "quality",
                "seed": seed,
                "strategy": "G",
                "dataset": {"kind": "cer",
                            "params": {"n_series": 100,
                                       "population_scale": 100}},
                "init": {"kind": "courbogen"},
                "params": {"k": 3, "max_iterations": 2, "epsilon": 50.0,
                           "theta": 0.0},
            }).to_dict())
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(specs))
        return path

    def test_submit_serve_jobs_tail_round_trip(self, tmp_path):
        root = str(tmp_path / "root")
        batch = self._batch_file(tmp_path)

        out = io.StringIO()
        assert main(["submit", str(batch), "--root", root], out=out) == 0
        assert "3 job(s) submitted" in out.getvalue()

        out = io.StringIO()
        code = main(["serve", "--root", root, "--max-workers", "2",
                     "--poll", "0.05", "--drain", "--timeout", "300"], out=out)
        assert code == 0
        assert "drained: 3 completed, 0 failed" in out.getvalue()

        out = io.StringIO()
        assert main(["jobs", "--root", root], out=out) == 0
        listing = out.getvalue()
        assert listing.count("completed") == 3

        out = io.StringIO()
        assert main(["jobs", "--root", root, "--json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert [job["state"] for job in payload] == ["completed"] * 3
        job_id = payload[0]["job_id"]

        out = io.StringIO()
        assert main(["tail", "--root", root], out=out) == 0
        feed = out.getvalue()
        assert "run_started" in feed and "job_completed" in feed

        out = io.StringIO()
        assert main(["tail", "--root", root, job_id, "--raw"], out=out) == 0
        records = [json.loads(line) for line in
                   out.getvalue().strip().splitlines()]
        assert {r["job"] for r in records} == {job_id}
        assert records[-1]["type"] == "job_completed"

    def test_submit_rejects_malformed_spec(self, tmp_path):
        root = str(tmp_path / "root")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"plane": "quality"}))  # no dataset block
        out = io.StringIO()
        assert main(["submit", str(bad), "--root", root], out=out) == 2
        assert "error:" in out.getvalue()

    def test_submit_multiple_files_is_all_or_nothing(self, tmp_path):
        """A malformed second file must not leave the first file's jobs
        durably enqueued (a retry would double-submit them)."""
        from repro.service import JobStore

        root = str(tmp_path / "root")
        good = self._batch_file(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"plane": "quality"}))
        out = io.StringIO()
        assert main(["submit", str(good), str(bad), "--root", root],
                    out=out) == 2
        assert JobStore(root).jobs() == []

    def test_serve_drain_ignores_historically_failed_jobs(self, tmp_path):
        """A job that failed terminally in a previous session must not
        make every later drain exit 1."""
        from repro.service import JobState, JobStore

        root = str(tmp_path / "root")
        store = JobStore(root)
        batch = self._batch_file(tmp_path, n=1)
        assert main(["submit", str(batch), "--root", root],
                    out=io.StringIO()) == 0
        old = store.jobs()[0]
        store.update(old.job_id, state=JobState.FAILED, error="old wreck")

        assert main(["submit", str(batch), "--root", root],
                    out=io.StringIO()) == 0
        out = io.StringIO()
        code = main(["serve", "--root", root, "--max-workers", "1",
                     "--poll", "0.05", "--drain", "--timeout", "300"],
                    out=out)
        assert code == 0
        assert "drained: 1 completed, 0 failed" in out.getvalue()
        assert store.get(old.job_id).state == JobState.FAILED  # untouched

    def test_submit_rejects_malformed_budget_label(self, tmp_path):
        """The satellite bugfix, through the CLI path: a bad UF label is a
        clean usage error, not an int() traceback."""
        root = str(tmp_path / "root")
        bad = tmp_path / "bad.json"
        spec = json.loads(self._batch_file(tmp_path).read_text())[0]
        spec["strategy"] = "UFx"
        spec["params"]["budget_strategy"] = "UFx"
        bad.write_text(json.dumps([spec]))
        out = io.StringIO()
        assert main(["submit", str(bad), "--root", root], out=out) == 2
        assert "unknown budget strategy" in out.getvalue()

    def test_tail_unknown_job_is_clean_error(self, tmp_path):
        root = str(tmp_path / "root")
        out = io.StringIO()
        assert main(["tail", "--root", root, "nope"], out=out) == 2
        assert "unknown job" in out.getvalue()

    def test_tail_renders_foreign_records_without_crashing(self, tmp_path):
        """A log line of a known type but missing numeric fields (e.g.
        written by another version) must not abort the tail."""
        root = str(tmp_path / "root")
        from repro.service import JobStore, append_ndjson

        store = JobStore(root)
        store.job_dir("j1").mkdir()
        append_ndjson(store.events_path("j1"),
                      {"type": "iteration_completed", "job": "j1"})
        append_ndjson(store.events_path("j1"),
                      {"type": "job_completed", "job": "j1",
                       "wall_seconds": 1.0})
        out = io.StringIO()
        assert main(["tail", "--root", root], out=out) == 0
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert "iteration_completed" in lines[0]

    def test_tail_renders_fault_and_abort_details(self, tmp_path):
        """A faulted job's events say what fired and what the abort cost —
        not a bare ``[job] fault_detected`` / ``[job] run_aborted``."""
        root = str(tmp_path / "root")
        from repro.service import JobStore, append_ndjson

        store = JobStore(root)
        store.job_dir("j1").mkdir()
        append_ndjson(store.events_path("j1"),
                      {"type": "fault_detected", "job": "j1", "iteration": 2,
                       "fault": "byzantine",
                       "detector": "decryption-cross-check",
                       "participants": [4], "detail": {}})
        append_ndjson(store.events_path("j1"),
                      {"type": "run_aborted", "job": "j1", "iteration": 2,
                       "fault": "byzantine", "reason": "cross-check failed",
                       "epsilon_charged": 0.75})
        out = io.StringIO()
        assert main(["tail", "--root", root], out=out) == 0
        detected, aborted = out.getvalue().strip().splitlines()
        assert detected == ("[j1] fault_detected fault=byzantine "
                            "detector=decryption-cross-check iteration=2")
        assert aborted == ("[j1] run_aborted iteration=2 "
                           "reason=cross-check failed epsilon_charged=0.7500")

    def test_serve_timeout_requires_drain(self, tmp_path):
        out = io.StringIO()
        code = main(["serve", "--root", str(tmp_path / "root"),
                     "--timeout", "5"], out=out)
        assert code == 2
        assert "--drain" in out.getvalue()

    def test_cluster_rejects_malformed_budget_label(self):
        out = io.StringIO()
        code = main(
            ["cluster", "--dataset", "cer", "--series", "100",
             "--strategy", "UFx", "--iterations", "2"],
            out=out,
        )
        assert code == 2
        assert "error:" in out.getvalue()
