"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pregel+" in out
        assert "dblp" in out
        assert "fig12" in out

    def test_run_command(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "dblp",
                "--task",
                "bppr",
                "--workload",
                "256",
                "--batches",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pregel+/bppr" in out
        assert "batch 0" in out and "batch 1" in out

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--workload",
                "512",
                "--machines",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimum" in out

    def test_experiment_quick(self, capsys):
        code = main(["experiment", "fig6", "--quick"])
        out = capsys.readouterr().out
        assert "fig6" in out
        assert code in (0, 1)  # claims may be relaxed in quick mode

    def test_tune_command(self, capsys):
        code = main(
            [
                "tune",
                "--workload",
                "2048",
                "--machines",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "memory models" in out
        assert "Optimized" in out

    def test_unknown_engine_is_reported(self, capsys):
        code = main(["run", "--engine", "spark", "--workload", "64"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_json_output(self, capsys):
        import json

        code = main(
            ["run", "--workload", "64", "--batches", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "pregel+"
        assert len(payload["batches"]) == 2
        assert "time_breakdown" in payload

    def test_run_bppr_query_task(self, capsys):
        code = main(
            ["run", "--task", "bppr-query", "--workload", "64"]
        )
        assert code == 0
        assert "bppr-query" in capsys.readouterr().out

    def test_report_quick(self, tmp_path, capsys):
        out_file = tmp_path / "EXP.md"
        code = main(
            ["report", "--quick", "--output", str(out_file)]
        )
        assert code == 0
        content = out_file.read_text()
        assert "paper vs measured" in content
        assert "fig2" in content


class TestHostileValues:
    """Non-finite numbers fail at parse time with an argparse error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--max-ram", "inf"],
            ["run", "--max-ram", "1e400"],
            ["run", "--max-ram", "nan"],
            ["run", "--workload", "nan"],
            ["run", "--workload", "inf"],
            ["serve", "--arrivals", "nan"],
            ["serve", "--arrivals", "inf"],
            ["run", "--faults", "nan"],
            ["serve", "--arrivals", "1", "--faults", "inf"],
            ["serve", "--arrivals", "1", "--overload-fraction", "nan"],
            ["serve", "--arrivals", "1", "--aging", "nan"],
            ["serve", "--arrivals", "1", "--aging", "inf"],
            ["serve", "--arrivals", "1", "--shed-watermark", "nan"],
            ["serve", "--arrivals", "1", "--result-ttl", "nan"],
            ["serve", "--arrivals", "1", "--result-cache-bytes", "inf"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "deadline", ["abc", "x=5", "1.5=10", "nan", "0=inf", "-5", "1=0"]
    )
    def test_bad_deadline_is_an_error(self, deadline, capsys):
        # A nan deadline used to pass silently (every comparison
        # against it is false), and an unparsable one raised a
        # traceback.
        assert main(["serve", "--arrivals", "1", "--deadline", deadline]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "deadline" in err

    @pytest.mark.parametrize("value", ["inf", "1e400"])
    def test_non_finite_env_budget_is_an_error(
        self, value, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_MAX_RAM", value)
        assert main(["run", "--workload", "64"]) == 2
        assert "REPRO_MAX_RAM" in capsys.readouterr().err

    # ``--machines 0`` used to be falsy and run the preset's count.
    @pytest.mark.parametrize("machines", ["0", "-2"])
    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep"], ["tune"], ["serve", "--arrivals", "1"]],
        ids=lambda argv: argv[0],
    )
    def test_machine_count_must_be_positive(self, argv, machines, capsys):
        assert main(argv + ["--workload", "64", "--machines", machines]) == 2
        assert "num_machines must be positive" in capsys.readouterr().err

    # PageRank is left out: its workload is fixed at 1 whatever is passed.
    @pytest.mark.parametrize("task", ["bppr", "bppr-query", "mssp", "bkhs"])
    @pytest.mark.parametrize("workload", [float("nan"), float("inf")])
    def test_make_task_rejects_non_finite_workloads(self, task, workload):
        from repro.errors import TaskError
        from repro.graph.generators import chain
        from repro.tasks.base import make_task

        with pytest.raises(TaskError, match="finite"):
            make_task(task, chain(10), workload)


class TestFaultFlags:
    def test_run_with_faults_and_checkpoints(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "1024",
                "--batches",
                "2",
                "--seed",
                "42",
                "--faults",
                "0.2",
                "--checkpoint-every",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery:" in out
        assert "crashes" in out and "checkpoints" in out

    def test_checkpointing_alone_reports_recovery_line(self, capsys):
        code = main(
            ["run", "--workload", "256", "--checkpoint-every", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery:" in out
        assert "0 crashes" in out

    def test_strict_overload_exits_nonzero(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "15000",
                "--batches",
                "1",
                "--on-overload",
                "raise",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_experiment_faults_quick(self, capsys):
        code = main(["experiment", "faults", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "faults" in out
        assert "HOLDS" in out


class TestServe:
    def serve(self, *extra):
        return main(
            [
                "serve",
                "--arrivals",
                "0.5",
                "--duration",
                "15",
                "--seed",
                "42",
                "--kinds",
                "bppr",
                *extra,
            ]
        )

    def serve_json(self, capsys):
        import json

        assert self.serve("--json") == 0
        return json.loads(capsys.readouterr().out)

    def test_serve_smoke(self, capsys):
        code = self.serve()
        assert code == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p99" in out
        assert "completed tasks" in out

    def test_serve_json_and_bench_merge(self, tmp_path, monkeypatch, capsys):
        """``--json`` prints the full metrics on stdout; a trajectory
        file already in the working directory is left as it was."""
        monkeypatch.chdir(tmp_path)
        bench = tmp_path / "BENCH_perf.json"
        bench.write_text('{"existing": {"keep": 1}}')
        payload = self.serve_json(capsys)
        assert payload["completed_tasks"] > 0
        assert payload["latency"]["p99_seconds"] >= payload["latency"][
            "p50_seconds"
        ] > 0
        assert payload["tasks"]  # per-task latencies in --json mode
        assert bench.read_text() == '{"existing": {"keep": 1}}'

    def test_serve_is_deterministic(self, capsys):
        assert self.serve_json(capsys) == self.serve_json(capsys)

    def test_serve_writes_no_file(self, tmp_path, monkeypatch, capsys):
        """A run reports on stdout: it leaves its working directory
        as empty as it found it."""
        monkeypatch.chdir(tmp_path)
        assert self.serve() == 0
        assert "p99" in capsys.readouterr().out
        assert os.listdir(tmp_path) == []

    def test_serve_inherits_shared_flags(self):
        args = build_parser().parse_args(
            ["serve", "--arrivals", "1.0", "--faults", "0.1"]
        )
        assert args.arrivals == 1.0
        assert args.faults == 0.1
        assert args.cluster == "galaxy-8"


class TestBrokenPipe:
    """``vcrepro report … | head -1``: a reader that closes the pipe
    early ends the run with SIGPIPE's exit status, not a traceback."""

    def test_closed_stdout_returns_141(self, monkeypatch, capsys):
        import io
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = io.TextIOWrapper(io.FileIO(write_end, "w"))
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert main(["list"]) == 141
            # The unflushed text now drains to the null device.
            stdout.flush()
        finally:
            stdout.close()
        assert capsys.readouterr().err == ""

    def test_process_exits_quietly(self):
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "list"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""
