"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.parallel import ParallelConfig, fork_available


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-trace")
    code = main(
        ["simulate", str(directory), "--scale", "tiny", "--seed", "3",
         "--days", "1"]
    )
    assert code == 0
    return directory


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out"])
        assert args.scale == "tiny"
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestParallelDefault:
    @pytest.mark.parametrize("command", ["detect", "cluster"])
    def test_workers_default_to_auto(self, command):
        args = build_parser().parse_args([command, "t"])
        assert args.workers == "auto"
        assert args.parallel_backend == "process"

    def test_auto_on_one_usable_cpu_is_serial(self, monkeypatch):
        import os

        from repro.cli import _pipeline_config

        # Under taskset -c 0 or a one-CPU cpuset the default builds no
        # pool, however many CPUs the machine has.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        args = build_parser().parse_args(["detect", "t"])
        parallel = _pipeline_config(args).parallel
        assert parallel == ParallelConfig(workers="auto")
        assert parallel.resolved_workers() == 1
        assert parallel.resolved_backend(10**9) == "serial"

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_default_run_uses_pool_and_matches_serial(
        self, trace_dir, tmp_path, monkeypatch, capsys
    ):
        import os
        import shutil

        from repro.obs.logging import configure

        # Two usable CPUs on any host, so "auto" resolves to a pool
        # even on a one-CPU runner.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        copy = tmp_path / "trace"
        copy.mkdir()
        for name in ("dns.log", "dhcp.log", "groundtruth.tsv"):
            shutil.copy(trace_dir / name, copy / name)

        def verdicts(*extra):
            code = main(["detect", str(copy), "--dimension", "8", *extra])
            assert code == 0
            captured = capsys.readouterr()
            # The timing table is the one part that differs run to run.
            head = captured.out.split("\nstage timings:")[0]
            return head, (copy / "scores.tsv").read_bytes(), captured.err

        try:
            default_out, default_scores, default_err = verdicts("-v")
            serial_out, serial_scores, serial_err = verdicts(
                "-v", "--workers", "0"
            )
        finally:
            configure(0)
        # Three non-empty views draw >= 3 x 400k samples, above the 1M
        # serial-fallback floor, so the default run trains in the pool.
        assert "event=views_trained" in default_err
        assert "backend=process" in default_err
        assert "views_trained" not in serial_err
        assert default_out == serial_out
        assert default_scores == serial_scores


class TestSimulate:
    def test_writes_all_artifacts(self, trace_dir):
        assert (trace_dir / "dns.log").exists()
        assert (trace_dir / "dhcp.log").exists()
        assert (trace_dir / "groundtruth.tsv").exists()

    def test_deterministic_for_seed(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        main(["simulate", str(dir_a), "--seed", "9", "--days", "0.5"])
        main(["simulate", str(dir_b), "--seed", "9", "--days", "0.5"])
        assert (dir_a / "dns.log").read_text() == (dir_b / "dns.log").read_text()


class TestStats:
    def test_prints_summary(self, trace_dir, capsys):
        assert main(["stats", str(trace_dir)]) == 0
        output = capsys.readouterr().out
        assert "total queries" in output
        assert "unique e2LDs" in output

    def test_profile_flag(self, trace_dir, capsys):
        assert main(["stats", str(trace_dir), "--profile"]) == 0
        output = capsys.readouterr().out
        assert "00:00" in output and "23:00" in output


class TestDetect:
    def test_scores_written_and_ranked(self, trace_dir, capsys):
        assert main(["detect", str(trace_dir), "--dimension", "8"]) == 0
        output = capsys.readouterr().out
        assert "top suspects" in output
        scores_file = trace_dir / "scores.tsv"
        assert scores_file.exists()
        values = [
            float(line.split("\t")[1])
            for line in scores_file.read_text().splitlines()
        ]
        assert values == sorted(values, reverse=True)

    def test_missing_groundtruth_fails_cleanly(self, trace_dir, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "dns.log").write_text(
            (trace_dir / "dns.log").read_text()
        )
        assert main(["detect", str(bare)]) == 2


class TestCluster:
    def test_prints_annotated_clusters(self, trace_dir, capsys):
        assert main(["cluster", str(trace_dir), "--dimension", "8"]) == 0
        output = capsys.readouterr().out
        assert "clusters" in output
        assert "stage timings:" in output
        assert "pipeline.cluster" in output


class TestDescribe:
    def test_prints_stage_graph(self, capsys):
        assert main(["describe"]) == 0
        output = capsys.readouterr().out
        for stage in (
            "ingest", "prune", "project", "embed", "classify", "cluster",
        ):
            assert f"pipeline.{stage}" in output
        assert "graphs.pruned" in output
        assert "supersedes ingest" in output

    def test_reports_checkpoint_restorability(self, tmp_path, capsys):
        assert main(["describe", "--checkpoint-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "checkpoint: none" in output
        assert "none found" in output

    def test_reports_old_schema_checkpoint_as_unusable(self, tmp_path, capsys):
        stage = tmp_path / "01-prune"
        stage.mkdir()
        (stage / "manifest.json").write_text(
            '{"schema_version": 1, "stage": "prune", "files": {}}'
        )
        assert main(["describe", "--checkpoint-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "checkpoint: unusable" in output
        assert "schema version 1" in output
        assert "latest stage is 'prune'" in output


class TestChunkedIngestion:
    @pytest.fixture()
    def fresh_trace(self, trace_dir, tmp_path):
        # Private copy of the simulated trace so scores.tsv from other
        # tests (or other runs here) can't leak across assertions.
        import shutil

        copy = tmp_path / "trace"
        copy.mkdir()
        for name in ("dns.log", "dhcp.log", "groundtruth.tsv"):
            shutil.copy(trace_dir / name, copy / name)
        return copy

    def test_parser_accepts_ingest_flags(self):
        args = build_parser().parse_args(
            ["detect", "t", "--chunk-records", "500",
             "--chunk-seconds", "3600", "--checkpoint-dir", "ck", "--resume"]
        )
        assert args.chunk_records == 500
        assert args.chunk_seconds == 3600.0
        assert args.checkpoint_dir == "ck"
        assert args.resume

    @pytest.mark.parametrize("command", ["detect", "cluster"])
    def test_resume_without_checkpoint_dir_exits_2(
        self, command, fresh_trace, capsys
    ):
        assert main([command, str(fresh_trace), "--resume"]) == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "cluster"])
    def test_refused_resume_exits_2(
        self, command, fresh_trace, tmp_path, capsys
    ):
        # A checkpoint written under another configuration fails
        # verification: one line on stderr, no traceback, exit 2.
        args = [str(fresh_trace), "--chunk-records", "700",
                "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(["detect", *args, "--dimension", "8"]) == 0
        capsys.readouterr()
        code = main([command, *args, "--dimension", "16", "--resume"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro-dns {command}: checkpoint:")
        assert "different pipeline configuration" in err
        assert err.count("\n") == 1

    def test_bad_chunk_records_exits_2(self, fresh_trace, capsys):
        code = main(["detect", str(fresh_trace), "--chunk-records", "0"])
        assert code == 2
        assert "--chunk-records" in capsys.readouterr().err

    @pytest.mark.slow
    def test_chunked_scores_match_monolithic(self, fresh_trace, capsys):
        assert main(["detect", str(fresh_trace), "--dimension", "8"]) == 0
        monolithic = (fresh_trace / "scores.tsv").read_bytes()
        (fresh_trace / "scores.tsv").unlink()
        code = main(
            ["detect", str(fresh_trace), "--dimension", "8",
             "--chunk-records", "700"]
        )
        assert code == 0
        assert (fresh_trace / "scores.tsv").read_bytes() == monolithic

    @pytest.mark.slow
    def test_detect_resume_reuses_checkpoints(
        self, fresh_trace, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        base = ["detect", str(fresh_trace), "--dimension", "8",
                "--chunk-records", "700", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        capsys.readouterr()
        first = (fresh_trace / "scores.tsv").read_bytes()
        assert main(base + ["--resume"]) == 0
        assert "resumed from checkpoint stage" in capsys.readouterr().err
        assert (fresh_trace / "scores.tsv").read_bytes() == first

    @pytest.mark.slow
    def test_cluster_supports_chunked_path(self, fresh_trace, capsys):
        def cluster_lines(*extra):
            code = main(["cluster", str(fresh_trace), "--dimension", "8",
                         *extra])
            assert code == 0
            # The timing table is the one part that differs run to run.
            return capsys.readouterr().out.split("\nstage timings:")[0]

        chunked = cluster_lines("--chunk-records", "700")
        assert "clusters" in chunked
        # The chunk size bounds memory only: the flagless run prints the
        # same clusters, member for member.
        assert cluster_lines() == chunked


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestBadInputPaths:
    @pytest.mark.parametrize("command", ["stats", "detect", "cluster"])
    def test_missing_tracedir_exits_nonzero(self, command, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main([command, str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "detect", "cluster"])
    def test_dir_without_dns_log_exits_nonzero(self, command, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([command, str(empty)]) == 2
        assert "no dns.log" in capsys.readouterr().err

    def test_simulate_outdir_collides_with_file(self, tmp_path, capsys):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        assert main(["simulate", str(target)]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestSaveModel:
    def test_detect_publishes_matching_model(self, trace_dir, tmp_path, capsys):
        from repro.serve import DomainScorer, ModelRegistry

        registry_dir = tmp_path / "models"
        code = main(
            ["detect", str(trace_dir), "--dimension", "8",
             "--save-model", str(registry_dir)]
        )
        assert code == 0
        assert "published model v0001" in capsys.readouterr().out
        registry = ModelRegistry(registry_dir)
        assert registry.versions() == [1]
        scorer = DomainScorer(registry.load(1), cache_size=0)
        rows = [
            line.split("\t")
            for line in (trace_dir / "scores.tsv").read_text().splitlines()
        ]
        assert scorer.known_domains == len(rows)
        # The published bundle answers with the scores detect printed
        # (scores.tsv rounds to 6 decimals; batch on both sides).
        verdicts = scorer.score_batch([domain for domain, __ in rows])
        for verdict, (domain, score_text) in zip(verdicts, rows):
            assert verdict.known is True
            assert verdict.score == pytest.approx(
                float(score_text), abs=5e-7
            )

    def test_detect_bad_save_model_path_exits_2(
        self, trace_dir, tmp_path, capsys
    ):
        occupied = tmp_path / "occupied"
        occupied.write_text("not a directory")
        code = main(
            ["detect", str(trace_dir), "--save-model", str(occupied)]
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_detect_missing_save_model_parent_exits_2(
        self, trace_dir, tmp_path, capsys
    ):
        missing = tmp_path / "no" / "such" / "registry"
        code = main(
            ["detect", str(trace_dir), "--save-model", str(missing)]
        )
        assert code == 2
        assert "parent directory does not exist" in capsys.readouterr().err

    def test_cluster_save_model_requires_groundtruth(
        self, trace_dir, tmp_path, capsys
    ):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "dns.log").write_text((trace_dir / "dns.log").read_text())
        code = main(
            ["cluster", str(bare), "--save-model", str(tmp_path / "models")]
        )
        assert code == 2
        assert "requires groundtruth.tsv" in capsys.readouterr().err


class TestServeCommand:
    def test_missing_registry_exits_2(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_registry_path_is_file_exits_2(self, tmp_path, capsys):
        occupied = tmp_path / "occupied"
        occupied.write_text("x")
        assert main(["serve", str(occupied)]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_registry_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["serve", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no published model versions" in err
        assert "detect --save-model" in err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--max-inflight", "0"], "max_inflight"),
            (["--queue-depth", "-1"], "queue_depth"),
            (["--cache-size", "-1"], "cache_size"),
            (["--deadline-ms", "0"], "deadline_seconds"),
            (["--port", "70000"], "port"),
            (["--host", "  "], "host"),
            (["--deadline-ms", "nan"], "deadline_seconds"),
            (["--deadline-ms", "inf"], "deadline_seconds"),
        ],
    )
    def test_bad_hardening_flags_exit_2(
        self, make_bundle, tmp_path, capsys, flags, message
    ):
        from repro.serve import ModelRegistry

        registry_dir = tmp_path / "models"
        ModelRegistry(registry_dir).publish(make_bundle(seed=1))
        assert main(["serve", str(registry_dir), *flags]) == 2
        assert message in capsys.readouterr().err


class TestObservability:
    def test_detect_metrics_out_writes_stage_snapshot(self, trace_dir, capsys):
        import json

        metrics_path = trace_dir / "metrics.json"
        assert (
            main(
                ["detect", str(trace_dir), "--dimension", "8",
                 "--metrics-out", str(metrics_path)]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "stage timings:" in output
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema_version"] == 1
        for stage in (
            "pipeline.ingest", "pipeline.prune", "pipeline.project",
            "pipeline.embed", "pipeline.classify",
        ):
            assert f"stage.{stage}.seconds" in snapshot["histograms"]
            assert f"stage.{stage}.calls" in snapshot["counters"]
            assert snapshot["histograms"][f"stage.{stage}.seconds"]["count"] >= 1

    def test_verbose_flag_emits_structured_logs(self, trace_dir, capsys):
        assert main(["stats", str(trace_dir), "-v"]) == 0
        # -v routes repro.* INFO logs to stderr as logfmt.
        from repro.obs.logging import configure

        configure(0)  # restore quiet default for other tests
        assert main(["detect", str(trace_dir), "--dimension", "8", "-v"]) == 0
        err = capsys.readouterr().err
        assert "event=pipeline_done" in err
        assert "level=info" in err
        configure(0)
