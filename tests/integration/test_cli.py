"""The command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestTables:
    def test_all_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "ResNet-50 v1.5" in out
        assert "270,336" in out
        assert "Poisson" in out

    def test_single_table(self, capsys):
        assert main(["tables", "--which", "3"]) == 0
        out = capsys.readouterr().out
        assert "latency constraints" in out
        assert "ResNet-50 v1.5" not in out


class TestRun:
    def test_single_stream(self, capsys):
        code = main([
            "run", "--task", "mobilenet-v1", "--scenario", "single-stream",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "single_stream" in out
        assert "VALID" in out

    def test_offline(self, capsys):
        assert main([
            "run", "--task", "resnet50-v1.5", "--scenario", "offline",
        ]) == 0
        assert "samples/s" in capsys.readouterr().out

    def test_server_reports_rate(self, capsys):
        assert main([
            "run", "--task", "mobilenet-v1", "--scenario", "server",
            "--peak-gops", "20000",
        ]) == 0
        assert "max server rate" in capsys.readouterr().out

    def test_impossible_server_fails_nonzero(self, capsys):
        code = main([
            "run", "--task", "resnet50-v1.5", "--scenario", "server",
            "--peak-gops", "50",
        ])
        assert code == 1
        assert "cannot meet" in capsys.readouterr().out

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--task", "bert", "--scenario", "offline"])


class TestRunParallel:
    def test_offline_on_the_worker_pool(self, capsys):
        assert main([
            "run", "--sut", "parallel", "--scenario", "offline",
            "--workers", "2", "--samples", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "samples/s" in out
        assert "pool: 2 workers" in out

    def test_single_stream_on_the_worker_pool(self, capsys):
        assert main([
            "run", "--sut", "parallel", "--scenario", "single-stream",
            "--workers", "2", "--samples", "64", "--queries", "20",
        ]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_unsupported_scenario_rejected(self, capsys):
        assert main([
            "run", "--sut", "parallel", "--scenario", "server",
        ]) == 2
        assert "parallel" in capsys.readouterr().err

    def test_the_deleted_batch_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--sut", "parallel", "--scenario", "offline",
                  "--parallel-batch", "8"])
        assert exit_.value.code == 2
        assert ("unrecognized arguments: --parallel-batch 8"
                in capsys.readouterr().err)


@pytest.mark.socket
class TestServeParallel:
    def test_serve_hosts_and_releases_the_pool(self, capsys):
        assert main([
            "serve", "--backend", "parallel", "--port", "0",
            "--model-workers", "2", "--max-seconds", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "parallel echo backend (2 procs" in out
        assert "server stats" in out


class TestFleet:
    def test_subset_survey(self, capsys):
        code = main(["fleet", "--systems", "mobile-dsp-a", "laptop-cpu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "results from 2 systems" in out
        assert "TOTAL" in out

    def test_unknown_system_rejected(self, capsys):
        assert main(["fleet", "--systems", "not-a-system"]) == 2
        assert "unknown systems" in capsys.readouterr().err


class TestCheck:
    def test_check_clean_directory(self, tmp_path, capsys):
        from repro.submission.artifacts import write_submission
        from tests.submission.test_submission import submission

        root = write_submission(submission(), tmp_path / "sub")
        assert main(["check", str(root)]) == 0
        assert "CLEARED" in capsys.readouterr().out

    def test_check_bad_directory(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 1
        assert "REJECTED" in capsys.readouterr().out


class TestSeedReachesEveryLayer:
    """``--seed`` is passed once, to the settings and to every seeded
    layer of the stack."""

    def test_metrics_stream_seed_changes_the_token_plan(self, capsys):
        import json

        def streamed_tokens(seed):
            assert main(["metrics", "--queries", "50", "--stream",
                         "--format", "json", "--seed", str(seed)]) == 0
            families = {family["name"]: family for family in
                        json.loads(capsys.readouterr().out)["metrics"]}
            (series,) = families["stream_tokens_total"]["series"]
            return series["value"]

        assert streamed_tokens(0) == streamed_tokens(0)
        assert streamed_tokens(0) != streamed_tokens(4)

    def test_parallel_seed_changes_the_sample_order(self, capsys,
                                                    monkeypatch):
        from repro.core import loadgen

        results = []
        run_benchmark = loadgen.run_benchmark

        def spy(*args, **kwargs):
            results.append(run_benchmark(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(loadgen, "run_benchmark", spy)

        def sample_order(seed):
            assert main(["run", "--sut", "parallel", "--scenario",
                         "single-stream", "--workers", "1", "--samples",
                         "64", "--queries", "12", "--seed", str(seed)]) == 0
            return [sample.index for record in results[-1].log.records()
                    for sample in record.query.samples]

        assert sample_order(0) == sample_order(0)
        assert sample_order(0) != sample_order(4)


# -- the recorded contract ---------------------------------------------------
#
# Exit code, stdout and stderr of the CLI paths that build a SUT stack from
# flags, compared byte for byte with text recorded under ``cli_contract/``
# (one readable file per case, so a behaviour change shows up as a diff).
# Every case runs on the virtual clock in well under a second.  Re-record
# with ``PYTHONPATH=src python -m tests.integration.test_cli`` - on purpose
# only, and never in the same commit as a change to what is recorded.

CONTRACT_DIR = Path(__file__).parent / "cli_contract"

_STREAM = "run --stream --task resnet50-v1.5 --scenario"
_SESSION = "run --workload session --sessions 24"
_METRICS = "metrics --queries 200"
_SWEEP = "sweep --queries 100 --qps-high 400 --resolution 100 --concurrency 2"
_SESSION_SWEEP = ("sweep --workload session --sessions 16 --qps-high 80 "
                  "--resolution 40")

CONTRACT_CASES = {
    "run_stream_server": f"{_STREAM} server",
    "run_stream_server_slo_miss":
        f"{_STREAM} server --ttft-ms 5 --tpot-ms 1 --seed 3",
    "run_stream_offline": f"{_STREAM} offline --samples 64",
    "run_stream_single_stream": f"{_STREAM} single-stream",
    "run_session": _SESSION,
    "run_session_stream": f"{_SESSION} --stream --ttft-ms 50",
    "run_session_fleet":
        f"{_SESSION} --replicas 4 --zones 2 --balancer zone-spread",
    "run_session_fleet_chaos_stream":
        f"{_SESSION} --replicas 4 --zones 2 --chaos --stream --seed 5",
    "run_session_fleet_chaos_no_detector":
        f"{_SESSION} --replicas 4 --zones 2 --chaos --no-detector",
    "run_session_fleet_chaos_trace":
        f"{_SESSION} --replicas 4 --zones 2 --chaos --trace trace.json",
    "run_session_fleet_affinity":
        f"{_SESSION} --replicas 4 --zones 2 --chaos "
        "--balancer session-affinity",
    "run_session_fleet_zone_local":
        f"{_SESSION} --replicas 4 --zones 2 --balancer zone-local",
    "run_tuned_offline": "run --task mobilenet-v1 --scenario offline",
    "run_tuned_single_stream":
        "run --task mobilenet-v1 --scenario single-stream",
    "metrics_table": _METRICS,
    "metrics_drop_breaker_outage":
        f"{_METRICS} --drop 0.05 --breaker --outage 0.1",
    "metrics_outage_unprotected": f"{_METRICS} --outage 0.1",
    "metrics_stream_json": f"{_METRICS} --stream --format json",
    "metrics_drop_prom": f"{_METRICS} --drop 0.02 --format prom --seed 4",
    "metrics_offline": f"{_METRICS} --scenario offline",
    "metrics_trace": "metrics --queries 20 --trace trace.json",
    "fleet_report":
        "fleet --systems mobile-dsp-a laptop-cpu --report report.md",
    "sweep_single": _SWEEP,
    "sweep_fleet": f"{_SWEEP} --replicas 2",
    "sweep_fleet_autoscaled_on_series":
        f"{_SWEEP} --replicas 2 --autoscale "
        "--scale-signal outstanding-series",
    "sweep_fleet_chaos_step":
        f"{_SWEEP} --replicas 2 --zones 2 --chaos --mode step --qps-low 100",
    "sweep_session_single": _SESSION_SWEEP,
    "sweep_session_fleet_chaos_autoscaled_on_misses":
        f"{_SESSION_SWEEP} --replicas 2 --zones 2 --chaos --autoscale "
        "--scale-signal cache-miss-rate --report report.json",
    # usage errors: exit 2 and one line on stderr
    "usage_session_chaos_without_replicas": "run --workload session --chaos",
    "usage_session_on_parallel": "run --workload session --sut parallel",
    "usage_run_without_scenario": "run --task resnet50-v1.5",
    "usage_stream_without_task": "run --stream --scenario server",
    "usage_device_without_task": "run --scenario server",
    "usage_network_without_addr": "run --sut network --scenario server",
    "usage_parallel_server": "run --sut parallel --scenario server",
    "usage_parallel_stream": "run --sut parallel --scenario offline --stream",
    "usage_metrics_resume_without_journal": "metrics --resume",
    "usage_sweep_autoscale_without_replicas": "sweep --autoscale",
    "usage_sweep_chaos_without_replicas": "sweep --chaos",
    "usage_sweep_miss_signal_without_sessions":
        "sweep --scale-signal cache-miss-rate",
}


def _contract_text(command, code, out, err, files):
    """One case as the text its file holds."""
    parts = [f"$ repro {command}\nexit: {code}\n",
             f"---- stdout ----\n{out}", f"---- stderr ----\n{err}"]
    for name, content in sorted(files.items()):
        parts.append(f"---- {name} ----\n{content}")
    return "".join(parts)


def _written_files(directory):
    return {p.name: p.read_text() for p in Path(directory).iterdir()}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_cli_contract(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # --trace / --report land here
    command = CONTRACT_CASES[case]
    code = main(command.split())
    captured = capsys.readouterr()
    actual = _contract_text(command, code, captured.out, captured.err,
                            _written_files(tmp_path))
    assert actual == (CONTRACT_DIR / f"{case}.txt").read_text()


def _record_contract():  # pragma: no cover - maintenance entry point
    import contextlib
    import io
    import os
    import tempfile

    CONTRACT_DIR.mkdir(exist_ok=True)
    for case, command in sorted(CONTRACT_CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as scratch:
            previous = os.getcwd()
            os.chdir(scratch)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(command.split())
                files = _written_files(scratch)
            finally:
                os.chdir(previous)
        (CONTRACT_DIR / f"{case}.txt").write_text(_contract_text(
            command, code, out.getvalue(), err.getvalue(), files))
        print(f"recorded {case} (exit {code})")


if __name__ == "__main__":
    _record_contract()
