"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mc400" in out
    assert "P1g+P1h+P2g+P2h" in out


def test_run_native(capsys):
    assert main(["run", "mcf", "--config", "p1+p2",
                 "--trace-length", "3000"]) == 0
    out = capsys.readouterr().out
    assert "avg walk latency" in out
    assert "prefetches" in out


def test_run_virtualized(capsys):
    assert main(["run", "mcf", "--config", "full", "--virtualized",
                 "--trace-length", "2000"]) == 0
    out = capsys.readouterr().out
    assert "virtualized=True" in out


def test_run_rejects_guest_config_without_virt(capsys):
    assert main(["run", "mcf", "--config", "p1g",
                 "--trace-length", "2000"]) == 2


def test_experiment_command(capsys):
    assert main(["experiment", "table2", "--trace-length", "2000"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_experiment_unknown(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "nonexistent"])


def test_validate_command(capsys):
    assert main(["validate", "--trace-length", "4000"]) in (0, 1)
    out = capsys.readouterr().out
    assert "shapes hold" in out


def test_mt_command(capsys):
    assert main(["mt", "--trace-length", "1200", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Multi-tenant (native)" in out
    assert "isolated" in out
    assert "ASID retention benefit" in out


def test_list_mentions_mixes(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mix-server" in out


def test_zero_trace_length_is_an_argparse_error():
    # A zero-length sweep previously ran "successfully" and printed
    # all-zero tables; every --trace-length is now a positive int.
    for argv in (["run", "mcf", "--trace-length", "0"],
                 ["mt", "--trace-length", "0"],
                 ["compare", "--trace-length", "-5"],
                 ["scaling", "--trace-length", "0"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


@pytest.mark.parametrize("command", ["compare", "scaling"])
def test_kernel_is_not_an_option(command, capsys):
    # Native cells compile by default; no command selects a kernel.
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "--kernel", "scalar"])
    assert exit_info.value.code == 2
    assert "--kernel" in capsys.readouterr().err


def test_trace_materialize_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["trace", "materialize", "bogus", "--records", "100",
             "--out", "/tmp/x"])


def test_trace_roundtrip_and_scaling(tmp_path, capsys):
    out = str(tmp_path / "t")
    assert main(["trace", "materialize", "mc80", "--records", "1500",
                 "--seed", "7", "--out", out]) == 0
    assert main(["trace", "info", out]) == 0
    assert "format_version" in capsys.readouterr().out
    assert main(["trace", "hash", out]) == 0
    assert "ok:" in capsys.readouterr().out
    assert main(["scaling", "--trace", out, "--no-cache"]) == 0
    table = capsys.readouterr().out
    assert "Scaling (trace" in table
    assert "baseline_pct" in table


def test_scaling_trace_uses_the_traces_own_seed(tmp_path, monkeypatch):
    # Without an explicit --seed, the replay's OS substrate must be
    # seeded like the run the trace was materialised from — not the
    # generated-ladder default of 42.
    out = str(tmp_path / "t")
    assert main(["trace", "materialize", "mcf", "--records", "1000",
                 "--seed", "7", "--out", out]) == 0
    captured = {}
    from repro.experiments import scaling

    real = scaling.jobs_for_trace

    def spy(ref, seed=None):
        jobs = real(ref, seed=seed)
        captured["seeds"] = {job.scale.seed for job in jobs}
        return jobs

    monkeypatch.setattr(scaling, "jobs_for_trace", spy)
    assert main(["scaling", "--trace", out, "--no-cache"]) == 0
    assert captured["seeds"] == {7}


def test_trace_hash_on_missing_path_is_clean(capsys):
    assert main(["trace", "hash", "/tmp/definitely-not-a-trace"]) == 2
    assert "error:" in capsys.readouterr().err


def test_scaling_command_generated(capsys):
    assert main(["scaling", "--trace-length", "600", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "convergence" in out
    assert "asap_reduction" in out
