"""Unit tests for the experiment CLI."""

import json

import pytest

from repro.cli import EXPERIMENTS, _parse_overrides, _parse_value, main
from repro.runner import ENV_SERIAL, ENV_WORKERS, default_workers


def test_parse_value_types():
    assert _parse_value("3") == 3
    assert _parse_value("3.5") == 3.5
    assert _parse_value("true") is True
    assert _parse_value("hello") == "hello"


def test_parse_overrides():
    assert _parse_overrides(["a=1", "b=x"]) == {"a": 1, "b": "x"}
    with pytest.raises(SystemExit):
        _parse_overrides(["broken"])


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENTS:
        assert exp_id in out


def test_run_single(capsys):
    assert main(["run", "FIG2"]) == 0
    out = capsys.readouterr().out
    assert "FIG2" in out
    assert "transit_per_mbps_usd" in out


def test_run_case_insensitive(capsys):
    assert main(["run", "fig2b"]) == 0
    assert "monthly_bill_usd" in capsys.readouterr().out


def test_run_with_override(capsys):
    assert main(["run", "FIG2b", "--arg", "p2p_traffic_mbps=100"]) == 0
    assert "100" in capsys.readouterr().out


def test_unknown_id_rejected():
    with pytest.raises(SystemExit):
        main(["run", "FIG99"])


def test_bad_override_kw_rejected():
    with pytest.raises(SystemExit):
        main(["run", "FIG2", "--arg", "bogus_kw=1"])


def _trace_json(out: str) -> dict:
    return json.loads(out[out.index("--- FIG6 trace ---"):].split("\n", 1)[1])


def test_trace_prints_a_stable_digest_and_tally(capsys, monkeypatch):
    # FIG6 is the cheapest id that builds a Simulation and a MessageBus
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    monkeypatch.delenv(ENV_SERIAL, raising=False)
    runs = []
    for _ in range(2):
        assert main(["run", "FIG6", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "=== FIG6" in out  # the table still comes first
        runs.append(_trace_json(out))
    assert runs[0]["digest"] == runs[1]["digest"]
    assert runs[0]["emitted"] == sum(runs[0]["counts"].values()) > 0
    assert runs[0]["counts"]["bus.send"] > 0


def test_trace_refuses_parallel_workers(monkeypatch):
    monkeypatch.delenv(ENV_SERIAL, raising=False)
    configured = default_workers()
    with pytest.raises(SystemExit, match="--trace.*REPRO_RUNNER_WORKERS"):
        main(["run", "FIG6", "--trace", "--workers", "2"])
    assert default_workers() == configured  # refused before configuring
    monkeypatch.setenv(ENV_WORKERS, "2")
    with pytest.raises(SystemExit, match="--workers"):
        main(["run", "FIG6", "--trace"])
