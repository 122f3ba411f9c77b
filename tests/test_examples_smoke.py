"""Smoke tests: the fast example scripts run end-to-end and print their
headline output (guards the examples against API drift)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", capsys)
    assert "underlay:" in out
    assert "file-sharing" in out and "real-time-communication" in out
    assert "collection overhead" in out


def test_geo_poi_search(capsys):
    out = _run("geo_poi_search.py", capsys)
    assert "area query recall" in out
    assert "dispatch" in out
    assert "nearest restaurants" in out


def test_superpeer_directory(capsys):
    out = _run("superpeer_directory.py", capsys)
    assert "SkyEye root view" in out
    assert "random" in out and "capacity" in out


def test_isp_friendly_swarm(capsys):
    out = _run("isp_friendly_swarm.py", capsys)
    rows = {
        line.split()[0]: line.split()
        for line in out.splitlines()
        if line.split()[:1] in (["random"], ["biased"], ["oracle"])
    }
    assert set(rows) == {"random", "biased", "oracle"}
    transit = {k: float(v[4].rstrip("%")) for k, v in rows.items()}
    assert transit["biased"] < transit["random"]


def test_examples_directory_is_complete():
    expected = {
        "quickstart.py",
        "isp_friendly_swarm.py",
        "latency_aware_voip.py",
        "geo_poi_search.py",
        "superpeer_directory.py",
        "p2p_tv.py",
    }
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert expected <= present
