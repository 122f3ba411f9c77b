"""Every CLI experiment's rows, pinned by digest.

One SHA-256 per :data:`repro.cli.EXPERIMENTS` id, taken over
``json.dumps(result.rows, sort_keys=True)`` and recorded in
``golden_rows.json``.  The three slow sweeps run at their CI size
(``smoke=True``); every other id runs with its defaults, exactly as
``python -m repro run <ID>`` prints it.

A change that moves a row moves its digest.  If the move is intended,
replace that id's digest in ``golden_rows.json`` with the one the
failure prints and name the experiment in the change log.

The same runs check the bus conservation law: once an experiment
returns, every :class:`~repro.sim.messages.MessageBus` it built has
delivered or dropped, for exactly one reason, every message it sent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS
from repro.sim.messages import MessageBus

GOLDEN = json.loads(Path(__file__).with_name("golden_rows.json").read_text())
SMOKE = {"RESILIENCE", "LOCALITY", "SERVICE"}


def rows_digest(exp_id: str) -> str:
    fn, _desc = EXPERIMENTS[exp_id]
    result = fn(smoke=True) if exp_id in SMOKE else fn()
    canonical = json.dumps(result.rows, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_every_experiment_is_pinned():
    assert sorted(GOLDEN) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_rows_match_golden(exp_id, monkeypatch):
    buses = []
    init = MessageBus.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        buses.append(self)

    monkeypatch.setattr(MessageBus, "__init__", recording_init)
    digest = rows_digest(exp_id)
    assert digest == GOLDEN[exp_id], f"{exp_id}: rows moved, new digest {digest}"
    for i, bus in enumerate(buses):
        s = bus.stats
        dropped = s.dropped_no_handler + s.dropped_loss + s.dropped_fault
        assert s.sent == s.delivered + dropped, (
            f"{exp_id}: bus {i} of {len(buses)} sent {s.sent}, delivered "
            f"{s.delivered}, dropped {dropped}"
        )
