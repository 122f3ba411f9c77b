"""Benchmark-suite configuration.

Each benchmark runs its experiment once — these are
experiment-regeneration harnesses, not micro-benchmarks — prints the same
rows the paper's figure/table reports, and asserts the qualitative shape.

``--workers N`` configures the process-wide :mod:`repro.runner` default,
fanning multi-arm sweeps (seed robustness, RESILIENCE, testlab, the
fig4/fig6 arms) out over N forked workers; rows are identical to serial.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        action="store",
        type=int,
        default=None,
        metavar="N",
        help="fan multi-arm experiment sweeps out over N worker processes "
        "for the whole benchmark session (repro.runner; rows are identical "
        "to the serial run)",
    )


def pytest_configure(config):
    workers = config.getoption("--workers")
    if workers is not None:
        from repro.runner import configure_default_workers

        configure_default_workers(workers)


@pytest.fixture()
def once():
    """Run an experiment once and return its result: the experiments are
    deterministic and expensive, and nothing here is timed — "did it get
    slower" is answered by ``bench/run.py`` + ``bench/compare.py``."""
    def _run(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return _run
