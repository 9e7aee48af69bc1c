"""Shared fixtures.  The heavy zoo charts and full analyses are computed
once per session; acceptance reuses them together with their wall times.

The property tests draw the same examples on every run (hypothesis'
`derandomize`), so the suite's outcome and wall time do not move with a
fresh seed.  `--hypothesis-profile=default` runs them on random seeds
again, and `--hypothesis-seed` then picks one."""

import time

import pytest
from hypothesis import settings

from secantgeo.genericity import derive_stream
from secantgeo.jets import chart_at, second_fundamental_form
from secantgeo.polymaps import polymap_to_json
from secantgeo.quadrics import rank_profile
from secantgeo.report import AnalyzeOptions, analyze
from secantgeo.zoo import catalog


settings.register_profile("derandomized", derandomize=True)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def entries():
    return {e.name: e for e in catalog()}


@pytest.fixture(scope="session")
def charted(entries):
    """name -> (entry, jet, system, profile) for every catalog entry."""
    out = {}
    for name, ent in entries.items():
        jet = chart_at(ent.map, list(ent.base_point), 3)
        s = second_fundamental_form(jet)
        prof = rank_profile(s, derive_stream(0, name, "profile"))[0]
        out[name] = (ent, jet, s, prof)
    return out


_ANALYSES: dict = {}


@pytest.fixture(scope="session")
def analysis(entries):
    """name -> (AnalysisReport, wall seconds), cached across tests."""

    def run(name):
        if name not in _ANALYSES:
            ent = entries[name]
            t0 = time.time()
            rep = analyze(polymap_to_json(ent.map, base_point=ent.base_point),
                          AnalyzeOptions())
            _ANALYSES[name] = (rep, time.time() - t0)
        return _ANALYSES[name]

    return run
