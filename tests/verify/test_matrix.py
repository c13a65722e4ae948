"""Property tests over the protocol x adversary matrix.

Two layers:

* the **corpus replay** (fast, always on): the regression seeds in
  ``seeds.json`` must stay clean *and* reproduce the exact same swarm
  size and run length — any drift in the seeded builders would silently
  invalidate every recorded reproduction recipe;
* the **wide fan** (``slow`` marker): every executable cell under
  >= 20 fresh seeds, the CI/nightly version of
  ``python -m repro.verify --seeds 20``.

Regenerate the corpus (after an intentional builder change) with::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.verify.scenarios import CELLS
    from repro.verify.engine import run_cell
    entries = []
    for (p, s), cell in sorted(CELLS.items()):
        for seed in (3, 17):
            r = run_cell(cell, seed, minimize=False)
            assert r.ok, (p, s, seed)
            entries.append({"protocol": p, "scheduler": s, "seed": seed,
                            "size": r.size, "steps": r.steps})
    corpus = json.load(open("tests/verify/seeds.json"))
    corpus["entries"] = entries
    json.dump(corpus, open("tests/verify/seeds.json", "w"), indent=2)
    PY
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.verify.engine import run_cell, run_matrix
from repro.verify.scenarios import CELLS, PROTOCOLS, SCHEDULERS, SKIPS

pytestmark = pytest.mark.verify

_CORPUS_PATH = pathlib.Path(__file__).parent / "seeds.json"


def _corpus():
    with _CORPUS_PATH.open() as handle:
        return json.load(handle)


def _corpus_entries():
    return [
        pytest.param(e, id=f"{e['protocol']}-{e['scheduler']}-s{e['seed']}")
        for e in _corpus()["entries"]
    ]


class TestMatrixShape:
    def test_matrix_tiles_the_grid(self):
        grid = {(p, s) for p in PROTOCOLS for s in SCHEDULERS}
        assert set(CELLS) | set(SKIPS) == grid
        assert not set(CELLS) & set(SKIPS)

    def test_every_skip_has_a_reason(self):
        assert all(isinstance(reason, str) and reason for reason in SKIPS.values())

    def test_corpus_covers_every_executable_cell(self):
        covered = {(e["protocol"], e["scheduler"]) for e in _corpus()["entries"]}
        assert covered == set(CELLS)


class TestCorpusReplay:
    @pytest.mark.parametrize("entry", _corpus_entries())
    def test_seed_stays_clean_and_reproducible(self, entry):
        cell = CELLS[(entry["protocol"], entry["scheduler"])]
        result = run_cell(cell, entry["seed"], minimize=False)
        assert result.error is None, result.error
        assert result.violations == []
        # Reproducibility: the recorded repro recipe must still mean
        # the same run.
        assert result.size == entry["size"]
        assert result.steps == entry["steps"]


@pytest.mark.slow
class TestWideFan:
    """The full adversarial sweep: every protocol x scheduler x 20+ seeds."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_clean_under_all_adversaries(self, protocol):
        report = run_matrix(
            protocols=[protocol], seeds=range(100, 122), minimize=False
        )
        assert report.ok, report.format()


class TestTransparencyHarness:
    def test_transparency_catches_an_injected_divergence(self, monkeypatch):
        # Sanity for the A/B harness itself: corrupt the uncached twin
        # and the transparency invariant must fire.
        import repro.verify.engine as engine

        original = engine.build_run

        def corrupting(cell, seed, *, caching=True, **kwargs):
            run = original(cell, seed, caching=caching, **kwargs)
            if not caching:
                run.sim.protocol_of(0).send_bit(1, 1)  # extra traffic
            return run

        monkeypatch.setattr(engine, "build_run", corrupting)
        cell = CELLS[("sync_granular", "synchronous")]
        result = engine.run_cell(cell, seed=3, minimize=False)
        assert any(v.invariant == "transparency" for v in result.violations)
