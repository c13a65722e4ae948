"""Golden scripted-schedule corpus: rounds vs events, byte for byte.

The strongest form of the round-emulation promise: feed *the same
explicit activation script* (a :class:`ScriptedScheduler`) to both
engines and require byte-identical traces, bit streams and final
configurations — then pin the whole run shape with a stored CRC so a
behaviour change in **either** engine trips the corpus, not just a
divergence between them.

The corpus lives beside the matrix regression seeds in
``tests/verify/seeds.json`` under the ``event_script_corpus`` key.
Regenerate after an intentional engine/builder change with::

    PYTHONPATH=src:. python - <<'PY'
    import json, pathlib
    from tests.events import test_script_differential as tsd
    entries = []
    for protocol in tsd.PROTOCOLS:
        for seed in (3, 17):
            run, steps = tsd.build_twin(protocol, seed, "rounds")
            entries.append({
                "protocol": protocol, "seed": seed, "size": run.size,
                "steps": steps, "crc": tsd.run_crc(run, steps),
            })
    path = pathlib.Path("tests/verify/seeds.json")
    corpus = json.loads(path.read_text())
    corpus[tsd.CORPUS_KEY] = entries
    path.write_text(json.dumps(corpus, indent=2) + "\n")
    PY
"""

from __future__ import annotations

import json
import pathlib
import random
import zlib
from typing import List

import pytest

from repro.model.scheduler import ScriptedScheduler
from repro.verify.engine import _received_fingerprint, _trace_fingerprint, drive
from repro.verify.monitors import attach
from repro.verify.scenarios import CELLS, PROTOCOLS, build_run

pytestmark = [pytest.mark.events, pytest.mark.verify]

_CORPUS_PATH = pathlib.Path(__file__).parent.parent / "verify" / "seeds.json"
CORPUS_KEY = "event_script_corpus"

#: Protocols whose correctness argument assumes every robot is
#: activated every instant — their scripts are full-activation; the
#: async protocols get seeded *partial* activation sets instead.
FULL_ACTIVATION = frozenset(
    {"sync_two", "sync_granular", "sync_logk", "flocking", "lattice_square", "lattice_hex"}
)


def _corpus():
    with open(_CORPUS_PATH) as handle:
        return json.load(handle)


def _entries():
    return _corpus().get(CORPUS_KEY, [])


def make_script(protocol: str, seed: int, size: int, length: int) -> List[frozenset]:
    """The deterministic activation script of one corpus run."""
    if protocol in FULL_ACTIVATION:
        return [frozenset(range(size))] * length
    rng = random.Random(88_000_017 * seed + size)
    script: List[frozenset] = []
    for _ in range(length):
        active = frozenset(i for i in range(size) if rng.random() < 0.6)
        if not active:
            active = frozenset([rng.randrange(size)])
        script.append(active)
    return script


def build_twin(protocol: str, seed: int, engine: str):
    """Build and drive one scripted run on one engine."""
    cell = CELLS[(protocol, "synchronous")]
    # The swarm size is drawn from the cell's own seeded blueprint
    # (independent of the scheduler), so a throwaway build reveals the
    # size the script must cover.
    size = build_run(cell, seed, quick=True).size
    # drive() runs at most quick_steps plus the 4-instant cooldown;
    # a little headroom keeps the script from ever exhausting.
    script = make_script(protocol, seed, size, cell.quick_steps + 8)
    run = build_run(
        cell,
        seed,
        quick=True,
        engine=engine,
        scheduler_factory=lambda: ScriptedScheduler(script),
    )
    assert run.size == size
    attach(run.sim, run.monitors)
    steps = drive(run)
    return run, steps


def run_crc(run, steps: int) -> int:
    """CRC of the full observable run shape (exact float coordinates).

    ``repr(float)`` is the shortest round-tripping form, so the blob —
    unlike ``Vec2.__repr__``'s display precision — pins positions
    exactly.
    """
    trace = [
        (
            step.time,
            tuple(sorted(step.active)),
            tuple((p.x, p.y) for p in step.positions),
        )
        for step in run.sim.trace.steps
    ]
    final = tuple((p.x, p.y) for p in run.sim.positions)
    blob = repr((steps, run.size, trace, _received_fingerprint(run), final))
    return zlib.crc32(blob.encode("ascii"))


class TestCorpusShape:
    def test_corpus_covers_every_protocol_at_both_seeds(self):
        pairs = {(e["protocol"], e["seed"]) for e in _entries()}
        assert pairs == {(p, s) for p in PROTOCOLS for s in (3, 17)}

    def test_async_scripts_are_genuinely_partial_but_never_empty(self):
        for protocol in ("async_two", "async_n"):
            script = make_script(protocol, seed=3, size=5, length=24)
            assert any(len(step) < 5 for step in script)
            assert all(step for step in script)

    def test_full_activation_scripts_for_synchronous_protocols(self):
        script = make_script("sync_two", seed=3, size=4, length=6)
        assert script == [frozenset(range(4))] * 6


@pytest.mark.parametrize(
    "entry",
    _entries(),
    ids=lambda e: f"{e['protocol']}-s{e['seed']}",
)
def test_scripted_golden_replay_is_byte_identical(entry):
    rounds, r_steps = build_twin(entry["protocol"], entry["seed"], "rounds")
    events, e_steps = build_twin(entry["protocol"], entry["seed"], "events")
    assert rounds.size == events.size == entry["size"]
    assert r_steps == e_steps == entry["steps"]
    assert _trace_fingerprint(rounds) == _trace_fingerprint(events)
    assert _received_fingerprint(rounds) == _received_fingerprint(events)
    assert tuple(rounds.sim.positions) == tuple(events.sim.positions)
    assert rounds.sim.epoch == events.sim.epoch
    # The stored CRC pins the run itself, not just engine agreement.
    assert run_crc(rounds, r_steps) == entry["crc"]
    assert run_crc(events, e_steps) == entry["crc"]
