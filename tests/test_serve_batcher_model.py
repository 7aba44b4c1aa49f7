"""Model-based randomized testing of :class:`DynamicBatcher`.

The production batcher is a state machine over explicit ``now`` and
``idle`` values, which makes it perfectly replayable: this test drives it
with seeded random event sequences (interleaved ``add``/``poll`` calls on
a non-decreasing virtual timeline, random ``max_batch``/``max_delay_s``
knobs per case) and checks every step against ``ModelBatcher``, a naive
reimplementation of the policy kept deliberately simple enough to audit
by eye.  Every seed runs twice: with ``idle=False`` on every event (the
classic two-trigger machine, the schedules this file has always run) and
with a random ``idle`` input on each event (the work-conserving machine).

Invariants, checked after every event and at the final forced flush:

* **agreement** — the real batcher emits exactly the flushes the model
  predicts (same request ids, same order, same cause);
* **no drop / no duplicate** — every added request appears in exactly
  one flush by the end;
* **no deadline overrun** — whenever an event observes the batcher at
  time ``now``, no request is left pending past its batch's deadline;
* **deadline bookkeeping** — ``next_deadline()`` is ``None`` iff nothing
  is pending, else ``oldest arrival + max_delay_s``;
* **work conservation** — nothing is ever pending after an event that
  observed ``idle=True`` (a free worker and an empty request queue).

On failure the test *shrinks by seed-prefix replay*: it re-runs the same
seed with ever-shorter event prefixes to find the minimal failing
prefix, then reports the seed, the knobs, and the exact event list —
paste them into ``_run_case`` to reproduce (docs/TESTING.md).
"""

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core.tensor import FeatureMap
from repro.serve.batcher import (
    FLUSH_DEADLINE,
    FLUSH_FORCED,
    FLUSH_IDLE,
    FLUSH_SIZE,
    DynamicBatcher,
)
from repro.serve.queue import InferenceRequest

#: Number of seeded cases; each is an independent random schedule.
CASES = 40

#: One shared dummy frame — the batcher never looks inside it.
_FRAME = FeatureMap(np.zeros((1, 1, 1), dtype=np.float32))

#: (kind, now, idle) event rows; kind is "add" or "poll", idle is what the
#: caller observed: a free worker and nothing more queued.
Event = Tuple[str, float, bool]

#: Share of events that observe ``idle=True`` in the idle-input schedules.
IDLE_RATE = 0.3


class ModelBatcher:
    """The three-trigger policy, written the naive way: a list and an if."""

    def __init__(self, max_batch: int, max_delay_s: float) -> None:
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.pending: List[Tuple[int, float]] = []  # (request id, arrival)

    def oldest(self) -> Optional[float]:
        return self.pending[0][1] if self.pending else None

    def _take(self) -> List[int]:
        ids = [rid for rid, _ in self.pending]
        self.pending = []
        return ids

    def add(self, rid: int, now: float, idle: bool):
        self.pending.append((rid, now))
        if len(self.pending) >= self.max_batch:
            return self._take(), FLUSH_SIZE
        if now >= self.pending[0][1] + self.max_delay_s:
            return self._take(), FLUSH_DEADLINE
        if idle:
            return self._take(), FLUSH_IDLE
        return None

    def poll(self, now: float, idle: bool):
        if self.pending and now >= self.pending[0][1] + self.max_delay_s:
            return self._take(), FLUSH_DEADLINE
        if self.pending and idle:
            return self._take(), FLUSH_IDLE
        return None

    def flush(self):
        if not self.pending:
            return None
        return self._take(), FLUSH_FORCED


def _generate(seed: int, idle_rate: float = 0.0):
    """One random case: knobs plus a non-decreasing event schedule.

    The idle input is drawn from its own stream, so a seed's knobs, kinds
    and times are the same schedule at every *idle_rate*.
    """
    rng = np.random.default_rng((20180621, seed))
    idle_rng = np.random.default_rng((20180621, seed, 1))
    max_batch = int(rng.integers(1, 7))
    max_delay_s = float(rng.choice([0.0, 0.001, 0.005, 0.02]))
    steps = [0.0, 0.0005, 0.001, 0.004, 0.01, 0.03]
    events: List[Event] = []
    now = 0.0
    for _ in range(int(rng.integers(20, 120))):
        now += float(rng.choice(steps))
        kind = "add" if rng.random() < 0.7 else "poll"
        events.append((kind, now, bool(idle_rng.random() < idle_rate)))
    return max_batch, max_delay_s, events


def _run_case(
    max_batch: int, max_delay_s: float, events: List[Event]
) -> Optional[str]:
    """Replay one schedule; returns a failure description or None."""
    real = DynamicBatcher(max_batch, max_delay_s)
    model = ModelBatcher(max_batch, max_delay_s)
    added: List[int] = []
    flushed: List[int] = []

    def describe_flush(flush):
        if flush is None:
            return None
        return [r.id for r in flush.requests], flush.cause

    def check(step, kind, now, idle, got, want) -> Optional[str]:
        if got != want:
            return (
                f"step {step} ({kind} @ {now:g}): "
                f"batcher flushed {got}, model expected {want}"
            )
        if got is not None:
            flushed.extend(got[0])
        if idle and real.pending:
            return (
                f"step {step} ({kind} @ {now:g}): {real.pending} request(s) "
                f"left pending behind a free worker"
            )
        # No pending request may sit past its deadline at an observation.
        deadline = real.next_deadline()
        if real.pending == 0:
            if deadline is not None:
                return f"step {step}: empty batcher reports deadline {deadline}"
        else:
            if deadline != model.oldest() + max_delay_s:
                return (
                    f"step {step}: next_deadline() == {deadline}, "
                    f"expected {model.oldest() + max_delay_s}"
                )
            if now >= deadline:
                return (
                    f"step {step}: request pending past its deadline "
                    f"({now:g} >= {deadline:g})"
                )
        return None

    for step, (kind, now, idle) in enumerate(events):
        if kind == "add":
            rid = len(added)
            added.append(rid)
            request = InferenceRequest(rid, _FRAME, now)
            got = describe_flush(real.add(request, now, idle))
            want = model.add(rid, now, idle)
        else:
            got = describe_flush(real.poll(now, idle))
            want = model.poll(now, idle)
        error = check(step, kind, now, idle, got, want)
        if error:
            return error

    got, want = describe_flush(real.flush()), model.flush()
    if got != want:
        return f"final flush: batcher flushed {got}, model expected {want}"
    if got is not None:
        flushed.extend(got[0])
    if flushed != added:
        dropped = sorted(set(added) - set(flushed))
        dupes = sorted({r for r in flushed if flushed.count(r) > 1})
        return (
            f"request conservation violated: dropped={dropped} "
            f"duplicated={dupes} (flushed {flushed}, added {added})"
        )
    return None


def _shrink(seed: int, idle_rate: float = 0.0) -> str:
    """Find the minimal failing event prefix of *seed*'s schedule."""
    max_batch, max_delay_s, events = _generate(seed, idle_rate)
    shortest = events
    for length in range(1, len(events) + 1):
        if _run_case(max_batch, max_delay_s, events[:length]) is not None:
            shortest = events[:length]
            break
    error = _run_case(max_batch, max_delay_s, shortest)
    return (
        f"seed={seed} idle_rate={idle_rate} max_batch={max_batch} "
        f"max_delay_s={max_delay_s} "
        f"minimal prefix ({len(shortest)}/{len(events)} events): "
        f"{shortest!r}\n{error}"
    )


class TestBatcherAgainstModel:
    @pytest.mark.parametrize("seed", range(CASES))
    def test_random_schedule_matches_model(self, seed):
        # idle=False on every event: the two-trigger machine.
        max_batch, max_delay_s, events = _generate(seed)
        assert not any(idle for _, _, idle in events)
        if _run_case(max_batch, max_delay_s, events) is not None:
            pytest.fail(_shrink(seed), pytrace=False)

    @pytest.mark.parametrize("seed", range(CASES))
    def test_random_idle_schedule_matches_model(self, seed):
        max_batch, max_delay_s, events = _generate(seed, IDLE_RATE)
        if _run_case(max_batch, max_delay_s, events) is not None:
            pytest.fail(_shrink(seed, IDLE_RATE), pytrace=False)

    def test_idle_input_leaves_the_rest_of_the_schedule_alone(self):
        for seed in range(CASES):
            plain, with_idle = _generate(seed), _generate(seed, IDLE_RATE)
            assert plain[:2] == with_idle[:2]
            assert [e[:2] for e in plain[2]] == [e[:2] for e in with_idle[2]]

    def test_schedules_exercise_every_flush_cause(self):
        # Meta-check: the generator actually reaches every cause
        # (otherwise the model agreement would be vacuous for some).
        classic = {FLUSH_SIZE, FLUSH_DEADLINE, FLUSH_FORCED}
        for idle_rate, expected in (
            (0.0, classic),
            (IDLE_RATE, classic | {FLUSH_IDLE}),
        ):
            causes = set()
            for seed in range(CASES):
                max_batch, max_delay_s, events = _generate(seed, idle_rate)
                real = DynamicBatcher(max_batch, max_delay_s)
                for i, (kind, now, idle) in enumerate(events):
                    flush = (
                        real.add(InferenceRequest(i, _FRAME, now), now, idle)
                        if kind == "add"
                        else real.poll(now, idle)
                    )
                    if flush is not None:
                        causes.add(flush.cause)
                final = real.flush()
                if final is not None:
                    causes.add(final.cause)
            assert causes == expected

    def test_shrinker_reports_minimal_prefix(self, monkeypatch):
        # Sabotage the generator's schedule length knowledge by checking
        # the shrinker on a hand-made failure: a model that disagrees at
        # event 3 must be pinned to a 4-event prefix, not the full run.
        events = [
            ("add", 0.0, False),
            ("poll", 0.0, False),
            ("add", 0.1, False),
            ("add", 0.2, False),
        ]

        def fake_generate(seed, idle_rate=0.0):
            return 10, 5.0, events  # never flushes by itself

        broken = _run_case(10, 5.0, events)
        assert broken is None  # sanity: the real batcher is fine here

        def broken_run(max_batch, max_delay_s, evs):
            return "injected" if len(evs) >= 3 else None

        monkeypatch.setattr(
            "tests.test_serve_batcher_model._generate", fake_generate
        )
        monkeypatch.setattr(
            "tests.test_serve_batcher_model._run_case", broken_run
        )
        message = _shrink(seed=0)
        assert "3/4 events" in message
        assert "injected" in message
