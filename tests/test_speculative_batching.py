"""Speculative batching for adaptive attacks.

An adaptive attack's next addresses change only when a response flips
its plan, and a response the attacker cannot notice (fewer than
``SWAP_VISIBLE_THRESHOLD`` physical writes) flips nothing short of the
``patience`` timeout.  The batched protocol therefore proposes a whole
run (``peek_writes``), serves it up to and including the first visible
response (``write_batch(..., stop_at_visible=True)``) and emits only the
served prefix (``advance``).  These tests pin each layer of that
protocol against its scalar oracle:

* every registered scheme's stop-at-visible ``write_batch`` equals the
  scalar ``write()`` loop that stops after the first visible response —
  counts, wear, stats and the full scheme snapshot (RNG registers
  included, so a word drawn past the served prefix fails);
* ``peek_writes``/``advance`` and ``observe_responses`` equal the
  per-call ``next_write``/``observe_response`` sequence;
* the engine never serves an address past a visible response, and
  batches the inconsistent attack into long runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.detector import SwapDetector
from repro.attacks.inconsistent import InconsistentWriteAttack
from repro.attacks.registry import make_attack
from repro.config import SecurityRefreshConfig, TWLConfig
from repro.engine import SimulationEngine
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver
from repro.wearlevel.base import SWAP_VISIBLE_THRESHOLD
from repro.wearlevel.registry import make_scheme, scheme_names

_N_PAGES = 64

#: Registered schemes at their defaults, plus dense-event variants so
#: small examples reach many toss-ups, inter-pair swaps and refreshes.
_VARIANTS = [(name, {}) for name in scheme_names()] + [
    ("twl", {"config": TWLConfig(toss_up_interval=3, inter_pair_swap_interval=11)}),
    ("twl_ap", {"config": TWLConfig(toss_up_interval=2, inter_pair_swap_interval=7)}),
    ("sr", {"config": SecurityRefreshConfig(refresh_interval=5)}),
]


def _tree_equal(left, right) -> bool:
    """Deep equality over snapshot state trees (ndarrays included)."""
    if isinstance(left, dict):
        return (
            isinstance(right, dict)
            and left.keys() == right.keys()
            and all(_tree_equal(left[key], right[key]) for key in left)
        )
    if isinstance(left, (list, tuple)):
        return (
            isinstance(right, (list, tuple))
            and len(left) == len(right)
            and all(_tree_equal(a, b) for a, b in zip(left, right))
        )
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return np.array_equal(np.asarray(left), np.asarray(right))
    return left == right


def _twins(name, kwargs, seed):
    schemes = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        array = PCMArray(rng.integers(30, 400, size=_N_PAGES))
        schemes.append(make_scheme(name, array, seed=seed, **kwargs))
    return schemes


def _oracle(scheme, batch) -> np.ndarray:
    """The scalar loop: stop after a failure or a visible response."""
    out = []
    for logical in batch:
        cost = scheme.write(int(logical))
        out.append(cost)
        if scheme.array.failed or cost >= SWAP_VISIBLE_THRESHOLD:
            break
    return np.asarray(out, dtype=np.int64)


_addresses = st.lists(
    st.one_of(st.integers(0, 5), st.integers(0, _N_PAGES - 1)),
    min_size=1,
    max_size=300,
)


@pytest.mark.parametrize(
    "name,kwargs",
    _VARIANTS,
    ids=[f"{name}{'-dense' if kwargs else ''}" for name, kwargs in _VARIANTS],
)
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    warmup=st.lists(st.integers(0, _N_PAGES - 1), max_size=400),
    addresses=_addresses,
    sizes=st.lists(st.integers(1, 120), min_size=1, max_size=12),
)
def test_stop_at_visible_matches_scalar_loop(name, kwargs, seed, warmup, addresses, sizes):
    batched, serial = _twins(name, kwargs, seed)
    logical = batched.logical_pages
    # Pre-state: the same scalar history on both twins.
    for page in warmup:
        if serial.array.failed:
            break
        batched.write(page % logical)
        serial.write(page % logical)
    pending = np.asarray(addresses, dtype=np.int64) % logical
    step = 0
    while pending.size and not serial.array.failed:
        batch = pending[: sizes[step % len(sizes)]]
        step += 1
        got = batched.write_batch(batch, stop_at_visible=True)
        want = _oracle(serial, batch)
        assert got.tolist() == want.tolist()
        assert (got[:-1] < SWAP_VISIBLE_THRESHOLD).all()
        assert np.array_equal(batched.array.write_counts(), serial.array.write_counts())
        assert batched.array.failed == serial.array.failed
        assert batched.stats() == serial.stats()
        if not serial.array.failed:
            # After a failure the run is over; only then may heuristic
            # state scanned ahead of the failing write differ.
            assert _tree_equal(batched.snapshot(), serial.snapshot())
        # The unserved tail is proposed again, as the engine re-peeks.
        pending = pending[got.size :]


# ----------------------------------------------------------------------
# Attack side: pass construction, peek/advance, batched feedback replay
# ----------------------------------------------------------------------
def _reference_pass(attack: InconsistentWriteAttack) -> list:
    """The list-building pass construction the vectorized one replaced."""
    count = attack.n_targets
    budget = attack.period_estimate
    if attack.background_scan:
        budget -= attack.n_pages - count
    scale = max(1.0, budget / (count * (count + 1) / 2))
    weights = [max(1, int(round(rank * scale))) for rank in range(1, count + 1)]
    if attack._reversed:
        weights.reverse()
    order = sorted(range(count), key=lambda i: -weights[i])
    victims = list(reversed(order[-attack.victim_count :]))
    decoys = order[: count - attack.victim_count]
    schedule: list = []
    for position in decoys:
        schedule.extend([position] * weights[position])
    if attack.background_scan:
        schedule.extend(range(count, attack.n_pages))
    for position in victims:
        schedule.extend([position] * weights[position])
    return schedule


@settings(max_examples=60, deadline=None)
@given(
    n_pages=st.integers(1, 300),
    data=st.data(),
    period=st.one_of(
        st.floats(1.0, 5e4, allow_nan=False),
        st.integers(1, 20_000).map(lambda k: k + 0.5),
    ),
    reversed_=st.booleans(),
    background_scan=st.booleans(),
)
def test_pass_matches_reference_construction(
    n_pages, data, period, reversed_, background_scan
):
    n_targets = data.draw(st.integers(1, n_pages))
    victims = data.draw(st.integers(1, n_targets))
    attack = InconsistentWriteAttack(
        n_pages,
        n_targets=n_targets,
        victim_count=victims,
        background_scan=background_scan,
    )
    attack._period_estimate = period
    attack._reversed = reversed_
    attack._build_pass()
    want = _reference_pass(attack)
    assert attack._pass_schedule == want
    assert attack._pass_array.tolist() == want


def _small_attack(patience: int, warmup: int = 8) -> InconsistentWriteAttack:
    # A short pass (about 60 writes) so runs wrap it.
    return InconsistentWriteAttack(
        40,
        n_targets=8,
        detector=SwapDetector(warmup=warmup),
        patience=patience,
        initial_period=60,
    )


#: Response times at 100 cycles per physical write: one write is the
#: fastest response there is, which is why it can never be detected.
_latencies = st.lists(
    st.sampled_from([100.0, 100.0, 100.0, 200.0, 300.0]), min_size=1, max_size=400
)


@settings(max_examples=60, deadline=None)
@given(
    patience=st.integers(1, 150),
    latencies=_latencies,
    sizes=st.lists(st.integers(1, 200), min_size=1, max_size=10),
)
def test_peek_and_advance_reproduce_next_write(patience, latencies, sizes):
    """Runs across pass wraps, pending flips and the patience cap."""
    serial = _small_attack(patience)
    speculative = _small_attack(patience)
    index = 0
    step = 0
    while index < len(latencies):
        want = sizes[step % len(sizes)]
        step += 1
        run = speculative.peek_writes(want)
        assert 1 <= run.size <= want
        # Serve up to and including the first visible response.
        served = 0
        while served < run.size and index + served < len(latencies):
            served += 1
            if latencies[index + served - 1] > 100.0:
                break
        chunk = latencies[index : index + served]
        expected = []
        for latency in chunk:
            expected.append(serial.next_write())
            serial.observe_response(latency)
        assert run[:served].tolist() == expected
        speculative.advance(served)
        speculative.observe_responses(np.asarray(chunk))
        index += served
        assert speculative.snapshot() == serial.snapshot()
    assert speculative.writes_emitted == serial.writes_emitted


def test_peek_is_capped_at_the_patience_timeout():
    attack = _small_attack(patience=30)
    assert attack.peek_writes(1000).size == 30
    attack.advance(10)
    attack.observe_responses(np.full(10, 100.0))
    assert attack.peek_writes(1000).size == 20
    # Peeking emits nothing.
    assert attack.writes_emitted == 10


def test_peek_applies_a_pending_flip_first():
    serial = _small_attack(patience=5)
    speculative = _small_attack(patience=5)
    for attack in (serial, speculative):
        attack.advance(5)
        attack.observe_responses(np.full(5, 100.0))  # timeout: flip pending
    run = speculative.peek_writes(3)
    assert run.tolist() == [serial.next_write() for _ in range(3)]
    assert speculative.reversals == serial.reversals == 1


@settings(max_examples=80, deadline=None)
@given(
    patience=st.integers(1, 60),
    warmup=st.integers(1, 12),
    latencies=st.lists(
        st.sampled_from([30.0, 100.0, 100.0, 100.0, 149.0, 151.0, 250.0]),
        max_size=120,
    ),
    split=st.integers(0, 120),
)
def test_observe_responses_equals_per_call_loop(patience, warmup, latencies, split):
    """Including detector warm-up, baseline drops and timeouts."""
    looped = _small_attack(patience, warmup=warmup)
    batched = _small_attack(patience, warmup=warmup)
    for latency in latencies:
        looped.observe_response(latency)
    array = np.asarray(latencies, dtype=np.float64)
    batched.observe_responses(array[:split])
    batched.observe_responses(array[split:])
    assert batched.snapshot() == looped.snapshot()
    assert batched.detector.detections == looped.detector.detections


def test_observe_responses_rejects_nonpositive_latency_like_the_loop():
    looped = _small_attack(patience=50)
    batched = _small_attack(patience=50)
    latencies = [100.0, 100.0, 0.0]
    with pytest.raises(ValueError):
        for latency in latencies:
            looped.observe_response(latency)
    with pytest.raises(ValueError):
        batched.observe_responses(np.array(latencies))
    assert batched.snapshot() == looped.snapshot()
    assert batched.peek_writes(0).size == 0


# ----------------------------------------------------------------------
# Engine side
# ----------------------------------------------------------------------
def _twl_inconsistent_engine(batch_size: int):
    array = PCMArray.uniform(1024, 10**9)
    scheme = make_scheme("twl", array, seed=3)
    attack = make_attack("inconsistent", scheme.logical_pages, seed=3)
    return SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size)


def test_engine_never_serves_past_a_visible_response():
    engine = _twl_inconsistent_engine(4096)
    scheme = engine.scheme
    served_batches = []
    original = scheme.write_batch

    def spy(addresses, **kwargs):
        counts = original(addresses, **kwargs)
        served_batches.append((kwargs, counts))
        return counts

    scheme.write_batch = spy
    engine.run(60_000)
    assert served_batches
    for kwargs, counts in served_batches:
        assert kwargs == {"stop_at_visible": True}
        assert (counts[:-1] < SWAP_VISIBLE_THRESHOLD).all()


def test_speculative_engine_matches_serial_and_batches_long_runs():
    demand = 200_000
    serial = _twl_inconsistent_engine(1)
    serial_outcome = serial.run(demand)
    engine = _twl_inconsistent_engine(4096)
    outcome = engine.run(demand)
    assert outcome.demand_writes == serial_outcome.demand_writes == demand
    assert outcome.device_writes == serial_outcome.device_writes
    assert np.array_equal(
        engine.scheme.array.write_counts(), serial.scheme.array.write_counts()
    )
    assert engine.scheme.stats() == serial.scheme.stats()
    assert engine.driver.attack.snapshot() == serial.driver.attack.snapshot()
    # One write per step would be 200k steps.
    assert outcome.batches < outcome.demand_writes / 20
