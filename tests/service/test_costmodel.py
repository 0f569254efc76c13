"""The cost loop: predictor fits, admission math, deadline batching.

The load-bearing assertions:

* predictions are seeded from the catalog machine's SI parameters and
  refined by EWMA — a constant observed wall time converges the fit
  *exactly* (the seeded overhead never drifts);
* cost admission is inclusive at the budget (a request landing the
  total exactly on ``work_budget`` is admitted), a zero budget rejects
  every positive-cost request, and the refusal is byte-identical to
  the protocol's retriable ``overloaded`` envelope — router failover
  composes with no client change;
* the power cap sheds priority <= 0 immediately and lets higher
  priorities wait for in-flight work to release;
* count, work and power are one admission vector: ``queue_limit``
  binds under cost admission too, a request whose own demand exceeds a
  limit is refused without waiting, and when work and power both bind
  only a priority > 0 request waits (for both);
* deadline-aware batch sizing moves batch *boundaries*, never batch
  *values*: governed servers answer bit-identically to a plain server
  at ``workers`` 0 and 4.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import units
from repro.service.costmodel import (
    _SEED_OVERHEAD_S,
    CostEstimate,
    CostPredictor,
    HOST_CALIBRATION,
)
from repro.service.engine import EvalEngine
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import OVERLOADED, encode, error_response
from repro.service.server import ModelServer, ServerConfig

MACHINES = ("gtx580-double", "i7-950-double")


def run(coro):
    return asyncio.run(coro)


def make_predictor(**overrides) -> CostPredictor:
    return CostPredictor(EvalEngine(), **overrides)


def canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


class TestPrediction:
    def test_seed_uses_catalog_machine_parameters(self):
        predictor = make_predictor()
        engine = predictor.engine
        for machine in MACHINES:
            params = engine.machine(machine)
            estimate = predictor.predict("eval", machine, "energy", 1)
            expected_s = (
                _SEED_OVERHEAD_S
                + 16.0 * float(params.tau_flop) * HOST_CALIBRATION
            )
            assert estimate.seconds == pytest.approx(expected_s)
            expected_j = (
                float(params.eps_flop) * 16.0
                + float(params.pi0) * estimate.seconds
            )
            assert estimate.joules == pytest.approx(expected_j)

    def test_seed_scales_linearly_in_size(self):
        predictor = make_predictor()
        one = predictor.predict("eval", MACHINES[0], "energy", 1)
        ten = predictor.predict("eval", MACHINES[0], "energy", 10)
        per_point = (ten.seconds - one.seconds) / 9.0
        assert one.seconds == pytest.approx(_SEED_OVERHEAD_S + per_point)

    def test_unknown_machine_falls_back_not_raises(self):
        predictor = make_predictor()
        estimate = predictor.predict("eval", "no-such-machine", None, 4)
        assert estimate.seconds > 0
        assert estimate.joules > 0

    def test_watts_is_joules_over_seconds(self):
        estimate = CostEstimate(2.0, 50.0)
        assert estimate.watts == pytest.approx(25.0)
        assert CostEstimate(0.0, 1.0).watts == 0.0

    def test_control_ops_get_no_estimate(self):
        predictor = make_predictor()
        for op in ("ping", "stats", "hello"):
            assert predictor.estimate_request({"op": op}) is None
        assert predictor.estimate_request({"op": 7}) is None

    def test_request_size_eval_grid_and_curve(self):
        predictor = make_predictor()
        size = predictor._request_size
        assert size({"op": "eval", "intensity": 1.0}) == 1
        assert size({"op": "eval", "intensities": [1.0] * 17}) == 17
        # 10 octaves at 8 points/octave, fencepost included.
        assert size(
            {"op": "curve", "lo": 0.5, "hi": 512.0, "points_per_octave": 8}
        ) == 81
        assert size({"op": "curve", "lo": "junk", "hi": 2.0}) == 2
        assert size({"op": "balance"}) == 1


class TestRefinement:
    def test_constant_observation_converges_exactly(self):
        predictor = make_predictor()
        observed = 0.004
        for _ in range(40):
            predictor.observe("eval", MACHINES[0], "energy", 8, observed)
        estimate = predictor.predict("eval", MACHINES[0], "energy", 8)
        assert estimate.seconds == pytest.approx(observed, rel=1e-9)

    def test_first_observation_snaps_the_fit(self):
        predictor = make_predictor()
        predictor.observe("eval", MACHINES[0], "energy", 4, 0.01)
        estimate = predictor.predict("eval", MACHINES[0], "energy", 4)
        assert estimate.seconds == pytest.approx(0.01)

    def test_nonpositive_and_nonfinite_observations_ignored(self):
        predictor = make_predictor()
        before = predictor.predict("eval", MACHINES[0], "energy", 1).seconds
        predictor.observe("eval", MACHINES[0], "energy", 1, 0.0)
        predictor.observe("eval", MACHINES[0], "energy", 1, -1.0)
        predictor.observe("eval", MACHINES[0], "energy", 1, float("nan"))
        predictor.observe("eval", MACHINES[0], "energy", 1, float("inf"))
        after = predictor.predict("eval", MACHINES[0], "energy", 1).seconds
        assert after == before
        assert predictor.stats()["observations"] == 0

    def test_rel_error_histogram_measures_acted_on_prediction(self):
        metrics = MetricsRegistry()
        predictor = make_predictor(metrics=metrics)
        predicted = predictor.predict("eval", MACHINES[0], "energy", 2)
        observed = predicted.seconds * 2.0
        predictor.observe("eval", MACHINES[0], "energy", 2, observed)
        hist = metrics.snapshot()["histograms"]["cost_rel_error_pct"]
        assert hist["count"] == 1
        # |predicted - observed| / observed = 0.5 -> 50%.
        assert hist["max"] == pytest.approx(units.to_percent(0.5))

    def test_lru_evicts_oldest_key_and_counts(self):
        predictor = make_predictor(max_keys=2)
        predictor.predict("eval", "a", None, 1)
        predictor.predict("eval", "b", None, 1)
        predictor.predict("eval", "a", None, 1)  # refresh a
        predictor.predict("eval", "c", None, 1)  # evicts b
        stats = predictor.stats()
        assert stats["keys"] == 2
        assert stats["evictions"] == 1
        assert ("eval", "b", "") not in predictor._fits
        assert ("eval", "a", "") in predictor._fits

    def test_observe_request_skips_scalar_eval(self):
        predictor = make_predictor()
        predictor.observe_request(
            {"op": "eval", "machine": MACHINES[0], "model": "energy",
             "intensity": 1.0},
            0.005,
        )
        assert predictor.stats()["observations"] == 0
        predictor.observe_request(
            {"op": "eval", "machine": MACHINES[0], "model": "energy",
             "intensities": [1.0, 2.0]},
            0.005,
        )
        assert predictor.stats()["observations"] == 1


def eval_body(machine=MACHINES[0], **extra):
    body = {
        "op": "eval", "machine": machine, "model": "energy",
        "metric": "energy_per_flop", "intensity": 2.0,
    }
    body.update(extra)
    return body


def single_estimate(body) -> CostEstimate:
    """What any freshly seeded server predicts for ``body``."""
    return CostPredictor(EvalEngine()).estimate_request(dict(body))


class TestCostAdmission:
    def test_budget_exactly_met_admits(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=estimate.seconds,
            ))
            try:
                return await server.handle_request(eval_body())
            finally:
                await server.stop()

        response = run(scenario())
        assert response["ok"] is True

    def test_zero_budget_rejects_every_positive_cost_request(self):
        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=0.0,
            ))
            try:
                responses = [
                    await server.handle_request(eval_body(machine, id=i))
                    for i, machine in enumerate(MACHINES)
                ]
                stats = server.stats()
            finally:
                await server.stop()
            return responses, stats

        responses, stats = run(scenario())
        for response in responses:
            assert response["ok"] is False
            assert response["error"]["code"] == OVERLOADED
            assert response["error"]["retriable"] is True
        assert stats["counters"]["admission_rejected_total"] == 2
        assert stats["counters"]["admission_accepted_total"] == 0

    def test_refusal_envelope_bytes_match_protocol_helper(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=0.0,
            ))
            try:
                return await server.handle_request(eval_body(id="req-1"))
            finally:
                await server.stop()

        response = run(scenario())
        expected = error_response(
            "req-1",
            OVERLOADED,
            f"predicted work in flight (0 s) plus this request "
            f"({estimate.seconds:.6g} s) exceeds work_budget (0 s); "
            "retry with backoff",
            retriable=True,
        )
        assert encode(response) == encode(expected)

    def test_admission_wait_admits_after_release(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=estimate.seconds,
                admission_wait=5.0,
            ))
            try:
                first, second = await asyncio.gather(
                    server.handle_request(eval_body(id=1)),
                    server.handle_request(eval_body(id=2)),
                )
                stats = server.stats()
            finally:
                await server.stop()
            return first, second, stats

        first, second, stats = run(scenario())
        assert first["ok"] is True and second["ok"] is True
        assert stats["counters"]["admission_accepted_total"] == 2
        assert stats["counters"]["admission_queued_total"] == 1

    def test_work_gauge_returns_to_zero_after_service(self):
        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=10.0,
            ))
            try:
                await server.handle_request(eval_body())
                return server.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        assert stats["admission"]["predicted_work_s"] == pytest.approx(0.0)
        assert stats["admission"]["mode"] == "cost"

    def test_config_validation(self):
        with pytest.raises(ValueError, match="work_budget"):
            ModelServer(ServerConfig(admission="cost"))
        with pytest.raises(ValueError, match="admission"):
            ModelServer(ServerConfig(admission="vibes"))
        with pytest.raises(ValueError, match="power_cap"):
            ModelServer(ServerConfig(power_cap=0.0))
        with pytest.raises(ValueError, match="admission_wait"):
            ModelServer(ServerConfig(admission_wait=-1.0))

    def test_bad_priority_is_bad_request(self):
        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=10.0,
            ))
            try:
                return await server.handle_request(
                    eval_body(priority="high")
                )
            finally:
                await server.stop()

        response = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestPowerCap:
    def test_priority_zero_is_shed_immediately(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                power_cap=estimate.watts / 2.0, admission_wait=5.0,
            ))
            try:
                response = await server.handle_request(eval_body(id=9))
                stats = server.stats()
            finally:
                await server.stop()
            return response, stats

        response, stats = run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == OVERLOADED
        assert response["error"]["retriable"] is True
        assert "power_cap" in response["error"]["message"]
        assert stats["counters"]["admission_shed_total"] == 1
        assert stats["counters"]["throttle_delayed_total"] == 0

    def test_priority_one_waits_for_power_release(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                power_cap=estimate.watts, admission_wait=5.0,
            ))
            try:
                first, second = await asyncio.gather(
                    server.handle_request(eval_body(id=1)),
                    server.handle_request(eval_body(id=2, priority=1)),
                )
                stats = server.stats()
            finally:
                await server.stop()
            return first, second, stats

        first, second, stats = run(scenario())
        assert first["ok"] is True and second["ok"] is True
        assert stats["counters"]["throttle_delayed_total"] == 1
        assert stats["counters"]["admission_shed_total"] == 0
        assert stats["admission"]["predicted_power_hwm_w"] > 0

    def test_power_gauge_returns_to_zero(self):
        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0, power_cap=1e6,
            ))
            try:
                await server.handle_request(eval_body())
                return server.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        assert stats["admission"]["predicted_power_w"] == pytest.approx(0.0)


class TestDeadlineBatchingIdentity:
    """Deadline sizing moves batch boundaries, never values."""

    GRID = [0.25 * (k + 1) for k in range(24)]

    @classmethod
    def bodies(cls, with_deadline: bool):
        extra = {"timeout_ms": 10_000.0} if with_deadline else {}
        return [
            eval_body(machine, intensity=x, **extra)
            for machine in MACHINES
            for x in cls.GRID
        ]

    @staticmethod
    async def _values(server, bodies):
        try:
            responses = await asyncio.gather(*(
                server.handle_request(dict(body)) for body in bodies
            ))
        finally:
            await server.stop()
        assert all(r["ok"] for r in responses), responses
        return [r["result"]["value"] for r in responses]

    @pytest.mark.parametrize("workers", [0, 4])
    def test_governed_server_bit_identical_to_plain(self, workers):
        async def scenario():
            plain = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.001, max_batch=16,
                workers=workers,
            ))
            plain_values = await self._values(plain, self.bodies(False))
            governed = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.001, max_batch=16,
                workers=workers,
                admission="cost", work_budget=60.0,
                deadline_batching=True,
            ))
            governed_values = await self._values(
                governed, self.bodies(True)
            )
            return plain_values, governed_values

        plain_values, governed_values = run(scenario())
        assert canonical_json(plain_values) == canonical_json(
            governed_values
        )


class TestBudgetVector:
    """One (count, seconds, watts) check: every limit binds in every mode."""

    def test_queue_limit_holds_under_cost_admission(self):
        async def scenario():
            server = ModelServer(ServerConfig(
                admission="cost", work_budget=60.0, queue_limit=1,
                flush_window=0.01,
            ))
            try:
                responses = await asyncio.gather(*(
                    server.handle_request(eval_body(id=i, intensity=1.0 + i))
                    for i in range(8)
                ))
                stats = server.stats()
            finally:
                await server.stop()
            return responses, stats

        responses, stats = run(scenario())
        admitted = [r for r in responses if r["ok"]]
        refused = [r for r in responses if not r["ok"]]
        assert len(admitted) == 1 and len(refused) == 7
        for response in refused:
            assert response["error"]["code"] == OVERLOADED
            assert response["error"]["retriable"] is True
            assert response["error"]["message"].startswith(
                "admission queue full (1 in flight)"
            )
        assert stats["counters"]["overloaded_total"] == 7
        assert stats["inflight"] == 0

    @staticmethod
    def _lone_request(config: ServerConfig, body) -> tuple[dict, float, dict]:
        async def scenario():
            server = ModelServer(config)
            loop = asyncio.get_running_loop()
            try:
                started = loop.time()
                response = await server.handle_request(body)
                elapsed = loop.time() - started
                stats = server.stats()
            finally:
                await server.stop()
            return response, elapsed, stats

        return run(scenario())

    def test_request_over_work_budget_alone_is_refused_at_once(self):
        estimate = single_estimate(eval_body())
        response, elapsed, stats = self._lone_request(
            ServerConfig(
                cache_size=0, flush_window=0.0, admission="cost",
                work_budget=estimate.seconds / 2.0, admission_wait=5.0,
            ),
            eval_body(id=1),
        )
        assert response["ok"] is False
        assert response["error"]["code"] == OVERLOADED
        assert "work_budget" in response["error"]["message"]
        assert elapsed < 0.5
        assert stats["counters"]["admission_queued_total"] == 0
        assert stats["counters"]["throttle_delayed_total"] == 0
        assert stats["counters"]["admission_rejected_total"] == 1

    def test_priority_request_over_power_cap_alone_is_refused_at_once(self):
        estimate = single_estimate(eval_body())
        response, elapsed, stats = self._lone_request(
            ServerConfig(
                cache_size=0, flush_window=0.0,
                power_cap=estimate.watts / 2.0, admission_wait=5.0,
            ),
            eval_body(id=1, priority=1),
        )
        assert response["ok"] is False
        assert response["error"]["code"] == OVERLOADED
        assert "power_cap" in response["error"]["message"]
        assert elapsed < 0.5
        assert stats["counters"]["admission_queued_total"] == 0
        assert stats["counters"]["throttle_delayed_total"] == 0
        assert stats["counters"]["admission_shed_total"] == 1

    @staticmethod
    def _work_and_power_bind(priority: int):
        """Two concurrent requests; the second exceeds budget *and* cap."""
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=estimate.seconds,
                power_cap=estimate.watts, admission_wait=5.0,
            ))
            loop = asyncio.get_running_loop()
            try:
                started = loop.time()
                first, second = await asyncio.gather(
                    server.handle_request(eval_body(id=1)),
                    server.handle_request(eval_body(id=2, priority=priority)),
                )
                elapsed = loop.time() - started
                stats = server.stats()
            finally:
                await server.stop()
            return first, second, elapsed, stats

        return run(scenario())

    def test_work_and_power_both_bind_priority_zero_is_refused(self):
        first, second, elapsed, stats = self._work_and_power_bind(0)
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["code"] == OVERLOADED
        assert second["error"]["retriable"] is True
        # The first limit exceeded names the refusal: work before power.
        assert "work_budget" in second["error"]["message"]
        assert elapsed < 0.5  # a power refusal at priority 0 never parks
        counters = stats["counters"]
        assert counters["admission_accepted_total"] == 1
        assert counters["admission_rejected_total"] == 1
        assert counters["admission_queued_total"] == 0
        assert counters["throttle_delayed_total"] == 0

    def test_work_and_power_both_bind_priority_one_waits_for_both(self):
        first, second, _, stats = self._work_and_power_bind(1)
        assert first["ok"] is True and second["ok"] is True
        counters = stats["counters"]
        assert counters["admission_accepted_total"] == 2
        assert counters["admission_queued_total"] == 1
        assert counters["throttle_delayed_total"] == 1
        assert counters["admission_rejected_total"] == 0
        assert counters["admission_shed_total"] == 0
        admission = stats["admission"]
        assert admission["predicted_work_s"] == pytest.approx(0.0)
        assert admission["predicted_power_w"] == pytest.approx(0.0)
        assert admission["predicted_power_hwm_w"] > 0

    def test_drain_refuses_parked_request_at_once(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.2,
                admission="cost", work_budget=estimate.seconds,
                admission_wait=5.0,
            ))
            loop = asyncio.get_running_loop()
            started = loop.time()
            first = asyncio.ensure_future(
                server.handle_request(eval_body(id=1))
            )
            second = asyncio.ensure_future(
                server.handle_request(eval_body(id=2))
            )
            await asyncio.sleep(0.05)  # first batched, second parked
            await server.stop()
            return await first, await second, loop.time() - started

        first, second, elapsed = run(scenario())
        assert first["ok"] is True
        assert second["ok"] is False
        assert second["error"]["retriable"] is True
        assert elapsed < 2.0
