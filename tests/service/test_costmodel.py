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
* count and work are one admission vector: ``queue_limit`` binds
  under cost admission too, and a request over either limit is refused
  within the loop iteration it arrived in — nothing parks;
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
            seconds = predictor.predict("eval", machine, "energy", 1)
            expected_s = (
                _SEED_OVERHEAD_S
                + 16.0 * float(params.tau_flop) * HOST_CALIBRATION
            )
            assert seconds == pytest.approx(expected_s)

    def test_seed_scales_linearly_in_size(self):
        predictor = make_predictor()
        one = predictor.predict("eval", MACHINES[0], "energy", 1)
        ten = predictor.predict("eval", MACHINES[0], "energy", 10)
        per_point = (ten - one) / 9.0
        assert one == pytest.approx(_SEED_OVERHEAD_S + per_point)

    def test_unknown_machine_falls_back_not_raises(self):
        predictor = make_predictor()
        assert predictor.predict("eval", "no-such-machine", None, 4) > 0

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
        assert estimate == pytest.approx(observed, rel=1e-9)

    def test_first_observation_snaps_the_fit(self):
        predictor = make_predictor()
        predictor.observe("eval", MACHINES[0], "energy", 4, 0.01)
        estimate = predictor.predict("eval", MACHINES[0], "energy", 4)
        assert estimate == pytest.approx(0.01)

    def test_nonpositive_and_nonfinite_observations_ignored(self):
        predictor = make_predictor()
        before = predictor.predict("eval", MACHINES[0], "energy", 1)
        predictor.observe("eval", MACHINES[0], "energy", 1, 0.0)
        predictor.observe("eval", MACHINES[0], "energy", 1, -1.0)
        predictor.observe("eval", MACHINES[0], "energy", 1, float("nan"))
        predictor.observe("eval", MACHINES[0], "energy", 1, float("inf"))
        after = predictor.predict("eval", MACHINES[0], "energy", 1)
        assert after == before
        assert predictor.stats()["observations"] == 0

    def test_rel_error_histogram_measures_acted_on_prediction(self):
        metrics = MetricsRegistry()
        predictor = make_predictor(metrics=metrics)
        predicted = predictor.predict("eval", MACHINES[0], "energy", 2)
        observed = predicted * 2.0
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


def single_estimate(body) -> float:
    """What any freshly seeded server predicts for ``body``."""
    return CostPredictor(EvalEngine()).estimate_request(dict(body))


class TestCostAdmission:
    def test_budget_exactly_met_admits(self):
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=estimate,
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
            f"({estimate:.6g} s) exceeds work_budget (0 s); "
            "retry with backoff",
            retriable=True,
        )
        assert encode(response) == encode(expected)

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
    """One (count, seconds) check: every limit binds in every mode."""

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

    def test_over_budget_is_refused_in_one_loop_iteration(self):
        """A request over the work budget gets its refusal before the
        loop turns once: there is no admission queue to park in, and the
        stats carry no parking or power instruments."""
        estimate = single_estimate(eval_body())

        async def scenario():
            server = ModelServer(ServerConfig(
                cache_size=0, flush_window=0.0,
                admission="cost", work_budget=estimate * 1.5,
            ))
            try:
                first = asyncio.ensure_future(
                    server.handle_request(eval_body(id=1))
                )
                second = asyncio.ensure_future(
                    server.handle_request(eval_body(id=2))
                )
                # One yield runs each request's first step: the
                # refusal must be final by then, the admitted one not.
                await asyncio.sleep(0)
                refused_in_one_iteration = second.done() and not first.done()
                refused = await second
                stats_during = server.stats()
                accepted = await first
                stats = server.stats()
            finally:
                await server.stop()
            return (
                accepted, refused, refused_in_one_iteration, stats_during,
                stats,
            )

        accepted, refused, one_iteration, during, stats = run(scenario())
        assert accepted["ok"] is True
        assert refused["ok"] is False
        assert refused["error"]["code"] == OVERLOADED
        assert refused["error"]["retriable"] is True
        assert "work_budget" in refused["error"]["message"]
        assert one_iteration
        assert during["inflight"] == 1
        assert set(stats["admission"]) == {
            "mode", "work_budget", "predicted_work_s",
        }
        assert stats["admission"]["predicted_work_s"] == pytest.approx(0.0)
        counters = stats["counters"]
        for name in (
            "admission_queued_total",
            "admission_shed_total",
            "throttle_delayed_total",
        ):
            assert name not in counters
        assert counters["admission_accepted_total"] == 1
        assert counters["admission_rejected_total"] == 1
