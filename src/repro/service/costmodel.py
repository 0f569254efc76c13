"""Predicted per-request cost: the roofline model pointed at itself.

Two scheduling decisions the server makes — admit or refuse, flush a
batch now or wait — need one number the repo already knows how to
produce: how long a request will take.  :class:`CostPredictor` closes
that loop.  It maps a canonical key ``(op, machine, model)`` to a
linear fit

    seconds(n) = overhead + per_point * n

where ``n`` is the request's evaluation-point count (batch size, grid
length, curve points, or 1 for the structured analyses).  The fit is

* **seeded analytically**: the machine's ``tau_flop`` (seconds per
  modeled flop, strict SI via :mod:`repro.units`) times a modeled
  flops-per-point weight for the operation, scaled by a host
  calibration constant — the modeled device and the numpy process
  serving it differ by a roughly constant factor, which is exactly the
  kind of error a multiplicative fit absorbs;
* **refined continuously**: every observed batch/request wall time
  updates ``per_point`` through an EWMA, so within a handful of
  batches the prediction tracks the *host*, not the modeled device.

The predictor estimates time only.  It makes no energy or power
claim: a modeled watts figure that no sensor stands behind is not the
paper's measured power, and the paper's §V-B cap is served as the
``capped`` model instead.

Fits live in an LRU keyed like the curve-plan cache — canonical string
keys, bounded entries, recency-ordered — so an adversarial stream of
unknown machines cannot grow predictor state without bound.

Everything here runs on the event-loop thread; there are no locks.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import units
from repro.service.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import EvalEngine

__all__ = [
    "CostPredictor",
    "DEFAULT_COST_KEYS",
    "DEFAULT_EWMA_ALPHA",
    "HOST_CALIBRATION",
]

#: Modeled flops per evaluated point, by operation.  These weights only
#: set the *seed* magnitude (relative op cost before any observation);
#: the EWMA fit owns the absolute scale within a few batches.
_OP_POINT_FLOPS: dict[str, float] = {
    "eval": 16.0,
    "curve": 48.0,
    "balance": 2048.0,
    "tradeoff": 512.0,
    "greenup": 512.0,
    "describe": 4096.0,
    "machines": 8192.0,
}

#: Seed weight for operations not listed above (unknown ops still get
#: an estimate — admission must never crash ahead of validation).
_DEFAULT_POINT_FLOPS = 512.0

#: Modeled-device flops run ~three orders of magnitude faster than the
#: numpy host serving them (a GPU's tau_flop is picoseconds; a python
#: dict lookup is not).  This constant bridges the gap for the seed.
HOST_CALIBRATION = 2000.0

#: Per-request fixed cost seed: dispatch, validation, future plumbing.
_SEED_OVERHEAD_S = 100.0 * units.MICRO

#: Fallback flop time when the machine cannot be resolved (unknown
#: name, malformed field): a generic 10 GFLOP/s host.  The request will
#: fail validation in dispatch; admission just needs a sane magnitude
#: until then.
_FALLBACK_TAU_FLOP = units.time_per_flop_from_gflops(10.0)

#: Fit-cache entry budget (LRU, like the curve-plan cache).
DEFAULT_COST_KEYS = 512

#: EWMA smoothing factor for per-point refinement.
DEFAULT_EWMA_ALPHA = 0.25

#: Ops whose responses describe server state, not model work — they
#: bypass admission and therefore never need an estimate.
_CONTROL_OPS = frozenset({"ping", "stats", "hello"})


class _Fit:
    """One key's linear cost model and its refinement state."""

    __slots__ = ("per_point", "overhead", "observations")

    def __init__(self, per_point: float, overhead: float):
        self.per_point = per_point
        self.overhead = overhead
        self.observations = 0


class CostPredictor:
    """Analytic-seeded, EWMA-refined (op, machine, model) → cost map.

    Parameters
    ----------
    engine:
        The :class:`~repro.service.engine.EvalEngine` used to resolve
        machine parameters for seeding (resolution failures fall back
        to generic constants — prediction never raises).  Seeds scale
        modeled flops to host seconds by :data:`HOST_CALIBRATION`;
        refinement smooths by :data:`DEFAULT_EWMA_ALPHA`.
    max_keys:
        Fit-cache entry bound (LRU on canonical keys).
    metrics:
        Registry recording predicted-vs-observed relative error
        (percent) under ``cost_rel_error_pct``; a private one when
        omitted.
    """

    def __init__(
        self,
        engine: "EvalEngine",
        *,
        max_keys: int = DEFAULT_COST_KEYS,
        metrics: MetricsRegistry | None = None,
    ):
        if max_keys < 1:
            raise ValueError(f"max_keys must be >= 1, got {max_keys}")
        self.engine = engine
        self.max_keys = max_keys
        self._fits: OrderedDict[tuple[str, str, str], _Fit] = OrderedDict()
        self._predictions = 0
        self._observations = 0
        self._evictions = 0
        self._rel_err_pct = (metrics or MetricsRegistry()).histogram(
            "cost_rel_error_pct"
        )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(
        self, op: str, machine: str, model: str | None, size: int
    ) -> float:
        """Predicted service seconds for ``size`` points of ``op``."""
        fit = self._fit(op, machine, model)
        self._predictions += 1
        return fit.overhead + fit.per_point * max(1, int(size))

    def estimate_request(self, request: dict[str, Any]) -> float | None:
        """Predicted seconds for one wire request, or ``None`` for
        control ops.

        Never raises: malformed bodies get a size-1 estimate under
        whatever key their fields spell — dispatch produces the proper
        ``bad_request`` after admission.
        """
        op = request.get("op")
        if not isinstance(op, str) or op in _CONTROL_OPS:
            return None
        machine = request.get("machine")
        if not isinstance(machine, str):
            machine = ""
        model = request.get("model")
        if not isinstance(model, str):
            model = None
        return self.predict(op, machine, model, self._request_size(request))

    def observe(
        self,
        op: str,
        machine: str,
        model: str | None,
        size: int,
        seconds: float,
    ) -> None:
        """Fold one observed wall time into the key's fit.

        Records the predicted-vs-observed relative error *before*
        updating, so the histogram measures the prediction the server
        actually acted on.
        """
        if not math.isfinite(seconds) or seconds <= 0.0:
            return
        fit = self._fit(op, machine, model)
        n = max(1, int(size))
        predicted = fit.overhead + fit.per_point * n
        self._rel_err_pct.observe(
            units.to_percent(abs(predicted - seconds) / seconds)
        )
        # Only the slope refines; the seeded overhead stays put, so a
        # constant observed time converges exactly (see tests).
        target = max(seconds - fit.overhead, 0.0) / n
        if fit.observations == 0:
            fit.per_point = target
        else:
            fit.per_point += DEFAULT_EWMA_ALPHA * (target - fit.per_point)
        fit.observations += 1
        self._observations += 1

    def observe_request(
        self, request: dict[str, Any], seconds: float
    ) -> None:
        """Observe one completed wire request's dispatch time.

        Scalar ``eval`` is skipped: its dispatch time includes the
        micro-batcher's flush-window wait, which is queueing, not
        service — the batcher reports the real batch wall time itself.
        """
        op = request.get("op")
        if not isinstance(op, str) or op in _CONTROL_OPS:
            return
        if op == "eval" and "intensities" not in request:
            return
        machine = request.get("machine")
        if not isinstance(machine, str):
            return
        model = request.get("model")
        if not isinstance(model, str):
            model = None
        self.observe(op, machine, model, self._request_size(request), seconds)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-ready predictor state for the ``stats`` operation."""
        return {
            "keys": len(self._fits),
            "max_keys": self.max_keys,
            "predictions": self._predictions,
            "observations": self._observations,
            "evictions": self._evictions,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fit(self, op: str, machine: str, model: str | None) -> _Fit:
        key = (op, machine, model or "")
        fit = self._fits.get(key)
        if fit is not None:
            self._fits.move_to_end(key)
            return fit
        fit = self._seed(op, machine)
        self._fits[key] = fit
        while len(self._fits) > self.max_keys:
            self._fits.popitem(last=False)
            self._evictions += 1
        return fit

    def _seed(self, op: str, machine: str) -> _Fit:
        tau = _FALLBACK_TAU_FLOP
        if machine:
            try:
                tau = float(self.engine.machine(machine).tau_flop)
            except Exception:  # noqa: BLE001 - admission never raises
                pass
        flops = _OP_POINT_FLOPS.get(op, _DEFAULT_POINT_FLOPS)
        return _Fit(flops * tau * HOST_CALIBRATION, _SEED_OVERHEAD_S)

    @staticmethod
    def _request_size(request: dict[str, Any]) -> int:
        """Evaluation-point count a request body implies."""
        op = request.get("op")
        if op == "eval":
            grid = request.get("intensities")
            if isinstance(grid, np.ndarray):
                return max(1, grid.size)
            if isinstance(grid, (list, tuple)):
                return max(1, len(grid))
            return 1
        if op == "curve":
            lo = request.get("lo", 0.5)
            hi = request.get("hi", 512.0)
            ppo = request.get("points_per_octave", 8)
            try:
                span = math.log2(float(hi)) - math.log2(float(lo))
                return max(2, int(round(span * int(ppo))) + 1)
            except (TypeError, ValueError, OverflowError):
                return 2
        return 1
