"""Online α tuning — closing the loop the paper leaves open.

§VI ("Tuning LANDLORD"): a new deployment should *"choose a moderate α
(e.g. 0.8) to start, with finer tuning possible to meet specific
application or site requirements"*.  The operational zone is defined by
two observable gauges — cache efficiency (storage duplication) and write
amplification (merge I/O) — both of which the cache tracks continuously,
so the finer tuning can be automated:

:class:`AlphaController` adjusts the live cache's α every ``interval``
requests using windowed measurements:

- cache efficiency below its floor ⇒ too little merging ⇒ **raise** α;
- windowed write amplification above its ceiling (or container efficiency
  below its floor) ⇒ too much merging ⇒ **lower** α;
- both healthy ⇒ hold.

Changing α is safe at any time: Algorithm 1 consults it per request only.
The controller clamps to ``[alpha_min, alpha_max]`` and uses a fixed step,
so behaviour is a bounded random walk inside the operational zone rather
than an aggressive optimiser — matching the paper's philosophy that
anywhere within the zone is acceptable and only the pathological extremes
must be avoided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.cache import CacheDecision, LandlordCache
from repro.core.spec import ImageSpec

__all__ = ["AlphaController", "AdaptationEvent"]


@dataclass(frozen=True)
class AdaptationEvent:
    """One controller decision, for audit/plotting."""

    request_index: int
    old_alpha: float
    new_alpha: float
    cache_efficiency: float
    window_write_amplification: float
    reason: str


class AlphaController:
    """Wrap a cache; adapt its α from its own gauges.

    Args:
        cache: the live cache to steer (its ``alpha`` attribute is
            mutated in place).
        interval: requests between adaptation decisions.
        step: α adjustment per decision.
        cache_efficiency_floor / write_amplification_ceiling /
        container_efficiency_floor: the operational-zone limits (§VI).
        alpha_min / alpha_max: hard clamp for the walk.
    """

    def __init__(
        self,
        cache: LandlordCache,
        interval: int = 50,
        step: float = 0.05,
        cache_efficiency_floor: float = 0.3,
        write_amplification_ceiling: float = 2.0,
        container_efficiency_floor: float = 0.2,
        alpha_min: float = 0.4,
        alpha_max: float = 0.95,
    ):
        if interval < 1:
            raise ValueError("interval must be positive")
        if step <= 0:
            raise ValueError("step must be positive")
        if not 0.0 <= alpha_min <= alpha_max <= 1.0:
            raise ValueError("need 0 <= alpha_min <= alpha_max <= 1")
        self.cache = cache
        self.interval = interval
        self.step = step
        self.cache_efficiency_floor = cache_efficiency_floor
        self.write_amplification_ceiling = write_amplification_ceiling
        self.container_efficiency_floor = container_efficiency_floor
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.events: List[AdaptationEvent] = []
        self._since_adapt = 0
        self._window_written = 0
        self._window_requested = 0
        self._window_used = 0
        # Start inside the clamp even if the cache was configured outside.
        cache.alpha = min(max(cache.alpha, alpha_min), alpha_max)

    @property
    def alpha(self) -> float:
        return self.cache.alpha

    def request(self, spec: "ImageSpec | frozenset") -> CacheDecision:
        """Serve a request through the cache, adapting on schedule."""
        before_written = self.cache.stats.bytes_written
        decision = self.cache.request(spec)
        self._window_written += self.cache.stats.bytes_written - before_written
        self._window_requested += decision.requested_bytes
        self._window_used += decision.image.size
        self._since_adapt += 1
        if self._since_adapt >= self.interval:
            self._adapt()
        return decision

    def _window_metrics(self) -> Tuple[float, float]:
        wamp = (
            self._window_written / self._window_requested
            if self._window_requested
            else 0.0
        )
        cont = (
            self._window_requested / self._window_used
            if self._window_used
            else 1.0
        )
        return wamp, cont

    def _adapt(self) -> None:
        wamp, cont = self._window_metrics()
        cache_eff = self.cache.cache_efficiency
        old = self.cache.alpha
        if (
            wamp > self.write_amplification_ceiling
            or cont < self.container_efficiency_floor
        ):
            new = max(self.alpha_min, old - self.step)
            reason = (
                "write amplification over ceiling"
                if wamp > self.write_amplification_ceiling
                else "container efficiency under floor"
            )
        elif cache_eff < self.cache_efficiency_floor:
            new = min(self.alpha_max, old + self.step)
            reason = "cache efficiency under floor"
        else:
            new = old
            reason = "within operational zone"
        if new != old:
            self.cache.alpha = new
        self.events.append(
            AdaptationEvent(
                request_index=self.cache.stats.requests,
                old_alpha=old,
                new_alpha=new,
                cache_efficiency=cache_eff,
                window_write_amplification=wamp,
                reason=reason,
            )
        )
        self._since_adapt = 0
        self._window_written = 0
        self._window_requested = 0
        self._window_used = 0

    def alpha_trace(self) -> List[Tuple[int, float]]:
        """(request_index, alpha) pairs over the controller's lifetime."""
        return [(e.request_index, e.new_alpha) for e in self.events]
