"""repro.guard — numerical-health sentinels and a self-healing policy engine.

Training with lossy compression and second-order preconditioning has
three characteristic ways to die quietly: a corrupted payload poisons
the parameters, an error bound that was safe early in training becomes
unsafe as gradients shrink, and an ill-conditioned Kronecker factor
blows up the eigendecomposition.  The guard subsystem turns each of
those into a detected verdict with an ordered remediation path:

* :mod:`repro.guard.sentinels` — cheap invariant checks (NaN/Inf scans,
  error-bound contract verification, factor health, guarded eigh);
* :mod:`repro.guard.health` — rolling-window loss/grad-norm divergence
  detection;
* :mod:`repro.guard.policy` — the compression circuit breaker and the
  declarative verdict→remediation rule engine;
* :mod:`repro.guard.guard` — the :class:`Guard` facade trainers accept
  via ``guard=GuardConfig(...)``;
* :mod:`repro.guard.scenario` — the seeded chaos-vs-guard comparison
  behind ``repro guard`` and the guard benchmark.

A disabled guard (``guard=None``, the default) is bit-identical to the
pre-guard trainer; an enabled guard on a healthy run is too, because
every sentinel is pure observation until a verdict fires.
"""

from repro.guard.guard import Guard, GuardConfig
from repro.guard.health import DivergenceDetector, HealthReport
from repro.guard.policy import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_RULES,
    CircuitBreaker,
    GuardAction,
    GuardContext,
    PolicyEngine,
)
from repro.guard.sentinels import (
    ScanResult,
    contract_error,
    factor_health,
    safe_eigen,
    scan_tensor,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "DEFAULT_RULES",
    "DivergenceDetector",
    "Guard",
    "GuardAction",
    "GuardConfig",
    "GuardContext",
    "HealthReport",
    "PolicyEngine",
    "ScanResult",
    "contract_error",
    "factor_health",
    "safe_eigen",
    "scan_tensor",
]
