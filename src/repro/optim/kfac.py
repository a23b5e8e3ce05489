"""K-FAC second-order optimizer (Martens & Grosse, ICML'15).

Implements the eigendecomposition form of Eq. 2:

    precond = Q_G ( (Q_G^T  dW  Q_A) / (v_G v_A^T + gamma) ) Q_A^T

with Kronecker factors accumulated as running averages (Eq. 1)

    A_l = E[a_{l-1} a_{l-1}^T]      G_l = E[g_l g_l^T]

from the statistics the NN substrate captures on every K-FAC layer.

The API is deliberately granular — ``local_factors`` /
``accumulate_factors`` / ``compute_eigen`` / ``precondition`` /
``apply`` — because the
distributed KAISA trainer (``repro.kfac_dist``) interleaves these stages
with collectives: factors are allreduced, eigendecompositions are
computed by the layer's assigned rank only, and preconditioned gradients
are allgathered (optionally compressed by COMPSO).  A single worker runs
the same stages on a one-rank ``SimCluster``.

Widths (DESIGN.md decision 17): a factor *statistic* is formed in the
dtype the layer captured — float32, as KAISA forms it — because
everything downstream of it is quantised far more coarsely than the 29
mantissa bits float64 would add; the *state* (running averages,
eigendecomposition, preconditioning) is float64, so ``eigh``, the
checkpoint schema and the guard's factor checks see what they always
saw.  ``accumulate_factors`` is where the one up-cast happens.

Parameters not owned by K-FAC layers (norms, embeddings) take the plain
SGD-with-momentum update, as distributed K-FAC implementations do.

Host threads (DESIGN.md decision 28).  KAISA spreads the per-layer
linear algebra over the ranks; here every rank runs in one process.  A
shard's factor Grams are formed by :meth:`Kfac.local_factors` in the lane
that ran the shard (:mod:`repro.train.step`), right after its backward,
and the call releases the captured ``last_a`` / ``last_g``.  A refresh's
``eigh`` calls go to the host pool (:func:`repro.util.host.pool`): the
pool runs only LAPACK, which releases the GIL, on a layer's running
factors, which no one writes any more (:meth:`Kfac.eigen_batch`).  Every
result is committed on the calling thread, in layer order, by
:meth:`Kfac.compute_eigen`, so a pooled refresh is bit-identical to an
inline one, failures included.  A refresh whose largest ``eigh`` is
below :data:`POOL_MIN_MADDS` multiply-adds runs inline, where the results are
wanted: there the hand-off costs more than the overlap saves.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.nn.module import KfacLayerMixin, Module, Parameter
from repro.util import host
from repro.util.checkpoint import CheckpointError

__all__ = ["FactorNumericsError", "Kfac", "LayerFactors", "POOL_MIN_MADDS"]

#: Multiply-adds from which the ``eigh`` calls of one refresh or one layer
#: (``d**3`` for a ``d x d`` factor) go to the host pool.  The group's
#: largest call decides, and the small calls ride along.  A pooled call
#: costs ≈ 50 µs of hand-off on a 2-vCPU host: ``fleet_scale``'s and
#: ``repro record``'s refreshes (largest an ``eigh`` of 73, 0.39 M) lose by
#: it; ``kfac_train``'s (``eigh`` of 289, 24 M) gain (DESIGN.md decision
#: 28(c)).
POOL_MIN_MADDS = 2**21


#: A layer's checkpoint sections (:meth:`Kfac.state_dict`) in the groups
#: that are saved and restored whole, each with the sections it needs
#: besides its own: the running factors, and their eigendecomposition.
_SECTION_GROUPS = ((("A", "G", "n_updates"), ()), (("QA", "vA", "QG", "vG"), ("A",)))

#: The :class:`LayerFactors` field a section fills, where its name differs.
_FIELDS = {"momentum": "momentum_buf"}


def _pool_for(largest: int):
    """The host pool for a group whose largest call is ``largest``
    multiply-adds; ``None``: run the group inline."""
    return host.pool() if largest >= POOL_MIN_MADDS else None


class FactorNumericsError(RuntimeError):
    """A layer's Kronecker factors cannot be eigendecomposed.

    Raised when ``np.linalg.eigh`` fails to converge on a factor or
    produces non-finite eigenvalues — both symptoms of a poisoned factor
    (NaN/Inf statistics, corrupted allreduce payload, catastrophic loss
    of symmetry).  Carries the layer index so callers (and the guard's
    escalating-damping retry) can name the culprit instead of surfacing
    a bare numpy error mid-training.
    """

    def __init__(self, layer: int, reason: str):
        super().__init__(f"K-FAC factor numerics failure on layer {layer}: {reason}")
        self.layer = layer
        self.reason = reason


@dataclass
class LayerFactors:
    """Running Kronecker factors and eigendecomposition for one layer."""

    A: np.ndarray | None = None
    G: np.ndarray | None = None
    QA: np.ndarray | None = None
    vA: np.ndarray | None = None
    QG: np.ndarray | None = None
    vG: np.ndarray | None = None
    n_updates: int = 0
    momentum_buf: np.ndarray | None = field(default=None, repr=False)

    @property
    def ready(self) -> bool:
        return self.QA is not None

    def factor_bytes(self) -> int:
        total = 0
        for m in (self.A, self.G):
            if m is not None:
                total += m.nbytes
        return total


class Kfac:
    """Single-worker K-FAC; also the per-rank engine for distributed K-FAC."""

    #: Tikhonov damping ``gamma`` of Eq. 2; the guard's
    #: ``escalate_damping`` remediation raises it on one instance mid-run.
    damping = 1e-2
    #: Running-average decay of the Kronecker factors (Eq. 1).
    factor_decay = 0.95
    #: Momentum of the update, for K-FAC and first-order parameters alike.
    momentum = 0.9
    #: KAISA's KL-clip bound on ``lr^2 * <precond, grad>``.
    kl_clip = 1e-3

    def __init__(self, model: Module, lr: float = 0.1, *, inv_update_freq: int = 10):
        if inv_update_freq < 1:
            raise ValueError("inv_update_freq must be >= 1")
        self.model = model
        self.lr = lr
        self.inv_update_freq = inv_update_freq
        self.layers: list[KfacLayerMixin] = model.kfac_layers()
        self.state: dict[int, LayerFactors] = {i: LayerFactors() for i in range(len(self.layers))}
        self._layer_dims: list[tuple[int, int]] = []
        kfac_params = set()
        for layer in self.layers:
            kfac_params.add(id(layer.weight))
            in_f = int(np.prod(layer.weight.shape[1:]))
            if getattr(layer, "bias", None) is not None:
                kfac_params.add(id(layer.bias))
                in_f += 1  # the bias rides as one more input column
            self._layer_dims.append((in_f, layer.weight.shape[0]))
        self.other_params: list[Parameter] = [
            p for p in model.parameters() if id(p) not in kfac_params
        ]
        self._other_momentum = [np.zeros_like(p.data) for p in self.other_params]
        self.t = 0
        #: ``eigh`` calls begun by :meth:`eigen_batch`, by layer: the
        #: factors they read, then their two calls (``None``: inline).
        self._eigen_started: dict[int, tuple] = {}
        #: By layer: ``(vG, vA, damping, denominator)`` (:meth:`_denominator`).
        self._denominators: dict[int, tuple] = {}

    # -- stage 1: local factor statistics -------------------------------------

    def local_factors(
        self, layers: list[KfacLayerMixin]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """This worker's (A, G) contribution for every layer (Eq. 1), from
        the statistics ``layers`` captured in their last backward.

        ``layers`` are :attr:`layers` or their counterparts in a lane's
        replica of the model.  Each pair is formed in the dtype the layer
        captured (float32): ``a.T @ a`` is one BLAS ``syrk`` whose
        mirrored result is symmetric bit for bit, and within 2e-6 of the
        largest entry of the float64 product.  The captured arrays are
        released as their pair is formed: they are a shard's largest
        buffers, and nothing reads them after.
        """
        factors = []
        for idx, layer in enumerate(layers):
            a, g = layer.last_a, layer.last_g
            if a is None or g is None:
                raise RuntimeError("no captured statistics; run forward+backward first")
            if a.shape[0] == 0:
                raise RuntimeError(
                    f"K-FAC layer {idx} captured statistics over zero samples; "
                    "its factors would be 0/0"
                )
            layer.last_a = layer.last_g = None
            factors.append((a.T @ a / a.shape[0], g.T @ g / g.shape[0]))
        return factors

    def accumulate_factors(self, idx: int, A: np.ndarray, G: np.ndarray) -> None:
        """Fold (possibly allreduced) factors into the running averages,
        which are float64 whatever the width of the statistic."""
        st = self.state[idx]
        decay = self.factor_decay if st.n_updates > 0 else 0.0
        if st.A is None:
            st.A = A.astype(np.float64)
            st.G = G.astype(np.float64)
        else:
            st.A = decay * st.A + (1 - decay) * A.astype(np.float64, copy=False)
            st.G = decay * st.G + (1 - decay) * G.astype(np.float64, copy=False)
        st.n_updates += 1

    # -- stage 2: eigendecomposition -------------------------------------------

    def _begin_eigen(self, layers: list[int]) -> dict[int, tuple]:
        """Each listed layer's factors and their two ``eigh`` calls, begun
        on the pool if the largest reaches :data:`POOL_MIN_MADDS`; a
        ``None`` call runs inline when committed."""
        factors = {idx: (self.state[idx].A, self.state[idx].G) for idx in layers}
        largest = max((m.shape[0] ** 3 for pair in factors.values() for m in pair), default=0)
        pool = _pool_for(largest)
        if pool is None:
            return {idx: (A, G, None, None) for idx, (A, G) in factors.items()}
        return {
            idx: (A, G, pool.submit(np.linalg.eigh, A), pool.submit(np.linalg.eigh, G))
            for idx, (A, G) in factors.items()
        }

    @contextmanager
    def eigen_batch(self, layers: list[int]):
        """Begin every listed layer's ``eigh`` calls now; inside the
        block, :meth:`compute_eigen` commits them.

        A layer whose factors were replaced since (the guard's repair)
        is decomposed afresh, so what is committed is what an inline
        call on the current factors returns.
        """
        self._eigen_started = self._begin_eigen(layers)
        try:
            yield
        finally:
            self._eigen_started = {}

    def compute_eigen(self, idx: int) -> None:
        """Eigendecompose the running factors of layer ``idx``.

        Raises :class:`FactorNumericsError` (naming the layer) when the
        decomposition fails to converge or yields non-finite eigenvalues,
        instead of propagating a bare ``np.linalg.LinAlgError``.
        """
        st = self.state[idx]
        if st.A is None or st.G is None:
            raise RuntimeError(f"factors for layer {idx} not accumulated yet")
        started = self._eigen_started.pop(idx, None)
        if started is None or started[0] is not st.A or started[1] is not st.G:
            started = self._begin_eigen([idx])[idx]
        _, _, eigh_a, eigh_g = started
        try:
            vA, QA = np.linalg.eigh(st.A) if eigh_a is None else eigh_a.result()
            vG, QG = np.linalg.eigh(st.G) if eigh_g is None else eigh_g.result()
        except np.linalg.LinAlgError as exc:
            raise FactorNumericsError(idx, f"eigh did not converge ({exc})") from exc
        if not (np.isfinite(vA).all() and np.isfinite(vG).all()):
            raise FactorNumericsError(idx, "non-finite eigenvalues")
        st.vA, st.QA = vA, QA
        st.vG, st.QG = vG, QG
        np.clip(st.vA, 0.0, None, out=st.vA)
        np.clip(st.vG, 0.0, None, out=st.vG)

    # -- stage 3: preconditioning ----------------------------------------------

    def precondition(self, idx: int) -> np.ndarray:
        """Preconditioned (out, in[+1]) gradient for layer ``idx`` (Eq. 2)."""
        st = self.state[idx]
        layer = self.layers[idx]
        grad = layer.kfac_weight_grad().astype(np.float64)
        if not st.ready:
            return grad.astype(np.float32)
        v1 = st.QG.T @ grad @ st.QA
        v2 = v1 / self._denominator(idx)
        out = st.QG @ v2 @ st.QA.T
        return out.astype(np.float32)

    def _denominator(self, idx: int) -> np.ndarray:
        """``v_G v_A^T + gamma`` of layer ``idx``, formed once per
        eigendecomposition and damping value: the eigenvalue arrays are
        replaced, never written, once committed, so holding them tells
        whether the cached one is still theirs."""
        st = self.state[idx]
        cached = self._denominators.get(idx)
        if (
            cached is None
            or cached[0] is not st.vG
            or cached[1] is not st.vA
            or cached[2] != self.damping
        ):
            cached = (st.vG, st.vA, self.damping, np.outer(st.vG, st.vA) + self.damping)
            self._denominators[idx] = cached
        return cached[3]

    # -- stage 4: update ---------------------------------------------------------

    def _kl_scale(self, precond: list[np.ndarray], raw: list[np.ndarray]) -> float:
        """KAISA-style KL clipping: bound lr^2 * <precond, raw>."""
        vg = sum(float((p * r).sum()) for p, r in zip(precond, raw)) * self.lr**2
        if vg <= self.kl_clip or vg <= 0:
            return 1.0
        return float(np.sqrt(self.kl_clip / vg))

    def apply(self, preconditioned: dict[int, np.ndarray]) -> None:
        """Write preconditioned grads back and take the momentum-SGD step."""
        raw = [self.layers[i].kfac_weight_grad() for i in preconditioned]
        nu = self._kl_scale(list(preconditioned.values()), raw)
        for idx, pgrad in preconditioned.items():
            st = self.state[idx]
            if st.momentum_buf is None:
                st.momentum_buf = np.zeros_like(pgrad)
            st.momentum_buf *= self.momentum
            st.momentum_buf += nu * pgrad
            update = st.momentum_buf
            layer = self.layers[idx]
            layer.set_kfac_weight_grad(update)
            layer.weight.data -= self.lr * layer.weight.grad
            if getattr(layer, "bias", None) is not None:
                layer.bias.data -= self.lr * layer.bias.grad
        # First-order update for non-K-FAC parameters.
        for p, buf in zip(self.other_params, self._other_momentum):
            buf *= self.momentum
            buf += p.grad
            p.data -= self.lr * buf

    # -- checkpoint state ----------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """What an exact resume needs, as named arrays (checkpoint
        sections): the step counter ``t``; per layer ``<i>/A``, ``G`` and
        ``n_updates`` once it has factors, ``<i>/QA``, ``vA``, ``QG`` and
        ``vG`` once it is ready, ``<i>/momentum`` once it has stepped; and
        ``other_momentum/<j>`` of each first-order parameter.  The
        eigendecomposition is stored, not recomputed on restore, so a
        resumed run keeps the exact inverse it was using mid-interval."""
        state = {"t": np.array(self.t)}
        for idx, st in self.state.items():
            if st.A is not None:
                state.update({f"{idx}/A": st.A, f"{idx}/G": st.G,
                              f"{idx}/n_updates": np.array(st.n_updates)})
            if st.ready:
                state.update({f"{idx}/QA": st.QA, f"{idx}/vA": st.vA,
                              f"{idx}/QG": st.QG, f"{idx}/vG": st.vG})
            if st.momentum_buf is not None:
                state[f"{idx}/momentum"] = st.momentum_buf
        state.update((f"other_momentum/{j}", buf) for j, buf in enumerate(self._other_momentum))
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Replace the whole K-FAC state with ``state`` (:meth:`state_dict`'s
        layout): a layer or buffer without sections starts afresh, and a
        layer with factors but no eigendecomposition is not ready until the
        next step computes one.

        Every section is checked against the layer dimensions before
        anything is assigned: :class:`CheckpointError` names the first one
        that is missing from its group, mis-shaped or unknown, and leaves
        this optimiser as it was.
        """
        layers: dict[int, dict[str, np.ndarray]] = {idx: {} for idx in self.state}
        others: dict[int, np.ndarray] = {}
        other_keys = {f"other_momentum/{j}": j for j in range(len(self.other_params))}
        for key, value in state.items():
            head, _, name = key.partition("/")
            expected = None
            if key == "t":
                expected = ()
            elif key in other_keys:
                others[other_keys[key]] = value
                expected = self.other_params[other_keys[key]].shape
            elif head.isdigit() and int(head) in layers:
                layers[int(head)][name] = value
                expected = self._section_shape(int(head), name)
            if expected is None:
                raise CheckpointError(f"checkpoint K-FAC state {key!r} names no K-FAC state")
            if np.shape(value) != expected:
                raise CheckpointError(
                    f"checkpoint K-FAC state {key!r} has shape {np.shape(value)}, "
                    f"expected {expected}"
                )
        for idx, sections in layers.items():
            for names, needs in _SECTION_GROUPS:
                present = [name for name in names if name in sections]
                missing = [name for name in names + needs if name not in sections]
                if present and missing:
                    raise CheckpointError(
                        f"checkpoint K-FAC state is incomplete: '{idx}/{present[0]}' "
                        f"present but '{idx}/{missing[0]}' missing"
                    )
        self.t = int(state.get("t", 0))
        for idx, sections in layers.items():
            st = self.state[idx] = LayerFactors(
                **{_FIELDS.get(name, name): value for name, value in sections.items()}
            )
            st.n_updates = int(st.n_updates)
        self._other_momentum = [
            others.get(j, np.zeros_like(p.data)) for j, p in enumerate(self.other_params)
        ]

    def _section_shape(self, idx: int, name: str) -> tuple[int, ...] | None:
        """The shape of layer ``idx``'s section ``name``; ``None``: no such section."""
        i, o = self.layer_dims(idx)
        return {
            "A": (i, i), "G": (o, o), "n_updates": (), "QA": (i, i), "vA": (i,),
            "QG": (o, o), "vG": (o,), "momentum": (o, i),
        }.get(name)

    # -- sizes used by the communication model -------------------------------------

    def layer_dims(self, idx: int) -> tuple[int, int]:
        """``(in_features [+1 with bias], out_features)`` of layer ``idx`` —
        the sides of its A and G factors."""
        return self._layer_dims[idx]
