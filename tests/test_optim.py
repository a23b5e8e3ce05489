"""The SGD optimizer, the StepLR schedule, and the K-FAC optimizer."""

import numpy as np
import pytest

from repro import nn
from repro.optim import Kfac, Sgd, StepLr
from tests.conftest import kfac_step, without_bias


def _quadratic_problem(rng, n=200, d=10):
    """Linear regression: analytically solvable, good optimizer testbed."""
    X = rng.standard_normal((n, d)).astype(np.float32)
    w_true = rng.standard_normal(d).astype(np.float32)
    y = X @ w_true
    return X, y[:, None], w_true


def _mse(pred, target):
    """Mean squared error and its gradient."""
    diff = pred - target
    return float((diff**2).mean()), (2.0 / diff.size) * diff.astype(np.float32)


def _run(optimizer_factory, rng, iters=200):
    X, y, w_true = _quadratic_problem(rng)
    model = nn.Sequential(without_bias(nn.Linear(10, 1, rng=1)))
    opt = optimizer_factory(model)
    for _ in range(iters):
        out = model(X)
        loss, dl = _mse(out, y)
        opt.zero_grad()
        model.backward(dl)
        opt.step()
    return loss, model


class TestFirstOrder:
    def test_sgd_converges(self, rng):
        loss, _ = _run(lambda m: Sgd(m.parameters(), lr=0.05, momentum=0.9), rng)
        assert loss < 1e-3

    def test_momentum_accelerates(self, rng):
        loss_mom, _ = _run(lambda m: Sgd(m.parameters(), lr=0.02, momentum=0.9), rng, iters=50)
        loss_plain, _ = _run(lambda m: Sgd(m.parameters(), lr=0.02, momentum=0.0), rng, iters=50)
        assert loss_mom < loss_plain

    def test_weight_decay_shrinks_weights(self, rng):
        decaying = type("DecayingSgd", (Sgd,), {"weight_decay": 0.5})
        _, m1 = _run(lambda m: decaying(m.parameters(), lr=0.01), rng, iters=100)
        _, m2 = _run(lambda m: Sgd(m.parameters(), lr=0.01), rng, iters=100)
        n1 = np.linalg.norm(m1.parameters()[0].data)
        n2 = np.linalg.norm(m2.parameters()[0].data)
        assert n1 < n2

    def test_zero_grad(self, rng):
        model = nn.Sequential(nn.Linear(3, 2, rng=1))
        opt = Sgd(model.parameters(), lr=0.1)
        model.parameters()[0].grad += 1.0
        opt.zero_grad()
        assert np.all(model.parameters()[0].grad == 0)


class TestSchedulers:
    def test_step_lr_drops(self):
        s = StepLr(1.0, [10, 20], gamma=0.1)
        assert s.lr_at(0) == 1.0
        assert s.lr_at(10) == pytest.approx(0.1)
        assert s.lr_at(25) == pytest.approx(0.01)

    def test_step_lr_requires_sorted_milestones(self):
        with pytest.raises(ValueError):
            StepLr(1.0, [20, 10])


class TestKfac:
    def _classification_setup(self, rng):
        n, d, c = 400, 16, 5
        W = rng.standard_normal((c, d))
        X = rng.standard_normal((n, d)).astype(np.float32)
        y = (X @ W.T).argmax(1)
        model = nn.Sequential(nn.Linear(d, 24, rng=2), nn.GELU(), nn.Linear(24, c, rng=3))
        return model, X, y

    def _train_kfac(self, model, X, y, rng, iters=50):
        opt = Kfac(model, lr=0.05, inv_update_freq=5)
        losses = []
        for _ in range(iters):
            idx = rng.integers(0, len(y), 64)
            out = model(X[idx])
            loss, dl = nn.softmax_cross_entropy(out, y[idx])
            model.zero_grad()
            model.backward(dl)
            kfac_step(opt)
            losses.append(loss)
        return losses

    def test_converges_faster_than_sgd(self, rng):
        model_k, X, y = self._classification_setup(rng)
        k_losses = self._train_kfac(model_k, X, y, np.random.default_rng(0))
        model_s, _, _ = self._classification_setup(np.random.default_rng(12345))
        opt = Sgd(model_s.parameters(), lr=0.05, momentum=0.9)
        s_losses = []
        srng = np.random.default_rng(0)
        for _ in range(50):
            idx = srng.integers(0, len(y), 64)
            out = model_s(X[idx])
            loss, dl = nn.softmax_cross_entropy(out, y[idx])
            opt.zero_grad()
            model_s.backward(dl)
            opt.step()
            s_losses.append(loss)
        assert np.mean(k_losses[-10:]) < np.mean(s_losses[-10:])

    def test_identity_factors_reduce_to_scaled_gradient(self, rng):
        """With A = G = I the preconditioner is 1/(1+damping) * I."""
        model = nn.Sequential(without_bias(nn.Linear(4, 3, rng=1)))
        opt = Kfac(model, lr=0.1)
        opt.damping = 0.5  # as the guard's escalate_damping sets it
        layer = model.kfac_layers()[0]
        opt.accumulate_factors(0, np.eye(4), np.eye(3))
        opt.compute_eigen(0)
        layer.weight.grad = rng.standard_normal((3, 4)).astype(np.float32)
        pg = opt.precondition(0)
        assert np.allclose(pg, layer.weight.grad / 1.5, atol=1e-5)

    def test_the_cached_denominator_is_the_formula_across_damping_and_refreshes(self, rng):
        """``precondition`` divides by ``outer(vG, vA) + damping`` formed once
        per eigendecomposition and damping value; every result is the
        formula's bit for bit, through a guard ``escalate_damping``, a
        refresh and a rebuilt eigendecomposition."""
        from repro.guard.policy import CircuitBreaker, GuardContext, PolicyEngine

        model = nn.Sequential(nn.Linear(6, 5, rng=1), nn.GELU(), nn.Linear(5, 3, rng=2))
        opt = Kfac(model)
        engine = PolicyEngine(CircuitBreaker())

        def refresh():
            for idx in range(2):
                in_f, out_f = opt.layer_dims(idx)
                a, g = rng.standard_normal((30, in_f)), rng.standard_normal((30, out_f))
                opt.accumulate_factors(idx, a.T @ a / 30, g.T @ g / 30)
                opt.compute_eigen(idx)

        def check():
            for idx, layer in enumerate(opt.layers):
                st = opt.state[idx]
                grad = rng.standard_normal(layer.kfac_weight_grad().shape).astype(np.float32)
                layer.set_kfac_weight_grad(grad)
                v1 = st.QG.T @ grad.astype(np.float64) @ st.QA
                want = st.QG @ (v1 / (np.outer(st.vG, st.vA) + opt.damping)) @ st.QA.T
                assert np.array_equal(opt.precondition(idx), want.astype(np.float32))

        refresh()
        check()
        check()  # the cached denominator
        first = opt._denominators[0][3]
        assert engine.handle("eigh_retry", {}, GuardContext(kfac=opt), 0).action == "escalate_damping"
        assert opt.damping == 0.1
        check()
        assert opt._denominators[0][3] is not first
        refresh()
        check()
        st = opt.state[1]
        st.QA = st.vA = st.QG = st.vG = None  # a dead owner's layer, rebuilt
        opt.compute_eigen(1)
        check()

    def test_factor_running_average(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=1))
        opt = Kfac(model)
        opt.accumulate_factors(0, np.full((3, 3), 1.0), np.full((2, 2), 1.0))
        opt.accumulate_factors(0, np.full((3, 3), 3.0), np.full((2, 2), 3.0))
        assert np.allclose(opt.state[0].A, 1.1)  # 0.95*1 + 0.05*3

    def test_kl_clip_bounds_update(self, rng):
        model = nn.Sequential(without_bias(nn.Linear(4, 3, rng=1)))
        opt = Kfac(model, lr=1.0)
        opt.damping = 1e-8
        layer = model.kfac_layers()[0]
        opt.accumulate_factors(0, np.eye(4) * 1e-6, np.eye(3) * 1e-6)
        opt.compute_eigen(0)
        layer.weight.grad = np.full((3, 4), 10.0, dtype=np.float32)
        before = layer.weight.data.copy()
        pg = opt.precondition(0)
        unclipped_norm = float(np.linalg.norm(pg))
        opt.apply({0: pg})
        step_norm = float(np.linalg.norm(layer.weight.data - before))
        # Tiny factors make the raw preconditioned step enormous; the KL
        # clip must shrink it by orders of magnitude.
        assert unclipped_norm > 1e8
        assert step_norm < unclipped_norm * 1e-6
        # Clipped exactly to the bound: |step| = sqrt(kl_clip * |pg| / 10 / sqrt(12)).
        expected = np.sqrt(opt.kl_clip * unclipped_norm / 10.0 / 12**0.5)
        assert step_norm == pytest.approx(expected, rel=1e-3)

    def test_non_kfac_params_get_sgd_update(self, rng):
        model = nn.Sequential(nn.Linear(4, 4, rng=1), nn.LayerNorm(4), nn.Linear(4, 2, rng=2))
        opt = Kfac(model, lr=0.1)
        assert len(opt.other_params) == 2  # LayerNorm gamma/beta
        gamma = opt.other_params[0]
        gamma.grad += 1.0
        before = gamma.data.copy()
        opt.apply({})
        assert np.allclose(gamma.data, before - 0.1)  # momentum's first step is the gradient

    def test_gradient_sizes(self):
        """A layer's preconditioned gradient (the allgather payload) has
        the element count of its two factor sides."""
        model = nn.Sequential(nn.Linear(4, 3, rng=1), nn.ReLU(), without_bias(nn.Linear(3, 2, rng=2)))
        opt = Kfac(model)
        dims = [opt.layer_dims(i) for i in range(2)]
        assert dims == [(5, 3), (3, 2)]
        params = [sum(p.data.size for p in layer.parameters()) for layer in model.kfac_layers()]
        assert [a * g for a, g in dims] == params == [3 * 5, 2 * 3]

    def test_invalid_config(self):
        model = nn.Sequential(nn.Linear(2, 2))
        with pytest.raises(ValueError):
            Kfac(model, inv_update_freq=0)
