import json
import math
import os
import pickle
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from parseq import predictors
from parseq import (
    Chain,
    GaussianOptimalPredictor,
    MlpPredictor,
    ParseError,
    SchemaError,
    ShapeError,
    ZeroPredictor,
    load_gaussian_params,
    load_mlp,
    make_linear_beta_schedule,
    random_mlp,
    save_gaussian,
    save_mlp,
    select_subsequence,
)
from parseq.chain import _rollout

from gradcheck import ConstantPredictor, central_difference_grad


@pytest.fixture
def sched():
    return make_linear_beta_schedule(100, 1e-4, 0.05)


class TestTrivialPredictors:
    def test_zero(self):
        p = ZeroPredictor(3)
        x = np.array([1.0, -2.0, 0.5])
        assert p.predict(x, 5).tolist() == [0.0, 0.0, 0.0]
        assert p.vjp(x, 5, np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_constant(self):
        p = ConstantPredictor(np.array([1.5, -0.5]))
        assert p.predict(np.zeros(2), 1).tolist() == [1.5, -0.5]
        assert p.predict(np.array([9.0, 9.0]), 7).tolist() == [1.5, -0.5]
        assert p.vjp(np.zeros(2), 1, np.ones(2)).tolist() == [0.0, 0.0]

    def test_zero_gives_positive_zeros_for_a_row_or_a_batch(self):
        # Both calls give +0.0, never -0.0, and no state reaches them.
        p = ZeroPredictor(3)
        assert p.dim == 3 and p.vjp_state(np.ones(3), 1) is None
        x, t = -np.ones((2, 3)), np.array([1, 2])
        for out in (p.predict(x, t), p.vjp(x, t, x), p.predict(x[0], 1), p.vjp(x[0], 1, x[0]),
                    p.vjp_from(None, x, t, x)):
            assert out.tobytes() == np.zeros(out.shape).tobytes()

    def test_shape_mismatch(self):
        p = ZeroPredictor(3)
        with pytest.raises(ShapeError):
            p.predict(np.zeros(4), 1)
        with pytest.raises(ShapeError):
            p.predict(np.zeros((2, 3)), 1)
        with pytest.raises(ShapeError):
            p.predict(np.zeros((2, 3)), np.array([1, 2, 3]))


@pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
def test_one_state_with_an_array_of_labels_is_a_shape_error(sched, kind):
    # One (D,) state takes one label; an array of them used to give an
    # (N, D) result, a (D,) one or numpy's ValueError, by predictor.
    p = make_predictor(kind, sched, np.random.default_rng(57))
    x = np.ones(4)
    for labels in (np.array([1, 2, 3]), np.array([5])):
        calls = [lambda: p.predict(x, labels), lambda: p.vjp(x, labels, x),
                 lambda: p.vjp_from(None, x, labels, x)]
        if kind == "mlp":  # the one predictor whose vjp reads a forward state
            calls.append(lambda: p.vjp_state(x, labels))
        for call in calls:
            with pytest.raises(ShapeError, match="a state \\(4,\\) with one timestep"):
                call()


def make_predictor(kind, sched, rng):
    if kind == "zero":
        return ZeroPredictor(4)
    if kind == "constant":
        return ConstantPredictor(rng.standard_normal(4))
    if kind == "gaussian":
        return GaussianOptimalPredictor(
            rng.standard_normal(4), rng.uniform(0.3, 2.0, 4), sched
        )
    return random_mlp(4, [16, 8], rng, t_max=100)


class TestBatchedContract:
    """A batch of rows with one timestep each equals the per-row calls."""

    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
    def test_batch_matches_rows(self, sched, kind):
        rng = np.random.default_rng(21)
        p = make_predictor(kind, sched, rng)
        x = rng.standard_normal((7, 4))
        u = rng.standard_normal((7, 4))
        t = np.array([1, 100, 37, 37, 2, 64, 99])
        got = p.predict(x, t), p.vjp(x, t, u)
        rows = (
            np.array([p.predict(x[i], int(t[i])) for i in range(7)]),
            np.array([p.vjp(x[i], int(t[i]), u[i]) for i in range(7)]),
        )
        for batched, per_row in zip(got, rows):
            assert batched.shape == (7, 4)
            if kind == "mlp":
                # One matrix product per layer instead of one per row.
                np.testing.assert_allclose(batched, per_row, rtol=1e-12, atol=1e-15)
            else:
                np.testing.assert_array_equal(batched, per_row)


@pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
def test_vjp_refuses_a_cotangent_of_another_shape(sched, kind):
    # A (D,) cotangent must not broadcast over an (N, D) batch, nor be
    # ignored; every mismatch is a ShapeError, never a bare ValueError.
    rng = np.random.default_rng(31)
    p = make_predictor(kind, sched, rng)
    x, t = rng.standard_normal((3, 4)), np.array([5, 9, 40])
    for state, steps, cotangent in [
        (x, t, np.ones(4)),
        (x, t, np.ones((3, 5))),
        (x, t, np.ones((2, 4))),
        (x[0], 5, np.ones(5)),
        (x[0], 5, np.ones((1, 4))),
        (x[0], 5, np.ones(())),
    ]:
        with pytest.raises(ShapeError, match="cotangent shape"):
            p.vjp(state, steps, cotangent)
    assert p.vjp(x, t, np.ones((3, 4))).shape == (3, 4)
    assert p.vjp(x[0], 5, [1.0, 2.0, 3.0, 4.0]).shape == (4,)


def _gaussian_as_written(p, x, t):
    """The posterior-mean noise and its gain, computed from scratch for
    every call as the predictor did before it kept per-timestep terms."""
    if isinstance(t, np.ndarray):
        a = p.schedule.alpha_by_t[t][:, None]
    else:
        a = p.schedule.alpha_bar(t)
    gain = np.sqrt(1.0 - a) / (a * p.var + (1.0 - a))
    return gain * (x - np.sqrt(a) * p.mu), gain


def _same_vars(p, before):
    """Whether ``vars(p)`` still holds exactly the objects of ``before``."""
    after = vars(p)
    return after.keys() == before.keys() and all(after[k] is before[k] for k in before)


class TestPreparedGaussianTerms:
    """``prepare`` returns labels that carry their terms; the bits never move."""

    @staticmethod
    def predictor(eta):
        sched = make_linear_beta_schedule(100, 1e-4, 0.05, eta=eta)
        rng = np.random.default_rng(41)
        return GaussianOptimalPredictor(rng.standard_normal(6), rng.uniform(0.0, 2.0, 6), sched)

    @staticmethod
    def count_builds(monkeypatch):
        """The labels of every gain-and-shift build from now on."""
        builds = []
        terms = GaussianOptimalPredictor._terms
        monkeypatch.setattr(GaussianOptimalPredictor, "_terms",
                            lambda self, t: builds.append(t) or terms(self, t))
        return builds

    @staticmethod
    def assert_as_written(p, x, t, label, u):
        """Both calls on ``label`` give the from-scratch bits at the plain
        timesteps ``t``."""
        eps, gain = _gaussian_as_written(p, x, t)
        assert p.predict(x, label).tobytes() == eps.tobytes()
        assert p.vjp(x, label, u).tobytes() == (gain * u).tobytes()

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_prepared_calls_keep_the_bits(self, eta):
        p = self.predictor(eta)
        taus = np.array([3, 17, 40, 41, 77, 100])
        batch, rows = p.prepare(taus)
        rng = np.random.default_rng(42)
        x, u = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
        outside = np.array([1, 17, 99, 50, 0, 100])  # 1, 99, 50 and 0 were not prepared
        self.assert_as_written(p, x, taus, batch, u)
        for t in (taus, taus.copy(), outside):
            self.assert_as_written(p, x, t, t, u)
            for i in range(6):
                self.assert_as_written(p, x[i], int(t[i]), int(t[i]), u[i])
                self.assert_as_written(p, x[i], int(t[i]), t[i], u[i])
        for i in range(6):
            self.assert_as_written(p, x[i], int(taus[i]), rows[i], u[i])

    def test_labels_carry_their_own_terms_and_the_predictor_keeps_none(self, monkeypatch):
        # Each prepare builds its terms once, into the labels it returns, and
        # stores nothing: labels prepared earlier still give their own rows.
        # Any other label, a value-equal copy included, keeps its bits but
        # builds its terms.
        p = self.predictor(1.0)
        before = dict(vars(p))
        builds = self.count_builds(monkeypatch)
        first = np.array(select_subsequence(100, 25, "linear").indices)
        second = np.arange(1, 101, 9)
        prepared = [(taus, *p.prepare(taus)) for taus in (first, second)]
        assert len(builds) == 2 and _same_vars(p, before)
        x = np.random.default_rng(44).standard_normal((first.size, 6))
        for taus, batch, rows in prepared + prepared[::-1]:
            assert batch.tolist() == taus.tolist() and len(rows) == taus.size
            xt = x[: taus.size]
            self.assert_as_written(p, xt, taus, batch, xt)
            for i, t in enumerate(taus.tolist()):
                self.assert_as_written(p, xt[i], t, rows[i], xt[i])
        assert len(builds) == 2
        for t in (first, second.copy(), np.array([0, 2, 50])):
            self.assert_as_written(p, x[: t.size], t, t, x[: t.size])
        for t in (2, 50):
            self.assert_as_written(p, x[0], t, t, x[0])
        assert len(builds) == 2 + 2 * 5
        assert _same_vars(p, before)

    def test_prepare_refuses_timesteps_the_schedule_lacks(self):
        p = self.predictor(0.0)
        before = dict(vars(p))
        for bad in (np.array([0, 101]), np.array([-1, 5]), np.array([[1, 2]]),
                    np.array([1.0, 2.0])):
            with pytest.raises(ShapeError):
                p.prepare(bad)
        assert _same_vars(p, before)

    @pytest.mark.parametrize("labels", [[-1], [5, -3], [5, 101]])
    def test_unprepared_batch_refuses_labels_outside_the_schedule(self, labels):
        # A negative label would otherwise index the products from the end.
        p = self.predictor(0.0)
        x, t = np.ones((len(labels), 6)), np.array(labels)
        with pytest.raises(ShapeError, match=r"timesteps must lie in 0\.\.100"):
            p.predict(x, t)
        with pytest.raises(ShapeError, match=r"timesteps must lie in 0\.\.100"):
            p.vjp(x, t, x)

    @pytest.mark.parametrize("label", [-1, 101, 10**30, 2.5, (3, 4)])
    def test_unprepared_row_refuses_labels_outside_the_schedule(self, label):
        # One label rule for a row and a batch: a ShapeError, not an IndexError.
        # A plain tuple is no prepared row label either.
        p = self.predictor(0.0)
        p.prepare(np.array([1, 2]))
        x = np.ones(6)
        with pytest.raises(ShapeError, match="timesteps must"):
            p.predict(x, label)
        with pytest.raises(ShapeError, match="timesteps must"):
            p.vjp(x, label, x)

    @pytest.mark.parametrize("writable", [True, False])
    def test_writable_and_read_only_timesteps_prepare_alike(self, writable, monkeypatch):
        # Labels carry their terms whatever the flags of the array they came
        # from; none is kept or found again by identity.
        p = self.predictor(0.0)
        taus = np.array([3, 17, 40])
        taus.setflags(write=writable)
        batch, rows = p.prepare(taus)
        builds = self.count_builds(monkeypatch)
        x = np.random.default_rng(45).standard_normal((3, 6))
        self.assert_as_written(p, x, taus.copy(), batch, x)
        for i in range(3):
            self.assert_as_written(p, x[i], int(taus[i]), rows[i], x[i])
        assert builds == []

    @pytest.mark.parametrize("kind", ["zero", "constant", "mlp"])
    def test_default_prepare_returns_the_timesteps(self, sched, kind):
        # The labels every other predictor sees are the plain ones: the
        # timesteps array itself and its Python ints.
        rng = np.random.default_rng(43)
        p = make_predictor(kind, sched, rng)
        before = dict(vars(p))
        x, t = rng.standard_normal((3, 4)), np.array([5, 9, 40])
        want = p.predict(x, t).tobytes()
        batch, rows = p.prepare(t)
        assert batch is t and rows == [5, 9, 40] and all(type(r) is int for r in rows)
        assert p.predict(x, batch).tobytes() == want
        assert _same_vars(p, before)


class TestGaussianOptimalPredictor:
    def test_empty_state_is_a_shape_error(self, sched):
        with pytest.raises(ShapeError, match="non-empty"):
            GaussianOptimalPredictor(np.zeros(0), np.zeros(0), sched)

    def test_negative_var_is_a_shape_error(self, sched):
        with pytest.raises(ShapeError, match=r"^var entries must be >= 0$"):
            GaussianOptimalPredictor(np.zeros(2), np.array([1.0, -0.5]), sched)

    def test_worked_value(self):
        # mu=[2], var=[4], alpha_bar=0.5, x=[3]:
        # sqrt(0.5) * (3 - sqrt(0.5)*2) / (0.5*4 + 0.5).
        sched = make_linear_beta_schedule(1, 0.5, 0.5)
        p = GaussianOptimalPredictor(np.array([2.0]), np.array([4.0]), sched)
        expected = math.sqrt(0.5) * (3.0 - math.sqrt(0.5) * 2.0) / 2.5
        assert expected == pytest.approx(0.44852813742385697, rel=1e-15)
        assert p.predict(np.array([3.0]), 1)[0] == pytest.approx(expected, rel=1e-14)

    def test_standard_normal_data_reduces_to_scaling(self, sched):
        # mu=0, var=1 collapses the gain to sqrt(1 - a).
        p = GaussianOptimalPredictor(np.zeros(4), np.ones(4), sched)
        x = np.array([1.0, -2.0, 0.0, 3.0])
        for t in (1, 50, 100):
            a = sched.alpha_bar(t)
            np.testing.assert_allclose(
                p.predict(x, t), math.sqrt(1 - a) * x, rtol=1e-14
            )

    def test_vjp_is_diagonal_gain(self, sched):
        rng = np.random.default_rng(0)
        p = GaussianOptimalPredictor(
            rng.normal(size=5), np.abs(rng.normal(size=5)) + 0.1, sched
        )
        x = rng.standard_normal(5)
        u = rng.standard_normal(5)

        def scalar(xv):
            return float(p.predict(xv, 42) @ u)

        np.testing.assert_allclose(
            p.vjp(x, 42, u), central_difference_grad(scalar, x), rtol=1e-7, atol=1e-10
        )

    def test_unbiased_over_marginal(self, sched):
        # Over x_t ~ N(sqrt(a) mu, a var + (1 - a)), the predicted noise must
        # average to zero; bound the check at four standard errors.
        mu = np.array([1.0, -2.0])
        var = np.array([0.5, 3.0])
        p = GaussianOptimalPredictor(mu, var, sched)
        t = 60
        a = sched.alpha_bar(t)
        rng = np.random.default_rng(7)
        n = 100_000
        draws = math.sqrt(a) * mu + np.sqrt(a * var + 1 - a) * rng.standard_normal(
            (n, 2)
        )
        preds = np.array([p.predict(x, t) for x in draws])
        per_coord_var = (1 - a) / (a * var + 1 - a)
        se = np.sqrt(per_coord_var / n)
        assert np.all(np.abs(preds.mean(axis=0)) < 4 * se)

    def test_purity(self, sched):
        p = GaussianOptimalPredictor(np.zeros(3), np.ones(3), sched)
        x = np.array([0.5, -1.0, 2.0])
        first = p.predict(x, 10)
        second = p.predict(x, 10)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(x, [0.5, -1.0, 2.0])


class TestMlpPredictor:
    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = random_mlp(4, [16, 8], rng, t_max=100)
        x = rng.standard_normal(4)
        u = rng.standard_normal(4)

        def scalar(xv):
            return float(p.predict(xv, 37) @ u)

        fd = central_difference_grad(scalar, x, step=1e-5)
        np.testing.assert_allclose(p.vjp(x, 37, u), fd, rtol=1e-4, atol=1e-9)

    @pytest.mark.parametrize("dim, hidden, scale",
                             [(64, [128, 128], 1.0), (16, [64, 64], 0.5), (8, [], 1.0)])
    def test_one_row_calls_keep_the_matrix_vector_bits(self, dim, hidden, scale):
        # One state goes through the same ``a @ w.T`` / ``g @ w`` products
        # as a batch; its bits must stay those of the matrix-vector form.
        rng = np.random.default_rng(12)
        p = random_mlp(dim, hidden, rng, t_max=1000, scale=scale)
        last = len(p.weights) - 1
        for t in (1, 500, 1000):
            x, u = rng.standard_normal(dim), rng.standard_normal(dim)
            acts = [np.concatenate([x, [t / p.t_max]])]
            for layer, (w, b) in enumerate(zip(p.weights, p.biases)):
                z = w @ acts[-1] + b
                acts.append(z if layer == last else np.tanh(z))
            g = u
            for layer in range(last, -1, -1):
                if layer != last:
                    g = g * (1.0 - acts[layer + 1] ** 2)
                g = p.weights[layer].T @ g
            assert p.predict(x, t).tobytes() == acts[-1].tobytes()
            assert p.vjp(x, t, u).tobytes() == g[:-1].tobytes()

    def test_time_slot_changes_output(self):
        p = random_mlp(3, [8], np.random.default_rng(1), t_max=100)
        x = np.zeros(3)
        assert not np.allclose(p.predict(x, 1), p.predict(x, 99))

    def test_empty_state_is_a_schema_error(self):
        with pytest.raises(SchemaError, match=r"^mlp widths must be positive, got \[1, 3, 0\]$"):
            random_mlp(0, [3], np.random.default_rng(0))

    def test_widths_are_read_off_the_weight_shapes(self):
        p = MlpPredictor([np.zeros((4, 3), np.float32), np.zeros((2, 4))],
                         [np.zeros(4), np.zeros(2)])
        assert p.widths == [3, 4, 2] and all(type(w) is int for w in p.widths)
        assert p.dim == 2 and [w.dtype for w in p.weights] == [np.float64] * 2

    @pytest.mark.parametrize("widths, message", [
        ([3, 2.0], "mlp widths must be a list of integers"),
        ([True, 2], "mlp widths must be a list of integers"),
        ("32", "field 'widths' must be a list"),
    ], ids=["float", "bool", "text"])
    def test_non_integer_file_widths_are_a_schema_error(self, widths, message, tmp_path):
        # An integral float or a bool is refused, not converted.
        path = tmp_path / "mlp.json"
        path.write_text(json.dumps({"widths": widths, "weights": [[0.0] * 6],
                                    "biases": [[0.0, 0.0]], "time_embed": "scalar_append"}))
        with pytest.raises(SchemaError, match=f"{message}$"):
            load_mlp(str(path))

    @pytest.mark.parametrize("weights, message", [
        ([np.zeros((4, 3)), np.zeros((2, 5))],
         r"^layer 1 weight shape \(2, 5\) does not match widths \(2, 4\)$"),
        ([np.zeros((4, 3)), np.zeros(2)], r"^every layer's weights must be a matrix$"),
    ], ids=["unchained", "vector"])
    def test_misshapen_weight_is_a_schema_error(self, weights, message):
        with pytest.raises(SchemaError, match=message):
            MlpPredictor(weights, [np.zeros(4), np.zeros(2)])

    def test_widths_must_account_for_time_slot(self):
        with pytest.raises(SchemaError, match=r"^input width 3 must be output width 3 \+ 1"):
            MlpPredictor([np.zeros((8, 3)), np.zeros((3, 8))], [np.zeros(8), np.zeros(3)])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        p = random_mlp(3, [8], rng, t_max=200)
        path = tmp_path / "mlp.json"
        save_mlp(str(path), p)
        q = load_mlp(str(path), t_max=200)
        for _ in range(100):
            x = rng.standard_normal(3)
            t = int(rng.integers(1, 201))
            np.testing.assert_array_equal(p.predict(x, t), q.predict(x, t))

    def test_missing_field_named(self, tmp_path):
        import json

        path = tmp_path / "broken.json"
        with open(path, "w") as fh:
            json.dump({"widths": [4, 8, 3], "weights": []}, fh)
        with pytest.raises(ParseError, match="biases"):
            load_mlp(str(path))

    def test_dim_mismatch_is_schema_error(self, tmp_path):
        # Input width 4 cannot be a 2-d state plus its time slot.
        import json

        path = tmp_path / "mlp.json"
        with open(path, "w") as fh:
            json.dump({"widths": [4, 2], "weights": [[0.0] * 8], "biases": [[0.0, 0.0]],
                       "time_embed": "scalar_append"}, fh)
        with pytest.raises(SchemaError, match="output width"):
            load_mlp(str(path))

    def test_truncated_weights_is_schema_error(self, tmp_path):
        import json

        p = random_mlp(2, [4], np.random.default_rng(0))
        path = tmp_path / "mlp.json"
        save_mlp(str(path), p)
        with open(path) as fh:
            payload = json.load(fh)
        payload["weights"][0] = payload["weights"][0][:-1]
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(SchemaError):
            load_mlp(str(path))

    def test_non_json_is_parse_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_mlp(str(path))


class TestForwardState:
    """The caller holds the forward state a vjp reads: ``vjp_state``
    returns it, ``vjp_from`` reads it, and the predictor itself keeps
    nothing from one call to the next."""

    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp", "mlp-linear"])
    def test_state_calls_give_the_bits_of_vjp(self, sched, kind):
        rng = np.random.default_rng(54)
        p = (random_mlp(4, [], rng, t_max=100) if kind == "mlp-linear"
             else make_predictor(kind, sched, rng))
        x, u, t = rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), np.array(
            [1, 7, 7, 60, 100])
        for xs, ts, us in [(x, t, u), (x[2], 7, u[2])]:
            state = p.vjp_state(xs, ts)
            if kind.startswith("mlp"):
                assert [s.shape for s in state] == [xs.shape[:-1] + (w,) for w in p.widths[1:-1]]
                assert [s.tobytes() for s in state] == [s.tobytes() for s in p.vjp_state(xs, ts)]
            else:
                assert state is None
            assert p.vjp_from(state, xs, ts, us).tobytes() == p.vjp(xs, ts, us).tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "mlp-linear"])
    def test_a_row_of_a_batch_state_is_that_row_state(self, sched, kind):
        # The factors are elementwise in the hidden activations, so a row of
        # a batch's state differs from a one-row build only by the rounding
        # of the batched matrix products.
        rng = np.random.default_rng(55)
        p = random_mlp(4, [16, 8] if kind == "mlp" else [], rng, t_max=100)
        x, u, t = rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), np.array(
            [1, 7, 7, 60, 100])
        batch = p.vjp_state(x, t)
        assert [s.shape for s in batch] == [(5, w) for w in p.widths[1:-1]]
        for i in range(5):
            row = [s[i] for s in batch]
            np.testing.assert_allclose(p.vjp_from(row, x[i], int(t[i]), u[i]),
                                       p.vjp(x[i], int(t[i]), u[i]), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kind", ["zero", "constant", "gaussian", "mlp"])
    def test_no_call_changes_the_predictor(self, sched, kind):
        # No predictor keeps anything: neither building a Chain, which
        # calls prepare, nor any forward or backward call, on the chain's
        # labels or plain ones, adds to or changes it.
        rng = np.random.default_rng(56)
        p = make_predictor(kind, sched, rng)
        before = pickle.dumps(vars(p))
        chain = Chain(sched, select_subsequence(100, 5, "linear"), p)
        x, u, t = rng.standard_normal((5, 4)), rng.standard_normal((5, 4)), chain.timesteps
        batch, rows = chain.labels
        for xs, ts, us in [(x, t, u), (x, t.copy(), u), (x, batch, u), (x[:2], batch[:2], u[:2]),
                           (x[0], 3, u[0]), (x[1], int(t[1]), u[1]), (x[1], rows[1], u[1])]:
            p.predict(xs, ts)
            p.vjp(xs, ts, us)
            p.vjp_from(p.vjp_state(xs, ts), xs, ts, us)
        _rollout(chain, x[0])
        assert pickle.dumps(vars(p)) == before


class TestGaussianParamsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        save_gaussian(str(path), np.array([1.0, -2.0]), np.array([0.5, 4.0]))
        mu, var = load_gaussian_params(str(path))
        assert mu.tolist() == [1.0, -2.0]
        assert var.tolist() == [0.5, 4.0]

    def test_missing_var(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"mu": [1.0]}')
        with pytest.raises(ParseError, match="var"):
            load_gaussian_params(str(path))

    def test_negative_var_is_a_schema_error_naming_the_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"mu": [1.0, 2.0], "var": [0.5, -0.25]}')
        with pytest.raises(SchemaError, match="var entries must be >= 0") as info:
            load_gaussian_params(str(path))
        assert str(path) in str(info.value)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty parse memo, so that a test sees only its own loads."""
    memo = OrderedDict()
    monkeypatch.setattr(predictors, "_MEMO", memo)
    return memo


def _parse_counter(monkeypatch, name):
    calls = []
    parse = getattr(predictors, name)

    def counting(payload):
        calls.append(1)
        return parse(payload)

    monkeypatch.setattr(predictors, name, counting)
    return calls


def _same_size_same_mtime_rewrite(path, text):
    before = os.stat(path)
    assert len(text.encode()) == before.st_size
    path.write_text(text)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == before.st_mtime_ns


class TestParseMemo:
    def test_same_content_is_parsed_once(self, tmp_path, fresh_memo, monkeypatch):
        calls = _parse_counter(monkeypatch, "_parse_mlp")
        path = tmp_path / "mlp.json"
        save_mlp(str(path), random_mlp(3, [8], np.random.default_rng(0)))
        first = load_mlp(str(path))
        second = load_mlp(str(path))
        assert len(calls) == 1
        assert first is not second
        assert all(a is b for a, b in zip(first.weights, second.weights))

    def test_rewrite_with_same_size_and_mtime_is_reparsed(self, tmp_path, fresh_memo):
        path = tmp_path / "g.json"
        path.write_text('{"mu": [1.0, 2.0], "var": [0.5, 4.0]}')
        assert load_gaussian_params(str(path))[0].tolist() == [1.0, 2.0]
        _same_size_same_mtime_rewrite(path, '{"mu": [3.0, 2.0], "var": [0.5, 4.0]}')
        assert load_gaussian_params(str(path))[0].tolist() == [3.0, 2.0]
        assert len(fresh_memo) == 1

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"widths": [3, 2], "weights": [[0, 0, 0, 0, 0]], "biases": [[0, 0]], '
             '"time_embed": "scalar_append"}', SchemaError),
            ('{"widths": [3, 2], "weights": [[0, 0, 0, 0, 0, 0]], "biases": [[0, 0]], '
             '"time_embed": "scalar_append"', ParseError),
        ],
        ids=["truncated-weights", "not-json"],
    )
    def test_malformed_rewrite_after_a_good_load_fails(self, text, error, tmp_path, fresh_memo):
        path = tmp_path / "mlp.json"
        good = ('{"widths": [3, 2], "weights": [[0, 0, 0, 0, 0, 0]], "biases": [[0, 0]], '
                '"time_embed": "scalar_append"}')
        path.write_text(good)
        assert load_mlp(str(path)).dim == 2
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(error):
                load_mlp(str(path))
        path.write_text(good)
        assert load_mlp(str(path)).dim == 2

    def test_arrays_are_read_only(self, tmp_path, fresh_memo):
        mlp_path, gauss_path = tmp_path / "mlp.json", tmp_path / "g.json"
        save_mlp(str(mlp_path), random_mlp(3, [8], np.random.default_rng(0)))
        save_gaussian(str(gauss_path), np.array([1.0, -2.0]), np.array([0.5, 4.0]))
        for _ in range(2):
            p = load_mlp(str(mlp_path))
            arrays = [*p.weights, *p.biases, *load_gaussian_params(str(gauss_path))]
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                p.weights[0][0, 0] = 1.0
        assert load_gaussian_params(str(gauss_path))[0].tolist() == [1.0, -2.0]

    def test_t_max_applies_per_call(self, tmp_path, fresh_memo):
        path = tmp_path / "mlp.json"
        save_mlp(str(path), random_mlp(3, [8], np.random.default_rng(0)))
        short, long = load_mlp(str(path), t_max=50), load_mlp(str(path), t_max=500)
        assert (short.t_max, long.t_max) == (50, 500)
        assert not np.array_equal(short.predict(np.zeros(3), 25), long.predict(np.zeros(3), 25))

    def test_bounded_with_one_entry_per_path(self, tmp_path, fresh_memo):
        paths = [tmp_path / f"g{i}.json" for i in range(7)]
        for i, path in enumerate(paths):
            save_gaussian(str(path), np.array([float(i)]), np.array([1.0]))
            load_gaussian_params(str(path))
            save_gaussian(str(path), np.array([float(i + 10)]), np.array([1.0]))
            load_gaussian_params(str(path))
        assert len(fresh_memo) == predictors._MEMO_ENTRIES < len(paths)
        assert list(fresh_memo) == [str(p) for p in paths[-predictors._MEMO_ENTRIES:]]

    def test_concurrent_loads_with_eviction(self, tmp_path, monkeypatch):
        # More files than entries and more threads than cores, with a short
        # switch interval and a memo that yields the interpreter between a
        # lookup and the update that follows it: every load must still see
        # its own file's content and the memo must stay bounded.
        class YieldingMemo(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(0)
                return value

        memo = YieldingMemo()
        monkeypatch.setattr(predictors, "_MEMO", memo)
        paths = [tmp_path / f"g{i}.json" for i in range(predictors._MEMO_ENTRIES + 2)]
        for i, path in enumerate(paths):
            save_gaussian(str(path), np.array([float(i)]), np.array([1.0]))
        wrong, errors = [], []

        def worker(offset):
            try:
                for n in range(150):
                    i = (n + offset) % len(paths)
                    if load_gaussian_params(str(paths[i]))[0][0] != i:
                        wrong.append(i)
            except Exception as exc:  # recorded, then asserted empty below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (errors, wrong) == ([], [])
        assert len(memo) == predictors._MEMO_ENTRIES
