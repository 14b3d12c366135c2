"""Per-policy quantizer behaviour: DoReFa, WRPN, PACT, SAWB, LSQ, LQ-Nets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import no_grad
from repro.nn.tensor import Tensor
from repro.quantization import (
    DoReFaActivationQuantizer,
    DoReFaWeightQuantizer,
    LQNetsActivationQuantizer,
    LQNetsWeightQuantizer,
    LSQActivationQuantizer,
    LSQWeightQuantizer,
    PACTActivationQuantizer,
    SAWBWeightQuantizer,
    WRPNActivationQuantizer,
    WRPNWeightQuantizer,
    lloyd_levels,
    sawb_alpha,
)


class TestDoReFa:
    def test_weight_range(self, rng):
        q = DoReFaWeightQuantizer()
        q.set_bits(3)
        out = q(Tensor(rng.normal(size=(100,)) * 5)).data
        assert (np.abs(out) <= 1.0 + 1e-9).all()

    def test_weight_level_count(self, rng):
        q = DoReFaWeightQuantizer()
        q.set_bits(2)
        out = q(Tensor(rng.normal(size=(500,)))).data
        assert len(np.unique(out)) <= 4

    def test_binary_uses_mean_abs_scale(self, rng):
        q = DoReFaWeightQuantizer()
        q.set_bits(1)
        w = rng.normal(size=(200,))
        out = q(Tensor(w)).data
        scale = np.abs(w).mean()
        np.testing.assert_allclose(np.abs(out), scale, atol=1e-9)
        # sign preserved for clearly nonzero weights
        big = np.abs(w) > 0.1
        np.testing.assert_allclose(np.sign(out)[big], np.sign(w)[big])

    def test_gradient_flows_to_weight(self, rng):
        q = DoReFaWeightQuantizer()
        q.set_bits(4)
        w = Tensor(rng.normal(size=(20,)), requires_grad=True)
        q(w).sum().backward()
        assert w.grad is not None
        assert np.abs(w.grad).sum() > 0

    def test_all_zero_weights_stay_zero(self):
        # Regression: max|tanh(w)| == 0 made the affine map 0/0 -> NaN.
        q = DoReFaWeightQuantizer()
        for bits in (2, 4, 8):
            q.set_bits(bits)
            out = q(Tensor(np.zeros(16))).data
            assert np.isfinite(out).all()
            np.testing.assert_array_equal(out, 0.0)

    def test_all_zero_weights_keep_gradient_path(self):
        q = DoReFaWeightQuantizer()
        q.set_bits(4)
        w = Tensor(np.zeros(8), requires_grad=True)
        q(w).sum().backward()
        assert w.grad is not None
        assert np.isfinite(w.grad).all()

    def test_activation_clips_to_unit(self, rng):
        q = DoReFaActivationQuantizer()
        q.set_bits(4)
        out = q(Tensor(rng.normal(size=(100,)) * 3)).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_signed_activation_preserves_negatives(self, rng):
        q = DoReFaActivationQuantizer(signed=True)
        q.set_bits(8)
        x = rng.normal(size=(100,))
        out = q(Tensor(x)).data
        assert (out < 0).any()
        np.testing.assert_allclose(out, x, atol=np.abs(x).max() / 100)

    def test_high_bits_near_lossless(self, rng):
        q = DoReFaWeightQuantizer()
        q.set_bits(8)
        w = rng.normal(size=(100,)) * 0.1
        out = q(Tensor(w)).data
        corr = np.corrcoef(w, out)[0, 1]
        assert corr > 0.999


class TestWRPN:
    def test_weight_clip_and_levels(self, rng):
        q = WRPNWeightQuantizer()
        q.set_bits(3)
        out = q(Tensor(rng.normal(size=(300,)) * 4)).data
        assert (np.abs(out) <= 1.0 + 1e-9).all()
        # 2^(k-1) - 1 = 3 magnitude steps per sign plus zero
        assert len(np.unique(out)) <= 7

    def test_values_inside_clip_quantized_to_grid(self):
        q = WRPNWeightQuantizer()
        q.set_bits(3)
        out = q(Tensor(np.array([0.4]))).data
        np.testing.assert_allclose(out, [1 / 3], atol=1e-9)

    def test_activation_unsigned(self, rng):
        q = WRPNActivationQuantizer()
        q.set_bits(2)
        out = q(Tensor(rng.normal(size=(100,)))).data
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_signed_activation_mode(self, rng):
        q = WRPNActivationQuantizer(signed=True)
        q.set_bits(4)
        out = q(Tensor(rng.normal(size=(100,)) * 2)).data
        assert (out < 0).any()
        assert (np.abs(out) <= 1.0 + 1e-9).all()


class TestPACT:
    def test_clip_at_alpha(self, rng):
        q = PACTActivationQuantizer(init_alpha=2.0)
        q.set_bits(8)
        out = q(Tensor(rng.normal(size=(200,)) * 10)).data
        assert out.max() <= 2.0 + 1e-9
        assert out.min() >= 0.0

    def test_alpha_gradient_from_saturated_region(self):
        q = PACTActivationQuantizer(init_alpha=1.0)
        q.set_bits(8)
        x = Tensor(np.array([5.0, 0.5, -3.0]))  # one saturated, one inside
        q(x).sum().backward()
        # dy/dalpha = 1 on the saturated sample only
        assert q.alpha.grad == pytest.approx(1.0, abs=1e-6)

    def test_alpha_no_gradient_when_nothing_clips(self):
        q = PACTActivationQuantizer(init_alpha=10.0)
        q.set_bits(8)
        q(Tensor(np.array([0.5, 0.2]))).sum().backward()
        assert q.alpha.grad == pytest.approx(0.0, abs=1e-6)

    def test_regularization_is_quadratic(self):
        q = PACTActivationQuantizer(init_alpha=3.0, reg_lambda=0.1)
        assert q.regularization().item() == pytest.approx(0.9)

    def test_signed_two_sided_clip(self, rng):
        q = PACTActivationQuantizer(init_alpha=1.5, signed=True)
        q.set_bits(8)
        x = rng.normal(size=(500,)) * 5
        out = q(Tensor(x)).data
        assert (np.abs(out) <= 1.5 + 1e-9).all()
        inside = np.abs(x) < 1.4
        np.testing.assert_allclose(out[inside], x[inside], atol=0.02)

    def test_signed_alpha_gradient_two_tails(self):
        q = PACTActivationQuantizer(init_alpha=1.0, signed=True)
        q.set_bits(8)
        x = Tensor(np.array([5.0, -5.0, 0.1]))
        q(x).sum().backward()
        # +1 from the upper tail, -1 from the lower tail
        assert q.alpha.grad == pytest.approx(0.0, abs=1e-6)

    def test_alpha_registered_as_parameter(self):
        q = PACTActivationQuantizer()
        assert q.parameters() == [q.alpha]


class TestSAWB:
    def test_alpha_positive(self, rng):
        for bits in (2, 3, 4):
            alpha = sawb_alpha(rng.normal(size=(1000,)), bits)
            assert alpha > 0

    def test_alpha_scales_with_distribution(self, rng):
        w = rng.normal(size=(2000,))
        a1 = sawb_alpha(w, 2)
        a2 = sawb_alpha(w * 3.0, 2)
        assert a2 == pytest.approx(3.0 * a1, rel=1e-6)

    def test_alpha_below_max_for_heavy_tails(self, rng):
        # SAWB should clip inside the extremes for a heavy-tailed sample.
        w = rng.standard_t(3, size=5000)
        alpha = sawb_alpha(w, 2)
        assert alpha < np.abs(w).max()

    def test_quantizer_output_in_range(self, rng):
        q = SAWBWeightQuantizer()
        q.set_bits(2)
        w = rng.normal(size=(500,))
        out = q(Tensor(w)).data
        alpha = sawb_alpha(w, 2)
        assert (np.abs(out) <= alpha + 1e-9).all()

    def test_near_optimal_mse_vs_line_search(self, rng):
        from repro.quantization.sawb import _mse_optimal_alpha
        from repro.quantization.base import n_levels

        w = rng.normal(size=(5000,))
        bits = 2
        steps = n_levels(bits, signed=True)

        def mse(alpha):
            q = np.clip(np.round(w / (alpha / steps)), -steps, steps)
            return ((w - q * (alpha / steps)) ** 2).mean()

        sawb = mse(sawb_alpha(w, bits))
        optimal = mse(_mse_optimal_alpha(w, bits))
        assert sawb <= optimal * 1.25  # closed form within 25% of optimum


class TestLSQ:
    def test_step_initialized_from_stats(self, rng):
        q = LSQWeightQuantizer()
        q.set_bits(4)
        w = Tensor(rng.normal(size=(100,)))
        q(w)
        expected = 2 * np.abs(w.data).mean() / np.sqrt(7)
        assert float(q.step.data) == pytest.approx(expected)

    def test_step_receives_gradient(self, rng):
        q = LSQWeightQuantizer()
        q.set_bits(3)
        w = Tensor(rng.normal(size=(50,)), requires_grad=True)
        q(w).sum().backward()
        assert q.step.grad is not None

    def test_reinit_on_bits_change(self, rng):
        q = LSQWeightQuantizer()
        q.set_bits(8)
        w = Tensor(rng.normal(size=(100,)))
        q(w)
        s8 = float(q.step.data)
        q.set_bits(2)
        q(w)
        assert float(q.step.data) != s8

    def test_negative_step_reanchored(self, rng):
        q = LSQWeightQuantizer()
        q.set_bits(4)
        w = Tensor(rng.normal(size=(10,)))
        q(w)
        q.step.data[...] = -1.0
        out = q(w)
        assert float(q.step.data) > 0
        assert np.isfinite(out.data).all()

    def test_activation_unsigned_bounds(self, rng):
        q = LSQActivationQuantizer()
        q.set_bits(3)
        out = q(Tensor(np.abs(rng.normal(size=(100,))))).data
        assert out.min() >= 0.0

    def test_activation_signed_mode(self, rng):
        q = LSQActivationQuantizer(signed=True)
        q.set_bits(4)
        out = q(Tensor(rng.normal(size=(100,)))).data
        assert (out < 0).any()


class TestLQNets:
    def test_lloyd_levels_sorted_and_bounded(self, rng):
        w = rng.normal(size=(2000,))
        levels = lloyd_levels(w, 8)
        assert (np.diff(levels) >= 0).all()
        assert levels.min() >= w.min() - 1e-9
        assert levels.max() <= w.max() + 1e-9

    def test_lloyd_symmetric_mode(self, rng):
        levels = lloyd_levels(rng.normal(size=(2000,)), 4, symmetric=True)
        np.testing.assert_allclose(levels, -levels[::-1], atol=1e-9)

    def test_lloyd_constant_input(self):
        levels = lloyd_levels(np.full(10, 2.0), 4)
        np.testing.assert_allclose(levels, 2.0)

    def test_lloyd_beats_uniform_on_gaussian(self, rng):
        w = rng.normal(size=(5000,))
        levels = lloyd_levels(w, 8)
        edges = (levels[1:] + levels[:-1]) / 2
        lq = levels[np.searchsorted(edges, w)]
        uniform_grid = np.linspace(w.min(), w.max(), 8)
        ue = (uniform_grid[1:] + uniform_grid[:-1]) / 2
        uq = uniform_grid[np.searchsorted(ue, w)]
        assert ((w - lq) ** 2).mean() < ((w - uq) ** 2).mean()

    def test_quantizer_snaps_to_levels(self, rng):
        q = LQNetsWeightQuantizer()
        q.set_bits(3)
        w = Tensor(rng.normal(size=(500,)))
        out = q(w).data
        assert len(np.unique(out)) <= 8

    def test_refresh_on_bits_change(self, rng):
        q = LQNetsWeightQuantizer()
        q.set_bits(4)
        w = Tensor(rng.normal(size=(200,)))
        q(w)
        levels4 = q._levels.copy()
        q.set_bits(2)
        q(w)
        assert len(q._levels) == 4 and len(levels4) == 16

    @pytest.mark.parametrize("make", [
        LQNetsWeightQuantizer, LQNetsActivationQuantizer,
    ])
    def test_only_training_forwards_refresh(self, make, rng):
        """Evaluation forwards neither count toward the refresh interval
        nor refit fitted levels, so a run's training trajectory cannot
        depend on how many evaluations it makes."""
        q = make(refresh_interval=3)
        q.set_bits(2)
        with no_grad():  # no levels yet: an evaluation fits them
            q(Tensor(rng.normal(size=(200,))))
        assert q._levels is not None and q._calls_since_refresh == 0
        x = Tensor(rng.normal(size=(200,)))
        q(x)
        levels = q._levels.copy()
        assert q._calls_since_refresh == 1
        with no_grad():
            for _ in range(5):
                q(Tensor(rng.normal(size=(200,)) * 4.0))
        np.testing.assert_array_equal(q._levels, levels)
        assert q._calls_since_refresh == 1
        q(x)
        q(x)
        np.testing.assert_array_equal(q._levels, levels)
        assert q._calls_since_refresh == 3
        q(Tensor(rng.normal(size=(200,)) * 4.0))  # the 4th refreshes
        assert not np.array_equal(q._levels, levels)
        assert q._calls_since_refresh == 1

    @pytest.mark.parametrize("make", [
        LQNetsWeightQuantizer, LQNetsActivationQuantizer,
    ])
    def test_nan_stays_nan(self, make, rng):
        """A NaN input must not snap to a level: the divergence guards
        only see NaN that reaches the loss."""
        q = make()
        q.set_bits(2)
        for _ in range(3):
            q(Tensor(rng.normal(size=(200,))))
        x = np.array([0.5, np.nan, 1.0, -0.3])
        out = q(Tensor(x)).data
        assert np.isnan(out[1])
        finite = [0, 2, 3]
        assert np.isfinite(out[finite]).all()
        assert set(out[finite]) <= set(q._levels)

    def test_gradient_is_straight_through(self, rng):
        q = LQNetsWeightQuantizer()
        q.set_bits(3)
        w = Tensor(rng.normal(size=(50,)), requires_grad=True)
        q(w).sum().backward()
        np.testing.assert_allclose(w.grad, np.ones(50))
