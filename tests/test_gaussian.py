import numpy as np
import pytest

from cvue.reference import (
    GaussianState,
    Quadrature,
    apply_beamsplitter,
    beamsplitter_matrix,
    condition_on_homodyne,
    homodyne_sample,
    make_squeezed_coherent,
    marginal_variance,
    symplectic_form,
    tensor,
    two_mode_squeezed,
    vacuum_state,
)

Q, P = Quadrature.Q, Quadrature.P


def displaced_tms(zeta, alpha):
    return two_mode_squeezed(zeta, np.array([alpha, 0.0, alpha, 0.0]))


class TestState:
    def test_vacuum(self):
        vac = vacuum_state(3)
        assert np.array_equal(vac.cov, np.eye(6))
        assert marginal_variance(vac, 1, Q) == 0.5
        assert marginal_variance(vac, 2, P) == 0.5

    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState(1, np.zeros(2), cov)

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive-definite"):
            GaussianState(1, np.zeros(2), np.diag([1.0, -0.2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GaussianState(2, np.zeros(3), np.eye(4))

    def test_immutable_arrays(self):
        vac = vacuum_state(1)
        with pytest.raises(ValueError):
            vac.disp[0] = 1.0


class TestSqueezedCoherent:
    def test_zero_squeezing_is_vacuum_covariance(self):
        state = make_squeezed_coherent((0.0, 0.0), 0.0, Q)
        assert np.allclose(state.cov, np.eye(2))

    def test_covariance_and_variance_q(self):
        r = 2.3
        state = make_squeezed_coherent((0.9, 0.0), r, Q)
        assert np.allclose(state.cov, np.diag([1 / np.cosh(r), np.cosh(r)]))
        assert np.isclose(marginal_variance(state, 0, Q), 1 / (2 * np.cosh(r)))
        assert np.isclose(marginal_variance(state, 0, P), np.cosh(r) / 2)
        assert np.allclose(state.disp, [0.9, 0.0])

    def test_covariance_p_direction(self):
        r = 1.1
        state = make_squeezed_coherent((0.0, -0.4), r, P)
        assert np.allclose(state.cov, np.diag([np.cosh(r), 1 / np.cosh(r)]))

    def test_narrow_variance_value(self):
        # 1/cosh(3.4) = 0.06667228198992169
        state = make_squeezed_coherent((0.4, 0.0), 3.4, Q)
        assert np.isclose(state.cov[0, 0], 0.06667228198992169, rtol=1e-12)

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_squeezed_coherent((0.0, 0.0), -0.1, Q)


class TestHomodyne:
    def test_vacuum_moments(self):
        rng = np.random.default_rng(11)
        vac = vacuum_state(1)
        samples = np.array([homodyne_sample(vac, 0, Q, rng)[0] for _ in range(50_000)])
        n = samples.size
        se_mean = np.sqrt(0.5 / n)
        se_var = 0.5 * np.sqrt(2.0 / n)
        assert abs(samples.mean()) < 5 * se_mean
        assert abs(samples.var() - 0.5) < 5 * se_var

    @pytest.mark.parametrize("zeta", [0.5, 1.0, 2.0, 3.4])
    def test_tms_conditioning_matches_closed_form(self, zeta):
        alpha = 0.7
        state = displaced_tms(zeta, alpha)
        for x_a in [-2.0, -0.3, 0.0, 0.9, 3.5]:
            cond = condition_on_homodyne(state, 0, Q, x_a)
            want_disp = np.array([alpha + (x_a - alpha) * np.tanh(zeta), 0.0])
            want_cov = np.diag([1 / np.cosh(zeta), np.cosh(zeta)])
            assert np.allclose(cond.disp, want_disp, rtol=1e-10, atol=1e-12)
            assert np.allclose(cond.cov, want_cov, rtol=1e-10, atol=1e-12)

    def test_tms_outcome_moments(self):
        zeta, alpha = 1.6, 0.7
        rng = np.random.default_rng(5)
        state = displaced_tms(zeta, alpha)
        outs = np.array([homodyne_sample(state, 0, Q, rng)[0] for _ in range(50_000)])
        var = np.cosh(zeta) / 2
        assert abs(outs.mean() - alpha) < 5 * np.sqrt(var / outs.size)
        assert abs(outs.var() - var) < 5 * var * np.sqrt(2 / outs.size)

    def test_million_sample_moments(self):
        # spec-scale sampling check: 1e6 outcomes from a squeezed mode
        r = 1.8
        state = make_squeezed_coherent((0.4, 0.0), r, Q)
        rng = np.random.default_rng(123)
        n = 1_000_000
        samples = np.fromiter(
            (homodyne_sample(state, 0, Q, rng)[0] for _ in range(n)),
            dtype=float,
            count=n,
        )
        var = 1 / (2 * np.cosh(r))
        assert abs(samples.mean() - 0.4) < 5 * np.sqrt(var / n)
        assert abs(samples.var() - var) < 5 * var * np.sqrt(2 / n)

    def test_record_shape(self):
        rng = np.random.default_rng(0)
        outcome, conditional = homodyne_sample(vacuum_state(3), 1, P, rng)
        assert isinstance(outcome, float)
        assert conditional.num_modes == 2

    def test_product_state_unaffected(self):
        rng = np.random.default_rng(2)
        a = make_squeezed_coherent((0.3, 0.1), 1.2, Q)
        b = make_squeezed_coherent((-0.2, 0.5), 0.7, P)
        _, conditional = homodyne_sample(tensor(a, b), 0, Q, rng)
        assert np.allclose(conditional.disp, b.disp)
        assert np.allclose(conditional.cov, b.cov)

    def test_bad_mode_index(self):
        rng = np.random.default_rng(0)
        with pytest.raises(IndexError):
            homodyne_sample(vacuum_state(1), 1, Q, rng)


class TestBeamsplitter:
    def test_vacuum_invariance(self):
        for t in (0.0, 0.3, 0.5, 1.0):
            out = apply_beamsplitter(vacuum_state(2), (0, 1), t)
            assert np.allclose(out.cov, np.eye(4))
            assert np.allclose(out.disp, 0.0)

    def test_squeezed_vacua_make_tms(self):
        zeta = 1.3
        q_sq = GaussianState(1, np.zeros(2), np.diag([np.exp(-zeta), np.exp(zeta)]))
        p_sq = GaussianState(1, np.zeros(2), np.diag([np.exp(zeta), np.exp(-zeta)]))
        out = apply_beamsplitter(tensor(q_sq, p_sq), (0, 1), 0.5)
        assert np.allclose(out.cov, two_mode_squeezed(zeta).cov, atol=1e-12)

    def test_signal_power_halved(self):
        alpha = 0.8
        signal = make_squeezed_coherent((alpha, 0.0), 2.0, Q)
        out = apply_beamsplitter(tensor(vacuum_state(1), signal), (0, 1), 0.5)
        assert np.isclose(abs(out.disp[0]), alpha / np.sqrt(2))
        assert np.isclose(abs(out.disp[2]), alpha / np.sqrt(2))
        assert np.isclose(out.disp[0] ** 2, alpha**2 / 2)

    def test_displacement_norm_preserved(self):
        rng = np.random.default_rng(3)
        disp = rng.normal(size=4)
        state = GaussianState(2, disp, np.eye(4))
        for t in (0.2, 0.5, 0.9):
            out = apply_beamsplitter(state, (0, 1), t)
            assert np.isclose(np.linalg.norm(out.disp), np.linalg.norm(disp))

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.77, 1.0])
    def test_symplectic_form_preserved(self, t):
        s = beamsplitter_matrix(3, (0, 2), t)
        omega = symplectic_form(3)
        assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)

    def test_transmittance_range(self):
        with pytest.raises(ValueError, match="transmittance"):
            apply_beamsplitter(vacuum_state(2), (0, 1), 1.2)

    def test_distinct_modes_required(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_beamsplitter(vacuum_state(2), (1, 1), 0.5)


def test_positive_definite_after_operation_chain():
    rng = np.random.default_rng(9)
    state = tensor(
        tensor(make_squeezed_coherent((0.4, 0.0), 3.4, Q), vacuum_state(1)),
        make_squeezed_coherent((0.0, -0.4), 3.4, P),
    )
    for _ in range(60):
        i, j = rng.choice(state.num_modes, size=2, replace=False)
        state = apply_beamsplitter(state, (int(i), int(j)), float(rng.uniform(0, 1)))
        assert np.linalg.eigvalsh(state.cov).min() > -1e-12
    _, conditional = homodyne_sample(state, 0, Q, rng)
    assert np.linalg.eigvalsh(conditional.cov).min() > -1e-12


def test_two_mode_squeezed_rejects_negative():
    with pytest.raises(ValueError):
        two_mode_squeezed(-1.0)
