"""Scalar-wave FDTD tier tests."""

import math

import numpy as np
import pytest

from repro.fdtd import ScalarWaveSimulator, WaveSource, run_steady_state


def _strip_simulator(nx=300, ny=16, dx=5e-9, **kwargs):
    mask = np.ones((ny, nx), dtype=bool)
    defaults = dict(dx=dx, wavelength=55e-9, frequency=10e9,
                    absorber_width=150e-9, absorber_sides=("left", "right"))
    defaults.update(kwargs)
    return ScalarWaveSimulator(mask, **defaults)


class TestConstruction:
    def test_courant_limit(self):
        with pytest.raises(ValueError):
            _strip_simulator(courant=0.9)

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="under-resolved"):
            _strip_simulator(dx=20e-9)

    def test_empty_mask(self):
        with pytest.raises(ValueError):
            ScalarWaveSimulator(np.zeros((4, 4), dtype=bool), 5e-9,
                                55e-9, 10e9)

    def test_bad_absorber_side(self):
        with pytest.raises(ValueError, match="unknown absorber sides"):
            _strip_simulator(absorber_sides=("north",))

    def test_speed_from_design_point(self):
        sim = _strip_simulator()
        assert sim.speed == pytest.approx(10e9 * 55e-9)

    def test_source_validation(self):
        sim = _strip_simulator()
        with pytest.raises(ValueError):
            WaveSource(mask=np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            WaveSource.logic(np.ones((16, 300), dtype=bool), 2)
        with pytest.raises(ValueError):
            sim.add_source(WaveSource(mask=np.ones((2, 2), dtype=bool)))

    def test_inert_source_rejected(self):
        mask = np.zeros((16, 300), dtype=bool)
        mask[:, :100] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9)
        off_guide = np.zeros_like(mask)
        off_guide[4:8, 200:204] = True
        with pytest.raises(ValueError, match="hits no mask cells"):
            sim.add_source(WaveSource(mask=off_guide))
        assert sim.sources == []

    def test_point_source_outside_mask(self):
        mask = np.zeros((16, 300), dtype=bool)
        mask[:, :100] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9)
        with pytest.raises(ValueError, match="hits no mask cells"):
            sim.point_source_mask(1400e-9, 40e-9)


class TestPropagation:
    def test_wavelength_in_guide(self):
        # A full-width line source launches the pure fundamental mode,
        # whose guide wavelength equals the design wavelength (up to
        # ~1 % numerical dispersion at 11 cells per wavelength).
        sim = _strip_simulator(nx=400)
        src_mask = np.zeros(sim.mask.shape, dtype=bool)
        src_mask[:, 40:42] = True
        sim.add_source(WaveSource(mask=src_mask))
        env = run_steady_state(sim, settle_periods=40)
        row = env[8, 80:320]
        phase = np.unwrap(np.angle(row))
        slope = np.polyfit(np.arange(len(phase)) * 5e-9, phase, 1)[0]
        measured_lambda = 2 * math.pi / abs(slope)
        assert measured_lambda == pytest.approx(55e-9, rel=0.03)

    def test_field_confined_to_mask(self):
        mask = np.zeros((32, 200), dtype=bool)
        mask[12:20, :] = True
        sim = ScalarWaveSimulator(mask, 5e-9, 55e-9, 10e9,
                                  absorber_width=100e-9,
                                  absorber_sides=("left", "right"))
        src = sim.point_source_mask(100e-9, 80e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(src, 0))
        sim.run_until(30 / 10e9)
        assert np.all(sim.u[~mask] == 0.0)

    def test_absorbers_prevent_reflection_buildup(self):
        sim = _strip_simulator()
        src = sim.point_source_mask(750e-9, 40e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(src, 0))
        env1 = np.abs(run_steady_state(sim, settle_periods=40))
        env2 = np.abs(sim.steady_state_envelope(4))
        # Amplitude must be stationary once in steady state.
        assert np.max(np.abs(env1 - env2)) < 0.1 * env1.max()

    def test_bulk_damping_attenuates(self):
        lossless = _strip_simulator(nx=400)
        lossy = _strip_simulator(nx=400, damping_time=2e-10)
        results = []
        for sim in (lossless, lossy):
            src = sim.point_source_mask(200e-9, 40e-9, radius=10e-9)
            sim.add_source(WaveSource.logic(src, 0))
            env = run_steady_state(sim, settle_periods=40)
            det = sim.point_source_mask(1500e-9, 40e-9, radius=15e-9)
            results.append(abs(sim.region_envelope(det, env)))
        assert results[1] < 0.7 * results[0]


class TestInterference:
    @pytest.mark.parametrize("bit,expect_high", [(0, True), (1, False)])
    def test_two_source_interference(self, bit, expect_high):
        # Sources co-located => in-phase doubles, anti-phase cancels.
        sim = _strip_simulator(nx=400)
        patch = sim.point_source_mask(400e-9, 40e-9, radius=10e-9)
        sim.add_source(WaveSource.logic(patch, 0))
        sim.add_source(WaveSource.logic(patch, bit))
        env = run_steady_state(sim, settle_periods=40)
        det = sim.point_source_mask(1200e-9, 40e-9, radius=15e-9)
        amp = abs(sim.region_envelope(det, env))
        if expect_high:
            assert amp > 0.05
        else:
            assert amp < 1e-6

    def test_logic_phase_flip_at_detector(self):
        # Flipping the source's logic value flips the detected phase.
        phases = []
        for bit in (0, 1):
            sim = _strip_simulator(nx=400)
            src = sim.point_source_mask(300e-9, 40e-9, radius=10e-9)
            sim.add_source(WaveSource.logic(src, bit))
            env = run_steady_state(sim, settle_periods=40)
            det = sim.point_source_mask(1000e-9, 40e-9, radius=15e-9)
            phases.append(np.angle(sim.region_envelope(det, env)))
        diff = abs(math.remainder(phases[1] - phases[0], 2 * math.pi))
        assert diff == pytest.approx(math.pi, abs=0.2)

    def test_region_envelope_validation(self):
        sim = _strip_simulator()
        env = np.zeros(sim.mask.shape, dtype=complex)
        with pytest.raises(ValueError):
            sim.region_envelope(np.zeros(sim.mask.shape, dtype=bool), env)


def _roll_reference(sim, gamma, n_steps):
    """The 2-D ``np.roll`` leapfrog the packed kernel replaced.

    Steps a copy of ``sim``'s (fresh) state over the whole canvas with
    wrap-around masked off, exactly as the dense kernel did, and
    returns ``(u, u_prev)``.  ``gamma`` is the 2-D damping-rate map.
    """
    mask = sim.mask
    masks = {}
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        shifted = np.roll(mask, shift, axis=axis)
        edge_index = [slice(None)] * 2
        edge_index[axis] = 0 if shift == 1 else -1
        shifted[tuple(edge_index)] = False
        masks[(axis, shift)] = shifted
    neighbours = (masks[(0, 1)].astype(float) + masks[(0, -1)]
                  + masks[(1, 1)] + masks[(1, -1)])
    c2 = (sim.speed * sim.dt / sim.dx) ** 2
    dt = sim.dt
    omega = 2.0 * math.pi * sim.frequency
    gamma = np.where(mask, gamma, 0.0)
    u = np.zeros(mask.shape)
    u_prev = np.zeros(mask.shape)
    t = 0.0
    for _ in range(n_steps):
        lap = (np.roll(u, 1, axis=0) * masks[(0, 1)]
               + np.roll(u, -1, axis=0) * masks[(0, -1)]
               + np.roll(u, 1, axis=1) * masks[(1, 1)]
               + np.roll(u, -1, axis=1) * masks[(1, -1)])
        lap -= neighbours * u
        damp = gamma * dt
        new = ((2.0 * u - (1.0 - damp) * u_prev + c2 * lap)
               / (1.0 + damp))
        new *= mask
        u_prev, u = u, new
        t += dt
        for src in sim.sources:
            if src.start <= t <= src.stop:
                ramp_time = 3.0 / sim.frequency
                envelope = min(1.0, (t - src.start) / ramp_time)
                envelope = 0.5 * (1.0 - math.cos(math.pi * envelope))
                value = (src.amplitude * envelope
                         * math.cos(omega * t + src.phase))
                if src.hard:
                    u[src.mask] = value
                else:
                    u[src.mask] += dt * dt * omega * omega * value
    return u, u_prev


def _holed_mask():
    mask = np.zeros((40, 60), dtype=bool)
    mask[4:36, 4:56] = True
    mask[14:26, 20:40] = False
    return mask


def _edge_mask():
    # A frame plus a cross: live cells on all four canvas edges, so a
    # gather that wrapped around would couple opposite edges.
    mask = np.zeros((36, 48), dtype=bool)
    mask[[0, -1], :] = True
    mask[:, [0, -1]] = True
    mask[16:20, :] = True
    mask[:, 22:26] = True
    return mask


class TestPackedKernelEquivalence:
    """The packed live-cell kernel against the dense ``np.roll`` update:
    the fields must agree bit for bit."""

    N_STEPS = 400

    @staticmethod
    def _soft(mask, rows, cols, phase=0.0):
        region = np.zeros_like(mask)
        region[rows, cols] = True
        return WaveSource(mask=region & mask, phase=phase)

    @pytest.mark.parametrize("case", ["hole", "edges", "damped",
                                      "soft_and_hard"])
    def test_bit_identical_to_roll_reference(self, case):
        kwargs = dict(dx=5e-9, wavelength=55e-9, frequency=10e9)
        if case == "hole":
            mask = _holed_mask()
            sources = [self._soft(mask, slice(18, 22), slice(6, 9))]
        elif case == "edges":
            mask = _edge_mask()
            sources = [self._soft(mask, slice(0, 2), slice(1, 4)),
                       self._soft(mask, slice(16, 20), slice(0, 2),
                                  phase=math.pi)]
        elif case == "damped":
            mask = _holed_mask()
            kwargs.update(damping_time=2e-10, absorber_width=40e-9,
                          absorber_sides=("left", "top"))
            sources = [self._soft(mask, slice(28, 32), slice(40, 44))]
        else:
            mask = _edge_mask()
            hard = np.zeros_like(mask)
            hard[16:20, 40:42] = True
            sources = [self._soft(mask, slice(16, 20), slice(4, 6)),
                       WaveSource(mask=hard, phase=1.0, hard=True,
                                  start=2e-10, amplitude=0.5)]
        sim = ScalarWaveSimulator(mask, **kwargs)
        for src in sources:
            sim.add_source(src)
        gamma = np.full(mask.shape, 1.0 / kwargs.get("damping_time",
                                                      math.inf))
        if "absorber_width" in kwargs:
            gamma = np.maximum(gamma, sim._absorber_damping(
                kwargs["absorber_width"], kwargs["absorber_sides"]))
        sim.step(self.N_STEPS)
        u, u_prev = _roll_reference(sim, gamma, self.N_STEPS)
        assert np.abs(u).max() > 0.0
        np.testing.assert_array_equal(sim.u, u)
        np.testing.assert_array_equal(sim.u_prev, u_prev)

    def test_field_planes_are_read_only(self):
        sim = ScalarWaveSimulator(_holed_mask(), 5e-9, 55e-9, 10e9)
        with pytest.raises(ValueError):
            sim.u[5, 5] = 1.0
        with pytest.raises(AttributeError):
            sim.u = np.zeros(sim.mask.shape)
