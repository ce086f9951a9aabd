"""Cross-tier integration tests.

These are the tests that justify the tier substitution documented in
DESIGN.md: the analytic network model, the scalar-wave FDTD solver and
the micromagnetic LLG solver must agree on the logic-level behaviour of
the interference structures.  They are slower than the unit tests
(seconds each) but still laptop-friendly.
"""

import math

import numpy as np
import pytest

from repro.core import TriangleMajorityGate, TriangleXorGate
from repro.core.logic import input_patterns, majority, xor
from repro.fdtd import ScalarWaveSimulator, WaveSource, run_steady_state
from repro.micromag import (
    Envelope,
    ExcitationSource,
    Mesh,
    Probe,
    Simulation,
    rectangle,
)
from repro.physics import FECOB, DispersionRelation, FilmStack


class TestXorFdtdVsNetwork:
    """The XOR gate on the real (rasterised) geometry."""

    @pytest.fixture(scope="class")
    def xor_tables(self):
        gate = TriangleXorGate()
        return (gate.normalized_output_table(backend="network"),
                gate.normalized_output_table(backend="fdtd"))

    def test_logic_agrees(self, xor_tables):
        network, fdtd = xor_tables
        for bits in input_patterns(2):
            net_high = network[bits][0] > 0.5
            fdtd_high = fdtd[bits][0] > 0.5
            assert net_high == fdtd_high, bits

    def test_fdtd_contrast_sufficient(self, xor_tables):
        _, fdtd = xor_tables
        # Unanimous ~1, antiphase well below the 0.5 threshold.
        assert fdtd[(0, 0)][0] == pytest.approx(1.0, abs=0.05)
        assert fdtd[(1, 1)][0] == pytest.approx(1.0, abs=0.05)
        assert fdtd[(0, 1)][0] < 0.5
        assert fdtd[(1, 0)][0] < 0.5

    def test_fanout_symmetry_on_geometry(self, xor_tables):
        _, fdtd = xor_tables
        for bits, (o1, o2) in fdtd.items():
            assert o1 == pytest.approx(o2, abs=0.05), bits

    def test_gate_decodes_all_patterns_via_fdtd(self):
        gate = TriangleXorGate()
        for bits in input_patterns(2):
            result = gate.evaluate(bits, backend="fdtd")
            assert result.expected == xor(*bits)
            assert result.correct, bits


class TestMajorityFdtdSpotChecks:
    """The full 8-pattern MAJ3 table on the rasterised geometry."""

    @pytest.fixture(scope="class")
    def gate(self):
        return TriangleMajorityGate()

    @pytest.mark.parametrize("bits", input_patterns(3))
    def test_pattern_decodes(self, gate, bits):
        result = gate.evaluate(bits, backend="fdtd")
        assert result.expected == majority(*bits)
        assert result.correct, bits
        assert result.fanout_matched, bits

    def test_logic_table_matches_network(self, gate):
        def logic(backend):
            return {bits: {name: r.logic_value
                           for name, r in result.outputs.items()}
                    for bits, result in gate.truth_table(backend).items()}

        assert logic("fdtd") == logic("network")

    def test_field_map_shape_and_content(self, gate):
        env = gate.field_map((0, 0, 0))
        fab = gate.fabricated
        assert env.shape == fab.mask.shape
        # Field confined to the waveguides.
        assert np.all(np.abs(env)[~fab.mask] == 0.0)
        # Waves present in the guides.
        assert np.abs(env)[fab.mask].max() > 0.01


class TestMicromagneticWaveguide:
    """LLG-tier validation: spin waves in the paper's FeCoB film."""

    def _waveguide_sim(self, alpha=0.004, temperature=0.0, rng=None):
        # 600 nm x 30 nm x 1 nm strip at 5 nm cells: small but long
        # enough to observe propagation.
        mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(120, 6, 1))
        sim = Simulation(mesh, FECOB.with_damping(alpha),
                         demag="thin_film", temperature=temperature,
                         absorber_width=100e-9, absorber_axes=(0,),
                         rng=rng)
        sim.initialize((0, 0, 1))
        return sim, mesh

    def test_spin_wave_propagates(self):
        sim, mesh = self._waveguide_sim()
        f_drive = 18e9  # above the ~3.7 GHz gap, comfortably propagating
        sim.add_source(ExcitationSource(
            region=rectangle(120e-9, 0, 140e-9, 30e-9),
            amplitude=8e3, frequency=f_drive))
        near = Probe("near", rectangle(180e-9, 0, 200e-9, 30e-9))
        far = Probe("far", rectangle(320e-9, 0, 340e-9, 30e-9))
        sim.add_probe(near)
        sim.add_probe(far)
        sim.run(duration=1.2e-9, dt=2.5e-14, sample_every=4)
        amp_near, _ = near.trace.window(0.6e-9).demodulate(f_drive)
        amp_far, _ = far.trace.window(0.6e-9).demodulate(f_drive)
        assert amp_near > 1e-5          # wave arrived near the antenna
        assert amp_far > 0.05 * amp_near  # and kept propagating

    def test_phase_encoding_survives_propagation(self):
        # Two runs differing only in source logic phase: the detected
        # phases must differ by pi -- the foundation of the encoding.
        phases = []
        f_drive = 18e9
        for bit in (0, 1):
            sim, mesh = self._waveguide_sim()
            sim.add_source(ExcitationSource.for_logic(
                rectangle(120e-9, 0, 140e-9, 30e-9), bit,
                amplitude=8e3, frequency=f_drive))
            probe = Probe("P", rectangle(300e-9, 0, 320e-9, 30e-9))
            sim.add_probe(probe)
            sim.run(duration=1.2e-9, dt=2.5e-14, sample_every=4)
            _, phase = probe.trace.window(0.6e-9).demodulate(f_drive)
            phases.append(phase)
        diff = abs(math.remainder(phases[1] - phases[0], 2 * math.pi))
        assert diff == pytest.approx(math.pi, abs=0.3)

    def test_below_gap_drive_does_not_propagate(self):
        # Drive below the FVSW gap: evanescent, far probe stays quiet
        # at the drive frequency relative to an above-gap drive of the
        # same strength.  A slow turn-on keeps the drive narrowband
        # (an abrupt start would radiate above-gap transients).
        amplitudes = []
        for f_drive in (2.5e9, 18e9):  # gap is ~3.7 GHz
            sim, mesh = self._waveguide_sim()
            sim.add_source(ExcitationSource(
                region=rectangle(120e-9, 0, 140e-9, 30e-9),
                amplitude=8e3, frequency=f_drive,
                envelope=Envelope(start=0.0, rise=0.5e-9)))
            probe = Probe("far", rectangle(400e-9, 0, 420e-9, 30e-9))
            sim.add_probe(probe)
            sim.run(duration=2.0e-9, dt=2.5e-14, sample_every=4)
            amp, _ = probe.trace.window(1.0e-9).demodulate(f_drive)
            amplitudes.append(amp)
        assert amplitudes[0] < 0.2 * amplitudes[1]

    def test_thermal_noise_does_not_flip_phase(self, rng):
        # Section IV-D: thermal noise has limited impact.  At 300 K the
        # phase detected downstream must still encode the input bit.
        f_drive = 18e9
        sim, mesh = self._waveguide_sim(temperature=300.0, rng=rng)
        sim.add_source(ExcitationSource.for_logic(
            rectangle(120e-9, 0, 140e-9, 30e-9), 1,
            amplitude=8e3, frequency=f_drive))
        probe = Probe("P", rectangle(300e-9, 0, 320e-9, 30e-9))
        sim.add_probe(probe)
        sim.run(duration=1.2e-9, dt=2.5e-14, sample_every=4)
        _, phase_hot = probe.trace.window(0.6e-9).demodulate(f_drive)

        sim0, _ = self._waveguide_sim()
        sim0.add_source(ExcitationSource.for_logic(
            rectangle(120e-9, 0, 140e-9, 30e-9), 1,
            amplitude=8e3, frequency=f_drive))
        probe0 = Probe("P", rectangle(300e-9, 0, 320e-9, 30e-9))
        sim0.add_probe(probe0)
        sim0.run(duration=1.2e-9, dt=2.5e-14, sample_every=4)
        _, phase_cold = probe0.trace.window(0.6e-9).demodulate(f_drive)
        diff = abs(math.remainder(phase_hot - phase_cold, 2 * math.pi))
        assert diff < math.pi / 2  # same decoded bit


class TestDispersionAgainstSolver:
    """The LLG solver must reproduce the analytic FVSW dispersion."""

    def test_uniform_mode_frequency(self):
        # FMR (k = 0) of the PMA film: f = gamma mu0 (H_ani - Ms) / 2pi.
        mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(16, 16, 1))
        sim = Simulation(mesh, FECOB.with_damping(0.0), demag="thin_film")
        sim.initialize((0.05, 0.0, 1.0))
        probe = Probe("P", rectangle(0, 0, 80e-9, 80e-9))
        sim.add_probe(probe)
        sim.run(duration=2.0e-9, dt=5e-14)
        from repro.micromag import dominant_frequency
        trace = probe.trace
        f_sim = dominant_frequency(trace.values,
                                   trace.times[1] - trace.times[0])
        film = FilmStack(material=FECOB, thickness=1e-9)
        f_expected = DispersionRelation(film).gap_frequency()
        assert f_sim == pytest.approx(f_expected, rel=0.05)
