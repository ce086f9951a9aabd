"""Set-up of one workload in a fresh interpreter, for ``setup_s``.

``python3 perfbench/setup_probe.py WORKLOAD`` imports the package and
builds what the workload's first pass needs (gates, fabricated
geometry, a simulator); the caller times the whole process.  The
serve_gate set-up (server start, /healthz, hot-set warm-up) is timed
by run.py itself.
"""

import sys


def network_explore() -> None:
    from repro.core import TriangleMajorityGate, TriangleXorGate
    from repro.core import paper_table_i_gate
    from repro.runtime import Executor, MemoryCache

    TriangleMajorityGate(), TriangleXorGate(), paper_table_i_gate()
    Executor(workers=1, cache=MemoryCache())


def fdtd_xor() -> None:
    from repro.core import TriangleXorGate, build_wave_simulator

    gate = TriangleXorGate()
    build_wave_simulator(gate.fabricated, gate.frequency, {"I1": 0, "I2": 1})


def llg_waveguide() -> None:
    from repro.micromag import Mesh, Simulation
    from repro.physics import FECOB

    mesh = Mesh(cell_size=(5e-9, 5e-9, 1e-9), shape=(120, 6, 1))
    sim = Simulation(mesh, FECOB.with_damping(0.004), demag="thin_film",
                     absorber_width=100e-9, absorber_axes=(0,))
    sim.initialize((0, 0, 1))


if __name__ == "__main__":
    {"network_explore": network_explore, "fdtd_xor": fdtd_xor,
     "llg_waveguide": llg_waveguide}[sys.argv[1]]()
