"""Regenerate ``references/*.json`` from the current source tree.

``python3 perfbench/make_references.py`` (from the repository root)
evaluates every input the workloads can draw -- the network-tier
tables on the whole frequency grid, the phase-noise jobs on the whole
sigma grid, the FDTD XOR table and the LLG phase-encoding pair -- and
stores the results the benchmark checks against.  Run it only when a
change is *meant* to alter results, and say so in that change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.workloads import MC_TRIALS, case_record, llg_run  # noqa: E402

#: 81 drive frequencies within +/-2 % of the paper's 10 GHz.
FREQUENCIES = [9.8e9 + 5e6 * k for k in range(81)]
#: 25 phase-noise sigmas, 0 to 1.2 rad.
SIGMAS = [round(0.05 * k, 2) for k in range(25)]


def bits_key(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def table(gate: str, tier: str, **kwargs):
    from repro.micromag.experiments import sweep_gate_truth_table
    from repro.runtime import Executor, MemoryCache

    sweep = sweep_gate_truth_table(
        gate, tier=tier, executor=Executor(workers=1, cache=MemoryCache()),
        **kwargs)
    if not sweep.all_correct:
        raise SystemExit(f"{gate} on {tier} {kwargs} decodes wrongly; "
                         "refusing to store it as a reference")
    return {bits_key(bits): case_record(case)
            for bits, case in sorted(sweep.cases.items())}


def network() -> dict:
    from repro.runtime.jobs import phase_noise_error_rate

    mc = [phase_noise_error_rate(s, n_trials=MC_TRIALS) for s in SIGMAS]
    return {
        "frequencies": FREQUENCIES,
        "maj3": [table("maj3", "network", frequency=f)
                 for f in FREQUENCIES],
        "xor": [table("xor", "network", frequency=f)
                for f in FREQUENCIES],
        "table_i": table("maj3", "network"),
        "sigmas": SIGMAS,
        "mc_trials": MC_TRIALS,
        "mc_errors": [round(r["error_rate"] * 8 * MC_TRIALS) for r in mc],
    }


def llg() -> dict:
    (a0, p0), (a1, p1) = llg_run(0), llg_run(1)
    return {"amplitude": [a0, a1], "phase": [p0, p1],
            # Half the amplitude this commit measures at the probe.
            "amplitude_floor": 0.5 * min(a0, a1)}


def main() -> None:
    out = os.path.join(HERE, "references")
    os.makedirs(out, exist_ok=True)
    for name, make in (("network", network),
                       ("fdtd_xor", lambda: {"cases": table("xor", "fdtd")}),
                       ("llg", llg)):
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            json.dump(make(), fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote references/{name}.json")


if __name__ == "__main__":
    main()
