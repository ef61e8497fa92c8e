"""Thin-film relaxation with the full field: anisotropy + once-per-step stray.

A 1 x 1 x 0.02 um permalloy-like film starts from in-plane stripes and
relaxes under the five-solve scheme with the stray field evaluated once per
step, on the projected state, and extrapolated from the last two steps. The
energy decays overall at both strong and weak damping, but the scheme is not
energy stable step by step: the demo counts the steps that raise it (none
at alpha = 0.1 and one of 200 at alpha = 0.01 over the default 200 ps). The run writes energy.csv, timing.csv, and mid-plane VTK
snapshots under demo06-out/.

Defaults to a 200 ps trajectory on the reduced 64x64x3 grid (~20 s); pass
--full-time for the 2 ns benchmark run.
"""

import sys

import numpy as np

from gspm2.cli import emit, run
from gspm2.config import ExperimentConfig

t_final = 2.0e-9 if "--full-time" in sys.argv else 2.0e-10

for alpha in (0.1, 0.01):
    cfg = ExperimentConfig.from_dict({
        "kind": "micromag",
        "alpha": alpha,
        "grid": [64, 64, 3],
        "dt_seconds": 1.0e-12,
        "t_final_seconds": t_final,
        "snapshot_every": 100,
    })
    record = run(cfg)
    s = record.summary
    print(f"alpha={alpha}: eps={s['eps']:.3e}, q={s['q']:.3e}, "
          f"dt={s['dt_dimensionless']:.3f} (dimensionless), "
          f"{s['n_steps']} steps")
    print(f"  energy {s['initial_energy']:.4e} -> {s['terminal_energy']:.4e}"
          f"  (decayed {100 * (1 - s['terminal_energy'] / s['initial_energy']):.0f}%)")
    energies = [e for _, _, e in record.energy_series]
    rises = sum(b > a for a, b in zip(energies, energies[1:]))
    print(f"  {rises} of {s['n_steps']} steps raised the energy")

    out = f"demo06-out/alpha-{alpha}"
    emit(record, out, {"csv", "json", "vtk"})

    # in-plane angle along the horizontal mid-plane centerline
    m = record.final_field
    j = m.shape[2] // 2
    angle = np.degrees(np.arctan2(m[1, :, j, m.shape[3] // 2],
                                  m[0, :, j, m.shape[3] // 2]))
    print(f"  centerline in-plane angle: {angle[0]:.0f} deg at x=0, "
          f"{angle[len(angle) // 2]:.0f} deg mid, {angle[-1]:.0f} deg at x=L")
    print(f"  wrote {out}/")
