"""Arrays, fabrication mismatch, and what the differential pair buys you.

build_array draws per-cell device parameters around the nominal point.
Rate-matching at construction keeps every cell's weight near zero at
t=0, but mismatched cells drift apart under the exact same treatment --
that is the mechanism that degrades training in the mismatch arm of the
network demo.  The differential readout, by contrast, shrugs off
disturbances that hit both nodes equally.
"""

import numpy as np

from fndam.array import MismatchSpec, advance, batch_pulse, batch_read, build_array
from fndam.calibrate import REGIME_AGES_S, default_params, cell_at_age
from fndam.cell import common_mode_step, decay, precompensated_amplitude, read_weight, set_pulse
from fndam.node import Pulse

par = default_params()

for sigma in (0.0, 1e-4, 1e-3):
    arr = build_array(64, par, 7.5, MismatchSpec(relative_sigma=sigma, seed=42))
    arr = batch_pulse(arr, [(i, 1, Pulse(amplitude=0.5, duration=0.1))
                            for i in range(64)])
    arr = advance(arr, 40.0)
    w = np.array([r.weight for r in batch_read(arr)])
    print(f"sigma = {sigma:6.0e}: identical 0.5 V pulse on 64 cells -> "
          f"mean {w.mean():+.3f} mV, spread (std) {w.std():.4f} mV")

# Common-mode rejection on a single programmed cell: bump both gates by
# 100 mV, or just one, and compare the damage.  Read immediately, the
# common bump is invisible; a single-ended bump IS the stored value
# shifting by 100 mV.  Evolved for 40 s, the common bump only speeds up
# the shared decay a little, still an order of magnitude gentler.
from dataclasses import replace

cell = cell_at_age(par, REGIME_AGES_S[1])
amp = precompensated_amplitude(cell, 2.0, 0.5)
cell = set_pulse(cell, Pulse(amplitude=amp, duration=0.5))
bumped = common_mode_step(cell, 0.1)
lopsided = replace(cell, v=[[cell.v[0, 0] + 0.1, cell.v[0, 1]]])
print(f"\n2 mV weight, 100 mV bump, read immediately: "
      f"common-mode shifts {abs(read_weight(bumped) - read_weight(cell)):.4f} mV, "
      f"single-ended shifts {abs(read_weight(lopsided) - read_weight(cell)):.1f} mV")
w_quiet = read_weight(decay(cell, 40.0))
d_common = abs(read_weight(decay(bumped, 40.0)) - w_quiet)
d_single = abs(read_weight(decay(lopsided, 40.0)) - w_quiet)
print(f"after 40 s of decay: common-mode deviation {d_common:.3f} mV, "
      f"single-ended {d_single:.3f} mV ({d_single / d_common:.1f}x worse)")
