"""Program a differential cell and watch the three retention regimes.

A weight lives in the voltage difference between two matched nodes.
Early in the discharge the nodes resynchronize quickly (a fresh pair
keeps ~30% of a stored millivolt over 40 s); later the same pair holds
95%.  The price of stability is programming effort: the pulse amplitude
needed for the same 1 mV step roughly decuples across the regimes.
"""

from fndam.calibrate import (CAL_PULSE_DURATION_S, REGIME_AGES_S,
                             default_params, cell_at_age)
from fndam.cell import decay, precompensated_amplitude, read_weight, reset_pulse, set_pulse
from fndam.node import Pulse

par = default_params()

print("age [s]      amplitude for +1 mV    retention of that mV over 40 s")
for age in REGIME_AGES_S:
    cell = cell_at_age(par, age)
    amp = precompensated_amplitude(cell, 1.0, CAL_PULSE_DURATION_S)
    cell = set_pulse(cell, Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S))
    w0 = read_weight(cell)
    w40 = read_weight(decay(cell, 40.0))
    print(f"{age:<10.4g}   {amp * 1e3:7.1f} mV             "
          f"{w0:.3f} -> {w40:.3f} mV  ({100 * w40 / w0:.0f}%)")

# Updates are bidirectional: a RESET pulse of the same shape walks the
# weight back down by (nearly) the same step.
cell = cell_at_age(par, REGIME_AGES_S[1])
amp = precompensated_amplitude(cell, 1.0, CAL_PULSE_DURATION_S)
pulse = Pulse(amplitude=amp, duration=CAL_PULSE_DURATION_S)
up = set_pulse(cell, pulse)
down = reset_pulse(up, pulse)
print(f"\nset then reset at the mid regime: 0 -> "
      f"{read_weight(up):+.4f} -> {read_weight(down):+.4f} mV")

# Ten small steps accumulate linearly while the pulses stay short.
cell = cell_at_age(par, REGIME_AGES_S[1])
unit = precompensated_amplitude(cell, 0.1, 0.001)
for _ in range(10):
    cell = set_pulse(cell, Pulse(amplitude=unit, duration=0.001))
    cell = decay(cell, 0.001)
print(f"ten 0.1 mV pulses: {read_weight(cell):.4f} mV "
      f"(ideal 1.0000 mV)")
