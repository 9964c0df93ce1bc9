"""
Hinge-loss perceptron with analog weights
=========================================

Two memory cells hold the two trainable weights of a linear classifier.
Each violated margin turns into a burst of programming pulses; the
trainer re-solves the pulse amplitude as the cells age, so late updates
cost more energy than early ones.  The ledger records every burst.
"""

from fndam.array import build_array
from fndam.calibrate import default_params
from fndam.trainer import TrainerConfig, best_margin, make_separable_dataset, train_perceptron

dataset = make_separable_dataset(50, margin=0.25, seed=0)
print(f"dataset: 50 points, best achievable margin {best_margin(dataset):.3f}")

arr = build_array(2, default_params(), 7.5)
trace, arr = train_perceptron(dataset, arr, TrainerConfig(epochs=5, seed=0))

print("\nepoch  accuracy  mean |update| [mV]  energy [J]")
for ep in trace.epochs:
    print(f"{ep.epoch:>5}  {ep.accuracy:8.2f}  {ep.mean_abs_update_mv:18.4f}  "
          f"{ep.energy_j:.3e}")

amps = [e.amplitude_v for e in trace.ledger.entries]  # in issue order
print(f"\nfinal weights: w0 = {trace.final_weights_mv[0]:+.3f} mV, "
      f"w1 = {trace.final_weights_mv[1]:+.3f} mV")
print(f"pulse amplitude for one 0.05 mV step: "
      f"{amps[0] * 1e3:.2f} mV first update -> {amps[-1] * 1e3:.2f} mV last "
      f"({len(amps)} updates, never decreasing: "
      f"{all(b >= a for a, b in zip(amps, amps[1:]))})")
print(f"total write energy: {trace.total_energy_j:.3e} J "
      f"across {len(trace.ledger.entries)} ledger entries")
