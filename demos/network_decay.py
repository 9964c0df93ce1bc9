"""Weight decay for free: park MLP parameters in leaky analog memory.

Three arms of the same 2-16-3 classifier on Gaussian blobs:

  standard  -- plain SGD with momentum, float weights
  dam       -- same optimizer, but between epochs the weights sit in
               perfectly matched analog cells and shrink on their own
  mismatch  -- same again with 0.1% device mismatch, which turns the
               clean decay into a per-weight distortion

The final epoch is decay-only (no gradient steps), so the dam arm shows
genuine regularization while the mismatch arm pays for cell-to-cell
spread.
"""

from fndam.array import MismatchSpec, build_array
from fndam.calibrate import default_params
from fndam.trainer import (MlpSpec, NetworkConfig, make_blob_dataset,
                           train_network_with_dam_decay)

train_set = make_blob_dataset(100, seed=11)
test_set = make_blob_dataset(200, seed=12)
cfg = NetworkConfig(seed=0)
par = default_params()

print(f"classifier: {MlpSpec.n_inputs}-{MlpSpec.n_hidden}-{MlpSpec.n_classes} "
      f"({MlpSpec.n_params} parameters), {len(train_set[1])} train / "
      f"{len(test_set[1])} test points\n")

# one call trains all three arms in lockstep: the same start and minibatches
arms = (("standard", None), ("dam", 0.0), ("mismatch", 0.001))
arrays = [None if sigma is None else build_array(
    MlpSpec.n_params, par, 7.5, MismatchSpec(relative_sigma=sigma, seed=0))
    for _, sigma in arms]
runs = train_network_with_dam_decay(train_set, test_set, arrays, cfg)
for (arm, _), (trace, _) in zip(arms, runs):
    marks = " ".join(f"{ep.test_accuracy:.3f}{'*' if ep.decay_only else ''}"
                     for ep in trace.epochs)
    print(f"{arm:>9}: {marks}  -> final {trace.final_accuracy:.4f}")

print("\n(* = decay-only epoch; the array keeps draining but no gradients flow)")
