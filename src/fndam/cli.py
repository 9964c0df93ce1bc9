"""Command-line entry point.

    fndam <command> [--config FILE] [--seed N] [--out DIR] [--experiment NAME]

Commands: calibrate, characterize, energy-report, retention-report,
train.  The options may come before or after the command.  The config
file is JSON (see config.load_config for the schema); --seed and --out
override the file's experiment.seed and output_dir.  On success the
written paths are printed one per line and the exit status is 0; on
failure a one-line JSON error record goes to stderr and the status is
nonzero (2 for configuration problems, 1 for runtime failures, running
out of memory included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config, read_config_file
from .errors import ConfigError, FndamError
from . import experiments

_COMMANDS = {
    "calibrate": lambda cfg, exp: experiments.run_calibrate(cfg),
    "characterize": experiments.run_characterize,
    "energy-report": lambda cfg, exp: experiments.run_energy_report(cfg),
    "retention-report": lambda cfg, exp: experiments.run_retention_report(cfg),
    "train": experiments.run_train,
}
_TAKES_EXPERIMENT = ("characterize", "train")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fndam",
        description="Deterministic device-characterization and training "
                    "experiments for differential tunneling-node memory.",
        epilog="commands:\n" + "\n".join(f"  {name:<18}{text}" for name, text in (
            ("calibrate", "fit the tunneling constants and write a device block"),
            ("characterize", "device response CSVs (regimes, pulses, mismatch)"),
            ("energy-report", "per-update write energy over the device's life"),
            ("retention-report", "retention time vs bias and vs age"),
            ("train", "perceptron or network training on simulated cells"),
        )),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", metavar="FILE",
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, metavar="N", help="override experiment.seed")
    parser.add_argument("--out", metavar="DIR", help="override output_dir")
    parser.add_argument("--experiment", metavar="NAME",
                        help="sub-experiment (characterize) or training kind (train)")
    return parser


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = read_config_file(args.config) if args.config else load_config({})
        if args.seed is not None:
            if args.seed < 0 or args.seed >= 2**64:
                raise ConfigError("--seed: must fit in an unsigned 64-bit integer")
            cfg = cfg.with_seed(args.seed)
        if args.out is not None:
            cfg = cfg.with_output_dir(args.out)
        if args.experiment is not None and args.command not in _TAKES_EXPERIMENT:
            raise ConfigError(
                f"--experiment: not applicable to {args.command!r}")
        paths = _COMMANDS[args.command](cfg, args.experiment)
    except ConfigError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except (FndamError, OSError, MemoryError) as exc:
        print(_error_record(exc), file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
