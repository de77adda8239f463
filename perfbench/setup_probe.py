"""One set-up of the pcrlb pipeline in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED CONFIG_FILE

Does what `pcrlb run` does before its first Monte Carlo run: import the
package (numpy, scipy), parse the config file and build the model.  Prints
one JSON line with the import and config times and the CLOCK_MONOTONIC
reading when the model is built, which the parent compares with its own
reading taken just before it started this process.  The BLAS thread
variables come pinned from the parent's environment.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(workload_name: str, seed: int, config_file: str) -> None:
    before_import = time.monotonic()
    import pcrlb.cli
    import pcrlb.experiment
    imported = time.monotonic()

    import workloads
    config_start = time.monotonic()
    config, _ = pcrlb.cli.config_from_file(config_file)
    config_s = time.monotonic() - config_start
    config = workloads.seeded_config(workloads.WORKLOADS[workload_name], seed, config)
    pcrlb.experiment.build_model(config)
    print(json.dumps({"import_s": imported - before_import, "config_s": config_s,
                      "built_at": time.monotonic()}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
