"""Time the program's set-up for one sweep config in a fresh interpreter.

    python3 setup_probe.py <checkout root> <config.json>

Prints one JSON line, {"setup_s": ...}: the time to import the package, parse
the config (the circuit too, for circuit targets), build the frequency set and
parse the sampling distribution.  A fresh process is needed because an import
is paid once per process.
"""

import json
import os
import sys
import time


def main(root: str, config_path: str) -> int:
    sys.path.insert(0, os.path.join(root, "src"))
    with open(config_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    started = time.perf_counter()
    from rffdq import freqcore, freqsample, harness

    config = harness.SweepConfig.from_json(doc)
    fs = freqcore.build_frequency_set(config.problem.encoding)
    freqsample.distribution_from_json(config.dist_doc, fs)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
