"""One workload set-up in a fresh interpreter; ``run.py`` times the process.

Usage: python3 benchmarks/setup_probe.py <workload> <seed>
"""

import sys

from checkout import use_checkout_source

if __name__ == "__main__":
    use_checkout_source()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
