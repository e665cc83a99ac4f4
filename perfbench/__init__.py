"""quantir's benchmark: the transmission and compile paths, end to end and per layer.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes the
workloads and metrics.
"""
