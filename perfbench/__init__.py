"""The repository benchmark: publish workloads against ``repro serve``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout and prints every
metric named in ``BENCHMARK.json`` as the last line of its output. See
``perfbench/README.md`` for the workloads, the metrics, and the predicted
layer -> end-to-end mapping (``perfbench.layers.PREDICTIONS``).
"""
