"""Host-normalized benchmark over the paper's two applications.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from a single closed-loop client,
checks every sampled output against a reference render, and prints the
metrics as the last line of standard output.  See ``perfbench/README.md``
for the workloads, the metrics and the steadiness record.
"""
