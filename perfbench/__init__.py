"""The repository's benchmark: three workloads, one command.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/NOTES.md``
for what each workload measures and why.
"""
