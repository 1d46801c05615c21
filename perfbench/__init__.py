"""The repository benchmark: four workloads driven through public calls.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
