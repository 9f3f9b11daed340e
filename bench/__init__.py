"""Seeded, stdlib-only benchmark for sphertrop; run it with ``python3 bench/run.py``."""
