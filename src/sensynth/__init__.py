"""Sensor and finite-memory controller synthesis for qualitative POMDP
reachability, by reduction to SAT."""
