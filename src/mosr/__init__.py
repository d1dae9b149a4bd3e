"""Multi-objective symbolic regression: NSGA-II over expression trees with
pluggable complexity objectives, benchmark generators and an experiment
harness."""

__version__ = "0.1.0"
