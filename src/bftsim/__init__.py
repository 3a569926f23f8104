"""Deterministic simulator for a chained BFT replication protocol with an
asynchronous fallback view-change.

Subpackages:
    core      block/certificate/message types, the rank order, and the run
              configuration and output actions shared with the replica
    crypto    certificate checks and coin-based leader election
    replica   the per-replica protocol state machine
    simnet    discrete-event network simulation with adversarial delays
    analysis  safety checking and performance metrics over traces
    scenario  config file parsing
    cli       command line entry points (run, sweep, replay, check)
"""

__version__ = "0.1.0"
