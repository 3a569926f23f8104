"""Mock threshold signatures and the shared-coin leader election.

A certificate is its signed fields plus the set of distinct signers whose
shares it combines; replicas collect those signer sets directly.  The coin
is a keyed hash of the run seed and view number, so election outputs are
deterministic per run but unpredictable without the seed, and structurally
unavailable until f+1 shares for the view exist.
"""

from __future__ import annotations

from functools import cache

from .core import (CoinQC, Certificate, ReplicaId, coin_threshold,
                   quorum_threshold, sha256)

PRF_ID = "sha256-mod"  # recorded in run reports so replays can pin it

CoinSeed = int  # pinned in the run config; the only coin key material


def elect_leader(view: int, run_seed: CoinSeed, n: int) -> ReplicaId:
    digest = sha256(f"{PRF_ID}|{run_seed}|{view}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


@cache
def replica_ids(n: int) -> frozenset[ReplicaId]:
    return frozenset(range(n))


def verify_certificate(cert: Certificate, n: int, f: int, *,
                       run_seed: CoinSeed) -> bool:
    """Structural validity: signer count meets the kind's threshold, signers
    are real replica ids, and a coin certificate names the right winner."""
    if not cert.signers <= replica_ids(n):
        return False
    if isinstance(cert, CoinQC):
        return (len(cert.signers) >= coin_threshold(f)
                and cert.elected == elect_leader(cert.view, run_seed, n))
    return len(cert.signers) >= quorum_threshold(f)
