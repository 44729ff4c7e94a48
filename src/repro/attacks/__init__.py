"""Location-privacy attacks and metrics.

* BCM — Bid Channels Mining (Algorithm 1): intersect coverage complements
  of positively-bid channels.
* BPM — Bid Price Mining (Algorithm 2): match the normalised bid profile
  against the per-cell quality database.
* The anti-LPPA adversary: top-fraction selection on masked bid rankings,
  then BCM.
* Metrics (after Shokri et al.): uncertainty, incorrectness, failure rate,
  candidate-set size.
"""

from repro.attacks.against_lppa import (
    infer_available_sets,
    lppa_bcm_attack,
    top_fraction_bidders,
)
from repro.attacks.bcm import bcm_attack, bcm_attack_channels
from repro.attacks.colocation import anchor_boxes, colocation_attack
from repro.attacks.bpm import bpm_attack, bpm_distance_field
from repro.attacks.multiround import multiround_linkage_attack
from repro.attacks.winners import winner_channel_sets, winner_list_attack
from repro.attacks.metrics import (
    AggregateScore,
    AttackScore,
    aggregate_scores,
    score_attack,
)

__all__ = [
    "infer_available_sets",
    "lppa_bcm_attack",
    "top_fraction_bidders",
    "bcm_attack",
    "bcm_attack_channels",
    "anchor_boxes",
    "colocation_attack",
    "bpm_attack",
    "bpm_distance_field",
    "multiround_linkage_attack",
    "winner_channel_sets",
    "winner_list_attack",
    "AggregateScore",
    "AttackScore",
    "aggregate_scores",
    "score_attack",
]
