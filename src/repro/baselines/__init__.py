"""The 10 baseline feature-transformation methods of Table I (+ RDG of Table III).

Every baseline implements the same protocol as FastFT's result surface:
``fit(X, y, task, feature_names) -> BaselineResult`` with a re-applicable
transformation plan, the achieved downstream score and wall-time accounting —
so the Table I / Fig 9 / Fig 10 harnesses can sweep methods uniformly.

- ``RFG``     random feature generation
- ``RDG``     random generation, smaller budget (Table III variant)
- ``ERG``     expand (all ops) then reduce (MI selection)
- ``LDA``     latent-topic dimensionality reduction (PLSA/EM variant)
- ``AFT``     autofeat-style iterative generate/select with redundancy control
- ``NFS``     RNN controller trained with REINFORCE
- ``TTG``     transformation-graph exploration with Q-learning
- ``DIFER``   sequence-embedding predictor + greedy search (differentiable AFE)
- ``OpenFE``  feature boosting with two-stage candidate pruning
- ``CAAFE``   pseudo-LLM semantic proposals (no LLM offline; see ``caafe.py``)
- ``GRFG``    group-wise cascading RL (FastFT ancestor, no PP/NE)
"""

from repro.baselines.aft import AFT
from repro.baselines.base import BaselineResult, FeatureTransformBaseline
from repro.baselines.caafe import CAAFE
from repro.baselines.difer import DIFER
from repro.baselines.erg import ERG
from repro.baselines.grfg import GRFG
from repro.baselines.lda import LDA
from repro.baselines.nfs import NFS
from repro.baselines.openfe import OpenFE
from repro.baselines.rfg import RDG, RFG
from repro.baselines.ttg import TTG

BASELINE_REGISTRY = {
    "rfg": RFG,
    "rdg": RDG,
    "erg": ERG,
    "lda": LDA,
    "aft": AFT,
    "nfs": NFS,
    "ttg": TTG,
    "difer": DIFER,
    "openfe": OpenFE,
    "caafe": CAAFE,
    "grfg": GRFG,
}

__all__ = [
    "BaselineResult",
    "FeatureTransformBaseline",
    "RFG",
    "RDG",
    "ERG",
    "LDA",
    "AFT",
    "NFS",
    "TTG",
    "DIFER",
    "OpenFE",
    "CAAFE",
    "GRFG",
    "BASELINE_REGISTRY",
]
