"""Safety verification for smooth feedforward networks.

Certifies local homeomorphism with interval Jacobian determinants, then
verifies box safety properties by propagating only the input boundary, only a
non-certified remainder of the input set, or the full set as a baseline, under
interval-box or zonotope abstract domains, with a Monte-Carlo oracle for
falsification and empirical soundness checks.
"""

from .intervals import Box
from .network import (
    Layer,
    Network,
    forward_batch,
    forward_point,
    generate_network,
    jacobian_batch,
    load_network,
    network_to_document,
    point_jacobian,
    read_model,
    write_model,
)
from .domains import (
    Zonotope,
    box_propagate,
    zono_activation,
    zono_affine,
    zono_from_box,
    zono_propagate,
)
from .topology import (
    CellGrid,
    CertificationResult,
    SubsetExtraction,
    certify_homeomorphism,
    extract_subset,
    partition,
)
from .verifier import (
    FALSIFIED,
    SAFE,
    UNKNOWN,
    MonteCarloResult,
    Verdict,
    VerificationProblem,
    monte_carlo,
    verify,
)

__version__ = "0.1.0"
