"""Safety verification for smooth feedforward networks.

Finds with interval Jacobians where no output can have a critical point, then
verifies box safety properties by propagating only the input boundary, only
the remainder of the input set that can hold an extremum, or the full set as
a baseline, under interval-box or zonotope abstract domains, with a
Monte-Carlo oracle for falsification and empirical soundness checks.
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
    read_model,
    write_model,
)
from .domains import (
    Zonotope,
    zono_activation,
    zono_affine,
    zono_from_box,
    zono_propagate,
)
from .topology import (
    CellGrid,
    SubsetExtraction,
    certify_homeomorphism,
    extract_subset,
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
