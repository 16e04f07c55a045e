"""Entanglement-of-cloning and entanglement-of-deleting bounds for
two-qubit pure states, with the no-go witnesses behind them."""

from .cloning import (
    CloneBoundRecord,
    CloneIsometry,
    clone_bound,
    clone_bound_combined,
    crossover,
    local_clone_pipeline,
    rho_clone_closed_form,
    universal_clone_isometry,
)
from .deleting import (
    DeleteOutcome,
    SchmidtRankCheck,
    delete_bound,
    global_delete,
    local_delete_swap,
    min_over_product_pure,
    schmidt_rank_nogo_check,
)
from .nogo import (
    CloningCertificate,
    measure_forget_channel,
    no_local_cloning_certificate,
)
from .qstate import (
    Ket,
    LabeledState,
    SchmidtPair,
    relative_entropy,
    schmidt_decompose,
    schmidt_ket,
    trace_out,
    von_neumann_entropy,
)
from .variational import (
    LocalUnitary,
    SearchReport,
    clone_objective,
    delete_objective,
    optimize_clone,
    optimize_delete,
    param_to_unitary,
)

__version__ = "0.5.0"

__all__ = [
    "CloneBoundRecord",
    "CloneIsometry",
    "CloningCertificate",
    "DeleteOutcome",
    "Ket",
    "LabeledState",
    "LocalUnitary",
    "SchmidtPair",
    "SchmidtRankCheck",
    "SearchReport",
    "clone_bound",
    "clone_bound_combined",
    "clone_objective",
    "crossover",
    "delete_bound",
    "delete_objective",
    "global_delete",
    "local_clone_pipeline",
    "local_delete_swap",
    "measure_forget_channel",
    "min_over_product_pure",
    "no_local_cloning_certificate",
    "optimize_clone",
    "optimize_delete",
    "param_to_unitary",
    "relative_entropy",
    "rho_clone_closed_form",
    "schmidt_decompose",
    "schmidt_ket",
    "schmidt_rank_nogo_check",
    "trace_out",
    "universal_clone_isometry",
    "von_neumann_entropy",
]
