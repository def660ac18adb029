"""quonstat: exact quon (q-deformed) operator algebra, composite
statistics, and Pauli-violation bound propagation.

The import block below is the list of public names: ``__all__`` is
derived from it, so a name is made public by importing it here."""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundRecord,
    ChainRow,
    derive_chain,
    ingest_limits,
    load_bundled_limits,
    propagate_exact,
    propagate_first_order,
)
from .composite import (
    CompositeSpec,
    TwoCompositeResult,
    block_swap,
    composite_word,
    exchange_law,
    two_composite_scalar,
    weo_limit_check,
)
from .errors import (
    CapExceeded,
    ContractViolation,
    LimitsFormatError,
    ParseError,
    QuonError,
    TheoremViolation,
    UnsupportedError,
)
from .fock import (
    GramMatrix,
    PsdReport,
    StateVector,
    build_state,
    gram,
    irrep_blocks,
    irrep_weight_polys,
    irrep_weights,
    normalization_poly,
    permutation_basis,
    psd_report,
    state_scalar_product,
    tensor,
)
from .permutations import (
    CharacterTable,
    RepCoefficients,
    all_permutations,
    character_table,
    compose,
    cycle_type,
    identity,
    inverse,
    inversion_number,
    preset_rep,
    random_rep,
    seminormal_form,
    sign,
)
from .qpoly import QPolynomial
from .qpoly import parse as parse_polynomial
from .wick import (
    ModeLabel,
    delta_matrix,
    oracle_q_permanent,
    oracle_scalar_product,
    q_permanent,
    scalar_product,
)

__version__ = "0.1.0"

# the public names are those the imports above bind, less the submodules
# that importing them binds on the package
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
