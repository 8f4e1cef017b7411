"""Extended shuffle products on integer compositions, their lift to Chen
symbols and generalized Chen fractions, the convergent subalgebra of nested
zeta series, and a numeric certifier for the series homomorphism."""

__version__ = "0.1.0"

from .algebra import (
    UNIT,
    Composition,
    LinComb,
    composition,
    depth,
    format_composition,
    op_I,
    op_J,
    partial_weight,
    weight,
)
from .chenfrac import (
    FRACTION_UNIT,
    ChenFraction,
    F_map,
    FractionLinComb,
    VanishingDenominatorError,
    equal_on_panel,
    evaluate,
    evaluation_panel,
    fraction_product,
    mult_by_linear,
    variables,
)
from .convergence import (
    DivergentError,
    check_closure,
    first_divergent_index,
    is_convergent,
    product_weight_lower_bound,
    tilde_w,
)
from .parsing import (
    ParseError,
    parse_assignment,
    parse_composition,
    parse_fraction,
    parse_lincomb,
    parse_symbol,
)
from .relations import (
    CertifiedRelation,
    DoubleShuffleRelation,
    RelationScan,
    convergent_compositions,
    double_shuffle_relation,
    enumerate_relations,
)
from .shuffle import (
    Word,
    ext_shuffle,
    ext_shuffle_lin,
    is_leading_positive,
    rho_decode,
    rho_encode,
    stuffle,
    word_from_str,
    word_shuffle,
    word_to_str,
)
from .symbols import (
    SYMBOL_UNIT,
    ChenSymbol,
    SymbolLinComb,
    independent,
    make_independent,
    opS_I,
    opS_J,
    phi_project,
    symbol_product,
)
from .zeta import (
    DEFAULT_MAX_N,
    HomomorphismReport,
    ZetaEstimate,
    verify_homomorphism,
    zeta,
    zeta_of_lincomb,
    zeta_truncated,
)
