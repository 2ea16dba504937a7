"""Rainbow forcing toolkit: exact poset search, tree embeddings, and
Boolean-lattice extremal computations on desk-scale instances."""

from .errors import (
    BadParams,
    CapExceeded,
    CyclicInput,
    ForcingTimeout,
    NotATreePoset,
    PreconditionViolated,
    RainbowPosetError,
)
from .poset import (
    Poset,
    adjoin_extremum,
    are_isomorphic,
    canonical_form,
    canonical_key,
    disjoint_sum,
    dual,
    height,
    is_tree_poset,
    linear_sum,
    make_poset,
    perp_value,
    poset_from_text,
    poset_to_text,
    rank_partition,
)
from .catalog import (
    DEFAULT_CAP,
    catalog_upto,
    dump_catalog,
    posets_by_relation_filter,
    posets_by_triangular_filter,
    posets_of_size,
)
from .constructions import (
    UniversalTree,
    a3_witness,
    antichain,
    blowup,
    chain,
    complete_multilevel,
    d_jk,
    diamond,
    downtree,
    harp,
    jay,
    o_jk,
    organ,
    universal_tree,
    uptree,
    vee,
    wedge,
)
from .forcing import (
    Coloring,
    ForcingVerdict,
    MValue,
    has_rainbow_copy,
    is_minimal_forcing,
    is_proper,
    m_value,
    proper_colorings,
    rainbow_forces,
    random_proper_coloring,
    refuting_coloring,
    search_M,
    verify_linear_sum_closure,
)
from .families import (
    LaResult,
    MinMaxReport,
    SetFamily,
    family_from_text,
    family_poset,
    family_to_text,
    greedy_pattern_free_family,
    iter_antichain_families,
    la_rainbow_star,
    la_star,
    lubell_mass,
    max_mass_pattern_free_with_extremes,
    middle_layers,
    minmax_partition,
    rainbow_free_layer_check,
    sigma,
)
from .treeembed import (
    CompleteDowntreeHost,
    EmbeddingCertificate,
    TreeMeta,
    classify_tree,
    downtree_fuzz_case,
    embed_downtree_on_host,
    embed_universal,
    random_downtree_coloring,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
