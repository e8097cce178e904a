"""ablab: an exact computational laboratory for product sets, Bohr
neighborhoods, and stabilizer-based regularity in finite groups."""

from .errors import (
    AblabError,
    CoverageError,
    EmptySetError,
    FeasibilityError,
    GroupConstructionError,
    GroupMismatchError,
    NotExactError,
    PreconditionError,
    SizeBudgetError,
    SpecSyntaxError,
    TheoremViolationError,
)
from .groups import (
    Group,
    GroupSpec,
    Subgroup,
    abelian_basis,
    abelianization,
    alternating_group,
    build_group,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    elementary_abelian_group,
    enumerate_subgroups,
    exponent,
    group_from_cayley_file,
    normal_core,
    parse_group_spec,
    quotient_by,
    subgroup_from_indices,
    symmetric_group,
)
from .sets import (
    GroupSet,
    GrowthProfile,
    PlunneckeCertificate,
    RuzsaDistance,
    bar_closure,
    covering_number,
    eval_word,
    eval_words,
    growth_profile,
    inverse,
    left_translate,
    parse_set_spec,
    plunnecke_check,
    power,
    product,
    right_translate,
    ruzsa_distance,
    ruzsa_triangle_ok,
)
from .torus import TorusMap, TorusVec, characters, hom_defect, torus_distance
from .vc import (
    HausslerReport,
    StabilizerProfile,
    VcResult,
    haussler_check,
    stabilizer,
    vc_dimension,
)
from .bohr import (
    BohrWitness,
    RoundingResult,
    approx_bohr_set,
    bohr_set,
    bohr_witness_search,
    round_to_homomorphism,
)
from .pipelines import (
    BogolyubovReport,
    CosetDecomposition,
    CSTrace,
    ModeSets,
    RegularityReport,
    SaturationReport,
    SubgroupWitness,
    bogolyubov_bounded_exponent,
    coset_decomposition,
    croot_sisask,
    dense_saturation_check,
    largest_subgroup_inside,
    mode_sets,
    regularity_decompose,
    subgroup_candidates_inside,
)
from .rng import SplitRng

__version__ = "0.1.0"
