"""Exact-arithmetic engine for finite counterfactual probability and causal
spaces: construction, axiom verification, conditioning, interventions,
causal-effect classification, and compilation of structural and
potential-outcome models."""

from .space import (
    Coordinate,
    SchemaError,
    SpaceSchema,
    atoms_of,
    cylinder,
    is_measurable_wrt,
)
from .measure import (
    ConditioningUndefinedError,
    Margin,
    Measure,
    as_equal,
    as_equal_given,
    condition_event,
    dirac,
    independent,
    independent_given,
    independent_sigmas,
    prob,
    synchronized,
)
from .mechanism import (
    AxiomReport,
    AxiomViolation,
    CfSpace,
    ConditionalEffectVerdict,
    DerivationNote,
    DerivationReport,
    EffectVerdict,
    EffectWitness,
    FundamentalReport,
    Kernel,
    Mechanism,
    MissingKernelError,
    causal_independent,
    causal_sync,
    causally_equal,
    check_axioms,
    classify_effect,
    condition_sigma,
    conditional_active_effect,
    global_source,
    independent_given_sigma,
    intervene,
    is_source,
    verify_fundamental,
)
from .worlds import (
    CrossWorldReport,
    EventClass,
    SymmetryReport,
    WorldMirror,
    build_nway,
    check_cross_world,
    classify_event,
    is_symmetric,
    marginalize,
)
from .compilers import (
    CyclicModelError,
    POModel,
    SCMModel,
    StructuralEq,
    compile_backtracking,
    compile_po,
    compile_scm,
)
from .parser import (
    KernelDecl,
    ParseError,
    SpaceDocument,
    WorldDecl,
    doc_from_space,
    parse_space,
    serialize_space,
)
from .modelio import parse_po, parse_scm
from .query import QueryScript, parse_query, run_script

__all__ = [name for name in dir() if not name.startswith("_")]
