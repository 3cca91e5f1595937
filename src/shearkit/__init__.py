"""Exact certificates and shear-automorphism numerics for polynomial vector fields.

The package verifies bracket identities with zero tolerance, produces
bounded-degree density certificates (compatibility, Lie-closure spans,
vanishing-field modules over subvarieties), and approximates flows by
compositions of exactly integrable automorphisms, including basin
sampling for attracting compositions.
"""

from .errors import (
    ArityMismatch,
    ParseError,
    PreconditionError,
    RegimeMismatch,
    ShearKitError,
)
from .scalars import Scalar
from .poly import (
    MonomialBasis,
    Poly,
    format_poly,
    format_scalar,
    parse_poly,
    parse_scalar,
)
from .fields import (
    NilpotencyReport,
    NilpotencyVerdict,
    PolyMap,
    VectorField,
    annihilation_order,
    flow_nilpotent,
    flow_semisimple,
    format_vector_field,
    kernel_basis,
    lie_bracket,
    nilpotency_report,
    parse_vector_field,
    pushforward,
)
from .density import (
    CompatibilityVerdict,
    IdentityCheck,
    LieClosureCertificate,
    OrbitSpanReport,
    check_compatibility,
    determinant_poly,
    isotropy_update,
    lie_closure,
    monomial_field_targets,
    orbit_span_closure,
    replay_closure,
    replay_compatibility,
    sample_sl_points,
    shear_generator_family,
    sl_pair_derivations,
    verify_compat_identity,
    verify_shear_identity,
)
from .subvariety import (
    Codim2Certificate,
    SubvarietyInput,
    VanishingShear,
    build_vanishing_shear,
    codim2_module_certificate,
    eliminate_direction,
    verify_codim2_identity,
    verify_local_identities,
)

# the numeric names live in `dynamics`, the one module that needs numpy; they
# resolve on first access (PEP 562), so the exact side never loads numpy
_DYNAMICS_NAMES = frozenset({
    "AutoSeq", "BasinResult", "BracketPair", "ConvergenceReport", "DiagonalFlow", "GridSpec",
    "OvershearFlow", "Shear", "ShearFlow", "approximate_isotopy", "attracting_shear_composition",
    "basin_sample", "commutator_step", "decompose_field", "primitive_target",
    "radial_contraction", "trotter_compose",
})

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "dynamics" or name in _DYNAMICS_NAMES:
        import importlib

        # not `from . import dynamics`: its fromlist check would call this hook again
        dynamics = importlib.import_module(".dynamics", __name__)
        return dynamics if name == "dynamics" else getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the public globals (exported names and the submodules loaded so far) plus the lazy
# names, so that `from shearkit import *` binds the same names as an eager import
__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | _DYNAMICS_NAMES | {"dynamics"}
)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
