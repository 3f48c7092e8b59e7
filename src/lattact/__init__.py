"""lattact: exact arithmetic for finite group actions on integral lattices.

Core layers:
- lattice: integral lattices, signatures, discriminant forms, vector enumeration
- root_systems: root systems, cameras, Weyl words, folding
- group_actions: lattice actions with signs, fundamental data, eigenlattices
- walls: wall and component counting in the positive cone, segment enumeration
- degeneration: saturation and degeneration of actions at root systems
- catalog: built-in fixtures and explicit classifications
- cli: command-line front end over action files

``import lattact`` loads none of these. Each exported name lives in one
module (``_HOMES``); the module is imported the first time one of its names
is read (PEP 562), and every read returns the module's current attribute,
so the package never holds a stale copy of a rebound function.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "catalog": (
        "ClassifyReport",
        "Fixture",
        "Order3Hit",
        "PipelineReport",
        "SurveyEntry",
        "SurveyReport",
        "classify_order3_on_2U",
        "d3_full_pipeline",
        "fixture",
        "torus_symplectic_survey",
    ),
    "degeneration": (
        "DegenerationReport",
        "DegenerationResult",
        "SaturatedSystem",
        "camera_adjacent",
        "degenerate",
        "degenerate_at_wall",
        "tau_saturation",
        "verify_degeneration",
    ),
    "errors": ("InputError", "LattactError", "ScopeError", "VerificationError"),
    "group_actions": (
        "DilatedComplexStructure",
        "EigenData",
        "FundamentalData",
        "GroupElements",
        "LatticeAction",
        "conjugation_obstruction",
        "dilated_complex_structure",
        "eigen_lattices",
        "enumerate_group",
        "extend_equivariantly",
        "fixed_lattice",
        "fundamental_data",
        "is_geometric",
        "leftover_lattice",
        "rho_lattice",
        "wedge_square",
    ),
    "lattice": (
        "DiscriminantForm",
        "Isometry",
        "Lattice",
        "Signature",
        "Sublattice",
        "direct_sum",
        "discriminant_form",
        "enumerate_vectors",
        "is_isometry",
        "make_lattice",
        "orthogonal_complement",
        "primitive_hull",
        "rank2_isomorphism_class",
        "signature",
        "standard_lattice",
        "sublattice_sum",
    ),
    "walls": (
        "CandidateReport",
        "Wall",
        "WallReport",
        "candidate_roots",
        "component_count",
        "project_to_eigenspaces",
        "segment_vectors",
        "wall_in_H_plus",
        "wall_report",
    ),
    "root_systems": (
        "Camera",
        "FoldResult",
        "RootSystem",
        "WeylWord",
        "ade_decompose",
        "camera_decompose",
        "classify_admissible_b_transitive",
        "fold_reflection",
        "fundamental_camera",
        "is_admissible",
        "reflection",
        "roots_of",
        "to_fundamental_chamber",
    ),
}

_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*sorted(_HOME_OF), "__version__"]


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
