"""wpbench: a workbench for weakest-precondition transformers over finite
branching computations.

Computations are Kleisli arrows for six concrete monads (nondeterministic,
diverging, probabilistic, and their alternating combinations); modalities
turn them into backward predicate transformers; healthiness checkers decide
the intrinsic characterizations with counterexample witnesses; synthesis
reconstructs computations from healthy transformers; and the sweep engine
brute-forces the equivalences at desk scale.
"""

from .core import (
    DEFAULT_ENUM_GUARD,
    FinSet,
    SizeGuardError,
    enumerate_transformer_tables,
    parse_rational,
)
from .healthiness import (
    CONDITIONS,
    ProbeGrid,
    check_emod_morphism,
    check_gemod_morphism,
    check_join_preserving,
    check_meet_preserving,
    check_monotone,
    check_regular_sublinear,
    check_strict_nonempty_meets,
    finitary_support,
    run_condition,
)
from .modalities import (
    Modality,
    STRUCTURE_CLASSES,
    algebra_to_monad_map,
    builtin_modality,
    check_algebra_laws,
    lifting_check,
    monad_map_to_algebra,
)
from .monads import (
    BOT,
    DistV,
    KleisliArrow,
    MonadKind,
    MonadMapSpec,
    check_monad_laws,
    check_monad_map_laws,
    kleisli_compose,
    sigma_prime_spec,
    sigma_spec,
    support_map_spec,
    unit,
    up_closure,
)
from .semantics import (
    BooleanTransformer,
    RationalTransformer,
    check_functoriality,
    pt_alternating,
    pt_modality,
    wp_box,
    wp_diamond,
)
from .sweep import SweepReport, TheoremInstance, enum_verify
from .synthesis import (
    INSTANCES,
    SynthesisResult,
    UnhealthyInputError,
    roundtrip_verify,
    synth_dijkstra,
    synth_dist,
    synth_polytope,
    synth_relation,
    synth_subdist,
    synth_upfamily,
)
from .verdicts import Verdict, Witness, replay_witness, witness_is_sound

__version__ = "0.1.0"
