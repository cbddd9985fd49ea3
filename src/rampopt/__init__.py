"""Distributed ramp flow-control optimization testbed.

A 30-actuator ramp surface (height levels plus on/off jets) is optimized
against a calibrated surrogate plant whose separable mode admits an exact
brute-force oracle.  The package bundles the discrete pattern encoding, the
surrogate and its wire protocol for external plants, an elitism-accelerated
particle swarm optimizer, the 120-case parametric study, and proximity-map /
modal-decomposition analysis tools.
"""

__version__ = "0.1.0"

from .analysis import Embedding, Envelope, PodResult, classical_mds, learning_envelope, snapshot_pod
from .optimizer import (
    CampaignResult,
    LearningCurve,
    ParticleClass,
    SwarmConfig,
    classify,
    mutate_elitism,
    run,
    run_campaign,
    step,
)
from .parametric import ParametricCase, StudyResult, generate_cases, run_study
from .patterns import (
    ActuationPattern,
    ActuatorGrid,
    EffectivePattern,
    EncodingError,
    PositionBounds,
    active_fraction,
    decode_position,
    effective_pattern,
    mean_height_ratio,
    pattern_to_position,
    rescale_for_embedding,
)
from .plant import (
    ContractError,
    DomainError,
    FlowConfig,
    Measurement,
    SurrogateConfig,
    SurrogatePlant,
    TapGrid,
    cost_ja,
    cost_ja_star,
    cp_profile,
    default_surrogate_config,
    load_surrogate_config,
    oracle_optimum,
    ramp_profile,
    save_surrogate_config,
)
from .protocol import (
    ConcurrentEvaluationError,
    DimensionMismatchError,
    ExternalPlant,
    MalformedResponseError,
    PlantServer,
    PlantTimeoutError,
    ProtocolError,
    RemoteEvalError,
    surrogate_responder,
)
