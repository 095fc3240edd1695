"""Skeletal motion reconstruction from passive-radar micro-Doppler signatures.

Pipeline stages, one module each: synthetic skeletal motion (`motion`),
bistatic baseband synthesis (`wavesim`), cross-ambiguity / CLEAN /
spectrograms (`caf`), baseline denoising (`denoise`), the autodiff substrate
(`nncore`), the velocity regression network (`velest`), initial-pose and
drift optimization (`poseopt`), and the experiment harness + CLI
(`harness`, `cli`).
"""

from .motion import (  # noqa: F401
    ActivityKind,
    PoseSequence,
    VelocitySequence,
    bone_lengths,
    differentiate,
    generate_activity,
    generate_composite,
    integrate,
    neutral_frame,
    t_pose,
)
from .wavesim import (  # noqa: F401
    BasebandSignal,
    Clutter,
    Geometry,
    InterferenceConfig,
    MirrorPlane,
    ScattererModel,
    bistatic_doppler,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)
from .caf import (  # noqa: F401
    CafMap,
    Spectrogram,
    assemble_spectrogram,
    clean_dsi,
    compute_caf,
    self_caf,
    spectrogram_pipeline,
)
from .denoise import denoise  # noqa: F401
from .velest import TrainConfig, VelModel, vel_forward, vel_train  # noqa: F401
from .poseopt import (  # noqa: F401
    OptConfig,
    OptModel,
    opt_train,
    opt_vector_truth,
    optimize_initial_pose,
    reconstruct_long_term,
)

__version__ = "0.1.0"
