"""tfsqueeze: modular high-resolution time-frequency post-processing.

Squeezes the coefficients of an invertible hop-1 STFT onto per-frame ridge
estimates, preserving exact reconstruction, alongside the classic
post-processors (SST, reassignment, SET, LMSST) and the metrics to compare
them.
"""

from .baselines import lmsst, phase_if_map, reassignment, set_extract, sst
from .errors import (
    FormatError,
    InvalidParameterError,
    NonInvertibleGridError,
    TFSqueezeError,
)
from .io_export import (
    export_grid_csv,
    export_pgm,
    export_report_json,
    export_trajectories_csv,
    import_grid_csv,
    load_signal,
    load_trajectories_csv,
    save_signal_csv,
)
from .metrics import (
    MethodReport,
    framesum_max_dev,
    recon_rel_l2,
    ridge_mae,
    scan,
)
from .ridges import (
    IFEstimate,
    Ridges,
    gamma_floor,
    inject_if,
    local_maxima,
)
from .signals import (
    Mode,
    ModeModel,
    Signal,
    add_noise,
    gen_chirp_surrogate,
    gen_crossover,
    gen_fmam,
    gen_tone,
)
from .squeeze import mode_reconstruct, modular_reassign
from .tfr import Analysis, TFRGrid, half_circle, istft, stft
from .windows import WindowSpec

__version__ = "0.1.0"
