"""jpdkit: pixel super-resolution imaging with correlated photon pairs.

Frame stacks of photon-pair detections carry pair correlations that survive
on a narrow band of pixel separations.  This package estimates that banded
joint probability distribution (JPD) from a stack, cleans it per camera
noise model, and projects it onto a half-pixel grid, doubling the sampling
rate of the native image.  It also provides the matching simulator, analytic
(closed-form) references, quantum-holography phase retrieval and spectral
diagnostics.
"""

from ._version import __version__
from .errors import (ConfigurationError, FileFormatError, JpdkitError,
                     ProcessingError)
from .frames import open_frames, read_frames, write_frames
from .images import GridImage, read_spectrum_csv, write_pgm16, write_spectrum_csv
from .jpd import (Jpd, accumulate_jpd, apply_separation_policy, diagonal_image,
                  minus_projection, read_jpd_snapshot, sum_projection,
                  write_jpd_snapshot)
from .pipeline import (PipelineResult, filter_jpd, interpolate_invalid,
                       normalize_jpd, process_jpd, reconstruct, super_resolve)
from .scenes import (Scene, cat_half_plane, checkerboard_phase, grating,
                     half_pixel_average, uniform)
from .simulate import (EmccdCamera, IdealCamera, SpadCamera, analytic_jpd,
                       camera_by_name, noon_density, simulate_chunks,
                       simulate_frames, simulate_intensity_frames)

__all__ = [
    "__version__",
    "JpdkitError", "ConfigurationError", "FileFormatError", "ProcessingError",
    "open_frames", "read_frames", "write_frames",
    "GridImage", "write_pgm16", "write_spectrum_csv", "read_spectrum_csv",
    "Jpd", "accumulate_jpd", "apply_separation_policy", "sum_projection",
    "minus_projection", "diagonal_image", "write_jpd_snapshot",
    "read_jpd_snapshot",
    "PipelineResult", "interpolate_invalid", "filter_jpd", "normalize_jpd",
    "process_jpd", "super_resolve", "reconstruct",
    "Scene", "grating", "checkerboard_phase", "cat_half_plane", "uniform",
    "half_pixel_average",
    "IdealCamera", "EmccdCamera", "SpadCamera", "camera_by_name",
    "simulate_frames", "simulate_intensity_frames", "noon_density",
    "analytic_jpd", "simulate_chunks",
]
