"""The benchmark's workloads.

Each workload is one of the repository's run descriptions plus ``--set``
overrides.  The benchmark adds ``rng.seed=<seed>`` from its ``--seed``
argument, so the program only ever sees generated inputs.  ``golden_seed``
is the config file's own seed; the artifact digests of that seed are
recorded in ``expected_digests.json`` and checked on every run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: tuple[str, ...]
    golden_seed: int
    # strongest line of the super-resolved spectrum (cycles per camera
    # pixel) that the reconstruction must show, or None to skip the check
    fundamental: float | None
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "near_grating_k3", "configs/grating_superres.ini", (), 7, 0.2,
        "paper's headline run: 49 band planes make the band kernel the main "
        "cost of reconstruct; ideal camera makes event binning the main cost "
        "of simulate"),
    Workload(
        "emccd_fine_k1", "configs/fine_grating_emccd.ini", (), 7, 0.625,
        "same frame size with 9 planes: the band kernel is a small share of "
        "reconstruct; EMCCD rendering is half of simulate and the dx = 0 "
        "policy makes interpolation do real work"),
    Workload(
        "far_cat_spad64", "configs/cat_far_field.ini",
        # 6000 frames rather than the config's 20 000, so that a run
        # fits about twice as many timed cycles.  64-frame chunks rather
        # than 256: a chunk's two float64 operands (4.2 MB rather than
        # 17 MB) still exceed L2, and reconstruct times vary less from run
        # to run on a shared machine (perfbench/README.md)
        ("scene.size=64", "camera.profile=spad", "processing.band_radius=2",
         "pairs.frames=6000", "processing.chunk=64"),
        1, None,
        "far-field flip path, bit-packed bool frames and per-entry policy "
        "on the largest frames (64x64, 6000 of them)"),
)}
