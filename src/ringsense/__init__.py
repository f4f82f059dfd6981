"""Fiducial-based tactile sensing math on synthetic data.

Multi-tag pose estimation of a compliant-ring-mounted plate, calibration
of the deformation-to-wrench mapping, detectability analysis, and
threshold-based contact detection, validated end to end against a
built-in ring simulator.
"""

__version__ = "0.1.0"
