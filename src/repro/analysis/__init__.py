"""Trace-driven bottleneck analysis (profile-guided reasoning)."""

from .bottlenecks import Bottleneck, Diagnosis, classify, diagnose

__all__ = ["Bottleneck", "Diagnosis", "classify", "diagnose"]
