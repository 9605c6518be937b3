"""Streaming endoscopic video analysis for kidney-stone morphology."""

__version__ = "0.1.0"
