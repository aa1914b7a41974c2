"""The paper's core pipeline: featurization + full joins on Spark
(``fulljoin``), distributed sketch construction (``pipeline``), and the
numpy per-pair evaluation the experiment sweeps loop over
(``evaluate``)."""
from . import evaluate, fulljoin, pipeline

__all__ = ["evaluate", "fulljoin", "pipeline"]
