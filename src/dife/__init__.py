"""Style restitution + instance selective whitening on a toy segmentation net."""

from . import config, data, fields, gradcheck, isw, metrics, net, snr, stats, tensor, train

__all__ = ["config", "data", "fields", "gradcheck", "isw", "metrics", "net", "snr",
           "stats", "tensor", "train"]

__version__ = "0.1.0"
