"""Satellite QKD network planning toolkit.

Models decoy-state BB84 secret-key rates on free-space optical links,
represents the ground-station/satellite network as a graph of per-link
secret-key pools, and allocates keys between ground-station pairs with
multi-commodity flow linear programs (max-min demand and min-resource
objectives, greedily rounded to whole keys) plus a sequential
shortest-path baseline for comparison.
"""
from .decoy import *
from .linkbudget import *
from .lp import *
from .netmodel import *
from .router import *

__version__ = "0.1.0"
