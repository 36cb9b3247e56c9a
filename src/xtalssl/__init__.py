"""Self-supervised representation learning for periodic crystals.

CIF structures are turned into periodic graphs, encoded by a gated
graph-convolution network, pre-trained with a redundancy-reduction
objective over pairs of stochastically augmented views, and fine-tuned
for scalar property regression.  Everything runs on numpy alone;
training is deterministic given a seed.
"""

__version__ = "0.1.0"

from .structure_io import CrystalStructure, Dataset, DatasetEntry, parse_cif
from .geometry import NeighborConfig, build_neighbor_list
from .featurize import CrystalGraph, GaussianBasis, build_graph
from .augment import AugmentConfig
from .model import ModelConfig, encode, init_params
from .pipeline import FinetuneConfig, PretrainConfig, finetune, pretrain

__all__ = [
    "CrystalStructure", "Dataset", "DatasetEntry", "parse_cif",
    "NeighborConfig", "build_neighbor_list",
    "CrystalGraph", "GaussianBasis", "build_graph",
    "AugmentConfig",
    "ModelConfig", "encode", "init_params",
    "FinetuneConfig", "PretrainConfig", "finetune", "pretrain",
    "__version__",
]
