"""Local feature extraction substrate: SIFT implemented from scratch
(Gaussian pyramid, DoG detection, orientation, 128-D descriptors),
RootSIFT, and response-ranked selection for asymmetric extraction."""

from .binarize import (
    LshCodec,
    hamming_distances,
    pack_bits,
    popcount,
    sign_planes,
    unpack_bits,
    words_for_bits,
)
from .descriptor import DESCRIPTOR_DIM, DESCRIPTOR_L2_NORM, compute_descriptors
from .dog import build_dog, detect_keypoints
from .gaussian import GaussianPyramid, build_gaussian_pyramid, gaussian_blur, gaussian_kernel1d
from .keypoints import Keypoint
from .orientation import assign_orientations, image_gradients, orientation_histogram
from .integral import BoxFilter, box_sum, integral_image
from .rootsift import is_unit_normalized, rootsift
from .selection import pad_or_trim, select_top_features
from .sift import ExtractionResult, SIFTConfig, SIFTExtractor
from .surf import SURF_DESCRIPTOR_DIM, SURFConfig, SURFExtractor

__all__ = [
    "BoxFilter",
    "DESCRIPTOR_DIM",
    "DESCRIPTOR_L2_NORM",
    "ExtractionResult",
    "GaussianPyramid",
    "Keypoint",
    "LshCodec",
    "SIFTConfig",
    "SIFTExtractor",
    "SURFConfig",
    "SURFExtractor",
    "SURF_DESCRIPTOR_DIM",
    "box_sum",
    "integral_image",
    "assign_orientations",
    "build_dog",
    "build_gaussian_pyramid",
    "compute_descriptors",
    "detect_keypoints",
    "gaussian_blur",
    "gaussian_kernel1d",
    "hamming_distances",
    "image_gradients",
    "is_unit_normalized",
    "orientation_histogram",
    "pack_bits",
    "pad_or_trim",
    "popcount",
    "rootsift",
    "select_top_features",
    "sign_planes",
    "unpack_bits",
    "words_for_bits",
]
