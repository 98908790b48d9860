"""Emulation of skeletal motion sequences on the product of unit spheres.

The package turns landmark recordings into bone-direction postures,
registers their timing, flattens them to Euclidean fields, reduces the
fields with spatial and functional PCA, fits generative models on the
coefficients, and evaluates simulated motion against training data.
"""

from .alignment import (TSRVFField, align_all, check_warp, optimal_warp, tsrvf,
                        warp_sequence)
from .datagen import SynthConfig, gen_class, gen_mixture, random_warp
from .dimred import (FPCABasis, MPCAModel, SpatialPCA, fpca_fit, fpca_project,
                     fpca_reconstruct, mpca_fit, mpca_project, mpca_reconstruct,
                     select_dims, seq_recon_error, spatial_pca_fit, spatial_project,
                     spatial_reconstruct)
from .errors import (AntipodalPoints, BadTarget, DegenerateBone, DimensionMismatch,
                     InsufficientData, KindMismatch, LengthMismatch, MotionError,
                     NoConvergence, NotTangent, ReferenceMismatch, SingularCovariance)
from .evaluate import (ClusterModel, DiscoResult, cluster_postures, disco_test,
                       mds_coords_from, mean_label_sequence, permutation_test,
                       posture_distance_matrix, qq_data, quantize, roughness, select_k, sequence_distance_matrix,
                       silhouette_score, variability, variability_stats)
from .flatten import FlatFields, flatten_sequence, shooting_vectors, unflatten_field
from .geometry import (karcher_mean, posture_dist, sequence_dist, sphere_dist, sphere_exp,
                       sphere_log, sphere_transport, tangent_coords, tangent_frame,
                       tangent_norm, coords_to_tangent)
from .models import (EmulatorBundle, IGModel, MVGModel, PWIModel, VARModel,
                     fit_emulator, fit_ig, fit_mvg, fit_pwi, fit_var, loglik,
                     sample_coeffs, sample_pwi, simulate_sequence, simulate_var)
from .persist import load_bundle, load_reduction, save_bundle, save_reduction
from .skeleton import SkeletonHierarchy, downsample, ingest_sequence

__version__ = "0.1.0"
