"""riverdense: dense reachability rewiring and over-squashing diagnostics
for river-network forecasting graphs."""

from .errors import (ConstantObserved, CsvFormatError, CycleDetected,
                     DegenerateSigma, DifferentComponents, DuplicateEdge,
                     IsolatedRow, MuOutOfRange, NonfiniteLoss,
                     NonpositiveLength, RiverDenseError, ShapeMismatch,
                     SingularDegree, UnknownStation)
from .network import (DistanceMatrix, Edge, RiverNetwork, build_network,
                      distance_path, in_degrees, out_degrees, read_edge_csv,
                      read_node_csv, topological_distances, write_edge_csv)
from .adjacency import (ADJACENCY_KINDS, AdjacencyMatrix, RewireConfig,
                        build_adjacency, dense_transform, rbf_kernel,
                        read_adjacency_csv, resolve_sigma, write_adjacency_csv,
                        write_adjacency_meta)
from .resistance import (BoundParams, LaplacianBundle, ResistanceReport,
                         effective_resistance, graph_laplacian, jacobian_bound,
                         pairwise_resistances, report_to_json,
                         resistance_report, write_report_csv, write_report_json)
from .preprocess import (GaugeSeries, NormStats, QCReport, apply_zscore,
                         bypass_remove, check_completeness, extract_subgraph,
                         fit_norm_stats, invert_zscore, parse_timestamp,
                         qc_station, read_gauge_csv, screen_discharge,
                         write_qc_json, zscore)
from .forecast import (ForecastModel, ForecastTask, RoutingCoeff,
                       SyntheticBasin, TrainConfig, TrainResult,
                       basin_to_gauge_csvs, chronological_split, forward,
                       generate_basin, input_jacobian, load_model, make_windows,
                       loss_and_gradients, mae_loss, nse, nse_by_horizon,
                       prepare_dataset, random_river_tree, save_model,
                       sensitivity, train)

__version__ = "0.1.0"
