"""riverdense: dense reachability rewiring and over-squashing diagnostics
for river-network forecasting graphs."""

from .errors import (ConstantObserved, CsvFormatError, CycleDetected,
                     DegenerateSigma, DuplicateEdge, IsolatedRow, MuOutOfRange,
                     NonfiniteLoss, NonpositiveLength, RiverDenseError,
                     RowWriterFailed, ShapeMismatch, UnknownStation)
from .network import (DistanceMatrix, Edge, RiverNetwork, build_network,
                      read_edge_csv, topological_distances, write_edge_csv)
from .adjacency import (ADJACENCY_KINDS, AdjacencyMatrix, RewireConfig,
                        build_adjacency, dense_transform, rbf_kernel,
                        read_adjacency_csv, resolve_sigma, write_adjacency_csv)
from .resistance import (BoundParams, LaplacianBundle, ResistanceReport,
                         graph_laplacian, jacobian_bound, pairwise_resistances,
                         resistance_report, write_report_csv, write_report_json)
from .preprocess import (GaugeSeries, GaugeTally, QCReport, bypass_remove,
                         extract_subgraph, parse_timestamp, qc_station,
                         read_gauge_csv, write_qc_json)
from .forecast import (ForecastModel, ForecastTask, SyntheticBasin, TrainConfig,
                       TrainResult, basin_to_gauge_csvs, forward, generate_basin,
                       input_jacobian, load_model, loss_and_gradients, nse,
                       nse_by_horizon, prepare_dataset, random_river_tree,
                       save_model, train)

__version__ = "0.1.0"
