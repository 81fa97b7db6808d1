// Analytic FLOP accounting. The paper evaluates unstructured sparsity, so
// compute cost is modeled (density-scaled MACs), not measured — same as the
// paper's own methodology. One dummy forward pass records spatial sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/model.h"

namespace fedtiny::metrics {

/// Per weight-layer (conv / linear) cost record.
struct LayerCost {
  std::string name;
  int64_t flops_per_sample = 0;  // dense multiply-accumulate * 2
  int64_t params = 0;
  /// Position in Model::prunable_indices(), or -1 if not prunable
  /// (input conv / output linear).
  int prunable_pos = -1;
  /// Index of the root Sequential's top-level child that holds this layer (0
  /// when the root is not a Sequential): a backward stopped at child c runs
  /// every layer whose top_child >= c.
  size_t top_child = 0;
};

struct ModelCost {
  std::vector<LayerCost> weight_layers;
  /// BN + activation + pooling cost per sample (approximate, density-independent).
  int64_t overhead_flops_per_sample = 0;
  /// Number of parameters outside prunable weights (BN, biases, input conv,
  /// output linear).
  int64_t non_prunable_params = 0;
  int64_t total_params = 0;

  /// Dense forward FLOPs per sample.
  [[nodiscard]] int64_t dense_forward_flops() const;
  /// Forward FLOPs per sample with the given per-prunable-layer densities.
  [[nodiscard]] double sparse_forward_flops(const std::vector<double>& layer_densities) const;
  /// Training (forward + backward) FLOPs per sample; backward is modeled as
  /// 2x forward, the standard convention.
  [[nodiscard]] double sparse_training_flops(const std::vector<double>& layer_densities) const;
  [[nodiscard]] double dense_training_flops() const;
};

/// Analyze a model: runs one single-sample eval forward pass to record
/// spatial dimensions, then tallies per-layer costs.
ModelCost analyze_model(nn::Model& model);

}  // namespace fedtiny::metrics
