#include "metrics/flops.h"

#include <cassert>
#include <utility>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace fedtiny::metrics {

int64_t ModelCost::dense_forward_flops() const {
  int64_t total = overhead_flops_per_sample;
  for (const auto& layer : weight_layers) total += layer.flops_per_sample;
  return total;
}

double ModelCost::sparse_forward_flops(const std::vector<double>& layer_densities) const {
  double total = static_cast<double>(overhead_flops_per_sample);
  for (const auto& layer : weight_layers) {
    const double density =
        (layer.prunable_pos >= 0 &&
         layer.prunable_pos < static_cast<int>(layer_densities.size()))
            ? layer_densities[static_cast<size_t>(layer.prunable_pos)]
            : 1.0;
    total += static_cast<double>(layer.flops_per_sample) * density;
  }
  return total;
}

double ModelCost::sparse_training_flops(const std::vector<double>& layer_densities) const {
  return 3.0 * sparse_forward_flops(layer_densities);
}

double ModelCost::dense_training_flops() const {
  return 3.0 * static_cast<double>(dense_forward_flops());
}

ModelCost analyze_model(nn::Model& model) {
  // Record spatial sizes with a single dummy forward.
  const auto& in = model.input_shape();
  Tensor dummy({1, in[0], in[1], in[2]});
  (void)model.forward(dummy, nn::Mode::kEval);

  // Map prunable param pointers to their position.
  std::vector<const nn::Param*> prunable_params;
  for (int idx : model.prunable_indices()) {
    prunable_params.push_back(model.params()[static_cast<size_t>(idx)]);
  }
  auto prunable_pos_of = [&](const nn::Param* p) -> int {
    for (size_t i = 0; i < prunable_params.size(); ++i) {
      if (prunable_params[i] == p) return static_cast<int>(i);
    }
    return -1;
  };

  // Every leaf with the index of the root's top-level child that holds it,
  // in model.leaves() order.
  std::vector<std::pair<nn::Layer*, size_t>> leaves;
  if (auto* root = dynamic_cast<nn::Sequential*>(model.root())) {
    std::vector<nn::Layer*> held;
    for (size_t i = 0; i < root->size(); ++i) {
      held.clear();
      root->at(i)->collect_leaves(held);
      for (auto* leaf : held) leaves.emplace_back(leaf, i);
    }
  } else {
    for (auto* leaf : model.leaves()) leaves.emplace_back(leaf, 0);
  }

  ModelCost cost;
  for (const auto& [leaf, child] : leaves) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(leaf)) {
      LayerCost lc;
      lc.name = conv->name();
      const int64_t out_spatial = conv->last_out_h() * conv->last_out_w();
      lc.flops_per_sample = 2 * out_spatial * conv->out_channels() * conv->in_channels() *
                            conv->kernel() * conv->kernel();
      lc.params = conv->weight().value.numel();
      lc.prunable_pos = prunable_pos_of(&conv->weight());
      lc.top_child = child;
      // BN (4 ops) + ReLU (1 op) per conv output element, a standard
      // approximation for the density-independent overhead.
      cost.overhead_flops_per_sample += 5 * conv->out_channels() * out_spatial;
      cost.weight_layers.push_back(std::move(lc));
    } else if (auto* linear = dynamic_cast<nn::Linear*>(leaf)) {
      LayerCost lc;
      lc.name = linear->name();
      lc.flops_per_sample = 2 * linear->in_features() * linear->out_features();
      lc.params = linear->weight().value.numel();
      lc.prunable_pos = prunable_pos_of(&linear->weight());
      lc.top_child = child;
      cost.weight_layers.push_back(std::move(lc));
    }
  }
  cost.total_params = model.num_params();
  cost.non_prunable_params = cost.total_params - model.num_prunable();
  return cost;
}

}  // namespace fedtiny::metrics
