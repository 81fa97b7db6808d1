#include "core/fedtiny.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "metrics/comms.h"
#include "prune/surgery.h"

namespace fedtiny::core {

FedTinyTrainer::FedTinyTrainer(nn::Model& model, const data::Dataset& train_data,
                               const data::Dataset& test_data,
                               std::vector<std::vector<int64_t>> partitions,
                               fl::FLConfig fl_config, FedTinyConfig config)
    : fl::FederatedTrainer(model, train_data, test_data, std::move(partitions), fl_config),
      ft_config_(config) {
  // Resolve granularity into a block partition over prunable layers.
  std::vector<int64_t> layer_sizes;
  for (int idx : model_.prunable_indices()) {
    layer_sizes.push_back(model_.params()[static_cast<size_t>(idx)]->value.numel());
  }
  int blocks = ft_config_.schedule.num_blocks;
  switch (ft_config_.schedule.granularity) {
    case Granularity::kLayer:
      blocks = static_cast<int>(layer_sizes.size());
      break;
    case Granularity::kEntire:
      blocks = 1;
      break;
    case Granularity::kBlock:
      break;
  }
  blocks_ = partition_blocks(layer_sizes, blocks);
  ft_config_.schedule.num_blocks = static_cast<int>(blocks_.size());
}

const BNSelectionReport& FedTinyTrainer::initialize() {
  assert(!initialized_);
  assert(train_data_ != nullptr);  // FedTiny is built on materialized data
  selection_report_ = select_coarse_mask(model_, *train_data_, partitions_, ft_config_.selection);
  capture_global_from_model();
  set_mask(selection_report_.mask);
  initialized_ = true;
  return selection_report_;
}

const std::vector<int>& FedTinyTrainer::block_for_round(int round) const {
  const int event = ft_config_.schedule.event_index(round);
  const int block = scheduled_block(event, static_cast<int>(blocks_.size()),
                                    ft_config_.schedule.backward_order);
  return blocks_[static_cast<size_t>(block)];
}

std::vector<int64_t> FedTinyTrainer::quotas_for_round(int round) {
  std::vector<int64_t> quota(model_.prunable_indices().size(), 0);
  const auto densities = mask_.layer_densities();
  int64_t total = 0;
  for (int pos : block_for_round(round)) {
    const auto n_unpruned = static_cast<int64_t>(
        densities[static_cast<size_t>(pos)] *
        static_cast<double>(mask_.layer(static_cast<size_t>(pos)).size()));
    quota[static_cast<size_t>(pos)] = ft_config_.schedule.quota(round, n_unpruned);
    total += quota[static_cast<size_t>(pos)];
  }
  max_topk_capacity_ = std::max(max_topk_capacity_, total);
  return quota;
}

std::vector<int64_t> FedTinyTrainer::pruned_grad_quota(int round) {
  assert(initialized_ && "call initialize() before run()");
  if (!ft_config_.progressive_pruning || !ft_config_.schedule.is_pruning_round(round)) return {};
  return quotas_for_round(round);
}

void FedTinyTrainer::after_aggregate(int round) {
  if (!ft_config_.progressive_pruning || !ft_config_.schedule.is_pruning_round(round)) return;
  if (aggregated_grads_.empty()) return;
  model_.set_state(global_);
  const auto quota = quotas_for_round(round);
  for (int pos : block_for_round(round)) {
    const auto p = static_cast<size_t>(pos);
    if (quota[p] <= 0) continue;
    const auto* param =
        model_.params()[static_cast<size_t>(model_.prunable_indices()[p])];
    prune::grow_prune_layer(param->value.flat(), mask_.layer(p), aggregated_grads_[p], quota[p]);
  }
  // Base class re-applies the (adjusted) mask to the global state.
}

double FedTinyTrainer::extra_device_flops(int round, const fl::RoundPlan& plan) {
  if (!ft_config_.progressive_pruning || !ft_config_.schedule.is_pruning_round(round)) return 0.0;
  // What the probe (FederatedTrainer::topk_pruned_grads) runs per device: a
  // dense forward of the whole model on min(2 * batch_size, n_k) samples,
  // then a dense backward (2x forward, weight layers only) from the output
  // down to the top-level child holding the earliest layer with a quota.
  const size_t first = probe_stop_child(quotas_for_round(round));
  double backward = 0.0;
  for (const auto& layer : cost_.weight_layers) {
    if (layer.top_child >= first) backward += 2.0 * static_cast<double>(layer.flops_per_sample);
  }
  // The cohort's mean local size stands in for n_k.
  const double mean_size =
      plan.total_samples / static_cast<double>(std::max(1, plan.effective_participants));
  const double samples = std::min(2.0 * static_cast<double>(config().batch_size), mean_size);
  return samples * (static_cast<double>(cost_.dense_forward_flops()) + backward);
}

double FedTinyTrainer::extra_comm_bytes(int round, const fl::RoundPlan& plan) {
  if (!ft_config_.progressive_pruning || !ft_config_.schedule.is_pruning_round(round)) return 0.0;
  const auto quota = quotas_for_round(round);
  const int64_t total = std::accumulate(quota.begin(), quota.end(), int64_t{0});
  // Gradient uploads come from the round's cohort, not the whole fleet.
  return static_cast<double>(plan.participants) * metrics::topk_gradient_bytes(total);
}

}  // namespace fedtiny::core
