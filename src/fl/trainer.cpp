#include "fl/trainer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>

#include "fl/codec.h"
#include "fl/evaluate.h"
#include "fl/payload.h"
#include "metrics/comms.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "prune/sparse_exec.h"
#include "tensor/parallel.h"

namespace fedtiny::fl {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

FederatedTrainer::FederatedTrainer(nn::Model& model, const data::Dataset& train_data,
                                   const data::Dataset& test_data,
                                   std::vector<std::vector<int64_t>> partitions, FLConfig config)
    : model_(model),
      train_data_(&train_data),
      test_data_(test_data),
      partitions_(partitions),
      config_(config),
      cost_(metrics::analyze_model(model)),
      rng_(config.seed, /*stream=*/0xfed),
      comm_(config.sim, config.seed, config.num_clients) {
  assert(partitions_.num_clients() == config_.num_clients);
  // The source points at this trainer's own members; both outlive it.
  source_ = std::make_shared<data::PartitionedSource>(*train_data_, partitions_);
  sizes_ = partitions_.sizes();
  mask_ = prune::MaskSet::ones_like(model_);
  global_ = model_.state();
  install_adversary();
}

FederatedTrainer::FederatedTrainer(nn::Model& model,
                                   std::shared_ptr<const data::ClientDataSource> source,
                                   const data::Dataset& test_data, FLConfig config)
    : model_(model),
      test_data_(test_data),
      config_(config),
      cost_(metrics::analyze_model(model)),
      rng_(config.seed, /*stream=*/0xfed),
      source_(std::move(source)),
      comm_(config.sim, config.seed, config.num_clients) {
  assert(source_ != nullptr);
  assert(source_->num_clients() == config_.num_clients);
  sizes_.resize(static_cast<size_t>(source_->num_clients()));
  for (int k = 0; k < source_->num_clients(); ++k) {
    sizes_[static_cast<size_t>(k)] = source_->size(k);
  }
  mask_ = prune::MaskSet::ones_like(model_);
  global_ = model_.state();
  install_adversary();
}

void FederatedTrainer::install_adversary() {
  adv_ = AdversaryModel(config_.adversary, config_.seed);
  if (adv_.enabled() && config_.adversary.mode == AdversaryMode::kLabelFlip) {
    // Poison at the data source: adversarial clients train on flipped labels
    // in every batch. The wrapper captures the (small, copyable) model so
    // membership stays the same pure (seed, client) function everywhere.
    const AdversaryModel adv = adv_;
    source_ = std::make_shared<data::LabelFlippingSource>(
        std::move(source_), test_data_.num_classes,
        [adv](int client) { return adv.is_adversary(client); });
  }
}

void FederatedTrainer::arm_aggregator(const std::vector<Tensor>& round_start, bool sparse) {
  agg_.set_policy(config_.aggregation);
  if (config_.aggregation.policy == Aggregation::kNormClip) {
    // The clip reference is the round broadcast: an honest uplink's delta is
    // its local progress, an attacker's is whatever it injected — exactly
    // the quantity to bound.
    if (sparse) {
      agg_.set_reference(build_sparse_update(round_start, mask_, model_.prunable_indices()));
    } else {
      agg_.set_reference(round_start);
    }
  }
}

int FederatedTrainer::count_adversaries(const std::vector<int>& clients) const {
  if (!adv_.enabled()) return 0;
  int n = 0;
  for (const int c : clients) n += adv_.is_adversary(c) ? 1 : 0;
  return n;
}

void FederatedTrainer::set_mask(prune::MaskSet mask) {
  assert(mask.num_layers() == model_.prunable_indices().size());
  mask_ = std::move(mask);
  apply_mask_to_global();
}

void FederatedTrainer::capture_global_from_model() { global_ = model_.state(); }

void FederatedTrainer::apply_mask_to_global() {
  model_.set_state(global_);
  mask_.apply(model_);
  global_ = model_.state();
}

void FederatedTrainer::local_train(nn::Model& model, int client, int round, float lr) {
  const int64_t n = client_size(client);
  if (n == 0) return;
  nn::SGD sgd({lr, config_.momentum, config_.weight_decay});
  const auto param_masks = mask_.for_params(model);
  // With sparse training installed the CSR values go stale at every step;
  // refresh them so the next batch's sparse forward/backward (and any
  // eval-time CSR dispatch) sees the updated weights.
  const bool refresh_csr = config_.sparse_training && config_.sparse_exec_max_density > 0.0f;
  Rng client_rng(derive_seed(config_.seed, static_cast<uint64_t>(round),
                             static_cast<uint64_t>(client)),
                 /*stream=*/0xc11e47);
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    // The permutation is over *local* sample positions; the source maps them
    // to whatever backs them (global rows, or nothing at all for
    // generate-on-demand shards). Same sample sequence as the historical
    // shuffled-global-index path, batch for batch.
    auto perm = client_rng.permutation(n);
    for (const auto& chunk : data::chunk_indices(perm, config_.batch_size)) {
      auto batch = source_->gather(client, chunk);
      model.zero_grad();
      Tensor logits = model.forward(batch.x, nn::Mode::kTrain);
      auto loss = nn::softmax_cross_entropy(logits, batch.y);
      model.backward(loss.grad_logits);
      sgd.step_masked(model.params(), param_masks);
      if (refresh_csr) prune::refresh_sparse_values(model);
    }
  }
}

std::vector<std::vector<prune::ScoredIndex>> FederatedTrainer::topk_pruned_grads(
    nn::Model& model, int client, const std::vector<int64_t>& quota) {
  const auto& prunable = model.prunable_indices();
  assert(quota.size() == prunable.size());
  std::vector<std::vector<prune::ScoredIndex>> out(prunable.size());

  const int64_t n = client_size(client);
  if (n == 0) return out;
  // Two batches' worth of samples: the growth signal (Eq. 6) is the only
  // guidance the server gets for pruned coordinates, so halving its variance
  // is worth one extra forward/backward.
  const auto take = std::min<int64_t>(2 * config_.batch_size, n);
  std::vector<int64_t> head(static_cast<size_t>(take));
  std::iota(head.begin(), head.end(), int64_t{0});
  auto batch = source_->gather(client, head);

  model.zero_grad();
  Tensor logits = model.forward(batch.x, nn::Mode::kTrain);
  auto loss = nn::softmax_cross_entropy(logits, batch.y);
  // Only the requested layers' gradients are read, so the backward stops at
  // the top-level child holding the earliest of them: layers below it (the
  // stem, and for output-side blocks every earlier stage) never run their
  // backward. Every gradient that is read comes from the same kernels on the
  // same inputs as a full backward, so the top-K lists are bitwise unchanged.
  if (auto* root = dynamic_cast<nn::Sequential*>(model.root())) {
    root->backward_until(loss.grad_logits, std::min(probe_stop_child(quota), root->size()));
  } else {
    model.backward(loss.grad_logits);
  }

  for (size_t l = 0; l < prunable.size(); ++l) {
    if (quota[l] <= 0) continue;
    const auto g = model.params()[static_cast<size_t>(prunable[l])]->grad.flat();
    const auto& m = mask_.layer(l);
    prune::TopKBuffer buffer(quota[l]);
    for (size_t j = 0; j < g.size(); ++j) {
      if (m[j] == 0) buffer.push(static_cast<int64_t>(j), g[j]);
    }
    out[l] = buffer.sorted();
  }
  model.zero_grad();
  return out;
}

size_t FederatedTrainer::probe_stop_child(const std::vector<int64_t>& quota) const {
  size_t first = SIZE_MAX;
  for (const auto& layer : cost_.weight_layers) {
    if (layer.prunable_pos >= 0 && quota[static_cast<size_t>(layer.prunable_pos)] > 0) {
      first = std::min(first, layer.top_child);
    }
  }
  return first;
}

double FederatedTrainer::round_training_flops(int round, const RoundPlan& plan) {
  // Per-device cost, using the mean size of this round's effective
  // participants — the head count total_samples actually covers after
  // cohort realism (paper reports one device; full participation averages
  // over all K).
  const double mean_size =
      plan.total_samples / static_cast<double>(std::max(1, plan.effective_participants));
  const double per_sample = cost_.sparse_training_flops(layer_densities());
  return static_cast<double>(config_.local_epochs) * mean_size * per_sample +
         extra_device_flops(round, plan);
}

double FederatedTrainer::round_comm_bytes_analytic(int round, const RoundPlan& plan) {
  const double model_bytes = dense_storage_ ? metrics::dense_model_bytes(cost_)
                                            : metrics::sparse_model_bytes(cost_, mask_.nnz());
  // Download + upload per scheduled device; the extra-cost hooks likewise
  // charge the cohort (plan.participants), not the full fleet.
  return 2.0 * static_cast<double>(plan.participants) * model_bytes +
         extra_comm_bytes(round, plan);
}

double FederatedTrainer::downlink_bytes_estimate(size_t wire_bytes) const {
  if (config_.sparse_exchange) return static_cast<double>(wire_bytes);
  return dense_storage_ ? metrics::dense_model_bytes(cost_)
                        : metrics::sparse_model_bytes(cost_, mask_.nnz());
}

double FederatedTrainer::uplink_bytes_estimate(const std::vector<int64_t>& quota) const {
  // The uplink support is the shared round mask, so the payload size is
  // identical across clients and known before anyone trains: measure it by
  // encoding the current global state at the round support. The top-K
  // gradient probe rides along analytically (its size depends only on the
  // quota, not the gradient values). With a codec the estimate encodes the
  // same wire layout clients will ship (exact for int8/q4, whose size is
  // value-independent; representative for top-k, whose varint index stream
  // depends on which coordinates win).
  double bytes = 0.0;
  if (config_.sparse_exchange) {
    auto update = build_sparse_update(global_, mask_, model_.prunable_indices());
    if (config_.codec.enabled()) {
      bytes = static_cast<double>(
          codec::encode_update(update, config_.codec, config_.seed, /*round=*/0,
                               codec::kBroadcastClient, nullptr, nullptr)
              .size());
    } else {
      bytes = static_cast<double>(serialize(update).size());
    }
  } else {
    bytes = dense_storage_ ? metrics::dense_model_bytes(cost_)
                           : metrics::sparse_model_bytes(cost_, mask_.nnz());
  }
  const int64_t total_quota = std::accumulate(quota.begin(), quota.end(), int64_t{0});
  if (total_quota > 0) bytes += metrics::topk_gradient_bytes(total_quota);
  return bytes;
}

std::vector<double> FederatedTrainer::cohort_train_flops(const RoundPlan& plan, int round) {
  const double per_sample = cost_.sparse_training_flops(layer_densities());
  const double extra = extra_device_flops(round, plan);
  std::vector<double> flops(plan.clients.size());
  for (size_t i = 0; i < plan.clients.size(); ++i) {
    flops[i] = static_cast<double>(config_.local_epochs) *
                   static_cast<double>(client_size(plan.clients[i])) * per_sample +
               extra;
  }
  return flops;
}

int FederatedTrainer::resolve_workers(int active_clients) const {
  int workers = config_.parallel_clients;
  if (workers == 0) workers = default_pool_workers();
  if (!factory_) workers = 1;  // no replicas available: sequential fallback
  return std::clamp(workers, 1, std::max(1, active_clients));
}

nn::Model& FederatedTrainer::worker_model(int worker) {
  // Worker 0 trains on the primary model (no replica cost in the sequential
  // case); workers >= 1 get lazily-built factory replicas.
  if (worker == 0) return model_;
  const auto slot = static_cast<size_t>(worker - 1);
  while (replicas_.size() <= slot) replicas_.push_back(factory_());
  assert(replicas_[slot]->state_tensor_count() == model_.state_tensor_count());
  return *replicas_[slot];
}

void FederatedTrainer::train_client_into(nn::Model& model, int client, int round, float lr,
                                         const std::vector<int64_t>& quota,
                                         const std::vector<Tensor>& round_start,
                                         bool keep_dense_state,
                                         const codec::SupportValues* reference,
                                         ClientResult& result) {
  // Local SGD runs on the CSR sparse path (masked backward + per-step value
  // refresh) when configured; the top-K probe below still needs dense
  // pruned-coordinate gradients (the growth signal), so the install is
  // cleared before it.
  const AdversaryMode amode = adv_.mode_for(client);
  const bool sparse_train = config_.sparse_training && config_.sparse_exec_max_density > 0.0f;
  model.set_state(round_start);
  if (amode == AdversaryMode::kFreeRide) {
    // Free-riding: no local compute at all — the uplink is the broadcast
    // state itself (a zero delta) shipped under an inflated sample claim.
  } else {
    if (sparse_train) {
      prune::install_sparse_execution(model, mask_, config_.sparse_exec_max_density,
                                      /*train=*/true);
    }
    local_train(model, client, round, lr);
    if (sparse_train) prune::clear_sparse_execution(model);
    if (!quota.empty()) {
      result.grads = topk_pruned_grads(model, client, quota);
      if (config_.sparse_exchange) {  // measured bytes only used in sparse mode
        result.upload_bytes += static_cast<double>(serialize_grad_upload(result.grads).size());
      }
    }
  }
  result.claimed_samples = amode == AdversaryMode::kFreeRide
                               ? adv_.inflate_samples(client_size(client))
                               : client_size(client);

  // The state this client *ships*: perturbed for update-poisoning
  // adversaries (and NaN-poisoned in dense-exchange corrupt mode, where
  // there is no wire to damage), the trained model state otherwise.
  std::vector<Tensor> up_state;
  const bool perturbed = amode == AdversaryMode::kScale ||
                         amode == AdversaryMode::kSignFlip ||
                         (amode == AdversaryMode::kCorrupt && !config_.sparse_exchange);
  if (perturbed) {
    up_state = model.state();
    if (amode == AdversaryMode::kCorrupt) {
      adv_.corrupt_dense(up_state, round, client);
    } else {
      adv_.perturb_update(up_state, round_start, amode);
    }
  }

  const bool codec_on = config_.sparse_exchange && config_.codec.enabled();
  if (config_.sparse_exchange) {
    auto update = build_sparse_update(perturbed ? up_state : model.state(), mask_,
                                      model_.prunable_indices());
    update.num_samples = result.claimed_samples;
    if (codec_on) {
      // Encode -> measure -> decode: the aggregate always folds exactly what
      // came off the wire, quantization noise included. Top-k keeps its
      // error-feedback residual in ef_store_, updated inside the encode.
      codec::EfState* ef =
          config_.codec.codec == Codec::kTopK
              ? &ef_store_.acquire(static_cast<uint64_t>(client))
              : nullptr;
      auto wire =
          codec::encode_update(update, config_.codec, config_.seed, round,
                               static_cast<uint64_t>(client), reference, ef);
      if (amode == AdversaryMode::kCorrupt) adv_.corrupt_wire(wire, round, client);
      result.upload_bytes += static_cast<double>(wire.size());
      SparseUpdatePayload rx;
      if (!codec::decode_update(wire, rx, reference)) {
        // A damaged wire the deserializer refuses: drop this uplink like a
        // dropout (weights renormalize over survivors) — never crash, never
        // fold garbage silently.
        result.rejected = true;
        return;
      }
      if (!keep_dense_state) {
        result.update = std::move(rx);
      } else {
        // The async aggregator folds dense states; reconstruct the decoded
        // uplink through the dispatch-time mask so the fold sees the
        // codec round-trip, not the exact local state.
        if (!reconstruct_update(rx, mask_, model_.prunable_indices(), result.state)) {
          result.rejected = true;
          return;
        }
      }
    } else {
      auto wire = serialize(update);
      if (amode == AdversaryMode::kCorrupt) adv_.corrupt_wire(wire, round, client);
      result.upload_bytes += static_cast<double>(wire.size());
      if (!keep_dense_state) {
        // Sync aggregates off-the-wire data; the async aggregator folds the
        // dense state below, so only the measured wire size is needed there.
        if (!deserialize(wire, result.update)) {
          result.rejected = true;
          return;
        }
      } else if (amode == AdversaryMode::kCorrupt) {
        // Async folds dense states: route the corrupted v1 wire through the
        // server's decode + reconstruct so the damage is felt end-to-end.
        SparseUpdatePayload rx;
        if (!deserialize(wire, rx) ||
            !reconstruct_update(rx, mask_, model_.prunable_indices(), result.state)) {
          result.rejected = true;
        }
        return;  // state (or rejection) settled from the wire
      }
    }
  }
  if (!config_.sparse_exchange || (keep_dense_state && !codec_on)) {
    result.state = perturbed ? std::move(up_state) : model.state();
  }
}

void FederatedTrainer::run_round(int round) {
  // ---- Scheduler: who participates this round, and with what FedAvg
  // weight denominator. A pure function of (config, round) — independent of
  // execution order and worker count.
  const auto& sizes = partition_sizes();
  RoundPlan plan = plan_round(config_, sizes, round);

  before_round(round);

  const float lr = config_.lr * std::pow(config_.lr_decay, static_cast<float>(round));
  const auto quota = pruned_grad_quota(round);
  assert(quota.empty() || quota.size() == model_.prunable_indices().size());
  const auto& prunable = model_.prunable_indices();

  // ---- Server broadcast. Measured bytes charge the clients that actually
  // exchange (non-empty partitions, i.e. no no-shows, and only those that
  // checked in), while the analytic estimate charges every scheduled
  // participant — the gap between the two is visible when a sampled cohort
  // includes data-less or absent clients.
  size_t wire_bytes = 0;
  const std::vector<Tensor> round_start = broadcast_round_start(round, wire_bytes);
  const codec::SupportValues reference =
      config_.sparse_exchange && config_.codec.enabled()
          ? round_reference(round_start)
          : codec::SupportValues{};
  const codec::SupportValues* ref_ptr = reference.empty() ? nullptr : &reference;

  // ---- Simulation: availability, mid-round dropout, per-link timing, and
  // the round deadline. Rewrites plan.clients to the surviving cohort and
  // renormalizes plan.total_samples over it. A no-op under the ideal model,
  // which is what keeps this path bitwise-identical to the historical
  // engine.
  const size_t trainable = plan.clients.size();
  const double dispatch_s = clock_.now();
  if (!comm_.ideal()) {
    simulate_round(plan, comm_, round, dispatch_s, downlink_bytes_estimate(wire_bytes),
                   uplink_bytes_estimate(quota), cohort_train_flops(plan, round), sizes);
  }
  const std::vector<int>& active = plan.clients;
  // Downlink bytes: everyone who checked in downloaded, including clients
  // that later dropped out or missed the deadline.
  const double measured_down =
      static_cast<double>(wire_bytes) * static_cast<double>(trainable - plan.unavailable);
  // Deadline-cut stragglers trained and transmitted their (late) uploads;
  // charge them like the async path charges uplinks at dispatch, so
  // sync-vs-async measured comm stays commensurable. Sized from the round
  // mask now — aggregation below may change the support. (Mid-round
  // dropouts died before uploading: nothing to charge.)
  double straggler_up = 0.0;
  if (config_.sparse_exchange && plan.stragglers > 0) {
    straggler_up = static_cast<double>(plan.stragglers) * uplink_bytes_estimate(quota);
  }

  const auto round_t0 = std::chrono::steady_clock::now();
  double agg_seconds = 0.0;

  // ---- Local training across the surviving clients (worker pool), with
  // each uplink STREAMING into the sharded accumulator as soon as the
  // ascending-client-order prefix reaches it — the server fold overlaps
  // client training, and each ClientResult is freed the moment it folds, so
  // resident uplinks stay O(granted lanes), not O(cohort).
  std::vector<ClientResult> results(active.size());
  auto train_one = [&](nn::Model& model, size_t slot) {
    train_client_into(model, active[slot], round, lr, quota, round_start,
                      /*keep_dense_state=*/false, ref_ptr, results[slot]);
  };

  // Folds run in client order whatever the lane count, so parallel
  // schedules are bitwise identical to sequential ones. FedAvg weights are
  // renormalized over this round's surviving participants
  // (plan.total_samples); in sparse-exchange mode the sample count comes
  // off the wire.
  agg_.begin_round();
  arm_aggregator(round_start, config_.sparse_exchange);
  std::vector<SparseGradAccumulator> grad_acc(quota.empty() ? 0 : prunable.size());
  double measured_up = 0.0;
  int rejected = 0;
  auto fold_one = [&](size_t slot) {
    const auto t0 = std::chrono::steady_clock::now();
    auto& result = results[slot];
    measured_up += result.upload_bytes;  // the wire traveled either way
    if (result.rejected) {
      // Corrupted wire refused by the decoder: treated exactly like a
      // dropout — the fold never happens, so average_into's division by the
      // summed accepted weights renormalizes over survivors automatically.
      ++rejected;
      result = ClientResult{};
      agg_seconds += seconds_since(t0);
      return;
    }
    const auto samples = config_.sparse_exchange ? result.update.num_samples
                                                 : result.claimed_samples;
    const double weight = static_cast<double>(samples) / std::max(1.0, plan.total_samples);
    if (config_.sparse_exchange) {
      agg_.fold_sparse(result.update, weight);
    } else {
      agg_.fold(result.state, weight);
    }
    if (!quota.empty()) {
      for (size_t l = 0; l < result.grads.size(); ++l) grad_acc[l].add(result.grads[l], weight);
    }
    result = ClientResult{};  // drop the uplink buffers as soon as consumed
    agg_seconds += seconds_since(t0);
  };

  // Lanes come from the process-wide executor budget: nested parallelism
  // (harness runs x clients) degrades to fewer lanes — eventually inline —
  // instead of oversubscribing, and any lane count is bitwise-equivalent.
  const int want = resolve_workers(static_cast<int>(active.size()));
  bool ran_parallel = false;
  if (want > 1) {
    LaneSet lanes(want);
    if (lanes.lanes() > 1) {
      for (int w = 0; w < lanes.lanes(); ++w) worker_model(w);  // replicas up front
      // Fold-on-arrival: after finishing slot i, a lane folds every
      // contiguous ready slot starting at the fold cursor. The last
      // finisher of a prefix drains it, so folds happen as soon as client
      // order allows instead of after the barrier.
      std::mutex fold_mu;
      std::vector<char> ready(active.size(), 0);
      size_t next_fold = 0;
      lanes.for_each(active.size(), [&](int w, size_t i) {
        train_one(worker_model(w), i);
        std::lock_guard<std::mutex> lock(fold_mu);
        ready[i] = 1;
        while (next_fold < active.size() && ready[next_fold] != 0) {
          fold_one(next_fold);
          ++next_fold;
        }
      });
      assert(next_fold == active.size());
      ran_parallel = true;
    }
  }
  if (!ran_parallel) {
    // Sequential: fold each client straight into the accumulators so only
    // one uplink is in memory at a time (O(1) extra, any client count).
    for (size_t i = 0; i < active.size(); ++i) {
      train_one(model_, i);
      fold_one(i);
    }
  }
  {
    const auto t0 = std::chrono::steady_clock::now();
    // Scale the packed sums straight into the global state (no fleet-sized
    // copy); an empty round keeps the previous state.
    if (config_.sparse_exchange) {
      agg_.average_sparse_into(global_, mask_, prunable);
    } else {
      agg_.average_into(global_);
    }
    if (!quota.empty()) {
      aggregated_grads_.assign(prunable.size(), {});
      for (size_t l = 0; l < grad_acc.size(); ++l) aggregated_grads_[l] = grad_acc[l].average();
    }
    agg_seconds += seconds_since(t0);
  }
  const double round_seconds = seconds_since(round_t0);
  // Keep pruned coordinates exactly zero after averaging.
  apply_mask_to_global();

  after_aggregate(round);
  apply_mask_to_global();

  clock_.advance_to(dispatch_s + plan.duration_s);
  // `aggregated` reports what actually folded: rejections and non-finite
  // drops leave the count, exactly like dropouts leave the cohort.
  record_round(round, plan, agg_.folded(), /*mean_staleness=*/0.0, dispatch_s, measured_down,
               measured_up + straggler_up, std::max(0.0, round_seconds - agg_seconds),
               agg_seconds, rejected, count_adversaries(active));
}

std::vector<Tensor> FederatedTrainer::broadcast_round_start(int round, size_t& wire_bytes) {
  wire_bytes = 0;
  if (!config_.sparse_exchange) return global_;
  // The state really goes through the wire format: encode once, every
  // client decodes the same buffer. Without a codec, masked coordinates of
  // global_ are exact zeros, so the reconstruction is bit-identical to the
  // dense broadcast; with one, clients train from the dequantized state —
  // exactly the bytes the wire carried.
  const auto& prunable = model_.prunable_indices();
  const auto payload = build_sparse_state(global_, mask_, prunable);
  const auto wire = config_.codec.enabled()
                        ? codec::encode_state(payload, config_.codec, config_.seed, round)
                        : serialize(payload);
  wire_bytes = wire.size();
  SparseStatePayload rx;
  const bool ok = deserialize(wire, rx);
  assert(ok);
  (void)ok;
  std::vector<Tensor> out;
  const bool rec_ok = reconstruct_state(rx, prunable, out);
  assert(rec_ok);
  (void)rec_ok;
  return out;
}

codec::SupportValues FederatedTrainer::round_reference(
    const std::vector<Tensor>& round_start) const {
  // Kept values of the decoded broadcast at the round mask's support, then
  // the dense remainder's flat values — identical on both ends because both
  // hold the same decoded bytes. The dense extension switches the uplink's
  // dense tensors (biases, BN stats) to delta coding too.
  auto update = build_sparse_update(round_start, mask_, model_.prunable_indices());
  codec::SupportValues ref;
  ref.reserve(update.sparse_layers.size() + update.dense_tensors.size());
  for (auto& layer : update.sparse_layers) ref.push_back(std::move(layer.values));
  for (const auto& t : update.dense_tensors) {
    const auto v = t.flat();
    ref.emplace_back(v.begin(), v.end());
  }
  return ref;
}

void FederatedTrainer::record_round(int round, const RoundPlan& plan, int aggregated,
                                    double mean_staleness, double dispatch_s,
                                    double measured_down, double measured_up,
                                    double wall_train_s, double wall_agg_s, int rejected,
                                    int adversaries) {
  RoundStats stats;
  stats.round = round;
  stats.participants = plan.participants;
  stats.aggregated = aggregated;
  stats.unavailable = plan.unavailable;
  stats.dropouts = plan.dropouts;
  stats.stragglers = plan.stragglers;
  stats.rejected_uplinks = rejected;
  stats.nonfinite_dropped = agg_.dropped_nonfinite();
  stats.clipped_uplinks = agg_.clipped();
  stats.adversaries = adversaries;
  stats.round_time_s = clock_.now() - dispatch_s;
  stats.sim_time_s = clock_.now();
  stats.mean_staleness = mean_staleness;
  stats.wall_train_s = wall_train_s;
  stats.wall_agg_s = wall_agg_s;
  stats.device_flops = round_training_flops(round, plan);
  stats.comm_bytes_analytic = round_comm_bytes_analytic(round, plan);
  stats.comm_bytes =
      config_.sparse_exchange ? measured_down + measured_up : stats.comm_bytes_analytic;
  stats.comm_down_bytes =
      config_.sparse_exchange ? measured_down : 0.5 * stats.comm_bytes_analytic;
  stats.comm_up_bytes =
      config_.sparse_exchange ? measured_up : 0.5 * stats.comm_bytes_analytic;
  max_round_flops_ = std::max(max_round_flops_, stats.device_flops);
  total_comm_bytes_ += stats.comm_bytes;
  if ((config_.eval_every > 0 && round % config_.eval_every == 0) ||
      round == config_.rounds - 1) {
    stats.test_accuracy = evaluate();
  }
  history_.push_back(stats);
}

void FederatedTrainer::run_async() {
  // Async event loop: each iteration dispatches one cohort at the current
  // simulated time, then folds the first M uplink arrivals from the event
  // queue — which may include stragglers dispatched rounds ago, folded with
  // staleness-discounted weights. Client training executes eagerly at
  // dispatch (the clock, not the executor, decides when an upload *lands*),
  // so the executor stays saturated while round r+1 overlaps the stragglers
  // of round r on the simulated timeline.
  const auto& sizes = partition_sizes();
  const auto& prunable = model_.prunable_indices();

  struct Pending {
    ClientResult result;
    int64_t samples = 0;
  };
  std::vector<Pending> pool;
  std::vector<size_t> free_slots;

  for (int round = 0; round < config_.rounds; ++round) {
    // ---- Dispatch this round's cohort at the current clock. ----
    RoundPlan plan = plan_round(config_, sizes, round);
    before_round(round);
    const float lr = config_.lr * std::pow(config_.lr_decay, static_cast<float>(round));
    const auto quota = pruned_grad_quota(round);
    assert(quota.empty() || quota.size() == prunable.size());

    size_t wire_bytes = 0;
    const std::vector<Tensor> round_start = broadcast_round_start(round, wire_bytes);
    const codec::SupportValues reference =
        config_.sparse_exchange && config_.codec.enabled()
            ? round_reference(round_start)
            : codec::SupportValues{};
    const codec::SupportValues* ref_ptr = reference.empty() ? nullptr : &reference;

    const size_t trainable = plan.clients.size();
    const double dispatch_s = clock_.now();
    simulate_round(plan, comm_, round, dispatch_s, downlink_bytes_estimate(wire_bytes),
                   uplink_bytes_estimate(quota), cohort_train_flops(plan, round), sizes);
    const std::vector<int>& active = plan.clients;

    const auto train_t0 = std::chrono::steady_clock::now();
    // Train the surviving cohort eagerly on the executor lanes.
    std::vector<ClientResult> results(active.size());
    const int want = resolve_workers(static_cast<int>(active.size()));
    auto train_one = [&](nn::Model& model, size_t slot) {
      train_client_into(model, active[slot], round, lr, quota, round_start,
                        /*keep_dense_state=*/true, ref_ptr, results[slot]);
    };
    bool ran_parallel = false;
    if (want > 1) {
      LaneSet lanes(want);
      if (lanes.lanes() > 1) {
        for (int w = 0; w < lanes.lanes(); ++w) worker_model(w);
        lanes.for_each(active.size(), [&](int w, size_t i) { train_one(worker_model(w), i); });
        ran_parallel = true;
      }
    }
    if (!ran_parallel) {
      for (size_t i = 0; i < active.size(); ++i) train_one(model_, i);
    }
    const double wall_train_s = seconds_since(train_t0);

    // Enqueue their arrivals on the simulated clock and charge the round's
    // exchanged bytes at dispatch (uplinks are transmitted regardless of
    // when the server folds them).
    double measured_up = 0.0;
    // Walk schedule (all pre-realism participants, ascending) and clients
    // (survivors, ascending) in lockstep to find each survivor's arrival.
    size_t sched = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      double arrival = dispatch_s;
      if (!plan.schedule.empty()) {
        while (sched < plan.schedule.size() &&
               (plan.schedule[sched].client != active[i] ||
                plan.schedule[sched].drop != DropCause::kNone)) {
          ++sched;
        }
        assert(sched < plan.schedule.size());
        arrival = plan.schedule[sched].arrival_s;
        ++sched;
      }
      size_t slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        slot = pool.size();
        pool.emplace_back();
      }
      measured_up += results[i].upload_bytes;
      const int64_t claimed = results[i].claimed_samples;
      pool[slot] = Pending{std::move(results[i]), claimed};
      clock_.push(SimEvent{arrival, round, active[i], slot});
    }
    const double measured_down =
        static_cast<double>(wire_bytes) * static_cast<double>(trainable - plan.unavailable);

    // ---- Fold the first M arrivals (FedBuff-style buffer), streaming:
    // each popped uplink folds into the sharded accumulator and its buffers
    // are freed before the next pop. ----
    const auto agg_t0 = std::chrono::steady_clock::now();
    int m = config_.sim.async_aggregate_m;
    if (m <= 0) m = std::max(1, static_cast<int>(trainable) / 2);
    const size_t m_eff = std::min(static_cast<size_t>(m), clock_.pending());

    // The async aggregator folds dense states: stragglers may have trained
    // under an older mask, whose sparse support no longer matches the
    // current round's — dense folding keeps the arithmetic well-defined and
    // the post-aggregate re-mask restores exact zeros off the live support.
    agg_.begin_round();
    arm_aggregator(round_start, /*sparse=*/false);
    std::vector<SparseGradAccumulator> grad_acc(prunable.size());
    bool any_fresh_grads = false;
    double staleness_sum = 0.0;
    int rejected = 0;
    for (size_t j = 0; j < m_eff; ++j) {
      const SimEvent e = clock_.pop();
      Pending& p = pool[e.slot];
      if (p.result.rejected || p.result.state.empty()) {
        // The server only discovers a corrupted uplink when it arrives:
        // count it, free the slot, renormalize over the survivors (the fold
        // weights it never contributed to).
        ++rejected;
        p = Pending{};
        free_slots.push_back(e.slot);
        continue;
      }
      const double staleness = static_cast<double>(round - e.round);
      staleness_sum += staleness;
      const double discount =
          std::pow(1.0 + staleness, -config_.sim.staleness_alpha);
      const double weight = static_cast<double>(p.samples) * discount;
      agg_.fold(p.result.state, weight);
      // Gradient probes feed mask surgery against *this* round's quota and
      // scheduled block, so only fresh arrivals (dispatched this round)
      // contribute — a straggler's probe was measured under an older mask
      // and block and would silently mis-steer grow/prune.
      if (e.round == round && p.result.grads.size() == prunable.size()) {
        any_fresh_grads = true;
        for (size_t l = 0; l < prunable.size(); ++l) {
          grad_acc[l].add(p.result.grads[l], weight);
        }
      }
      p = Pending{};  // free the buffers
      free_slots.push_back(e.slot);
    }
    agg_.average_into(global_);  // divides by the summed weights; empty: keep
    if (any_fresh_grads) {
      aggregated_grads_.assign(prunable.size(), {});
      for (size_t l = 0; l < prunable.size(); ++l) aggregated_grads_[l] = grad_acc[l].average();
    } else {
      // No fresh probes this aggregation: clear instead of letting stale
      // ones linger, so after_aggregate's empty() guard skips surgery (the
      // pruning step waits for a round whose own cohort makes the buffer —
      // the honest behavior for a backlogged async federation).
      aggregated_grads_.clear();
    }
    const double wall_agg_s = seconds_since(agg_t0);
    apply_mask_to_global();
    after_aggregate(round);
    apply_mask_to_global();

    const int folded = agg_.folded();
    record_round(round, plan, folded,
                 folded > 0 ? staleness_sum / static_cast<double>(folded) : 0.0, dispatch_s,
                 measured_down, measured_up, wall_train_s, wall_agg_s, rejected,
                 count_adversaries(active));
  }
  // Uplinks still in flight at shutdown were charged at dispatch but never
  // folded — exactly the waste async deployments accept.
}

double FederatedTrainer::run() {
  if (config_.sim.async_rounds) {
    run_async();
  } else {
    for (int round = 0; round < config_.rounds; ++round) run_round(round);
  }
  return history_.empty() ? evaluate() : history_.back().test_accuracy;
}

double FederatedTrainer::evaluate() {
  model_.set_state(global_);
  const bool sparse_exec = config_.sparse_exec_max_density > 0.0f;
  if (sparse_exec) {
    prune::install_sparse_execution(model_, mask_, config_.sparse_exec_max_density);
  }
  const double acc = evaluate_accuracy(model_, test_data_, config_.eval_batch);
  if (sparse_exec) prune::clear_sparse_execution(model_);
  return acc;
}

}  // namespace fedtiny::fl
