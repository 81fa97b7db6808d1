// FederatedTrainer: the shared sparse-FedAvg round loop. Every evaluated
// method — FedTiny, PruneFL, FedDST, LotteryFL, and the static-mask
// baselines — subclasses this and overrides the mask-adjustment hooks.
//
// The loop runs on an event-driven federation core: a deterministic
// discrete-event clock (fl/simclock.h) schedules each scheduled client's
// download -> train -> upload completion, with durations from the client's
// device-speed profile applied to the analytic FLOP model and its link
// profile applied to the round's payload bytes (fl/comm_model.h). Cohort
// realism (availability, mid-round dropout, per-round deadlines) drops
// clients from the (seed, round, client) streams, renormalizing FedAvg
// weights over the survivors. Everything is simulated — no wall time — so
// runs are bitwise-reproducible from (seed, config) at any worker count,
// and the sync path under the ideal (zero-latency, always-available) model
// reproduces the historical lock-step engine bitwise.
//
// Server-side state is sized for the cohort, not the fleet: client data
// comes through a ClientDataSource (in-memory partition arena, or
// generate-on-demand synthetic shards that store nothing), per-client comm
// profiles are regenerated from (seed, client) counters, and uplinks STREAM
// into a ShardedAccumulator in simulated arrival order — each one folded
// into a packed sum arena (shard-parallel on the executor) and freed — so a
// million-client fleet costs the server O(model) plus ~16 B/client of
// metadata, never K model copies.
//
// Per synchronous round:
//   1. the scheduler plans participation (all K clients, or a
//      clients_per_round subsample drawn from the (seed, round) stream with
//      FedAvg weights renormalized over the sample); simulate_round then
//      applies availability/dropout/deadline and per-link timing
//   2. before_round(r)              (hook: e.g. pick the block to prune)
//   3. each survivor: download the global state (a serialized sparse
//      payload when sparse_exchange is on), E local epochs of masked SGD
//      (Eq. 5) — on the CSR sparse path when sparse_training is on —
//      optionally compute top-K pruned-coordinate gradients through a
//      bounded buffer (Alg. 2 lines 10-15), upload. Survivors run on
//      executor lanes with per-lane model replicas (parallel_clients).
//   4. server: each finished uplink folds into the ShardedAccumulator the
//      moment the ascending-client-order prefix allows (streaming FedAvg;
//      bitwise identical to the old batch reduce at any lane count), plus
//      weighted sparse gradient accumulation (Eq. 7)
//   5. after_aggregate(r)           (hook: mask surgery, re-mask weights)
//   6. cost accounting: per-device FLOPs, communication bytes (measured
//      wire size in sparse-exchange mode), and the simulated round time
//
// Async mode (SimConfig::async_rounds): the server folds the first M uplink
// arrivals on the simulated clock (FedBuff-style buffer) with
// staleness-discounted weights as it pops them, then immediately dispatches
// the next cohort against the new global state while stragglers keep
// training against stale state; their late arrivals fold into later
// aggregations.
#pragma once

#include <memory>
#include <vector>

#include "data/client_source.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "fl/adversary.h"
#include "fl/codec.h"
#include "fl/comm_model.h"
#include "fl/config.h"
#include "fl/scheduler.h"
#include "fl/server.h"
#include "fl/sharded_accumulator.h"
#include "fl/simclock.h"
#include "metrics/flops.h"
#include "nn/model.h"
#include "prune/mask.h"
#include "tensor/rng.h"

namespace fedtiny::fl {

struct RoundStats {
  int round = 0;
  int participants = 0;         // devices scheduled this round (K or the sample)
  double test_accuracy = -1.0;  // -1 when not evaluated this round
  double device_flops = 0.0;    // per-device training FLOPs this round
  /// Total bytes exchanged this round: the measured *encoded* payload size
  /// when sparse_exchange is on (whatever codec is active), else the
  /// analytic estimate.
  double comm_bytes = 0.0;
  /// Analytic estimate (metrics/comms) kept alongside for cross-checking.
  double comm_bytes_analytic = 0.0;
  /// Direction split of comm_bytes: server->client broadcasts and
  /// client->server uplinks (uplinks include straggler transmissions cut by
  /// the deadline). The uplink side is what a codec is judged on — the
  /// downlink is one shared encode. Analytic mode splits the estimate in
  /// half per direction.
  double comm_down_bytes = 0.0;
  double comm_up_bytes = 0.0;

  // ---- Simulated deployment (event-driven core). ----
  /// Uplinks folded into this round's aggregate (sync: the surviving
  /// cohort; async: the buffered arrivals, possibly from earlier rounds).
  int aggregated = 0;
  int unavailable = 0;  // sampled but never checked in
  int dropouts = 0;     // died mid-round after downloading
  int stragglers = 0;   // cut by the round deadline
  /// Simulated duration of this round (sync: dispatch to barrier; async:
  /// dispatch to the aggregation-triggering arrival). 0 under the ideal model.
  double round_time_s = 0.0;
  /// Cumulative simulated clock at the end of this round — the x-axis of
  /// time-to-accuracy curves.
  double sim_time_s = 0.0;
  /// Async: mean staleness (aggregation round minus dispatch round) of the
  /// folded uplinks. 0 in sync mode.
  double mean_staleness = 0.0;

  // ---- Real (host) wall-clock split, for server-throughput profiling. ----
  /// Seconds this process spent training the cohort (client-side work).
  double wall_train_s = 0.0;
  /// Seconds spent in server-side aggregation: uplink folds + the final
  /// average/scatter into the global state.
  double wall_agg_s = 0.0;

  // ---- Robustness (fault injection + robust aggregation). ----
  /// Uplinks whose wire failed decode/reconstruct this round (adversarial
  /// corruption, truncation): dropped like a dropout, weights renormalized
  /// over the survivors.
  int rejected_uplinks = 0;
  /// Uplinks the accumulator dropped for carrying NaN/Inf values.
  int nonfinite_dropped = 0;
  /// Uplinks whose delta norm was clipped (norm_clip policy only).
  int clipped_uplinks = 0;
  /// Scheduled clients marked adversarial by the AdversaryModel this round
  /// (after cohort realism; 0 with injection disabled).
  int adversaries = 0;
};

class FederatedTrainer {
 public:
  /// Materialized-data construction: a shared dataset plus per-client index
  /// lists (compacted into a PartitionArena internally).
  FederatedTrainer(nn::Model& model, const data::Dataset& train_data,
                   const data::Dataset& test_data, std::vector<std::vector<int64_t>> partitions,
                   FLConfig config);
  /// Out-of-core construction: client data served on demand by `source`
  /// (e.g. data::SyntheticFleetSource) — nothing fleet-sized is resident.
  /// Methods that need the raw dataset server-side (FedTiny's BN selection)
  /// require the materialized constructor.
  FederatedTrainer(nn::Model& model, std::shared_ptr<const data::ClientDataSource> source,
                   const data::Dataset& test_data, FLConfig config);
  virtual ~FederatedTrainer() = default;

  /// Run the configured number of rounds. Returns the final test accuracy.
  double run();

  /// Test accuracy of the current global model.
  double evaluate();

  [[nodiscard]] const prune::MaskSet& mask() const { return mask_; }
  void set_mask(prune::MaskSet mask);
  /// Store the model's current state as the global state.
  void capture_global_from_model();

  [[nodiscard]] double max_round_flops() const { return max_round_flops_; }
  [[nodiscard]] double total_comm_bytes() const { return total_comm_bytes_; }
  /// Simulated wall-clock of the whole run (0 under the ideal model).
  [[nodiscard]] double sim_time_s() const { return clock_.now(); }
  [[nodiscard]] const std::vector<RoundStats>& history() const { return history_; }
  [[nodiscard]] const metrics::ModelCost& model_cost() const { return cost_; }
  [[nodiscard]] const FLConfig& config() const { return config_; }
  [[nodiscard]] const CommModel& comm_model() const { return comm_; }
  [[nodiscard]] nn::Model& model() { return model_; }
  [[nodiscard]] const std::vector<Tensor>& global_state() const { return global_; }
  /// Resident bytes of the server's streaming aggregation buffers — the
  /// fleet-size-independent footprint the memory benches assert on.
  [[nodiscard]] size_t aggregator_resident_bytes() const { return agg_.resident_bytes(); }

  /// Whether local training stores/ships the dense model (LotteryFL,
  /// FedAvg). Affects cost accounting only; masking still applies if set.
  void set_dense_storage(bool dense) { dense_storage_ = dense; }

  /// Factory producing models with the same architecture as the trained
  /// one; required for parallel client execution (per-worker replicas).
  void set_model_factory(nn::ModelFactory factory) { factory_ = std::move(factory); }

 protected:
  // ---- Hooks for subclasses. ----
  virtual void before_round(int round) { (void)round; }
  virtual void after_aggregate(int round) { (void)round; }
  /// Per-prunable-layer top-K quota requested from clients this round
  /// (empty => no gradient uploads). Entries of 0 skip a layer.
  virtual std::vector<int64_t> pruned_grad_quota(int round) {
    (void)round;
    return {};
  }
  /// Extra per-device FLOPs beyond masked local training (e.g. dense weight
  /// gradients during pruning rounds), for this round's cohort: the plan
  /// carries the cohort size and its sample total, so per-device estimates
  /// scale with the sampled cohort rather than the full fleet.
  virtual double extra_device_flops(int round, const RoundPlan& plan) {
    (void)round;
    (void)plan;
    return 0.0;
  }
  /// Extra communication bytes this round across the cohort (e.g. score or
  /// gradient uploads). Charge plan.participants devices, not num_clients:
  /// under sampling only the cohort exchanges.
  virtual double extra_comm_bytes(int round, const RoundPlan& plan) {
    (void)round;
    (void)plan;
    return 0.0;
  }

  /// Masked local SGD on one client; `model` (the global model or a worker
  /// replica) must already hold the round-start state. The client RNG is
  /// derived from (seed, round, client), independent of execution order.
  void local_train(nn::Model& model, int client, int round, float lr);

  /// After local training: top-`quota[l]` gradient magnitudes at pruned
  /// coordinates of each requested layer, computed on the client's first
  /// min(2 * batch_size, n_k) samples through a bounded buffer (Alg. 2 line
  /// 12, O(a_l) memory). The forward is dense over the whole model; the
  /// backward stops at the top-level child of the root Sequential that holds
  /// the earliest requested layer.
  std::vector<std::vector<prune::ScoredIndex>> topk_pruned_grads(
      nn::Model& model, int client, const std::vector<int64_t>& quota);

  /// The top-level child of the root Sequential that holds the earliest
  /// prunable layer with a nonzero quota (cost_.weight_layers' top_child);
  /// SIZE_MAX when no layer has one. The probe's backward stops there.
  [[nodiscard]] size_t probe_stop_child(const std::vector<int64_t>& quota) const;

  /// Zero out masked coordinates of the global state.
  void apply_mask_to_global();

  /// Current per-prunable-layer densities of mask_.
  [[nodiscard]] std::vector<double> layer_densities() const { return mask_.layer_densities(); }

  /// Samples held by client k (cached; 8 B/client).
  [[nodiscard]] int64_t client_size(int k) const { return sizes_[static_cast<size_t>(k)]; }

  nn::Model& model_;
  /// Raw training dataset; null under the out-of-core constructor (methods
  /// needing it server-side must be built on materialized data).
  const data::Dataset* train_data_ = nullptr;
  const data::Dataset& test_data_;
  /// Compact client->sample-index map; empty/uniform under out-of-core.
  data::PartitionArena partitions_;
  FLConfig config_;
  std::vector<Tensor> global_;
  prune::MaskSet mask_;
  metrics::ModelCost cost_;
  Rng rng_;
  bool dense_storage_ = false;

  /// Aggregated sparse pruned-coordinate gradients (per prunable layer),
  /// refreshed whenever pruned_grad_quota() returned a non-empty request.
  std::vector<std::vector<prune::ScoredIndex>> aggregated_grads_;

  double max_round_flops_ = 0.0;
  double total_comm_bytes_ = 0.0;
  std::vector<RoundStats> history_;

 private:
  /// One client's uplink as produced by train_client_into.
  struct ClientResult {
    std::vector<Tensor> state;   // dense-exchange uplink (and async aggregate)
    SparseUpdatePayload update;  // sparse-exchange uplink
    std::vector<std::vector<prune::ScoredIndex>> grads;
    double upload_bytes = 0.0;
    /// Sample count the client *claims* (== client_size except for
    /// free-riders, who inflate it); the FedAvg weight numerator.
    int64_t claimed_samples = 0;
    /// Wire failed decode/reconstruct server-side: drop this uplink and
    /// renormalize over survivors — never fold, never crash.
    bool rejected = false;
  };

  void run_round(int round);
  void run_async();
  /// Server broadcast: the round-start state every participant downloads.
  /// In sparse-exchange mode the state round-trips the wire format (the
  /// active codec's encoding when one is configured — clients train from
  /// the dequantized broadcast, exactly what they would receive) and
  /// wire_bytes reports the encoded size (0 otherwise).
  std::vector<Tensor> broadcast_round_start(int round, size_t& wire_bytes);
  /// The shared delta reference for codec uplinks: the decoded broadcast
  /// state's values at the round mask's support. Both ends can compute it
  /// (the server encoded the broadcast), so it never rides the wire.
  [[nodiscard]] codec::SupportValues round_reference(
      const std::vector<Tensor>& round_start) const;
  /// Fill and push this round's RoundStats (clock must already be advanced
  /// past the round) and run the scheduled evaluation. The accumulator's
  /// per-round drop/clip counters are read here, so call before the next
  /// begin_round().
  void record_round(int round, const RoundPlan& plan, int aggregated, double mean_staleness,
                    double dispatch_s, double measured_down, double measured_up,
                    double wall_train_s, double wall_agg_s, int rejected, int adversaries);
  /// Construct the AdversaryModel from config and, for kLabelFlip, wrap the
  /// client source in the poisoning adapter (called by both ctors).
  void install_adversary();
  /// Configure the accumulator for this round: policy, plus the norm-clip
  /// reference (the round broadcast) when that policy is active.
  void arm_aggregator(const std::vector<Tensor>& round_start, bool sparse);
  /// Adversaries among this round's active cohort (stats only).
  [[nodiscard]] int count_adversaries(const std::vector<int>& clients) const;
  /// Download -> local SGD -> (optional) top-K grad probe -> uplink build
  /// for one client. keep_dense_state forces result.state even in
  /// sparse-exchange mode (the async aggregator folds dense states so mask
  /// surgery between dispatch and arrival cannot invalidate the support).
  /// `reference` is the shared codec delta reference for this round (null
  /// when no codec is active); with a codec the uplink round-trips
  /// encode_update/decode_update so the aggregate sees exactly the decoded
  /// wire, and top-k error-feedback residuals update in ef_store_.
  void train_client_into(nn::Model& model, int client, int round, float lr,
                         const std::vector<int64_t>& quota,
                         const std::vector<Tensor>& round_start, bool keep_dense_state,
                         const codec::SupportValues* reference, ClientResult& result);
  double round_training_flops(int round, const RoundPlan& plan);
  double round_comm_bytes_analytic(int round, const RoundPlan& plan);
  /// Per-client simulated-timing inputs for this round (only consulted when
  /// the sim model is non-ideal).
  [[nodiscard]] double downlink_bytes_estimate(size_t wire_bytes) const;
  [[nodiscard]] double uplink_bytes_estimate(const std::vector<int64_t>& quota) const;
  [[nodiscard]] std::vector<double> cohort_train_flops(const RoundPlan& plan, int round);
  [[nodiscard]] const std::vector<int64_t>& partition_sizes() const { return sizes_; }
  /// Lane count requested for this round's client pool (>= 1, capped by
  /// active clients; 1 unless a model factory enables replicas). The
  /// executor may grant fewer lanes than requested.
  int resolve_workers(int active_clients) const;
  nn::Model& worker_model(int worker);

  /// Per-client minibatch access: PartitionedSource over (train_data_,
  /// partitions_) for the materialized ctor, or the caller's on-demand
  /// source. Bitwise-identical batches either way.
  std::shared_ptr<const data::ClientDataSource> source_;
  std::vector<int64_t> sizes_;  // cached source_->size(k), the scheduler input

  CommModel comm_;
  SimClock clock_;
  /// Deterministic Byzantine fault injection (no-op when disabled).
  AdversaryModel adv_;
  /// Streaming per-round aggregation state, reused across rounds.
  ShardedAccumulator agg_;
  /// Per-client top-k error-feedback residuals (codec == kTopK only):
  /// O(participating clients x support), following the out-of-core
  /// fleet-state pattern. Each client's residual is only touched by its own
  /// training task, so updates are deterministic at any worker count.
  codec::EfResidualStore ef_store_;
  nn::ModelFactory factory_;
  std::vector<std::unique_ptr<nn::Model>> replicas_;  // lazily built per lane
};

}  // namespace fedtiny::fl
