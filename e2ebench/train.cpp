// Training workloads of bench_e2e: the unit is one federated round.
//
// A run is a sequence of identical episodes. Each episode builds its inputs
// from the seed (synthetic data, Dirichlet partition or on-demand fleet,
// pretrained model, BN selection), runs a fixed number of rounds and
// evaluates once at the end. Round 0 is warm-up and counts as set-up; the
// last round carries the evaluation and is not timed; the rounds between
// are the timed rounds. Repeating whole episodes until --seconds is spent
// keeps every episode's work, final state and accuracy a pure function of
// the seed (so every episode must reproduce the same digest) while the
// number of timed rounds and set-ups grows with the time budget.
//
// Round boundaries come from the trainer's public hooks (before_round,
// after_aggregate) in a subclass; the per-round train/aggregate split from
// RoundStats. Traced episodes add a ClientDataSource decorator that times
// every minibatch gather, and the probes in probes.cpp.
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/fedtiny.h"
#include "core/pretrain.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "e2e.h"
#include "fl/codec.h"
#include "fl/scheduler.h"
#include "fl/trainer.h"
#include "metrics/memory.h"
#include "nn/models.h"
#include "nn/sgd.h"
#include "prune/sparse_exec.h"
#include "tensor/parallel.h"

namespace e2e {

namespace {

using namespace fedtiny;

struct TrainWorkload {
  std::string name;
  bool fedtiny = false;  // BN selection + progressive pruning; plain FedAvg otherwise
  int64_t image_size = 16;
  float width = 0.125f;
  int64_t train_size = 0;  // materialized train split (public data only with on_demand)
  int64_t on_demand = 0;   // samples per client generated on demand; 0 = Dirichlet split
  int64_t test_size = 500;
  int64_t public_size = 200;
  int pretrain_epochs = 2;
  int clients = 48;
  int per_round = 12;
  int rounds = 0;  // round 0 is warm-up, the last round evaluates
  int64_t batch = 16;
  double density = 1.0;
  int delta_r = 2;
  int r_stop = 0;  // last pruning round
  int pool = 4;
  bool sparse = false;  // CSR sparse training and sparse exchange
  std::string codec = "none";
  fl::SimConfig sim;
  fl::Aggregation policy = fl::Aggregation::kFedAvg;
  double acc_floor = 0.0;
};

const std::vector<TrainWorkload>& workloads() {
  static const std::vector<TrainWorkload> all = [] {
    TrainWorkload dense;
    dense.name = "fedavg_dense";
    dense.train_size = 1200;
    dense.per_round = 6;
    dense.pretrain_epochs = 5;
    dense.rounds = 60;
    dense.acc_floor = 0.9;

    TrainWorkload tiny = dense;
    tiny.name = "fedtiny_d05_int8";
    tiny.fedtiny = true;
    tiny.density = 0.05;
    tiny.sparse = true;
    tiny.codec = "int8";
    // 10 of the 58 timed rounds prune, so p90 falls inside the pruning rounds.
    tiny.r_stop = 20;

    TrainWorkload fleet;
    fleet.name = "fleet_async_trimmed";
    fleet.image_size = 8;
    fleet.train_size = 400;  // the public split only; clients generate their data
    fleet.public_size = 400;
    fleet.on_demand = 4;
    fleet.test_size = 400;
    fleet.pretrain_epochs = 10;
    fleet.clients = 100000;
    fleet.per_round = 24;
    fleet.rounds = 60;
    fleet.sim.device_flops_per_s = 1e9;
    fleet.sim.bandwidth_bps = 1e6;
    fleet.sim.latency_s = 0.05;
    fleet.sim.het_spread = 4.0;
    fleet.sim.straggler_fraction = 0.1;
    fleet.sim.straggler_slowdown = 10.0;
    fleet.sim.dropout = 0.05;
    fleet.sim.async_rounds = true;
    fleet.sim.async_aggregate_m = 22;
    fleet.policy = fl::Aggregation::kTrimmedMean;
    // Tiny stale updates pull accuracy below the pretrained start: 0.25-0.87
    // after 60 rounds over 50 seeds. 0.15 is three standard errors above
    // chance (0.1) on 400 test images.
    fleet.acc_floor = 0.15;
    return std::vector<TrainWorkload>{dense, tiny, fleet};
  }();
  return all;
}

const TrainWorkload& find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown training workload: " + name);
}

/// ClientDataSource decorator timing every minibatch gather (traced
/// episodes). Gathers run on several client lanes at once, so the time is
/// summed over lanes.
class TimedSource final : public data::ClientDataSource {
 public:
  explicit TimedSource(std::shared_ptr<const data::ClientDataSource> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] int num_clients() const override { return inner_->num_clients(); }
  [[nodiscard]] int64_t size(int client) const override { return inner_->size(client); }
  [[nodiscard]] data::Batch gather(int client, std::span<const int64_t> local_ids) const override {
    const auto t0 = Clock::now();
    auto batch = inner_->gather(client, local_ids);
    ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count(),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    return batch;
  }
  [[nodiscard]] int64_t ns() const { return ns_.load(std::memory_order_relaxed); }
  [[nodiscard]] int64_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<const data::ClientDataSource> inner_;
  mutable std::atomic<int64_t> ns_{0};
  mutable std::atomic<int64_t> calls_{0};
};

/// What the hooks record: one mark per round start, and the wall time of
/// every after_aggregate call (FedTiny's mask surgery).
struct Hooks {
  struct Mark {
    Clock::time_point t;
    int64_t gather_ns = 0;
    int64_t gather_calls = 0;
  };
  const TimedSource* timed = nullptr;
  std::vector<Mark> marks;
  std::vector<double> after_ms;
};

template <class Base>
class Hooked final : public Base {
 public:
  template <class... Args>
  explicit Hooked(Hooks& hooks, Args&&... args)
      : Base(std::forward<Args>(args)...), hooks_(hooks) {}

 protected:
  void before_round(int round) override {
    const TimedSource* timed = hooks_.timed;
    hooks_.marks.push_back({Clock::now(), timed ? timed->ns() : 0, timed ? timed->calls() : 0});
    Base::before_round(round);
  }
  void after_aggregate(int round) override {
    const auto t0 = Clock::now();
    Base::after_aggregate(round);
    hooks_.after_ms.push_back(ms_between(t0, Clock::now()));
  }

 private:
  Hooks& hooks_;
};

struct RoundSample {
  double round_ms = 0.0;
  double train_ms = 0.0;
  double agg_ms = 0.0;
  double up_bytes = 0.0;
  double down_bytes = 0.0;
  double samples = 0.0;
  double gather_ms = 0.0;
  double gather_calls = 0.0;
  double after_ms = 0.0;
  bool pruning = false;
};

struct Episode {
  double setup_s = 0.0;
  double bn_select_s = 0.0;
  std::vector<RoundSample> rounds;  // the timed rounds 1 .. R-2
  double final_acc = 0.0;
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0.0;  // of the process when the episode ended
  // Kept for the probes.
  fl::FLConfig config;
  std::vector<Tensor> state;
  prune::MaskSet mask;
  data::Batch batch;  // one local minibatch of client 0
};

core::PruningSchedule pruning_schedule(const TrainWorkload& w) {
  core::PruningSchedule schedule;
  schedule.delta_r = w.delta_r;
  schedule.r_stop = w.r_stop;
  return schedule;
}

nn::ModelConfig model_config(const TrainWorkload& w, uint64_t seed) {
  nn::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = w.image_size;
  mc.width_mult = w.width;
  mc.seed = seed;
  return mc;
}

fl::FLConfig fl_config(const TrainWorkload& w, uint64_t seed) {
  fl::FLConfig c;
  c.num_clients = w.clients;
  c.rounds = w.rounds;
  c.local_epochs = 1;
  c.batch_size = w.batch;
  c.lr = 0.06f;
  c.seed = seed;
  c.sparse_exchange = w.sparse;
  c.sparse_exec_max_density = w.sparse ? 0.3f : 0.0f;
  c.sparse_training = w.sparse;
  c.parallel_clients = 1 + Executor::instance().thread_budget();
  c.clients_per_round = w.per_round;
  c.sim = w.sim;
  c.codec = fl::codec::config_from_name(w.codec);
  c.aggregation.policy = w.policy;
  return c;
}

Episode run_episode(const TrainWorkload& w, uint64_t seed, bool traced) {
  Episode ep;
  const auto t0 = Clock::now();
  const auto spec = data::cifar10s_spec(w.image_size, w.train_size, w.test_size);
  auto data = data::make_synthetic(spec, seed);

  // Server-held public split and pretraining, as in harness::Experiment.
  Rng pub_rng(seed, /*stream=*/0x9b1c);
  auto pub = pub_rng.permutation(data.train.size());
  pub.resize(static_cast<size_t>(std::min(w.public_size, data.train.size())));
  const auto public_data = data.train.subset(pub);
  const auto mc = model_config(w, seed);
  auto model = nn::make_resnet18(mc);
  core::server_pretrain(*model, public_data, {w.pretrain_epochs, w.batch, 0.06f, 0.9f, 5e-4f, seed});

  ep.config = fl_config(w, seed);
  std::vector<std::vector<int64_t>> partitions;
  data::PartitionArena arena;
  std::shared_ptr<const data::ClientDataSource> client_data;
  if (w.on_demand > 0) {
    client_data = std::make_shared<data::SyntheticFleetSource>(spec, seed, w.clients, w.on_demand);
  } else {
    // The split harness::Experiment makes: Dirichlet(0.5) label skew with
    // unequal client sizes.
    Rng part_rng(seed, /*stream=*/0xd1d1);
    partitions = data::dirichlet_partition(data.train.labels, w.clients, 0.5, part_rng);
    arena = data::PartitionArena(partitions);
    client_data = std::make_shared<data::PartitionedSource>(data.train, arena);
  }
  std::shared_ptr<TimedSource> timed;
  if (traced && !w.fedtiny) timed = std::make_shared<TimedSource>(client_data);

  Hooks hooks;
  hooks.timed = timed.get();
  std::unique_ptr<fl::FederatedTrainer> trainer;
  if (w.fedtiny) {
    core::FedTinyConfig ft;
    ft.selection.pool.pool_size = w.pool;
    ft.selection.pool.target_density = w.density;
    ft.selection.batch_size = w.batch;
    ft.selection.seed = seed;
    ft.schedule = pruning_schedule(w);
    auto t = std::make_unique<Hooked<core::FedTinyTrainer>>(hooks, *model, data.train, data.test,
                                                            partitions, ep.config, ft);
    const auto tb = Clock::now();
    t->initialize();
    ep.bn_select_s = seconds_since(tb);
    trainer = std::move(t);
  } else {
    std::shared_ptr<const data::ClientDataSource> source = client_data;
    if (timed) source = timed;
    auto t = std::make_unique<Hooked<fl::FederatedTrainer>>(hooks, *model, source, data.test,
                                                            ep.config);
    t->set_dense_storage(true);
    trainer = std::move(t);
  }
  trainer->set_model_factory(nn::resnet18_factory(mc));
  ep.final_acc = trainer->run();

  const auto& history = trainer->history();
  if (hooks.marks.size() != static_cast<size_t>(w.rounds) || history.size() != hooks.marks.size()) {
    throw std::logic_error("round hooks and history disagree");
  }
  ep.setup_s = std::chrono::duration<double>(hooks.marks[1].t - t0).count();
  const auto sizes = [&] {
    std::vector<int64_t> s(static_cast<size_t>(w.clients));
    for (int k = 0; k < w.clients; ++k) s[static_cast<size_t>(k)] = client_data->size(k);
    return s;
  }();
  for (int r = 0; r < w.rounds; ++r) {
    const auto& st = history[static_cast<size_t>(r)];
    ep.attempted += static_cast<uint64_t>(st.aggregated + st.rejected_uplinks + st.nonfinite_dropped);
    ep.failed += static_cast<uint64_t>(st.rejected_uplinks + st.nonfinite_dropped);
    if (r == 0 || r == w.rounds - 1) continue;
    const auto& a = hooks.marks[static_cast<size_t>(r)];
    const auto& b = hooks.marks[static_cast<size_t>(r) + 1];
    RoundSample s;
    s.round_ms = ms_between(a.t, b.t);
    s.train_ms = st.wall_train_s * 1e3;
    s.agg_ms = st.wall_agg_s * 1e3;
    s.up_bytes = st.comm_up_bytes;
    s.down_bytes = st.comm_down_bytes;
    // Samples trained this round: every client that trained runs one local
    // epoch over its data. Sync rounds under the ideal model train the whole
    // planned cohort; the on-demand fleet's clients all hold on_demand.
    if (w.on_demand > 0) {
      s.samples = static_cast<double>(st.participants - st.unavailable - st.dropouts -
                                      st.stragglers) *
                  static_cast<double>(w.on_demand);
    } else {
      s.samples = fl::plan_round(ep.config, sizes, r).total_samples;
    }
    s.gather_ms = static_cast<double>(b.gather_ns - a.gather_ns) * 1e-6;
    s.gather_calls = static_cast<double>(b.gather_calls - a.gather_calls);
    s.after_ms = hooks.after_ms[static_cast<size_t>(r)];
    s.pruning = w.fedtiny && pruning_schedule(w).is_pruning_round(r);
    ep.rounds.push_back(s);
  }
  ep.state = trainer->global_state();
  ep.mask = trainer->mask();
  ep.digest = digest(ep.state, &ep.mask);
  std::vector<int64_t> head(static_cast<size_t>(std::min(w.batch, client_data->size(0))));
  for (size_t i = 0; i < head.size(); ++i) head[i] = static_cast<int64_t>(i);
  ep.batch = client_data->gather(0, head);
  ep.peak_rss_mb = static_cast<double>(metrics::peak_rss_bytes()) / (1024.0 * 1024.0);
  return ep;
}

template <typename Get>
std::vector<double> collect(const std::vector<Episode>& eps, Get&& get) {
  std::vector<double> out;
  for (const auto& ep : eps) {
    for (const auto& r : ep.rounds) out.push_back(get(r));
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void report_end_to_end(const std::vector<Episode>& eps, Report& report) {
  std::vector<double> setup;
  for (const auto& ep : eps) setup.push_back(ep.setup_s);
  const auto round_ms = collect(eps, [](const RoundSample& r) { return r.round_ms; });
  const auto samples = collect(eps, [](const RoundSample& r) { return r.samples; });
  double total_ms = 0.0;
  double total_samples = 0.0;
  for (size_t i = 0; i < round_ms.size(); ++i) {
    total_ms += round_ms[i];
    total_samples += samples[i];
  }
  report.metric("setup_s", median(setup));
  report.metric("p50_ms", quantile(round_ms, 0.5));
  report.metric("tail_ms", quantile(round_ms, 0.9));
  report.metric("throughput_per_s", total_samples / (total_ms * 1e-3));
  // One training job's peak: the later episodes repeat it only to gather
  // samples, and how many fit in a run depends on the host's speed.
  report.metric("peak_rss_mb", eps.front().peak_rss_mb);
}

void report_per_layer(const TrainWorkload& w, const std::vector<Episode>& untraced,
                      const std::vector<Episode>& traced, Report& report) {
  auto med = [&](auto get) { return median(collect(traced, get)); };
  report.metric("fl.train_ms", med([](const RoundSample& r) { return r.train_ms; }));
  report.metric("fl.agg_ms", med([](const RoundSample& r) { return r.agg_ms; }));
  report.metric("fl.rest_ms",
                med([](const RoundSample& r) { return r.round_ms - r.train_ms - r.agg_ms; }));
  report.metric("fl.up_bytes", mean(collect(traced, [](const RoundSample& r) { return r.up_bytes; })));
  report.metric("fl.down_bytes",
                mean(collect(traced, [](const RoundSample& r) { return r.down_bytes; })));
  if (w.fedtiny) {
    std::vector<double> bn;
    std::vector<double> prune_ms;
    for (const auto& ep : traced) {
      bn.push_back(ep.bn_select_s);
      for (const auto& r : ep.rounds) {
        if (r.pruning) prune_ms.push_back(r.after_ms);
      }
    }
    report.metric("core.bn_select_s", median(bn));
    report.metric("core.prune_ms", median(prune_ms));
  } else {
    // FedTinyTrainer builds its own data source, so only the plain trainer
    // runs behind the gather decorator.
    report.metric("data.gather_ms", med([](const RoundSample& r) { return r.gather_ms; }));
    report.metric("data.gather_calls", med([](const RoundSample& r) { return r.gather_calls; }));
  }
  const double untraced_p50 = median(collect(untraced, [](const RoundSample& r) { return r.round_ms; }));
  const double traced_p50 = med([](const RoundSample& r) { return r.round_ms; });
  report.metric("trace.overhead", traced_p50 / untraced_p50 - 1.0);
}

/// Layer probes on the final state of a traced episode, in the workload's
/// install mode.
void report_probes(const TrainWorkload& w, uint64_t seed, Episode& ep, Report& report) {
  auto model = nn::make_resnet18(model_config(w, seed));
  model->set_state(ep.state);
  const float max_density = ep.config.sparse_exec_max_density;
  if (w.sparse) prune::install_sparse_execution(*model, ep.mask, max_density, /*train=*/true);
  probe_layers(*model, ep.batch.x, ep.batch.y, w.sparse ? &ep.mask : nullptr,
               /*backward=*/true, report);
  // One masked SGD step on the probe's gradients gives a real local delta
  // for the uplink-side probes.
  nn::SGD sgd({ep.config.lr, ep.config.momentum, ep.config.weight_decay});
  sgd.step_masked(model->params(), ep.mask.for_params(*model));
  if (w.sparse) {
    report.metric("prune.refresh_ms", time_ms(20, [&] { prune::refresh_sparse_values(*model); }));
    prune::clear_sparse_execution(*model);
  }
  const auto uplink = model->state();
  const auto& prunable = model->prunable_indices();
  if (ep.config.codec.enabled()) {
    probe_codec(ep.state, uplink, ep.mask, prunable, ep.config.codec, seed, report);
  }
  const int folds = w.sim.async_rounds ? w.sim.async_aggregate_m : w.per_round;
  probe_accumulator(ep.state, uplink, ep.mask, prunable, ep.config.aggregation, w.sparse, folds,
                    report);
}

}  // namespace

bool is_training_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return true;
  }
  return false;
}

void run_training(const Options& opt, Report& report) {
  const auto& w = find_workload(opt.workload);
  // Untraced runs spend the whole budget on untraced episodes. Traced runs
  // alternate untraced and traced episodes, so drift over the run hits both
  // sides of trace.overhead alike. No episode starts unless it is expected to
  // end within the budget (the first always runs).
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  const auto t0 = Clock::now();
  do {
    untraced.push_back(run_episode(w, opt.seed, false));
    if (opt.trace) traced.push_back(run_episode(w, opt.seed, true));
  } while (seconds_since(t0) * static_cast<double>(untraced.size() + 1) /
               static_cast<double>(untraced.size()) <=
           opt.seconds);

  const uint64_t want = untraced.front().digest;
  for (const auto* eps : {&untraced, &traced}) {
    for (const auto& ep : *eps) {
      report.check("digest", ep.digest == want,
                   "final state differs between episodes of one seed");
      report.check("final_acc", ep.final_acc >= w.acc_floor,
                   "final accuracy " + std::to_string(ep.final_acc) + " below floor " +
                       std::to_string(w.acc_floor));
      report.count(ep.attempted, ep.failed);
    }
  }
  std::fprintf(stderr, "%s: %zu episodes, final_acc %.4f, digest %016llx\n", w.name.c_str(),
               untraced.size() + traced.size(), untraced.front().final_acc,
               static_cast<unsigned long long>(want));
  if (!opt.trace) {
    report_end_to_end(untraced, report);
    return;
  }
  report_per_layer(w, untraced, traced, report);
  report_probes(w, opt.seed, traced.back(), report);
}

}  // namespace e2e
