// Shared pieces of bench_e2e, the end-to-end benchmark program: run options,
// the metric-row writer and correctness ledger, statistics helpers, and the
// entry points of the workload and probe files.
//
// bench_e2e times the system only from outside: it calls public functions,
// overrides public trainer hooks, decorates the public ClientDataSource
// interface and reads InferResult fields. Nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fl/config.h"
#include "nn/model.h"
#include "prune/mask.h"
#include "tensor/tensor.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of an unsorted sample, the
/// numpy default; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// FNV-1a over the raw bytes of every tensor and, when given, every mask
/// byte: a bitwise digest of a trained model.
uint64_t digest(const std::vector<fedtiny::Tensor>& state,
                const fedtiny::prune::MaskSet* mask = nullptr);

/// Wall time of fn() in milliseconds: the median of `reps` calls after one
/// untimed warm-up call.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(ms));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measured time per run (untraced plus traced)
  bool trace = false;     // per-layer metrics instead of end-to-end ones
};

/// Metric rows and the correctness ledger. Every metric is one JSON line on
/// stdout:
///   {"workload":..,"metric":..,"value":..,"unit":..,"seed":..,"threads":..,
///    "git_sha":..,"host":..}
/// failed checks print {"check":..,"ok":false,"detail":..}, and finish()
/// closes the run with {"summary":{"correct":..,"attempted":..,"failed":..}}.
/// In trace mode finish() also emits 0 for every per-layer metric the
/// workload did not report: that layer is not on the workload's path.
class Report {
 public:
  explicit Report(const Options& opt);

  void metric(const std::string& name, double value);
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Operations attempted and failed (requests, or uplinks the server
  /// rejected or dropped as non-finite).
  void count(uint64_t attempted, uint64_t failed);
  /// Prints the summary line; returns the exit code (0 iff every check passed).
  int finish();

 private:
  Options opt_;
  std::string sha_;
  std::string host_;
  std::set<std::string> seen_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Workloads (train.cpp, serve.cpp) -------------------------------------

/// True when `name` is one of the training workloads.
bool is_training_workload(const std::string& name);
void run_training(const Options& opt, Report& report);
void run_serving(const Options& opt, Report& report);

// ---- Probes (probes.cpp) ----------------------------------------------------
// Standalone timings of single layers at the shapes a workload ran. Each
// reports its metrics straight into `report`.

/// nn.*: one minibatch forward (and backward when `backward`) of `model` in
/// its current install mode, then standalone copies of every conv, BN and
/// linear leaf at its recorded input shape. `mask` (may be null) gives the
/// prunable-layer masks the copies install when the original runs CSR.
/// tensor.*: GEMM, CSR spmm, im2col and col2im at the costliest conv shape.
void probe_layers(fedtiny::nn::Model& model, const fedtiny::Tensor& x, std::span<const int> y,
                  const fedtiny::prune::MaskSet* mask, bool backward, Report& report);

/// codec.*: encode/decode of the broadcast state payload and of the uplink
/// update payload (`uplink` is `broadcast` after local training), both at
/// `mask`, with the workload's codec.
void probe_codec(const std::vector<fedtiny::Tensor>& broadcast,
                 const std::vector<fedtiny::Tensor>& uplink, const fedtiny::prune::MaskSet& mask,
                 const std::vector<int>& prunable, const fedtiny::fl::CodecConfig& codec,
                 uint64_t seed, Report& report);

/// acc.*: `folds` folds of the workload's uplink kind (sparse payloads when
/// `sparse`, dense states otherwise) under `policy`, then the finalize.
void probe_accumulator(const std::vector<fedtiny::Tensor>& broadcast,
                       const std::vector<fedtiny::Tensor>& uplink,
                       const fedtiny::prune::MaskSet& mask, const std::vector<int>& prunable,
                       const fedtiny::fl::AggregationConfig& policy, bool sparse, int folds,
                       Report& report);

}  // namespace e2e
