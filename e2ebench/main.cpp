// bench_e2e: one named end-to-end workload per process.
//
//   bench_e2e --workload NAME --seed S --seconds T [--trace]
//
// Workloads: fedavg_dense, fedtiny_d05_int8, fleet_async_trimmed (a
// federated round is the unit) and serve_tiers_swap (a served request is the
// unit). The seed generates every input. Without --trace the run reports the
// end-to-end metrics; with --trace it alternates untraced and traced passes
// and reports the per-layer metrics plus trace.overhead. Output is JSON
// lines (see Report in e2e.h); the exit code is 0 iff every output check
// passed. run.py builds and runs this binary.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "e2e.h"
#include "tensor/parallel.h"

namespace e2e {

namespace {

// Every metric bench_e2e can report, with its unit. The end-to-end block is
// what untraced runs print; the rest are per-layer metrics of traced runs.
const std::map<std::string, std::string>& end_to_end_units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},        {"p50_ms", "ms"},       {"tail_ms", "ms"},
      {"throughput_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return units;
}

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        {"fl.train_ms", "ms"},        {"fl.agg_ms", "ms"},
        {"fl.rest_ms", "ms"},         {"fl.up_bytes", "B"},
        {"fl.down_bytes", "B"},       {"core.bn_select_s", "s"},
        {"core.prune_ms", "ms"},      {"data.gather_ms", "ms"},
        {"data.gather_calls", "count"}, {"nn.model.fwd_ms", "ms"},
        {"nn.model.bwd_ms", "ms"},    {"nn.other_ms", "ms"},
        {"tensor.gemm.gflops", "GFLOP/s"}, {"tensor.spmm.gflops", "GFLOP/s"},
        {"tensor.im2col.gbps", "GB/s"}, {"tensor.col2im.gbps", "GB/s"},
        {"prune.refresh_ms", "ms"},   {"codec.enc_state_ms", "ms"},
        {"codec.dec_state_ms", "ms"}, {"codec.enc_update_ms", "ms"},
        {"codec.dec_update_ms", "ms"}, {"acc.fold_ms", "ms"},
        {"acc.finalize_ms", "ms"},    {"serve.queue_ms_p50", "ms"},
        {"serve.queue_ms_p99", "ms"}, {"serve.exec_ms_p50", "ms"},
        {"serve.exec_ms_p99", "ms"},  {"serve.batch_mean", "count"},
        {"serve.publish_ms", "ms"},   {"gen.late_p99_ms", "ms"},
        {"trace.overhead", "ratio"},
    };
    for (const char* kind : {"conv", "bn", "linear"}) {
      for (const char* dir : {"fwd", "bwd"}) {
        u[std::string("nn.") + kind + "." + dir + "_ms"] = "ms";
      }
    }
    for (const char* tier : {"dense", "d10", "d05"}) {
      for (const char* b : {"b1", "b8", "b32"}) {
        u[std::string("serve.fwd_ms.") + tier + "." + b] = "ms";
      }
    }
    return u;
  }();
  return units;
}

std::string hostname() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) != 0 || buf[0] == '\0') return "unknown";
  return buf;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

uint64_t digest(const std::vector<fedtiny::Tensor>& state, const fedtiny::prune::MaskSet* mask) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  };
  for (const auto& t : state) mix(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  if (mask != nullptr) {
    for (size_t l = 0; l < mask->num_layers(); ++l) mix(mask->layer(l).data(), mask->layer(l).size());
  }
  return h;
}

Report::Report(const Options& opt) : opt_(opt), host_(hostname()) {
  const char* sha = std::getenv("FEDTINY_GIT_SHA");
  sha_ = sha != nullptr && sha[0] != '\0' ? sha : "unknown";
}

void Report::metric(const std::string& name, double value) {
  const auto& table = opt_.trace ? per_layer_units() : end_to_end_units();
  if (table.find(name) == table.end()) {
    throw std::logic_error("metric " + name + " reported in the wrong mode");
  }
  if (!std::isfinite(value)) {
    check("finite:" + name, false, "non-finite value");
    value = 0.0;
  }
  seen_.insert(name);
  std::printf(
      "{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%.9g,\"unit\":\"%s\",\"seed\":%llu,"
      "\"threads\":%d,\"git_sha\":\"%s\",\"host\":\"%s\"}\n",
      opt_.workload.c_str(), name.c_str(), value, table.at(name).c_str(),
      static_cast<unsigned long long>(opt_.seed),
      1 + fedtiny::Executor::instance().thread_budget(), sha_.c_str(), host_.c_str());
  std::fflush(stdout);
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  if (ok) return;
  correct_ = false;
  std::printf("{\"check\":\"%s\",\"ok\":false,\"detail\":\"%s\"}\n", name.c_str(),
              detail.c_str());
  std::fflush(stdout);
}

void Report::count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::finish() {
  const auto& table = opt_.trace ? per_layer_units() : end_to_end_units();
  for (const auto& [name, unit] : table) {
    if (seen_.count(name) != 0) continue;
    if (opt_.trace) {
      metric(name, 0.0);
    } else {
      check("reported:" + name, false, "end-to-end metric missing");
    }
  }
  check("attempted", attempted_ > 0, "no operation attempted");
  check("failed", failed_ == 0, std::to_string(failed_) + " operations failed");
  std::printf("{\"summary\":{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu}}\n",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
  return correct_ ? 0 : 1;
}

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "usage: bench_e2e --workload NAME --seed S --seconds T [--trace]\n");
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  e2e::Report report(opt);
  try {
    if (e2e::is_training_workload(opt.workload)) {
      e2e::run_training(opt, report);
    } else if (opt.workload == "serve_tiers_swap") {
      e2e::run_serving(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& err) {
    report.check("exception", false, err.what());
  }
  return report.finish();
}
