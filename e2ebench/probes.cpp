// Layer probes of bench_e2e: standalone timings of single layers and
// kernels at the shapes a workload actually ran, through public APIs only.
// FLOP and byte counts are computed from shapes, not measured.
#include <map>

#include "e2e.h"
#include "fl/codec.h"
#include "fl/payload.h"
#include "fl/sharded_accumulator.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/sparse.h"

namespace e2e {

namespace {

using namespace fedtiny;

constexpr int kLayerReps = 10;
constexpr int kKernelReps = 20;

Tensor random_tensor(std::vector<int64_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& v : t.flat()) v = rng.normal();
  return t;
}

struct FwdBwd {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
};

/// Median forward and backward time of `layer` on input `x`; backward gets
/// an all-ones upstream gradient. Eval-only when !backward.
FwdBwd time_layer(nn::Layer& layer, const Tensor& x, bool backward) {
  std::vector<double> fwd;
  std::vector<double> bwd;
  const nn::Mode mode = backward ? nn::Mode::kTrain : nn::Mode::kEval;
  for (int i = 0; i <= kLayerReps; ++i) {
    const auto t0 = Clock::now();
    Tensor y = layer.forward(x, mode);
    const auto t1 = Clock::now();
    if (i > 0) fwd.push_back(ms_between(t0, t1));
    if (!backward) continue;
    const Tensor g(y.shape(), 1.0f);
    const auto t2 = Clock::now();
    (void)layer.backward(g);
    if (i > 0) bwd.push_back(ms_between(t2, Clock::now()));
  }
  return {median(fwd), median(bwd)};
}

/// The kept-coordinate mask of a prunable weight, when the model runs it
/// on CSR; null for dense layers.
const std::vector<uint8_t>* csr_mask(const nn::Model& model, const prune::MaskSet* mask,
                                     const nn::Param& weight) {
  if (mask == nullptr) return nullptr;
  const auto& prunable = model.prunable_indices();
  for (size_t l = 0; l < prunable.size(); ++l) {
    if (model.params()[static_cast<size_t>(prunable[l])] == &weight) return &mask->layer(l);
  }
  return nullptr;
}

/// Input height (or width) a conv saw, recovered from its recorded output.
int64_t conv_input_size(const nn::Conv2d& conv, int64_t out) {
  const int64_t same = out * conv.stride();
  if (ops::conv_out_size(same, conv.kernel(), conv.stride(), conv.pad()) == out) return same;
  return (out - 1) * conv.stride() + conv.kernel() - 2 * conv.pad();
}

struct ConvShape {
  nn::Conv2d* conv = nullptr;
  int64_t batch = 0, in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  const std::vector<uint8_t>* mask = nullptr;
  [[nodiscard]] int64_t fan_in() const { return conv->in_channels() * conv->kernel() * conv->kernel(); }
  [[nodiscard]] int64_t cols() const { return batch * out_h * out_w; }
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(conv->out_channels()) * static_cast<double>(fan_in()) *
           static_cast<double>(cols());
  }
};

/// tensor.*: the kernels under the costliest conv, one call per timing.
void probe_kernels(const ConvShape& s, Report& report) {
  Rng rng(0x7e45);
  auto& c = *s.conv;
  const int64_t in_c = c.in_channels();
  const int64_t k = c.kernel();
  const Tensor input = random_tensor({s.batch, in_c, s.in_h, s.in_w}, rng);
  Tensor cols({s.fan_in(), s.cols()});
  Tensor out({c.out_channels(), s.cols()});
  const double image_bytes = 4.0 * static_cast<double>(input.numel());
  const double cols_bytes = 4.0 * static_cast<double>(cols.numel());

  const double im2col_ms = time_ms(kKernelReps, [&] {
    ops::im2col_batched(input.data(), s.batch, in_c, s.in_h, s.in_w, k, k, c.stride(), c.pad(),
                        cols.data());
  });
  report.metric("tensor.im2col.gbps", (image_bytes + cols_bytes) / (im2col_ms * 1e6));

  Tensor image({s.batch, in_c, s.in_h, s.in_w});
  const double col2im_ms = time_ms(kKernelReps, [&] {
    ops::col2im_batched(cols.data(), s.batch, in_c, s.in_h, s.in_w, k, k, c.stride(), c.pad(),
                        image.data());
  });
  // col2im reads the columns and read-modify-writes the image.
  report.metric("tensor.col2im.gbps", (cols_bytes + 2.0 * image_bytes) / (col2im_ms * 1e6));

  const float* w = c.weight().value.data();
  const double gemm_ms = time_ms(kKernelReps, [&] {
    ops::gemm(false, false, c.out_channels(), s.cols(), s.fan_in(), 1.0f, w, cols.data(), 0.0f,
              out.data());
  });
  report.metric("tensor.gemm.gflops", s.flops() / (gemm_ms * 1e6));

  if (s.mask != nullptr) {
    const auto csr = sparse::csr_from_mask(w, c.out_channels(), s.fan_in(), *s.mask);
    const double spmm_ms =
        time_ms(kKernelReps, [&] { sparse::spmm(csr, cols.data(), s.cols(), out.data()); });
    report.metric("tensor.spmm.gflops", 2.0 * static_cast<double>(csr.nnz()) *
                                            static_cast<double>(s.cols()) / (spmm_ms * 1e6));
  }
}

}  // namespace

void probe_layers(nn::Model& model, const Tensor& x, std::span<const int> y,
                  const prune::MaskSet* mask, bool backward, Report& report) {
  // Whole model: forward, loss, backward on the minibatch.
  std::vector<double> fwd;
  std::vector<double> bwd;
  for (int i = 0; i <= kLayerReps; ++i) {
    model.zero_grad();
    const auto t0 = Clock::now();
    Tensor logits = model.forward(x, backward ? nn::Mode::kTrain : nn::Mode::kEval);
    const auto t1 = Clock::now();
    if (i > 0) fwd.push_back(ms_between(t0, t1));
    if (!backward) continue;
    const auto loss = nn::softmax_cross_entropy(logits, y);
    const auto t2 = Clock::now();
    (void)model.backward(loss.grad_logits);
    if (i > 0) bwd.push_back(ms_between(t2, Clock::now()));
  }
  const double model_fwd = median(fwd);
  const double model_bwd = median(bwd);

  // Standalone copies of every conv / BN / linear leaf at the shape the
  // model forward above fed it (BN sees the preceding conv's output).
  Rng rng(0x1a7e);
  const int64_t batch = x.dim(0);
  std::map<std::string, FwdBwd> kinds;
  ConvShape costliest;
  int64_t prev_h = 0;
  int64_t prev_w = 0;
  for (nn::Layer* leaf : model.leaves()) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(leaf)) {
      ConvShape s{conv, batch, 0, 0, conv->last_out_h(), conv->last_out_w(), nullptr};
      s.in_h = conv_input_size(*conv, s.out_h);
      s.in_w = conv_input_size(*conv, s.out_w);
      nn::Conv2d copy(conv->in_channels(), conv->out_channels(), conv->kernel(), conv->stride(),
                      conv->pad(), conv->bias() != nullptr, rng);
      copy.weight().value = conv->weight().value;
      if (conv->bias() != nullptr) copy.bias()->value = conv->bias()->value;
      copy.set_fused_relu(conv->fused_relu());
      if (conv->sparse_active()) {
        s.mask = csr_mask(model, mask, conv->weight());
        if (s.mask != nullptr) copy.install_sparse(*s.mask, 1.0f, conv->sparse_training());
      }
      const auto t = time_layer(copy, random_tensor({batch, conv->in_channels(), s.in_h, s.in_w}, rng),
                                backward);
      kinds["conv"].fwd_ms += t.fwd_ms;
      kinds["conv"].bwd_ms += t.bwd_ms;
      if (costliest.conv == nullptr || s.flops() > costliest.flops()) costliest = s;
      prev_h = s.out_h;
      prev_w = s.out_w;
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(leaf)) {
      nn::BatchNorm2d copy(bn->channels());
      copy.gamma().value = bn->gamma().value;
      copy.beta().value = bn->beta().value;
      copy.running_mean() = bn->running_mean();
      copy.running_var() = bn->running_var();
      const auto t = time_layer(copy, random_tensor({batch, bn->channels(), prev_h, prev_w}, rng),
                                backward);
      kinds["bn"].fwd_ms += t.fwd_ms;
      kinds["bn"].bwd_ms += t.bwd_ms;
    } else if (auto* lin = dynamic_cast<nn::Linear*>(leaf)) {
      nn::Linear copy(lin->in_features(), lin->out_features(), lin->bias() != nullptr, rng);
      copy.weight().value = lin->weight().value;
      if (lin->bias() != nullptr) copy.bias()->value = lin->bias()->value;
      if (lin->sparse_active()) {
        const auto* m = csr_mask(model, mask, lin->weight());
        if (m != nullptr) copy.install_sparse(*m, 1.0f, lin->sparse_training());
      }
      const auto t = time_layer(copy, random_tensor({batch, lin->in_features()}, rng), backward);
      kinds["linear"].fwd_ms += t.fwd_ms;
      kinds["linear"].bwd_ms += t.bwd_ms;
    }
  }

  report.metric("nn.model.fwd_ms", model_fwd);
  if (backward) report.metric("nn.model.bwd_ms", model_bwd);
  double kinds_ms = 0.0;
  for (const auto& [kind, t] : kinds) {
    report.metric("nn." + kind + ".fwd_ms", t.fwd_ms);
    if (backward) report.metric("nn." + kind + ".bwd_ms", t.bwd_ms);
    kinds_ms += t.fwd_ms + t.bwd_ms;
  }
  // Self time: what the model spends outside its conv/BN/linear leaves
  // (activations, pooling, residual adds, loss-free glue).
  report.metric("nn.other_ms", model_fwd + model_bwd - kinds_ms);
  if (costliest.conv != nullptr) probe_kernels(costliest, report);
}

void probe_codec(const std::vector<Tensor>& broadcast, const std::vector<Tensor>& uplink,
                 const prune::MaskSet& mask, const std::vector<int>& prunable,
                 const fl::CodecConfig& codec, uint64_t seed, Report& report) {
  const auto state = fl::build_sparse_state(broadcast, mask, prunable);
  std::vector<uint8_t> wire;
  report.metric("codec.enc_state_ms", time_ms(kKernelReps, [&] {
                  wire = fl::codec::encode_state(state, codec, seed, /*round=*/0);
                }));
  fl::SparseStatePayload rx;
  bool ok = true;
  report.metric("codec.dec_state_ms",
                time_ms(kKernelReps, [&] { ok = ok && fl::codec::decode_state(wire, rx); }));
  std::vector<Tensor> decoded;
  ok = ok && fl::reconstruct_state(rx, prunable, decoded);
  report.check("codec.state_roundtrip", ok, "state wire failed to decode");
  if (!ok) return;

  // The uplink codes its delta against the decoded broadcast at the
  // support, as the trainer's round reference does.
  auto ref_update = fl::build_sparse_update(decoded, mask, prunable);
  fl::codec::SupportValues reference;
  for (auto& layer : ref_update.sparse_layers) reference.push_back(std::move(layer.values));
  for (const auto& t : ref_update.dense_tensors) {
    reference.emplace_back(t.flat().begin(), t.flat().end());
  }
  auto update = fl::build_sparse_update(uplink, mask, prunable);
  update.num_samples = 1;
  std::vector<uint8_t> up_wire;
  report.metric("codec.enc_update_ms", time_ms(kKernelReps, [&] {
                  up_wire = fl::codec::encode_update(update, codec, seed, 0, 0, &reference, nullptr);
                }));
  fl::SparseUpdatePayload up_rx;
  report.metric("codec.dec_update_ms", time_ms(kKernelReps, [&] {
                  ok = ok && fl::codec::decode_update(up_wire, up_rx, &reference);
                }));
  report.check("codec.update_roundtrip", ok, "update wire failed to decode");
}

void probe_accumulator(const std::vector<Tensor>& broadcast, const std::vector<Tensor>& uplink,
                       const prune::MaskSet& mask, const std::vector<int>& prunable,
                       const fl::AggregationConfig& policy, bool sparse, int folds,
                       Report& report) {
  // `folds` distinct uplinks: the broadcast plus the real local delta scaled
  // by a per-coordinate random factor, so order statistics see unsorted
  // columns as they do in a round.
  Rng rng(0xacc);
  std::vector<std::vector<Tensor>> states(static_cast<size_t>(folds), broadcast);
  for (auto& s : states) {
    for (size_t t = 0; t < s.size(); ++t) {
      auto dst = s[t].flat();
      const auto base = broadcast[t].flat();
      const auto up = uplink[t].flat();
      for (size_t j = 0; j < dst.size(); ++j) {
        dst[j] = base[j] + (up[j] - base[j]) * (0.5f + static_cast<float>(rng.uniform()));
      }
    }
  }
  std::vector<fl::SparseUpdatePayload> updates;
  if (sparse) {
    for (const auto& s : states) updates.push_back(fl::build_sparse_update(s, mask, prunable));
  }
  fl::ShardedAccumulator acc;
  std::vector<Tensor> out = broadcast;
  const double weight = 1.0 / static_cast<double>(folds);
  std::vector<double> fold_ms;
  std::vector<double> finalize_ms;
  for (int rep = 0; rep <= kLayerReps; ++rep) {
    acc.begin_round();
    acc.set_policy(policy);
    const auto t0 = Clock::now();
    for (int i = 0; i < folds; ++i) {
      if (sparse) {
        acc.fold_sparse(updates[static_cast<size_t>(i)], weight);
      } else {
        acc.fold(states[static_cast<size_t>(i)], weight);
      }
    }
    const auto t1 = Clock::now();
    const bool ok = sparse ? acc.average_sparse_into(out, mask, prunable) : acc.average_into(out);
    const auto t2 = Clock::now();
    report.check("acc.finalize", ok, "accumulator finalize failed");
    if (rep == 0) continue;
    fold_ms.push_back(ms_between(t0, t1) / static_cast<double>(folds));
    finalize_ms.push_back(ms_between(t1, t2));
  }
  report.metric("acc.fold_ms", median(fold_ms));
  report.metric("acc.finalize_ms", median(finalize_ms));
}

}  // namespace e2e
