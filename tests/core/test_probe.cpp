// The pruning-round gradient probe (FederatedTrainer::topk_pruned_grads)
// stops its backward at the top-level child holding the earliest requested
// layer. These tests pin that cut to the full-backward probe it replaced:
// same top-K lists and same model state, bit for bit, in both kernel modes.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/fedtiny.h"
#include "core/pretrain.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "prune/topk_buffer.h"
#include "tensor/kernels.h"

namespace fedtiny::core {
namespace {

using Lists = std::vector<std::vector<prune::ScoredIndex>>;

class ProbeTrainer : public FedTinyTrainer {
 public:
  using FedTinyTrainer::FedTinyTrainer;
  using FedTinyTrainer::pruned_grad_quota;
  using FedTinyTrainer::topk_pruned_grads;
};

class PlainProbeTrainer : public fl::FederatedTrainer {
 public:
  using fl::FederatedTrainer::FederatedTrainer;
  using fl::FederatedTrainer::topk_pruned_grads;
};

/// Identity layer that counts its backward calls.
class CountingIdentity final : public nn::Layer {
 public:
  explicit CountingIdentity(int* calls) : calls_(calls) {}
  Tensor forward(const Tensor& x, nn::Mode mode) override {
    (void)mode;
    return x;
  }
  Tensor backward(const Tensor& grad_output) override {
    ++*calls_;
    return grad_output;
  }
  [[nodiscard]] std::string kind() const override { return "CountingIdentity"; }

 private:
  int* calls_;
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool same_state(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same_bytes(a[i], b[i])) return false;
  }
  return true;
}

bool same_lists(const Lists& a, const Lists& b) {
  if (a.size() != b.size()) return false;
  for (size_t l = 0; l < a.size(); ++l) {
    if (a[l].size() != b[l].size()) return false;
    for (size_t j = 0; j < a[l].size(); ++j) {
      if (a[l][j].index != b[l][j].index) return false;
      if (std::memcmp(&a[l][j].value, &b[l][j].value, sizeof(float)) != 0) return false;
    }
  }
  return true;
}

/// The probe as it was before the backward cut: a full dense backward through
/// every layer, then a bounded top-K scan of each requested layer.
Lists full_backward_probe(nn::Model& model, const data::ClientDataSource& source, int client,
                          int64_t batch_size, const prune::MaskSet& mask,
                          const std::vector<int64_t>& quota) {
  const auto& prunable = model.prunable_indices();
  Lists out(prunable.size());
  const int64_t n = source.size(client);
  if (n == 0) return out;
  const auto take = std::min<int64_t>(2 * batch_size, n);
  std::vector<int64_t> head(static_cast<size_t>(take));
  std::iota(head.begin(), head.end(), int64_t{0});
  auto batch = source.gather(client, head);

  model.zero_grad();
  Tensor logits = model.forward(batch.x, nn::Mode::kTrain);
  auto loss = nn::softmax_cross_entropy(logits, batch.y);
  model.backward(loss.grad_logits);

  for (size_t l = 0; l < prunable.size(); ++l) {
    if (quota[l] <= 0) continue;
    const auto g = model.params()[static_cast<size_t>(prunable[l])]->grad.flat();
    const auto& m = mask.layer(l);
    prune::TopKBuffer buffer(quota[l]);
    for (size_t j = 0; j < g.size(); ++j) {
      if (m[j] == 0) buffer.push(static_cast<int64_t>(j), g[j]);
    }
    out[l] = buffer.sorted();
  }
  model.zero_grad();
  return out;
}

TEST(PruningProbe, BackwardUntilZeroEqualsBackward) {
  nn::ModelConfig mc;
  mc.image_size = 8;
  mc.width_mult = 0.0625f;
  auto a = nn::make_resnet18(mc);
  auto b = nn::make_resnet18(mc);
  Rng rng(3);
  Tensor x({4, 3, 8, 8});
  for (auto& v : x.flat()) v = rng.normal();
  const std::vector<int> y = {0, 1, 2, 3};

  auto* root_b = dynamic_cast<nn::Sequential*>(b->root());
  ASSERT_NE(root_b, nullptr);
  auto la = nn::softmax_cross_entropy(a->forward(x, nn::Mode::kTrain), y);
  auto lb = nn::softmax_cross_entropy(b->forward(x, nn::Mode::kTrain), y);
  ASSERT_TRUE(same_bytes(la.grad_logits, lb.grad_logits));
  const Tensor gx_a = a->backward(la.grad_logits);
  const Tensor gx_b = root_b->backward_until(lb.grad_logits, 0);
  EXPECT_TRUE(same_bytes(gx_a, gx_b));
  ASSERT_EQ(a->params().size(), b->params().size());
  for (size_t i = 0; i < a->params().size(); ++i) {
    EXPECT_TRUE(same_bytes(a->params()[i]->grad, b->params()[i]->grad)) << a->params()[i]->name;
  }
}

TEST(PruningProbe, BackwardStopsAtTheEarliestRequestedChild) {
  auto spec = data::cifar10s_spec(8, 40, 20);
  auto data = data::make_synthetic(spec, 4);
  Rng rng(5);
  int stem = 0, mid = 0, tail = 0;
  auto root = std::make_unique<nn::Sequential>();
  root->emplace<CountingIdentity>(&stem);           // 0
  root->emplace<nn::Conv2d>(3, 4, 3, 1, 1, false, rng);  // 1: input conv, never prunable
  root->emplace<nn::ReLU>();                         // 2
  root->emplace<CountingIdentity>(&mid);            // 3
  root->emplace<nn::Conv2d>(4, 4, 3, 1, 1, false, rng);  // 4: prunable layer 0
  root->emplace<nn::ReLU>();                         // 5
  root->emplace<CountingIdentity>(&tail);           // 6
  root->emplace<nn::Conv2d>(4, 4, 3, 1, 1, false, rng);  // 7: prunable layer 1
  root->emplace<nn::ReLU>();                         // 8
  root->emplace<nn::GlobalAvgPool>();                // 9
  root->emplace<nn::Linear>(4, spec.num_classes, true, rng);  // 10: output, never prunable
  nn::Model model("counting", std::move(root), spec.num_classes, {3, 8, 8});
  ASSERT_EQ(model.prunable_indices().size(), 2u);

  fl::FLConfig config;
  config.num_clients = 2;
  config.batch_size = 8;
  PlainProbeTrainer trainer(model, data.train, data.test, {{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9}},
                            config);
  const auto probe = [&](std::vector<int64_t> quota) {
    stem = mid = tail = 0;
    (void)trainer.topk_pruned_grads(model, 0, quota);
    return std::vector<int>{stem, mid, tail};
  };
  EXPECT_EQ(probe({5, 5}), (std::vector<int>{0, 0, 1}));  // stops at child 4
  EXPECT_EQ(probe({5, 0}), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(probe({0, 5}), (std::vector<int>{0, 0, 0}));  // stops at child 7
  EXPECT_EQ(probe({0, 0}), (std::vector<int>{0, 0, 0}));  // nothing is read
}

TEST(PruningProbe, ShortBackwardMatchesFullBackwardOracle) {
  auto spec = data::cifar10s_spec(8, 200, 40);
  auto data = data::make_synthetic(spec, 11);
  Rng part_rng(12);
  auto partitions = data::dirichlet_partition(data.train.labels, 4, 0.5, part_rng);
  const data::PartitionArena arena(partitions);
  const data::PartitionedSource source(data.train, arena);

  for (const auto mode : {kernels::Mode::kFast, kernels::Mode::kReference}) {
    kernels::ScopedMode scoped(mode);
    nn::ModelConfig mc;
    mc.num_classes = spec.num_classes;
    mc.image_size = 8;
    mc.width_mult = 0.0625f;
    auto model = nn::make_resnet18(mc);
    server_pretrain(*model, data.train, {1, 16, 0.05f, 0.9f, 5e-4f, 1});

    fl::FLConfig fl_config;
    fl_config.num_clients = 4;
    fl_config.rounds = 5;
    fl_config.batch_size = 16;
    FedTinyConfig ft;
    ft.selection.pool.pool_size = 2;
    ft.selection.pool.target_density = 0.05;
    ft.selection.batch_size = 16;
    ft.schedule.delta_r = 1;
    ft.schedule.r_stop = 8;  // the quota anneals to 0 at r_stop itself
    ProbeTrainer trainer(*model, data.train, data.test, partitions, fl_config, ft);
    trainer.initialize();
    // Every probe starts from the broadcast state (masked weights, BN stats).
    const auto start = trainer.global_state();

    // Rounds 0..4 schedule blocks 4, 3, 2, 1, 0 (backward order); the last
    // quota asks every prunable layer, as PruneFL's and FedDST's probes do.
    std::vector<std::vector<int64_t>> quotas;
    for (int r = 0; r < 5; ++r) quotas.push_back(trainer.pruned_grad_quota(r));
    quotas.emplace_back(model->prunable_indices().size(), 7);

    for (size_t q = 0; q < quotas.size(); ++q) {
      const auto& quota = quotas[q];
      ASSERT_GT(std::accumulate(quota.begin(), quota.end(), int64_t{0}), 0);
      for (int client = 0; client < 4; ++client) {
        model->set_state(start);
        const auto expect = full_backward_probe(*model, source, client, fl_config.batch_size,
                                                trainer.mask(), quota);
        const auto expect_state = model->state();
        model->set_state(start);
        const auto got = trainer.topk_pruned_grads(*model, client, quota);
        EXPECT_TRUE(same_lists(got, expect))
            << kernels::mode_name(mode) << " quota " << q << " client " << client;
        EXPECT_TRUE(same_state(model->state(), expect_state))
            << kernels::mode_name(mode) << " quota " << q << " client " << client;
        for (const auto* p : model->params()) {
          for (const float g : p->grad.flat()) ASSERT_EQ(g, 0.0f) << p->name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedtiny::core
