// End-to-end tests of the FedTiny trainer (Alg. 1 + Alg. 2 composed).
#include "core/fedtiny.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/pretrain.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/codec.h"
#include "nn/models.h"

namespace fedtiny::core {
namespace {

struct Fixture {
  data::TrainTest data;
  std::vector<std::vector<int64_t>> partitions;
  nn::ModelConfig mc;
  std::unique_ptr<nn::Model> model;
  fl::FLConfig fl_config;
  FedTinyConfig ft_config;

  explicit Fixture(double density = 0.05) {
    auto spec = data::cifar10s_spec(8, 200, 60);
    data = data::make_synthetic(spec, 5);
    Rng rng(6);
    partitions = data::dirichlet_partition(data.train.labels, 4, 0.5, rng);
    mc.num_classes = spec.num_classes;
    mc.image_size = 8;
    mc.width_mult = 0.0625f;
    model = nn::make_resnet18(mc);
    server_pretrain(*model, data.train, {2, 16, 0.05f, 0.9f, 5e-4f, 1});

    fl_config.num_clients = 4;
    fl_config.rounds = 5;
    fl_config.local_epochs = 1;
    fl_config.batch_size = 16;
    ft_config.selection.pool.pool_size = 5;
    ft_config.selection.pool.target_density = density;
    ft_config.selection.batch_size = 16;
    ft_config.schedule.delta_r = 1;
    ft_config.schedule.r_stop = 3;
  }
};

TEST(FedTiny, DensityPreservedThroughProgressivePruning) {
  Fixture f(0.05);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  const double density_before = trainer.mask().density();
  trainer.run();
  // Grow-and-prune keeps the kept-weight budget (Eq. 1) within rounding.
  EXPECT_NEAR(trainer.mask().density(), density_before, 0.005);
  EXPECT_LE(trainer.mask().density(), 0.05 * 1.15);
}

TEST(FedTiny, MaskActuallyChangesDuringRun) {
  Fixture f(0.05);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  const auto mask_before = trainer.mask();
  trainer.run();
  EXPECT_FALSE(trainer.mask() == mask_before);  // progressive pruning acted
}

TEST(FedTiny, ProgressiveOffKeepsMaskFixed) {
  Fixture f(0.05);
  f.ft_config.progressive_pruning = false;
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  const auto mask_before = trainer.mask();
  trainer.run();
  EXPECT_TRUE(trainer.mask() == mask_before);
}

TEST(FedTiny, TopKCapacityBounded) {
  Fixture f(0.05);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  trainer.run();
  EXPECT_GT(trainer.max_topk_capacity(), 0);
  // The buffer holds at most 2*alpha of the kept weights (cosine peak).
  const auto kept = static_cast<int64_t>(0.05 * static_cast<double>(f.model->num_prunable()));
  EXPECT_LE(trainer.max_topk_capacity(),
            static_cast<int64_t>(2.0 * f.ft_config.schedule.alpha * static_cast<double>(kept)) +
                static_cast<int64_t>(trainer.mask().num_layers()));
}

TEST(FedTiny, SelectionReportPropagated) {
  Fixture f(0.05);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  const auto& report = trainer.initialize();
  EXPECT_EQ(report.candidate_losses.size(), 5u);
  EXPECT_GE(trainer.selection_report().selected_candidate, 0);
}

TEST(FedTiny, LayerGranularityUsesOneLayerBlocks) {
  Fixture f(0.05);
  f.ft_config.schedule.granularity = Granularity::kLayer;
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  trainer.run();
  EXPECT_NEAR(trainer.mask().density(), 0.05, 0.01);
}

TEST(FedTiny, EntireGranularityRuns) {
  Fixture f(0.05);
  f.ft_config.schedule.granularity = Granularity::kEntire;
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  trainer.run();
  EXPECT_NEAR(trainer.mask().density(), 0.05, 0.01);
}

TEST(FedTiny, PrunedCoordinatesStayZeroInGlobalState) {
  Fixture f(0.03);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  trainer.run();
  f.model->set_state(trainer.global_state());
  const auto& mask = trainer.mask();
  for (size_t l = 0; l < mask.num_layers(); ++l) {
    const int idx = f.model->prunable_indices()[l];
    const auto w = f.model->params()[static_cast<size_t>(idx)]->value.flat();
    for (size_t j = 0; j < w.size(); ++j) {
      if (mask.layer(l)[j] == 0) ASSERT_EQ(w[j], 0.0f);
    }
  }
}

TEST(FedTiny, PruningRoundsCostMoreFlops) {
  Fixture f(0.05);
  FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                         f.ft_config);
  trainer.initialize();
  trainer.run();
  const auto& history = trainer.history();
  ASSERT_GE(history.size(), 5u);
  // Rounds 0..3 prune (delta_r=1, r_stop=3); round 4 is pure fine-tuning.
  EXPECT_GT(history[1].device_flops, history[4].device_flops);
}

// Exposes the extra-cost hook so the probe's charge is directly testable.
class FedTinyCostProbe : public FedTinyTrainer {
 public:
  using FedTinyTrainer::FedTinyTrainer;
  double flops_for(int round, const fl::RoundPlan& plan) { return extra_device_flops(round, plan); }
};

TEST(FedTiny, ProbeChargeFollowsTheScheduledBlock) {
  Fixture f(0.05);
  f.ft_config.schedule.r_stop = 8;  // the quota anneals to 0 at r_stop itself
  FedTinyCostProbe trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                           f.ft_config);
  trainer.initialize();
  fl::RoundPlan plan;
  plan.participants = 4;
  plan.effective_participants = 4;
  plan.total_samples = 4.0 * 50.0;
  // Backward order: round 0 schedules block 4 (output side, stage 4), round 4
  // block 0 (stage 1). Block 4's backward stops far closer to the output.
  const double block4 = trainer.flops_for(0, plan);
  const double block0 = trainer.flops_for(4, plan);
  EXPECT_GT(block4, 0.0);
  EXPECT_LT(block4, block0);
  // Both charge the same dense forward on min(2 * batch_size, mean size)
  // samples: 32 here, and the whole mean client when it holds fewer.
  const double fwd = static_cast<double>(metrics::analyze_model(*f.model).dense_forward_flops());
  EXPECT_GT(block4, 32.0 * fwd);
  fl::RoundPlan small = plan;
  small.total_samples = 4.0 * 10.0;
  EXPECT_DOUBLE_EQ(trainer.flops_for(0, small), block4 * 10.0 / 32.0);
  // Fine-tuning rounds run no probe.
  EXPECT_EQ(trainer.flops_for(9, plan), 0.0);
}

bool same_bytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_shape(b[i]) ||
        std::memcmp(a[i].data(), b[i].data(), static_cast<size_t>(a[i].numel()) * sizeof(float)) !=
            0) {
      return false;
    }
  }
  return true;
}

TEST(FedTiny, Deterministic) {
  // The e2e workload's shape (fedtiny_d05_int8): CSR sparse training, sparse
  // int8 exchange, factory replicas at 3 parallel clients. Two runs in one
  // process must agree on every byte of the final state and the mask.
  struct Outcome {
    double acc;
    std::vector<Tensor> state;
    prune::MaskSet mask;
  };
  auto run_once = [] {
    Fixture f(0.05);
    f.fl_config.sparse_training = true;
    f.fl_config.sparse_exec_max_density = 0.3f;
    f.fl_config.sparse_exchange = true;
    f.fl_config.codec = fl::codec::config_from_name("int8");
    f.fl_config.parallel_clients = 3;
    FedTinyTrainer trainer(*f.model, f.data.train, f.data.test, f.partitions, f.fl_config,
                           f.ft_config);
    trainer.set_model_factory(nn::resnet18_factory(f.mc));
    trainer.initialize();
    const double acc = trainer.run();
    return Outcome{acc, trainer.global_state(), trainer.mask()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(std::memcmp(&a.acc, &b.acc, sizeof(double)), 0);
  EXPECT_TRUE(same_bytes(a.state, b.state));
  ASSERT_EQ(a.mask.num_layers(), b.mask.num_layers());
  for (size_t l = 0; l < a.mask.num_layers(); ++l) {
    ASSERT_EQ(a.mask.layer(l).size(), b.mask.layer(l).size());
    EXPECT_EQ(std::memcmp(a.mask.layer(l).data(), b.mask.layer(l).data(), a.mask.layer(l).size()),
              0)
        << "layer " << l;
  }
}

}  // namespace
}  // namespace fedtiny::core
