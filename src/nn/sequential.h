// Composite layers: Sequential chain and the ResNet basic residual block.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"

namespace fedtiny::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Append a layer; returns a raw observer pointer for convenience.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }
  void push(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Backward through layers size()-1 down to `first` only; returns the
  /// gradient w.r.t. layer `first`'s input. Layers before `first` keep their
  /// gradients untouched, so a caller that reads no gradient below `first`
  /// (the pruning-round top-K probe) skips their cost. backward() is
  /// backward_until(grad, 0).
  Tensor backward_until(const Tensor& grad_output, size_t first);
  void collect_params(std::vector<Param*>& out) override;
  void collect_leaves(std::vector<Layer*>& out) override;
  [[nodiscard]] std::string kind() const override { return "Sequential"; }

  [[nodiscard]] size_t size() const { return layers_.size(); }
  Layer* at(size_t i) { return layers_[i].get(); }
  /// Remove the i-th layer (graph rewrites like nn::fuse_conv_relu, which
  /// drops a ReLU after folding it into the preceding conv's epilogue).
  void erase(size_t i) { layers_.erase(layers_.begin() + static_cast<std::ptrdiff_t>(i)); }

 private:
  std::vector<LayerPtr> layers_;
};

/// ResNet v1 basic block: conv3x3-BN-ReLU-conv3x3-BN + shortcut, final ReLU.
/// When stride != 1 or channel counts differ, the shortcut is a 1x1
/// conv + BN projection.
class BasicBlock final : public Layer {
 public:
  BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride, Rng& rng);

  Tensor forward(const Tensor& x, Mode mode) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_leaves(std::vector<Layer*>& out) override;
  [[nodiscard]] std::string kind() const override { return "BasicBlock"; }

  Conv2d* conv1() { return conv1_.get(); }
  Conv2d* conv2() { return conv2_.get(); }
  Conv2d* downsample_conv() { return down_conv_ ? down_conv_.get() : nullptr; }

 private:
  std::unique_ptr<Conv2d> conv1_, conv2_, down_conv_;
  std::unique_ptr<BatchNorm2d> bn1_, bn2_, down_bn_;
  // Cached activations for backward.
  Tensor input_, pre_act1_, pre_sum_;
  std::vector<uint8_t> relu1_mask_, relu2_mask_;
};

}  // namespace fedtiny::nn
