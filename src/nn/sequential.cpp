#include "nn/sequential.h"

#include <cassert>

namespace fedtiny::nn {

Tensor Sequential::forward(const Tensor& x, Mode mode) {
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur, mode);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_output) { return backward_until(grad_output, 0); }

Tensor Sequential::backward_until(const Tensor& grad_output, size_t first) {
  assert(first <= layers_.size());
  Tensor cur = grad_output;
  for (size_t i = layers_.size(); i > first; --i) cur = layers_[i - 1]->backward(cur);
  return cur;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& layer : layers_) layer->collect_params(out);
}

void Sequential::collect_leaves(std::vector<Layer*>& out) {
  for (auto& layer : layers_) layer->collect_leaves(out);
}

namespace {
// In-place ReLU that records the sign mask.
void relu_inplace(Tensor& t, std::vector<uint8_t>* mask, Mode mode) {
  auto span = t.flat();
  if (mode == Mode::kTrain && mask != nullptr) mask->assign(span.size(), 0);
  for (size_t i = 0; i < span.size(); ++i) {
    if (span[i] > 0.0f) {
      if (mode == Mode::kTrain && mask != nullptr) (*mask)[i] = 1;
    } else {
      span[i] = 0.0f;
    }
  }
}

void relu_backward_inplace(Tensor& grad, const std::vector<uint8_t>& mask) {
  auto span = grad.flat();
  assert(span.size() == mask.size());
  for (size_t i = 0; i < span.size(); ++i) {
    if (mask[i] == 0) span[i] = 0.0f;
  }
}
}  // namespace

BasicBlock::BasicBlock(int64_t in_channels, int64_t out_channels, int64_t stride, Rng& rng) {
  conv1_ = std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1, false, rng);
  bn1_ = std::make_unique<BatchNorm2d>(out_channels);
  conv2_ = std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, false, rng);
  bn2_ = std::make_unique<BatchNorm2d>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    down_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, false, rng);
    down_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
}

Tensor BasicBlock::forward(const Tensor& x, Mode mode) {
  if (mode == Mode::kTrain) input_ = x;
  Tensor out = conv1_->forward(x, mode);
  out = bn1_->forward(out, mode);
  relu_inplace(out, &relu1_mask_, mode);
  out = conv2_->forward(out, mode);
  out = bn2_->forward(out, mode);

  Tensor shortcut;
  if (down_conv_) {
    shortcut = down_conv_->forward(x, mode);
    shortcut = down_bn_->forward(shortcut, mode);
  } else {
    shortcut = x;
  }
  assert(out.same_shape(shortcut));
  auto os = out.flat();
  auto ss = shortcut.flat();
  for (size_t i = 0; i < os.size(); ++i) os[i] += ss[i];
  relu_inplace(out, &relu2_mask_, mode);
  return out;
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  relu_backward_inplace(grad, relu2_mask_);

  // Residual branch.
  Tensor branch_grad = bn2_->backward(grad);
  branch_grad = conv2_->backward(branch_grad);
  relu_backward_inplace(branch_grad, relu1_mask_);
  branch_grad = bn1_->backward(branch_grad);
  Tensor grad_input = conv1_->backward(branch_grad);

  // Shortcut branch.
  if (down_conv_) {
    Tensor sc_grad = down_bn_->backward(grad);
    sc_grad = down_conv_->backward(sc_grad);
    auto gi = grad_input.flat();
    auto sg = sc_grad.flat();
    for (size_t i = 0; i < gi.size(); ++i) gi[i] += sg[i];
  } else {
    auto gi = grad_input.flat();
    auto g = grad.flat();
    for (size_t i = 0; i < gi.size(); ++i) gi[i] += g[i];
  }
  return grad_input;
}

void BasicBlock::collect_params(std::vector<Param*>& out) {
  conv1_->collect_params(out);
  bn1_->collect_params(out);
  conv2_->collect_params(out);
  bn2_->collect_params(out);
  if (down_conv_) {
    down_conv_->collect_params(out);
    down_bn_->collect_params(out);
  }
}

void BasicBlock::collect_leaves(std::vector<Layer*>& out) {
  out.push_back(conv1_.get());
  out.push_back(bn1_.get());
  out.push_back(conv2_.get());
  out.push_back(bn2_.get());
  if (down_conv_) {
    out.push_back(down_conv_.get());
    out.push_back(down_bn_.get());
  }
}

}  // namespace fedtiny::nn
