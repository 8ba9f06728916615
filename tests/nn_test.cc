// Tests for the NN library: numerical gradient checks for every layer type,
// bitwise equality of the conv, pool and FC layers with their per-element
// reference, loss-head correctness, dataset determinism and the data-parallel
// partition property, optimizer semantics, and a single-node convergence
// smoke test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/dataset.h"
#include "src/nn/layers.h"
#include "src/nn/network.h"
#include "src/nn/sgd.h"
#include "src/nn/single_trainer.h"
#include "src/tensor/ops.h"

namespace poseidon {
namespace {

// Central-difference gradient check for a network's total loss wrt sampled
// parameter coordinates. ReLU and max-pool make the loss piecewise smooth:
// a perturbation can flip a pool argmax or a ReLU gate, in which case the
// central difference straddles a kink and legitimately disagrees with the
// (one-sided) analytic derivative. The check therefore tolerates a small
// fraction of kinked coordinates but requires the bulk to match tightly.
void CheckGradients(Network& net, const Tensor& batch, const std::vector<int>& labels,
                    double tolerance) {
  net.Forward(batch, labels);
  net.Backward();

  Rng pick(12345);
  int checked = 0;
  int mismatched = 0;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      const int64_t size = p.value->size();
      const int64_t samples = std::min<int64_t>(size, 8);
      for (int64_t s = 0; s < samples; ++s) {
        const int64_t i =
            static_cast<int64_t>(pick.NextBounded(static_cast<uint64_t>(size)));
        const float original = (*p.value)[i];
        const float analytic = (*p.grad)[i];
        const float eps = 2e-3f;
        (*p.value)[i] = original + eps;
        const double loss_plus = net.Evaluate(batch, labels).loss;
        (*p.value)[i] = original - eps;
        const double loss_minus = net.Evaluate(batch, labels).loss;
        (*p.value)[i] = original;
        const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
        const double scale =
            std::max({1.0, std::fabs(numeric), static_cast<double>(std::fabs(analytic))});
        ++checked;
        if (std::fabs(analytic - numeric) > tolerance * scale) {
          ++mismatched;
          // Gross disagreement is a real bug, kink or not.
          EXPECT_LT(std::fabs(analytic - numeric), 0.5 * scale)
              << p.name << "[" << i << "]: analytic " << analytic << " vs numeric "
              << numeric;
        }
      }
    }
  }
  EXPECT_LE(mismatched, std::max(1, checked / 6))
      << mismatched << "/" << checked << " sampled coordinates disagreed";
}

Batch SmallBatch(int k, int channels, int hw, int classes, uint64_t seed) {
  DatasetConfig config;
  config.num_classes = classes;
  config.channels = channels;
  config.height = hw;
  config.width = hw;
  config.train_size = 64;
  config.seed = seed;
  SyntheticDataset dataset(config);
  return dataset.TrainBatch(0, k);
}

TEST(GradCheckTest, MlpGradientsMatchNumeric) {
  Rng rng(1);
  auto net = BuildMlp(/*input_dim=*/3 * 8 * 8, /*hidden_dim=*/16, /*hidden_layers=*/2,
                      /*classes=*/4, rng);
  const Batch batch = SmallBatch(5, 3, 8, 4, 7);
  CheckGradients(*net, batch.images, batch.labels, 2e-2);
}

TEST(GradCheckTest, ConvNetGradientsMatchNumeric) {
  Rng rng(2);
  Network net;
  net.Add(std::make_unique<Conv2dLayer>("c1", 2, 4, 3, 1, 1, rng));
  net.Add(std::make_unique<ReluLayer>("r1"));
  net.Add(std::make_unique<MaxPool2Layer>("p1"));
  net.Add(std::make_unique<FullyConnectedLayer>("fc", 3, 4 * 4 * 4, rng));
  const Batch batch = SmallBatch(4, 2, 8, 3, 9);
  CheckGradients(net, batch.images, batch.labels, 2e-2);
}

TEST(GradCheckTest, StridedPaddedConvGradients) {
  Rng rng(3);
  Network net;
  net.Add(std::make_unique<Conv2dLayer>("c1", 1, 3, 5, 2, 2, rng));  // 8x8 -> 4x4
  net.Add(std::make_unique<FullyConnectedLayer>("fc", 2, 3 * 4 * 4, rng));
  const Batch batch = SmallBatch(3, 1, 8, 2, 11);
  CheckGradients(net, batch.images, batch.labels, 2e-2);
}

TEST(GradCheckTest, ResidualBlockGradients) {
  Rng rng(4);
  auto net = BuildSmallResNet(/*channels=*/2, /*image_hw=*/8, /*classes=*/3, /*width=*/4,
                              /*blocks=*/2, rng);
  const Batch batch = SmallBatch(3, 2, 8, 3, 13);
  CheckGradients(*net, batch.images, batch.labels, 2e-2);
}

// ------------------------------------------------ per-element reference ----
// The conv, pool and FC layer code as it stood before the layers moved to
// raw-pointer loops and reused buffers: every element through At4/At, fresh
// buffers on every call, pool indices stored as floats. The layers must
// match it bit for bit (the GEMMs themselves are pinned in simd_test).

struct ConvGeometry {
  int64_t in_c;
  int64_t out_c;
  int64_t kernel;
  int64_t stride;
  int64_t pad;
  int64_t OutDim(int64_t in_hw) const { return (in_hw + 2 * pad - kernel) / stride + 1; }
};

Tensor ReferenceIm2Col(const ConvGeometry& g, const Tensor& in) {
  const int64_t k = in.dim(0);
  const int64_t h = in.dim(2);
  const int64_t w = in.dim(3);
  const int64_t oh = g.OutDim(h);
  const int64_t ow = g.OutDim(w);
  const int64_t patch = g.in_c * g.kernel * g.kernel;
  Tensor cols({k * oh * ow, patch});
  float* col_data = cols.data();
  for (int64_t img = 0; img < k; ++img) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        float* row = col_data + ((img * oh + y) * ow + x) * patch;
        int64_t idx = 0;
        for (int64_t c = 0; c < g.in_c; ++c) {
          for (int64_t ky = 0; ky < g.kernel; ++ky) {
            const int64_t sy = y * g.stride + ky - g.pad;
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
              const int64_t sx = x * g.stride + kx - g.pad;
              row[idx++] = (sy >= 0 && sy < h && sx >= 0 && sx < w)
                               ? in.At4(img, c, sy, sx)
                               : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor ReferenceCol2Im(const ConvGeometry& g, const Tensor& cols,
                       const std::vector<int64_t>& in_shape) {
  const int64_t k = in_shape[0];
  const int64_t h = in_shape[2];
  const int64_t w = in_shape[3];
  const int64_t oh = g.OutDim(h);
  const int64_t ow = g.OutDim(w);
  const int64_t patch = g.in_c * g.kernel * g.kernel;
  Tensor grad_in(in_shape);
  const float* col_data = cols.data();
  for (int64_t img = 0; img < k; ++img) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        const float* row = col_data + ((img * oh + y) * ow + x) * patch;
        int64_t idx = 0;
        for (int64_t c = 0; c < g.in_c; ++c) {
          for (int64_t ky = 0; ky < g.kernel; ++ky) {
            const int64_t sy = y * g.stride + ky - g.pad;
            for (int64_t kx = 0; kx < g.kernel; ++kx) {
              const int64_t sx = x * g.stride + kx - g.pad;
              if (sy >= 0 && sy < h && sx >= 0 && sx < w) {
                grad_in.At4(img, c, sy, sx) += row[idx];
              }
              ++idx;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor ReferenceConvForward(const ConvGeometry& g, const Tensor& in, const Tensor& weight,
                            const Tensor& bias) {
  const int64_t k = in.dim(0);
  const int64_t oh = g.OutDim(in.dim(2));
  const int64_t ow = g.OutDim(in.dim(3));
  const Tensor cols = ReferenceIm2Col(g, in);
  Tensor result({k * oh * ow, g.out_c});
  GemmTransB(cols, weight, &result);
  Tensor out({k, g.out_c, oh, ow});
  for (int64_t img = 0; img < k; ++img) {
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t x = 0; x < ow; ++x) {
        const float* row = result.data() + ((img * oh + y) * ow + x) * g.out_c;
        for (int64_t c = 0; c < g.out_c; ++c) {
          out.At4(img, c, y, x) = row[c] + bias[c];
        }
      }
    }
  }
  return out;
}

struct Gradients {
  Tensor weight;
  Tensor bias;
  Tensor input;
};

Gradients ReferenceConvBackward(const ConvGeometry& g, const Tensor& in, const Tensor& weight,
                                const Tensor& grad_out) {
  const int64_t k = grad_out.dim(0);
  const int64_t oh = grad_out.dim(2);
  const int64_t ow = grad_out.dim(3);
  const Tensor cols = ReferenceIm2Col(g, in);
  Gradients grads{Tensor(weight.shape()), Tensor({g.out_c}), Tensor()};
  Tensor dy({k * oh * ow, g.out_c});
  for (int64_t img = 0; img < k; ++img) {
    for (int64_t c = 0; c < g.out_c; ++c) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const float v = grad_out.At4(img, c, y, x);
          dy.At((img * oh + y) * ow + x, c) = v;
          grads.bias[c] += v;
        }
      }
    }
  }
  GemmTransA(dy, cols, &grads.weight);
  Tensor dcols({k * oh * ow, g.in_c * g.kernel * g.kernel});
  Gemm(dy, weight, &dcols);
  grads.input = ReferenceCol2Im(g, dcols, in.shape());
  return grads;
}

void ReferenceMaxPool(const Tensor& in, const Tensor& grad_out, Tensor* out, Tensor* grad_in) {
  const int64_t k = in.dim(0);
  const int64_t c = in.dim(1);
  const int64_t oh = in.dim(2) / 2;
  const int64_t ow = in.dim(3) / 2;
  *out = Tensor({k, c, oh, ow});
  Tensor argmax({k, c, oh, ow});
  for (int64_t img = 0; img < k; ++img) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          float best = -3.4e38f;
          int64_t best_idx = 0;
          for (int64_t dy = 0; dy < 2; ++dy) {
            for (int64_t dx = 0; dx < 2; ++dx) {
              const int64_t sy = 2 * y + dy;
              const int64_t sx = 2 * x + dx;
              const float v = in.At4(img, ch, sy, sx);
              if (v > best) {
                best = v;
                best_idx = ((img * c + ch) * in.dim(2) + sy) * in.dim(3) + sx;
              }
            }
          }
          out->At4(img, ch, y, x) = best;
          argmax.At4(img, ch, y, x) = static_cast<float>(best_idx);
        }
      }
    }
  }
  *grad_in = Tensor(in.shape());
  const float* gd = grad_out.data();
  const float* am = argmax.data();
  for (int64_t i = 0; i < grad_out.size(); ++i) {
    (*grad_in)[static_cast<int64_t>(am[i])] += gd[i];
  }
}

Gradients ReferenceFcBackward(const Tensor& in, const Tensor& weight, const Tensor& grad_out) {
  const Tensor x = in.Reshaped({in.dim(0), in.size() / in.dim(0)});
  Gradients grads{Tensor(weight.shape()), Tensor({weight.dim(0)}), Tensor()};
  GemmTransA(grad_out, x, &grads.weight);
  SumRows(grad_out, &grads.bias);
  Tensor grad_flat({grad_out.dim(0), weight.dim(1)});
  Gemm(grad_out, weight, &grad_flat);
  grads.input = grad_flat.Reshaped(in.shape());
  return grads;
}

::testing::AssertionResult SameBits(const Tensor& got, const Tensor& want) {
  if (!got.SameShape(want)) {
    return ::testing::AssertionFailure()
           << "shape " << got.ShapeString() << " vs " << want.ShapeString();
  }
  if (std::memcmp(got.data(), want.data(), sizeof(float) * static_cast<size_t>(got.size())) !=
      0) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

// Uniform values in [-2, 2) with a `zero_frac` share of signed zeros and,
// with `specials`, a few +-inf and NaN. The NaN is the hardware default NaN
// (inf - inf at run time), the same bits every inf * 0 inside the layers
// produces, so NaN payloads cannot make equal results compare unequal.
Tensor FuzzTensor(std::vector<int64_t> shape, double zero_frac, bool specials, Rng& rng) {
  volatile float inf = std::numeric_limits<float>::infinity();
  const float nan = inf - inf;
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    const double pick = rng.NextDouble();
    float v = rng.NextUniform(-2.0f, 2.0f);
    if (pick < zero_frac) {
      v = pick < zero_frac / 2 ? 0.0f : -0.0f;
    } else if (specials && pick > 0.97) {
      v = pick > 0.99 ? nan : (pick > 0.98 ? inf : -inf);
    }
    t[i] = v;
  }
  return t;
}

// Every kernel/stride/pad/channel combination, with H != W, and the batch
// size changing between calls so the reused buffers shrink and regrow.
TEST(LayerBitwiseTest, ConvMatchesPerElementReference) {
  uint64_t seed = 100;
  for (int64_t kernel : {1, 3, 5}) {
    for (int64_t stride : {1, 2}) {
      for (int64_t pad : {0, 1, 2}) {
        for (int64_t in_c : {1, 3}) {
          const ConvGeometry g{in_c, 4, kernel, stride, pad};
          Rng rng(++seed);
          Conv2dLayer conv("conv", g.in_c, g.out_c, kernel, stride, pad, rng);
          Tensor& weight = *conv.Params()[0].value;
          Tensor& bias = *conv.Params()[1].value;
          bias = FuzzTensor({g.out_c}, 0.0, false, rng);
          for (int64_t batch : {3, 1, 3}) {
            for (bool specials : {false, true}) {
              SCOPED_TRACE("kernel=" + std::to_string(kernel) + " stride=" +
                           std::to_string(stride) + " pad=" + std::to_string(pad) +
                           " in_c=" + std::to_string(in_c) + " batch=" +
                           std::to_string(batch) + (specials ? " specials" : ""));
              const Tensor in = FuzzTensor({batch, in_c, 7, 10}, 0.1, specials, rng);
              Tensor out;
              conv.Forward(in, &out);
              EXPECT_TRUE(SameBits(out, ReferenceConvForward(g, in, weight, bias)));

              // ReLU and pooling leave most of a real dY at zero.
              const Tensor grad_out = FuzzTensor(out.shape(), 0.75, specials, rng);
              Tensor grad_in;
              conv.Backward(grad_out, &grad_in);
              const Gradients want = ReferenceConvBackward(g, in, weight, grad_out);
              EXPECT_TRUE(SameBits(*conv.Params()[0].grad, want.weight));
              EXPECT_TRUE(SameBits(*conv.Params()[1].grad, want.bias));
              EXPECT_TRUE(SameBits(grad_in, want.input));
            }
          }
        }
      }
    }
  }
}

// The conv shapes the end-to-end workloads train, at their batch sizes:
// CIFAR-quick's three 5x5 pad-2 convs at batch 16 and the VGG stand-in's
// three 3x3 pad-1 convs at batch 8, which cover whole 16-pixel panels, the
// 8-wide rows that span two output rows, and up to 128 output channels; plus
// one layer with out_c = 6 (not a multiple of the 4-row tile) and 63 output
// pixels, whose last panel is a 15-wide tail.
TEST(LayerBitwiseTest, ConvWorkloadGeometriesMatchPerElementReference) {
  struct Case {
    ConvGeometry g;
    int64_t batch;
    int64_t hw_h;
    int64_t hw_w;
  };
  const Case cases[] = {
      {{3, 32, 5, 1, 2}, 16, 32, 32},  {{32, 32, 5, 1, 2}, 16, 16, 16},
      {{32, 64, 5, 1, 2}, 16, 8, 8},   {{3, 32, 3, 1, 1}, 8, 16, 16},
      {{32, 64, 3, 1, 1}, 8, 8, 8},    {{64, 128, 3, 1, 1}, 8, 4, 4},
      {{3, 6, 3, 1, 1}, 4, 7, 9},
  };
  uint64_t seed = 500;
  for (const Case& c : cases) {
    const ConvGeometry& g = c.g;
    Rng rng(++seed);
    Conv2dLayer conv("conv", g.in_c, g.out_c, g.kernel, g.stride, g.pad, rng);
    Tensor& weight = *conv.Params()[0].value;
    Tensor& bias = *conv.Params()[1].value;
    bias = FuzzTensor({g.out_c}, 0.0, false, rng);
    for (bool specials : {false, true}) {
      SCOPED_TRACE("in_c=" + std::to_string(g.in_c) + " out_c=" + std::to_string(g.out_c) +
                   " kernel=" + std::to_string(g.kernel) + " " + std::to_string(c.hw_h) +
                   "x" + std::to_string(c.hw_w) + " batch=" + std::to_string(c.batch) +
                   (specials ? " specials" : ""));
      const Tensor in = FuzzTensor({c.batch, g.in_c, c.hw_h, c.hw_w}, 0.1, specials, rng);
      Tensor out;
      conv.Forward(in, &out);
      EXPECT_TRUE(SameBits(out, ReferenceConvForward(g, in, weight, bias)));

      const Tensor grad_out = FuzzTensor(out.shape(), 0.75, specials, rng);
      Tensor grad_in;
      conv.Backward(grad_out, &grad_in);
      const Gradients want = ReferenceConvBackward(g, in, weight, grad_out);
      EXPECT_TRUE(SameBits(*conv.Params()[0].grad, want.weight));
      EXPECT_TRUE(SameBits(*conv.Params()[1].grad, want.bias));
      EXPECT_TRUE(SameBits(grad_in, want.input));
    }
  }
}

// Values from a five-element set, so windows tie (including +0 against -0),
// plus NaN taps and windows of -inf, which pool to -3.4e38 and route their
// gradient to flat index 0.
TEST(LayerBitwiseTest, MaxPoolMatchesPerElementReference) {
  Rng rng(7);
  MaxPool2Layer pool("pool");
  volatile float inf = std::numeric_limits<float>::infinity();
  const float levels[] = {-1.0f, -0.0f, 0.0f, 1.0f, 2.0f};
  for (int64_t batch : {3, 1, 3}) {
    for (bool specials : {false, true}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) + (specials ? " specials" : ""));
      Tensor in({batch, 3, 4, 6});
      for (int64_t i = 0; i < in.size(); ++i) {
        in[i] = levels[rng.NextBounded(5)];
      }
      if (specials) {
        in.At4(0, 1, 0, 2) = inf - inf;
        for (int64_t y : {2, 3}) {
          for (int64_t x : {4, 5}) {
            in.At4(batch - 1, 2, y, x) = -inf;
            in.At4(0, 0, y, x) = inf - inf;
          }
        }
      }
      Tensor out;
      pool.Forward(in, &out);
      const Tensor grad_out = FuzzTensor(out.shape(), 0.25, specials, rng);
      Tensor grad_in;
      pool.Backward(grad_out, &grad_in);
      Tensor want_out;
      Tensor want_grad_in;
      ReferenceMaxPool(in, grad_out, &want_out, &want_grad_in);
      EXPECT_TRUE(SameBits(out, want_out));
      EXPECT_TRUE(SameBits(grad_in, want_grad_in));
    }
  }
}

TEST(LayerBitwiseTest, FcMatchesPerElementReference) {
  Rng rng(8);
  FullyConnectedLayer fc("fc", 5, 2 * 2 * 3, rng);
  for (int64_t batch : {3, 1, 3}) {
    for (bool specials : {false, true}) {
      SCOPED_TRACE("batch=" + std::to_string(batch) + (specials ? " specials" : ""));
      const Tensor in = FuzzTensor({batch, 2, 2, 3}, 0.1, false, rng);
      Tensor out;
      fc.Forward(in, &out);
      const Tensor grad_out = FuzzTensor(out.shape(), 0.5, specials, rng);
      Tensor grad_in;
      fc.Backward(grad_out, &grad_in);
      const Gradients want = ReferenceFcBackward(in, fc.weight(), grad_out);
      EXPECT_TRUE(SameBits(fc.weight_grad(), want.weight));
      EXPECT_TRUE(SameBits(*fc.Params()[1].grad, want.bias));
      EXPECT_TRUE(SameBits(grad_in, want.input));
    }
  }
}

// Pool indices used to be stored as floats, which cannot hold every integer
// above 2^24: the odd index 2^24 + 1 rounded to 2^24, and the gradient went
// to the wrong input element.
TEST(MaxPoolTest, ArgmaxAbove2To24RoutesGradientExactly) {
  const int64_t target = (int64_t{1} << 24) + 1;
  const int64_t width = (int64_t{1} << 23) + 2;  // two rows: 2^24 + 4 elements
  Tensor in({1, 1, 2, width});
  in[target] = 1.0f;  // bottom-right tap of its window
  MaxPool2Layer pool("pool");
  Tensor out;
  pool.Forward(in, &out);
  const int64_t window = (target - width) / 2;
  EXPECT_EQ(out[window], 1.0f);
  const Tensor grad_out = Tensor::Full(out.shape(), 1.0f);
  Tensor grad_in;
  pool.Backward(grad_out, &grad_in);
  EXPECT_EQ(grad_in[target], 1.0f);
  EXPECT_EQ(grad_in[target - 1], 0.0f);
}

// Forward, loss and a backward pass that hands every layer, layer 0 included,
// a real grad_in: what Network::Backward computed before layer 0 skipped
// its input gradient.
void BackwardWithInputGradient(Network& net, const Tensor& batch, const std::vector<int>& labels) {
  std::vector<Tensor> acts = {batch};
  for (int l = 0; l < net.num_layers(); ++l) {
    Tensor next;
    net.layer(l).Forward(acts.back(), &next);
    acts.push_back(std::move(next));
  }
  Tensor grad;
  SoftmaxCrossEntropy(acts.back(), labels, &grad);
  for (int l = net.num_layers() - 1; l >= 0; --l) {
    Tensor grad_in;
    net.layer(l).Backward(grad, &grad_in);
    ASSERT_TRUE(grad_in.SameShape(acts[static_cast<size_t>(l)]));
    grad = std::move(grad_in);
  }
}

void ExpectSameGradientsWithoutInputGradient(
    const std::function<std::unique_ptr<Network>(Rng&)>& build, const Batch& batch) {
  Rng rng_a(9);
  Rng rng_b(9);
  auto skipped = build(rng_a);
  auto full = build(rng_b);
  skipped->Forward(batch.images, batch.labels);
  skipped->Backward();
  BackwardWithInputGradient(*full, batch.images, batch.labels);
  const auto want = full->LayerParams();
  const auto got = skipped->LayerParams();
  ASSERT_EQ(got.size(), want.size());
  for (size_t l = 0; l < got.size(); ++l) {
    ASSERT_EQ(got[l].size(), want[l].size());
    for (size_t p = 0; p < got[l].size(); ++p) {
      EXPECT_TRUE(SameBits(*got[l][p].grad, *want[l][p].grad)) << got[l][p].name;
    }
  }
}

TEST(NetworkTest, LayerZeroSkipsInputGradientWithSameParamGradients) {
  const Batch batch = SmallBatch(3, 2, 8, 3, 17);
  {
    SCOPED_TRACE("fc first");
    ExpectSameGradientsWithoutInputGradient(
        [](Rng& rng) { return BuildMlp(2 * 8 * 8, 16, 2, 3, rng); }, batch);
  }
  {
    SCOPED_TRACE("conv first");
    ExpectSameGradientsWithoutInputGradient(
        [](Rng& rng) {
          auto net = std::make_unique<Network>();
          net->Add(std::make_unique<Conv2dLayer>("c1", 2, 4, 3, 1, 1, rng));
          net->Add(std::make_unique<ReluLayer>("r1"));
          net->Add(std::make_unique<MaxPool2Layer>("p1"));
          net->Add(std::make_unique<FullyConnectedLayer>("fc", 3, 4 * 4 * 4, rng));
          return net;
        },
        batch);
  }
  {
    SCOPED_TRACE("residual first");
    ExpectSameGradientsWithoutInputGradient(
        [](Rng& rng) {
          std::vector<std::unique_ptr<Layer>> inner;
          inner.push_back(std::make_unique<Conv2dLayer>("b.c", 2, 2, 3, 1, 1, rng));
          inner.push_back(std::make_unique<ReluLayer>("b.r"));
          auto net = std::make_unique<Network>();
          net->Add(std::make_unique<ResidualBlock>("b", std::move(inner)));
          net->Add(std::make_unique<FullyConnectedLayer>("fc", 3, 2 * 8 * 8, rng));
          return net;
        },
        batch);
  }
}

TEST(SoftmaxTest, UniformLogitsGiveLogC) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor grad;
  const LossResult result = SoftmaxCrossEntropy(logits, {1, 3}, &grad);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-6);
  // Gradient rows sum to zero.
  for (int64_t r = 0; r < 2; ++r) {
    double row_sum = 0.0;
    for (int64_t c = 0; c < 4; ++c) {
      row_sum += grad.At(r, c);
    }
    EXPECT_NEAR(row_sum, 0.0, 1e-7);
  }
}

TEST(SoftmaxTest, PerfectPredictionLowLoss) {
  Tensor logits = Tensor::FromVector({1, 3}, {10.0f, -10.0f, -10.0f});
  Tensor grad;
  const LossResult result = SoftmaxCrossEntropy(logits, {0}, &grad);
  EXPECT_LT(result.loss, 1e-6);
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
}

TEST(SoftmaxTest, NumericallyStableForLargeLogits) {
  Tensor logits = Tensor::FromVector({1, 2}, {1000.0f, 999.0f});
  Tensor grad;
  const LossResult result = SoftmaxCrossEntropy(logits, {0}, &grad);
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_LT(result.loss, 1.0);
}

TEST(FcLayerTest, SufficientFactorsMatchDenseGradient) {
  // The SF view of an FC layer's gradient must reconstruct to exactly the
  // dense gradient the layer computed (this equality is what lets HybComm
  // switch schemes without changing the algorithm).
  Rng rng(5);
  FullyConnectedLayer fc("fc", 6, 10, rng);
  Tensor in = Tensor::RandomUniform({4, 10}, -1.0f, 1.0f, rng);
  Tensor out;
  fc.Forward(in, &out);
  Tensor dout = Tensor::RandomUniform({4, 6}, -1.0f, 1.0f, rng);
  Tensor din;
  fc.Backward(dout, &din);

  const SufficientFactors factors = fc.LastSufficientFactors();
  Tensor recon({6, 10});
  ReconstructGradient(factors, &recon);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(recon, fc.weight_grad()), 0.0);
}

// An SFB layer's worker never reads its own dense weight gradient, so its
// backward skips dW = dY^T X. Everything the SFB path does read — dX, the
// bias gradient and the sufficient factors — must come out bit for bit as in
// a full backward, and the skipped gradient must be left alone.
TEST(FcLayerTest, SkippingTheWeightGradientLeavesEverythingElseBitEqual) {
  Rng rng_full(12);
  Rng rng_skip(12);
  FullyConnectedLayer full("fc", 5, 2 * 2 * 3, rng_full);
  FullyConnectedLayer skip("fc", 5, 2 * 2 * 3, rng_skip);
  Rng data(13);
  for (int64_t batch : {3, 1}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const Tensor in = FuzzTensor({batch, 2, 2, 3}, 0.1, false, data);
    Tensor out_full;
    Tensor out_skip;
    full.Forward(in, &out_full);
    skip.Forward(in, &out_skip);
    ASSERT_TRUE(SameBits(out_skip, out_full));
    const Tensor grad_out = FuzzTensor(out_full.shape(), 0.5, true, data);
    skip.weight_grad().Fill(7.0f);
    Tensor grad_in_full;
    Tensor grad_in_skip;
    full.Backward(grad_out, &grad_in_full);
    skip.BackwardSkippingWeightGrad(grad_out, &grad_in_skip);

    EXPECT_TRUE(SameBits(skip.weight_grad(), Tensor::Full(skip.weight_grad().shape(), 7.0f)))
        << "the skipped weight gradient was written";
    EXPECT_TRUE(SameBits(grad_in_skip, grad_in_full));
    EXPECT_TRUE(SameBits(*skip.Params()[1].grad, *full.Params()[1].grad));
    const SufficientFactors want = full.LastSufficientFactors();
    const SufficientFactors got = skip.LastSufficientFactors();
    EXPECT_TRUE(SameBits(got.u, want.u));
    EXPECT_TRUE(SameBits(got.v, want.v));
  }
}

TEST(NetworkTest, BackwardThroughCanSkipOneLayersWeightGradient) {
  const Batch batch = SmallBatch(3, 2, 8, 3, 17);
  Rng rng_full(9);
  Rng rng_skip(9);
  auto full = BuildMlp(2 * 8 * 8, 6, 2, 3, rng_full);
  auto skip = BuildMlp(2 * 8 * 8, 6, 2, 3, rng_skip);
  full->Forward(batch.images, batch.labels);
  skip->Forward(batch.images, batch.labels);
  const int top = skip->num_layers() - 1;
  auto& top_fc = dynamic_cast<FullyConnectedLayer&>(skip->layer(top));
  top_fc.weight_grad().Fill(7.0f);
  for (int l = top; l >= 0; --l) {
    full->BackwardThrough(l);
    skip->BackwardThrough(l, /*weight_grad=*/l != top);
  }
  const auto want = full->LayerParams();
  const auto got = skip->LayerParams();
  for (size_t l = 0; l < got.size(); ++l) {
    for (size_t p = 0; p < got[l].size(); ++p) {
      if (static_cast<int>(l) == top && p == 0) {
        EXPECT_TRUE(SameBits(*got[l][p].grad, Tensor::Full(got[l][p].grad->shape(), 7.0f)));
        continue;
      }
      EXPECT_TRUE(SameBits(*got[l][p].grad, *want[l][p].grad)) << got[l][p].name;
    }
  }
}

TEST(DatasetTest, DeterministicBatches) {
  DatasetConfig config;
  config.seed = 21;
  SyntheticDataset a(config);
  SyntheticDataset b(config);
  const Batch ba = a.TrainBatch(3, 16);
  const Batch bb = b.TrainBatch(3, 16);
  EXPECT_EQ(ba.labels, bb.labels);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(ba.images, bb.images), 0.0);
}

TEST(DatasetTest, WorkerPartitionUnionEqualsBigBatch) {
  // P workers with batch K at iteration t must jointly see exactly the
  // single-node batch of size P*K — the property behind BSP equivalence.
  DatasetConfig config;
  config.seed = 22;
  SyntheticDataset dataset(config);
  const int p = 4;
  const int k = 8;
  const Batch big = dataset.TrainBatch(2, p * k);
  const int64_t pixels = 3 * 32 * 32;
  for (int w = 0; w < p; ++w) {
    const Batch part = dataset.TrainBatch(2, k, w, p);
    for (int j = 0; j < k; ++j) {
      const int big_index = w * k + j;
      EXPECT_EQ(part.labels[j], big.labels[big_index]);
      for (int64_t px = 0; px < pixels; ++px) {
        ASSERT_EQ(part.images[j * pixels + px], big.images[big_index * pixels + px]);
      }
    }
  }
}

TEST(DatasetTest, TrainAndTestDiffer) {
  DatasetConfig config;
  config.seed = 23;
  SyntheticDataset dataset(config);
  const Batch train = dataset.TrainBatch(0, 4);
  const Batch test = dataset.TestSet();
  // Same generator family but different streams; spot-check divergence.
  EXPECT_NE(train.images[0], test.images[0]);
}

TEST(SgdTest, PlainStep) {
  SgdOptimizer opt({.learning_rate = 0.1f});
  Tensor value = Tensor::FromVector({2}, {1.0f, 2.0f});
  Tensor grad = Tensor::FromVector({2}, {1.0f, -1.0f});
  opt.Step("p", grad, &value);
  EXPECT_FLOAT_EQ(value[0], 0.9f);
  EXPECT_FLOAT_EQ(value[1], 2.1f);
}

TEST(SgdTest, MomentumAccumulates) {
  SgdOptimizer opt({.learning_rate = 1.0f, .momentum = 0.5f});
  Tensor value = Tensor::FromVector({1}, {0.0f});
  Tensor grad = Tensor::FromVector({1}, {1.0f});
  opt.Step("p", grad, &value);
  EXPECT_FLOAT_EQ(value[0], -1.0f);  // v = 1
  opt.Step("p", grad, &value);
  EXPECT_FLOAT_EQ(value[0], -2.5f);  // v = 1.5
}

TEST(SgdTest, WeightDecayShrinks)
{
  SgdOptimizer opt({.learning_rate = 0.5f, .momentum = 0.0f, .weight_decay = 0.1f});
  Tensor value = Tensor::FromVector({1}, {2.0f});
  Tensor grad = Tensor::FromVector({1}, {0.0f});
  opt.Step("p", grad, &value);
  EXPECT_FLOAT_EQ(value[0], 2.0f - 0.5f * 0.2f);
}

TEST(SgdTest, IndependentKeysIndependentVelocity) {
  SgdOptimizer opt({.learning_rate = 1.0f, .momentum = 0.9f});
  Tensor a = Tensor::FromVector({1}, {0.0f});
  Tensor b = Tensor::FromVector({1}, {0.0f});
  Tensor grad = Tensor::FromVector({1}, {1.0f});
  opt.Step("a", grad, &a);
  opt.Step("b", grad, &b);
  EXPECT_FLOAT_EQ(a[0], b[0]);
}

TEST(TrainingTest, MlpLearnsSyntheticTask) {
  DatasetConfig config;
  config.num_classes = 4;
  config.channels = 1;
  config.height = 8;
  config.width = 8;
  config.train_size = 256;
  config.test_size = 128;
  config.noise_stddev = 0.3f;
  config.seed = 77;
  SyntheticDataset dataset(config);

  Rng rng(42);
  auto net = BuildMlp(8 * 8, 32, 1, 4, rng);
  SgdOptimizer opt({.learning_rate = 0.1f, .momentum = 0.9f});
  const auto stats = TrainSingleNode(*net, dataset, opt, 60, 32);
  EXPECT_GT(stats.front().loss, 1.0);
  EXPECT_LT(stats.back().loss, 0.4);

  const Batch test = dataset.TestSet();
  const LossResult result = net->Evaluate(test.images, test.labels);
  EXPECT_GT(result.accuracy, 0.9);
}

TEST(NetworkTest, BackwardOrderEnforced) {
  Rng rng(6);
  auto net = BuildMlp(16, 8, 1, 2, rng);
  DatasetConfig config;
  config.channels = 1;
  config.height = 4;
  config.width = 4;
  config.num_classes = 2;
  SyntheticDataset dataset(config);
  const Batch batch = dataset.TrainBatch(0, 2);
  net->Forward(batch.images, batch.labels);
  EXPECT_DEATH(net->BackwardThrough(0), "top-down");
}

TEST(NetworkTest, ParamCountsMatchBuilders) {
  Rng rng(8);
  auto quick = BuildCifarQuick(3, 32, 10, rng);
  // Caffe cifar10_quick: 145,578 trainable parameters.
  EXPECT_EQ(quick->total_params(), 145578);
}

}  // namespace
}  // namespace poseidon
