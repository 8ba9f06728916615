/// \file
/// The unified wire-codec registry: every gradient representation that
/// crosses the wire (raw floats, 1-bit quantized, sufficient factors, fp16,
/// int8, top-k sparse) is serialized into a Payload slab by exactly one
/// Codec, and every receiver decodes through the same codec. No
/// scheme-specific encode/decode logic lives in the syncers or the KV store;
/// adding a compression is one codec class in the registry's table.
///
/// Frame layout (in 4-byte float words; integers are bit-cast into words
/// with memcpy, never read as floats):
///   raw float           [payload floats...]           (offset rides in the
///                                                      enclosing WireChunk)
///   1-bit               [rows][cols][bias_len]
///                       [sign words: ceil(rows*cols/32)]
///                       [positive levels: cols][negative levels: cols]
///                       [bias: bias_len]
///   sufficient factor   [m][n][k][bias_len]
///                       [u: m*k][v: n*k][bias: bias_len]
///   fp16                [n][bias_len]
///                       [halves: ceil(n/2), two binary16 per word, low first]
///                       [bias: bias_len]
///   int8                [n][bias_len]
///                       [scales: ceil(n/256), one fp32 per chunk]
///                       [packed: ceil(n/4), four int8 per word, low first]
///                       [bias: bias_len]
///   top-k               [n][k][bias_len]
///                       [indices: k, uint32, strictly increasing, < n]
///                       [values: k][bias: bias_len]
///
/// Decoding validates framing and returns Status on truncated or corrupt
/// buffers — a malformed frame must never crash the server. Decode
/// arithmetic is bitwise identical to the historical in-line paths
/// (OneBitQuantizer::Decode, ReconstructGradient), which the s=0 BSP
/// trajectory tests rely on.
#ifndef POSEIDON_SRC_TRANSPORT_CODEC_H_
#define POSEIDON_SRC_TRANSPORT_CODEC_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/tensor/onebit.h"
#include "src/tensor/sufficient_factor.h"
#include "src/tensor/tensor.h"
#include "src/transport/payload.h"

namespace poseidon {

/// Wire identifier of a codec, carried in every Message header.
enum class WireCodec : uint8_t {
  kRawFloat = 0,
  kOneBit = 1,
  kSufficientFactor = 2,
  kFp16 = 3,
  kInt8 = 4,
  kTopK = 5,
};

const char* WireCodecName(WireCodec id);

/// The per-(layer, clock) seed for the stochastically rounded codecs.
/// Derived from a fixed base through Rng::Split (src/common/rng.h), so every
/// worker — and every rerun — draws the same rounding noise for the same
/// (layer, clock) pair, which is what keeps quantized trajectories bitwise
/// reproducible (docs/COMPRESSION.md).
uint32_t QuantSeed(int layer_index, int64_t clock);

/// One gradient representation's serializer/deserializer. Concrete codecs
/// additionally expose typed encode entry points (their inputs differ:
/// dense slices, quantizer state, factor pairs); the virtual surface is the
/// uniform wire-safety API every receiver and the property tests use.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual WireCodec id() const = 0;
  virtual const char* name() const = 0;

  /// Validates framing without decoding. Returns the float count the frame
  /// expands to — the dense gradient, then any bias trailer — or
  /// InvalidArgument / OutOfRange on malformed or truncated input.
  virtual StatusOr<int64_t> Validate(const PayloadView& frame) const = 0;

  /// Decodes the frame into a dense gradient tensor (shape from the frame;
  /// raw frames decode 1-D) and, when the frame carries one, the bias
  /// gradient trailer. Returns Status instead of crashing on bad input.
  virtual Status Decode(const PayloadView& frame, Tensor* dense,
                        std::vector<float>* bias) const = 0;
};

/// Identity codec: a frame is the floats themselves.
class RawFloatCodec : public Codec {
 public:
  WireCodec id() const override { return WireCodec::kRawFloat; }
  const char* name() const override { return "raw_float"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Stages `floats` floats into a fresh slab (the one unavoidable copy when
  /// the source is not already slab-resident).
  static Payload Encode(const float* src, int64_t floats);
};

/// CNTK-style 1-bit quantization frames (sign words + per-column levels),
/// with the FC bias gradient riding in the same frame.
class OneBitCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Sign words are
  /// bit-cast; read them through word(), not as floats.
  struct Frame {
    int64_t rows = 0;
    int64_t cols = 0;
    int64_t bias_len = 0;
    PayloadView words;   ///< sign words region (bit-cast floats)
    PayloadView positive_level;
    PayloadView negative_level;
    PayloadView bias;

    /// The i-th packed sign word.
    uint32_t word(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kOneBit; }
  const char* name() const override { return "onebit"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Quantizes `gradient` through `quantizer` (which carries the error
  /// feedback residual) and serializes the encoding plus the bias gradient
  /// into one frame.
  static Payload Encode(const Tensor& gradient, OneBitQuantizer* quantizer,
                        const float* bias, int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Reconstructs the dense gradient, bitwise identical to
  /// OneBitQuantizer::Decode on the unserialized encoding.
  static Status DecodeDense(const PayloadView& frame, Tensor* out);
};

/// Sufficient-factor frames (U, V, bias); reconstruction is exact and
/// bitwise identical to ReconstructGradient on the unserialized factors.
class SufficientFactorCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty).
  struct Frame {
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;
    int64_t bias_len = 0;
    PayloadView u;  ///< [m, k] row-major
    PayloadView v;  ///< [n, k] row-major
    PayloadView bias;
  };

  WireCodec id() const override { return WireCodec::kSufficientFactor; }
  const char* name() const override { return "sufficient_factor"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Serializes a factor pair plus the bias gradient into one frame.
  static Payload Encode(const SufficientFactors& factors, const float* bias,
                        int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Overwrites `out` ([m, n]) with U V^T straight from the frame, through
  /// the same kernel as ReconstructGradient (GemmTransB) so the result is
  /// bitwise identical.
  static Status DecodeReconstruct(const PayloadView& frame, Tensor* out);

  /// Adds a parsed frame's U V^T into `out` ([m, n]) element by element,
  /// out = out + dot. On a zeroed `out` this is the same bits as
  /// DecodeReconstruct followed by Axpy(1.0f, ...), since 1.0f * x == x.
  static Status AccumulateReconstruct(const Frame& frame, Tensor* out);
};

/// IEEE binary16 frames with the encoder's reduced range (subnormal halves
/// flush to signed zero, magnitudes >= 2^16 clamp to 65504). The parameter
/// replies of int8 and top-k layers use it, encoded round-to-nearest.
class Fp16Codec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Halves are
  /// bit-cast two to a word; read them through half(), not as floats.
  struct Frame {
    int64_t n = 0;
    int64_t bias_len = 0;
    PayloadView halves;  ///< ceil(n/2) words (bit-cast floats)
    PayloadView bias;

    /// The i-th packed binary16 value, i in [0, n).
    uint16_t half(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kFp16; }
  const char* name() const override { return "fp16"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Round-to-nearest-even encode of n floats into one frame with no bias
  /// trailer (bias_len 0).
  static Payload EncodeRn(const float* src, int64_t n);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Reconstructs the dense (1-D) gradient via the exact Fp16Unpack formula.
  static Status DecodeDense(const PayloadView& frame, Tensor* out);
};

/// int8 frames with one fp32 scale per 256-element chunk
/// (simd::kInt8ChunkSize) and deterministic stochastic rounding. A chunk
/// whose max|x| is zero or non-finite gets scale 0 and decodes to zeros —
/// the residual re-injects the content next clock.
class Int8Codec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Packed bytes are
  /// bit-cast four to a word; read them through DecodeDense.
  struct Frame {
    int64_t n = 0;
    int64_t bias_len = 0;
    PayloadView scales;  ///< ceil(n/256) per-chunk scales
    PayloadView packed;  ///< ceil(n/4) words (bit-cast floats)
    PayloadView bias;
  };

  WireCodec id() const override { return WireCodec::kInt8; }
  const char* name() const override { return "int8"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Stochastically rounds `quant` (the gradient slice with the error
  /// residual already added, n floats) into one frame. The rounding noise is
  /// a pure function of (seed, base_index + i) — pass the slice's flat layer
  /// offset as `base_index` so sharding never changes the bits. When
  /// `residual` is non-null it is overwritten with quant - decode(frame),
  /// the error-feedback carry.
  static Payload EncodeSr(const float* quant, int64_t n, uint32_t seed,
                          int64_t base_index, float* residual, const float* bias,
                          int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Reconstructs the dense (1-D) gradient: out[i] = q[i] * scale[chunk].
  static Status DecodeDense(const PayloadView& frame, Tensor* out);
};

/// Top-k sparse frames: the k largest-magnitude elements as (index, value)
/// pairs, values sent exact. Selection is deterministic — threshold from the
/// k-th largest magnitude, ties broken in index order — and the residual
/// keeps everything that was not sent, so every coordinate eventually
/// escapes (error feedback).
class TopKCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Indices are
  /// bit-cast uint32, validated strictly increasing and < n; read them
  /// through index(), not as floats.
  struct Frame {
    int64_t n = 0;
    int64_t k = 0;
    int64_t bias_len = 0;
    PayloadView indices;  ///< k words (bit-cast floats)
    PayloadView values;   ///< k floats
    PayloadView bias;

    /// The i-th selected flat index, i in [0, k).
    int64_t index(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kTopK; }
  const char* name() const override { return "topk"; }
  StatusOr<int64_t> Validate(const PayloadView& frame) const override;
  Status Decode(const PayloadView& frame, Tensor* dense,
                std::vector<float>* bias) const override;

  /// Selects the k largest-magnitude elements of `quant` (gradient +
  /// residual, n floats; 0 <= k <= n) and serializes them exactly: Select
  /// then EncodeSelected over the whole slice.
  static Payload Encode(const float* quant, int64_t n, int64_t k, float* residual,
                        const float* bias, int64_t bias_len);

  /// The indices of the k largest magnitudes of quant[0, n), ascending. The
  /// threshold is the k-th largest magnitude (NaNs rank as zero, so the
  /// order is total); elements strictly above it are always in, and ties at
  /// it fill the remaining slots in index order. Independent of
  /// nth_element's internal permutation and of the simd backend.
  static std::vector<int64_t> Select(const float* quant, int64_t n, int64_t k);

  /// Serializes the elements of one stripe quant[0, n) that `selected`
  /// names as one frame of length n. `selected` holds k ascending layer
  /// indices in [index_base, index_base + n), quant[0] being layer index
  /// `index_base`; k may be 0. Lets one layer-wide Select be cut into
  /// per-stripe frames with stripe-relative indices. When
  /// `residual` is non-null it is overwritten with quant everywhere except
  /// the selected coordinates, which carry zero residual.
  static Payload EncodeSelected(const float* quant, int64_t n, const int64_t* selected,
                                int64_t k, int64_t index_base, float* residual,
                                const float* bias, int64_t bias_len);

  /// Validated zero-copy access to a frame's regions (including the
  /// strictly-increasing index scan).
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Scatters the (index, value) pairs into a zeroed dense (1-D) gradient.
  static Status DecodeDense(const PayloadView& frame, Tensor* out);
};

/// Process-wide codec registry: a fixed table of the six codecs (the three
/// paper representations plus the fp16/int8/top-k compressions), addressable
/// by id from any Message.
class CodecRegistry {
 public:
  /// The codec for `id`; CHECK-fails on an unknown id (use Find on wire
  /// input paths).
  static const Codec& Get(WireCodec id);
  /// The codec for `id`, or nullptr for an unknown id.
  static const Codec* Find(WireCodec id);
  /// Every codec id, ascending.
  static std::vector<WireCodec> Ids();
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_CODEC_H_
