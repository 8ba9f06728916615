#include "src/transport/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/simd/quant.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace {

// Per-dimension sanity bound for wire input: any frame claiming a single
// dimension beyond this is corrupt, not large (the biggest paper layer
// dimension is 25088). Keeping every dimension below 2^27 also makes all
// downstream size products overflow-free in int64.
constexpr int64_t kMaxWireDim = int64_t{1} << 27;

// Integers are carried in float words bit-cast with memcpy; the words are
// never read as floats, so the bit patterns (which may be NaNs) are inert.
void StoreWord(float* dst, uint32_t value) { std::memcpy(dst, &value, sizeof(value)); }

uint32_t LoadWord(const float* src) {
  uint32_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

Status Truncated(const char* codec, int64_t want, int64_t got) {
  return OutOfRangeError(std::string(codec) + " frame truncated: need " +
                         std::to_string(want) + " words, have " + std::to_string(got));
}

Status BadDim(const char* codec, int64_t value) {
  return InvalidArgumentError(std::string(codec) + " frame has invalid dimension " +
                              std::to_string(value));
}

// Reads a header word as a non-negative bounded int64, or fails.
StatusOr<int64_t> HeaderDim(const char* codec, const PayloadView& frame, int64_t word) {
  if (word >= frame.size()) {
    return Truncated(codec, word + 1, frame.size());
  }
  const int64_t value = static_cast<int64_t>(static_cast<int32_t>(LoadWord(frame.data() + word)));
  if (value < 0 || value > kMaxWireDim) {
    return BadDim(codec, value);
  }
  return value;
}

// a * b, or failure when the product would leave the sane frame-size range.
// Every factor a Parse multiplies has already passed HeaderDim's kMaxWireDim
// bound, so the products below cannot wrap int64_t — but checking here keeps
// the invariant local: a hostile header is rejected by arithmetic, not by an
// argument about bounds established elsewhere.
StatusOr<int64_t> CheckedMul(const char* codec, int64_t a, int64_t b) {
  if (a < 0 || b < 0 || (b != 0 && a > (int64_t{1} << 62) / b)) {
    return InvalidArgumentError(std::string(codec) + " frame size overflows: " +
                                std::to_string(a) + " * " + std::to_string(b));
  }
  return a * b;
}

// Copies a frame's bias trailer (possibly empty) into the caller's vector.
// An empty PayloadView has no storage, so this must not touch data().
void AssignBias(const PayloadView& view, std::vector<float>* bias) {
  bias->clear();
  if (view.size() > 0) {
    bias->assign(view.data(), view.data() + view.size());
  }
}

// The tail of every compressed codec's Decode and DecodeDense: one Parse
// result, its dense gradient through `decode`, and its bias trailer when
// `bias` is non-null. The frame is parsed once per decode.
template <typename Frame>
Status DecodeParsed(const StatusOr<Frame>& parsed, void (*decode)(const Frame&, Tensor*),
                    Tensor* dense, std::vector<float>* bias) {
  CHECK_NOTNULL(dense);
  if (!parsed.ok()) {
    return parsed.status();
  }
  decode(*parsed, dense);
  if (bias != nullptr) {
    AssignBias(parsed->bias, bias);
  }
  return Status::Ok();
}

}  // namespace

const char* WireCodecName(WireCodec id) {
  switch (id) {
    case WireCodec::kRawFloat:
      return "raw_float";
    case WireCodec::kOneBit:
      return "onebit";
    case WireCodec::kSufficientFactor:
      return "sufficient_factor";
    case WireCodec::kFp16:
      return "fp16";
    case WireCodec::kInt8:
      return "int8";
    case WireCodec::kTopK:
      return "topk";
  }
  return "?";
}

uint32_t QuantSeed(int layer_index, int64_t clock) {
  // A fixed base split per layer then per clock: the same derivation on
  // every worker, every backend, every rerun.
  Rng rng = Rng(UINT64_C(0x9e3779b97f4a7c15))
                .Split(static_cast<uint64_t>(layer_index))
                .Split(static_cast<uint64_t>(clock));
  return static_cast<uint32_t>(rng.Next());
}

// ----------------------------------------------------------------- raw float

StatusOr<int64_t> RawFloatCodec::Validate(const PayloadView& frame) const {
  if (!frame.valid() && frame.size() != 0) {
    return InvalidArgumentError("raw_float frame is invalid");
  }
  return frame.size();
}

Status RawFloatCodec::Decode(const PayloadView& frame, Tensor* dense,
                             std::vector<float>* bias) const {
  CHECK_NOTNULL(dense);
  StatusOr<int64_t> floats = Validate(frame);
  if (!floats.ok()) {
    return floats.status();
  }
  if (*floats == 0) {
    *dense = Tensor();
  } else {
    *dense = Tensor({*floats});
    std::copy(frame.data(), frame.data() + *floats, dense->data());
    WireCopyStats::Add(*floats);
  }
  if (bias != nullptr) {
    bias->clear();
  }
  return Status::Ok();
}

Payload RawFloatCodec::Encode(const float* src, int64_t floats) {
  TraceSpan span("codec.encode.raw", "codec", floats);
  Payload payload = Payload::Allocate(floats);
  if (floats > 0) {
    CHECK_NOTNULL(src);
    std::copy(src, src + floats, payload.data());
    WireCopyStats::Add(floats);
  }
  return payload;
}

// --------------------------------------------------------------------- 1-bit

namespace {
constexpr int64_t kOneBitHeaderWords = 3;

int64_t OneBitSignWords(int64_t rows, int64_t cols) { return (rows * cols + 31) / 32; }
}  // namespace

uint32_t OneBitCodec::Frame::word(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, words.size());
  return LoadWord(words.data() + i);
}

StatusOr<OneBitCodec::Frame> OneBitCodec::Parse(const PayloadView& frame) {
  StatusOr<int64_t> rows = HeaderDim("onebit", frame, 0);
  if (!rows.ok()) return rows.status();
  StatusOr<int64_t> cols = HeaderDim("onebit", frame, 1);
  if (!cols.ok()) return cols.status();
  StatusOr<int64_t> bias_len = HeaderDim("onebit", frame, 2);
  if (!bias_len.ok()) return bias_len.status();
  // A tensor dimension of zero is never produced by an encoder; reject it
  // so decode targets always have constructible shapes. The per-dimension
  // bound in HeaderDim keeps rows * cols overflow-free.
  if (*rows < 1) return BadDim("onebit", *rows);
  if (*cols < 1) return BadDim("onebit", *cols);
  const int64_t sign_words = OneBitSignWords(*rows, *cols);
  const int64_t want = kOneBitHeaderWords + sign_words + 2 * *cols + *bias_len;
  if (frame.size() != want) {
    return want > frame.size() ? Truncated("onebit", want, frame.size())
                               : InvalidArgumentError(
                                     "onebit frame has " + std::to_string(frame.size()) +
                                     " words, expected " + std::to_string(want));
  }
  Frame parsed;
  parsed.rows = *rows;
  parsed.cols = *cols;
  parsed.bias_len = *bias_len;
  int64_t cursor = kOneBitHeaderWords;
  parsed.words = frame.Sub(cursor, sign_words);
  cursor += sign_words;
  parsed.positive_level = frame.Sub(cursor, *cols);
  cursor += *cols;
  parsed.negative_level = frame.Sub(cursor, *cols);
  cursor += *cols;
  parsed.bias = frame.Sub(cursor, *bias_len);
  return parsed;
}

StatusOr<int64_t> OneBitCodec::Validate(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->rows * parsed->cols + parsed->bias_len;
}

namespace {
void DecodeOneBit(const OneBitCodec::Frame& f, Tensor* out) {
  TraceSpan span("codec.decode.onebit", "codec");
  // Stage the packed sign words out of the slab once (compressed size, 1/32
  // of dense), then reconstruct exactly as OneBitQuantizer::Decode does.
  std::vector<uint32_t> bits(static_cast<size_t>(f.words.size()));
  if (!bits.empty()) {
    std::memcpy(bits.data(), f.words.data(), bits.size() * sizeof(uint32_t));
    WireCopyStats::Add(f.words.size());
  }
  *out = Tensor({f.rows, f.cols});
  OneBitDecode(bits.data(), f.positive_level.data(), f.negative_level.data(), f.rows,
               f.cols, out->data());
}
}  // namespace

Status OneBitCodec::DecodeDense(const PayloadView& frame, Tensor* out) {
  return DecodeParsed(Parse(frame), &DecodeOneBit, out, nullptr);
}

Status OneBitCodec::Decode(const PayloadView& frame, Tensor* dense,
                           std::vector<float>* bias) const {
  return DecodeParsed(Parse(frame), &DecodeOneBit, dense, bias);
}

Payload OneBitCodec::Encode(const Tensor& gradient, OneBitQuantizer* quantizer,
                            const float* bias, int64_t bias_len) {
  TraceSpan span("codec.encode.onebit", "codec");
  CHECK_NOTNULL(quantizer);
  CHECK_GE(bias_len, 0);
  const OneBitEncoded encoded = quantizer->Encode(gradient);
  const int64_t sign_words = static_cast<int64_t>(encoded.bits.size());
  CHECK_EQ(sign_words, OneBitSignWords(encoded.rows, encoded.cols));
  const int64_t total =
      kOneBitHeaderWords + sign_words + 2 * encoded.cols + bias_len;
  Payload payload = Payload::Allocate(total);
  float* words = payload.data();
  StoreWord(words + 0, static_cast<uint32_t>(encoded.rows));
  StoreWord(words + 1, static_cast<uint32_t>(encoded.cols));
  StoreWord(words + 2, static_cast<uint32_t>(bias_len));
  int64_t cursor = kOneBitHeaderWords;
  if (sign_words > 0) {
    std::memcpy(words + cursor, encoded.bits.data(),
                static_cast<size_t>(sign_words) * sizeof(uint32_t));
  }
  cursor += sign_words;
  std::copy(encoded.positive_level.begin(), encoded.positive_level.end(), words + cursor);
  cursor += encoded.cols;
  std::copy(encoded.negative_level.begin(), encoded.negative_level.end(), words + cursor);
  cursor += encoded.cols;
  if (bias_len > 0) {
    CHECK_NOTNULL(bias);
    std::copy(bias, bias + bias_len, words + cursor);
  }
  WireCopyStats::Add(sign_words + 2 * encoded.cols + bias_len);
  return payload;
}

// --------------------------------------------------------- sufficient factor

namespace {
constexpr int64_t kSfHeaderWords = 4;
}  // namespace

StatusOr<SufficientFactorCodec::Frame> SufficientFactorCodec::Parse(
    const PayloadView& frame) {
  StatusOr<int64_t> m = HeaderDim("sufficient_factor", frame, 0);
  if (!m.ok()) return m.status();
  StatusOr<int64_t> n = HeaderDim("sufficient_factor", frame, 1);
  if (!n.ok()) return n.status();
  StatusOr<int64_t> k = HeaderDim("sufficient_factor", frame, 2);
  if (!k.ok()) return k.status();
  StatusOr<int64_t> bias_len = HeaderDim("sufficient_factor", frame, 3);
  if (!bias_len.ok()) return bias_len.status();
  if (*m < 1) return BadDim("sufficient_factor", *m);
  if (*n < 1) return BadDim("sufficient_factor", *n);
  if (*k < 1) return BadDim("sufficient_factor", *k);
  StatusOr<int64_t> factors = CheckedMul("sufficient_factor", *m + *n, *k);
  if (!factors.ok()) return factors.status();
  const int64_t want = kSfHeaderWords + *factors + *bias_len;
  if (frame.size() != want) {
    return want > frame.size()
               ? Truncated("sufficient_factor", want, frame.size())
               : InvalidArgumentError("sufficient_factor frame has " +
                                      std::to_string(frame.size()) + " words, expected " +
                                      std::to_string(want));
  }
  Frame parsed;
  parsed.m = *m;
  parsed.n = *n;
  parsed.k = *k;
  parsed.bias_len = *bias_len;
  int64_t cursor = kSfHeaderWords;
  parsed.u = frame.Sub(cursor, *m * *k);
  cursor += *m * *k;
  parsed.v = frame.Sub(cursor, *n * *k);
  cursor += *n * *k;
  parsed.bias = frame.Sub(cursor, *bias_len);
  return parsed;
}

StatusOr<int64_t> SufficientFactorCodec::Validate(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->m * parsed->n + parsed->bias_len;
}

namespace {

// U V^T of a parsed frame into `out`, read straight from the slab through
// the dispatched GemmTransB — the kernel ReconstructGradient runs, so the
// bits match it on unserialized factors.
Status ReconstructInto(const SufficientFactorCodec::Frame& f, bool accumulate,
                       Tensor* out) {
  TraceSpan span("codec.decode.sf", "codec");
  CHECK_NOTNULL(out);
  if (out->ndim() != 2 || out->dim(0) != f.m || out->dim(1) != f.n) {
    return InvalidArgumentError("sufficient_factor reconstruction target is " +
                                out->ShapeString() + ", frame is " + std::to_string(f.m) +
                                "x" + std::to_string(f.n));
  }
  const float* u = f.u.size() > 0 ? f.u.data() : nullptr;
  const float* v = f.v.size() > 0 ? f.v.data() : nullptr;
  simd::GemmTransB(u, v, f.m, f.n, f.k, accumulate, out->data());
  return Status::Ok();
}

}  // namespace

Status SufficientFactorCodec::DecodeReconstruct(const PayloadView& frame, Tensor* out) {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return ReconstructInto(*parsed, /*accumulate=*/false, out);
}

Status SufficientFactorCodec::AccumulateReconstruct(const Frame& frame, Tensor* out) {
  return ReconstructInto(frame, /*accumulate=*/true, out);
}

Status SufficientFactorCodec::Decode(const PayloadView& frame, Tensor* dense,
                                     std::vector<float>* bias) const {
  CHECK_NOTNULL(dense);
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  *dense = Tensor({parsed->m, parsed->n});
  const Status status = DecodeReconstruct(frame, dense);
  if (!status.ok()) {
    return status;
  }
  if (bias != nullptr) {
    AssignBias(parsed->bias, bias);
  }
  return Status::Ok();
}

Payload SufficientFactorCodec::Encode(const SufficientFactors& factors, const float* bias,
                                      int64_t bias_len) {
  TraceSpan span("codec.encode.sf", "codec");
  CHECK_GE(bias_len, 0);
  const int64_t m = factors.rows();
  const int64_t n = factors.cols();
  const int64_t k = factors.rank();
  const int64_t total = kSfHeaderWords + (m + n) * k + bias_len;
  Payload payload = Payload::Allocate(total);
  float* words = payload.data();
  StoreWord(words + 0, static_cast<uint32_t>(m));
  StoreWord(words + 1, static_cast<uint32_t>(n));
  StoreWord(words + 2, static_cast<uint32_t>(k));
  StoreWord(words + 3, static_cast<uint32_t>(bias_len));
  int64_t cursor = kSfHeaderWords;
  std::copy(factors.u.data(), factors.u.data() + m * k, words + cursor);
  cursor += m * k;
  std::copy(factors.v.data(), factors.v.data() + n * k, words + cursor);
  cursor += n * k;
  if (bias_len > 0) {
    CHECK_NOTNULL(bias);
    std::copy(bias, bias + bias_len, words + cursor);
  }
  WireCopyStats::Add((m + n) * k + bias_len);
  return payload;
}

// ---------------------------------------------------------------------- fp16

namespace {
constexpr int64_t kFp16HeaderWords = 2;

int64_t Fp16HalfWords(int64_t n) { return (n + 1) / 2; }
}  // namespace

uint16_t Fp16Codec::Frame::half(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, n);
  const uint32_t word = LoadWord(halves.data() + (i >> 1));
  return static_cast<uint16_t>((i & 1) ? word >> 16 : word & 0xFFFFu);
}

StatusOr<Fp16Codec::Frame> Fp16Codec::Parse(const PayloadView& frame) {
  StatusOr<int64_t> n = HeaderDim("fp16", frame, 0);
  if (!n.ok()) return n.status();
  StatusOr<int64_t> bias_len = HeaderDim("fp16", frame, 1);
  if (!bias_len.ok()) return bias_len.status();
  if (*n < 1) return BadDim("fp16", *n);
  const int64_t half_words = Fp16HalfWords(*n);
  const int64_t want = kFp16HeaderWords + half_words + *bias_len;
  if (frame.size() != want) {
    return want > frame.size()
               ? Truncated("fp16", want, frame.size())
               : InvalidArgumentError("fp16 frame has " + std::to_string(frame.size()) +
                                      " words, expected " + std::to_string(want));
  }
  Frame parsed;
  parsed.n = *n;
  parsed.bias_len = *bias_len;
  int64_t cursor = kFp16HeaderWords;
  parsed.halves = frame.Sub(cursor, half_words);
  cursor += half_words;
  parsed.bias = frame.Sub(cursor, *bias_len);
  return parsed;
}

StatusOr<int64_t> Fp16Codec::Validate(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->n + parsed->bias_len;
}

namespace {
void DecodeFp16(const Fp16Codec::Frame& f, Tensor* out) {
  TraceSpan span("codec.decode.fp16", "codec");
  // Stage the packed halves out of the slab once (compressed size, half of
  // dense), then unpack with the exact formula.
  std::vector<uint16_t> halves(static_cast<size_t>(f.n));
  std::memcpy(halves.data(), f.halves.data(), static_cast<size_t>(f.n) * sizeof(uint16_t));
  WireCopyStats::Add(f.halves.size());
  *out = Tensor({f.n});
  simd::Fp16Decode(halves.data(), f.n, out->data());
}
}  // namespace

Status Fp16Codec::DecodeDense(const PayloadView& frame, Tensor* out) {
  return DecodeParsed(Parse(frame), &DecodeFp16, out, nullptr);
}

Status Fp16Codec::Decode(const PayloadView& frame, Tensor* dense,
                         std::vector<float>* bias) const {
  return DecodeParsed(Parse(frame), &DecodeFp16, dense, bias);
}

Payload Fp16Codec::EncodeRn(const float* src, int64_t n) {
  TraceSpan span("codec.encode.fp16", "codec", n);
  CHECK_NOTNULL(src);
  CHECK_GT(n, 0);
  std::vector<uint16_t> halves(static_cast<size_t>(n));
  simd::Fp16EncodeRn(src, n, halves.data());
  const int64_t half_words = Fp16HalfWords(n);
  Payload payload = Payload::Allocate(kFp16HeaderWords + half_words);
  float* words = payload.data();
  StoreWord(words + 0, static_cast<uint32_t>(n));
  StoreWord(words + 1, 0);  // bias_len: replies carry no bias trailer
  if (n & 1) {
    // Zero the padding half in the last word so identical inputs always
    // serialize to identical bytes (the conformance suite memcmps frames).
    StoreWord(words + kFp16HeaderWords + half_words - 1, 0);
  }
  std::memcpy(words + kFp16HeaderWords, halves.data(),
              static_cast<size_t>(n) * sizeof(uint16_t));
  WireCopyStats::Add(half_words);
  return payload;
}

// ---------------------------------------------------------------------- int8

namespace {
constexpr int64_t kInt8HeaderWords = 2;

int64_t Int8Chunks(int64_t n) { return (n + simd::kInt8ChunkSize - 1) / simd::kInt8ChunkSize; }

int64_t Int8PackedWords(int64_t n) { return (n + 3) / 4; }

// 32-bit finalizer-style mixer (xor-shift + odd-constant multiplies, the
// lowbias32 recipe). The (seed, index) pair fully determines the rounding
// noise: seeding per (layer, clock) makes every replica's stochastic
// rounding identical (docs/COMPRESSION.md).
uint32_t MixBits(uint32_t seed, uint32_t index) {
  uint32_t h = index ^ seed;
  h ^= h >> 16;
  h *= 0x21f0aaadu;
  h ^= h >> 15;
  h *= 0x735a2d97u;
  h ^= h >> 15;
  return h;
}

// fp32 -> int8 with deterministic stochastic rounding:
//   t = src[i] * inv_scale; q = floor(t) + (frac(t) > r ? 1 : 0)
// with r a 24-bit uniform from the (seed, base_index + i) hash, clamped to
// [-127, 127] (NaN squashes to 0 so the cast is always defined). The noise
// is a pure function of the flat element index, so the encoding does not
// depend on how a layer is sliced across shards.
void Int8EncodeSr(const float* src, int64_t n, float inv_scale, uint32_t seed,
                  int64_t base_index, int8_t* out) {
  for (int64_t i = 0; i < n; ++i) {
    const float t = src[i] * inv_scale;
    const float fl = std::floor(t);
    const float frac = t - fl;
    const uint32_t h = MixBits(seed, static_cast<uint32_t>(base_index + i));
    // 24-bit uniform in [0, 1): the int -> float conversion and the
    // power-of-two multiply are both exact.
    const float r = static_cast<float>(h >> 8) * 0x1p-24f;
    float q = fl + (frac > r ? 1.0f : 0.0f);
    q = q > 127.0f ? 127.0f : q;
    q = q < -127.0f ? -127.0f : q;
    q = q == q ? q : 0.0f;  // NaN squash: the cast below must be defined
    out[i] = static_cast<int8_t>(static_cast<int32_t>(q));
  }
}

// out[i] = src[i] * scale (int8 -> fp32 is exact; one correctly-rounded
// multiply).
void Int8Decode(const int8_t* src, int64_t n, float scale, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(src[i]) * scale;
  }
}

// max_i |src[i]|, ignoring NaNs, 0 for n == 0.
float MaxAbs(const float* src, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(src[i]);
    m = a > m ? a : m;  // ordered compare: NaNs never enter the max
  }
  return m;
}

// residual = quant - decode(frame), computed as quant + (-approx): Scale by
// -1 is an exact sign flip and a + (-b) rounds identically to a - b, so the
// residual is the bitwise error-feedback carry. `residual` holds the decoded
// approximation on entry.
void FinishResidual(const float* quant, int64_t n, float* residual) {
  simd::Scale(residual, -1.0f, n);
  simd::ReduceAdd(residual, quant, n);
}
}  // namespace

StatusOr<Int8Codec::Frame> Int8Codec::Parse(const PayloadView& frame) {
  StatusOr<int64_t> n = HeaderDim("int8", frame, 0);
  if (!n.ok()) return n.status();
  StatusOr<int64_t> bias_len = HeaderDim("int8", frame, 1);
  if (!bias_len.ok()) return bias_len.status();
  if (*n < 1) return BadDim("int8", *n);
  const int64_t chunks = Int8Chunks(*n);
  const int64_t packed_words = Int8PackedWords(*n);
  const int64_t want = kInt8HeaderWords + chunks + packed_words + *bias_len;
  if (frame.size() != want) {
    return want > frame.size()
               ? Truncated("int8", want, frame.size())
               : InvalidArgumentError("int8 frame has " + std::to_string(frame.size()) +
                                      " words, expected " + std::to_string(want));
  }
  Frame parsed;
  parsed.n = *n;
  parsed.bias_len = *bias_len;
  int64_t cursor = kInt8HeaderWords;
  parsed.scales = frame.Sub(cursor, chunks);
  cursor += chunks;
  parsed.packed = frame.Sub(cursor, packed_words);
  cursor += packed_words;
  parsed.bias = frame.Sub(cursor, *bias_len);
  return parsed;
}

StatusOr<int64_t> Int8Codec::Validate(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->n + parsed->bias_len;
}

namespace {
void DecodeInt8(const Int8Codec::Frame& f, Tensor* out) {
  TraceSpan span("codec.decode.int8", "codec");
  // Stage the packed bytes out of the slab once (compressed size, a quarter
  // of dense), then dequantize chunk by chunk with that chunk's scale.
  std::vector<int8_t> packed(static_cast<size_t>(f.n));
  std::memcpy(packed.data(), f.packed.data(), static_cast<size_t>(f.n));
  WireCopyStats::Add(f.scales.size() + f.packed.size());
  *out = Tensor({f.n});
  for (int64_t off = 0, chunk = 0; off < f.n; off += simd::kInt8ChunkSize, ++chunk) {
    const int64_t len = std::min(simd::kInt8ChunkSize, f.n - off);
    Int8Decode(packed.data() + off, len, f.scales.data()[chunk], out->data() + off);
  }
}
}  // namespace

Status Int8Codec::DecodeDense(const PayloadView& frame, Tensor* out) {
  return DecodeParsed(Parse(frame), &DecodeInt8, out, nullptr);
}

Status Int8Codec::Decode(const PayloadView& frame, Tensor* dense,
                         std::vector<float>* bias) const {
  return DecodeParsed(Parse(frame), &DecodeInt8, dense, bias);
}

Payload Int8Codec::EncodeSr(const float* quant, int64_t n, uint32_t seed,
                            int64_t base_index, float* residual, const float* bias,
                            int64_t bias_len) {
  TraceSpan span("codec.encode.int8", "codec", n);
  CHECK_NOTNULL(quant);
  CHECK_GT(n, 0);
  CHECK_GE(bias_len, 0);
  const int64_t chunks = Int8Chunks(n);
  const int64_t packed_words = Int8PackedWords(n);
  std::vector<float> scales(static_cast<size_t>(chunks));
  std::vector<int8_t> packed(static_cast<size_t>(n));
  for (int64_t off = 0, chunk = 0; off < n; off += simd::kInt8ChunkSize, ++chunk) {
    const int64_t len = std::min(simd::kInt8ChunkSize, n - off);
    const float max_abs = MaxAbs(quant + off, len);
    // Good-guard: a chunk whose magnitude is zero or non-finite cannot be
    // scaled meaningfully; send scale 0 (decodes to exact zeros) and let the
    // residual carry the content forward.
    float scale = 0.0f;
    float inv_scale = 0.0f;
    if (max_abs > 0.0f && std::isfinite(max_abs)) {
      scale = max_abs / 127.0f;
      inv_scale = 1.0f / scale;
    }
    scales[static_cast<size_t>(chunk)] = scale;
    Int8EncodeSr(quant + off, len, inv_scale, seed, base_index + off, packed.data() + off);
    if (residual != nullptr) {
      Int8Decode(packed.data() + off, len, scale, residual + off);
    }
  }
  if (residual != nullptr) {
    FinishResidual(quant, n, residual);
  }
  Payload payload = Payload::Allocate(kInt8HeaderWords + chunks + packed_words + bias_len);
  float* words = payload.data();
  StoreWord(words + 0, static_cast<uint32_t>(n));
  StoreWord(words + 1, static_cast<uint32_t>(bias_len));
  int64_t cursor = kInt8HeaderWords;
  std::copy(scales.begin(), scales.end(), words + cursor);
  cursor += chunks;
  if (n & 3) {
    // Zero the padding bytes in the last word for byte-identical frames.
    StoreWord(words + cursor + packed_words - 1, 0);
  }
  std::memcpy(words + cursor, packed.data(), static_cast<size_t>(n));
  cursor += packed_words;
  if (bias_len > 0) {
    CHECK_NOTNULL(bias);
    std::copy(bias, bias + bias_len, words + cursor);
  }
  WireCopyStats::Add(chunks + packed_words + bias_len);
  return payload;
}

// --------------------------------------------------------------------- top-k

namespace {
constexpr int64_t kTopKHeaderWords = 3;
}  // namespace

int64_t TopKCodec::Frame::index(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, k);
  return static_cast<int64_t>(LoadWord(indices.data() + i));
}

StatusOr<TopKCodec::Frame> TopKCodec::Parse(const PayloadView& frame) {
  StatusOr<int64_t> n = HeaderDim("topk", frame, 0);
  if (!n.ok()) return n.status();
  StatusOr<int64_t> k = HeaderDim("topk", frame, 1);
  if (!k.ok()) return k.status();
  StatusOr<int64_t> bias_len = HeaderDim("topk", frame, 2);
  if (!bias_len.ok()) return bias_len.status();
  if (*n < 1) return BadDim("topk", *n);
  if (*k > *n) return BadDim("topk", *k);  // k = 0: a stripe with no selected element
  StatusOr<int64_t> pairs = CheckedMul("topk", 2, *k);
  if (!pairs.ok()) return pairs.status();
  const int64_t want = kTopKHeaderWords + *pairs + *bias_len;
  if (frame.size() != want) {
    return want > frame.size()
               ? Truncated("topk", want, frame.size())
               : InvalidArgumentError("topk frame has " + std::to_string(frame.size()) +
                                      " words, expected " + std::to_string(want));
  }
  Frame parsed;
  parsed.n = *n;
  parsed.k = *k;
  parsed.bias_len = *bias_len;
  int64_t cursor = kTopKHeaderWords;
  parsed.indices = frame.Sub(cursor, *k);
  cursor += *k;
  parsed.values = frame.Sub(cursor, *k);
  cursor += *k;
  parsed.bias = frame.Sub(cursor, *bias_len);
  // Indices must be strictly increasing and in-range: that proves no
  // duplicates and makes the scatter in DecodeDense memory-safe. O(k), paid
  // once per frame on the wire-input path.
  int64_t previous = -1;
  for (int64_t i = 0; i < *k; ++i) {
    const int64_t idx = static_cast<int64_t>(LoadWord(parsed.indices.data() + i));
    if (idx <= previous || idx >= *n) {
      return InvalidArgumentError("topk frame index " + std::to_string(idx) +
                                  " at position " + std::to_string(i) +
                                  " is out of order or out of range");
    }
    previous = idx;
  }
  return parsed;
}

StatusOr<int64_t> TopKCodec::Validate(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return parsed->n + parsed->bias_len;
}

namespace {
void DecodeTopK(const TopKCodec::Frame& f, Tensor* out) {
  TraceSpan span("codec.decode.topk", "codec");
  *out = Tensor({f.n});
  std::fill(out->data(), out->data() + f.n, 0.0f);
  float* od = out->data();
  const float* values = f.values.data();
  for (int64_t i = 0; i < f.k; ++i) {
    od[static_cast<int64_t>(LoadWord(f.indices.data() + i))] = values[i];
  }
  WireCopyStats::Add(2 * f.k);
}
}  // namespace

Status TopKCodec::DecodeDense(const PayloadView& frame, Tensor* out) {
  return DecodeParsed(Parse(frame), &DecodeTopK, out, nullptr);
}

Status TopKCodec::Decode(const PayloadView& frame, Tensor* dense,
                         std::vector<float>* bias) const {
  return DecodeParsed(Parse(frame), &DecodeTopK, dense, bias);
}

Payload TopKCodec::Encode(const float* quant, int64_t n, int64_t k, float* residual,
                          const float* bias, int64_t bias_len) {
  const std::vector<int64_t> selected = Select(quant, n, k);
  return EncodeSelected(quant, n, selected.data(), k, 0, residual, bias, bias_len);
}

std::vector<int64_t> TopKCodec::Select(const float* quant, int64_t n, int64_t k) {
  TraceSpan span("codec.encode.topk", "codec", n);
  CHECK_NOTNULL(quant);
  CHECK_GT(n, 0);
  CHECK_GE(k, 0);
  CHECK_LE(k, n);
  std::vector<int64_t> selected;
  if (k == 0) {
    return selected;
  }
  std::vector<float> mags(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(quant[i]);
    mags[static_cast<size_t>(i)] = a == a ? a : 0.0f;
  }
  std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                   [](float a, float b) { return a > b; });
  const float threshold = mags[static_cast<size_t>(k - 1)];
  int64_t ties_left = k - simd::CountAbsGreater(quant, n, threshold);
  selected.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < n && static_cast<int64_t>(selected.size()) < k; ++i) {
    const float a = std::fabs(quant[i]);
    const float mag = a == a ? a : 0.0f;
    bool take = mag > threshold;
    if (!take && mag == threshold && ties_left > 0) {
      take = true;
      --ties_left;
    }
    if (take) {
      selected.push_back(i);
    }
  }
  CHECK_EQ(static_cast<int64_t>(selected.size()), k);
  return selected;
}

Payload TopKCodec::EncodeSelected(const float* quant, int64_t n, const int64_t* selected,
                                  int64_t k, int64_t index_base, float* residual,
                                  const float* bias, int64_t bias_len) {
  TraceSpan span("codec.encode.topk", "codec", n);
  CHECK_NOTNULL(quant);
  CHECK_GT(n, 0);
  CHECK_GE(k, 0);
  CHECK_LE(k, n);
  CHECK_GE(bias_len, 0);
  Payload payload = Payload::Allocate(kTopKHeaderWords + 2 * k + bias_len);
  float* words = payload.data();
  StoreWord(words + 0, static_cast<uint32_t>(n));
  StoreWord(words + 1, static_cast<uint32_t>(k));
  StoreWord(words + 2, static_cast<uint32_t>(bias_len));
  float* indices = words + kTopKHeaderWords;
  float* values = indices + k;
  if (residual != nullptr) {
    std::copy(quant, quant + n, residual);
  }
  for (int64_t j = 0; j < k; ++j) {
    const int64_t i = selected[j] - index_base;
    CHECK(i >= 0 && i < n && (j == 0 || selected[j] > selected[j - 1]))
        << "top-k selection out of order or out of range";
    StoreWord(indices + j, static_cast<uint32_t>(i));
    values[j] = quant[i];
    if (residual != nullptr) {
      residual[i] = 0.0f;  // the sent value is exact; nothing carries over
    }
  }
  int64_t cursor = kTopKHeaderWords + 2 * k;
  if (bias_len > 0) {
    CHECK_NOTNULL(bias);
    std::copy(bias, bias + bias_len, words + cursor);
  }
  WireCopyStats::Add(2 * k + bias_len);
  return payload;
}

// ------------------------------------------------------------------ registry

namespace {

// The fixed codec table, indexed by WireCodec id.
const std::array<const Codec*, 6>& CodecTable() {
  static const RawFloatCodec raw;
  static const OneBitCodec onebit;
  static const SufficientFactorCodec sufficient_factor;
  static const Fp16Codec fp16;
  static const Int8Codec int8;
  static const TopKCodec topk;
  static const std::array<const Codec*, 6> table = {&raw,  &onebit, &sufficient_factor,
                                                    &fp16, &int8,   &topk};
  return table;
}

}  // namespace

const Codec& CodecRegistry::Get(WireCodec id) {
  const Codec* codec = Find(id);
  CHECK_NOTNULL(codec) << "unknown codec id " << static_cast<int>(id);
  return *codec;
}

const Codec* CodecRegistry::Find(WireCodec id) {
  const size_t index = static_cast<size_t>(id);
  return index < CodecTable().size() ? CodecTable()[index] : nullptr;
}

std::vector<WireCodec> CodecRegistry::Ids() {
  std::vector<WireCodec> ids;
  for (const Codec* codec : CodecTable()) {
    ids.push_back(codec->id());
  }
  return ids;
}

}  // namespace poseidon
