// Wire-format conformance: the socket transport must emit exactly the bytes
// docs/WIRE_FORMAT.md specifies — the same framing the cost model charges
// (kWireFrameBytes / kWireChunkHeaderBytes / kBatchEntryHeaderBytes) — and
// every codec's payload must decode bit-identically after the trip through
// EncodeMessageFrame/DecodeWireFrame.
//
// The committed golden fixture (tests/golden/wire_frames.hex) pins the exact
// byte stream: any header-layout, endianness, or codec-framing change breaks
// this test loudly instead of silently desynchronizing mixed-version
// clusters. Regenerate deliberately with POSEIDON_REGEN_GOLDEN=1 (the test
// still fails on a mismatch in the same run, so a regen is always visible).
//
// The same fixture seeds a mutational fuzzer over DecodeWireFrame and
// MessageBus::DeliverWire: hostile bytes from a peer process must come back
// as a non-OK Status, never as a crash or a sanitizer report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/onebit.h"
#include "src/tensor/sufficient_factor.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/message.h"
#include "src/transport/wire_format.h"

namespace poseidon {
namespace {

std::string GoldenPath() {
  const char* dir = std::getenv("POSEIDON_GOLDEN_DIR");
  return std::string(dir != nullptr ? dir : "tests/golden") + "/wire_frames.hex";
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<uint8_t> HexDecode(const std::string& hex) {
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  std::string name, hex;
  while (in >> name >> hex) {
    golden[name] = hex;
  }
  return golden;
}

// ------------------------------------------------- deterministic fixtures --

// Raw-float gradient push: two chunks at distinct layer offsets, sharing one
// slab (the zero-copy shape a coalesced PS push produces).
Message RawPush() {
  Message m;
  m.type = MessageType::kGradPush;
  m.codec = WireCodec::kRawFloat;
  m.from = Address{0, kSyncerPortBase + 3};
  m.to = Address{2, kServerPort + 1};
  m.layer = 3;
  m.worker = 0;
  m.iter = 7;
  m.seq = 5;
  static Payload slab = [] {
    Payload p = Payload::Allocate(8);
    for (int64_t i = 0; i < 8; ++i) {
      p.data()[i] = static_cast<float>(i) * 0.25f - 1.0f;
    }
    return p;
  }();
  m.chunks.push_back(WireChunk{0, slab.View(0, 4)});
  m.chunks.push_back(WireChunk{16, slab.View(4, 3)});
  return m;
}

// 1-bit push: a real quantizer encoding (sign words + column levels + bias).
Message OneBitPush() {
  Message m;
  m.type = MessageType::kOneBitPush;
  m.codec = WireCodec::kOneBit;
  m.from = Address{1, kSyncerPortBase + 1};
  m.to = Address{0, kServerPort};
  m.layer = 1;
  m.worker = 1;
  m.iter = 2;
  m.seq = 0;
  Tensor gradient({4, 6});
  for (int64_t i = 0; i < gradient.size(); ++i) {
    gradient.data()[i] = ((i % 3) - 1) * (0.5f + 0.125f * static_cast<float>(i));
  }
  const std::vector<float> bias = {0.5f, -0.25f, 1.5f, 0.0f, -1.0f, 2.0f};
  static OneBitQuantizer quantizer;
  static Payload frame = OneBitCodec::Encode(gradient, &quantizer, bias.data(),
                                             static_cast<int64_t>(bias.size()));
  m.chunks.push_back(WireChunk{0, frame.View()});
  return m;
}

// Sufficient-factor broadcast (worker-to-worker port space).
Message SfBroadcast() {
  Message m;
  m.type = MessageType::kSfBroadcast;
  m.codec = WireCodec::kSufficientFactor;
  m.from = Address{2, kSyncerPortBase};
  m.to = Address{0, kSyncerPortBase};
  m.layer = 0;
  m.worker = 2;
  m.iter = 3;
  m.seq = 9;
  SufficientFactors factors;
  factors.u = Tensor::FromVector({4, 1}, {1.0f, -2.0f, 0.5f, 4.0f});
  factors.v = Tensor::FromVector({3, 1}, {0.25f, 8.0f, -1.0f});
  const std::vector<float> bias = {-0.5f, 0.75f, 3.0f};
  static Payload frame = SufficientFactorCodec::Encode(
      factors, bias.data(), static_cast<int64_t>(bias.size()));
  m.chunks.push_back(WireChunk{0, frame.View()});
  return m;
}

// A batched frame exercising all three compressed port spaces (raw syncer
// port, collective port, monitor port) under one shared (from, to, iter).
std::vector<Message> BatchEntries() {
  static Payload slab = [] {
    Payload p = Payload::Allocate(6);
    for (int64_t i = 0; i < 6; ++i) {
      p.data()[i] = 1.0f / static_cast<float>(i + 1);
    }
    return p;
  }();
  Message a;
  a.type = MessageType::kGradPush;
  a.codec = WireCodec::kRawFloat;
  a.from = Address{1, kSyncerPortBase + 2};
  a.to = Address{3, kServerPort + 1};
  a.layer = 2;
  a.worker = 1;
  a.iter = 4;
  a.seq = 11;
  a.chunks.push_back(WireChunk{8, slab.View(0, 4)});

  Message b;
  b.type = MessageType::kCollective;
  b.codec = WireCodec::kRawFloat;
  b.from = Address{1, kCollectivePortBase + 2};
  b.to = Address{3, kCollectivePortBase + 2};
  b.layer = 2;
  b.worker = 1;
  b.iter = 4;
  b.step = 3;
  b.seq = 12;
  b.chunks.push_back(WireChunk{0, slab.View(4, 2)});

  Message c;
  c.type = MessageType::kHeartbeat;
  c.codec = WireCodec::kRawFloat;
  c.from = Address{1, kMonitorPort};
  c.to = Address{3, kMonitorPort};
  c.layer = -1;
  c.worker = 1;
  c.iter = 4;
  c.seq = -1;  // heartbeats ride unsequenced
  return {a, b, c};
}

void ExpectSameMessage(const Message& got, const Message& want) {
  EXPECT_EQ(static_cast<int>(got.type), static_cast<int>(want.type));
  EXPECT_EQ(static_cast<int>(got.codec), static_cast<int>(want.codec));
  EXPECT_TRUE(got.from == want.from)
      << got.from.node << ":" << got.from.port << " vs " << want.from.node
      << ":" << want.from.port;
  EXPECT_TRUE(got.to == want.to)
      << got.to.node << ":" << got.to.port << " vs " << want.to.node << ":"
      << want.to.port;
  EXPECT_EQ(got.layer, want.layer);
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.iter, want.iter);
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  for (size_t i = 0; i < got.chunks.size(); ++i) {
    EXPECT_EQ(got.chunks[i].offset, want.chunks[i].offset);
    ASSERT_EQ(got.chunks[i].view.size(), want.chunks[i].view.size());
    EXPECT_EQ(std::memcmp(got.chunks[i].view.data(), want.chunks[i].view.data(),
                          static_cast<size_t>(want.chunks[i].view.size()) *
                              sizeof(float)),
              0)
        << "payload words differ in chunk " << i;
  }
}

std::map<std::string, std::vector<uint8_t>> AllFrames() {
  std::map<std::string, std::vector<uint8_t>> frames;
  frames["raw_push"] = EncodeMessageFrame(RawPush());
  frames["onebit_push"] = EncodeMessageFrame(OneBitPush());
  frames["sf_broadcast"] = EncodeMessageFrame(SfBroadcast());
  frames["batch_mixed_ports"] = EncodeBatchFrame(BatchEntries());
  return frames;
}

// ------------------------------------------------------------------ tests --

TEST(WireConformanceTest, LayoutConstantsAreTheAccountedOnes) {
  // These constants are load-bearing for the protocol_sim cost model and the
  // golden fixture alike; they may never drift.
  EXPECT_EQ(kWireFrameBytes, 32);
  EXPECT_EQ(kWireChunkHeaderBytes, 16);
  EXPECT_EQ(kBatchEntryHeaderBytes, 12);
}

TEST(WireConformanceTest, FrameSizeIsExactlyTheAccountedWireBytes) {
  for (const Message& m : {RawPush(), OneBitPush(), SfBroadcast()}) {
    EXPECT_EQ(static_cast<int64_t>(EncodeMessageFrame(m).size()), m.WireBytes());
  }
  const std::vector<Message> batch = BatchEntries();
  int64_t expected = kWireFrameBytes;
  for (const Message& m : batch) {
    expected += kBatchEntryHeaderBytes + m.PayloadBytes();
  }
  EXPECT_EQ(static_cast<int64_t>(EncodeBatchFrame(batch).size()), expected);
}

TEST(WireConformanceTest, HeaderFieldsSitAtTheDocumentedOffsets) {
  const Message m = RawPush();
  const std::vector<uint8_t> frame = EncodeMessageFrame(m);
  ASSERT_GE(frame.size(), static_cast<size_t>(kWireFrameBytes));
  EXPECT_EQ(frame[0], static_cast<uint8_t>(m.type));
  EXPECT_EQ(frame[1], static_cast<uint8_t>(m.codec));
  EXPECT_EQ(frame[2] | (frame[3] << 8), 2);  // num_chunks, u16 LE
  EXPECT_EQ(frame[4] | (frame[5] << 8), 0);  // from.node, i16 LE
  EXPECT_EQ(frame[6] | (frame[7] << 8), 2);  // to.node
  EXPECT_EQ(static_cast<int>(frame[8]) | (frame[9] << 8) | (frame[10] << 16) |
                (frame[11] << 24),
            kSyncerPortBase + 3);  // from.port, i32 LE
  EXPECT_EQ(static_cast<int>(frame[12]) | (frame[13] << 8) | (frame[14] << 16) |
                (frame[15] << 24),
            kServerPort + 1);                  // to.port
  EXPECT_EQ(frame[16] | (frame[17] << 8), 3);  // layer, i16
  EXPECT_EQ(frame[18] | (frame[19] << 8), 0);  // worker
  EXPECT_EQ(static_cast<int16_t>(frame[20] | (frame[21] << 8)), -1);  // step
  EXPECT_EQ(frame[22] | (frame[23] << 8), 0);  // flags
  EXPECT_EQ(static_cast<int>(frame[24]) | (frame[25] << 8) | (frame[26] << 16) |
                (frame[27] << 24),
            7);  // iter
  EXPECT_EQ(static_cast<int>(frame[28]) | (frame[29] << 8) | (frame[30] << 16) |
                (frame[31] << 24),
            5);  // seq
  EXPECT_FALSE(IsBatchFrame(frame.data(), static_cast<int64_t>(frame.size())));
  const std::vector<uint8_t> batch = EncodeBatchFrame(BatchEntries());
  EXPECT_EQ(batch[0], kWireBatchType);
  EXPECT_TRUE(IsBatchFrame(batch.data(), static_cast<int64_t>(batch.size())));
}

TEST(WireConformanceTest, GoldenBytesMatchTheCommittedFixture) {
  const auto frames = AllFrames();
  if (std::getenv("POSEIDON_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const auto& [name, bytes] : frames) {
      out << name << " " << HexEncode(bytes) << "\n";
    }
    out.close();
    std::fprintf(stderr, "regenerated %s\n", GoldenPath().c_str());
  }
  const auto golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing fixture " << GoldenPath();
  for (const auto& [name, bytes] : frames) {
    auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "fixture lacks frame " << name
                                << " (regen with POSEIDON_REGEN_GOLDEN=1)";
    EXPECT_EQ(HexEncode(bytes), it->second)
        << "frame " << name << " drifted from the committed wire format";
  }
  EXPECT_EQ(golden.size(), frames.size()) << "stale extra frames in fixture";
}

TEST(WireConformanceTest, SingleFramesDecodeBitExactly) {
  for (const Message& original : {RawPush(), OneBitPush(), SfBroadcast()}) {
    const std::vector<uint8_t> frame = EncodeMessageFrame(original);
    std::vector<Message> decoded;
    const Status status =
        DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(decoded.size(), 1u);
    ExpectSameMessage(decoded[0], original);
    EXPECT_EQ(decoded[0].send_ns, 0) << "send_ns must never cross the wire";
  }
}

TEST(WireConformanceTest, BatchFramesDecodeBitExactly) {
  const std::vector<Message> originals = BatchEntries();
  const std::vector<uint8_t> frame = EncodeBatchFrame(originals);
  std::vector<Message> decoded;
  const Status status =
      DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(decoded.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    SCOPED_TRACE("batch entry " + std::to_string(i));
    ExpectSameMessage(decoded[i], originals[i]);
  }
}

TEST(WireConformanceTest, DecodedPayloadsReconstructThroughTheCodecRegistry) {
  // The receiver's real consumption path: look the codec up by the id in the
  // frame header and decode the chunk views. Dense reconstructions must be
  // bitwise identical before and after the socket trip.
  for (const Message& original : {OneBitPush(), SfBroadcast()}) {
    const std::vector<uint8_t> frame = EncodeMessageFrame(original);
    std::vector<Message> decoded;
    ASSERT_TRUE(
        DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded)
            .ok());
    ASSERT_EQ(decoded.size(), 1u);
    const Codec* codec = CodecRegistry::Find(decoded[0].codec);
    ASSERT_NE(codec, nullptr);
    Tensor before, after;
    std::vector<float> bias_before, bias_after;
    ASSERT_TRUE(
        codec->Decode(original.chunks[0].view, &before, &bias_before).ok());
    ASSERT_TRUE(
        codec->Decode(decoded[0].chunks[0].view, &after, &bias_after).ok());
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          static_cast<size_t>(before.size()) * sizeof(float)),
              0);
    EXPECT_EQ(bias_before, bias_after);
  }
}

TEST(WireConformanceTest, MalformedFramesReturnStatusNotCrash) {
  const std::vector<uint8_t> frame = EncodeMessageFrame(RawPush());
  std::vector<Message> decoded;
  // Truncations at every boundary: header, chunk header, payload.
  for (int64_t size : {int64_t{0}, int64_t{5}, kWireFrameBytes - 1,
                       kWireFrameBytes + 3, kWireFrameBytes + kWireChunkHeaderBytes,
                       static_cast<int64_t>(frame.size()) - 1}) {
    decoded.clear();
    EXPECT_FALSE(DecodeWireFrame(frame.data(), size, &decoded).ok())
        << "truncation to " << size << " bytes decoded successfully";
  }
  // Trailing garbage must be rejected, not ignored.
  std::vector<uint8_t> padded = frame;
  padded.push_back(0xAB);
  decoded.clear();
  EXPECT_FALSE(
      DecodeWireFrame(padded.data(), static_cast<int64_t>(padded.size()), &decoded)
          .ok());
}

// ---------------------------------------------------------------- fuzzing --

// One seeded mutation of `frame`: a bit flip, a byte overwrite, an aligned
// 32-bit field set to 0 or 0xffffffff, a truncation, or an insertion.
std::vector<uint8_t> Mutate(std::vector<uint8_t> frame, Rng* rng) {
  const auto pick = [&](size_t bound) {
    return static_cast<size_t>(rng->NextBounded(std::max<size_t>(bound, 1)));
  };
  switch (rng->NextBounded(5)) {
    case 0:
      if (!frame.empty()) {
        frame[pick(frame.size())] ^= static_cast<uint8_t>(1u << rng->NextBounded(8));
      }
      break;
    case 1:
      if (!frame.empty()) {
        frame[pick(frame.size())] = static_cast<uint8_t>(rng->Next());
      }
      break;
    case 2:
      if (frame.size() >= 4) {
        const size_t at = pick(frame.size() / 4) * 4;
        std::memset(frame.data() + at, rng->NextBounded(2) == 0 ? 0x00 : 0xff, 4);
      }
      break;
    case 3:
      frame.resize(pick(frame.size()));
      break;
    default: {
      const size_t at = pick(frame.size() + 1);
      std::vector<uint8_t> extra(1 + pick(16));
      for (uint8_t& b : extra) {
        b = static_cast<uint8_t>(rng->Next());
      }
      frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(at), extra.begin(),
                   extra.end());
      break;
    }
  }
  return frame;
}

// The bus side needs an attached transport; frames only ever arrive here.
class IngressOnlyTransport : public Transport {
 public:
  const char* name() const override { return "fuzz"; }
  bool IsLocal(int /*node*/) const override { return true; }
  Status SendFrame(int /*src_node*/, int /*dst_node*/,
                   std::vector<uint8_t> /*frame*/) override {
    return InternalError("ingress-only transport");
  }
};

// A bus like a receiving process's: the endpoints the fixture frames
// address are registered and link accounting is on, so accepted frames run
// the whole ingress path (reorder buffer, link stats, mailbox push).
struct FuzzBus {
  explicit FuzzBus(const std::vector<Address>& endpoints) : bus(4) {
    bus.AttachTransport(std::make_shared<IngressOnlyTransport>());
    bus.EnableLinkStats();
    for (const Address& address : endpoints) {
      mailboxes.push_back(bus.Register(address));
    }
  }
  ~FuzzBus() { bus.CloseAll(); }

  void Drain() {
    for (auto& mailbox : mailboxes) {
      while (mailbox->TryPop().has_value()) {
      }
    }
  }

  MessageBus bus;
  std::vector<std::shared_ptr<MessageBus::Mailbox>> mailboxes;
};

TEST(WireFuzzTest, MutatedGoldenFramesAreRejectedOrDeliveredNeverCrash) {
  std::vector<std::vector<uint8_t>> seeds;
  std::vector<Address> endpoints;
  for (const auto& [name, hex] : ReadGolden()) {
    seeds.push_back(HexDecode(hex));
    std::vector<Message> decoded;
    ASSERT_TRUE(DecodeWireFrame(seeds.back().data(),
                                static_cast<int64_t>(seeds.back().size()), &decoded)
                    .ok())
        << name;
    for (const Message& m : decoded) {
      if (std::find(endpoints.begin(), endpoints.end(), m.to) == endpoints.end()) {
        endpoints.push_back(m.to);
      }
    }
  }
  ASSERT_EQ(seeds.size(), 4u) << "missing fixture " << GoldenPath();

  // Mutations stack up to four deep; a fresh bus every round keeps the
  // reorder buffer's parked gaps far below its overflow bound.
  constexpr int kRounds = 32;
  constexpr int kMutationsPerSeed = 500;
  Rng rng(0x5eedf00d);
  int64_t accepted = 0;
  int64_t rejected = 0;
  for (int round = 0; round < kRounds; ++round) {
    FuzzBus fuzz(endpoints);
    for (const std::vector<uint8_t>& seed : seeds) {
      for (int i = 0; i < kMutationsPerSeed; ++i) {
        std::vector<uint8_t> frame = seed;
        const int depth = 1 + static_cast<int>(rng.NextBounded(4));
        for (int d = 0; d < depth; ++d) {
          frame = Mutate(std::move(frame), &rng);
        }
        const int64_t size = static_cast<int64_t>(frame.size());
        std::vector<Message> decoded;
        const bool decodes = DecodeWireFrame(frame.data(), size, &decoded).ok();
        const bool delivered = fuzz.bus.DeliverWire(frame.data(), size).ok();
        if (!decodes) {
          EXPECT_FALSE(delivered) << "the bus accepted a frame the decoder rejects";
        }
        (delivered ? accepted : rejected) += 1;
        fuzz.Drain();
      }
    }
  }
  // Both outcomes must be exercised, or the mutator is too weak (everything
  // accepted) or too strong (nothing reaches past the header checks).
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  std::printf("wire fuzz: %lld accepted, %lld rejected\n",
              static_cast<long long>(accepted), static_cast<long long>(rejected));
}

}  // namespace
}  // namespace poseidon
