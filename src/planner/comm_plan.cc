#include "src/planner/comm_plan.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace poseidon {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvBytes(uint64_t h, const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvString(uint64_t h, const std::string& s) {
  h = FnvBytes(h, s.data(), s.size());
  return FnvBytes(h, "\0", 1);  // length delimiter: "ab","c" != "a","bc"
}

uint64_t FnvU64(uint64_t h, uint64_t v) { return FnvBytes(h, &v, sizeof(v)); }

uint64_t FnvDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64(h, bits);
}

// Canonical double formatting: %.17g round-trips every IEEE double, so a
// regenerated plan reproduces its JSON byte for byte.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

StatusOr<GradCompression> CompressionFromName(const std::string& name) {
  if (name == "none") return GradCompression::kNone;
  if (name == "int8") return GradCompression::kInt8;
  if (name == "topk") return GradCompression::kTopK;
  return InvalidArgumentError("unknown compression '" + name + "'");
}

StatusOr<PlannedScheme> SchemeFromName(const std::string& name) {
  if (name == "none") return PlannedScheme::kNone;
  if (name == "PS") return PlannedScheme::kPS;
  if (name == "SFB") return PlannedScheme::kSFB;
  if (name == "Ring") return PlannedScheme::kRing;
  if (name == "Tree") return PlannedScheme::kTree;
  if (name == "1bit") return PlannedScheme::kOneBit;
  return InvalidArgumentError("unknown scheme '" + name + "'");
}

// Minimal scanner for the plan's own canonical JSON (flat keys plus one
// "layers" array of flat objects). Not a general JSON parser; Find* report
// NotFound so FromJson rejects foreign or truncated input instead of
// guessing.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  /// The raw value token after `"key":` at or after `from` (object-local
  /// search when `until` bounds the enclosing object).
  StatusOr<std::string> Raw(const std::string& key, size_t from = 0,
                            size_t until = std::string::npos) const {
    const std::string needle = "\"" + key + "\"";
    size_t pos = text_.find(needle, from);
    if (pos == std::string::npos || (until != std::string::npos && pos >= until)) {
      return NotFoundError("missing key '" + key + "'");
    }
    pos = text_.find(':', pos + needle.size());
    if (pos == std::string::npos) {
      return InvalidArgumentError("no ':' after key '" + key + "'");
    }
    ++pos;
    while (pos < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos]))) {
      ++pos;
    }
    if (pos >= text_.size()) {
      return InvalidArgumentError("truncated value for key '" + key + "'");
    }
    if (text_[pos] == '"') {
      std::string out;
      for (size_t i = pos + 1; i < text_.size(); ++i) {
        if (text_[i] == '\\' && i + 1 < text_.size()) {
          out.push_back(text_[++i]);
          continue;
        }
        if (text_[i] == '"') {
          return out;
        }
        out.push_back(text_[i]);
      }
      return InvalidArgumentError("unterminated string for key '" + key + "'");
    }
    size_t end = pos;
    while (end < text_.size() && text_[end] != ',' && text_[end] != '}' &&
           text_[end] != ']' && !std::isspace(static_cast<unsigned char>(text_[end]))) {
      ++end;
    }
    return text_.substr(pos, end - pos);
  }

  StatusOr<double> Number(const std::string& key, size_t from = 0,
                          size_t until = std::string::npos) const {
    StatusOr<std::string> raw = Raw(key, from, until);
    if (!raw.ok()) {
      return raw.status();
    }
    char* end = nullptr;
    const double v = std::strtod(raw->c_str(), &end);
    if (end == raw->c_str()) {
      return InvalidArgumentError("non-numeric value for key '" + key + "'");
    }
    return v;
  }

  const std::string& text() const { return text_; }

 private:
  const std::string& text_;
};

}  // namespace

uint64_t CommPlan::ComputeHash() const {
  uint64_t h = kFnvOffset;
  h = FnvString(h, model);
  h = FnvString(h, signature);
  h = FnvU64(h, static_cast<uint64_t>(ps_shards));
  h = FnvU64(h, static_cast<uint64_t>(staleness));
  h = FnvU64(h, batch_egress ? 1 : 0);
  h = FnvDouble(h, topk_density);
  h = FnvU64(h, layers.size());
  for (const PlanLayerChoice& choice : layers) {
    h = FnvString(h, choice.layer);
    h = FnvU64(h, static_cast<uint64_t>(choice.scheme));
    h = FnvU64(h, static_cast<uint64_t>(choice.compression));
    h = FnvDouble(h, choice.predicted_bytes);
  }
  h = FnvDouble(h, predicted_wire_bytes);
  h = FnvDouble(h, predicted_framing_bytes);
  h = FnvDouble(h, predicted_msgs);
  h = FnvDouble(h, predicted_time_s);
  h = FnvDouble(h, planned_gbps);
  return h;
}

std::string CommPlan::ToJson() const {
  std::string out;
  out += "{\n";
  out += "  \"plan\": \"comm_plan\",\n";
  out += "  \"model\": \"";
  AppendEscaped(&out, model);
  out += "\",\n";
  out += "  \"signature\": \"";
  AppendEscaped(&out, signature);
  out += "\",\n";
  char hash_hex[32];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, hash);
  out += "  \"hash\": \"";
  out += hash_hex;
  out += "\",\n";
  out += "  \"ps_shards\": " + std::to_string(ps_shards) + ",\n";
  out += "  \"staleness\": " + std::to_string(staleness) + ",\n";
  out += "  \"batch_egress\": " + std::string(batch_egress ? "true" : "false") + ",\n";
  out += "  \"topk_density\": " + FormatDouble(topk_density) + ",\n";
  out += "  \"predicted_wire_bytes\": " + FormatDouble(predicted_wire_bytes) + ",\n";
  out += "  \"predicted_framing_bytes\": " + FormatDouble(predicted_framing_bytes) + ",\n";
  out += "  \"predicted_msgs\": " + FormatDouble(predicted_msgs) + ",\n";
  out += "  \"predicted_time_s\": " + FormatDouble(predicted_time_s) + ",\n";
  out += "  \"planned_gbps\": " + FormatDouble(planned_gbps) + ",\n";
  out += "  \"layers\": [\n";
  for (size_t i = 0; i < layers.size(); ++i) {
    const PlanLayerChoice& choice = layers[i];
    out += "    {\"name\": \"";
    AppendEscaped(&out, choice.layer);
    out += "\", \"scheme\": \"";
    out += PlannedSchemeName(choice.scheme);
    out += "\", \"compression\": \"";
    out += GradCompressionName(choice.compression);
    out += "\", \"bytes\": " + FormatDouble(choice.predicted_bytes) + "}";
    out += i + 1 < layers.size() ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

StatusOr<CommPlan> CommPlan::FromJson(const std::string& json) {
  JsonScanner scan(json);
  StatusOr<std::string> kind = scan.Raw("plan");
  if (!kind.ok()) {
    return kind.status();
  }
  if (*kind != "comm_plan") {
    return InvalidArgumentError("not a comm_plan dump (plan = '" + *kind + "')");
  }
  CommPlan plan;
#define POSEIDON_PLAN_FIELD(expr, target)     \
  do {                                        \
    auto value_ = (expr);                     \
    if (!value_.ok()) return value_.status(); \
    target = *value_;                         \
  } while (false)
  POSEIDON_PLAN_FIELD(scan.Raw("model"), plan.model);
  POSEIDON_PLAN_FIELD(scan.Raw("signature"), plan.signature);
  std::string hash_hex;
  POSEIDON_PLAN_FIELD(scan.Raw("hash"), hash_hex);
  plan.hash = std::strtoull(hash_hex.c_str(), nullptr, 16);
  double value = 0.0;
  POSEIDON_PLAN_FIELD(scan.Number("ps_shards"), value);
  plan.ps_shards = static_cast<int>(value);
  POSEIDON_PLAN_FIELD(scan.Number("staleness"), value);
  plan.staleness = static_cast<int>(value);
  std::string flag;
  POSEIDON_PLAN_FIELD(scan.Raw("batch_egress"), flag);
  plan.batch_egress = flag == "true";
  POSEIDON_PLAN_FIELD(scan.Number("topk_density"), plan.topk_density);
  POSEIDON_PLAN_FIELD(scan.Number("predicted_wire_bytes"), plan.predicted_wire_bytes);
  POSEIDON_PLAN_FIELD(scan.Number("predicted_framing_bytes"),
                      plan.predicted_framing_bytes);
  POSEIDON_PLAN_FIELD(scan.Number("predicted_msgs"), plan.predicted_msgs);
  POSEIDON_PLAN_FIELD(scan.Number("predicted_time_s"), plan.predicted_time_s);
  POSEIDON_PLAN_FIELD(scan.Number("planned_gbps"), plan.planned_gbps);

  const size_t layers_pos = json.find("\"layers\"");
  if (layers_pos == std::string::npos) {
    return InvalidArgumentError("missing layers array");
  }
  size_t cursor = json.find('[', layers_pos);
  if (cursor == std::string::npos) {
    return InvalidArgumentError("malformed layers array");
  }
  const size_t layers_end = json.find(']', cursor);
  if (layers_end == std::string::npos) {
    return InvalidArgumentError("unterminated layers array");
  }
  while (true) {
    const size_t open = json.find('{', cursor);
    if (open == std::string::npos || open > layers_end) {
      break;
    }
    const size_t close = json.find('}', open);
    if (close == std::string::npos || close > layers_end) {
      return InvalidArgumentError("unterminated layer object");
    }
    PlanLayerChoice choice;
    POSEIDON_PLAN_FIELD(scan.Raw("name", open, close), choice.layer);
    std::string scheme_name;
    POSEIDON_PLAN_FIELD(scan.Raw("scheme", open, close), scheme_name);
    POSEIDON_PLAN_FIELD(SchemeFromName(scheme_name), choice.scheme);
    std::string codec_name;
    POSEIDON_PLAN_FIELD(scan.Raw("compression", open, close), codec_name);
    POSEIDON_PLAN_FIELD(CompressionFromName(codec_name), choice.compression);
    POSEIDON_PLAN_FIELD(scan.Number("bytes", open, close), choice.predicted_bytes);
    plan.layers.push_back(std::move(choice));
    cursor = close + 1;
  }
#undef POSEIDON_PLAN_FIELD
  if (plan.hash != plan.ComputeHash()) {
    return InvalidArgumentError("plan content hash mismatch (edited or corrupt dump)");
  }
  return plan;
}

Status CommPlan::SaveToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return UnavailableError("cannot open '" + path + "' for writing");
  }
  out << ToJson();
  out.flush();
  if (!out) {
    return UnavailableError("short write to '" + path + "'");
  }
  return Status::Ok();
}

StatusOr<CommPlan> CommPlan::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open plan file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJson(buffer.str());
}

std::string CommPlan::Summary() const {
  std::ostringstream out;
  out << "plan " << model << " (shards=" << ps_shards << " staleness=" << staleness
      << " batch_egress=" << (batch_egress ? 1 : 0) << " bytes/iter="
      << predicted_wire_bytes << ")\n";
  for (const PlanLayerChoice& choice : layers) {
    if (choice.scheme == PlannedScheme::kNone) {
      continue;
    }
    out << "  " << choice.layer << ": " << PlannedSchemeName(choice.scheme);
    if (choice.compression != GradCompression::kNone) {
      out << "+" << GradCompressionName(choice.compression);
    }
    out << " (" << choice.predicted_bytes << " B)\n";
  }
  return out.str();
}

const PlanLayerChoice* CommPlan::Find(const std::string& layer_name) const {
  for (const PlanLayerChoice& choice : layers) {
    if (choice.layer == layer_name) {
      return &choice;
    }
  }
  return nullptr;
}

KvCodecs KvWireCodecs(const PlanLayerChoice& choice) {
  if (choice.scheme == PlannedScheme::kOneBit) {
    return {WireCodec::kOneBit, WireCodec::kRawFloat};
  }
  if (choice.scheme != PlannedScheme::kPS) {
    return {};
  }
  switch (choice.compression) {
    case GradCompression::kNone:
      return {};
    case GradCompression::kInt8:
      return {WireCodec::kInt8, WireCodec::kFp16};
    case GradCompression::kTopK:
      return {WireCodec::kTopK, WireCodec::kFp16};
  }
  return {};
}

bool NeedsWeightGrad(const PlanLayerChoice& choice) {
  return choice.scheme != PlannedScheme::kSFB;
}

}  // namespace poseidon
