#include "src/poseidon/coordinator.h"

#include "src/common/logging.h"
#include "src/simd/quant.h"

namespace poseidon {

Coordinator::Coordinator(Network& net, const ClusterInfo& cluster) : cluster_(cluster) {
  CHECK_GT(cluster_.num_workers, 0);
  CHECK_GT(cluster_.num_servers, 0);
  CHECK_GT(cluster_.shards_per_server, 0);
  CHECK_GE(cluster_.staleness, 0);
  CHECK_GT(cluster_.kv_pair_bytes, 0);
  const int64_t pair_floats = std::max<int64_t>(1, cluster_.kv_pair_bytes / 4);

  // Round-robin cursor over the flat shard-endpoint space, across *all*
  // pairs, all layers. The mapping is server-major — endpoint g lives on
  // server g % num_servers, shard (g / num_servers) % shards — so
  // consecutive pairs alternate server nodes first and shards second: a
  // layer with fewer pairs than endpoints still spreads its traffic over
  // every server NIC, and with one shard per server the cursor reduces to
  // the seed's round-robin over servers exactly.
  const int shards = cluster_.shards_per_server;
  const int num_endpoints = cluster_.num_servers * shards;
  int next_endpoint = 0;
  for (int l = 0; l < net.num_layers(); ++l) {
    Layer& layer = net.layer(l);
    LayerInfo info;
    info.name = layer.name();
    info.type = layer.type();
    info.fc_m = layer.fc_m();
    info.fc_n = layer.fc_n();
    info.total_floats = layer.num_params();

    int64_t offset = 0;
    int chunk = 0;
    while (offset < info.total_floats) {
      KvPairInfo pair;
      pair.layer = l;
      pair.chunk = chunk++;
      pair.offset = offset;
      pair.length = std::min(pair_floats, info.total_floats - offset);
      pair.server = next_endpoint % cluster_.num_servers;
      pair.shard = (next_endpoint / cluster_.num_servers) % shards;
      next_endpoint = (next_endpoint + 1) % num_endpoints;
      offset += pair.length;
      info.pairs.push_back(pair);
    }
    layers_.push_back(std::move(info));
  }
}

const LayerInfo& Coordinator::layer(int l) const {
  CHECK_GE(l, 0);
  CHECK_LT(l, num_layers());
  return layers_[static_cast<size_t>(l)];
}

StatusOr<int64_t> Coordinator::Query(const std::string& property) const {
  if (property == "n_worker") {
    return static_cast<int64_t>(cluster_.num_workers);
  }
  if (property == "n_server") {
    return static_cast<int64_t>(cluster_.num_servers);
  }
  if (property == "n_shard") {
    return static_cast<int64_t>(cluster_.shards_per_server);
  }
  if (property == "staleness") {
    return static_cast<int64_t>(cluster_.staleness);
  }
  if (property == "batchsize") {
    return static_cast<int64_t>(cluster_.batch_per_worker);
  }
  if (property == "n_layer") {
    return static_cast<int64_t>(num_layers());
  }
  if (property == "kv_pair_bytes") {
    return cluster_.kv_pair_bytes;
  }
  return NotFoundError("unknown property: " + property);
}

PlannedScheme Coordinator::BestScheme(int l) const {
  const LayerInfo& info = layer(l);
  LayerSpec spec;
  spec.name = info.name;
  spec.type = info.type;
  spec.fc_m = info.fc_m;
  spec.fc_n = info.fc_n;
  return poseidon::BestScheme(spec, cluster_.batch_per_worker, cluster_.num_workers,
                              cluster_.num_servers);
}

StatusOr<PlannedScheme> Coordinator::BestScheme(const std::string& layer_name) const {
  for (int l = 0; l < num_layers(); ++l) {
    if (layers_[static_cast<size_t>(l)].name == layer_name) {
      return BestScheme(l);
    }
  }
  return NotFoundError("unknown layer: " + layer_name);
}

std::vector<KvPairInfo> Coordinator::PairsOnShard(int l, const PlanLayerChoice& choice,
                                                  int server, int shard) const {
  std::vector<KvPairInfo> pairs;
  if (choice.scheme == PlannedScheme::kOneBit) {
    const int owner_server = l % cluster_.num_servers;
    const int owner_shard = (l / cluster_.num_servers) % cluster_.shards_per_server;
    if (server == owner_server && shard == owner_shard) {
      KvPairInfo whole;
      whole.layer = l;
      whole.length = layer(l).total_floats;
      whole.server = owner_server;
      whole.shard = owner_shard;
      pairs.push_back(whole);
    }
  } else if (choice.scheme == PlannedScheme::kPS) {
    const bool striped = choice.compression != GradCompression::kNone;
    for (const KvPairInfo& pair : striped ? CompressedStripes(l) : layer(l).pairs) {
      if (pair.server == server && pair.shard == shard) {
        pairs.push_back(pair);
      }
    }
  }
  return pairs;
}

std::vector<KvPairInfo> Coordinator::CompressedStripes(int l) const {
  const LayerInfo& info = layer(l);
  std::vector<KvPairInfo> stripes;
  if (info.pairs.empty()) {
    return stripes;
  }
  // Stripe bounds fall on int8 chunk boundaries of the whole layer, so a
  // stripe's int8 scales are the whole-layer frame's; top-k selects
  // layer-wide (Syncer::SendPs). The cut never changes a bit.
  const int64_t chunk = simd::kInt8ChunkSize;
  const int64_t chunks = (info.total_floats + chunk - 1) / chunk;
  const int64_t pair_chunks = std::max<int64_t>(1, cluster_.kv_pair_bytes / 4 / chunk);
  const int num_servers = cluster_.num_servers;
  const int num_endpoints = num_servers * cluster_.shards_per_server;
  const int64_t count = std::max(std::min<int64_t>(num_endpoints, chunks),
                                 (chunks + pair_chunks - 1) / pair_chunks);
  const int first = info.pairs[0].shard * num_servers + info.pairs[0].server;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t begin = i * chunks / count * chunk;
    const int64_t end = std::min(info.total_floats, (i + 1) * chunks / count * chunk);
    const int endpoint = static_cast<int>((first + i) % num_endpoints);
    KvPairInfo stripe;
    stripe.layer = l;
    stripe.chunk = static_cast<int>(i);
    stripe.offset = begin;
    stripe.length = end - begin;
    stripe.server = endpoint % num_servers;
    stripe.shard = endpoint / num_servers;
    stripes.push_back(stripe);
  }
  return stripes;
}

}  // namespace poseidon
