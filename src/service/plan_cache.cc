#include "service/plan_cache.h"

#include <algorithm>

#include "common/string_util.h"

namespace beas {

namespace {

/// Two entries are the same variant iff their slot types, frozen slots
/// and frozen values coincide.
bool SameSignature(const PlanCache::Entry& a, const PlanCache::Entry& b) {
  return a.prepared->substitutable == b.prepared->substitutable &&
         AcceptsParams(*a.prepared, b.prepared->params);
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  return StringPrintf(
      "plan cache: %llu hits, %llu misses, %llu evictions, "
      "%llu invalidations, %llu uncacheable, %zu resident",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(uncacheable), entries);
}

PlanCache::PlanCache(size_t capacity, size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  capacity_per_shard_ = std::max<size_t>(1, capacity / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const PlanCache::Entry> PlanCache::Lookup(
    const QueryTemplate& key, const std::vector<Value>& params) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key.canonical);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  std::vector<std::shared_ptr<const Entry>>& variants =
      it->second->second.variants;
  for (size_t v = 0; v < variants.size(); ++v) {
    if (!AcceptsParams(*variants[v]->prepared, params)) continue;
    // Freshen both the variant and the template.
    if (v != 0) std::rotate(variants.begin(), variants.begin() + v,
                            variants.begin() + v + 1);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.hits;
    return variants.front();
  }
  ++shard.misses;  // template known, but no variant accepts these params
  return nullptr;
}

void PlanCache::Insert(const QueryTemplate& key,
                       std::shared_ptr<const Entry> entry) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key.canonical);
  if (it != shard.map.end()) {
    std::vector<std::shared_ptr<const Entry>>& variants =
        it->second->second.variants;
    bool replaced = false;
    for (size_t v = 0; v < variants.size(); ++v) {
      if (SameSignature(*variants[v], *entry)) {
        variants.erase(variants.begin() + v);
        replaced = true;
        break;
      }
    }
    variants.insert(variants.begin(), std::move(entry));
    if (!replaced) {
      ++shard.entry_count;
      if (variants.size() > kMaxVariantsPerTemplate) {
        variants.pop_back();
        --shard.entry_count;
        ++shard.evictions;
      }
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  Node node;
  node.variants.push_back(std::move(entry));
  shard.lru.emplace_front(key.canonical, std::move(node));
  shard.map[key.canonical] = shard.lru.begin();
  ++shard.entry_count;
  while (shard.lru.size() > capacity_per_shard_) {
    size_t dropped = shard.lru.back().second.variants.size();
    shard.evictions += dropped;
    shard.entry_count -= dropped;
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
  }
}

void PlanCache::InvalidateTable(const std::string& table) {
  std::string needle = ToLower(table);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const auto& tables = it->second.variants.front()->tables;
      if (std::find(tables.begin(), tables.end(), needle) != tables.end()) {
        shard.invalidations += it->second.variants.size();
        shard.entry_count -= it->second.variants.size();
        shard.map.erase(it->first);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PlanCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
    shard.lru.clear();
    shard.entry_count = 0;
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
    out.invalidations += shard.invalidations;
    out.entries += shard.entry_count;
  }
  out.uncacheable = uncacheable_.load();
  return out;
}

}  // namespace beas
