#include "src/core/compile_cache.h"

#include "src/support/contracts.h"

namespace sdaf::core {

CompileCache::CompileCache(std::size_t capacity) : capacity_(capacity) {
  SDAF_EXPECTS(capacity >= 1);
}

std::string CompileCache::signature(const StreamGraph& g,
                                    const CompileOptions& options) {
  std::string key;
  key.reserve(16 + g.edge_count() * 12);
  key += 'n';
  key += std::to_string(g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    key += ';';
    key += std::to_string(edge.from);
    key += ',';
    key += std::to_string(edge.to);
    key += ',';
    key += std::to_string(edge.buffer);
  }
  key += '|';
  key += std::to_string(static_cast<int>(options.algorithm));
  key += ',';
  key += std::to_string(static_cast<int>(options.general_policy));
  key += ',';
  key += std::to_string(options.cycle_limit);
  return key;
}

std::shared_ptr<const CompileResult> CompileCache::get_or_compile(
    const StreamGraph& g, const CompileOptions& options) {
  std::string key = signature(g, options);
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    ++stats_.misses;
  }
  auto result = std::make_shared<const CompileResult>(compile(g, options));
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing miss inserted first; adopt its result for consistency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(std::move(key), result);
  index_.emplace(lru_.front().first, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return result;
}

CompileCacheStats CompileCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t CompileCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

void CompileCache::clear() {
  std::lock_guard lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace sdaf::core
