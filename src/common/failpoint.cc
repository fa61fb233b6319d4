#include "common/failpoint.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace beas {
namespace fail {

namespace {

struct ArmedPoint {
  std::string site;
  bool every = false;        ///< `@*`: sleep on every hit
  unsigned long nth = 1;     ///< otherwise sleep once, on this hit
  uint64_t sleep_millis = 0;
  std::atomic<unsigned long> hits{0};
};

/// unique_ptr because the atomic counters are not movable.
std::vector<std::unique_ptr<ArmedPoint>> armed_points;

/// One entry of the spec syntax: site=sleep(MS)[@trigger].
void ParseEntry(const std::string& entry) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) return;
  auto armed = std::make_unique<ArmedPoint>();
  armed->site = entry.substr(0, eq);
  std::string action = entry.substr(eq + 1);
  size_t at = action.rfind('@');
  if (at != std::string::npos) {
    std::string trigger = action.substr(at + 1);
    action.resize(at);
    if (trigger == "*") {
      armed->every = true;
    } else {
      armed->nth = std::strtoul(trigger.c_str(), nullptr, 10);
      if (armed->nth == 0) armed->nth = 1;
    }
  }
  if (action.rfind("sleep(", 0) != 0 || action.back() != ')') return;
  armed->sleep_millis = std::strtoul(action.c_str() + 6, nullptr, 10);
  armed_points.push_back(std::move(armed));
}

}  // namespace

void ArmForTesting(const char* spec) {
  armed_points.clear();
  if (spec == nullptr) return;
  std::string s = spec;
  size_t start = 0;
  while (start < s.size()) {
    size_t sep = s.find(';', start);
    if (sep == std::string::npos) sep = s.size();
    if (sep > start) ParseEntry(s.substr(start, sep - start));
    start = sep + 1;
  }
}

bool Point(const char* site) {
  for (auto& armed : armed_points) {
    if (armed->site != site) continue;
    if (!armed->every && armed->hits.fetch_add(1) + 1 != armed->nth) continue;
    std::this_thread::sleep_for(std::chrono::milliseconds(armed->sleep_millis));
    return true;
  }
  return false;
}

}  // namespace fail
}  // namespace beas
