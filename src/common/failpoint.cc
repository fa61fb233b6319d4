#include "common/failpoint.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace beas {
namespace fail {

namespace {

enum class Action { kCrash, kError, kErrorNoSpace, kSleep, kOff };

enum class Trigger { kNth, kEvery, kProbability };

struct ArmedPoint {
  std::string site;
  Action action = Action::kCrash;
  Trigger trigger = Trigger::kNth;
  unsigned long nth = 1;       ///< kNth: fire exactly once, on this hit
  double probability = 0.0;    ///< kProbability: chance per hit
  uint64_t sleep_millis = 0;   ///< kSleep payload
  std::atomic<unsigned long> hits{0};
  /// Per-point LCG stream for probability triggers: deterministic per
  /// process, independent of how other points are hit.
  std::atomic<uint64_t> rng{0x9e3779b97f4a7c15ull};
};

struct Config {
  /// unique_ptr because the atomic counters are not movable.
  std::vector<std::unique_ptr<ArmedPoint>> points;
};

/// One entry of the BEAS_FAIL_POINTS syntax: site=action[(arg)][@trigger].
/// Malformed entries are dropped (fault injection must never take down a
/// production process that exported a typo).
void ParseEntry(Config* config, const std::string& entry) {
  size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) return;
  auto armed = std::make_unique<ArmedPoint>();
  armed->site = entry.substr(0, eq);
  std::string rest = entry.substr(eq + 1);
  std::string action = rest;
  size_t at = rest.rfind('@');
  if (at != std::string::npos) {
    action = rest.substr(0, at);
    std::string trig = rest.substr(at + 1);
    if (trig == "*") {
      armed->trigger = Trigger::kEvery;
    } else if (!trig.empty() && trig[0] == 'p') {
      armed->trigger = Trigger::kProbability;
      armed->probability = std::strtod(trig.c_str() + 1, nullptr);
    } else {
      armed->nth = std::strtoul(trig.c_str(), nullptr, 10);
      if (armed->nth == 0) armed->nth = 1;
    }
  }
  if (action == "crash") {
    armed->action = Action::kCrash;
  } else if (action == "error") {
    armed->action = Action::kError;
  } else if (action == "error(enospc)") {
    armed->action = Action::kErrorNoSpace;
  } else if (action.rfind("sleep(", 0) == 0 && action.back() == ')') {
    armed->action = Action::kSleep;
    armed->sleep_millis = std::strtoul(action.c_str() + 6, nullptr, 10);
  } else if (action == "off") {
    armed->action = Action::kOff;
  } else {
    return;  // unknown action: drop the entry
  }
  config->points.push_back(std::move(armed));
}

void ParseSpec(Config* config, const char* spec) {
  config->points.clear();
  if (spec == nullptr || *spec == '\0') return;
  std::string s = spec;
  size_t start = 0;
  while (start <= s.size()) {
    size_t sep = s.find(';', start);
    std::string entry = s.substr(
        start, sep == std::string::npos ? std::string::npos : sep - start);
    if (!entry.empty()) ParseEntry(config, entry);
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
}

/// Parsed once per process from BEAS_FAIL_POINTS.
Config& GlobalConfig() {
  static Config config;
  static bool parsed = [] {
    ParseSpec(&config, std::getenv("BEAS_FAIL_POINTS"));
    return true;
  }();
  (void)parsed;
  return config;
}

/// Whether this hit of `armed` fires, advancing its trigger state.
bool Fires(ArmedPoint* armed) {
  switch (armed->trigger) {
    case Trigger::kNth:
      return armed->hits.fetch_add(1) + 1 == armed->nth;
    case Trigger::kEvery:
      return true;
    case Trigger::kProbability: {
      // xorshift-free MCG step (Lehmer); the low bits are fine for a
      // coarse probability gate.
      uint64_t x = armed->rng.fetch_add(0xa0761d6478bd642full) + 1;
      x ^= x >> 32;
      x *= 0xe7037ed1a0b428dbull;
      x ^= x >> 29;
      double u = static_cast<double>(x >> 11) / 9007199254740992.0;  // 2^53
      return u < armed->probability;
    }
  }
  return false;
}

}  // namespace

void ArmForTesting(const char* spec) { ParseSpec(&GlobalConfig(), spec); }

Status Point(const char* site) {
  Config& config = GlobalConfig();
  if (config.points.empty()) return Status::OK();
  for (auto& armed : config.points) {
    if (armed->site != site) continue;
    if (!Fires(armed.get())) continue;
    switch (armed->action) {
      case Action::kCrash:
        _exit(kCrashExitCode);
      case Action::kError:
        return Status::IoError(std::string("injected failure at ") + site);
      case Action::kErrorNoSpace:
        // The strerror(ENOSPC) shape posix Env errors carry, so
        // disk-full handling (IsNoSpace) triggers on injected faults too.
        return Status::IoError(std::string("injected failure at ") + site +
                               ": No space left on device");
      case Action::kSleep:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(armed->sleep_millis));
        return Status::OK();
      case Action::kOff:
        break;
    }
  }
  return Status::OK();
}

}  // namespace fail
}  // namespace beas
