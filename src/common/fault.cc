#include "common/fault.h"

#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/hash.h"
#include "common/jsonl.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace isum {

namespace {

constexpr uint64_t kDefaultSeed = 0x5EED;

/// splitmix64 finalizer: turns the (seed, site, invocation) combination into
/// well-mixed bits so low-entropy inputs still give uniform decisions.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from 64 mixed bits.
double ToUnit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

obs::Counter* InjectedCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("fault.injected");
  return counter;
}

/// Per-site injected-latency histogram, e.g. "fault.latency.whatif_cost"
/// (dots in the site name become underscores so the metric name stays one
/// dotted namespace deep). Registry lookup per injection is fine here: the
/// latency path sleeps anyway.
obs::Histogram* LatencyHistogram(const char* site) {
  std::string name = "fault.latency.";
  for (const char* p = site; *p != '\0'; ++p) {
    name += (*p == '.' || *p == '*') ? '_' : *p;
  }
  return obs::MetricsRegistry::Global().GetHistogram(name);
}

/// Splits the spec into its `;`-separated JSON entries, dropping blanks.
std::vector<std::string> SplitEntries(const std::string& spec) {
  std::vector<std::string> entries;
  std::string current;
  for (char c : spec + ";") {
    if (c == ';') {
      const std::string t(Trim(current));
      if (!t.empty()) entries.push_back(t);
      current.clear();
    } else {
      current += c;
    }
  }
  return entries;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

Status FaultInjector::Configure(const std::string& spec) {
  auto config = std::make_shared<Config>();
  config->seed = kDefaultSeed;
  for (const std::string& entry : SplitEntries(spec)) {
    ISUM_ASSIGN_OR_RETURN(const JsonValue object, ParseJson(entry));
    if (!object.is_object()) {
      return Status::ParseError("fault spec: entry is not a JSON object: " +
                                entry);
    }
    if (object.Has("seed")) {
      ISUM_ASSIGN_OR_RETURN(const double seed, object.Number("seed"));
      if (seed < 0.0) {
        return Status::InvalidArgument("fault spec: seed must be >= 0 in " +
                                       entry);
      }
      config->seed = static_cast<uint64_t>(seed);
      continue;
    }
    auto fault = std::make_unique<Fault>();
    ISUM_ASSIGN_OR_RETURN(fault->site, object.String("site"));
    ISUM_ASSIGN_OR_RETURN(const std::string kind, object.String("kind"));
    if (kind == "error") {
      fault->kind = Kind::kError;
    } else if (kind == "latency") {
      fault->kind = Kind::kLatency;
    } else {
      return Status::InvalidArgument("fault spec: unknown kind \"" + kind +
                                     "\" in " + entry);
    }
    ISUM_ASSIGN_OR_RETURN(fault->probability, object.Number("p"));
    if (fault->probability < 0.0 || fault->probability > 1.0) {
      return Status::InvalidArgument("fault spec: p must be in [0, 1] in " +
                                     entry);
    }
    if (fault->kind == Kind::kLatency) {
      ISUM_ASSIGN_OR_RETURN(const double ms, object.Number("ms"));
      if (ms < 0.0) {
        return Status::InvalidArgument("fault spec: ms must be >= 0 in " +
                                       entry);
      }
      fault->latency_nanos = static_cast<uint64_t>(ms * 1e6);
    }
    if (object.Has("after")) {
      ISUM_ASSIGN_OR_RETURN(const double after, object.Number("after"));
      if (after < 0.0) {
        return Status::InvalidArgument("fault spec: after must be >= 0 in " +
                                       entry);
      }
      fault->after = static_cast<uint64_t>(after);
    }
    fault->site_hash = HashBytes(fault->site);
    config->faults.push_back(std::move(fault));
  }

  const bool armed = !config->faults.empty();
  injected_.store(0, std::memory_order_relaxed);
  Install(armed ? std::shared_ptr<const Config>(std::move(config)) : nullptr);
  armed_.store(armed, std::memory_order_relaxed);
  return Status::OK();
}

Status FaultInjector::ConfigureFromEnvironment() {
  if (Armed()) return Status::OK();  // explicit configuration wins
  const char* spec = std::getenv("ISUM_FAULTS");
  if (spec == nullptr || *spec == '\0') return Status::OK();
  return Configure(spec);
}

void FaultInjector::Reset() {
  armed_.store(false, std::memory_order_relaxed);
  Install(nullptr);
  injected_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const FaultInjector::Config> FaultInjector::Snapshot() const {
  MutexLock lock(config_mu_);
  return config_;
}

void FaultInjector::Install(std::shared_ptr<const Config> config) {
  // The old configuration is released after the lock, by `config`.
  MutexLock lock(config_mu_);
  config_.swap(config);
}

Status FaultInjector::Inject(const char* site) {
  const std::shared_ptr<const Config> config = Snapshot();
  if (config == nullptr) return Status::OK();
  const std::string_view site_view(site);
  for (const auto& fault : config->faults) {
    if (fault->site != "*" && fault->site != site_view) continue;
    const uint64_t n =
        fault->invocations.fetch_add(1, std::memory_order_relaxed);
    if (n < fault->after) continue;  // dormant warm-up window
    const uint64_t bits =
        Mix(HashCombine(HashCombine(config->seed, fault->site_hash), n));
    if (ToUnit(bits) >= fault->probability) continue;
    injected_.fetch_add(1, std::memory_order_relaxed);
    InjectedCounter()->Add(1);
    if (fault->kind == Kind::kLatency) {
      LatencyHistogram(site)->Observe(fault->latency_nanos);
      SleepForNanos(fault->latency_nanos);
      continue;  // delayed, not failed; later rules may still fire
    }
    return Status::Unavailable(std::string("injected fault at ") + site);
  }
  return Status::OK();
}

uint64_t FaultInjector::seed() const {
  const std::shared_ptr<const Config> config = Snapshot();
  return config == nullptr ? 0 : config->seed;
}

std::vector<std::string> FaultInjector::ConfiguredSites() const {
  const std::shared_ptr<const Config> config = Snapshot();
  std::vector<std::string> sites;
  if (config == nullptr) return sites;
  for (const auto& fault : config->faults) sites.push_back(fault->site);
  return sites;
}

}  // namespace isum
