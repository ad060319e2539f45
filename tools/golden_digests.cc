// golden_digests — golden-trace regression harness for scheme plans.
//
//   golden_digests --regenerate=bench/golden/digests_small.json
//       Recompute the per-slot plan digests for every scheme on the fixed
//       golden workload and rewrite the golden file (the one-command
//       regeneration path after an intentional algorithm change).
//
//   golden_digests --check=bench/golden/digests_small.json
//       Recompute and compare against the golden file. Any per-slot digest
//       drift, missing scheme, slot-count mismatch, or slot whose plan
//       fails its audit is reported and the tool exits 1 — this is the
//       ctest/CI gate.
//
//   golden_digests --check=... --perturb=<scheme>
//       Flip one bit of one freshly computed digest before comparing, to
//       prove the harness actually detects drift (wired into ctest twice:
//       with WILL_FAIL, so a silently-green comparator fails the suite,
//       and matching the drift report, so a usage error does not pass as
//       detected drift).
//
// The workload is fixed in code (not read from the file) so the golden
// file cannot drift away from what the tool recomputes: a 40-hotspot /
// 1500-video world at seed 7, uniform 5%/3% capacities, a 30000-request
// 24 h trace at seed 7, hourly slots. Digests are the FNV-1a plan digests
// of the simulator's per-slot verdicts (audit_level != kOff), so this
// harness pins the exact (assignment, placements) decisions of every
// pinned scheme variant — any change to the solver pipeline that alters a
// single slot's plan shows up as a named scheme/slot mismatch. The same
// verdicts audit every plan, in release builds too: the assignment and
// placement shape for every scheme, and service capacity for the RBCAer
// family; a violation counts as a mismatch, naming the scheme, slot and
// invariant.
//
// Exit status: 0 clean, 1 drift or a violation detected, 2 usage/IO
// errors (an unknown flag and an unwritable --regenerate path included).
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"

#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

namespace {

using namespace ccdn;

constexpr std::size_t kHotspots = 40;
constexpr std::uint32_t kVideos = 1500;
constexpr std::uint64_t kSeed = 7;
constexpr double kCapacityShare = 0.05;
constexpr double kCacheShare = 0.03;
constexpr std::size_t kRequests = 30000;
constexpr std::size_t kHours = 24;
constexpr std::int64_t kSlotSeconds = 3600;

const char* const kSchemes[] = {"nearest",       "random",
                                "rbcaer",        "virtual",
                                "rbcaer-shard2", "virtual-shard2",
                                "rbcaer-shard4", "virtual-shard4"};

// Runtime plan contracts checked on every run, in addition to the pinned
// golden comparison. Each row compares a scheme's freshly computed per-slot
// digests with another's — never with a pinned lineage of its own, so the
// gates survive intentional base-scheme changes without an extra
// regeneration step.
//
//   "-shard1":  the zone-sharded orchestration with a single shard must be
//               bit-identical to the unsharded path (DESIGN.md §3.12) —
//               the sub-instance rebuild and the id remap may not change
//               a single plan bit. Not pinned.
//   vs nearest: workload guard. The digests only see a planner change in
//               slots where the planner moves something, so each RBCAer
//               scheme must plan differently from "nearest" in at least
//               half the slots, or the workload has grown too slack.
struct VariantCheck {
  const char* variant;
  const char* base;
  const char* contract;
  bool must_differ;  // in >= half the slots; otherwise equal in every slot
};
const VariantCheck kVariantChecks[] = {
    {"rbcaer-shard1", "rbcaer", "shard=1 bit-identity", false},
    {"virtual-shard1", "virtual", "shard=1 bit-identity", false},
    {"rbcaer", "nearest", "planner workload guard", true},
    {"virtual", "nearest", "planner workload guard", true},
};

std::vector<SlotVerdict> compute_verdicts(const std::string& scheme_name,
                                          const World& world,
                                          std::span<const Request> trace) {
  SimulationConfig config;
  config.slot_seconds = kSlotSeconds;
  config.audit_level = AuditLevel::kPlan;  // one verdict per slot
  // "<scheme>-shard<N>" plans in N geo zones.
  std::string base = scheme_name;
  const std::size_t shard_pos = base.rfind("-shard");
  if (shard_pos != std::string::npos) {
    config.num_shards = std::stoull(base.substr(shard_pos + 6));
    base.resize(shard_pos);
  }
  SchemePtr scheme = cli::scheme_by_name(base, AuditLevel::kOff);
  const Simulator simulator(world.hotspots(), VideoCatalog{kVideos}, config);
  return simulator.run(*scheme, trace).verdicts();
}

std::string format_hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// --- golden-file IO ------------------------------------------------------
// The file is JSON for toolability, but the format is fixed and flat, so a
// tiny purpose-built scanner suffices (no JSON dependency in the repo):
// each scheme maps to an array of 16-hex-digit strings.

void write_golden(const std::string& path,
                  const std::vector<std::pair<std::string,
                                              std::vector<std::uint64_t>>>&
                      digests) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open for writing: " + path);
  }
  out << "{\n";
  out << "  \"workload\": {\n";
  out << "    \"hotspots\": " << kHotspots << ",\n";
  out << "    \"videos\": " << kVideos << ",\n";
  out << "    \"seed\": " << kSeed << ",\n";
  out << "    \"capacity_share\": " << kCapacityShare << ",\n";
  out << "    \"cache_share\": " << kCacheShare << ",\n";
  out << "    \"requests\": " << kRequests << ",\n";
  out << "    \"hours\": " << kHours << ",\n";
  out << "    \"slot_seconds\": " << kSlotSeconds << "\n";
  out << "  },\n";
  out << "  \"digests\": {\n";
  for (std::size_t s = 0; s < digests.size(); ++s) {
    out << "    \"" << digests[s].first << "\": [";
    for (std::size_t i = 0; i < digests[s].second.size(); ++i) {
      if (i != 0) out << ", ";
      out << '"' << format_hex(digests[s].second[i]) << '"';
    }
    out << ']' << (s + 1 < digests.size() ? "," : "") << '\n';
  }
  out << "  }\n";
  out << "}\n";
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write: " + path);
  }
}

/// Extract the digest array recorded for `scheme` in the golden file text:
/// finds `"<scheme>": [` and collects the quoted hex strings up to `]`.
/// Returns false when the scheme key is absent.
bool scan_golden(const std::string& text, const std::string& scheme,
                 std::vector<std::uint64_t>& out) {
  const std::string key = '"' + scheme + '"';
  std::size_t pos = text.find(key);
  if (pos == std::string::npos) return false;
  pos = text.find('[', pos + key.size());
  if (pos == std::string::npos) return false;
  const std::size_t end = text.find(']', pos);
  if (end == std::string::npos) return false;
  out.clear();
  while (true) {
    const std::size_t open = text.find('"', pos);
    if (open == std::string::npos || open > end) break;
    const std::size_t close = text.find('"', open + 1);
    if (close == std::string::npos || close > end) return false;
    const std::string hex = text.substr(open + 1, close - open - 1);
    out.push_back(std::strtoull(hex.c_str(), nullptr, 16));
    pos = close + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string check_path = flags.get_string("check", "");
  const std::string regen_path = flags.get_string("regenerate", "");
  const std::string perturb = flags.get_string("perturb", "");
  // Substring filter for check mode: only schemes / variant contracts whose
  // name contains it are recomputed (base schemes a surviving contract
  // needs are computed on demand). Lets CI matrix jobs run e.g.
  // --only=shard without paying for the full scheme set.
  const std::string only = flags.get_string("only", "");
  const auto unused = flags.unused();
  for (const auto& name : unused) {
    std::fprintf(stderr, "golden_digests: unknown flag --%s\n", name.c_str());
  }
  if (!unused.empty()) return 2;
  if (check_path.empty() == regen_path.empty()) {
    std::fprintf(stderr,
                 "usage: golden_digests --check=<golden.json> "
                 "[--perturb=<scheme>] [--only=<substring>] | "
                 "--regenerate=<golden.json>\n");
    return 2;
  }

  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = kHotspots;
  world_config.num_videos = kVideos;
  world_config.seed = kSeed;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, kCapacityShare, kCacheShare);
  TraceConfig trace_config;
  trace_config.num_requests = kRequests;
  trace_config.duration_hours = kHours;
  trace_config.seed = kSeed;
  const auto trace = generate_trace(world, trace_config);

  try {
    // Memoized digest computation, so variant contracts can pull in base
    // schemes a filter excluded without recomputing anything twice. Each
    // computed scheme's failing verdicts are reported once, as it runs.
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> computed;
    std::size_t violations = 0;
    const auto digests_of =
        [&](const std::string& name) -> std::vector<std::uint64_t> {
      for (const auto& entry : computed) {
        if (entry.first == name) return entry.second;
      }
      std::vector<std::uint64_t> digests;
      const std::vector<SlotVerdict> verdicts =
          compute_verdicts(name, world, trace);
      for (std::size_t s = 0; s < verdicts.size(); ++s) {
        digests.push_back(verdicts[s].digest);
        if (!verdicts[s].audit.ok()) {
          std::fprintf(stderr, "golden_digests: %s slot %zu: FAIL %s\n",
                       name.c_str(), s, verdicts[s].audit.summary().c_str());
          violations += verdicts[s].audit.violations().size();
        }
      }
      computed.emplace_back(name, std::move(digests));
      return computed.back().second;
    };
    std::size_t variants_checked = 0;
    const auto check_variants = [&](const std::string& filter) {
      std::size_t bad = 0;
      for (const VariantCheck& check : kVariantChecks) {
        const std::string variant(check.variant);
        if (!filter.empty() && variant.find(filter) == std::string::npos) {
          continue;
        }
        ++variants_checked;
        const std::vector<std::uint64_t> got = digests_of(variant);
        const std::vector<std::uint64_t> base = digests_of(check.base);
        std::size_t differing = 0;
        for (std::size_t s = 0; s < got.size() && s < base.size(); ++s) {
          if (got[s] != base[s]) ++differing;
        }
        const bool holds =
            check.must_differ ? 2 * differing >= got.size() : got == base;
        std::fprintf(holds ? stdout : stderr,
                     "golden_digests: %s plans differ from %s's in %zu/%zu "
                     "slots (%s %s)\n",
                     check.variant, check.base, differing, got.size(),
                     check.contract, holds ? "holds" : "broken");
        if (!holds) ++bad;
      }
      return bad;
    };

    if (!regen_path.empty()) {
      std::vector<std::pair<std::string, std::vector<std::uint64_t>>> all;
      for (const char* name : kSchemes) {
        all.emplace_back(name, digests_of(name));
        std::printf("golden_digests: %s -> %zu slot digest(s)\n", name,
                    all.back().second.size());
      }
      // All variant contracts ride along (unfiltered); never write a golden
      // file from a tree whose promises are already broken.
      if (check_variants("") != 0 || violations != 0) {
        std::fprintf(stderr,
                     "golden_digests: refusing to write a golden file with "
                     "a broken variant contract or plan audit\n");
        return 1;
      }
      write_golden(regen_path, all);
      std::printf("golden_digests: wrote %s\n", regen_path.c_str());
      return 0;
    }

    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "golden_digests: cannot read %s\n",
                   check_path.c_str());
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    std::size_t mismatches = 0;
    std::size_t checked = 0;
    for (const char* name_cstr : kSchemes) {
      const std::string name(name_cstr);
      if (!only.empty() && name.find(only) == std::string::npos) continue;
      ++checked;
      std::vector<std::uint64_t> expected;
      if (!scan_golden(text, name, expected)) {
        std::fprintf(stderr, "golden_digests: scheme '%s' missing from %s\n",
                     name.c_str(), check_path.c_str());
        ++mismatches;
        continue;
      }
      std::vector<std::uint64_t> actual = digests_of(name);
      if (!perturb.empty() && perturb == name && !actual.empty()) {
        actual.front() ^= 1;  // prove the comparator catches drift
      }
      if (actual.size() != expected.size()) {
        std::fprintf(stderr,
                     "golden_digests: %s slot count drifted (golden %zu, "
                     "recomputed %zu)\n",
                     name.c_str(), expected.size(), actual.size());
        ++mismatches;
        continue;
      }
      std::size_t scheme_bad = 0;
      for (std::size_t s = 0; s < actual.size(); ++s) {
        if (actual[s] != expected[s]) {
          std::fprintf(stderr,
                       "golden_digests: %s slot %zu drifted (golden %s, "
                       "recomputed %s)\n",
                       name.c_str(), s, format_hex(expected[s]).c_str(),
                       format_hex(actual[s]).c_str());
          ++scheme_bad;
        }
      }
      mismatches += scheme_bad;
      std::printf("golden_digests: %s %zu slot(s) %s\n", name.c_str(),
                  actual.size(), scheme_bad == 0 ? "ok" : "DRIFTED");
    }
    mismatches += check_variants(only);
    mismatches += violations;
    // Some --only filters legitimately match only variant contracts (e.g.
    // shard1, whose promise is plan-equality, not a pinned digest) — error
    // only when the filter selected nothing at all.
    if (checked == 0 && variants_checked == 0 && !only.empty()) {
      std::fprintf(stderr,
                   "golden_digests: --only=%s matched no pinned scheme or "
                   "variant contract\n",
                   only.c_str());
      return 2;
    }
    if (mismatches != 0) {
      std::fprintf(stderr, "golden_digests: %zu mismatch(es) vs %s\n",
                   mismatches, check_path.c_str());
      return 1;
    }
    std::printf("golden_digests: all schemes match %s\n", check_path.c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "golden_digests: error: %s\n", error.what());
    return 2;
  }
}
