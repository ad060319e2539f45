#include "core/replication.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>

#include "model/sorted_contains.h"
#include "util/error.h"
#include "verify/schedule_audit.h"

namespace ccdn {

RemainingDemand::RemainingDemand(const SlotDemand& demand) : demand_(demand) {
  // The rows lie end to end in hotspot order, so appending them row by row
  // lays the counts out in the demand's CSR order.
  const auto m = static_cast<HotspotIndex>(demand.num_hotspots());
  counts_.reserve(demand.first_pair(m));
  for (HotspotIndex h = 0; h < m; ++h) {
    for (const VideoDemand& d : demand.video_demand(h)) {
      counts_.push_back(d.count);
    }
  }
}

std::size_t RemainingDemand::find(std::uint32_t h, VideoId v) const {
  const auto row = pairs(h);
  const auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const VideoDemand& d, VideoId video) { return d.video < video; });
  if (it == row.end() || it->video != v) return counts_.size();
  return demand_.first_pair(h) + static_cast<std::size_t>(it - row.begin());
}

std::uint32_t RemainingDemand::get(std::uint32_t h, VideoId v) const {
  const std::size_t pair = find(h, v);
  return pair == counts_.size() ? 0 : counts_[pair];
}

void RemainingDemand::subtract(std::uint32_t h, VideoId v,
                               std::uint32_t amount) {
  const std::size_t pair = find(h, v);
  CCDN_ENSURE(pair < counts_.size() && counts_[pair] >= amount,
              "over-subtracting local demand");
  counts_[pair] -= amount;
}

namespace {

/// One pass of a stable LSD radix sort on ~count: the entries `for_each`
/// lists, by the byte of ~count at `shift`, into `out`.
template <typename ForEach>
void radix_pass(int shift, const ForEach& for_each,
                std::vector<FillEntry>& out) {
  const auto digit = [shift](const FillEntry& e) {
    return (~e.count >> shift) & 0xffU;
  };
  std::array<std::size_t, 257> start{};
  for_each([&](const FillEntry& e) { ++start[digit(e) + 1]; });
  std::partial_sum(start.begin(), start.end(), start.begin());
  out.resize(start[256]);
  for_each([&](const FillEntry& e) { out[start[digit(e)]++] = e; });
}

}  // namespace

std::vector<FillEntry> fill_order(const RemainingDemand& remaining) {
  CCDN_REQUIRE(
      remaining.num_pairs() <= std::numeric_limits<std::uint32_t>::max(),
      "more than 2^32 - 1 pairs");
  // The walk over the CSR lists the pairs with demand left by hotspot,
  // then video, ascending: the fill order's tie-break. Stable passes on
  // ~count, 8 bits each and only as many as the largest count needs, put
  // the counts in descending order and keep that tie-break among equal
  // counts (DESIGN.md §3.17). The first pass reads the CSR directly.
  std::uint32_t max_count = 0;
  const auto walk = [&](const auto& visit) {
    std::uint32_t pair = 0;
    for (std::uint32_t h = 0; h < remaining.num_hotspots(); ++h) {
      const auto row = remaining.pairs(h);
      const auto left = remaining.left(h);
      for (std::size_t k = 0; k < row.size(); ++k, ++pair) {
        if (left[k] == 0) continue;
        max_count = std::max(max_count, left[k]);
        visit(FillEntry{left[k], h, row[k].video, pair});
      }
    }
  };
  std::vector<FillEntry> fill;
  radix_pass(0, walk, fill);
  std::vector<FillEntry> scratch;
  const auto listed = [&fill](const auto& visit) {
    for (const FillEntry& e : fill) visit(e);
  };
  const auto count_bits = static_cast<int>(std::bit_width(max_count));
  for (int shift = 8; shift < count_bits; shift += 8) {
    radix_pass(shift, listed, scratch);
    fill.swap(scratch);
  }
  return fill;
}

std::vector<std::vector<VideoRedirect>> RedirectLog::grouped() {
  std::vector<std::vector<VideoRedirect>> redirects(log_.size());
  for (std::size_t h = 0; h < log_.size(); ++h) {
    auto& log = log_[h];
    std::stable_sort(log.begin(), log.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.video < b.video;
                     });
    for (std::size_t e = 0; e < log.size();) {
      VideoRedirect& vr = redirects[h].emplace_back();
      vr.video = log[e].video;
      for (; e < log.size() && log[e].video == vr.video; ++e) {
        vr.targets.push_back({log[e].target, log[e].amount});
      }
    }
    log.clear();
  }
  return redirects;
}

ReplicationResult content_aggregation_replication(
    const SlotDemand& demand, std::span<const Hotspot> hotspots,
    std::span<const FlowEntry> flows, std::size_t replica_budget,
    AuditLevel audit_level) {
  const std::size_t m = hotspots.size();
  CCDN_REQUIRE(demand.num_hotspots() == m, "demand/hotspot count mismatch");

  ReplicationResult result;
  result.placements.resize(m);

  // Residual flows and the sender lists SinktoSource(j): per receiver a
  // sorted sender array with a parallel flow-left array, so the inner e_u
  // loops index straight through instead of hashing (i, j) pairs.
  std::vector<std::vector<std::uint32_t>> senders_of(m);
  std::vector<std::vector<std::int64_t>> flow_from(m);
  for (const auto& f : flows) {
    CCDN_REQUIRE(f.from < m && f.to < m, "flow endpoint out of range");
    CCDN_REQUIRE(f.amount > 0, "non-positive flow entry");
    senders_of[f.to].push_back(f.from);
  }
  for (std::uint32_t j = 0; j < m; ++j) {
    auto& senders = senders_of[j];
    std::sort(senders.begin(), senders.end());
    senders.erase(std::unique(senders.begin(), senders.end()), senders.end());
    flow_from[j].assign(senders.size(), 0);
  }
  const auto sender_slot = [&](std::uint32_t i, std::uint32_t j) {
    const auto& senders = senders_of[j];
    const auto it = std::lower_bound(senders.begin(), senders.end(), i);
    CCDN_ASSERT(it != senders.end() && *it == i, "unknown sender");
    return static_cast<std::size_t>(it - senders.begin());
  };
  for (const auto& f : flows) {
    flow_from[f.to][sender_slot(f.from, f.to)] += f.amount;
  }

  RemainingDemand remaining(demand);

  // Cache state. The placement lists stay sorted per hotspot: the redirect
  // phase inserts in place, the final fill merges once per hotspot.
  auto& placed = result.placements;
  std::vector<std::uint32_t> cache_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    cache_left[h] = hotspots[h].cache_capacity;
  }
  // B_peak applies to every replica pushed this slot, whether it is placed
  // to absorb redirected flow or during the final local fill; a denial in
  // either phase marks the budget as exhausted. This is the redirect
  // phase's placement; the final fill applies the same checks.
  const auto try_place = [&](std::uint32_t h, VideoId v) {
    auto& list = placed[h];
    const auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it != list.end() && *it == v) return true;
    if (cache_left[h] == 0) return false;
    if (result.replicas >= replica_budget) {
      result.budget_exhausted = true;
      return false;
    }
    list.insert(it, v);
    --cache_left[h];
    ++result.replicas;
    return true;
  };

  // --- Redirect phase: lazy max-heap over e_u(v, j). ---
  struct HeapEntry {
    double eu = 0.0;
    std::uint32_t j = 0;
    VideoId video = 0;
    bool operator<(const HeapEntry& other) const {
      if (eu != other.eu) return eu < other.eu;
      if (j != other.j) return j > other.j;
      return video > other.video;
    }
  };
  const auto current_eu = [&](std::uint32_t j, VideoId v) {
    std::int64_t eu = 0;
    const auto& senders = senders_of[j];
    const auto& left = flow_from[j];
    for (std::size_t s = 0; s < senders.size(); ++s) {
      if (left[s] <= 0) continue;
      eu += std::min<std::int64_t>(left[s], remaining.get(senders[s], v));
    }
    return eu;
  };

  std::priority_queue<HeapEntry> heap;
  {
    // Seed with every (v, j) pair that has positive initial e_u: gather the
    // per-sender contributions for one receiver, aggregate by sort, push.
    // (The heap's strict total order on (eu, j, video) makes the pop
    // sequence independent of the push order.)
    struct Contribution {
      VideoId video = 0;
      std::int64_t amount = 0;
    };
    std::vector<Contribution> contributions;
    for (std::uint32_t j = 0; j < m; ++j) {
      contributions.clear();
      const auto& senders = senders_of[j];
      const auto& left = flow_from[j];
      for (std::size_t s = 0; s < senders.size(); ++s) {
        const std::int64_t f = left[s];
        const auto row = remaining.pairs(senders[s]);
        const auto counts = remaining.left(senders[s]);
        for (std::size_t idx = 0; idx < row.size(); ++idx) {
          if (counts[idx] == 0) continue;
          contributions.push_back(
              {row[idx].video, std::min<std::int64_t>(f, counts[idx])});
        }
      }
      std::sort(contributions.begin(), contributions.end(),
                [](const Contribution& a, const Contribution& b) {
                  return a.video < b.video;
                });
      for (std::size_t c = 0; c < contributions.size();) {
        std::int64_t eu = 0;
        const VideoId video = contributions[c].video;
        for (; c < contributions.size() && contributions[c].video == video;
             ++c) {
          eu += contributions[c].amount;
        }
        if (eu > 0) heap.push({static_cast<double>(eu), j, video});
      }
    }
  }

  RedirectLog log(m);
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const std::uint32_t j = top.j;
    const VideoId v = top.video;
    const std::int64_t eu = current_eu(j, v);
    if (eu <= 0) continue;
    // Lazy key refresh: if stale and something better is on top, requeue.
    if (!heap.empty() &&
        static_cast<double>(eu) < heap.top().eu) {
      heap.push({static_cast<double>(eu), j, v});
      continue;
    }
    // Cache at j full or budget exhausted, v absent: neither recovers
    // within this slot. The pair is dropped for good: seeding pushed it
    // once and only its own lazy re-key pushes it again, so the heap holds
    // it at most once (DESIGN.md §3.17).
    if (!try_place(j, v)) continue;
    // Commit: move every sender's redirectable share of v to j.
    const auto& senders = senders_of[j];
    auto& left = flow_from[j];
    for (std::size_t s = 0; s < senders.size(); ++s) {
      if (left[s] <= 0) continue;
      const std::uint32_t i = senders[s];
      const std::uint32_t amount = static_cast<std::uint32_t>(
          std::min<std::int64_t>(left[s], remaining.get(i, v)));
      if (amount == 0) continue;
      left[s] -= amount;
      remaining.subtract(i, v, amount);
      log.add(i, v, j, amount);
      result.total_redirected += amount;
    }
  }

  // --- Final fill: rank remaining local demand e_l(v, i) descending. ---
  // A replica is only worth its replication bandwidth if the hotspot can
  // actually serve requests for it, so the fill stops charging a hotspot
  // once its service capacity is spoken for (redirected inflow counts
  // against it: those requests are already guaranteed placements).
  std::vector<std::int64_t> serviceable_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    serviceable_left[h] =
        static_cast<std::int64_t>(hotspots[h].service_capacity);
  }
  for (const auto& f : flows) {
    serviceable_left[f.to] -= f.amount;
  }
  // Demand already covered by replicas placed during the redirect phase
  // consumes serving capacity too, and leaves the fill nothing to place.
  for (std::uint32_t h = 0; h < m; ++h) {
    for (const VideoId v : placed[h]) {
      const std::uint32_t covered = remaining.get(h, v);
      if (covered == 0) continue;
      serviceable_left[h] -= covered;
      remaining.subtract(h, v, covered);
    }
  }
  // Every ranked pair has demand left, and the loop above drained each
  // pair the redirect phase placed, so no ranked video is placed at its
  // hotspot yet: the fill only marks the pairs it places, then merges each
  // touched hotspot's marked videos, ascending by its row, into its list.
  std::vector<std::uint8_t> fill_placed(remaining.num_pairs(), 0);
  std::vector<std::uint8_t> filled(m, 0);
  for (const FillEntry& entry : fill_order(remaining)) {
    if (result.replicas >= replica_budget) {
      result.budget_exhausted = true;
      break;
    }
    const std::uint32_t h = entry.hotspot;
    if (cache_left[h] == 0) continue;
    if (serviceable_left[h] <= 0) continue;
    CCDN_ASSERT(!sorted_contains(placed[h], entry.video),
                "fill pair already placed");
    fill_placed[entry.pair] = 1;
    filled[h] = 1;
    --cache_left[h];
    ++result.replicas;
    serviceable_left[h] -= entry.count;
  }
  for (std::uint32_t h = 0; h < m; ++h) {
    if (filled[h] == 0) continue;
    auto& list = placed[h];
    const auto redirect_placed = static_cast<std::ptrdiff_t>(list.size());
    const auto row = remaining.pairs(h);
    const std::size_t first = demand.first_pair(h);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (fill_placed[first + k] != 0) list.push_back(row[k].video);
    }
    std::inplace_merge(list.begin(), list.begin() + redirect_placed,
                       list.end());
  }

  result.redirects = log.grouped();
  if constexpr (kCheckedBuild) {
    if (audit_level >= AuditLevel::kPlan) {
      AuditReport report;
      audit_replication(result, hotspots, replica_budget, report);
      report.require_clean("procedure-1 replication");
    }
  }
  return result;
}

std::vector<HotspotIndex> materialize_assignment(
    std::span<const Request> requests, std::span<const HotspotIndex> homes,
    std::vector<std::vector<VideoRedirect>> redirects) {
  CCDN_REQUIRE(homes.size() == requests.size(),
               "homes/requests length mismatch");
  if constexpr (kCheckedBuild) {
    for (const auto& list : redirects) {
      CCDN_REQUIRE(std::ranges::adjacent_find(list, std::greater_equal<>{},
                                              &VideoRedirect::video) ==
                       list.end(),
                   "redirect lists must be sorted by video");
    }
  }
  std::vector<HotspotIndex> assignment(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex home = homes[r];
    CCDN_REQUIRE(home < redirects.size(), "home out of range");
    assignment[r] = home;
    auto& list = redirects[home];
    const auto it = std::ranges::lower_bound(list, requests[r].video, {},
                                             &VideoRedirect::video);
    if (it == list.end() || it->video != requests[r].video) continue;
    // A target's count only falls, so the first one with a count left is
    // where this video's previous request stopped.
    for (RedirectTarget& target : it->targets) {
      if (target.count == 0) continue;
      --target.count;
      assignment[r] = static_cast<HotspotIndex>(target.hotspot);
      break;
    }
  }
  return assignment;
}

}  // namespace ccdn
