#include "core/replication.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "model/sorted_contains.h"
#include "util/error.h"
#include "verify/schedule_audit.h"

namespace ccdn {

namespace {

std::uint64_t pair_key(std::uint32_t i, std::uint32_t j) {
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

/// Mutable per-hotspot copy of λ_hv supporting O(log) lookup by video.
class RemainingDemand {
 public:
  RemainingDemand(const SlotDemand& demand, std::size_t num_hotspots) {
    videos_.resize(num_hotspots);
    counts_.resize(num_hotspots);
    for (std::size_t h = 0; h < num_hotspots; ++h) {
      const auto span = demand.video_demand(static_cast<HotspotIndex>(h));
      videos_[h].reserve(span.size());
      counts_[h].reserve(span.size());
      for (const auto& d : span) {
        videos_[h].push_back(d.video);
        counts_[h].push_back(d.count);
      }
    }
  }

  [[nodiscard]] std::uint32_t get(std::uint32_t h, VideoId v) const {
    const auto idx = index_of(h, v);
    return idx < 0 ? 0 : counts_[h][static_cast<std::size_t>(idx)];
  }

  void subtract(std::uint32_t h, VideoId v, std::uint32_t amount) {
    const auto idx = index_of(h, v);
    CCDN_ENSURE(idx >= 0 &&
                    counts_[h][static_cast<std::size_t>(idx)] >= amount,
                "over-subtracting local demand");
    counts_[h][static_cast<std::size_t>(idx)] -= amount;
  }

  [[nodiscard]] std::span<const VideoId> videos(std::uint32_t h) const {
    return videos_[h];
  }
  [[nodiscard]] std::span<const std::uint32_t> counts(std::uint32_t h) const {
    return counts_[h];
  }

 private:
  [[nodiscard]] std::ptrdiff_t index_of(std::uint32_t h, VideoId v) const {
    const auto& vs = videos_[h];
    const auto it = std::lower_bound(vs.begin(), vs.end(), v);
    if (it == vs.end() || *it != v) return -1;
    return it - vs.begin();
  }

  std::vector<std::vector<VideoId>> videos_;
  std::vector<std::vector<std::uint32_t>> counts_;
};

}  // namespace

ReplicationResult content_aggregation_replication(
    const SlotDemand& demand, std::span<const Hotspot> hotspots,
    std::span<const FlowEntry> flows, std::size_t replica_budget,
    AuditLevel audit_level) {
  const std::size_t m = hotspots.size();
  CCDN_REQUIRE(demand.num_hotspots() == m, "demand/hotspot count mismatch");

  ReplicationResult result;
  result.placements.resize(m);
  result.redirects.resize(m);

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

  RemainingDemand remaining(demand, m);

  // Cache state. `placed` stays sorted per hotspot (sorted_contains
  // lookups, positional inserts); cache capacity bounds its size, so the
  // inserts stay cheap and the final flatten is a plain move.
  std::vector<std::vector<VideoId>> placed(m);
  const auto is_placed = [&](std::uint32_t h, VideoId v) {
    return sorted_contains(placed[h], v);
  };
  std::vector<std::uint32_t> cache_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    cache_left[h] = hotspots[h].cache_capacity;
  }
  std::size_t budget_used = 0;
  // B_peak applies to every replica pushed this slot, whether it is placed
  // to absorb redirected flow or during the final local fill; a denial in
  // either phase marks the budget as exhausted.
  const auto try_place = [&](std::uint32_t h, VideoId v) {
    auto& list = placed[h];
    const auto it = std::lower_bound(list.begin(), list.end(), v);
    if (it != list.end() && *it == v) return true;
    if (cache_left[h] == 0) return false;
    if (budget_used >= replica_budget) {
      result.budget_exhausted = true;
      return false;
    }
    list.insert(it, v);
    --cache_left[h];
    ++result.replicas;
    ++budget_used;
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
        const auto videos = remaining.videos(senders[s]);
        const auto counts = remaining.counts(senders[s]);
        for (std::size_t idx = 0; idx < videos.size(); ++idx) {
          if (counts[idx] == 0) continue;
          contributions.push_back(
              {videos[idx], std::min<std::int64_t>(f, counts[idx])});
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

  // Redirections recorded as a flat per-origin (video, target, amount) log
  // in commit order; grouped by a stable sort at the end.
  struct RedirectLogEntry {
    VideoId video = 0;
    std::uint32_t target = 0;
    std::uint32_t amount = 0;
  };
  std::vector<std::vector<RedirectLogEntry>> redirect_log(m);
  std::unordered_set<std::uint64_t> dead_pairs;  // (j,v) that can never place

  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const std::uint32_t j = top.j;
    const VideoId v = top.video;
    if (dead_pairs.count(pair_key(j, v))) continue;
    const std::int64_t eu = current_eu(j, v);
    if (eu <= 0) continue;
    // Lazy key refresh: if stale and something better is on top, requeue.
    if (!heap.empty() &&
        static_cast<double>(eu) < heap.top().eu) {
      heap.push({static_cast<double>(eu), j, v});
      continue;
    }
    if (!try_place(j, v)) {
      // Cache at j full or budget exhausted, v absent; neither recovers
      // within this slot, so the pair can never place.
      dead_pairs.insert(pair_key(j, v));
      continue;
    }
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
      redirect_log[i].push_back({v, j, amount});
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
  // consumes serving capacity too.
  for (std::uint32_t h = 0; h < m; ++h) {
    for (const VideoId v : placed[h]) {
      serviceable_left[h] -= remaining.get(h, v);
    }
  }

  struct FillEntry {
    std::uint32_t count = 0;
    std::uint32_t hotspot = 0;
    VideoId video = 0;
  };
  std::vector<FillEntry> fill;
  for (std::uint32_t h = 0; h < m; ++h) {
    const auto videos = remaining.videos(h);
    const auto counts = remaining.counts(h);
    for (std::size_t idx = 0; idx < videos.size(); ++idx) {
      if (counts[idx] > 0 && !is_placed(h, videos[idx])) {
        fill.push_back({counts[idx], h, videos[idx]});
      }
    }
  }
  std::sort(fill.begin(), fill.end(), [](const FillEntry& a,
                                         const FillEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.hotspot != b.hotspot) return a.hotspot < b.hotspot;
    return a.video < b.video;
  });
  for (const auto& entry : fill) {
    if (budget_used >= replica_budget) {
      result.budget_exhausted = true;
      break;
    }
    if (cache_left[entry.hotspot] == 0) continue;
    if (serviceable_left[entry.hotspot] <= 0) continue;
    if (try_place(entry.hotspot, entry.video)) {
      serviceable_left[entry.hotspot] -= entry.count;
    }
  }

  // Flatten: placements are already sorted; group each origin's redirect
  // log by video (stable, so per-video targets keep commit order).
  for (std::uint32_t h = 0; h < m; ++h) {
    result.placements[h] = std::move(placed[h]);
    auto& log = redirect_log[h];
    std::stable_sort(log.begin(), log.end(),
                     [](const RedirectLogEntry& a, const RedirectLogEntry& b) {
                       return a.video < b.video;
                     });
    auto& list = result.redirects[h];
    for (std::size_t e = 0; e < log.size();) {
      VideoRedirect vr;
      vr.video = log[e].video;
      for (; e < log.size() && log[e].video == vr.video; ++e) {
        vr.targets.push_back({log[e].target, log[e].amount});
      }
      list.push_back(std::move(vr));
    }
  }
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
  struct Cursor {
    std::vector<RedirectTarget> targets;
    std::size_t index = 0;
  };
  // Per-hotspot cursor table, sorted by video for lower_bound lookup — the
  // redirect lists arrive sorted (content_aggregation_replication flattens
  // them that way), so this is a straight move.
  std::vector<std::vector<VideoId>> cursor_videos(redirects.size());
  std::vector<std::vector<Cursor>> cursors(redirects.size());
  for (std::size_t h = 0; h < redirects.size(); ++h) {
    cursor_videos[h].reserve(redirects[h].size());
    cursors[h].reserve(redirects[h].size());
    for (auto& vr : redirects[h]) {
      CCDN_ASSERT(cursor_videos[h].empty() || cursor_videos[h].back() < vr.video,
                  "redirect lists must be sorted by video");
      cursor_videos[h].push_back(vr.video);
      cursors[h].push_back(Cursor{std::move(vr.targets), 0});
    }
  }
  std::vector<HotspotIndex> assignment(requests.size(), kCdnServer);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex home = homes[r];
    CCDN_REQUIRE(home < cursors.size(), "home out of range");
    const auto& videos = cursor_videos[home];
    const auto it =
        std::lower_bound(videos.begin(), videos.end(), requests[r].video);
    if (it != videos.end() && *it == requests[r].video) {
      Cursor& cursor = cursors[home][static_cast<std::size_t>(
          it - videos.begin())];
      while (cursor.index < cursor.targets.size() &&
             cursor.targets[cursor.index].count == 0) {
        ++cursor.index;
      }
      if (cursor.index < cursor.targets.size()) {
        --cursor.targets[cursor.index].count;
        assignment[r] =
            static_cast<HotspotIndex>(cursor.targets[cursor.index].hotspot);
        continue;
      }
    }
    assignment[r] = home;
  }
  return assignment;
}

}  // namespace ccdn
