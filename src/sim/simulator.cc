#include "sim/simulator.h"

#include <deque>
#include <future>
#include <string>
#include <utility>

#include "geo/geo_point.h"
#include "model/sorted_contains.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "verify/schedule_audit.h"

namespace ccdn {

void SimulationReport::add_slot(SlotMetrics metrics,
                                std::vector<std::uint32_t> hotspot_loads,
                                StageTimings timings,
                                std::optional<SlotVerdict> verdict) {
  requests_ += metrics.requests;
  served_ += metrics.served;
  replicas_ += metrics.replicas;
  distance_sum_km_ += metrics.distance_sum_km;
  slots_.push_back(metrics);
  stage_timings_.push_back(timings);
  if (!hotspot_loads.empty()) {
    hotspot_loads_.push_back(std::move(hotspot_loads));
  }
  if (verdict.has_value()) verdicts_.push_back(std::move(*verdict));
}

StageTimings SimulationReport::total_stage_timings() const noexcept {
  StageTimings total;
  for (const auto& t : stage_timings_) total += t;
  return total;
}

double SimulationReport::serving_ratio() const noexcept {
  return requests_ == 0
             ? 0.0
             : static_cast<double>(served_) / static_cast<double>(requests_);
}

double SimulationReport::average_distance_km() const noexcept {
  return requests_ == 0 ? 0.0
                        : distance_sum_km_ / static_cast<double>(requests_);
}

double SimulationReport::replication_cost() const noexcept {
  return num_videos_ == 0 ? 0.0
                          : static_cast<double>(replicas_) /
                                static_cast<double>(num_videos_);
}

double SimulationReport::cdn_server_load() const noexcept {
  if (requests_ == 0) return 0.0;
  const double unserved = static_cast<double>(requests_ - served_);
  return (unserved + static_cast<double>(replicas_)) /
         static_cast<double>(requests_);
}

Simulator::Simulator(std::vector<Hotspot> hotspots, VideoCatalog catalog,
                     SimulationConfig config)
    : hotspots_(std::move(hotspots)),
      catalog_(catalog),
      config_(config),
      index_(
          [&] {
            CCDN_REQUIRE(!hotspots_.empty(), "no hotspots");
            std::vector<GeoPoint> locations;
            locations.reserve(hotspots_.size());
            for (const auto& h : hotspots_) locations.push_back(h.location);
            return locations;
          }(),
          /*cell_km=*/0.5) {
  CCDN_REQUIRE(config_.slot_seconds > 0, "non-positive slot length");
  CCDN_REQUIRE(catalog_.num_videos > 0, "empty catalog");
}

SlotMetrics admit_slot(const std::vector<Hotspot>& hotspots,
                       const SlotPlan& plan,
                       std::span<const Request> requests,
                       double cdn_distance_km,
                       std::vector<std::uint32_t>* served_loads) {
  CCDN_ENSURE(plan.assignment.size() == requests.size(),
              "plan assignment length mismatch");
  CCDN_ENSURE(plan.respects_caches(hotspots),
              "scheme exceeded cache capacities");

  SlotMetrics metrics;
  metrics.requests = requests.size();
  metrics.replicas = plan.total_replicas();
  std::vector<std::uint32_t> capacity_left(hotspots.size());
  for (std::size_t h = 0; h < hotspots.size(); ++h) {
    capacity_left[h] = hotspots[h].service_capacity;
  }
  if (served_loads != nullptr) served_loads->assign(hotspots.size(), 0);

  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = plan.assignment[r];
    bool served = false;
    if (target != kCdnServer) {
      CCDN_ENSURE(target < hotspots.size(), "assignment out of range");
      const auto& cached = plan.placements[target];
      if (!sorted_contains(cached, requests[r].video)) {
        ++metrics.rejected_placement;
      } else if (capacity_left[target] == 0) {
        ++metrics.rejected_capacity;
      } else {
        --capacity_left[target];
        served = true;
        metrics.distance_sum_km +=
            distance_km(requests[r].location, hotspots[target].location);
        ++metrics.served;
        if (served_loads != nullptr) ++(*served_loads)[target];
      }
    } else {
      ++metrics.sent_to_cdn;
    }
    if (!served) metrics.distance_sum_km += cdn_distance_km;
  }
  return metrics;
}

void require_catalog_videos(std::span<const Request> requests,
                            VideoCatalog catalog) {
  for (const Request& request : requests) {
    if (request.video >= catalog.num_videos) {
      throw ParseError("video id " + std::to_string(request.video) +
                       " is outside the catalog of " +
                       std::to_string(catalog.num_videos) + " videos");
    }
  }
}

namespace {

/// Everything one slot produces before the ordered reduction.
struct SlotResult {
  SlotPlan plan;
  SlotMetrics metrics;
  std::vector<std::uint32_t> served_at;
  StageTimings timings;
  std::optional<SlotVerdict> verdict;
};

/// The audit of `plan` as SimulationConfig::audit_level describes it.
SlotVerdict audit_slot(const SlotPlan& plan,
                       const std::vector<Hotspot>& hotspots,
                       std::span<const Request> requests,
                       const SlotDemand& demand, bool capacity_tier) {
  SlotVerdict verdict;
  verdict.digest = plan_digest(plan);
  audit_assignment(plan.assignment, requests.size(), hotspots.size(),
                   verdict.audit);
  audit_placements(plan.placements, hotspots, verdict.audit);
  if (capacity_tier) {
    audit_capacity(plan.assignment, plan.placements, hotspots, requests,
                   demand.request_home(), verdict.audit);
  }
  return verdict;
}

/// Plan + admit one slot. Pure in (scheme state, slot inputs), so distinct
/// slots may run concurrently as long as each invocation owns its scheme
/// instance. Shared verbatim by both run() overloads — this is what makes
/// streaming results bit-identical to in-memory ones.
SlotResult process_slot(const SimulationConfig& config,
                        const SchemeContext& context,
                        const std::vector<Hotspot>& hotspots,
                        const GridIndex& index, RedirectionScheme& slot_scheme,
                        std::span<const Request> slot_requests) {
  require_catalog_videos(slot_requests, context.catalog);
  SlotResult result;
  Stopwatch clock;
  const SlotDemand demand(slot_requests, index);
  result.timings.demand_s = clock.elapsed_seconds();
  result.plan = slot_scheme.plan_slot(context, slot_requests, demand);
  if (config.audit_level != AuditLevel::kOff) {
    result.verdict = audit_slot(result.plan, hotspots, slot_requests, demand,
                                slot_scheme.plans_within_capacity());
  }
  if (const StageTimings* plan_timings = slot_scheme.last_stage_timings()) {
    result.timings.partition_s = plan_timings->partition_s;
    result.timings.gc_build_s = plan_timings->gc_build_s;
    result.timings.graph_s = plan_timings->graph_s;
    result.timings.mcmf_s = plan_timings->mcmf_s;
    result.timings.replication_s = plan_timings->replication_s;
  }
  clock.reset();
  result.metrics = admit_slot(
      hotspots, result.plan, slot_requests, config.cdn_distance_km,
      config.record_hotspot_loads ? &result.served_at : nullptr);
  result.timings.admit_s = clock.elapsed_seconds();
  return result;
}

}  // namespace

SimulationReport Simulator::run(RedirectionScheme& scheme,
                                std::span<const Request> requests) const {
  VectorSlotSource source(requests, config_.slot_seconds);
  return run(scheme, source);
}

SimulationReport Simulator::run(RedirectionScheme& scheme,
                                SlotSource& source) const {
  CCDN_REQUIRE(source.slot_seconds() == config_.slot_seconds,
               "slot source window differs from simulator slot length");
  SimulationReport report(catalog_.num_videos, config_.cdn_distance_km);
  const SchemeContext context{hotspots_, index_, catalog_,
                              config_.cdn_distance_km, config_.num_shards};

  // Placement-delta charging chains slot i to slot i-1, so it lives in this
  // ordered reduction over already-computed plans, not in the fan-out.
  std::vector<std::vector<VideoId>> previous_placements;
  const auto reduce_slot = [&](SlotResult result) {
    result.metrics.replicas =
        count_new_replicas(previous_placements, result.plan.placements);
    previous_placements = std::move(result.plan.placements);
    report.add_slot(result.metrics, std::move(result.served_at),
                    result.timings, std::move(result.verdict));
  };

  const std::size_t num_threads = config_.num_threads == 0
                                      ? ThreadPool::default_threads()
                                      : config_.num_threads;
  const std::size_t window = 2 * num_threads;

  if (num_threads > 1) {
    if (SchemePtr probe = scheme.clone()) {
      // Pipelined window executor: at most `window` (W = 2 x threads) slot
      // batches are resident/in flight; slot k+W is not even pulled from
      // the source until slot k's ordered reduction retired
      // (backpressure). Each of the W lanes owns one scheme clone that is
      // recycled across window generations (slots k, k+W, k+2W, ... reuse
      // lane k%W), so a clone's cached state (RbcaerScheme's geo zone plan)
      // is built W times per run instead of once per slot. Lane reuse is
      // race-free because a lane's previous slot has always been
      // retired (its future consumed) before the lane is resubmitted; the
      // per-lane mutex makes that ownership handoff checkable (thread-
      // safety analysis and TSan both see the lock) and is uncontended by
      // construction, so it costs one atomic per slot.
      struct Lane {
        Mutex mu;
        SchemePtr clone CCDN_GUARDED_BY(mu);
        SlotBatch batch CCDN_GUARDED_BY(mu);
      };
      std::vector<Lane> lanes(window);
      {
        const MutexLock lock(lanes[0].mu);
        lanes[0].clone = std::move(probe);
      }
      for (std::size_t i = 1; i < window; ++i) {
        const MutexLock lock(lanes[i].mu);
        lanes[i].clone = scheme.clone();
      }
      ThreadPool pool(num_threads);
      // The source may parse ahead on the lanes (CsvSlotSource's pieces)
      // while this thread pulls. Those are parse tasks, which a worker
      // takes only when no slot task is queued, so no slot waits behind
      // one, and no slot task waits on one.
      const ThreadPool::Lend lend(pool);
      std::deque<std::future<SlotResult>> inflight;
      std::size_t submitted = 0;
      bool exhausted = false;
      const auto pump = [&] {
        while (!exhausted && inflight.size() < window) {
          std::optional<SlotBatch> batch = source.next();
          if (!batch.has_value()) {
            exhausted = true;
            break;
          }
          CCDN_ENSURE(batch->slot_index == submitted,
                      "slot source emitted slots out of order");
          Lane& lane = lanes[submitted % window];
          {
            const MutexLock lock(lane.mu);
            lane.batch = std::move(*batch);
          }
          inflight.push_back(pool.submit([this, &context, &lane] {
            const MutexLock lock(lane.mu);
            return process_slot(config_, context, hotspots_, index_,
                                *lane.clone, lane.batch.requests);
          }));
          ++submitted;
        }
      };
      pump();
      while (!inflight.empty()) {
        reduce_slot(inflight.front().get());
        inflight.pop_front();
        pump();
      }
      return report;
    }
    // Stateful scheme: planning order is part of its semantics, so fall
    // through to the sequential path.
  }
  // Sequential path: one batch resident at a time.
  while (std::optional<SlotBatch> batch = source.next()) {
    reduce_slot(process_slot(config_, context, hotspots_, index_, scheme,
                             batch->requests));
  }
  return report;
}

}  // namespace ccdn
